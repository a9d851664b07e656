"""The benchmark worker clears the package's one unit state at every fresh
problem, in untraced and in traced runs alike.

``perfbench/worker.py`` and ``perfbench/spans.py`` are loaded by path and
used as they are.  ``spans.install`` rewires the package's modules, so the
check runs in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHECK = """
import importlib.util, sys

def load(name):
    spec = importlib.util.spec_from_file_location(
        name, {perfbench!r} + "/" + name + ".py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module

worker, spans = load("worker"), load("spans")
import slopedesign
from slopedesign import designs

state = designs._unit_state

def fresh_region_rebuilds_the_state():
    clearers = worker.cache_clearers()
    assert state.cache_clear in clearers
    for clear in clearers:
        clear()
    misses = state.cache_info().misses
    slopedesign.admissible_region(slopedesign.DesignProblem(6, 2.0))
    assert state.cache_info().misses == misses + 1
    return clearers

fresh_region_rebuilds_the_state()
tracer = spans.Tracer()
spans.install(tracer)
traced = fresh_region_rebuilds_the_state()
# The region call went through its span, and the oracle, which install
# imports, is cleared too.
assert tracer.totals["designs.admissible_region"][0] == 1
from slopedesign import oracle
assert oracle._grid_lp.cache_clear in traced
assert oracle._support_factor.cache_clear in traced
"""


def test_worker_clears_the_unit_state_untraced_and_traced():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = CHECK.format(perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

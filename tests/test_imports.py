"""numpy is loaded only by the oracle, the one module that imports it:
design, region, plotdata and a check of any design run without it.  No
command loads the exact-arithmetic modules fractions and decimal, and none
loads dataclasses or inspect, which the records of the package do without.

Each check runs in a fresh interpreter, since this test process has numpy
loaded already.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


NUMPY_FREE_COMMANDS = """
import contextlib, io, json, os, sys, tempfile
import slopedesign
from slopedesign import cli
design = io.StringIO()
with contextlib.redirect_stdout(design):
    assert cli.main(["design", "--n", "4", "--a", "1", "--z", "0.95"]) == 0
paths = []
# The design that design emits, on the closed-form support, and designs off
# it with equal weights: n + 1 and 2n points, and n - 1 points, at which the
# slope is not estimable.
for doc in [design.getvalue()] + [
        json.dumps({"points": [(k + 1) / m for k in range(m)],
                    "weights": [1 / m] * m}) for m in (5, 8, 3)]:
    fd, path = tempfile.mkstemp(suffix=".json")
    with os.fdopen(fd, "w") as fh:
        fh.write(doc)
    paths.append(path)
argvs = [
    ["design", "--n", "4", "--a", "1", "--z", "0.95"],
    ["design", "--n", "4", "--a", "1", "--z-list", "0.95", "0.2", "0.4"],
    ["region", "--n", "4", "--a", "1"],
    ["plotdata", "--n", "4", "--a", "1", "--what", "extremal"],
    ["plotdata", "--n", "4", "--a", "1", "--what", "weightderivs"],
] + [["check", "--n", "4", "--a", "1", "--z", "0.95", "--design", path]
     for path in paths]
try:
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        assert code in (0, 2), (argv, code)
        if argv[-1] == paths[-1]:
            assert json.loads(out.getvalue())["result"]["variance"] == "inf"
        for name in ("numpy", "fractions", "decimal", "dataclasses",
                     "inspect"):
            assert name not in sys.modules, (name, argv)
finally:
    for path in paths:
        os.remove(path)
"""


def test_package_and_commands_run_without_numpy():
    proc = run_python(NUMPY_FREE_COMMANDS)
    assert proc.returncode == 0, proc.stderr


def test_oracle_names_resolve_on_first_access():
    proc = run_python(NUMPY_FREE_COMMANDS + """
import slopedesign.oracle as oracle
assert slopedesign.compare is oracle.compare
assert slopedesign.GridSpec is oracle.GridSpec
assert slopedesign.variance is slopedesign.elfving.variance
ns = {}
exec("from slopedesign import *", ns)
assert set(slopedesign.__all__) <= set(ns)
problem = slopedesign.DesignProblem(3, 1.0)
report = slopedesign.compare(problem, 1.0, slopedesign.GridSpec(201))
assert report.agrees
design = slopedesign.optimal_design(problem, 1.0)
assert slopedesign.variance(problem, design, 1.0) == \
    report.closed_form_variance
assert "numpy" in sys.modules
""")
    assert proc.returncode == 0, proc.stderr


def test_cli_maps_the_oracle_failure_class_to_exit_70():
    proc = run_python("""
import sys
from slopedesign import cli
import slopedesign.oracle as oracle

def boom(*args, **kwargs):
    raise oracle.NumericalFailure("synthetic failure")

oracle.compare = boom
code = cli.main(["oracle", "--n", "2", "--a", "1", "--z", "1"])
assert code == 70, code
""")
    assert proc.returncode == 0, proc.stderr
    assert "synthetic failure" in proc.stderr


def test_package_keeps_one_lp_solver():
    # The dense-tableau two-phase simplex is the tests' reference
    # (tests/lp_reference.py); the package solves only the grid LP.
    proc = run_python("""
import slopedesign
import slopedesign.oracle as oracle
for name in ("simplex_minimize", "Infeasible"):
    assert not hasattr(slopedesign, name), name
    assert name not in slopedesign.__all__, name
for name in ("_two_phase", "_simplex_loop"):
    assert not hasattr(oracle, name), name
ns = {}
exec("from slopedesign import *", ns)
missing = set(slopedesign.__all__) - set(ns)
assert not missing, missing
""")
    assert proc.returncode == 0, proc.stderr


def test_restricted_route_is_pinned_to_the_support():
    # restricted_weights solves on the closed-form support only, so it
    # takes no support and has no singular one to report; Design checks
    # its points and weights in its constructor alone.
    proc = run_python("""
import inspect
import slopedesign
import slopedesign.oracle as oracle
from slopedesign import designs
params = list(inspect.signature(oracle.restricted_weights).parameters)
assert params == ["problem", "z"], params
assert not hasattr(oracle, "SingularSupport")
assert not hasattr(slopedesign, "SingularSupport")
assert "SingularSupport" not in slopedesign.__all__
for name in ("_check_points", "_check_weights"):
    assert not hasattr(designs, name), name
assert not hasattr(designs.Design, "_on_checked_points")
""")
    assert proc.returncode == 0, proc.stderr


def test_polynomial_module_holds_only_degenerate():
    # The benchmark's span installer imports slopedesign.polynomial by name.
    import slopedesign
    import slopedesign.polynomial as polynomial
    names = [n for n in vars(polynomial) if not n.startswith("__")]
    assert names == ["Degenerate"]
    assert slopedesign.Degenerate is polynomial.Degenerate


def test_only_the_oracle_imports_numpy():
    # Read from the source, so that no import order can hide one.
    importers = []
    for path in sorted((SRC / "slopedesign").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.append(path.name)
    assert sorted(set(importers)) == ["oracle.py"]

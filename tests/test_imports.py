"""numpy is loaded only by the code that works on arrays.

Each check runs in a fresh interpreter, since this test process has numpy
loaded already.
"""

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
import contextlib, io, sys
import slopedesign
from slopedesign import cli
argvs = [
    ["design", "--n", "4", "--a", "1", "--z", "0.95"],
    ["design", "--n", "4", "--a", "1", "--z-list", "0.95", "0.2", "0.4"],
    ["region", "--n", "4", "--a", "1"],
    ["plotdata", "--n", "4", "--a", "1", "--what", "extremal"],
    ["plotdata", "--n", "4", "--a", "1", "--what", "weightderivs"],
]
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 2), (argv, code)
    assert "numpy" not in sys.modules, argv
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
c = slopedesign.slope_vector(3, 1.0)
assert slopedesign.variance(design, c) == report.closed_form_variance
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

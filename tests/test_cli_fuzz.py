"""Property test of the CLI contract over generated argv.

Whatever the input, ``main`` returns or exits with a code in
{0, 2, 64, 65, 70}, lets no other exception escape, and on 0 or 2 a JSON
command prints exactly one JSON document, byte for byte as
``json.dumps(doc, indent=2, sort_keys=True)`` writes it, and a newline.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings, strategies as st

from slopedesign.cli import main

CONTRACT = {0, 2, 64, 65, 70}

reals = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300,
                     0.0, 1e-8, 0.5, 1.0, 3.0, 1e8]),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _num(x: float) -> str:
    return repr(float(x))


@st.composite
def argvs(draw):
    n = ["--n", str(draw(st.integers(-1, 8)))]
    a = ["--a", _num(draw(reals))]
    kind = draw(st.sampled_from(
        ["design", "design-list", "region", "check", "oracle", "plotdata"]))
    if kind == "design":
        return ["design", *n, *a, "--z", _num(draw(reals))], None
    if kind == "design-list":
        zs = draw(st.lists(reals, min_size=1, max_size=4))
        return ["design", *n, *a, "--z-list", *map(_num, zs)], None
    if kind == "region":
        return ["region", *n, *a], None
    if kind == "check":
        doc = {"points": draw(st.lists(reals, min_size=1, max_size=3)),
               "weights": draw(st.lists(reals, min_size=1, max_size=3))}
        return ["check", *n, *a, "--z", _num(draw(reals))], doc
    if kind == "oracle":
        return ["oracle", *n, *a, "--z", _num(draw(reals)),
                "--grid", str(draw(st.integers(0, 40)))], None
    return ["plotdata", *n, *a,
            "--what", draw(st.sampled_from(["extremal", "weightderivs"])),
            "--samples", str(draw(st.integers(0, 20)))], None


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


@settings(max_examples=500, deadline=None, derandomize=True)
@given(argvs())
def test_cli_contract(case):
    argv, design_doc = case
    with tempfile.TemporaryDirectory() as tmp:
        if design_doc is not None:
            path = os.path.join(tmp, "design.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(design_doc, fh)
            argv = argv + ["--design", path]
        code, out = _run(argv)
    assert code in CONTRACT, (argv, code)
    if code in (0, 2) and argv[0] != "plotdata":
        doc = json.loads(out)  # raises on a second document or trailing text
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"

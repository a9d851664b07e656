import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from slopedesign.cli import main
from slopedesign.designs import (DesignProblem, admissible_region,
                                 support_points)

from helpers import clear_caches

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import reference as R  # noqa: E402

SQRT2 = math.sqrt(2)
SQRT3 = math.sqrt(3)
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestDesignCommand:
    def test_n3_z1_covered(self, capsys):
        code, doc, _ = run_json(capsys, "design", "--n", "3", "--a", "1", "--z", "1")
        assert code == 0
        assert doc["schema_version"] == "1"
        assert doc["command"] == "design"
        assert doc["inputs"]["n"] == 3
        res = doc["result"]
        assert res["covered"] is True
        assert res["points"] == pytest.approx([0.19615, 0.73205, 1.0], abs=1e-4)
        assert res["certificate"]["verdict"] == "verified"
        assert res["variance"] == pytest.approx(res["certificate"]["h"] ** 2)

    def test_n1_scaled(self, capsys):
        code, doc, _ = run_json(capsys, "design", "--n", "1", "--a", "2", "--z", "0")
        assert code == 0
        assert doc["result"]["points"] == [2.0]
        assert doc["result"]["weights"] == [1.0]

    def test_gap_not_covered_exit_2(self, capsys):
        code, doc, _ = run_json(capsys, "design", "--n", "3", "--a", "1", "--z", "0.2")
        assert code == 2
        assert doc["result"]["covered"] is False
        assert doc["result"]["region"][0][0] == "-inf"
        assert doc["result"]["region"][-1][1] == "inf"

    def test_z_list_keeps_order(self, capsys):
        code, doc, _ = run_json(capsys, "design", "--n", "3", "--a", "1",
                                "--z-list", "1", "0.2", "0.4")
        assert code == 2  # one of the batch is uncovered
        zs = [entry["z"] for entry in doc["result"]]
        assert zs == [1.0, 0.2, 0.4]
        assert [e["covered"] for e in doc["result"]] == [True, False, True]

    # (sqrt 2 - 1) / 2, the upper end of the first interval of n = 2.
    BOUNDARY = 0.20710678118654757

    @pytest.mark.parametrize("targets", [["--z", repr(BOUNDARY)],
                                         ["--z-list", "1", repr(BOUNDARY)]],
                             ids=["z", "z-list"])
    def test_region_boundary_is_not_covered(self, capsys, targets):
        # A weight vanishes at the endpoint: exit 2 with the region, and one
        # warning that names the endpoint.
        code, doc, _ = run_json(capsys, "design", "--n", "2", "--a", "1",
                                *targets)
        assert code == 2
        res = doc["result"]
        if targets[0] == "--z-list":
            assert res[0]["covered"] is True
            assert res[1]["z"] == self.BOUNDARY
            res = res[1]
        assert res["covered"] is False
        assert res["region"] == [["-inf", self.BOUNDARY], [0.5, "inf"]]
        assert len(doc["warnings"]) == 1
        assert f"endpoint {self.BOUNDARY!r}" in doc["warnings"][0]

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "design", "--n", "4", "--a", "1", "--z", "0.95")
        _, out2, _ = run(capsys, "design", "--n", "4", "--a", "1", "--z", "0.95")
        assert out1 == out2

    def test_z_list_entries_match_single_targets(self, capsys):
        zs = ["-0.5", "0.25", "0.95"]
        _, doc, _ = run_json(capsys, "design", "--n", "4", "--a", "1",
                             "--z-list", *zs)
        for z, entry in zip(zs, doc["result"]):
            _, single, _ = run_json(capsys, "design", "--n", "4", "--a", "1",
                                    "--z", z)
            assert entry == {**single["result"], "z": float(z)}

    def test_negative_target_with_exponent(self, capsys):
        code, doc, _ = run_json(capsys, "design", "--n", "4", "--a", "1",
                                "--z", "-5e-05")
        assert code == 0
        assert doc["inputs"]["z"] == -5e-05
        assert doc["result"]["certificate"]["verdict"] == "verified"
        code, doc, _ = run_json(capsys, "design", "--n", "4", "--a", "1",
                                "--z-list", "-5e-05", "0.95")
        assert code == 0
        assert [e["z"] for e in doc["result"]] == [-5e-05, 0.95]
        assert all(e["certificate"]["verdict"] == "verified"
                   for e in doc["result"])

    # The variance is the correctly rounded square of the emitted h, as
    # h * h gives it.  At the first target of each batch h ** 2, through
    # libm's pow, read one ulp above it.
    @pytest.mark.parametrize("n,a,z", [
        ("6", "1.098950260780936", "-0.159860259633928"),
        ("4", "0.284829717230908", "-0.092085272368849")])
    def test_variance_is_h_times_h(self, capsys, n, a, z):
        code, doc, _ = run_json(capsys, "design", "--n", n, "--a", a,
                                "--z-list", z, a)
        assert code == 0
        for entry in doc["result"]:
            h = entry["certificate"]["h"]
            assert entry["variance"] == h * h, entry["z"]


class TestRegionCommand:
    def test_n4_reference(self, capsys):
        code, doc, _ = run_json(capsys, "region", "--n", "4", "--a", "1")
        assert code == 0
        ivs = doc["result"]["intervals"]
        assert len(ivs) == 4
        want = [0.05071, 0.1696, 0.3175, 0.6432, 0.7123, 0.9332]
        flat = [e for iv in ivs for e in iv if not isinstance(e, str)]
        assert flat == pytest.approx(want, abs=2e-3)
        assert ivs[0][0] == "-inf" and ivs[-1][1] == "inf"
        assert len(doc["result"]["roots"]) == 4
        assert len(doc["result"]["roots"]["2"]) == 3

    def test_n1_whole_line(self, capsys):
        code, doc, _ = run_json(capsys, "region", "--n", "1", "--a", "1")
        assert code == 0
        assert doc["result"]["intervals"] == [["-inf", "inf"]]

    def test_scaling(self, capsys):
        _, doc1, _ = run_json(capsys, "region", "--n", "3", "--a", "1")
        _, doc2, _ = run_json(capsys, "region", "--n", "3", "--a", "2")
        for iv1, iv2 in zip(doc1["result"]["intervals"], doc2["result"]["intervals"]):
            for e1, e2 in zip(iv1, iv2):
                if isinstance(e1, str):
                    assert e1 == e2
                else:
                    assert e2 == pytest.approx(2 * e1, rel=1e-9)


class TestCheckCommand:
    def test_round_trip_design_then_check(self, capsys, tmp_path):
        code, out, _ = run(capsys, "design", "--n", "4", "--a", "1", "--z", "0.95")
        assert code == 0
        f = tmp_path / "design.json"
        f.write_text(out, encoding="utf-8")
        code, doc, _ = run_json(capsys, "check", "--n", "4", "--a", "1",
                                "--z", "0.95", "--design", str(f))
        assert code == 0
        assert doc["result"]["verdict"] == "verified"

    def test_wrong_points_fail(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"points": [0.3, 0.9], "weights": [0.5, 0.5]}),
                     encoding="utf-8")
        code, doc, _ = run_json(capsys, "check", "--n", "2", "--a", "1",
                                "--z", "1", "--design", str(f))
        assert code == 0
        assert doc["result"]["verdict"] == "failed"

    def test_z_outside_region(self, capsys, tmp_path):
        f = tmp_path / "d.json"
        f.write_text(json.dumps({"points": [3 * SQRT3 - 5, SQRT3 - 1, 1.0],
                                 "weights": [0.2, 0.45, 0.35]}),
                     encoding="utf-8")
        code, doc, _ = run_json(capsys, "check", "--n", "3", "--a", "1",
                                "--z", "0.2", "--design", str(f))
        assert code == 2
        assert doc["result"]["verdict"] == "z_outside_region"

    # The region is valid and the points are distinct, but a scale D_i * a
    # of the basis derivatives underflows to 0, in the variance of a design
    # on the support as in h: a usage error naming a, which with n alone
    # sets those scales, with nothing on stdout.
    @pytest.mark.parametrize("n,a", [(10, 1e-319), (20, 1e-314),
                                     (30, 1e-308)])
    def test_underflowing_scale_on_the_support_is_usage_error(
            self, capsys, tmp_path, n, a):
        points = support_points(DesignProblem(n, a))
        f = tmp_path / "d.json"
        f.write_text(json.dumps({"points": list(points),
                                 "weights": [1.0 / n] * n}),
                     encoding="utf-8")
        code, out, err = run(capsys, "check", "--n", str(n), "--a", repr(a),
                             "--z", repr(a), "--design", str(f))
        assert (code, out) == (64, "")
        assert err.count("\n") == 1
        assert f"a={a!r} is too small for n={n}" in err

    # design and oracle read the same scales, at a target inside the region
    # and at one outside it, where design once reported "not covered" and
    # the other commands blamed z: one check of (n, a) before any target.
    @pytest.mark.parametrize("z", ["a", "-1"])
    @pytest.mark.parametrize("command", ["design", "oracle"])
    @pytest.mark.parametrize("n,a", [(10, 1e-319), (20, 1e-314),
                                     (30, 1e-308)])
    def test_underflowing_scale_names_a_in_every_command(self, capsys,
                                                        command, n, a, z):
        target = repr(a) if z == "a" else z
        code, out, err = run(capsys, command, "--n", str(n), "--a", repr(a),
                             "--z", target)
        assert (code, out) == (64, "")
        assert err.count("\n") == 1
        assert f"a={a!r} is too small for n={n}" in err
        assert "z=" not in err

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "check", "--n", "2", "--a", "1", "--z", "1",
                             "--design", str(tmp_path / "nope.json"))
        assert code == 65
        assert out == ""
        assert "design file" in err

    def test_malformed_json_is_data_error(self, capsys, tmp_path):
        f = tmp_path / "broken.json"
        f.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "check", "--n", "2", "--a", "1", "--z", "1",
                           "--design", str(f))
        assert code == 65

    @pytest.mark.parametrize("key", ["points", "weights"])
    def test_design_file_without_points_or_weights(self, capsys, tmp_path,
                                                   key):
        f = tmp_path / "d.json"
        f.write_text(json.dumps({key: [1.0]}), encoding="utf-8")
        code, out, err = run(capsys, "check", "--n", "1", "--a", "1",
                             "--z", "0.5", "--design", str(f))
        assert (code, out) == (65, "")
        assert "must carry 'points' and 'weights'" in err

    def test_weights_off_by_less_than_1e_9_are_renormalized(self, capsys,
                                                            tmp_path):
        f = tmp_path / "d.json"
        f.write_text(json.dumps({"points": list(support_points(
            DesignProblem(2, 1.0))), "weights": [0.5, 0.5 + 5e-10]}),
            encoding="utf-8")
        code, doc, _ = run_json(capsys, "check", "--n", "2", "--a", "1",
                                "--z", "1", "--design", str(f))
        assert code == 0
        assert doc["warnings"] == ["weights renormalized to sum exactly to 1"]

    def test_weight_sum_violation_is_data_error(self, capsys, tmp_path):
        f = tmp_path / "w.json"
        f.write_text(json.dumps({"points": [0.4, 1.0], "weights": [0.6, 0.6]}),
                     encoding="utf-8")
        code, _, err = run(capsys, "check", "--n", "2", "--a", "1", "--z", "1",
                           "--design", str(f))
        assert code == 65
        assert "sum" in err

    @pytest.mark.parametrize("points", [[0.5, 1e200, 2e200],
                                        [-0.5, 0.5, 2.0]])
    def test_points_outside_design_space_are_data_error(self, capsys,
                                                         tmp_path, points):
        # Huge points used to overflow the moment system (exit 70); points
        # of moderate size got a verdict for a design off [0, a] (exit 0).
        f = tmp_path / "d.json"
        f.write_text(json.dumps({"points": points,
                                 "weights": [0.2, 0.45, 0.35]}),
                     encoding="utf-8")
        code, out, err = run(capsys, "check", "--n", "3", "--a", "1",
                             "--z", "1", "--design", str(f))
        assert code == 65
        assert out == ""
        assert err.count("\n") == 1
        assert "[0, a]" in err

    @pytest.mark.parametrize("doc", [
        {"points": "1", "weights": "1"},
        {"points": [True], "weights": [1]},
        {"points": {"1": 0}, "weights": [1]},
        {"points": [1], "weights": [10 ** 400]},
    ], ids=["strings", "bool", "object", "int-beyond-float"])
    def test_points_and_weights_must_be_number_arrays(self, capsys, tmp_path,
                                                      doc):
        # A string or the keys of an object used to be read as points, and
        # true as the point 1.
        f = tmp_path / "d.json"
        f.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "check", "--n", "1", "--a", "1",
                             "--z", "0.5", "--design", str(f))
        assert code == 65
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ")


class TestOracleCommand:
    def test_inside_agrees(self, capsys):
        code, doc, _ = run_json(capsys, "oracle", "--n", "3", "--a", "1", "--z", "0.4")
        assert code == 0
        assert doc["result"]["agrees"] is True
        assert doc["result"]["covered"] is True

    def test_typo_arbiter_report(self, capsys):
        code, doc, _ = run_json(capsys, "oracle", "--n", "2", "--a", "1", "--z", "0.1")
        assert code == 0
        pts = doc["result"]["lp_design"]["points"]
        assert pts == pytest.approx([math.sqrt(2) - 1, 1.0], abs=1e-9)

    def test_n1_unit_variances(self, capsys):
        code, doc, _ = run_json(capsys, "oracle", "--n", "1", "--a", "1", "--z", "0")
        assert code == 0
        res = doc["result"]
        assert res["closed_form_variance"] == pytest.approx(1.0, rel=1e-9)
        assert res["lp_variance"] == pytest.approx(1.0, rel=1e-9)
        assert res["restricted_variance"] == pytest.approx(1.0, rel=1e-9)

    def test_determinism(self, capsys):
        _, out1, _ = run(capsys, "oracle", "--n", "2", "--a", "1", "--z", "0.1",
                         "--grid", "501")
        _, out2, _ = run(capsys, "oracle", "--n", "2", "--a", "1", "--z", "0.1",
                         "--grid", "501")
        assert out1 == out2


class TestPlotdataCommand:
    def test_extremal_curve_reaches_extremes_at_support(self, capsys):
        code, out, _ = run(capsys, "plotdata", "--n", "4", "--a", "1",
                           "--what", "extremal", "--samples", "2001")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,S"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        assert len(rows) == 2001
        assert rows[0][0] == 0.0 and rows[-1][0] == 1.0
        assert max(abs(v) for _, v in rows) <= 1.0 + 1e-9
        for s in (0.1127, 0.4802, 0.8477, 1.0):
            near = min(rows, key=lambda r: abs(r[0] - s))
            assert abs(abs(near[1]) - 1.0) < 1e-4

    def test_extremal_n1_is_identity_line(self, capsys):
        code, out, _ = run(capsys, "plotdata", "--n", "1", "--a", "1",
                           "--what", "extremal", "--samples", "5")
        rows = [tuple(map(float, ln.split(","))) for ln in out.splitlines()[1:]]
        for x, v in rows:
            assert v == pytest.approx(x, abs=1e-15)

    def test_weightderivs_columns_and_signs(self, capsys):
        code, out, _ = run(capsys, "plotdata", "--n", "4", "--a", "1",
                           "--what", "weightderivs")
        lines = out.splitlines()
        assert lines[0] == "z,L1p,L2p,L3p,L4p"
        assert len(lines) == 501
        last = list(map(float, lines[-1].split(",")))
        # beyond the largest root the signs alternate ending positive
        for i, v in enumerate(last[1:], start=1):
            assert math.copysign(1.0, v) == (-1.0) ** (4 - i)

    @pytest.mark.parametrize("n", range(1, 31))
    @pytest.mark.parametrize("a", [1e-8, 1.0, 1e8, 1e300])
    def test_weightderivs_range_spans_all_boundary_roots(self, capsys, n, a):
        # The z-range runs from the smallest to the largest root of every
        # basis derivative, padded by a tenth on each side; the inner ends
        # of the outer intervals are those two roots, bit for bit.  Where
        # nothing overflows, the samples are those of this unscaled formula.
        from slopedesign import DesignProblem, basis_derivatives
        problem = DesignProblem(n, a)
        roots = [r for rs in admissible_region(problem).boundary_roots
                 for r in rs]
        lo, hi = (min(roots), max(roots)) if roots else (0.0, a)
        if roots:
            pad = 0.1 * (hi - lo)
            lo, hi = lo - pad, hi + pad
        m = 7
        rows = ["z," + ",".join(f"L{i}p" for i in range(1, n + 1))]
        for k in range(m):
            z = lo + (hi - lo) * k / (m - 1)
            vals = ",".join(f"{v:.17g}" for v in basis_derivatives(problem, z))
            rows.append(f"{z:.17g},{vals}")
        code, out, _ = run(capsys, "plotdata", "--n", str(n), "--a", repr(a),
                           "--what", "weightderivs", "--samples", str(m))
        assert code == 0
        assert out == "\n".join(rows) + "\n"

    @pytest.mark.parametrize("n", [2, 12, 30])
    def test_weightderivs_solves_two_root_sets(self, capsys, n, monkeypatch):
        # A cold call solves the roots of L_1' and L_n' only, as the design
        # path does, and not the other n - 2 sets.
        from slopedesign import designs
        calls = []
        rolle_root = designs._rolle_root

        def counted(zeros, k):
            calls.append(k)
            return rolle_root(zeros, k)

        monkeypatch.setattr(designs, "_rolle_root", counted)
        clear_caches()
        code, _, _ = run(capsys, "plotdata", "--n", str(n), "--a", "1",
                         "--what", "weightderivs", "--samples", "5")
        assert code == 0
        assert len(calls) == 2 * (n - 1)

    # The region does not collapse, but a scale D_i * a of the basis
    # derivatives underflows to 0: a usage error naming a, with no partial
    # CSV on stdout.
    @pytest.mark.parametrize("n,a", [("30", "1e-310"), ("9", "1e-321"),
                                     ("2", "1e-323")])
    def test_weightderivs_at_a_subnormal_a(self, capsys, n, a):
        code, out, err = run(capsys, "plotdata", "--n", n, "--a", a,
                             "--what", "weightderivs", "--samples", "5")
        assert code == 64
        assert out == ""
        assert err.count("\n") == 1
        assert f"a={float(a)!r}" in err

    # Where a * k does not overflow, the samples are a * k / (m - 1).
    @pytest.mark.parametrize("n", [1, 4, 30])
    @pytest.mark.parametrize("a", [1e-8, 1.0, 1e8, 1e300])
    def test_extremal_samples_are_the_unscaled_formula(self, capsys, n, a):
        from slopedesign import extremal_value
        problem = DesignProblem(n, a)
        rows = ["x,S"]
        for k in range(500):
            x = a * k / 499
            rows.append(f"{x:.17g},{extremal_value(problem, x):.17g}")
        code, out, _ = run(capsys, "plotdata", "--n", str(n), "--a", repr(a),
                           "--what", "extremal")
        assert code == 0
        assert out == "\n".join(rows) + "\n"

    # Near the top of the float range a * k and (hi - lo) * k overflow, so
    # the samples are formed on a scaled below 1; at the largest a the
    # padded weightderivs window ends beyond the float range, and its last
    # samples are the largest float.
    @pytest.mark.parametrize("what", ["extremal", "weightderivs"])
    @pytest.mark.parametrize("a", [1e306, 1.7e308])
    @pytest.mark.parametrize("n", [1, 4, 30])
    def test_samples_near_the_top_of_the_float_range(self, capsys, n, a,
                                                     what):
        code, out, _ = run(capsys, "plotdata", "--n", str(n), "--a", repr(a),
                           "--what", what)
        assert code == 0
        rows = [list(map(float, ln.split(",")))
                for ln in out.splitlines()[1:]]
        assert len(rows) == 500
        assert all(math.isfinite(v) for row in rows for v in row)
        xs = [row[0] for row in rows]
        if what == "extremal":
            assert xs[0] == 0.0 and xs[-1] <= a
            assert all(x < y for x, y in zip(xs, xs[1:]))
        else:
            assert all(x <= y for x, y in zip(xs, xs[1:]))

    def test_newline_terminated_deterministic(self, capsys):
        _, out1, _ = run(capsys, "plotdata", "--n", "2", "--a", "1",
                         "--what", "extremal", "--samples", "10")
        _, out2, _ = run(capsys, "plotdata", "--n", "2", "--a", "1",
                         "--what", "extremal", "--samples", "10")
        assert out1 == out2
        assert out1.endswith("\n")


def test_reader_closing_the_pipe_exits_0_silently():
    # `plotdata ... | head -1`: the reader stops long before the last row.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "slopedesign.cli", "plotdata", "--n", "4",
         "--a", "1", "--what", "extremal", "--samples", "200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"x,S\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert err == b""


class TestInternalErrors:
    def test_numerical_failure_maps_to_exit_70(self, capsys, monkeypatch):
        from slopedesign import oracle
        from slopedesign.oracle import NumericalFailure

        def boom(*args, **kwargs):
            raise NumericalFailure("synthetic failure")

        monkeypatch.setattr(oracle, "compare", boom)
        code, out, err = run(capsys, "oracle", "--n", "2", "--a", "1", "--z", "1")
        assert code == 70
        assert out == ""
        assert "synthetic failure" in err

    # LinAlgError subclasses ValueError, which the CLI maps to no exit code,
    # so the oracle turns it into NumericalFailure, a Degenerate.  At n = 2,
    # z = 0.5 the grid LP ends on a degenerate optimum, which it solves by
    # least squares on the positive columns.
    @pytest.mark.parametrize("name", ["LinAlgError"])
    def test_singular_systems_map_to_exit_70(self, capsys, monkeypatch, name):
        import numpy as np

        def boom(*args, **kwargs):
            raise getattr(np.linalg, name)("synthetic singular system")

        monkeypatch.setattr(np.linalg, "lstsq", boom)
        code, out, err = run(capsys, "oracle", "--n", "2", "--a", "1",
                             "--z", "0.5")
        assert code == 70
        assert out == ""
        assert "synthetic singular system" in err


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["design", "--a", "1", "--z", "1"])
        assert err.value.code == 64

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 64

    def test_invalid_n(self, capsys):
        code, out, err = run(capsys, "design", "--n", "0", "--a", "1", "--z", "1")
        assert code == 64

    def test_design_requires_some_z(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["design", "--n", "2", "--a", "1"])
        assert err.value.code == 64

    @pytest.mark.parametrize("argv", [["check", "--design", "d.json"],
                                      ["oracle"]], ids=["check", "oracle"])
    def test_check_and_oracle_require_z(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main([argv[0], "--n", "2", "--a", "1", *argv[1:]])
        assert err.value.code == 64
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {argv[0]} requires --z\n"

    def test_design_takes_z_or_z_list_not_both(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["design", "--n", "2", "--a", "1", "--z", "0.9",
                  "--z-list", "0.1"])
        assert err.value.code == 64
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ")

    @pytest.mark.parametrize("n, grid", [(4, "0"), (4, "1"), (1, "0")])
    def test_design_grid_below_two(self, capsys, n, grid):
        code, out, err = run(capsys, "design", "--n", str(n), "--a", "1",
                             "--z", "0.95", "--grid", grid)
        assert code == 64
        assert out == ""
        assert "--grid" in err

    def test_check_grid_below_two(self, capsys, tmp_path):
        f = tmp_path / "d.json"
        f.write_text(json.dumps({"points": [SQRT2 - 1, 1.0],
                                 "weights": [0.5, 0.5]}), encoding="utf-8")
        code, out, err = run(capsys, "check", "--n", "2", "--a", "1",
                             "--z", "1", "--design", str(f), "--grid", "1")
        assert code == 64
        assert out == ""
        assert "--grid" in err

    def test_oracle_grid_below_n_plus_one(self, capsys):
        code, out, err = run(capsys, "oracle", "--n", "4", "--a", "1",
                             "--z", "0.5", "--grid", "3")
        assert code == 64
        assert out == ""
        assert "--grid must be >= 5" in err
        code, _, _ = run(capsys, "oracle", "--n", "4", "--a", "1",
                         "--z", "0.5", "--grid", "5")
        assert code == 0

    def test_oracle_grid_beyond_memory(self, capsys, monkeypatch):
        # A grid whose LP does not fit in memory is a usage error; the
        # allocation is replaced by its MemoryError, so nothing is allocated.
        from slopedesign import oracle

        def no_memory(self, problem):
            raise MemoryError("synthetic: cannot allocate the grid")

        monkeypatch.setattr(oracle.GridSpec, "points", no_memory)
        clear_caches()
        code, out, err = run(capsys, "oracle", "--n", "4", "--a", "1",
                             "--z", "1", "--grid", "1000000000")
        assert code == 64
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: --grid ")

    @pytest.mark.parametrize("argv", [
        ["design", "--n", "4", "--a", "1", "--z", "nan"],
        ["design", "--n", "4", "--a", "1", "--z", "inf"],
        ["design", "--n", "4", "--a", "1", "--z-list", "0.9", "nan"],
        ["design", "--n", "4", "--a", "inf", "--z", "0.9"],
        ["region", "--n", "4", "--a", "inf"],
        ["oracle", "--n", "4", "--a", "1", "--z", "nan"],
        ["oracle", "--n", "4", "--a", "nan", "--z", "0.5"],
        ["check", "--n", "2", "--a", "1", "--z", "nan", "--design", "d.json"],
    ])
    def test_non_finite_inputs(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 64
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("flag", ["--tol-cert"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, flag, value):
        code, out, err = run(capsys, "design", "--n", "4", "--a", "1",
                             "--z", "0.95", flag, value)
        assert code == 64
        assert out == ""
        assert f"{flag} must be finite and > 0" in err

    @pytest.mark.parametrize("argv", [
        ["design", "--n", "4", "--a", "1", "--z", "0.95"],
        ["region", "--n", "4", "--a", "1"],
        ["check", "--n", "2", "--a", "1", "--z", "1", "--design", "d.json"],
    ])
    def test_tol_root_is_removed(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--tol-root", "1e-12"])
        assert err.value.code == 64
        out = capsys.readouterr()
        assert out.out == ""
        assert "--tol-root" in out.err

    def test_region_and_check_tolerances(self, capsys, tmp_path):
        f = tmp_path / "d.json"
        f.write_text(json.dumps({"points": [SQRT2 - 1, 1.0],
                                 "weights": [0.5, 0.5]}), encoding="utf-8")
        code, out, err = run(capsys, "check", "--n", "2", "--a", "1",
                             "--z", "1", "--design", str(f),
                             "--tol-cert", "-1")
        assert (code, out) == (64, "")


class TestLargeDegree:
    """Every n is accepted: no degree cap, one JSON document, exit 0 or 2."""

    # From n = 543 the unit denominators D_i underflow to 0 at every a, so
    # each command that reads the basis derivatives names n, and not a.
    @pytest.mark.parametrize("a", ["1", "1e-8"])
    @pytest.mark.parametrize("argv", [["design", "--z", "1"],
                                      ["oracle", "--z", "0"],
                                      ["plotdata", "--what", "weightderivs"]],
                             ids=["design", "oracle", "plotdata"])
    def test_underflowing_denominators_name_n(self, capsys, argv, a):
        code, out, err = run(capsys, argv[0], "--n", "543", "--a", a,
                             *argv[1:])
        assert (code, out) == (64, "")
        assert err.count("\n") == 1
        assert "n=543" in err and "a=" not in err

    @pytest.mark.parametrize("n", [21, 25, 30])
    def test_design_region_check(self, capsys, tmp_path, n):
        code, out, _ = run(capsys, "design", "--n", str(n), "--a", "1",
                           "--z", "1")
        assert code == 0
        assert json.loads(out)["result"]["covered"] is True
        f = tmp_path / "design.json"
        f.write_text(out, encoding="utf-8")
        code, doc, _ = run_json(capsys, "check", "--n", str(n), "--a", "1",
                                "--z", "1", "--design", str(f))
        assert code in (0, 2)
        assert doc["command"] == "check"
        code, doc, _ = run_json(capsys, "region", "--n", str(n), "--a", "1")
        assert code == 0
        assert len(doc["result"]["intervals"]) == n

    @pytest.mark.parametrize("argv", [
        ["region", "--n", "25", "--a", "1e-8"],
        ["region", "--n", "30", "--a", "1e8"],
        ["design", "--n", "21", "--a", "1e-8", "--z", "-1e-9"],
    ])
    def test_extreme_scales(self, capsys, argv):
        code, doc, _ = run_json(capsys, *argv)
        assert code in (0, 2)
        assert doc["command"] == argv[0]


    @pytest.mark.parametrize("n", [137, 160, 200, 298])
    def test_certificate_margins_within_half_the_tolerance(self, capsys, n):
        # The extremal coefficients take cos(k theta_j) from exactly reduced
        # angles.  With k * theta_j rounded, a correct design failed its
        # certificate at these degrees (at n = 200 its margin was 0.93 of
        # the tolerance).
        code, doc, _ = run_json(capsys, "design", "--n", str(n), "--a", "1",
                                "--z", "1")
        assert code == 0
        cert = doc["result"]["certificate"]
        assert cert["verdict"] == "verified"
        margins = cert["margins"]
        assert max(margins["condition1"], *margins["condition2"],
                   margins["condition3"]) <= 0.5 * doc["inputs"]["tol_cert"]

    def test_small_interval_target_near_boundary_is_covered(self, capsys):
        # z = a lies 2.3e-11 above the last interval's lower end, well inside
        # at the scale of a = 1e-8; the boundary tolerance is relative to a.
        code, doc, _ = run_json(capsys, "design", "--n", "21", "--a", "1e-8",
                                "--z", "1e-8")
        assert code == 0
        assert doc["result"]["covered"] is True
        assert doc["result"]["certificate"]["verdict"] == "verified"

    def test_huge_interval(self, capsys):
        # Every |L_i'(z)| is about 1 / a = 1e-20 here; the weights are
        # still well defined, since sum_i s_i L_i'(z) = 1.
        code, doc, _ = run_json(capsys, "design", "--n", "2", "--a", "1e20",
                                "--z", "1e20")
        assert code == 0
        assert doc["result"]["certificate"]["verdict"] == "verified"


class TestOracleExtremeScales:
    """The oracle keeps the exit-code contract far outside a = 1."""

    @pytest.mark.parametrize("n,a,z", [("1", "1e80", "0.5"),
                                       ("3", "1e-12", "1e-12"),
                                       ("3", "3140", "2.3066102291535913e+81"),
                                       ("2", "1e80", "1e300")])
    def test_agrees(self, capsys, n, a, z):
        # At the third target the variances are about 1.8e308, near the top
        # of the float range, and margin_threshold stays finite.  At the
        # last, the prefix product of the last basis derivative overflows
        # while the derivative itself is finite.
        code, doc, _ = run_json(capsys, "oracle", "--n", n, "--a", a, "--z", z)
        assert code == 0
        assert doc["result"]["agrees"] is True

    @pytest.mark.parametrize("grid", ["4", "6"])
    def test_agrees_on_a_coarse_grid(self, capsys, grid):
        # 3 (n spacing / a)^2 exceeds 1 on these grids; margin_threshold's
        # factor is capped at 1, so with the variances near 1.8e308 the
        # threshold is the LP variance itself, not inf.
        code, doc, _ = run_json(capsys, "oracle", "--n", "3", "--a", "3140",
                                "--z", "2.3066102291535913e+81",
                                "--grid", grid)
        assert code == 0
        res = doc["result"]
        assert res["agrees"] is True
        assert res["margin_threshold"] == res["lp_variance"]

    @pytest.mark.parametrize("n,a,z", [("2", "1e-8", "1e300"),
                                       ("4", "1e-8", "1e100")])
    def test_out_of_range_target(self, capsys, n, a, z):
        # The slope vector, the closed-form weights or a variance of the
        # report overflow.
        code, out, err = run(capsys, "oracle", "--n", n, "--a", a, "--z", z)
        assert code == 64
        assert out == ""
        assert f"z={float(z)!r}" in err


class TestExtremeScalesVerify:
    """Targets far from a = 1 whose slope is finite in the unit basis: the
    certificate verifies or the oracle agrees, and the variance matches the
    mpmath reference."""

    @pytest.mark.parametrize("command,n,a,z", [
        ("oracle", "3", "1e200", "0.5"),
        ("design", "4", "1e80", "1e103"),
        ("design", "30", "1e11", "1e11"),
        ("design", "30", "1e-11", "1e-11"),
        ("design", "20", "1e-8", "0"),
        ("design", "3", "1e200", "0.5"),
        ("design", "6", "1e3", "0"),
    ])
    def test_matches_reference(self, capsys, command, n, a, z):
        code, doc, _ = run_json(capsys, command, "--n", n, "--a", a, "--z", z)
        assert code == 0
        res = doc["result"]
        ref = R.problem(int(n), float(a))
        if command == "oracle":
            assert res["agrees"] is True
            got = res["closed_form_variance"]
        else:
            cert = res["certificate"]
            assert cert["verdict"] == "verified"
            h = R.to_float(R.mp.fsum(abs(v) for v in ref.derivs(float(z))))
            assert abs(cert["h"] - h) <= 1e-12 * h
            got = res["variance"]
        # At a = 1e200 the variance, about 1e-400, is 0.0 in both.
        want = R.to_float(ref.optimal_variance(float(z)))
        assert abs(got - want) <= 1e-12 * want


@pytest.mark.filterwarnings("error")  # a numpy overflow warning is a 2nd line
class TestOverflowingTargets:
    """A target whose powers overflow exits 64, names itself, prints nothing."""

    # At these (n, a) a scale D_i * a of basis_derivatives underflows to 0
    # whatever z is, so the one check of (n, a) names a before any target.
    SCALE_UNDERFLOWS = {("9", "1e-320"), ("30", "2.3e-308")}

    def _assert_rejected(self, code, out, err, z, n=None, a=None):
        assert code == 64
        assert out == ""
        assert err.count("\n") == 1
        if (n, a) in self.SCALE_UNDERFLOWS:
            assert f"a={float(a)!r} is too small for n={n}" in err
            return
        assert f"z={float(z)!r}" in err
        assert "not finite" in err

    # At a = 1e-300, h is about 1e300, and h^2 overflows.
    @pytest.mark.parametrize("n,a,z", [("4", "1", "1e300"), ("30", "1", "1e30"),
                                       ("4", "1e-300", "1e-300")])
    def test_design(self, capsys, n, a, z):
        code, out, err = run(capsys, "design", "--n", n, "--a", a, "--z", z)
        self._assert_rejected(code, out, err, z)

    def test_design_z_list(self, capsys):
        code, out, err = run(capsys, "design", "--n", "4", "--a", "1",
                             "--z-list", "0.95", "1e300")
        self._assert_rejected(code, out, err, "1e300")

    def test_check(self, capsys, tmp_path):
        f = tmp_path / "d.json"
        _, out, _ = run(capsys, "design", "--n", "3", "--a", "1", "--z", "1")
        f.write_text(out, encoding="utf-8")
        code, out, err = run(capsys, "check", "--n", "3", "--a", "1",
                             "--z", "1e300", "--design", str(f))
        self._assert_rejected(code, out, err, "1e300")

    def test_oracle(self, capsys):
        code, out, err = run(capsys, "oracle", "--n", "4", "--a", "1",
                             "--z", "1e300")
        self._assert_rejected(code, out, err, "1e300")

    # The slope vector is finite and the closed-form weights are not, so
    # optimal_design refuses them inside compare.
    @pytest.mark.parametrize("command,n,a,z", [
        ("oracle", "4", "1", "1e90"), ("oracle", "2", "1e-310", "0"),
        ("design", "2", "1e-310", "0")])
    def test_weights_that_overflow(self, capsys, command, n, a, z):
        code, out, err = run(capsys, command, "--n", n, "--a", a, "--z", z)
        self._assert_rejected(code, out, err, z)

    # At the edge of the domain a basis derivative, their sum or the scale
    # D_i * a of basis_derivatives leaves the float range: the closed-form
    # weights or h are not finite, and no program fault is reported.
    @pytest.mark.parametrize("command,n,a,z", [
        ("design", "9", "1e-320", "0"),
        ("design", "5", "1", "2e76"),
        ("oracle", "5", "1", "2e76"),
        ("design", "9", "2.3e-308", "2.3e-308"),
        ("design", "30", "2.3e-308", "2.3e-308"),
        ("oracle", "30", "2.3e-308", "2.3e-308")])
    def test_edge_of_the_domain(self, capsys, command, n, a, z):
        code, out, err = run(capsys, command, "--n", n, "--a", a, "--z", z)
        self._assert_rejected(code, out, err, z, n, a)

    @pytest.mark.parametrize("n,a,z", [("5", "1", "2e76"),
                                       ("30", "2.3e-308", "2.3e-308")])
    def test_check_at_the_edge_of_the_domain(self, capsys, tmp_path, n, a, z):
        # A design of n points inside [0, a]; certify's h overflows.
        f = tmp_path / "d.json"
        points = [float(a) * (k + 1) / int(n) for k in range(int(n))]
        f.write_text(json.dumps({"points": points,
                                 "weights": [1 / int(n)] * int(n)}),
                     encoding="utf-8")
        code, out, err = run(capsys, "check", "--n", n, "--a", a, "--z", z,
                             "--design", str(f))
        self._assert_rejected(code, out, err, z, n, a)

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from slopedesign.cli import main

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

    def test_weight_sum_violation_is_data_error(self, capsys, tmp_path):
        f = tmp_path / "w.json"
        f.write_text(json.dumps({"points": [0.4, 1.0], "weights": [0.6, 0.6]}),
                     encoding="utf-8")
        code, _, err = run(capsys, "check", "--n", "2", "--a", "1", "--z", "1",
                           "--design", str(f))
        assert code == 65
        assert "sum" in err


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
        from slopedesign import cli
        from slopedesign.oracle import NumericalFailure

        def boom(*args, **kwargs):
            raise NumericalFailure("synthetic failure")

        monkeypatch.setattr(cli, "compare", boom)
        code, out, err = run(capsys, "oracle", "--n", "2", "--a", "1", "--z", "1")
        assert code == 70
        assert out == ""
        assert "synthetic failure" in err

    @pytest.mark.parametrize("name", ["SingularSupport", "LinAlgError"])
    def test_singular_systems_map_to_exit_70(self, capsys, monkeypatch, name):
        import numpy as np
        from slopedesign import cli, oracle
        exc = {"SingularSupport": oracle.SingularSupport,
               "LinAlgError": np.linalg.LinAlgError}[name]

        def boom(*args, **kwargs):
            raise exc("synthetic singular system")

        monkeypatch.setattr(cli, "compare", boom)
        code, out, err = run(capsys, "oracle", "--n", "2", "--a", "1", "--z", "1")
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
                                       ("3", "1e-12", "1e-12")])
    def test_agrees(self, capsys, n, a, z):
        code, doc, _ = run_json(capsys, "oracle", "--n", n, "--a", a, "--z", z)
        assert code == 0
        assert doc["result"]["agrees"] is True

    @pytest.mark.parametrize("n,a,z", [("2", "1e-8", "1e300"),
                                       ("4", "1e-8", "1e100"),
                                       ("2", "1e80", "1e300"),
                                       ("3", "3140", "2.3066102291535913e+81"),
                                       ("3", "1e200", "0.5")])
    def test_out_of_range_target(self, capsys, n, a, z):
        # The LP right-hand side, the closed-form weights or a variance of
        # the report overflow.  At a = 1e200 the LP is fine and the
        # closed-form variance, still in monomials, overflows.
        code, out, err = run(capsys, "oracle", "--n", n, "--a", a, "--z", z)
        assert code == 64
        assert out == ""
        assert f"z={float(z)!r}" in err


@pytest.mark.filterwarnings("error")  # a numpy overflow warning is a 2nd line
class TestOverflowingTargets:
    """A target whose powers overflow exits 64, names itself, prints nothing."""

    def _assert_rejected(self, code, out, err, z):
        assert code == 64
        assert out == ""
        assert err.count("\n") == 1
        assert f"z={float(z)!r}" in err
        assert "not finite" in err

    @pytest.mark.parametrize("n,a,z", [("4", "1", "1e300"), ("30", "1", "1e30"),
                                       ("4", "1e80", "1e103")])
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

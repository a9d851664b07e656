"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Run with `pytest tests/test_acceptance.py -v -s`."""

import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from slopedesign.designs import (DesignProblem, admissible_region,
                                 basis_derivatives, optimal_design,
                                 support_points, weights_at)
from slopedesign.elfving import certify, variance
from slopedesign.oracle import (GridSpec, compare, lp_c_optimal,
                                restricted_weights)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import reference as R  # noqa: E402

SQRT2 = math.sqrt(2)
SQRT3 = math.sqrt(3)

# Reference tables for a = 1 (4-5 printed significant digits).
N3_ROOTS = {1: [0.2785, 0.8758], 2: [0.0935, 0.7045], 3: [0.090, 0.528]}
N3_REGION = [0.090, 0.2785, 0.528, 0.8758]
N4_SUPPORT = [0.1127, 0.4802, 0.8477, 1.0]
N4_ROOTS = {
    1: [0.1696, 0.6432, 0.9332],
    2: [0.05268, 0.4872, 0.9305],
    3: [0.05102, 0.3232, 0.8205],
    4: [0.05071, 0.3175, 0.7123],
}
N4_REGION = [0.05071, 0.1696, 0.3175, 0.6432, 0.7123, 0.9332]
N4_DERIV_COEFFS = {
    1: [15.072, -128.47, 258.55, -148.08],
    2: [-2.8327, 62.631, -174.42, 118.63],
    3: [1.5517, -37.110, 137.04, -114.72],
    4: [-0.65327, 15.858, -61.552, 56.968],
}

# Outside-region variance gaps (restricted minus LP) recorded from this
# oracle's reference run at the default 2001-point grid: 9.0028 and 36.1108.
# Frozen slightly below so the strict inequality is meaningful.
RECORDED_MARGIN_N3_Z02 = 8.5
RECORDED_MARGIN_N4_Z01 = 34.0

SWEEP_NS = range(1, 7)
SWEEP_AS = (0.5, 1.0, 3.0)


def _report(k, elapsed, budget, msg):
    assert elapsed < budget, f"criterion {k} exceeded {budget}s ({elapsed:.2f}s)"
    print(f"criterion {k}: PASS ({elapsed:.2f}s) {msg}")


def interval_samples(lo, hi, a, count=10):
    """Deterministic interior samples of one admissible interval."""
    if lo == -math.inf and hi == math.inf:
        lo, hi = -a, 2 * a
    elif lo == -math.inf:
        lo = hi - 2 * a
    elif hi == math.inf:
        hi = lo + 2 * a
    return [lo + (k + 0.5) * (hi - lo) / count for k in range(count)]


def sweep_cases():
    for n in SWEEP_NS:
        for a in SWEEP_AS:
            problem = DesignProblem(n, a)
            for lo, hi in admissible_region(problem).intervals:
                for z in interval_samples(lo, hi, a):
                    yield problem, z


def test_criterion_1_quadratic_exact_values():
    t0 = time.perf_counter()
    problem = DesignProblem(2, 1.0)
    s = support_points(problem)
    assert abs(s[0] - (SQRT2 - 1)) <= 1e-12
    assert abs(s[1] - 1.0) <= 1e-12
    for z in (-1.0, 0.0, 0.1, SQRT2 - 1, 0.5, 0.8, 1.0, 2.5):
        w1, w2 = basis_derivatives(problem, z)
        assert abs(w1 - (4 + 3 * SQRT2) / 2 * (1 - 2 * z)) <= 1e-12
        assert abs(w2 - (2 + SQRT2) * (z - (SQRT2 - 1) / 2)) <= 1e-12
    roots = admissible_region(problem).boundary_roots[0]
    assert len(roots) == 1 and abs(roots[0] - 0.5) <= 1e-12
    assert abs(basis_derivatives(problem, roots[0])[0]) <= 1e-12
    _report(1, time.perf_counter() - t0, 0.1,
            "n=2 support, basis derivatives and root exact to 1e-12")


def test_criterion_2_boundary_root_vs_lp_transition():
    t0 = time.perf_counter()
    problem = DesignProblem(2, 1.0)
    library_root = admissible_region(problem).boundary_roots[1][0]

    def support_is_optimal(z):
        h, _ = lp_c_optimal(problem, z)
        rvar, _ = restricted_weights(problem, z)
        return rvar - h * h <= 1e-7 * rvar

    lo, hi = 0.15, 0.30
    assert support_is_optimal(lo) and not support_is_optimal(hi)
    while hi - lo > 1e-5:
        mid = 0.5 * (lo + hi)
        if support_is_optimal(mid):
            lo = mid
        else:
            hi = mid
    transition = 0.5 * (lo + hi)
    assert abs(transition - library_root) <= 1e-3
    flipped_candidate = (1 - SQRT2) / 2
    assert abs(transition - flipped_candidate) > 0.4
    print(f"  flag: computed boundary root {library_root:.6f} confirmed by the "
          f"LP transition at {transition:.6f}; the sign-flipped candidate "
          f"{flipped_candidate:.6f} is rejected")
    _report(2, time.perf_counter() - t0, 5.0,
            "n=2 boundary root internally consistent with the LP oracle")


def test_criterion_3_cubic_reference_table():
    t0 = time.perf_counter()
    problem = DesignProblem(3, 1.0)
    s = support_points(problem)
    for got, want in zip(s, (3 * SQRT3 - 5, SQRT3 - 1, 1.0)):
        assert abs(got - want) <= 1e-10
    region = admissible_region(problem)
    for i, rs in enumerate(region.boundary_roots, start=1):
        assert list(rs) == pytest.approx(N3_ROOTS[i], abs=2e-3)
    finite = [e for iv in region.intervals for e in iv if math.isfinite(e)]
    assert finite == pytest.approx(N3_REGION, abs=2e-3)
    _report(3, time.perf_counter() - t0, 0.5,
            "n=3 roots, region and support match the reference table")


def test_criterion_4_quartic_reference_table():
    t0 = time.perf_counter()
    problem = DesignProblem(4, 1.0)
    assert list(support_points(problem)) == pytest.approx(N4_SUPPORT, abs=1e-4)

    region = admissible_region(problem)
    for i, rs in enumerate(region.boundary_roots, start=1):
        assert list(rs) == pytest.approx(N4_ROOTS[i], abs=2e-3)
    finite = [e for iv in region.intervals for e in iv if math.isfinite(e)]
    assert finite == pytest.approx(N4_REGION, abs=2e-3)

    # Independent reconstruction of the basis derivatives: solve the
    # interpolation system with numpy instead of the product construction,
    # and compare both, and the printed coefficients, as values on [0, 1].
    s = np.asarray(support_points(problem))
    vand = np.vander(s, 5, increasing=True)[:, 1:]
    zs = np.linspace(0.0, 1.0, 101)
    got = np.array([basis_derivatives(problem, z) for z in zs]).T
    used = 0.0
    for i in range(1, 5):
        coeffs_indep = np.linalg.solve(vand, np.eye(4)[i - 1])
        deriv_indep = coeffs_indep * np.arange(1, 5)
        want = np.polynomial.polynomial.polyval(zs, deriv_indep)
        assert np.allclose(got[i - 1], want, rtol=1e-9, atol=1e-9)
        # The reference decimals carry ~5 significant digits, so each is
        # good to 5e-3 relative above magnitude 1; that bound is carried to
        # the values.
        printed = np.asarray(N4_DERIV_COEFFS[i])
        value = np.polynomial.polynomial.polyval(zs, printed)
        bound = 5e-3 * np.polynomial.polynomial.polyval(
            zs, np.maximum(1.0, np.abs(printed)))
        assert np.all(np.abs(got[i - 1] - value) <= bound)
        used = max(used, float(np.max(np.abs(got[i - 1] - value) / bound)))
    _report(4, time.perf_counter() - t0, 1.0,
            "n=4 support, roots, region and derivative values match; the "
            f"printed coefficients use {used:.2f} of their bound")


def test_criterion_5_certificate_sweep():
    t0 = time.perf_counter()
    checked = 0
    for problem, z in sweep_cases():
        design = optimal_design(problem, z)
        cert = certify(problem, z, design)
        assert cert.verifies, (problem, z)
        assert cert.condition1_margin <= 1e-10
        assert max(cert.condition2_residuals) <= 1e-10
        assert cert.condition3_residual <= 1e-10
        v = variance(problem, design, z)
        assert abs(v - cert.h ** 2) <= 1e-8 * cert.h ** 2, (problem, z)
        checked += 1
    _report(5, time.perf_counter() - t0, 10.0,
            f"{checked} certificates verified with variance = h^2 (1e-8 rel)")


def test_criterion_6_oracle_agreement_sweep():
    t0 = time.perf_counter()
    checked = 0
    for problem, z in sweep_cases():
        h2 = float(R.problem(problem.n, problem.a).optimal_variance(z))
        h_lp, _ = lp_c_optimal(problem, z)
        assert abs(h_lp ** 2 - h2) <= 5e-3 * h2, (problem, z)
        rvar, _ = restricted_weights(problem, z)
        assert abs(rvar - h2) <= 1e-9 * h2, (problem, z)
        checked += 1
    _report(6, time.perf_counter() - t0, 60.0,
            f"{checked} LP and restricted-weight runs match h^2")


def test_criterion_7_property_suite():
    t0 = time.perf_counter()
    import random
    rng = random.Random(20240817)

    # partition of unity
    for n in range(1, 11):
        problem = DesignProblem(n, 1.0)
        for _ in range(10):
            w = weights_at(problem, rng.uniform(-2.0, 3.0))
            assert abs(math.fsum(w) - 1.0) <= 1e-12
            assert all(0.0 <= wi <= 1.0 for wi in w)

    # interlacing chain and root counts
    for n in range(2, 11):
        region = admissible_region(DesignProblem(n, 1.0))
        assert all(len(rs) == n - 1 for rs in region.boundary_roots)
        labeled = sorted((r, i) for i, rs in
                         enumerate(region.boundary_roots, start=1) for r in rs)
        assert all(a < b for (a, _), (b, _) in zip(labeled, labeled[1:]))
        for k in range(n - 1):
            assert [i for _, i in labeled[k * n:(k + 1) * n]] == \
                list(range(n, 0, -1))

    # scaling equivariance
    for n in (2, 5, 10):
        for a in (0.5, 3.0):
            unit, scaled = DesignProblem(n, 1.0), DesignProblem(n, a)
            for su, ss in zip(support_points(unit), support_points(scaled)):
                assert abs(ss - a * su) <= 1e-12 * abs(a * su)
            ru, rs = admissible_region(unit), admissible_region(scaled)
            for (lu, uu), (ls, us) in zip(ru.intervals, rs.intervals):
                if math.isfinite(lu):
                    assert abs(ls - a * lu) <= 1e-9 * abs(a * lu)
                if math.isfinite(uu):
                    assert abs(us - a * uu) <= 1e-9 * abs(a * uu)
            for z in (-0.4, 0.23, 0.81, 1.7):
                for wu, ws in zip(weights_at(unit, z),
                                  weights_at(scaled, a * z)):
                    assert abs(ws - wu) <= 1e-10

    # sign patterns per interval
    for n in range(2, 11):
        problem = DesignProblem(n, 1.0)
        for j, (lo, hi) in enumerate(admissible_region(problem).intervals,
                                     start=1):
            lo = hi - 1.0 if lo == -math.inf else lo
            hi = lo + 1.0 if hi == math.inf else hi
            z = 0.5 * (lo + hi)
            common = (-1.0) ** (n + j)
            for i, d in enumerate(basis_derivatives(problem, z), start=1):
                assert (-1.0) ** (n - i) * d * common > 0

    # the emitted extremal polynomial: sup-norm, alternation, zero at origin
    from slopedesign.elfving import extremal_value
    for n in range(1, 11):
        problem = DesignProblem(n, 1.0)
        assert abs(extremal_value(problem, 0.0)) <= 1e-10
        mx = max(abs(extremal_value(problem, k / 1000)) for k in range(1001))
        assert 1.0 - 1e-9 <= mx <= 1.0 + 1e-9
        for i, x in enumerate(support_points(problem), start=1):
            assert abs(extremal_value(problem, x) - (-1.0) ** (n - i)) <= 1e-9

    # solved-weights identity between the two code paths
    for n in range(1, 9):
        problem = DesignProblem(n, 1.0)
        sup = np.asarray(support_points(problem))
        big_f = np.vander(sup, n + 1, increasing=True)[:, 1:].T
        for _ in range(20):
            z = rng.uniform(-1.0, 2.0)
            c = [k * z ** (k - 1) for k in range(1, n + 1)]
            beta = np.linalg.solve(big_f, c)
            for bi, d in zip(beta, basis_derivatives(problem, z)):
                assert abs(bi - d) <= 1e-9 * max(1.0, abs(d))

    # grid refinement monotonicity on nested grids
    for n, z in ((2, 0.3), (3, 0.2), (4, 0.5)):
        problem = DesignProblem(n, 1.0)
        for m in (201, 401):
            coarse, _ = lp_c_optimal(problem, z, GridSpec(m))
            fine, _ = lp_c_optimal(problem, z, GridSpec(2 * m - 1))
            assert fine ** 2 <= coarse ** 2 + 1e-12

    _report(7, time.perf_counter() - t0, 30.0,
            "all module invariants hold for n <= 10")


def test_criterion_8_outside_region_evidence():
    t0 = time.perf_counter()
    rep3 = compare(DesignProblem(3, 1.0), 0.2)
    gap3 = rep3.restricted_variance - rep3.lp_variance
    assert not rep3.covered
    assert gap3 > rep3.margin_threshold
    assert gap3 > RECORDED_MARGIN_N3_Z02

    rep4 = compare(DesignProblem(4, 1.0), 0.1)
    gap4 = rep4.restricted_variance - rep4.lp_variance
    assert not rep4.covered
    assert gap4 > rep4.margin_threshold
    assert gap4 > RECORDED_MARGIN_N4_Z01
    _report(8, time.perf_counter() - t0, 10.0,
            f"LP beats the pinned support by {gap3:.2f} (n=3, z=0.2) "
            f"and {gap4:.2f} (n=4, z=0.1)")

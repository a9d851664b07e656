"""The mpmath reference reproduces the exact and tabulated values.

    python3 -m pytest -q perfbench/test_reference.py

The n = 3 and n = 4 tables are the printed reference values (4-5 significant
digits) that tests/test_acceptance.py pins for the package, with the same
tolerances.
"""

import mpmath
import pytest

import reference as R

mp = R.mp

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


def _finite_ends(p):
    return [float(e) for iv in p.region() for e in iv if mp.isfinite(e)]


def test_quadratic_exact_values():
    p = R.Problem(2, 1.0)
    sqrt2 = mp.sqrt(2)
    assert abs(p.points[0] - (sqrt2 - 1)) < mp.mpf(10) ** -35
    assert p.points[1] == 1
    # L_1'(x) = (4 + 3 sqrt2)/2 - (4 + 3 sqrt2) x, whose root is 1/2.
    assert abs(p.deriv(0, 0) - (4 + 3 * sqrt2) / 2) < mp.mpf(10) ** -35
    assert abs(p.deriv(0, 1) + (4 + 3 * sqrt2) / 2) < mp.mpf(10) ** -35
    assert abs(p.roots(0)[0] - mp.mpf(1) / 2) < mp.mpf(10) ** -35
    assert abs(p.roots(1)[0] - (sqrt2 - 1) / 2) < mp.mpf(10) ** -35


def test_cubic_reference_table():
    p = R.Problem(3, 1.0)
    sqrt3 = mp.sqrt(3)
    for got, want in zip(p.points, (3 * sqrt3 - 5, sqrt3 - 1, 1)):
        assert abs(got - want) < mp.mpf(10) ** -35
    for i, want in N3_ROOTS.items():
        assert [float(r) for r in p.roots(i - 1)] == pytest.approx(want,
                                                                   abs=2e-3)
    assert _finite_ends(p) == pytest.approx(N3_REGION, abs=2e-3)


def test_quartic_reference_table():
    p = R.Problem(4, 1.0)
    assert [float(s) for s in p.points] == pytest.approx(N4_SUPPORT, abs=1e-4)
    for i, want in N4_ROOTS.items():
        assert [float(r) for r in p.roots(i - 1)] == pytest.approx(want,
                                                                   abs=2e-3)
    assert _finite_ends(p) == pytest.approx(N4_REGION, abs=2e-3)
    # Monomial coefficients of L_i', recovered by interpolating the product
    # form at four points; 5e-3 per coefficient, relative above magnitude 1.
    xs = [mp.mpf(k) / 4 for k in range(4)]
    vand = mp.matrix([[x ** k for k in range(4)] for x in xs])
    for i, want in N4_DERIV_COEFFS.items():
        coeffs = mp.lu_solve(vand, mp.matrix([p.deriv(i - 1, x) for x in xs]))
        for got, printed in zip(coeffs, want):
            assert abs(float(got) - printed) <= 5e-3 * max(1.0, abs(printed))


@pytest.mark.parametrize("n,a", [(1, 2.0), (5, 0.3), (12, 1.0), (20, 1e6)])
def test_roots_one_per_rolle_gap(n, a):
    p = R.Problem(n, a)
    for i in range(n):
        zeros = [mp.mpf(0)] + [s for j, s in enumerate(p.points) if j != i]
        roots = p.roots(i)
        assert len(roots) == n - 1
        for lo, r, hi in zip(zeros, roots, zeros[1:]):
            assert lo < r < hi
            scale = max(abs(p.deriv(i, lo)), abs(p.deriv(i, hi)))
            assert abs(p.deriv(i, r)) <= mp.mpf(10) ** -30 * scale


@pytest.mark.parametrize("n,a", [(1, 0.5), (3, 1.0), (6, 3.0), (10, 1.0)])
def test_weights_and_variance_agree_with_the_moment_route(n, a):
    p = R.Problem(n, a)
    for lo, hi in p.region():
        if not (mp.isfinite(lo) or mp.isfinite(hi)):
            lo, hi = -a, a
        lo = hi - a if not mp.isfinite(lo) else lo
        hi = lo + a if not mp.isfinite(hi) else hi
        z = (lo + hi) / 2
        w = p.weights(z)
        assert abs(mp.fsum(w) - 1) < mp.mpf(10) ** -35
        via_moments = R.design_variance(n, z, p.points, w)
        assert abs(via_moments / p.optimal_variance(z) - 1) < mp.mpf(10) ** -25


def test_log_derivative_matches_product_rule_off_the_nodes():
    p = R.Problem(7, 2.0)
    for x in (mp.mpf("-0.3"), mp.mpf("0.77"), mp.mpf("2.5")):
        for i in range(7):
            zeros = [mp.mpf(0)] + [s for j, s in enumerate(p.points) if j != i]
            direct = mp.fsum(
                mp.fprod(x - r for m, r in enumerate(zeros) if m != k)
                for k in range(len(zeros))) / p.denoms[i]
            assert abs(p.deriv(i, x) - direct) <= (
                mp.mpf(10) ** -30 * max(1, abs(direct)))


def test_extremal_polynomial_equioscillates_at_the_support():
    p = R.Problem(6, 1.5)
    for k, s in enumerate(p.points, start=1):
        assert abs(p.extremal(s) - (-1) ** (6 - k)) < mp.mpf(10) ** -30
    assert abs(p.extremal(0)) < mp.mpf(10) ** -30


def test_reference_uses_its_own_precision():
    assert R.mp.dps >= 30 and mpmath.mp is not R.mp

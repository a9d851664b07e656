import math
import random
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from slopedesign import basis, designs
from slopedesign.designs import (Design, DesignProblem, NotCovered,
                                 _unit_state, admissible_region,
                                 optimal_design, support_points)
from slopedesign.elfving import (ElfvingCertificate, certify, extremal_value,
                                 variance)

from helpers import clear_caches

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import reference as R  # noqa: E402

SQRT2 = math.sqrt(2)


def _reference_vectors(n, u):
    """g_k(u) = u T_{k-1}(2u - 1) and its derivative, in 40 digits."""
    with mpmath.workdps(40):
        u = mpmath.mpf(u)
        vals, slopes = [], []
        for k in range(1, n + 1):
            g = lambda x, k=k: x * mpmath.chebyt(k - 1, 2 * x - 1)
            vals.append(g(u))
            slopes.append(mpmath.diff(g, u))
    return vals, slopes


class TestVectors:
    """The model vector and the slope vector, in the unit basis of
    slopedesign.basis."""

    # g_1 = u, g_2 = 2u^2 - u and g_3 = 8u^3 - 8u^2 + u: rows of the change
    # from the monomials u, u^2, u^3.
    TO_MONOMIALS = ((1, 0, 0), (-1, 2, 0), (1, -8, 8))

    def test_monomial_features(self):
        for u in (2.0, 0.5, -1.25, 0.0):
            mono = (u, u ** 2, u ** 3)
            want = [sum(b * m for b, m in zip(row, mono))
                    for row in self.TO_MONOMIALS]
            assert basis.values(3, u) == want
        assert basis.values(1, -5.0) == [-5.0]

    def test_slope_vector(self):
        # The same change of basis carries the monomial slope (1, 2u, 3u^2).
        for u in (2.0, 0.5, -1.25, 0.0):
            mono = (1.0, 2 * u, 3 * u ** 2)
            want = [sum(b * m for b, m in zip(row, mono))
                    for row in self.TO_MONOMIALS]
            assert basis.slope(3, u) == want
        assert basis.slope(1, -5.0) == [1.0]

    @pytest.mark.parametrize("n", [2, 9, 20, 30])
    def test_match_reference(self, n):
        for u in (0.0, 0.3, 1.0, -0.7, 2.5):
            vals, slopes = _reference_vectors(n, u)
            for got, want in zip(basis.values(n, u), vals):
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (n, u)
            for got, want in zip(basis.slope(n, u), slopes):
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (n, u)

    def test_arrays_match_floats(self):
        u = np.linspace(-0.5, 1.5, 7)
        for fn in (basis.values, basis.slope):
            rows = np.array(fn(6, u))
            assert rows.shape == (6, u.size)
            for j, uj in enumerate(u):
                assert list(rows[:, j]) == fn(6, float(uj))

    def test_bounded_on_unit_interval(self):
        # |g_k| <= 1 on [0, 1], so no column of a check grows with a.
        u = np.linspace(0.0, 1.0, 1001)
        assert np.abs(np.array(basis.values(30, u))).max() <= 1.0


class TestInfoMatrix:
    """The moment matrix M that variance factors: its entries, and its
    rank, which decides whether the slope is estimable."""

    def test_n1_point_mass(self):
        # M = x^2 = 4 and c = 1, so c^T M^- c = 1/4.
        d = Design((2.0,), (1.0,))
        assert variance(DesignProblem(1, 2.0), d, 0.7) == pytest.approx(
            0.25, rel=1e-15)

    def test_n2_two_points(self):
        w1, w2 = 0.4, 0.6
        x1 = SQRT2 - 1
        m = np.array([[w1 * x1 ** 2 + w2, w1 * x1 ** 3 + w2],
                      [w1 * x1 ** 3 + w2, w1 * x1 ** 4 + w2]])
        d = Design((x1, 1.0), (w1, w2))
        for z in (-0.5, 0.3, 1.0, 2.0):
            c = np.array([1.0, 2.0 * z])
            want = float(c @ np.linalg.solve(m, c))
            got = variance(DesignProblem(2, 1.0), d, z)
            assert got == pytest.approx(want, rel=1e-12)

    def test_symmetric_psd_and_rank(self):
        # M is PSD, so the variance is never negative; it has rank
        # min(points, n), so the slope is estimable exactly when the design
        # has at least n points.  Well-spaced lattice supports keep the rank
        # numerically unambiguous.
        lattice = np.linspace(0.15, 1.0, 8)
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            m_pts = int(rng.integers(1, n + 2))
            pts = np.sort(rng.choice(lattice, size=m_pts, replace=False))
            w = rng.uniform(0.1, 1.0, size=m_pts)
            d = Design(pts, w / w.sum())
            v = variance(DesignProblem(n, 1.0), d, rng.uniform(-1, 2))
            assert v > 0
            assert math.isfinite(v) == (m_pts >= n), (n, m_pts)


class TestVariance:
    def test_n1_unit(self):
        assert variance(DesignProblem(1, 1.0), Design((1.0,), (1.0,)),
                        0.3) == 1.0

    def test_rank_deficient_gives_infinity(self):
        assert variance(DesignProblem(2, 1.0), Design((1.0,), (1.0,)),
                        0.75) == math.inf

    # A row of size 1e-100 beside one of size 1: the second column's
    # remainder cancels to 0, below lstsq's cutoff, and the slope (1, 1) at
    # z = a / 2 is the model vector at a, so c^T M^- c is exactly 1 / 0.5.
    # A lone row of size 1e-200 spans no slope but its own direction, and
    # no product of it with the reflection's vector may underflow to 0.
    @pytest.mark.parametrize("a,points,weights,want", [
        (1.0, (1e-100, 1.0), (0.5, 0.5), 2.0),
        (1e300, (1e100,), (1.0,), math.inf)])
    def test_point_near_0_off_the_support(self, a, points, weights, want):
        got = variance(DesignProblem(2, a), Design(points, weights), a / 2)
        assert got == pytest.approx(want / a / a, rel=1e-14)

    @pytest.mark.parametrize("n,a,z", [(5, 1.0, 1e75), (5, 1.0, -1e75),
                                       (5, 1.0, 1e77), (2, 1e80, 1e300)])
    def test_targets_of_huge_magnitude_on_the_support(self, n, a, z):
        # A product inside basis_derivatives overflows at these targets.
        # The variance is the reference's, inf where that is beyond the
        # float range, and never nan.
        problem = DesignProblem(n, a)
        s = support_points(problem)
        design = Design(s, [1.0 / n] * n)
        want = R.design_variance(n, R.mp.mpf(z) / a,
                                 [R.mp.mpf(x) / a for x in s],
                                 design.weights) / R.mp.mpf(a) ** 2
        assert variance(problem, design, z) == pytest.approx(
            R.to_float(want), rel=1e-12)

    def test_matches_absolute_derivative_sum_squared(self):
        pr = DesignProblem(3, 1.0)
        d = optimal_design(pr, 1.0)
        want = float(R.problem(3, 1.0).optimal_variance(1.0))
        assert variance(pr, d, 1.0) == pytest.approx(want, rel=1e-10)

    def test_generalized_inverse_independence(self):
        # The reference is c^T M^+ c in powers of x.  Well-spaced supports
        # keep both routes accurate enough that the 1e-9 agreement bound
        # tests the math, not the conditioning.
        lattice = np.linspace(0.2, 1.0, 6)
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            pts = np.sort(rng.choice(lattice, size=n, replace=False))
            w = rng.uniform(0.2, 1.0, size=n)
            d = Design(pts, w / w.sum())
            z = rng.uniform(-1, 2)
            k = np.arange(1, n + 1)
            c = k * z ** (k - 1)
            f = pts[:, None] ** k
            m = f.T @ (np.asarray(d.weights)[:, None] * f)
            via_factor = variance(DesignProblem(n, 1.0), d, z)
            via_pinv = float(c @ np.linalg.pinv(m) @ c)
            assert via_factor == pytest.approx(via_pinv, rel=1e-9)

    @pytest.mark.parametrize("a", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("n", range(1, 31))
    def test_closed_form_support_matches_reference(self, n, a):
        # Weights that are not optimal, uniform and seeded random, on the
        # closed-form support, whose variance is sum_i L_i'(z)^2 / w_i, at
        # targets below 0, inside (0, a), at a and above a.  The reference
        # runs on [0, 1] in 40 digits, where its monomial matrix is not
        # singular to mpmath, and scales by 1 / a^2: with
        # f(x) = diag(a^k) f(x / a), c^T M^- c is that at a = 1 over a^2.
        # The node form errs by at most 1.7e-14 here; beta = G^-1 c through
        # an explicit inverse erred by up to 9.6e-14.
        problem = DesignProblem(n, a)
        s = support_points(problem)
        rng = random.Random(n)
        w = [rng.uniform(0.1, 1.0) for _ in s]
        unit = [R.mp.mpf(x) / a for x in s]
        for weights in ([1.0 / n] * n, [x / math.fsum(w) for x in w]):
            design = Design(s, weights)
            for z in (a, 0.37 * a, -0.5 * a, 1.7 * a):
                want = R.to_float(R.design_variance(
                    n, R.mp.mpf(z) / a, unit, design.weights) / R.mp.mpf(a) ** 2)
                assert variance(problem, design, z) == pytest.approx(
                    want, rel=5e-14), (n, a, z)

    @pytest.mark.parametrize("a", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_off_the_support_matches_reference(self, n, a):
        # Seeded designs of n and n - 1 points, and of n points of which
        # the first is at 0, with seeded weights, at seeded targets and at
        # a: the Householder route against the reference, which takes at
        # most n points, none at 0 (a row there is 0 and is dropped).  It
        # errs by at most 7.7e-10 here, on ill-conditioned designs of
        # clustered points near n = 12, where numpy's lstsq erred by 3.9e-9;
        # both give inf at the same 264 of 408 cases.
        problem = DesignProblem(n, a)
        rng = random.Random(1000 * n + round(math.log10(a)))
        for m, zero in ((n, False), (n - 1, False), (n, True)):
            if m < 1 or (zero and n == 1):
                continue
            points = sorted(rng.uniform(0.05, 1.0) * a for _ in range(m))
            if zero:
                points[0] = 0.0
            w = [rng.uniform(0.1, 1.0) for _ in points]
            design = Design(points, [x / math.fsum(w) for x in w])
            kept = [(x, wx) for x, wx in zip(design.points, design.weights)
                    if x]
            unit = [R.mp.mpf(x) / a for x, _ in kept]
            zs = [rng.uniform(-0.5, 1.7) * a for _ in range(3)] + [a]
            for z in zs:
                want = R.to_float(R.design_variance(
                    n, R.mp.mpf(z) / a, unit, [wx for _, wx in kept])
                    / R.mp.mpf(a) ** 2)
                got = variance(problem, design, z)
                if math.isinf(want):
                    assert math.isinf(got), (m, zero, z)
                else:
                    assert got == pytest.approx(want, rel=1e-9), (m, zero, z)


def _trig_extremal(problem, x):
    """The reference form of the extremal polynomial, T_n((1 + c) x / a - c)
    = cos(n acos(.)) with c = cos(pi / 2n), for x in [0, a]."""
    n = problem.n
    c = math.cos(math.pi / (2 * n))
    u = (x / problem.a) * (1.0 + c) - c
    return math.cos(n * math.acos(max(-1.0, min(1.0, u))))


class TestExtremalPolynomial:
    """The emitted polynomial sum_k p_k g_k(x / a), through extremal_value."""

    def test_n1_identity_on_unit_interval(self):
        assert _unit_state(1).p == (1.0,)
        pr = DesignProblem(1, 1.0)
        assert extremal_value(pr, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert extremal_value(pr, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_n2_alternation_values(self):
        pr = DesignProblem(2, 1.0)
        assert extremal_value(pr, SQRT2 - 1) == pytest.approx(-1.0, abs=1e-12)
        assert extremal_value(pr, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert abs(extremal_value(pr, 0.0)) <= 1e-12

    def test_n4_equioscillation_on_unit_interval(self):
        pr = DesignProblem(4, 1.0)
        sup = support_points(pr)
        grid = [k / 2000 for k in range(2001)]
        near = [x for x in grid
                if abs(abs(extremal_value(pr, x)) - 1.0) <= 1e-6]
        # every near-extremal grid point clusters at a support point
        assert all(min(abs(x - s) for s in sup) < 2e-3 for x in near)
        for s in sup:
            assert abs(abs(extremal_value(pr, s)) - 1.0) <= 1e-9

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
    def test_supnorm_alternation_origin(self, n, a):
        pr = DesignProblem(n, a)
        assert abs(extremal_value(pr, 0.0)) <= 1e-10
        sup = support_points(pr)
        for i, x in enumerate(sup, start=1):
            assert extremal_value(pr, x) == pytest.approx((-1.0) ** (n - i),
                                                          abs=1e-9)
        mx = max(abs(extremal_value(pr, a * k / 1000)) for k in range(1001))
        assert mx <= 1.0 + 1e-9
        # the emitted coefficients agree with the trigonometric form
        for k in range(0, 1001, 37):
            x = a * k / 1000
            assert extremal_value(pr, x) == pytest.approx(
                _trig_extremal(pr, x), abs=5e-9)


class TestCertify:
    def test_n1_trivial_certificate(self):
        pr = DesignProblem(1, 1.0)
        cert = certify(pr, 0.7, Design((1.0,), (1.0,)))
        assert cert.verdict == "verified"
        assert cert.p == (1.0,)
        assert cert.h == pytest.approx(1.0, abs=1e-14)
        assert cert.condition3_residual <= 1e-14

    def test_n3_z1_verifies(self):
        pr = DesignProblem(3, 1.0)
        d = optimal_design(pr, 1.0)
        cert = certify(pr, 1.0, d)
        assert cert.verifies
        assert cert.condition1_margin <= 1e-10
        assert max(cert.condition2_residuals) <= 1e-10
        assert cert.condition3_residual <= 1e-10

    def test_perturbed_weights_fail_condition3(self):
        pr = DesignProblem(3, 1.0)
        d = optimal_design(pr, 1.0)
        w = [d.weights[0] + 0.05, d.weights[1], d.weights[2]]
        total = sum(w)
        bad = Design(d.points, [x / total for x in w])
        cert = certify(pr, 1.0, bad)
        assert cert.verdict == "failed"
        assert cert.condition3_residual > 1e-3

    def test_z_outside_region_raises(self):
        pr = DesignProblem(3, 1.0)
        d = optimal_design(pr, 1.0)
        with pytest.raises(NotCovered):
            certify(pr, 0.2, d)

    def test_h_positive_in_every_interval(self):
        from slopedesign.designs import admissible_region
        pr = DesignProblem(4, 1.0)
        for lo, hi in admissible_region(pr).intervals:
            lo = hi - 1.0 if lo == -math.inf else lo
            hi = lo + 1.0 if hi == math.inf else hi
            z = 0.5 * (lo + hi)
            cert = certify(pr, z, optimal_design(pr, z))
            assert cert.h > 0
            assert cert.verifies

    def test_soundness_variance_equals_h_squared(self):
        for n, a, z in [(2, 1.0, 0.8), (3, 0.5, 0.55), (4, 3.0, 3.1),
                        (5, 1.0, 0.15), (6, 1.0, 1.2)]:
            pr = DesignProblem(n, a)
            d = optimal_design(pr, z)
            cert = certify(pr, z, d)
            assert cert.verifies
            v = variance(pr, d, z)
            assert v == pytest.approx(cert.h ** 2, rel=1e-8)

    def test_serialization_shape(self):
        pr = DesignProblem(2, 1.0)
        cert = certify(pr, 1.5, optimal_design(pr, 1.5))
        doc = cert.as_dict()
        assert set(doc) == {"p", "h", "margins", "verdict"}
        assert set(doc["margins"]) == {"condition1", "condition2", "condition3"}
        assert isinstance(cert, ElfvingCertificate)

    def test_overflowing_residual_fails(self):
        # At z = 1e202 and a = 1e100, h = 4.38e208 is finite but the slope
        # g'(z / a) overflows, so the residual is nan; a nan among finite
        # residuals must not pass.  The design is that of z = a.
        pr = DesignProblem(4, 1e100)
        cert = certify(pr, 1e202, optimal_design(pr, 1e100))
        assert math.isnan(cert.condition3_residual)
        assert cert.verdict == "failed"

    def test_grid_below_two_rejected(self):
        pr = DesignProblem(3, 1.0)
        d = optimal_design(pr, 1.0)
        for m in (0, 1):
            with pytest.raises(ValueError, match="grid_points"):
                certify(pr, 1.0, d, grid_points=m)


@pytest.fixture
def swap_p(monkeypatch):
    """Replaces the extremal polynomial that the unit state builds; one
    clear on the way in and one on the way out empty every field read from
    it."""
    def install(p):
        monkeypatch.setattr(designs._UnitState, "_build_p", lambda state: p)
        clear_caches()
    yield install
    clear_caches()


def _margins(cert):
    return (cert.p, cert.h, cert.condition1_margin,
            cert.condition2_residuals, cert.condition3_residual, cert.verdict)


class TestCertifyCache:
    """The z-independent part of certify is read from the unit state of the
    degree, built once per n: the coefficients of the extremal polynomial,
    the condition-1 margin and the rows of conditions 2 and 3 at the
    closed-form support."""

    PROBLEM = DesignProblem(4, 1.0)
    TARGETS = (-0.5, 0.03, 0.25, 0.3, 0.68, 0.95, 1.4)

    def _batch(self, clear_each: bool):
        certs = []
        for z in self.TARGETS:
            if clear_each:
                clear_caches()
            certs.append(certify(self.PROBLEM, z,
                                 optimal_design(self.PROBLEM, z)))
        return certs

    def test_cold_and_warm_certificates_identical(self):
        cold = self._batch(clear_each=True)
        warm = self._batch(clear_each=False)
        assert cold == warm
        assert all(c.verifies for c in warm)

    def test_one_miss_per_batch(self):
        clear_caches()
        self._batch(clear_each=False)
        info = _unit_state.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    def test_keyed_by_degree_alone(self):
        # The margin is taken from the critical points of S, not from a
        # grid, so one entry per n serves every grid_points.
        clear_caches()
        z = 0.95
        d = optimal_design(self.PROBLEM, z)
        base = certify(self.PROBLEM, z, d)
        coarse = certify(self.PROBLEM, z, d, grid_points=11)
        assert _unit_state.cache_info().misses == 1
        assert coarse == base
        # The same n on another interval shares the entry: the problem is
        # scale-equivariant, and p holds coefficients on g_k(x / a).
        scaled = DesignProblem(4, 1e6)
        cert = certify(scaled, 1e6 * z, optimal_design(scaled, 1e6 * z))
        assert _unit_state.cache_info().misses == 1
        assert cert.verifies
        assert cert.p == base.p
        assert cert.condition1_margin == base.condition1_margin
        # Another degree is another entry.
        other = DesignProblem(5, 1.0)
        certify(other, 1.0, optimal_design(other, 1.0))
        info = _unit_state.cache_info()
        assert (info.misses, info.currsize) == (2, 2)

    def test_support_rows_keyed_by_design_points(self):
        # The closed-form support reads its rows from the state, a moved one
        # computes its own: every call gives the margins of a cold call, bit
        # for bit, and the state is built once.
        z = 0.95
        first = optimal_design(self.PROBLEM, z)
        moved = Design([x * 0.999 for x in first.points], first.weights)
        calls = [(z, first), (z, moved), (z, first), (0.25, first),
                 (0.25, moved)]
        cold = []
        for zc, design in calls:
            clear_caches()
            cold.append(_margins(certify(self.PROBLEM, zc, design)))
        clear_caches()
        warm = [_margins(certify(self.PROBLEM, zc, design))
                for zc, design in calls]
        assert warm == cold
        assert cold[0][-1] == "verified" and cold[1][-1] == "failed"
        assert _unit_state.cache_info().misses == 1

    @pytest.mark.parametrize("n", [4, 9])
    def test_batch_evaluates_each_design_point_once(self, n, monkeypatch,
                                                    capsys):
        # A 200-target design --z-list evaluates the model vector of each of
        # the n support points once, whatever the number of targets.
        from slopedesign.cli import main
        region = admissible_region(DesignProblem(n, 1.0))
        per = -(-200 // n)
        zs = []
        for lo, hi in region.intervals:
            lo, hi = max(lo, -1.0), min(hi, 2.0)
            zs += [lo + (hi - lo) * (k + 1) / (per + 1) for k in range(per)]
        zs = zs[:200]
        assert len(zs) == 200
        calls = []
        values = basis.values

        def counted(m, u):
            calls.append(u)
            return values(m, u)

        monkeypatch.setattr(basis, "values", counted)
        clear_caches()
        code = main(["design", "--n", str(n), "--a", "1",
                     "--z-list", *map(repr, zs)])
        assert code == 0, capsys.readouterr().err
        assert len(calls) == n


def _mutated_designs(seed: int, count: int, max_n: int, draw_a) -> list:
    """Seeded (problem, z, design, mutant) cases for n = 2..max_n and a from
    draw_a(rng): even cases move one weight pair by +/-1e-6, odd cases move
    one support point inside (0, a) by +/-1e-6 * a."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        n = rng.randint(2, max_n)
        a = draw_a(rng)
        problem = DesignProblem(n, a)
        lo, hi = rng.choice(admissible_region(problem).intervals)
        lo = hi - a if lo == -math.inf else lo
        hi = lo + a if hi == math.inf else hi
        z = lo + (hi - lo) * rng.uniform(0.05, 0.95)
        design = optimal_design(problem, z)
        points, weights = list(design.points), list(design.weights)
        if i % 2 == 0:
            k, m = rng.sample(range(n), 2)
            step = rng.choice((-1e-6, 1e-6))
            weights[k] += step
            weights[m] -= step
        else:
            points[rng.randrange(n - 1)] += rng.choice((-1e-6, 1e-6)) * a
        cases.append((problem, z, design, Design(points, weights)))
    return cases


def _log_uniform(lo: float, hi: float):
    return lambda rng: math.exp(rng.uniform(math.log(lo), math.log(hi)))


class TestCondition3Mutations:
    """The certificate verifies the closed-form design and rejects every
    design moved by 1e-6, at the default tolerance: 200 seeded cases for
    n = 2..9 and a in [0.1, 3], and 200 over the whole domain, n = 2..30 and
    a log-uniform on [1e-8, 1e8]."""

    CASES = (_mutated_designs(4104, 200, 9, lambda rng: rng.uniform(0.1, 3.0))
             + _mutated_designs(3017, 200, 30, _log_uniform(1e-8, 1e8)))

    def test_unmutated_designs_verify(self):
        for problem, z, design, _ in self.CASES:
            assert certify(problem, z, design).verifies, (problem, z)

    def test_mutated_designs_fail(self):
        for problem, z, _, mutant in self.CASES:
            assert certify(problem, z, mutant).verdict == "failed", (problem, z)


class TestEmittedPolynomialMutations:
    """Conditions 1 and 2 evaluate the emitted coefficients: the closed-form
    design verifies with both margins at the rounding level, and moving any
    one coefficient by 1e-6 relative fails the certificate, for n = 1..30
    and a in {1e-8, 1, 1e8}, with z = a in the last admissible interval."""

    SCALES = (1e-8, 1.0, 1e8)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_unmutated_design_verifies(self, n):
        for a in self.SCALES:
            problem = DesignProblem(n, a)
            cert = certify(problem, a, optimal_design(problem, a))
            assert cert.verifies, (n, a)
            assert abs(cert.condition1_margin) <= 1e-11, (n, a)
            assert max(cert.condition2_residuals) <= 1e-11, (n, a)

    def test_condition1_margin_is_not_a_constant(self):
        margins = {_unit_state(n).cond1 for n in range(1, 31)}
        assert len(margins) > 1
        assert all(abs(m) <= 1e-11 for m in margins)

    def test_swapped_p_reaches_conditions_1_to_3(self, swap_p):
        # One clear after the builder's p is swapped reaches every condition:
        # no field of the unit state keeps what the old p gave.  Here p is
        # negated, so condition 3 sees every sign flip, and its first
        # coefficient is moved by 1e-6, which conditions 1 and 2 see.
        problem = DesignProblem(4, 1.0)
        design = optimal_design(problem, 1.0)
        base = certify(problem, 1.0, design)
        p = _unit_state(4).p
        swapped = (-p[0] * (1.0 + 1e-6),) + tuple(-pk for pk in p[1:])
        swap_p(swapped)
        cert = certify(problem, 1.0, design)
        assert cert.p[1:] == tuple(-pk for pk in base.p[1:])
        us = [k / 4000 for k in range(4001)]
        swept = max(map(abs, basis.series(swapped, us))) - 1.0
        assert cert.condition1_margin >= swept > 1e-8
        dots = [math.fsum(pk * gk for pk, gk in zip(swapped,
                                                   basis.values(4, x)))
                for x in design.points]
        assert cert.condition2_residuals == tuple(abs(abs(v) - 1.0)
                                                  for v in dots)
        assert max(cert.condition2_residuals) > 1e-8
        assert base.condition3_residual <= 1e-13
        assert cert.condition3_residual > 0.5
        assert cert.verdict == "failed"

    @pytest.mark.parametrize("n", range(1, 31))
    def test_moved_coefficient_fails(self, n, swap_p):
        p = _unit_state(n).p
        designs = {a: optimal_design(DesignProblem(n, a), a)
                   for a in self.SCALES}
        for k in range(n):
            for step in (-1e-6, 1e-6):
                moved = list(p)
                moved[k] *= 1.0 + step
                swap_p(tuple(moved))
                for a, design in designs.items():
                    cert = certify(DesignProblem(n, a), a, design)
                    assert cert.verdict == "failed", (n, a, k, step)


def _mp_sup(p):
    """max |S| over [0, 1] for the float coefficients p, in 40 digits: at 0,
    at 1 and at the n - 1 roots of S', each found by mpmath's bracketing
    solver between the midpoints of the unit nodes."""
    n = len(p)
    with mpmath.workdps(40):
        y = [mpmath.mpf(pk) for pk in p]

        def value_and_slope(u):
            # S = u Q(2u - 1) and S' = Q + 2u Q', by the forward recurrences
            # of T_m and T_m' in 40 digits.
            t = 2 * u - 1
            q, dq = y[0], mpmath.mpf(0)
            t_prev, t_cur, d_prev, d_cur = mpmath.mpf(1), t, 0, mpmath.mpf(1)
            for yk in y[1:]:
                q += yk * t_cur
                dq += yk * d_cur
                t_prev, t_cur, d_prev, d_cur = (
                    t_cur, 2 * t * t_cur - t_prev,
                    d_cur, 2 * t_cur + 2 * t * d_cur - d_prev)
            return u * q, q + 2 * u * dq

        s = [mpmath.mpf(x) for x in R.problem(n, 1.0).points]
        edges = [mpmath.mpf(0)] + [(x + w) / 2 for x, w in
                                   zip(s[:-2], s[1:-1])] + [mpmath.mpf(1)]
        brackets = list(zip(edges, edges[1:]))[:n - 1]
        roots = [mpmath.findroot(lambda u: value_and_slope(u)[1], bracket,
                                 solver="anderson") for bracket in brackets]
        assert all(lo < r < hi for (lo, hi), r in zip(brackets, roots))
        return max(abs(value_and_slope(u)[0])
                   for u in [mpmath.mpf(0), mpmath.mpf(1), *roots])


class TestGridFreeCondition1:
    """Condition 1 takes the sup of |S| from the critical points of S,
    refined inside brackets between the unit nodes, and from the ends of
    [0, 1]: no grid reaches it."""

    @pytest.mark.parametrize("n", range(1, 31))
    def test_margin_matches_mpmath_sup(self, n):
        sup = _mp_sup(_unit_state(n).p)
        assert abs(_unit_state(n).cond1 - float(sup - 1)) <= 2e-14, n

    def test_bump_between_grid_points_fails(self, swap_p):
        # S(u) = (1 + E)(2u / r - u^2 / r^2) peaks at 1 + E at u = r, the
        # middle of two points of the 2001-point grid, 5.4e-4 right of the
        # node sqrt(2) - 1 of n = 2.  Both grid points and the node lie at
        # least 3.6e-7 below the peak, so a sweep over them stays within
        # the tolerance, and |S(1)| < 1.
        E = 1e-8
        r = 829.5 / 2000
        big = (1.0 + E) / r
        p = (2.0 * big - 0.5 * big / r, -0.5 * big / r)
        swap_p(p)
        us = [k / 2000 for k in range(2001)] + [math.sqrt(2.0) - 1.0]
        swept = max(map(abs, basis.series(p, us))) - 1.0
        assert swept <= 1e-10
        assert _unit_state(2).cond1 == pytest.approx(E, rel=1e-6)
        problem = DesignProblem(2, 1.0)
        cert = certify(problem, 1.0, optimal_design(problem, 1.0))
        assert cert.condition1_margin > 1e-10
        assert cert.verdict == "failed"

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 30])
    def test_margin_does_not_depend_on_the_grid(self, n):
        problem = DesignProblem(n, 1.0)
        design = optimal_design(problem, 1.0)
        certs = []
        for m in (2, 11, 2001):
            clear_caches()
            certs.append(certify(problem, 1.0, design, grid_points=m))
        assert certs[0] == certs[1] == certs[2]
        assert certs[0].verifies

    @pytest.mark.parametrize("n", [2, 3, 9])
    def test_broken_bracket_pattern_fails(self, n, swap_p):
        # S(u) = u has |S| <= 1 on [0, 1], but S' = 1 changes sign across
        # no bracket: it is not the extremal polynomial, and the check has
        # no critical point to take the sup from.
        p = (1.0,) + (0.0,) * (n - 1)
        swap_p(p)
        problem = DesignProblem(n, 1.0)
        cert = certify(problem, 1.0, optimal_design(problem, 1.0))
        assert cert.condition1_margin == math.inf
        assert cert.verdict == "failed"

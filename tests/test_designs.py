import math
import sys
from pathlib import Path

import numpy as np
import pytest

from slopedesign import designs
from slopedesign.designs import (AdmissibleRegion, BoundaryPoint, Design,
                                 DesignProblem, DomainError, NotCovered,
                                 _rolle_root, _unit_state, admissible_region,
                                 basis_derivatives, optimal_design,
                                 support_points, weights_at)
from slopedesign.elfving import certify, variance

from helpers import clear_caches

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import reference as R  # noqa: E402

SQRT2 = math.sqrt(2)
SQRT3 = math.sqrt(3)

# Reference tables for a = 1 (decimals carry ~4-5 significant digits).
REGION_N3 = [(-math.inf, 0.090), (0.2785, 0.528), (0.8758, math.inf)]
REGION_N4 = [(-math.inf, 0.05071), (0.1696, 0.3175),
             (0.6432, 0.7123), (0.9332, math.inf)]
ROOTS_N4 = {
    1: [0.1696, 0.6432, 0.9332],
    2: [0.05268, 0.4872, 0.9305],
    3: [0.05102, 0.3232, 0.8205],
    4: [0.05071, 0.3175, 0.7123],
}


# Targets of the n = 2 closed forms: both sides of each root, the nodes and
# beyond the design interval.
N2_TARGETS = (-1.0, 0.0, 0.1, SQRT2 - 1, 0.5, 0.8, 1.0, 2.5)


def problem(n, a=1.0):
    return DesignProblem(n, a)


class TestTypes:
    def test_problem_validation(self):
        # DomainError is a ValueError that names the input.
        for n, a, name in [(0, 1.0, "n"), (2, 0.0, "a"), (2, math.inf, "a")]:
            with pytest.raises(DomainError) as err:
                DesignProblem(n, a)
            assert err.value.input == name

    @pytest.mark.parametrize("a", [10**400, -10**400])
    def test_problem_rejects_int_beyond_float_range(self, a):
        with pytest.raises(ValueError, match="a must be"):
            DesignProblem(2, a)

    @pytest.mark.parametrize("a", [True, False])
    def test_problem_rejects_bool_a(self, a):
        with pytest.raises(ValueError, match="a must be"):
            DesignProblem(2, a)

    @pytest.mark.parametrize("n", [True, False, 2.0, "3"])
    def test_problem_rejects_non_integer_n(self, n):
        with pytest.raises(ValueError):
            DesignProblem(n, 1.0)

    def test_problem_accepts_numpy_integer(self):
        pr = DesignProblem(np.int64(3), 1.0)
        assert type(pr.n) is int
        assert pr == DesignProblem(3, 1.0)

    def test_design_validation(self):
        with pytest.raises(ValueError):
            Design((0.5, 0.5), (0.5, 0.5))  # not strictly increasing
        with pytest.raises(ValueError):
            Design((0.5, 1.0), (0.5, 0.6))  # weights exceed 1
        with pytest.raises(ValueError):
            Design((0.5, 1.0), (1.2, -0.2))  # negative weight
        d = Design((0.5, 1.0), (0.25, 0.75))
        assert len(d) == 2

    @pytest.mark.parametrize("points,weights", [
        ((math.nan, 1.0), (0.5, 0.5)),
        ((0.5, math.inf), (0.5, 0.5)),
        ((-math.inf, 1.0), (0.5, 0.5)),
        ((0.5, 1.0), (math.nan, 0.5)),
        ((0.5, 1.0), (math.inf, 0.5)),
    ])
    def test_design_rejects_values_that_are_not_finite(self, points, weights):
        with pytest.raises(ValueError, match="finite"):
            Design(points, weights)

    def test_optimal_design_rejects_weights_that_overflow(self):
        # At z = 1e300 the basis derivatives overflow and the weights are
        # nan; the unit state of the degree is still valid.
        problem = DesignProblem(4, 1.0)
        for _ in range(2):
            with pytest.raises(ValueError, match="weights must be finite"):
                optimal_design(problem, 1e300)
        assert optimal_design(problem, 1.0).points == support_points(problem)

    def test_optimal_design_builds_the_state_once_per_degree(self):
        # Every a and every target of a degree scale one unit state.
        clear_caches()
        for n in range(1, 11):
            for a in (1e-8, 1.0, 1e8):
                problem = DesignProblem(n, a)
                zs = [a] + [0.5 * (lo + hi) for lo, hi
                            in admissible_region(problem).intervals[1:-1]]
                for z in zs:
                    d = optimal_design(problem, z)
                    assert d == Design(support_points(problem), d.weights)
            info = _unit_state.cache_info()
            assert (info.misses, info.currsize) == (n, n)


class TestSupportPoints:
    def test_n2_exact(self):
        s = support_points(problem(2))
        assert abs(s[0] - (SQRT2 - 1)) <= 1e-12
        assert s[1] == 1.0

    def test_n1_all_mass_location(self):
        assert support_points(problem(1)) == (1.0,)

    def test_n4_reference_decimals(self):
        s = support_points(problem(4))
        for got, want in zip(s, (0.1127, 0.4802, 0.8477, 1.0)):
            assert got == pytest.approx(want, abs=1e-4)

    def test_n3_scaled_interval(self):
        s = support_points(problem(3, 2.0))
        want = [2 * (3 * SQRT3 - 5), 2 * (SQRT3 - 1), 2.0]
        for got, w in zip(s, want):
            assert got == pytest.approx(w, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_ascending_with_right_endpoint(self, n):
        s = support_points(problem(n, 1.5))
        assert all(x < y for x, y in zip(s, s[1:]))
        assert s[-1] == 1.5
        assert s[0] > 0


class TestLagrangeBasis:
    # The basis reproduces the model: sum_i s_i^k L_i(x) = x^k for k = 1..n,
    # which holds exactly when L_i(s_j) = delta_ij and L_i(0) = 0.  Its
    # derivative form is checked on the values of basis_derivatives.
    @pytest.mark.parametrize("n", range(1, 11))
    def test_interpolation_and_zero_intercept(self, n):
        for a in (1e-8, 1.0, 1e8):
            pr = problem(n, a)
            s = support_points(pr)
            zs = [a * u for u in (0.0, 0.05, 0.3, 0.5, 0.77, 1.0)] + list(s)
            for z in zs:
                d = basis_derivatives(pr, z)
                for k in range(1, n + 1):
                    terms = [si ** k * di for si, di in zip(s, d)]
                    scale = math.fsum(abs(t) for t in terms)
                    err = abs(math.fsum(terms) - k * z ** (k - 1))
                    assert err <= 1e-14 * scale, (a, z, k)

    def test_n2_closed_form(self):
        # L_1(z) = (z^2 - z) / (4 - 3 sqrt 2), so L_1'(z) = (2z - 1) /
        # (4 - 3 sqrt 2).
        for z in N2_TARGETS:
            want = (2.0 * z - 1.0) / (4.0 - 3.0 * SQRT2)
            assert basis_derivatives(problem(2), z)[0] == pytest.approx(
                want, abs=1e-12)


class TestWeightFunctions:
    # The weight functions L_i' of the paper, as values of basis_derivatives.

    def test_n2_exact(self):
        for z in N2_TARGETS:
            w1, w2 = basis_derivatives(problem(2), z)
            assert w1 == pytest.approx((4 + 3 * SQRT2) / 2 * (1 - 2 * z),
                                       abs=1e-12)
            assert w2 == pytest.approx((2 + SQRT2) * (z - (SQRT2 - 1) / 2),
                                       abs=1e-12)

    @staticmethod
    def _assert_matches_printed(n, i, printed):
        # The printed coefficients carry ~4-5 digits, so each is good to
        # 5e-3 relative above magnitude 1; that bound is carried to the
        # values on [0, 1].
        pr = problem(n)
        for m in range(101):
            z = m / 100
            got = basis_derivatives(pr, z)[i - 1]
            want = math.fsum(c * z ** k for k, c in enumerate(printed))
            bound = 5e-3 * math.fsum(max(1.0, abs(c)) * z ** k
                                     for k, c in enumerate(printed))
            assert abs(got - want) <= bound, z

    def test_n3_reference_decimals(self):
        self._assert_matches_printed(3, 2, (-1.8680, 22.767, -28.548))

    def test_n4_reference_decimals(self):
        self._assert_matches_printed(4, 4, (-0.65327, 15.858, -61.552, 56.968))

    def test_n1_constant(self):
        for z in (-3.0, 0.0, 0.7, 2.0, 1e6):
            assert basis_derivatives(problem(1, 2.0), z) == (0.5,)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_exactly_n_minus_1_roots(self, n):
        region = admissible_region(problem(n))
        for rs in region.boundary_roots:
            assert len(rs) == n - 1

    @pytest.mark.parametrize("n,z", [(2, 1e300), (5, 1e75)])
    def test_finite_where_the_prefix_product_overflows(self, n, z):
        # u * prod_{j<n} (u - s_j) overflows, yet each L_i'(z) is finite
        # (about 2e302 to 6e302 at n = 5); the last one once read nan, as
        # inf * 0.
        problem = DesignProblem(n, 1.0)
        ref = R.problem(n, 1.0).derivs(z)
        for got, want in zip(basis_derivatives(problem, z), ref):
            want = R.to_float(want)
            assert math.isfinite(got)
            assert abs(got - want) <= 1e-12 * abs(want)


class TestWeightsAt:
    def test_n1_trivial(self):
        assert weights_at(problem(1), -3.7) == (1.0,)

    def test_partition_of_unity(self):
        import random
        rng = random.Random(7)
        for n in range(1, 11):
            pr = problem(n)
            for _ in range(20):
                z = rng.uniform(-2, 3)
                w = weights_at(pr, z)
                assert abs(math.fsum(w) - 1.0) <= 1e-12
                assert all(0.0 <= wi <= 1.0 for wi in w)

    def test_n3_z1_positive(self):
        w = weights_at(problem(3), 1.0)
        assert all(wi > 0 for wi in w)
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("a", [1e-8, 1.0, 1e8, 1e20])
    def test_basis_reproduces_x(self, a):
        # sum_i s_i L_i'(z) = 1, so sum_i |L_i'(z)| >= 1 / a: the weights
        # never divide by zero, at any scale.
        for n in range(1, 31):
            pr = DesignProblem(n, a)
            s = support_points(pr)
            for z in (-a, 0.0, 0.05 * a, 0.3 * a, a, 2.0 * a):
                terms = [si * d for si, d in zip(s, basis_derivatives(pr, z))]
                scale = math.fsum(abs(t) for t in terms)
                assert abs(math.fsum(terms) - 1.0) <= 1e-13 * scale, (n, z)


class TestAdmissibleRegion:
    def test_n3_reference(self):
        region = admissible_region(problem(3))
        assert len(region.intervals) == 3
        for (lo, hi), (wlo, whi) in zip(region.intervals, REGION_N3):
            if math.isfinite(wlo):
                assert lo == pytest.approx(wlo, abs=2e-3)
            else:
                assert lo == -math.inf
            if math.isfinite(whi):
                assert hi == pytest.approx(whi, abs=2e-3)
            else:
                assert hi == math.inf

    def test_n4_reference(self):
        region = admissible_region(problem(4))
        flat = [e for iv in region.intervals for e in iv if math.isfinite(e)]
        want = [0.05071, 0.1696, 0.3175, 0.6432, 0.7123, 0.9332]
        assert flat == pytest.approx(want, abs=2e-3)
        for i, rs in enumerate(region.boundary_roots, start=1):
            assert list(rs) == pytest.approx(ROOTS_N4[i], abs=2e-3)

    def test_n1_whole_line(self):
        region = admissible_region(problem(1))
        assert region.intervals == ((-math.inf, math.inf),)
        assert 12345.6 in region

    def test_n2_positive_boundary_root(self):
        # The second basis derivative vanishes at (sqrt(2)-1)/2 > 0; the
        # first interval therefore reaches into positive territory.
        region = admissible_region(problem(2))
        (_, hi1), (lo2, _) = region.intervals
        assert hi1 == pytest.approx((SQRT2 - 1) / 2, abs=1e-12)
        assert lo2 == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_interlacing_chain(self, n):
        # Merged ascending roots must cycle through basis indices
        # n, n-1, ..., 1 within each block of n.
        region = admissible_region(problem(n))
        labeled = sorted((r, i) for i, rs in
                         enumerate(region.boundary_roots, start=1) for r in rs)
        assert all(a < b for (a, _), (b, _) in zip(labeled, labeled[1:]))
        for k in range(n - 1):
            block = labeled[k * n:(k + 1) * n]
            assert [i for _, i in block] == list(range(n, 0, -1))

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 10])
    @pytest.mark.parametrize("a", [0.5, 3.0])
    def test_scaling_equivariance(self, n, a):
        unit = problem(n, 1.0)
        scaled = problem(n, a)
        for su, ss in zip(support_points(unit), support_points(scaled)):
            assert ss == pytest.approx(a * su, rel=1e-12)
        ru, rs = admissible_region(unit), admissible_region(scaled)
        for (lu, uu), (ls, us) in zip(ru.intervals, rs.intervals):
            if math.isfinite(lu):
                assert ls == pytest.approx(a * lu, rel=1e-9)
            if math.isfinite(uu):
                assert us == pytest.approx(a * uu, rel=1e-9)
        for z in (-0.3, 0.17, 0.8, 2.4):
            for wu, ws in zip(weights_at(unit, z / a),
                              weights_at(scaled, z)):
                assert ws == pytest.approx(wu, abs=1e-10)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_sign_pattern_per_interval(self, n):
        region = admissible_region(problem(n))
        for j, (lo, hi) in enumerate(region.intervals, start=1):
            lo = hi - 1.0 if lo == -math.inf else lo
            hi = lo + 1.0 if hi == math.inf else hi
            z = 0.5 * (lo + hi)
            common = (-1.0) ** (n + j)
            for i, d in enumerate(basis_derivatives(problem(n), z), start=1):
                assert (-1.0) ** (n - i) * d * common > 0

    def test_locate_classification(self):
        region = admissible_region(problem(3))
        root = region.intervals[1][0]
        assert region.locate(root)[0] == "boundary"
        assert region.locate(root + 5e-11)[0] == "boundary"
        assert region.locate(0.4) == ("inside", 2)
        assert region.locate(0.2) == ("outside", None)

    @staticmethod
    def _unit_targets(n):
        # On the finite endpoints of the unit region, within and beyond
        # 1e-10 of them, and in between.
        unit = admissible_region(DesignProblem(n, 1.0))
        ends = [e for iv in unit.intervals for e in iv if math.isfinite(e)]
        us = [e + d for e in ends
              for d in (0.0, 5e-11, -5e-11, 2e-10, -2e-10, 1e-3, -1e-3)]
        return us + [-1.0, 0.0, 0.5, 1.0, 2.0]

    @pytest.mark.parametrize("n", [2, 4, 9, 21])
    @pytest.mark.parametrize("a", [1e-8, 1.0, 1e8])
    def test_locate_is_scale_free(self, n, a):
        # The boundary band is relative to a, so (n, a, z) and (n, 1, z / a)
        # are classified alike.
        unit = admissible_region(DesignProblem(n, 1.0))
        scaled = admissible_region(DesignProblem(n, a))
        for u in self._unit_targets(n):
            z = u * a
            got = scaled.locate(z)
            want = unit.locate(z / a)
            assert got[0] == want[0], (u, got, want)
            if got[0] == "boundary":
                assert got[1] / a == pytest.approx(want[1], rel=1e-12)
            else:
                assert got[1] == want[1]

    @pytest.mark.parametrize("n", [2, 4, 9, 21])
    @pytest.mark.parametrize("a", [1e-8, 1.0, 1e8])
    def test_membership_agrees_with_optimal_design(self, n, a):
        # u = 1 puts z = a on the grid: for n = 21, a = 1e-8 that is just
        # above the last interval's lower end, covered by optimal_design.
        pr = DesignProblem(n, a)
        region = admissible_region(pr)
        for u in self._unit_targets(n):
            z = u * a
            try:
                optimal_design(pr, z)
                covered = True
            except (NotCovered, BoundaryPoint):
                covered = False
            assert (z in region) == covered, (u, z)

    def test_collapsed_scaled_region_is_refused(self):
        # At a subnormal a the scaled endpoints a * r merge.
        with pytest.raises(DomainError, match="too small for n=30") as err:
            admissible_region(DesignProblem(30, 1e-321))
        assert err.value.input == "a"


def _eager_region(n, a):
    # Every root set of the problem solved up front, and the intervals built
    # from the first and the last, as the region was built before its root
    # table became lazy.
    s = _unit_state(n).s
    roots = [tuple(a * _rolle_root((0.0,) + s[:i] + s[i + 1:], k)
                   for k in range(n - 1)) for i in range(n)]
    intervals = tuple(
        (-math.inf if j == 1 else roots[0][j - 2],
         math.inf if j == n else roots[n - 1][j - 1])
        for j in range(1, n + 1))
    return intervals, tuple(roots)


class TestLazyRootSets:
    # The intervals need only the roots of L_1' and L_n'; the other n - 2
    # sets are solved when boundary_roots is first read.

    @pytest.mark.parametrize("n", range(1, 31))
    @pytest.mark.parametrize("a", [1e-8, 1.0, 1e8])
    def test_matches_eager_solve(self, n, a):
        intervals, roots = _eager_region(n, a)
        region = admissible_region(DesignProblem(n, a))
        assert region.intervals == intervals
        assert len(region.boundary_roots) == n
        for i in range(n):
            assert region.boundary_roots[i] == roots[i]

    @pytest.mark.parametrize("n", [12, 30])
    def test_design_path_solves_two_root_sets(self, n, monkeypatch):
        pr = DesignProblem(n, 1.0)
        z1, z2 = (0.5 * (lo + hi)
                  for lo, hi in admissible_region(pr).intervals[1:3])
        calls = []

        def counted(zeros, k):
            calls.append(k)
            return _rolle_root(zeros, k)

        monkeypatch.setattr(designs, "_rolle_root", counted)
        clear_caches()

        def solve(z):
            design = optimal_design(pr, z)
            assert certify(pr, z, design).verdict == "verified"
            weights_at(pr, z)

        solve(z1)
        assert len(calls) == 2 * (n - 1)
        solve(z2)
        assert len(calls) == 2 * (n - 1)
        roots = admissible_region(pr).boundary_roots
        assert len(calls) == n * (n - 1)
        assert admissible_region(pr).boundary_roots == roots
        assert len(calls) == n * (n - 1)


class TestOptimalDesign:
    def test_n1_always_all_mass_at_a(self):
        d = optimal_design(problem(1), 0.3)
        assert d.points == (1.0,)
        assert d.weights == (1.0,)
        d2 = optimal_design(DesignProblem(1, 2.0), 0.0)
        assert d2.points == (2.0,)

    def test_n3_covered(self):
        d = optimal_design(problem(3), 0.4)
        want = (3 * SQRT3 - 5, SQRT3 - 1, 1.0)
        for got, w in zip(d.points, want):
            assert got == pytest.approx(w, abs=1e-12)
        assert d.weights == weights_at(problem(3), 0.4)

    def test_n3_gap_not_covered(self):
        with pytest.raises(NotCovered) as err:
            optimal_design(problem(3), 0.2)
        assert isinstance(err.value.region, AdmissibleRegion)

    def test_boundary_reported(self):
        # A boundary point is one more target the region does not cover,
        # and carries the region as NotCovered does.
        region = admissible_region(problem(3))
        with pytest.raises(BoundaryPoint) as err:
            optimal_design(problem(3), region.intervals[1][0])
        assert isinstance(err.value, NotCovered)
        assert err.value.region == region
        assert err.value.endpoint == region.intervals[1][0]


class TestDomainErrors:
    """Each limit of (n, a, z) raises DomainError, a ValueError that names
    the input, from every layer that reaches it: no bare ZeroDivisionError
    or OverflowError."""

    @staticmethod
    def _raises(call, name):
        with pytest.raises(ValueError) as err:
            call()
        assert type(err.value) is DomainError, repr(err.value)
        assert err.value.input == name

    # A scale D_i * a of the basis derivatives is 0 whatever z is: at a
    # subnormal (or nearly subnormal) a the product with a underflows, and
    # from n = 543 the unit denominator D_i does, at any a.
    @pytest.mark.parametrize("n,a,name", [(9, 1e-320, "a"),
                                          (30, 2.3e-308, "a"),
                                          (543, 1.0, "n")])
    def test_scale_limit(self, n, a, name):
        pr = DesignProblem(n, a)
        on_support = Design(support_points(pr), [1.0 / n] * n)
        for call in (lambda: basis_derivatives(pr, a),
                     lambda: weights_at(pr, a),
                     lambda: optimal_design(pr, a),
                     lambda: certify(pr, a, on_support),
                     lambda: variance(pr, on_support, a)):
            self._raises(call, name)

    def test_target_limit(self):
        # At z = 1e300 the basis derivatives overflow to +/-inf, which
        # basis_derivatives and the variance on the support report as such
        # (inf is the variance's value beyond the float range); every layer
        # that needs the finite total h, or the slope vector, refuses z.
        from slopedesign import oracle
        pr, z = DesignProblem(4, 1.0), 1e300
        on_support = Design(support_points(pr), [0.25] * 4)
        derivs = basis_derivatives(pr, z)
        assert not any(map(math.isnan, derivs))
        assert not all(map(math.isfinite, derivs))
        assert variance(pr, on_support, z) == math.inf
        for call in (lambda: weights_at(pr, z),
                     lambda: optimal_design(pr, z),
                     lambda: certify(pr, z, on_support),
                     lambda: oracle.restricted_weights(pr, z),
                     lambda: oracle.compare(pr, z)):
            self._raises(call, "z")


class TestRealRoots:
    # The real roots of the basis derivatives L_i', each solved in the Rolle
    # gap between two consecutive zeros of L_i.

    def test_single_linear_root(self):
        # n = 2: L_1 has the zeros 0 and a, so L_1' is linear with root a / 2.
        roots = admissible_region(DesignProblem(2, 1.0)).boundary_roots[0]
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.5, abs=1e-12)

    def test_reference_quadratic_roots(self):
        # n = 3, a = 1: L_3' = 0.66745 - 8.6240 x + 13.933 x^2 to 5 digits.
        roots = admissible_region(DesignProblem(3, 1.0)).boundary_roots[2]
        assert len(roots) == 2
        assert roots[0] == pytest.approx(0.090, abs=2e-3)
        assert roots[1] == pytest.approx(0.528, abs=2e-3)

    def test_no_real_roots(self):
        # n = 1: L_1 = x / a is linear, so L_1' has no roots.
        assert admissible_region(DesignProblem(1, 1.0)).boundary_roots == ((),)

    def test_open_interval_excludes_outside(self):
        for n in range(2, 31):
            for a in (1e-8, 1.0, 1e8):
                for roots in admissible_region(
                        DesignProblem(n, a)).boundary_roots:
                    assert len(roots) == n - 1
                    assert 0.0 < roots[0]
                    assert roots[-1] < a
                    assert all(x < y for x, y in zip(roots, roots[1:]))

    def test_degree_cap(self):
        # Degree 25, above the cap of 20 that monomial root isolation had:
        # L_1' and L_n' change sign across each of their roots.
        problem = DesignProblem(25, 1.0)
        roots = admissible_region(problem).boundary_roots
        for i in (0, 24):
            assert len(roots[i]) == 24
            for r in roots[i]:
                below = basis_derivatives(problem, r * (1.0 - 1e-9))[i]
                above = basis_derivatives(problem, r * (1.0 + 1e-9))[i]
                assert below * above < 0.0

    def test_planted_roots_recovered(self):
        import random

        import mpmath
        rng = random.Random(20240817)
        for _ in range(200):
            deg = rng.randint(2, 11)
            zeros = sorted(rng.uniform(-2.0, 2.0) for _ in range(deg))
            # keep the planted zeros separated so each gap is meaningful
            zeros = tuple(r + 0.11 * i for i, r in enumerate(zeros))
            with mpmath.workdps(30):
                p = [mpmath.mpf(1)]
                for r in zeros:
                    p = [d - r * c for c, d in zip(p + [0], [0] + p)]
                dp = [k * c for k, c in enumerate(p)][1:]
                want = sorted(float(mpmath.re(x)) for x in
                              mpmath.polyroots(dp[::-1], maxsteps=200,
                                               extraprec=60))
            got = [_rolle_root(zeros, k) for k in range(deg - 1)]
            for k, (g, w) in enumerate(zip(got, want)):
                assert zeros[k] < g < zeros[k + 1]
                assert g == pytest.approx(w, abs=1e-10)

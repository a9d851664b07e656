import math

import numpy as np
import pytest

from slopedesign.designs import (AdmissibleRegion, BoundaryPoint, Design,
                                 DesignProblem, NotCovered, admissible_region,
                                 lagrange_basis, optimal_design,
                                 support_points, weight_functions, weights_at)

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


def problem(n, a=1.0):
    return DesignProblem(n, a)


class TestTypes:
    def test_problem_validation(self):
        with pytest.raises(ValueError):
            DesignProblem(0, 1.0)
        with pytest.raises(ValueError):
            DesignProblem(2, 0.0)
        with pytest.raises(ValueError):
            DesignProblem(2, math.inf)

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
    @pytest.mark.parametrize("n", range(1, 11))
    def test_interpolation_and_zero_intercept(self, n):
        pr = problem(n)
        basis = lagrange_basis(pr)
        s = support_points(pr)
        for i, b in enumerate(basis):
            assert b.coeffs[0] == 0.0
            assert b.degree == n
            for j, x in enumerate(s):
                assert b(x) == pytest.approx(
                    1.0 if i == j else 0.0, abs=1e-9)

    def test_n2_closed_form(self):
        b1 = lagrange_basis(problem(2))[0]
        scale = 1.0 / (4.0 - 3.0 * SQRT2)
        assert b1.coeffs[0] == 0.0
        assert b1.coeffs[1] == pytest.approx(-scale, abs=1e-12)
        assert b1.coeffs[2] == pytest.approx(scale, abs=1e-12)


class TestWeightFunctions:
    def test_n2_exact(self):
        w1, w2 = weight_functions(problem(2))
        assert w1.coeffs[0] == pytest.approx((4 + 3 * SQRT2) / 2, abs=1e-12)
        assert w1.coeffs[1] == pytest.approx(-(4 + 3 * SQRT2), abs=1e-12)
        assert w2.coeffs[0] == pytest.approx(-(2 + SQRT2) * (SQRT2 - 1) / 2,
                                             abs=1e-12)
        assert w2.coeffs[1] == pytest.approx(2 + SQRT2, abs=1e-12)

    def test_n3_reference_decimals(self):
        # The printed reference table carries only ~4 digits, so compare
        # relative at 5e-3 per coefficient.
        w2 = weight_functions(problem(3))[1]
        for got, want in zip(w2.coeffs, (-1.8680, 22.767, -28.548)):
            assert abs(got - want) <= 5e-3 * max(1.0, abs(want))

    def test_n4_reference_decimals(self):
        w4 = weight_functions(problem(4))[3]
        for got, want in zip(w4.coeffs, (-0.65327, 15.858, -61.552, 56.968)):
            assert abs(got - want) <= 5e-3 * max(1.0, abs(want))

    def test_n1_constant(self):
        w = weight_functions(problem(1, 2.0))
        assert len(w) == 1
        assert w[0].coeffs == (0.5,)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_exactly_n_minus_1_roots(self, n):
        region = admissible_region(problem(n))
        for rs in region.boundary_roots:
            assert len(rs) == n - 1


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
        wfs = weight_functions(problem(n))
        for j, (lo, hi) in enumerate(region.intervals, start=1):
            lo = hi - 1.0 if lo == -math.inf else lo
            hi = lo + 1.0 if hi == math.inf else hi
            z = 0.5 * (lo + hi)
            common = (-1.0) ** (n + j)
            for i, w in enumerate(wfs, start=1):
                assert (-1.0) ** (n - i) * w(z) * common > 0

    def test_locate_classification(self):
        region = admissible_region(problem(3))
        root = region.intervals[1][0]
        assert region.locate(root)[0] == "boundary"
        assert region.locate(root + 5e-11)[0] == "boundary"
        assert region.locate(0.4) == ("inside", 2)
        assert region.locate(0.2) == ("outside", None)

    @pytest.mark.parametrize("n", [2, 4, 9, 21])
    @pytest.mark.parametrize("a", [1e-8, 1.0, 1e8])
    def test_locate_is_scale_free(self, n, a):
        # With the tolerance taken relative to a, as optimal_design and
        # certify pass it, (n, a, z) and (n, 1, z / a) are classified alike:
        # on the endpoints, within and beyond 1e-10 of them, and in between.
        unit = admissible_region(DesignProblem(n, 1.0))
        scaled = admissible_region(DesignProblem(n, a))
        ends = [e for iv in unit.intervals for e in iv if math.isfinite(e)]
        us = [e + d for e in ends
              for d in (0.0, 5e-11, -5e-11, 2e-10, -2e-10, 1e-3, -1e-3)]
        us += [-1.0, 0.0, 0.5, 2.0]
        for u in us:
            z = u * a
            got = scaled.locate(z, 1e-10 * a)
            want = unit.locate(z / a, 1e-10)
            assert got[0] == want[0], (u, got, want)
            if got[0] == "boundary":
                assert got[1] / a == pytest.approx(want[1], rel=1e-12)
            else:
                assert got[1] == want[1]


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
        region = admissible_region(problem(3))
        with pytest.raises(BoundaryPoint):
            optimal_design(problem(3), region.intervals[1][0])

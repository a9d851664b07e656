import math

import numpy as np
import pytest

from slopedesign import oracle
from slopedesign.designs import (DesignProblem, admissible_region,
                                 support_points, weight_functions, weights_at)
from slopedesign.elfving import slope_vector
from slopedesign.oracle import (GridSpec, Infeasible, NumericalFailure,
                                OracleReport, SingularSupport, compare,
                                lp_c_optimal, restricted_weights,
                                simplex_minimize)

SQRT2 = math.sqrt(2)
SQRT3 = math.sqrt(3)


class TestSimplex:
    def test_tiny_known_lp(self):
        # min x1 + x2 s.t. x1 - x2 = 1  ->  x = (1, 0)
        x, val = simplex_minimize([1.0, 1.0], [[1.0, -1.0]], [1.0])
        assert val == pytest.approx(1.0, abs=1e-12)
        assert x == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_infeasible(self):
        # x1 + x2 = -1 has no nonnegative solution
        with pytest.raises(Infeasible):
            simplex_minimize([1.0, 1.0], [[1.0, 1.0]], [-1.0])

    def test_planted_optima_recovered(self):
        # Plant a basic feasible solution and costs that make it optimal:
        # c_B = A_B^T y, c_N = A_N^T y + positive slack  ->  reduced costs
        # vanish on the basis and stay positive off it.
        rng = np.random.default_rng(2718)
        for _ in range(25):
            m = int(rng.integers(1, 5))
            k = int(rng.integers(m + 1, m + 9))
            a = rng.normal(size=(m, k))
            basis = rng.choice(k, size=m, replace=False)
            while abs(np.linalg.det(a[:, basis])) < 1e-3:
                a = rng.normal(size=(m, k))
                basis = rng.choice(k, size=m, replace=False)
            x_opt = np.zeros(k)
            x_opt[basis] = rng.uniform(0.5, 2.0, size=m)
            b = a @ x_opt
            y = rng.normal(size=m)
            cost = a.T @ y
            mask = np.ones(k, dtype=bool)
            mask[basis] = False
            cost[mask] += rng.uniform(0.1, 1.0, size=k - m)
            x, val = simplex_minimize(cost, a, b)
            assert val == pytest.approx(float(cost @ x_opt), rel=1e-9, abs=1e-9)
            assert np.allclose(x, x_opt, atol=1e-8)

    def test_iteration_cap_raises(self):
        with pytest.raises(NumericalFailure):
            simplex_minimize([1.0, 1.0], [[1.0, -1.0]], [1.0], max_iter=0)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1)

    def test_points_span_and_nest(self):
        pr = DesignProblem(2, 3.0)
        g1 = GridSpec(101).points(pr)
        g2 = GridSpec(201).points(pr)
        assert g1[0] == 0.0 and g1[-1] == 3.0
        assert set(g1).issubset(set(g2))


class TestLpCOptimal:
    def test_n1_trivial(self):
        h, d = lp_c_optimal(DesignProblem(1, 1.0), [1.0])
        assert h == pytest.approx(1.0, abs=1e-10)
        assert d.points == (1.0,)
        assert d.weights == (1.0,)

    def test_n3_z1_matches_closed_form(self):
        pr = DesignProblem(3, 1.0)
        h, d = lp_c_optimal(pr, slope_vector(3, 1.0))
        total = math.fsum(abs(w(1.0)) for w in weight_functions(pr))
        assert h == pytest.approx(total, rel=1e-2)
        spacing = 1.0 / 2000
        want = (3 * SQRT3 - 5, SQRT3 - 1, 1.0)
        assert len(d.points) == 3
        for got, s in zip(d.points, want):
            assert abs(got - s) <= spacing

    def test_n2_typo_arbiter_small_positive_z(self):
        # z = 0.1 lies below (sqrt(2)-1)/2, so the closed-form support must
        # be optimal there; a negative boundary root would say otherwise.
        pr = DesignProblem(2, 1.0)
        h, d = lp_c_optimal(pr, slope_vector(2, 0.1))
        assert d.points == pytest.approx([SQRT2 - 1, 1.0], abs=1e-9)

    def test_rejects_zero_c(self):
        with pytest.raises(ValueError):
            lp_c_optimal(DesignProblem(2, 1.0), [0.0, 0.0])

    def test_support_size_at_most_n(self):
        for n, z in [(2, 0.9), (3, 0.4), (4, 0.25), (5, -0.4)]:
            pr = DesignProblem(n, 1.0)
            _, d = lp_c_optimal(pr, slope_vector(n, z), GridSpec(501))
            assert len(d.points) <= n

    def test_lower_bounds_restricted(self):
        # The grid contains the closed-form support exactly, so the LP can
        # never be beaten by the restricted-support optimum.
        for n, z in [(2, 0.9), (3, 0.35), (4, 0.69), (3, 0.2), (4, 0.1)]:
            pr = DesignProblem(n, 1.0)
            c = slope_vector(n, z)
            h, _ = lp_c_optimal(pr, c, GridSpec(401))
            rvar, _ = restricted_weights(support_points(pr), c)
            assert h * h <= rvar + 1e-9

    def test_grid_refinement_monotone(self):
        pr = DesignProblem(3, 1.0)
        c = slope_vector(3, 0.2)
        for m in (201, 401, 801):
            coarse, _ = lp_c_optimal(pr, c, GridSpec(m))
            fine, _ = lp_c_optimal(pr, c, GridSpec(2 * m - 1))
            assert fine ** 2 <= coarse ** 2 + 1e-12


class TestRestrictedWeights:
    def test_n1(self):
        var, w = restricted_weights((2.0,), [1.0])
        assert w == (1.0,)
        assert var == pytest.approx(0.25, abs=1e-14)

    def test_beta_identity_n2(self):
        import random
        pr = DesignProblem(2, 1.0)
        sup = support_points(pr)
        wfs = weight_functions(pr)
        big_f = np.vander(np.asarray(sup), 3, increasing=True)[:, 1:].T
        rng = random.Random(11)
        for _ in range(20):
            z = rng.uniform(-1.0, 2.0)
            beta = np.linalg.solve(big_f, slope_vector(2, z))
            for bi, w in zip(beta, wfs):
                assert bi == pytest.approx(w(z), abs=1e-10)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_beta_identity_sweep(self, n):
        import random
        pr = DesignProblem(n, 1.0)
        sup = np.asarray(support_points(pr))
        wfs = weight_functions(pr)
        big_f = np.vander(sup, n + 1, increasing=True)[:, 1:].T
        rng = random.Random(100 + n)
        for _ in range(20):
            z = rng.uniform(-1.0, 2.0)
            beta = np.linalg.solve(big_f, slope_vector(n, z))
            for bi, w in zip(beta, wfs):
                assert bi == pytest.approx(w(z), rel=1e-9, abs=1e-9)

    def test_matches_closed_form_weights_inside_region(self):
        pr = DesignProblem(4, 1.0)
        var, w = restricted_weights(support_points(pr), slope_vector(4, 0.25))
        for got, want in zip(w, weights_at(pr, 0.25)):
            assert got == pytest.approx(want, abs=1e-10)

    def test_singular_support_zero_point(self):
        with pytest.raises(SingularSupport):
            restricted_weights((0.0, 1.0), [1.0, 2.0])

    def test_singular_support_coincident(self):
        with pytest.raises(SingularSupport):
            restricted_weights((0.5, 0.5 + 1e-13), [1.0, 2.0])

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            restricted_weights((0.5, 1.0), [1.0, 2.0, 3.0])


class TestCompare:
    def test_inside_region_agrees(self):
        rep = compare(DesignProblem(3, 1.0), 0.4)
        assert isinstance(rep, OracleReport)
        assert rep.covered and rep.agrees
        assert rep.max_weight_discrepancy < 1e-6
        assert abs(rep.lp_variance - rep.closed_form_variance) \
            <= 1e-2 * rep.closed_form_variance
        assert abs(rep.restricted_variance - rep.closed_form_variance) \
            <= 1e-9 * rep.closed_form_variance

    def test_outside_region_gap(self):
        rep = compare(DesignProblem(3, 1.0), 0.2)
        assert not rep.covered
        assert rep.closed_form_variance is None
        assert rep.max_weight_discrepancy is None
        assert rep.lp_variance < rep.restricted_variance - rep.margin_threshold

    def test_n1_everything_is_one(self):
        rep = compare(DesignProblem(1, 1.0), 5.0)
        assert rep.covered and rep.agrees
        assert rep.closed_form_variance == pytest.approx(1.0, rel=1e-12)
        assert rep.lp_variance == pytest.approx(1.0, rel=1e-9)
        assert rep.restricted_variance == pytest.approx(1.0, rel=1e-12)

    def test_restricted_never_below_lp(self):
        for z in (-0.5, 0.05, 0.2, 0.4, 0.7, 1.5):
            rep = compare(DesignProblem(3, 1.0), z, GridSpec(401))
            assert rep.restricted_variance >= rep.lp_variance - 1e-9

    @pytest.mark.parametrize("a", [1e-8, 1e6, 1e8])
    def test_agrees_far_from_unit_scale(self, a):
        # The LP and the restricted route work on [0, 1]; in powers of x
        # the restricted weights were off by 3e-4 at n = 8, a = 1e6.
        problem = DesignProblem(8, a)
        for z in _targets(problem):
            rep = compare(problem, z)
            assert rep.agrees or not rep.covered

    def test_as_dict_parallel_arrays(self):
        doc = compare(DesignProblem(2, 1.0), 0.9, GridSpec(201)).as_dict()
        assert set(doc["lp_design"]) == {"points", "weights"}
        assert len(doc["lp_design"]["points"]) == len(doc["lp_design"]["weights"])


def _targets(problem):
    """One target inside each admissible interval and one in each gap,
    ascending."""
    a = problem.a
    intervals = admissible_region(problem).intervals
    zs = []
    for lo, hi in intervals:
        if math.isinf(lo):
            lo = (hi if math.isfinite(hi) else a) - a
        if math.isinf(hi):
            hi = lo + a
        zs.append(0.5 * (lo + hi))
    for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
        if lo > hi:
            zs.append(0.5 * (hi + lo))
    return sorted(zs)


class TestWarmStart:
    """A later target of the same problem and grid restarts from the last
    optimal basis; its result depends only on the basis it ends on."""

    @pytest.mark.parametrize("a", [0.1, 1.0, 2.0])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_warm_matches_cold(self, n, a):
        problem, grid = DesignProblem(n, a), GridSpec()
        zs = _targets(problem)
        oracle._grid_lp.cache_clear()
        warm = []
        for z in zs:
            h, d = lp_c_optimal(problem, slope_vector(n, z), grid)
            warm.append((h, d, sorted(oracle._grid_lp(problem, grid).basis)))
        for z, (h, d, basis) in zip(zs, warm):
            oracle._grid_lp.cache_clear()
            h_cold, d_cold = lp_c_optimal(problem, slope_vector(n, z), grid)
            if sorted(oracle._grid_lp(problem, grid).basis) == basis:
                assert (h, d) == (h_cold, d_cold)
            else:
                assert h ** 2 == pytest.approx(h_cold ** 2, rel=1e-9)

    @pytest.mark.parametrize("z1,z2", [(0.95, 0.5), (0.5, 0.95), (0.1, 0.5)])
    def test_previous_target_leaves_no_trace(self, z1, z2):
        problem = DesignProblem(4, 1.0)
        oracle._grid_lp.cache_clear()
        alone = compare(problem, z2)
        oracle._grid_lp.cache_clear()
        compare(problem, z1)
        assert compare(problem, z2) == alone

    def test_one_cached_problem_whose_first_call_runs_cold(self, monkeypatch):
        cold = []
        real = oracle._two_phase

        def counted(*args):
            cold.append(args)
            return real(*args)

        monkeypatch.setattr(oracle, "_two_phase", counted)
        oracle._grid_lp.cache_clear()
        p, q = DesignProblem(3, 1.0), DesignProblem(3, 2.0)
        steps = [(p, 401, 1), (p, 401, 1), (p, 201, 2), (p, 201, 2),
                 (q, 201, 3), (q, 201, 3), (p, 401, 4)]
        for k, (problem, m, cold_runs) in enumerate(steps):
            compare(problem, (0.4 if k % 2 else 0.9) * problem.a, GridSpec(m))
            assert len(cold) == cold_runs
            assert oracle._grid_lp.cache_info().currsize == 1

    @pytest.mark.parametrize("a", [1e-100, 1e100])
    def test_scale_equivariant(self, a):
        c1 = slope_vector(3, 0.5)
        h1, _ = lp_c_optimal(DesignProblem(3, 1.0), c1)
        var1, _ = restricted_weights(support_points(DesignProblem(3, 1.0)), c1)
        problem = DesignProblem(3, a)
        c = slope_vector(3, a / 2)
        h, _ = lp_c_optimal(problem, c)
        var, _ = restricted_weights(support_points(problem), c)
        assert h * a == pytest.approx(h1, rel=1e-12)
        assert var * a * a == pytest.approx(var1, rel=1e-12)

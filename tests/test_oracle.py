import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from slopedesign import basis, designs, elfving, oracle
from slopedesign.designs import (Design, DesignProblem, _unit_state,
                                 admissible_region, basis_derivatives,
                                 optimal_design, support_points, weights_at)
from slopedesign.elfving import certify, variance
from slopedesign.oracle import (GridSpec, NumericalFailure, OracleReport,
                                compare, lp_c_optimal, restricted_weights)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import reference as R  # noqa: E402

from helpers import clear_caches  # noqa: E402
from lp_reference import Infeasible, simplex_minimize  # noqa: E402

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

    @pytest.mark.parametrize("m", [20.5, 2001.0, True, "201"])
    def test_rejects_a_size_that_is_not_an_integer(self, m):
        # GridSpec(20.5) used to span [0, 1.0256 a], so the LP could place
        # a design point outside [0, a].
        with pytest.raises(ValueError):
            GridSpec(m)

    def test_accepts_numpy_integer(self):
        grid = GridSpec(np.int64(201))
        assert type(grid.m) is int
        assert grid == GridSpec(201)

    def test_points_span_and_nest(self):
        pr = DesignProblem(2, 3.0)
        g1 = GridSpec(101).points(pr)
        g2 = GridSpec(201).points(pr)
        assert g1[0] == 0.0 and g1[-1] == 3.0
        assert set(g1).issubset(set(g2))


class TestLpCOptimal:
    def test_n1_trivial(self):
        h, d = lp_c_optimal(DesignProblem(1, 1.0), 0.3)
        assert h == pytest.approx(1.0, abs=1e-10)
        assert d.points == (1.0,)
        assert d.weights == (1.0,)

    def test_n3_z1_matches_closed_form(self):
        pr = DesignProblem(3, 1.0)
        h, d = lp_c_optimal(pr, 1.0)
        ref = R.problem(3, 1.0)
        total = float(R.mp.fsum(abs(v) for v in ref.derivs(1.0)))
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
        h, d = lp_c_optimal(pr, 0.1)
        assert d.points == pytest.approx([SQRT2 - 1, 1.0], abs=1e-9)

    def test_support_size_at_most_n(self):
        for n, z in [(2, 0.9), (3, 0.4), (4, 0.25), (5, -0.4)]:
            pr = DesignProblem(n, 1.0)
            _, d = lp_c_optimal(pr, z, GridSpec(501))
            assert len(d.points) <= n

    def test_lower_bounds_restricted(self):
        # The grid contains the closed-form support exactly, so the LP can
        # never be beaten by the restricted-support optimum.
        for n, z in [(2, 0.9), (3, 0.35), (4, 0.69), (3, 0.2), (4, 0.1)]:
            pr = DesignProblem(n, 1.0)
            h, _ = lp_c_optimal(pr, z, GridSpec(401))
            rvar, _ = restricted_weights(pr, z)
            assert h * h <= rvar + 1e-9

    def test_grid_needs_n_plus_one_points(self):
        with pytest.raises(ValueError, match="at least n\\+1 points"):
            lp_c_optimal(DesignProblem(4, 1.0), 0.5, GridSpec(4))

    def test_grid_refinement_monotone(self):
        pr = DesignProblem(3, 1.0)
        for m in (201, 401, 801):
            coarse, _ = lp_c_optimal(pr, 0.2, GridSpec(m))
            fine, _ = lp_c_optimal(pr, 0.2, GridSpec(2 * m - 1))
            assert fine ** 2 <= coarse ** 2 + 1e-12


class TestRestrictedWeights:
    def test_n1(self):
        var, w = restricted_weights(DesignProblem(1, 2.0), 0.7)
        assert w == (1.0,)
        assert var == pytest.approx(0.25, abs=1e-14)

    def test_beta_identity_n2(self):
        import random
        pr = DesignProblem(2, 1.0)
        sup = support_points(pr)
        big_f = np.vander(np.asarray(sup), 3, increasing=True)[:, 1:].T
        rng = random.Random(11)
        for _ in range(20):
            z = rng.uniform(-1.0, 2.0)
            beta = np.linalg.solve(big_f, [1.0, 2.0 * z])
            for bi, d in zip(beta, basis_derivatives(pr, z)):
                assert bi == pytest.approx(d, abs=1e-10)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_beta_identity_sweep(self, n):
        import random
        pr = DesignProblem(n, 1.0)
        sup = np.asarray(support_points(pr))
        big_f = np.vander(sup, n + 1, increasing=True)[:, 1:].T
        rng = random.Random(100 + n)
        for _ in range(20):
            z = rng.uniform(-1.0, 2.0)
            c = [k * z ** (k - 1) for k in range(1, n + 1)]
            beta = np.linalg.solve(big_f, c)
            for bi, d in zip(beta, basis_derivatives(pr, z)):
                assert bi == pytest.approx(d, rel=1e-9, abs=1e-9)

    def test_matches_closed_form_weights_inside_region(self):
        pr = DesignProblem(4, 1.0)
        var, w = restricted_weights(pr, 0.25)
        for got, want in zip(w, weights_at(pr, 0.25)):
            assert got == pytest.approx(want, abs=1e-10)


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

    @pytest.mark.parametrize("n", [1, 4, 30])
    def test_margin_threshold_scales_with_the_variance(self, n):
        # margin_threshold / lp_variance does not depend on a: at n = 4 and
        # the first-gap midpoint an absolute floor of 1e-6 read 1.2e-5 times
        # the LP variance at a = 1 but 4.8e8 times it at a = 1e8.
        ratios = {}
        for a in (1e-8, 1.0, 1e8):
            problem = DesignProblem(n, a)
            iv = admissible_region(problem).intervals
            zs = [a] + ([0.5 * (iv[0][1] + iv[1][0])] if n > 1 else [])
            for k, z in enumerate(zs):
                rep = compare(problem, z)
                ratios.setdefault(k, []).append(
                    rep.margin_threshold / rep.lp_variance)
        for k, (small, unit, large) in ratios.items():
            assert small == pytest.approx(unit, rel=1e-12), (k, small, unit)
            assert large == pytest.approx(unit, rel=1e-12), (k, large, unit)

    @pytest.mark.parametrize("a", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("n", [1, 4, 12, 30])
    def test_lp_point_one_ulp_off_the_support_is_stray(self, n, a,
                                                       monkeypatch):
        # The grid holds the closed-form support exactly, so an LP point one
        # ulp below its support point matches no closed-form point: its
        # whole weight is a discrepancy, where half a grid spacing once
        # absorbed the move.
        problem = DesignProblem(n, a)
        h, design = lp_c_optimal(problem, a)
        k = design.weights.index(max(design.weights))
        points = list(design.points)
        points[k] = math.nextafter(points[k], -math.inf)
        moved = Design(points, design.weights)
        monkeypatch.setattr(oracle, "lp_c_optimal", lambda *args: (h, moved))
        report = compare(problem, a)
        assert report.covered
        assert report.max_weight_discrepancy >= design.weights[k]

    @pytest.mark.parametrize("a", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("n", [2, 7, 12, 30])
    def test_mutated_closed_form_weight_disagrees(self, n, a, monkeypatch):
        # One closed-form weight scaled by 1 + 1e-3 and renormalised: the
        # variance of the closed-form design leaves the restricted route's
        # optimum by far more than 1e-9, so the cross-check must fail.
        problem = DesignProblem(n, a)
        clear_caches()
        assert compare(problem, a).agrees is True
        exact = designs.weights_at

        def mutated(problem, z):
            w = list(exact(problem, z))
            w[n // 2] *= 1 + 1e-3
            total = math.fsum(w)
            return tuple(v / total for v in w)

        monkeypatch.setattr(designs, "weights_at", mutated)
        assert compare(problem, a).agrees is False

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


def _signed(lp):
    """The basis of a grid LP as (grid point, sign) pairs, ascending."""
    return list(zip(lp.factor[0].tolist(), lp.signs.tolist()))


class TestWarmStart:
    """Every target of the same problem and grid restarts from a basis: the
    first from the closed-form support, a later one from the last optimal
    basis.  The result depends only on the basis the solve ends on."""

    @pytest.mark.parametrize("a", [0.1, 1.0, 2.0])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_warm_matches_cold(self, n, a):
        problem, grid = DesignProblem(n, a), GridSpec()
        zs = _targets(problem)
        clear_caches()
        warm = []
        for z in zs:
            h, d = lp_c_optimal(problem, z, grid)
            warm.append((h, d, _signed(oracle._grid_lp(problem, grid))))
        for z, (h, d, basis) in zip(zs, warm):
            clear_caches()
            h_cold, d_cold = lp_c_optimal(problem, z, grid)
            if _signed(oracle._grid_lp(problem, grid)) == basis:
                assert (h, d) == (h_cold, d_cold)
            else:
                assert h ** 2 == pytest.approx(h_cold ** 2, rel=1e-9)

    @pytest.mark.parametrize("z1,z2", [(0.95, 0.5), (0.5, 0.95), (0.1, 0.5)])
    def test_previous_target_leaves_no_trace(self, z1, z2):
        problem = DesignProblem(4, 1.0)
        clear_caches()
        alone = compare(problem, z2)
        clear_caches()
        compare(problem, z1)
        assert compare(problem, z2) == alone

    def test_one_cached_problem(self):
        clear_caches()
        p, q = DesignProblem(3, 1.0), DesignProblem(3, 2.0)
        steps = [(p, 401, 1), (p, 401, 1), (p, 201, 2), (p, 201, 2),
                 (q, 201, 3), (q, 201, 3), (p, 401, 4)]
        for k, (problem, m, built) in enumerate(steps):
            z = (0.4 if k % 2 else 0.9) * problem.a
            compare(problem, z, GridSpec(m))
            lp_c_optimal(problem, z, GridSpec(m))
            assert oracle._grid_lp.cache_info().misses == built
            assert oracle._grid_lp.cache_info().currsize == 1

    @pytest.mark.parametrize("a", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("n", [2, 7, 12, 30])
    def test_feasible_optimal_basis_is_not_priced(self, n, a, monkeypatch):
        # z = a, a second target of the last interval, the middle of
        # interval n - 1, where every weight of the closed form changes
        # sign so that the mirror of the last basis is optimal, the first
        # gap, and z = a again.  Only the gap target needs pricing; every
        # report is the one a cold call gives.
        problem, grid = DesignProblem(n, a), GridSpec()
        intervals = admissible_region(problem).intervals
        lo, hi = intervals[-2]
        if math.isinf(lo):
            lo = hi - a
        zs = [a, 0.5 * (intervals[-1][0] + a), 0.5 * (lo + hi),
              0.5 * (intervals[0][1] + intervals[1][0]), a]
        assert zs[3] not in admissible_region(problem)
        cold = []
        for z in zs:
            clear_caches()
            cold.append(json.dumps(compare(problem, z, grid).as_dict()))
        restart = oracle._GridLP._restart
        calls = []

        def counted(self, x, rhs):
            calls[-1] += 1
            return restart(self, x, rhs)

        monkeypatch.setattr(oracle._GridLP, "_restart", counted)
        clear_caches()
        for z, want in zip(zs, cold):
            calls.append(0)
            assert json.dumps(compare(problem, z, grid).as_dict()) == want
        assert calls[1:3] == [0, 0] and calls[3] >= 1, calls

    @staticmethod
    def _count_lapack(monkeypatch):
        calls = []
        for name in ("solve", "inv", "lstsq"):
            def counted(*args, _real=getattr(np.linalg, name), _name=name,
                        **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    @pytest.mark.parametrize("a", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("n", [2, 7, 12, 30])
    def test_warm_covered_target_makes_no_solve(self, n, a, monkeypatch):
        # Once the closed-form basis and its mirror have each been taken,
        # and the unit state built, a covered target on either is a product
        # with a kept inverse in every route: no LAPACK solve, inverse or
        # least-squares call.
        problem, grid = DesignProblem(n, a), GridSpec()
        intervals = admissible_region(problem).intervals
        lo, hi = intervals[-2]
        if math.isinf(lo):
            lo = hi - a
        last = intervals[-1][0]
        clear_caches()
        for z in (a, 0.5 * (lo + hi), a):
            compare(problem, z, grid)
        lp = oracle._grid_lp(problem, grid)
        calls = self._count_lapack(monkeypatch)
        start = _signed(lp)
        report = compare(problem, 0.5 * (last + a), grid)
        assert report.covered and _signed(lp) == start
        report = compare(problem, lo + 0.25 * (hi - lo), grid)
        assert report.covered
        assert _signed(lp) == [(j, -sign) for j, sign in start]
        assert compare(problem, a, grid).covered and _signed(lp) == start
        assert calls == []

    @pytest.mark.parametrize("n", [2, 7, 12, 30])
    def test_global_sign_flip_keeps_the_factor(self, n):
        # Interval n - 1 takes the points of the last interval with every
        # sign flipped.  The flip rewrites the signs alone: B and B^-1 stay
        # the very arrays the last solve kept.
        problem, grid = DesignProblem(n, 1.0), GridSpec()
        lo, hi = admissible_region(problem).intervals[-2]
        if math.isinf(lo):
            lo = hi - 1.0
        clear_caches()
        lp_c_optimal(problem, 1.0, grid)
        lp = oracle._grid_lp(problem, grid)
        start, (_, matrix, inverse) = _signed(lp), lp.factor
        lp_c_optimal(problem, 0.5 * (lo + hi), grid)
        assert _signed(lp) == [(j, -sign) for j, sign in start]
        assert lp.factor[1] is matrix and lp.factor[2] is inverse

    @pytest.mark.parametrize("a", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("n", [1, 2, 7, 12, 30])
    def test_cold_covered_target_inverts_once(self, n, a, monkeypatch):
        # One inverse, of the closed-form support's matrix: the LP starts
        # from it, its sign swap and pricing read it, and the restricted
        # route takes beta from it; nothing is solved.
        problem = DesignProblem(n, a)
        clear_caches()
        calls = self._count_lapack(monkeypatch)
        assert compare(problem, a).covered
        assert calls == ["inv"]

    @pytest.mark.parametrize("a", [1e-8, 1.0, 1e8])
    @pytest.mark.parametrize("n", [2, 7, 12, 30])
    def test_gap_target_after_covered_target_makes_no_solve(self, n, a,
                                                            monkeypatch):
        # The restart prices from the kept inverse and inverts only the
        # basis its pivots end on.
        problem = DesignProblem(n, a)
        iv = admissible_region(problem).intervals
        gap = 0.5 * (iv[0][1] + iv[1][0])
        clear_caches()
        compare(problem, a)
        calls = self._count_lapack(monkeypatch)
        assert not compare(problem, gap).covered
        assert "solve" not in calls and "inv" in calls

    @pytest.mark.parametrize("a", [1e-100, 1e100])
    def test_scale_equivariant(self, a):
        unit = DesignProblem(3, 1.0)
        h1, _ = lp_c_optimal(unit, 0.5)
        var1, _ = restricted_weights(unit, 0.5)
        problem = DesignProblem(3, a)
        h, _ = lp_c_optimal(problem, a / 2)
        var, _ = restricted_weights(problem, a / 2)
        assert h * a == pytest.approx(h1, rel=1e-12)
        assert var * a * a == pytest.approx(var1, rel=1e-12)


class TestSupportCaches:
    """optimal_design, certify, restricted_weights and variance read the
    closed-form support's rows from the unit state of the degree, built
    once per n; what it holds never shows in an output."""

    @pytest.mark.parametrize("a", [0.1, 1.0, 2.0])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_warm_compare_matches_cold(self, n, a):
        # Each cold call starts from empty caches; the warm pass keeps the
        # unit state and the LP of the targets before it.
        problem, grid = DesignProblem(n, a), GridSpec()
        zs = _targets(problem)
        cold = []
        for z in zs:
            clear_caches()
            cold.append(compare(problem, z, grid).as_dict())
        clear_caches()
        warm = [compare(problem, z, grid).as_dict() for z in zs]
        assert json.dumps(warm) == json.dumps(cold)

    @pytest.mark.parametrize("a", [0.1, 1.0, 2.0])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_warm_design_and_certificate_match_cold(self, n, a):
        problem = DesignProblem(n, a)
        region = admissible_region(problem)
        zs = [z for z in _targets(problem)
              if n == 1 or region.locate(z)[0] == "inside"]

        def outputs():
            design = optimal_design(problem, z)
            cert = certify(problem, z, design)
            return json.dumps([design.points, design.weights,
                               cert.as_dict()])

        for z in zs:
            clear_caches()
            cold = outputs()
            assert outputs() == cold

    def test_state_misses_once_per_degree(self):
        clear_caches()
        for n in range(1, 13):
            for a in (1e-8, 1.0, 1e8):
                problem = DesignProblem(n, a)
                for z in _targets(problem):
                    report = compare(problem, z, GridSpec(201))
                    if report.covered:
                        certify(problem, z, optimal_design(problem, z))
            info = _unit_state.cache_info()
            assert (info.misses, info.currsize) == (n, n)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_variance_off_the_support(self, n):
        # Designs of 2n points and of n - 1 points, against variance written
        # out here with numpy's lstsq, cold and warm.  variance takes a
        # Householder QR in pure Python instead; it differs from this
        # formula by at most 6.5e-15 relative on these inputs.
        problem = DesignProblem(n, 1.7)
        rng = np.random.default_rng(n)
        for size in (2 * n, n - 1):
            if size == 0:
                continue
            w = rng.uniform(0.1, 1.0, size)
            design = Design(np.sort(rng.uniform(0.05, 1.7, size)), w / w.sum())
            for z in (-0.3, 0.4, 1.7, 2.5):
                c, factor = elfving._unit_slope(problem, z)
                u = np.asarray(design.points) / problem.a
                bt = (np.array(basis.values(n, u))
                      * np.sqrt(design.weights))
                y, *_ = np.linalg.lstsq(bt, c, rcond=None)
                want = math.inf
                if np.linalg.norm(bt @ y - c) <= 1e-8 * np.linalg.norm(c):
                    want = (float(np.linalg.norm(y)) * factor) ** 2
                assert math.isinf(want) == (size < n)
                clear_caches()
                cold = variance(problem, design, z)
                assert variance(problem, design, z) == cold  # warm
                assert cold == pytest.approx(want, rel=1e-13)


def _two_phase_reference(lp, problem, z):
    """h from the two-phase simplex of the test reference, run from the
    artificial basis on [G, -G] of ``lp`` and summed with math.fsum as
    lp_c_optimal sums, and the sorted columns of its positive solution:
    j for +g(u_j) and m + j for -g(u_j) on a grid of m points."""
    rhs, factor = oracle._unit_slope(problem, z)
    matrix = np.hstack([lp.G, -lp.G])
    x, _ = simplex_minimize(np.ones(matrix.shape[1]), matrix, rhs)
    return math.fsum(x.tolist()) * factor, np.flatnonzero(x).tolist()


class TestCrashStart:
    """No grid LP runs phase 1, and where it starts cannot change where it
    ends: pricing over every column certifies the optimum."""

    SCALES = (1e-8, 1.0, 1e8)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_matches_two_phase_reference(self, n):
        grid = GridSpec(201)
        for a in self.SCALES:
            problem = DesignProblem(n, a)
            clear_caches()
            for z in _targets(problem):
                h, _ = lp_c_optimal(problem, z, grid)
                lp = oracle._grid_lp(problem, grid)
                h_ref, columns = _two_phase_reference(lp, problem, z)
                m = lp.points.size
                if sorted(j + m * (sign < 0)
                          for j, sign in _signed(lp)) == columns:
                    assert h == h_ref, (n, a, z)
                else:
                    assert h ** 2 == pytest.approx(h_ref ** 2, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 12, 30])
    def test_wrong_start_ends_at_same_optimum(self, n):
        grid = GridSpec(201)
        for a in self.SCALES:
            problem = DesignProblem(n, a)
            for z in _targets(problem):
                clear_caches()
                h, _ = lp_c_optimal(problem, z, grid)
                lp = oracle._grid_lp(problem, grid)
                best = _signed(lp)
                # n nonzero grid points off the support, spread over the
                # grid, every second one with the sign -1.
                support = np.searchsorted(lp.points, support_points(problem))
                off = np.setdiff1d(np.arange(1, lp.points.size), support)
                start = off[np.linspace(0, off.size - 1, n).astype(int)]
                lp.factor = oracle._factor(start, lp.G)
                lp.signs = np.where(np.arange(n) % 2, -1.0, 1.0)
                lp.priced = False
                h_wrong, _ = lp_c_optimal(problem, z, grid)
                if _signed(lp) == best:
                    assert h_wrong == h, (n, a, z)
                else:
                    assert h_wrong ** 2 == pytest.approx(h ** 2, rel=1e-9)

    def test_start_priced_out_only_by_mirror_columns(self):
        # From u = 1/200 and u = 1 the slope at z = a needs weight on -g(u)
        # at u = 1/200; with that sign every +g column prices at
        # y.g(u) <= 1 and only -g columns have y.g(u) < -1.
        problem, grid = DesignProblem(2, 1.0), GridSpec(201)
        clear_caches()
        h, _ = lp_c_optimal(problem, 1.0, grid)
        lp = oracle._grid_lp(problem, grid)
        points, signs = [1, lp.points.size - 1], np.array([-1.0, 1.0])
        rhs, _ = oracle._unit_slope(problem, 1.0)
        basic = lp.G[:, points] * signs
        assert (np.linalg.solve(basic, rhs) > 0).all()
        y = np.linalg.solve(basic.T, np.ones(2))
        prices = y @ lp.G
        assert prices.max() <= 1.0 + 1e-12 and prices.min() < -1.0
        lp.factor = oracle._factor(points, lp.G)
        lp.signs = signs
        lp.priced = False
        assert lp_c_optimal(problem, 1.0, grid)[0] == pytest.approx(h,
                                                                   rel=1e-12)


class TestRevisedRestart:
    """The grid LP keeps only G; the restart prices both signs with one y.G
    product and updates B^-1 by rank one per pivot."""

    SCALES = (1e-8, 1.0, 1e8)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_returned_basis_prices_out(self, n):
        # Priced from a fresh solve on the signed basic columns, every
        # returned basis is optimal: |y.g(u)| <= 1 on every grid point.
        grid = GridSpec(201)
        for a in self.SCALES:
            problem = DesignProblem(n, a)
            clear_caches()
            for z in _targets(problem):
                lp_c_optimal(problem, z, grid)
                lp = oracle._grid_lp(problem, grid)
                basic = lp.G[:, lp.factor[0]] * lp.signs
                y = np.linalg.solve(basic.T, np.ones(n))
                assert np.abs(y @ lp.G).max() <= 1.0 + 1e-9, (n, a, z)

    @pytest.mark.parametrize("n", [12, 30])
    def test_gap_target_allocates_less_than_g(self, n):
        # No array with a column per LP column is built: the traced peak of
        # a pivoting solve stays below the n x m' doubles of G itself.
        import tracemalloc
        problem, grid = DesignProblem(n, 1.0), GridSpec(2001)
        zs = _targets(problem)
        clear_caches()
        lp_c_optimal(problem, zs[-1], grid)
        lp = oracle._grid_lp(problem, grid)
        start = sorted(lp.factor[0])
        gap = zs[-2]  # the midpoint of the last gap
        assert gap not in admissible_region(problem)
        tracemalloc.start()
        try:
            lp_c_optimal(problem, gap, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(lp.factor[0]) != start
        assert peak < n * lp.points.size * 8

    def test_sign_flip_of_columns_negates_rows_of_the_inverse(self):
        # The restart prices on the signed inverse diag(signs) B^-1 in place
        # of inverting the signed columns B diag(signs); that is what inv
        # gives bit for bit, on random matrices and on unit-basis matrices
        # of grid points.
        rng = np.random.default_rng(20)
        for n in range(1, 41):
            for k in range(6):
                if k % 2:
                    u = np.sort(rng.uniform(0.0, 1.0, n))
                    matrix = np.array(basis.values(n, u))
                else:
                    matrix = rng.normal(size=(n, n))
                d = rng.choice([-1.0, 1.0], size=n)
                flipped = np.linalg.inv(matrix * d)
                assert np.array_equal(flipped,
                                      d[:, None] * np.linalg.inv(matrix)), n

    def test_iteration_cap_raises_on_a_gap_target(self, monkeypatch):
        problem = DesignProblem(4, 1.0)
        monkeypatch.setattr(oracle, "_MAX_ITER", 0)
        clear_caches()
        # A target inside the region is priced out at the start: no pivot.
        lp_c_optimal(problem, 1.0)
        assert 0.5 not in admissible_region(problem)
        with pytest.raises(NumericalFailure):
            lp_c_optimal(problem, 0.5)

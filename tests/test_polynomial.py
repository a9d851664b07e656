"""The Chebyshev polynomials of the unit basis and the real roots of the
basis derivatives L_i'."""

import math

import pytest

from slopedesign import basis
from slopedesign.designs import (DesignProblem, _rolle_root,
                                 admissible_region, basis_derivatives)


def chebyshev_factor(m, x):
    """u T_m(x) at u = (1 + x) / 2, read off the unit basis
    g_{m+1}(u) = u T_m(2u - 1) of slopedesign.basis."""
    return basis.values(m + 1, 0.5 * (1.0 + x))[m]


class TestChebyshev:
    # The package evaluates the Chebyshev polynomials only through the
    # recurrence of the unit basis.

    def test_first_few(self):
        for x in (-1.0, -0.3, 0.0, 0.5, 1.0):
            u = 0.5 * (1.0 + x)
            for m, t in enumerate((1.0, x, 2.0 * x * x - 1.0)):
                assert chebyshev_factor(m, x) == pytest.approx(u * t,
                                                               abs=1e-15)

    def test_t4_coeffs_and_cosine_identity(self):
        for x in (-1.0, -0.6, 0.1, 0.75, 1.0):
            u = 0.5 * (1.0 + x)
            t4 = 8.0 * x ** 4 - 8.0 * x ** 2 + 1.0
            assert chebyshev_factor(4, x) == pytest.approx(u * t4, abs=1e-14)
        assert abs(chebyshev_factor(4, math.cos(math.pi / 8))) < 1e-12

    @pytest.mark.parametrize("n", range(0, 16))
    def test_defining_identity_on_grid(self, n):
        for k in range(21):
            theta = math.pi * k / 20
            x = math.cos(theta)
            assert chebyshev_factor(n, x) == pytest.approx(
                0.5 * (1.0 + x) * math.cos(n * theta), abs=1e-10)


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

"""The Chebyshev polynomials of the unit basis."""

import math

import pytest

from slopedesign import basis


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


def _dot(y, u):
    return math.fsum(yk * gk for yk, gk in zip(y, basis.values(len(y), u)))


class TestSeries:
    """The series sum_k y_k g_k(u) of the certificate's polynomial."""

    @pytest.mark.parametrize("n", [1, 2, 5, 17])
    def test_clenshaw_matches_the_model_vectors(self, n):
        y = [math.sin(k + 1.0) for k in range(n)]
        us = [k / 16 for k in range(17)]
        for u, got in zip(us, basis.series(y, us)):
            assert got == pytest.approx(_dot(y, u), abs=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 20])
    def test_derivative_coefficients(self, n):
        # d/dt sum_j c_j T_j(t) against a central difference.
        c = [1.0 / (j + 1) for j in range(n)]
        d = basis._chebyshev_derivative(c)
        assert len(d) == max(n - 1, 1)
        for t in (-0.9, -0.2, 0.3, 0.8):
            h = 1e-6
            want = (basis._chebyshev(c, t + h)
                    - basis._chebyshev(c, t - h)) / (2 * h)
            assert basis._chebyshev(d, t) == pytest.approx(want, abs=1e-6)


class TestLocalExtrema:
    """local_extrema refines one critical point of the series per bracket."""

    @staticmethod
    def _chebyshev_on_unit(n):
        # S(u) = T_n(2u - 1) - T_n(-1) has S(0) = 0, so it lies in the span;
        # its critical points are (1 + cos(k pi / n)) / 2, k = 1..n - 1.
        # The coefficients come from the values at n Chebyshev points of
        # S(u) / u, through a dense solve on the model vectors.
        import numpy as np
        us = [(1 + math.cos(math.pi * (j + 0.5) / n)) / 2 for j in range(n)]
        rows = np.array([basis.values(n, u) for u in us])
        vals = [math.cos(n * math.acos(2 * u - 1)) - (-1) ** n for u in us]
        return list(np.linalg.solve(rows, vals))

    @pytest.mark.parametrize("n", [2, 3, 6, 11])
    def test_finds_the_critical_points(self, n):
        y = self._chebyshev_on_unit(n)
        crit = sorted((1 + math.cos(k * math.pi / n)) / 2 for k in range(1, n))
        edges = [0.0] + [(a + b) / 2 for a, b in zip(crit, crit[1:])] + [1.0]
        # Start off the answer, at the middle of each bracket.
        starts = [(a + b) / 2 for a, b in zip(edges, edges[1:])]
        got = basis.local_extrema(y, edges, starts)
        assert got == pytest.approx(crit, abs=1e-12)

    def test_no_sign_change_gives_none(self):
        # S(u) = u is monotone: S' = 1 across every bracket.
        assert basis.local_extrema([1.0, 0.0, 0.0], [0.0, 0.5, 1.0],
                                   [0.25, 0.75]) is None

    def test_two_roots_in_one_bracket_give_none(self):
        # S = T_3(2u - 1) + 1 has its two critical points at 1/4 and 3/4;
        # one bracket over both sees no sign change of S'.
        y = self._chebyshev_on_unit(3)
        assert basis.local_extrema(y, [0.0, 1.0], [0.5]) is None

    def test_no_brackets(self):
        assert basis.local_extrema([1.0], [0.0, 1.0], []) == []

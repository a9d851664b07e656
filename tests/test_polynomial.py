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

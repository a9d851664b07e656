"""Dense univariate real polynomials.

Coefficients are stored in ascending powers: ``coeffs[k]`` multiplies ``x**k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


class Degenerate(RuntimeError):
    """A root computation failed: an admissible interval came out empty or
    overlapping, or a root solver did not converge."""


@dataclass(frozen=True)
class Poly:
    """Immutable dense polynomial, ascending coefficients.

    ``coeffs`` is never empty; trailing zeros are allowed in storage and
    ignored by :attr:`degree`.  The degree of the zero polynomial is ``None``.
    """

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Sequence[float]):
        cs = tuple(float(c) for c in coeffs)
        if not cs:
            raise ValueError("coefficient sequence must not be empty")
        if any(not math.isfinite(c) for c in cs):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int | None:
        for k in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[k] != 0.0:
                return k
        return None

    def __call__(self, x: float) -> float:
        x = float(x)
        acc = self.coeffs[-1]
        for c in self.coeffs[-2::-1]:
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        if len(self.coeffs) == 1:
            return Poly((0.0,))
        return Poly(tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1))

    def compose_affine(self, alpha: float, beta: float) -> "Poly":
        """Return q with q(x) = p(alpha*x + beta).

        The binomial expansion is carried out in exact rational arithmetic
        over the float values of alpha and beta, with a single rounding per
        output coefficient.  Massive cancellation (e.g. the zero constant
        term of a rescaled Chebyshev polynomial) therefore resolves exactly.
        """
        d = self.degree
        if d is None or d == 0:
            return Poly(self.coeffs)
        fa = Fraction(float(alpha))
        fb = Fraction(float(beta))
        out = []
        for k in range(d + 1):
            acc = Fraction(0)
            for j in range(k, d + 1):
                if self.coeffs[j] != 0.0:
                    acc += (Fraction(self.coeffs[j]) * math.comb(j, k)
                            * fa**k * fb ** (j - k))
            out.append(float(acc))
        return Poly(tuple(out))

    def __mul__(self, other: "Poly | float | int") -> "Poly":
        if isinstance(other, (int, float)):
            return Poly(tuple(c * other for c in self.coeffs))
        out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci == 0.0:
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] += ci * cj
        return Poly(tuple(out))

    __rmul__ = __mul__


def chebyshev_T(n: int) -> Poly:
    """Chebyshev polynomial of the first kind via the three-term recurrence."""
    if n < 0:
        raise ValueError("n must be >= 0")
    # Integer arithmetic keeps coefficients exact (|c| < 2**53 for n <= 44).
    t_prev, t_cur = [1], [0, 1]
    if n == 0:
        return Poly((1.0,))
    for _ in range(n - 1):
        nxt = [0] + [2 * c for c in t_cur]
        for k, c in enumerate(t_prev):
            nxt[k] -= c
        t_prev, t_cur = t_cur, nxt
    return Poly(tuple(float(c) for c in t_cur))

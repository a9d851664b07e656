"""Dense univariate real polynomials.

Coefficients are stored in ascending powers: ``coeffs[k]`` multiplies ``x**k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

"""Information matrices, the variance functional, and optimality certificates.

A design is optimal for estimating c^T theta exactly when a polynomial in the
model span stays within [-1, 1] on the design space, hits +/-1 at every
support point, and reproduces c through the weighted support representation
c = h * sum_i w_i f(x_i) * value_i.  The certificate here evaluates all three
conditions numerically and reports the margins; when it verifies, h^2 equals
the optimal variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .designs import (Design, DesignProblem, admissible_region,
                      basis_derivatives, support_points)
from .polynomial import Poly, chebyshev_T

# numpy is imported inside the functions that build arrays only, so that the
# certificate and the closed form run without it.
if TYPE_CHECKING:
    import numpy as np


class ZOutsideRegion(Exception):
    """z is not interior to any admissible interval; no h is defined."""

    def __init__(self, z: float, region):
        super().__init__(f"z={z!r} is not interior to the admissible region")
        self.z = z
        self.region = region


def monomial_features(n: int, x: float) -> np.ndarray:
    """The model vector (x, x^2, ..., x^n)."""
    import numpy as np
    return np.power(float(x), np.arange(1, n + 1))


def slope_vector(n: int, z: float) -> np.ndarray:
    """Derivative of the model vector: c = (1, 2z, ..., n z^(n-1))."""
    import numpy as np
    k = np.arange(1, n + 1)
    return k * np.power(float(z), k - 1)


def _slope(n: int, z: float) -> list[float]:
    # slope_vector on plain floats.  The powers are repeated products, which
    # overflow to inf without raising or warning.
    c, zk = [], 1.0
    for k in range(1, n + 1):
        c.append(k * zk)
        zk *= z
    return c


@dataclass(frozen=True)
class InfoMatrix:
    """Symmetric PSD moment matrix M[j,k] = sum_i w_i x_i^(j+k), j,k in 1..n."""

    entries: np.ndarray

    def __init__(self, entries: np.ndarray):
        import numpy as np
        m = np.asarray(entries, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class ElfvingCertificate:
    """Outcome of the three optimality conditions for one (z, design) pair.

    p holds the coefficients of x^1..x^n of the extremal polynomial (sign
    chosen so h > 0); margins at or below the verification tolerance mean the
    design is certified optimal with variance h^2.
    """

    p: tuple[float, ...]
    h: float
    condition1_margin: float
    condition2_residuals: tuple[float, ...]
    condition3_residual: float
    verdict: str

    @property
    def verifies(self) -> bool:
        return self.verdict == "verified"

    def as_dict(self) -> dict:
        return {
            "p": list(self.p),
            "h": self.h,
            "margins": {
                "condition1": self.condition1_margin,
                "condition2": list(self.condition2_residuals),
                "condition3": self.condition3_residual,
            },
            "verdict": self.verdict,
        }


def info_matrix(design: Design, n: int) -> InfoMatrix:
    """Moment matrix of a design in the degree-n model without intercept."""
    if n < 1:
        raise ValueError("n must be >= 1")
    import numpy as np
    pts = np.asarray(design.points)
    w = np.asarray(design.weights)
    v = np.vander(pts, n + 1, increasing=True)[:, 1:]  # columns x^1..x^n
    return InfoMatrix(v.T @ (w[:, None] * v))


def variance(design: Design, c, rtol: float = 1e-8) -> float:
    """c^T M^- c for the design's moment matrix; +inf when c is not estimable.

    Estimability is decided by the relative least-squares residual (threshold
    ``rtol``); the value is independent of the generalized-inverse choice.
    Internally the quadratic form is evaluated through the weighted
    square-root factor of M = B^T B with row equilibration, which halves the
    condition number exponent compared to solving with M directly: the
    minimum-norm solution of B^T y = c gives c^T M^- c = |y|^2.
    """
    import numpy as np
    c = np.asarray(c, dtype=float)
    n = c.size
    pts = np.asarray(design.points)
    w = np.asarray(design.weights)
    bt = np.vander(pts, n + 1, increasing=True)[:, 1:].T * np.sqrt(w)
    row_scale = np.abs(bt).max(axis=1)
    row_scale[row_scale == 0.0] = 1.0
    r = bt / row_scale[:, None]
    rhs = c / row_scale
    y, *_ = np.linalg.lstsq(r, rhs, rcond=None)
    if np.linalg.norm(r @ y - rhs) > rtol * np.linalg.norm(rhs):
        return math.inf
    return float(y @ y)


def extremal_polynomial(problem: DesignProblem) -> Poly:
    """The rescaled Chebyshev polynomial equioscillating on [0, a].

    Degree n, constant coefficient 0 up to roundoff (below 1e-10), so it lies
    in the intercept-free model span.
    """
    n, a = problem.n, problem.a
    c = math.cos(math.pi / (2 * n))
    return chebyshev_T(n).compose_affine((1.0 + c) / a, -c)


def extremal_value(problem: DesignProblem, x: float) -> float:
    """Numerically stable evaluation of the extremal polynomial at x."""
    n, a = problem.n, problem.a
    c = math.cos(math.pi / (2 * n))
    u = (float(x) / a) * (1.0 + c) - c
    if abs(u) <= 1.0:
        return math.cos(n * math.acos(u))
    if abs(u) <= 1.0 + 1e-9:
        return math.cos(n * math.acos(max(-1.0, min(1.0, u))))
    t = math.acosh(abs(u))
    val = math.cosh(n * t)
    return val if u > 1.0 else (val if n % 2 == 0 else -val)


@lru_cache(maxsize=256)
def _extremal_cached(problem: DesignProblem, grid_points: int,
                     tol_root: float) -> tuple[tuple[float, ...], float]:
    # Everything in certify that does not depend on z or on the design: the
    # coefficients of x^1..x^n of the extremal polynomial and the condition-1
    # margin over the grid augmented with its critical points, which are the
    # interior extremal points: every support point but a.  tol_root only
    # keys the cache.
    n, a = problem.n, problem.a
    s_poly = extremal_polynomial(problem)
    const = s_poly.coeffs[0]
    if abs(const) > 1e-10:
        raise ArithmeticError(
            f"extremal polynomial constant term {const!r} exceeds 1e-10")
    xs = [a * k / (grid_points - 1) for k in range(grid_points)]
    xs.extend(support_points(problem)[:-1])
    cond1 = max(abs(extremal_value(problem, x)) for x in xs) - 1.0
    return s_poly.coeffs[1:n + 1], cond1


def certify(problem: DesignProblem, z: float, design: Design,
            grid_points: int = 2001, tol: float = 1e-8,
            tol_root: float = 1e-12,
            boundary_tol: float = 1e-10) -> ElfvingCertificate:
    """Evaluate the three optimality conditions for ``design`` at target z.

    h is (-1)^(n+j) * sum_i |L_i'(z)| for the interval index j containing z
    (recomputed here, never trusted from the caller); the reported pair is
    normalized to h > 0 by flipping the polynomial's sign.  Condition (1) is
    checked on a uniform grid of ``grid_points >= 2`` points over [0, a]
    augmented with the critical points of the extremal polynomial (the
    support points inside (0, a)), which pins the sup-norm.  Neither the
    extremal polynomial nor this condition-1 margin depends on z or on the
    design, so both are computed once per (problem, grid_points, tol_root)
    and cached; conditions (2) and (3) are evaluated on every call.  As in
    :func:`~slopedesign.designs.optimal_design`, ``boundary_tol`` is
    relative to a.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    n = problem.n
    region = admissible_region(problem, tol_root)
    kind, j = region.locate(z, boundary_tol * problem.a)
    if kind != "inside":
        raise ZOutsideRegion(z, region)

    abs_sum = math.fsum(abs(v) for v in basis_derivatives(problem, z))
    h_signed = (-1.0) ** (n + j) * abs_sum
    sign = 1.0 if h_signed > 0 else -1.0
    h = abs(h_signed)

    coeffs, cond1 = _extremal_cached(problem, grid_points, float(tol_root))
    p = tuple(sign * c for c in coeffs)

    vals = [sign * extremal_value(problem, x) for x in design.points]
    cond2 = tuple(abs(abs(v) - 1.0) for v in vals)

    # Condition 3 on n-vectors: c = h * rep with rep_k = sum w v x^k.
    c = _slope(n, z)
    rep = [0.0] * n
    for x, w, v in zip(design.points, design.weights, vals):
        wv, xk = w * v, x
        for k in range(n):
            rep[k] += wv * xk
            xk *= x
    res = [abs(ck - h * rk) for ck, rk in zip(c, rep)]
    # max() may pass over a nan; an overflowed residual has to stay nan.
    cond3 = math.nan if any(math.isnan(r) for r in res) else max(res)

    ok = (cond1 <= tol and all(r <= tol for r in cond2)
          and cond3 <= tol * (1.0 + max(abs(ck) for ck in c)))
    return ElfvingCertificate(p, h, cond1, cond2, cond3,
                              "verified" if ok else "failed")

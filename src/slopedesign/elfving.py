"""The variance functional and optimality certificates.

A design is optimal for estimating c^T theta exactly when a polynomial in the
model span stays within [-1, 1] on the design space, hits +/-1 at every
support point, and reproduces c through the weighted support representation
c = h * sum_i w_i f(x_i) * value_i.  The certificate here evaluates all three
conditions numerically and reports the margins; when it verifies, h^2 equals
the optimal variance.  The numerical checks work in the unit basis of
:mod:`slopedesign.basis`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import basis
from .designs import (Design, DesignProblem, admissible_region,
                      basis_derivatives, support_points)
from .polynomial import Poly, chebyshev_T

# numpy is imported inside variance only, so that the certificate and the
# closed form run without it.


class ZOutsideRegion(Exception):
    """z is not interior to any admissible interval; no h is defined."""

    def __init__(self, z: float, region):
        super().__init__(f"z={z!r} is not interior to the admissible region")
        self.z = z
        self.region = region


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


_RTOL = 1e-8  # variance: the estimability bound on the relative residual


def _unit_slope(problem: DesignProblem, z: float) -> tuple[list, float]:
    # The slope in the unit basis divided by its largest entry, so that no
    # norm or product of it overflows, and the factor that turns h for it
    # into h for f'(z).
    c = basis.slope(problem.n, z / problem.a)
    scale = max(abs(ck) for ck in c)
    if not math.isfinite(scale):
        raise OverflowError("the slope vector is not finite")
    return [ck / scale for ck in c], scale / problem.a


def variance(problem: DesignProblem, design: Design, z: float) -> float:
    """c^T M^- c for the slope c = f'(z); +inf when c is not estimable.

    Evaluated in the unit basis of :mod:`slopedesign.basis` through the
    weighted square-root factor of M = B^T B: the minimum-norm solution of
    B^T y = c gives c^T M^- c = |y|^2, whatever the generalized inverse.  c
    is not estimable when the relative least-squares residual exceeds 1e-8.
    Raises :class:`OverflowError` when the system is not finite, such as
    when a design point lies far outside [0, a].
    """
    import numpy as np
    c, factor = _unit_slope(problem, z)
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.asarray(design.points) / problem.a
        bt = np.array(basis.values(problem.n, u)) * np.sqrt(design.weights)
    if not np.isfinite(bt).all():
        raise OverflowError("the moment system is not finite")
    y, *_ = np.linalg.lstsq(bt, c, rcond=None)
    if np.linalg.norm(bt @ y - c) > _RTOL * np.linalg.norm(c):
        return math.inf
    root = float(np.linalg.norm(y)) * factor
    return root * root


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
def _extremal_cached(problem: DesignProblem,
                     grid_points: int) -> tuple[tuple[float, ...], float]:
    # Everything in certify that does not depend on z or on the design: the
    # coefficients of x^1..x^n of the extremal polynomial and the condition-1
    # margin over the grid augmented with its critical points, which are the
    # interior extremal points: every support point but a.
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
            grid_points: int = 2001,
            tol: float = 1e-10) -> ElfvingCertificate:
    """Evaluate the three optimality conditions for ``design`` at target z.

    h is (-1)^(n+j) * sum_i |L_i'(z)| for the interval index j containing z
    (recomputed here, never trusted from the caller); the reported pair is
    normalized to h > 0 by flipping the polynomial's sign.  Condition (1) is
    checked on a uniform grid of ``grid_points >= 2`` points over [0, a]
    augmented with the critical points of the extremal polynomial (the
    support points inside (0, a)), which pins the sup-norm.  Neither the
    extremal polynomial nor this condition-1 margin depends on z or on the
    design, so both are computed once per (problem, grid_points) and
    cached; conditions (2) and (3) are evaluated on every call.  Condition
    (3) is checked in the unit basis of :mod:`slopedesign.basis`: each row
    |g_k'(u_z) - a h sum_i w_i v_i g_k(u_i)| is divided by the size of its
    terms, |g_k'(u_z)| + a h sum_i |w_i g_k(u_i)|, so its margin has no
    units.  Every margin is compared with ``tol``.  z is located in the
    region as in :func:`~slopedesign.designs.optimal_design`.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    n = problem.n
    region = admissible_region(problem)
    kind, j = region.locate(z)
    if kind != "inside":
        raise ZOutsideRegion(z, region)

    abs_sum = math.fsum(abs(v) for v in basis_derivatives(problem, z))
    h_signed = (-1.0) ** (n + j) * abs_sum
    sign = 1.0 if h_signed > 0 else -1.0
    h = abs(h_signed)

    coeffs, cond1 = _extremal_cached(problem, grid_points)
    p = tuple(sign * c for c in coeffs)

    vals = [sign * extremal_value(problem, x) for x in design.points]
    cond2 = tuple(abs(abs(v) - 1.0) for v in vals)

    # Condition 3 in the unit basis, row by row: g'(u_z) = a h sum_i w_i v_i
    # g(u_i), each row relative to the size of its own terms.
    a = problem.a
    ah = a * h
    c = basis.slope(n, z / a)
    rep, size = [0.0] * n, [0.0] * n
    for x, w, v in zip(design.points, design.weights, vals):
        wv = w * v
        for k, g in enumerate(basis.values(n, x / a)):
            rep[k] += wv * g
            size[k] += abs(w * g)
    # A row whose terms are all zero holds exactly; `or 1.0` keeps it at 0.
    res = [abs(ck - ah * rk) / (abs(ck) + ah * sk or 1.0)
           for ck, rk, sk in zip(c, rep, size)]
    # max() may pass over a nan; an overflowed residual has to stay nan.
    cond3 = math.nan if any(math.isnan(r) for r in res) else max(res)

    ok = (cond1 <= tol and all(r <= tol for r in cond2) and cond3 <= tol)
    return ElfvingCertificate(p, h, cond1, cond2, cond3,
                              "verified" if ok else "failed")

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
from functools import lru_cache

from . import basis
from ._record import Record
from .designs import (Design, DesignProblem, _unit_nodes, admissible_region,
                      basis_derivatives)

# numpy is imported inside variance only, so that the certificate and the
# closed form run without it.


class ZOutsideRegion(Exception):
    """z is not interior to any admissible interval; no h is defined."""

    def __init__(self, z: float, region):
        super().__init__(f"z={z!r} is not interior to the admissible region")
        self.z = z
        self.region = region


class ElfvingCertificate(Record):
    """Outcome of the three optimality conditions for one (z, design) pair.

    p holds the coefficients p_1..p_n of the extremal polynomial on the unit
    basis, sum_k p_k g_k(x / a) with g_k of :mod:`slopedesign.basis` (sign
    chosen so h > 0); margins at or below the verification tolerance mean
    the design is certified optimal with variance h^2.
    """

    __slots__ = ("p", "h", "condition1_margin", "condition2_residuals",
                 "condition3_residual", "verdict")
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


@lru_cache(maxsize=1)
def _unit_slope(problem: DesignProblem, z: float) -> tuple[tuple, float]:
    # The slope in the unit basis divided by its largest entry, so that no
    # norm or product of it overflows, and the factor that turns h for it
    # into h for f'(z).  One entry: oracle.compare's three routes,
    # lp_c_optimal, restricted_weights and variance, each ask for it at the
    # same (problem, z), and the first computes it for all.
    c = basis.slope(problem.n, z / problem.a)
    scale = max(abs(ck) for ck in c)
    if not math.isfinite(scale):
        raise OverflowError("the slope vector is not finite")
    return tuple(ck / scale for ck in c), scale / problem.a


@lru_cache(maxsize=8)
def _unit_rows(n: int, a: float, points: tuple[float, ...]):
    # The read-only n x m array with columns g(x_i / a), once per set of
    # points: variance scales its columns, the oracle's restricted_weights
    # solves with it.  An entry that overflows is inf or nan, with no
    # warning.  Eight entries, as for designs._design_support.
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.array(basis.values(n, np.asarray(points, dtype=float) / a))
    rows.flags.writeable = False
    return rows


def variance(problem: DesignProblem, design: Design, z: float) -> float:
    """c^T M^- c for the slope c = f'(z); +inf when c is not estimable.

    Evaluated in the unit basis of :mod:`slopedesign.basis` through the
    weighted square-root factor of M = B^T B: the minimum-norm solution of
    B^T y = c gives c^T M^- c = |y|^2, whatever the generalized inverse.  c
    is not estimable when the relative least-squares residual exceeds 1e-8.
    Raises :class:`OverflowError` when the system is not finite, such as
    when a design point lies far outside [0, a].  The model vectors of the
    design points depend on neither z nor the weights, so they are computed
    once per (n, a, design.points) and kept in a small cache; each call
    scales them by the square roots of the weights, the same floats as
    without the cache.
    """
    import numpy as np
    c, factor = _unit_slope(problem, z)
    rows = _unit_rows(problem.n, problem.a, design.points)
    with np.errstate(over="ignore", invalid="ignore"):
        bt = rows * np.sqrt(design.weights)
    if not np.isfinite(bt).all():
        raise OverflowError("the moment system is not finite")
    y, *_ = np.linalg.lstsq(bt, c, rcond=None)
    if np.linalg.norm(bt @ y - c) > _RTOL * np.linalg.norm(c):
        return math.inf
    root = float(np.linalg.norm(y)) * factor
    return root * root


@lru_cache(maxsize=256)
def _extremal_coefficients(n: int) -> tuple[float, ...]:
    # The coefficients p_1..p_n of the extremal polynomial on the unit basis,
    # S(u) = T_n((1 + c) u - c) = sum_k p_k g_k(u) with c = cos(pi / 2n); the
    # problem is scale-equivariant, so they depend on n only.  S(0) = 0, so
    # S(u) / u = sum_k p_k T_{k-1}(2u - 1) has degree n - 1, and its
    # Chebyshev coefficients follow from its values at the n Chebyshev points
    # 2u - 1 = cos(theta_j) by discrete orthogonality (Trefethen,
    # Approximation Theory and Approximation Practice, 2013, ch. 3-4).  With
    # (1 + c) u - c = cos(phi) and -c = cos(psi), S(u) / u = (1 + c)
    # (cos n phi - cos n psi) / (cos phi - cos psi) is a product of two
    # ratios sin(n x) / sin(x), which divides nothing by u and makes p
    # exactly (1,) at n = 1.
    c = math.cos(math.pi / (2 * n))
    psi = math.pi - math.pi / (2 * n)
    thetas = [math.pi * (j + 0.5) / n for j in range(n)]
    q = []
    for theta in thetas:
        phi = math.acos((1.0 + c) * math.cos(0.5 * theta) ** 2 - c)
        s, d = 0.5 * (psi + phi), 0.5 * (psi - phi)
        q.append((1.0 + c) * (math.sin(n * s) / math.sin(s))
                 * (math.sin(n * d) / math.sin(d)))
    p = [2.0 / n * math.fsum(qj * math.cos(k * theta)
                             for qj, theta in zip(q, thetas))
         for k in range(n)]
    p[0] *= 0.5
    return tuple(p)


def extremal_value(problem: DesignProblem, x: float) -> float:
    """The extremal polynomial at x: sum_k p_k g_k(x / a) for the
    coefficients that certify emits, evaluated by Clenshaw's recurrence.

    Its sign is the one that is +1 at a.
    """
    return basis.series(_extremal_coefficients(problem.n),
                        (float(x) / problem.a,))[0]


@lru_cache(maxsize=256)
def _condition1_margin(n: int) -> float:
    # max |S| - 1 over [0, 1], where the sup is reached: at 0, at 1 or at a
    # critical point of S.  For the exact p those are the interior nodes
    # s_1 < ... < s_{n-1}; the brackets between 0, the midpoints of
    # neighbouring nodes and 1 hold one root of S' each, and a sign change
    # of S' across every one of them leaves room for no other root, so
    # refining them in their brackets finds all the critical points of the
    # emitted p.  A p whose S' breaks that pattern is not the extremal
    # polynomial, and its margin is inf.  The nodes themselves are evaluated
    # too.  Like the coefficients, the margin depends on neither a, z, the
    # design nor a grid.
    p = _extremal_coefficients(n)
    inner = _unit_nodes(n)[0][:-1]
    edges = (0.0, *((x + y) / 2 for x, y in zip(inner, inner[1:])), 1.0)
    critical = basis.local_extrema(p, edges, inner)
    if critical is None:
        return math.inf
    return max(map(abs, basis.series(p, (0.0, 1.0, *inner, *critical)))) - 1.0


@lru_cache(maxsize=256)
def _support_rows(n: int, a: float, points: tuple[float, ...]):
    # The part of conditions 2 and 3 that depends on the design points only:
    # the model vector g(x_i / a) of each point, p . g(x_i / a) for the
    # coefficients p of _extremal_coefficients before certify fixes their
    # sign, and the condition-2 residuals ||p . g| - 1|, which no sign
    # changes.
    p = _extremal_coefficients(n)
    rows = tuple(basis.values(n, x / a) for x in points)
    dots = tuple(math.fsum(pk * gk for pk, gk in zip(p, g)) for g in rows)
    return rows, dots, tuple(abs(abs(v) - 1.0) for v in dots)


def certify(problem: DesignProblem, z: float, design: Design,
            grid_points: int = 2001,
            tol: float = 1e-10) -> ElfvingCertificate:
    """Evaluate the three optimality conditions for ``design`` at target z.

    h is (-1)^(n+j) * sum_i |L_i'(z)| for the interval index j containing z
    (recomputed here, never trusted from the caller); the reported pair is
    normalized to h > 0 by flipping the polynomial's sign.  Condition (1)
    takes the sup of the polynomial's magnitude over [0, a] where it is
    reached: at 0, at a and at the n - 1 critical points, which
    :func:`slopedesign.basis.local_extrema` refines inside brackets around
    the interior support points; the support points themselves are
    evaluated too.  No grid enters it: ``grid_points`` is still checked
    (>= 2), but nothing here reads it; only the oracle's LP takes a grid.
    When the derivative does not change sign across every bracket, the
    polynomial is not the extremal one, and the margin is inf.  Conditions
    (1) and (2) evaluate the emitted coefficients p on the unit basis of
    :mod:`slopedesign.basis`.  Neither p nor the condition-1 margin depends
    on a, z or the design, so both are computed once per n and cached.  The
    model vectors of the design points, the values of p there up to its
    sign, and with them the condition-(2) residuals depend only on
    (n, a, design.points), so they are computed once per support and cached
    too; each call applies the sign, the weights and the slope at z.
    Condition (3) is checked in the same basis, with v_i = +/-1 the sign of
    the polynomial at x_i: each row |g_k'(u_z) - a h sum_i w_i v_i g_k(u_i)|
    is divided by the size of its terms, |g_k'(u_z)| + a h sum_i
    |w_i g_k(u_i)|, so its margin has no units.  Every margin is compared
    with ``tol``.  z is located in the region as in
    :func:`~slopedesign.designs.optimal_design`.
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

    p = tuple(sign * pk for pk in _extremal_coefficients(n))
    cond1 = _condition1_margin(n)

    # Conditions 2 and 3 in the unit basis: p . g(u_i) must be +/-1 at each
    # design point, and with v_i its sign, row by row
    # g'(u_z) = a h sum_i w_i v_i g(u_i), each row relative to the size of
    # its own terms.  Only the sign of p, the weights and the slope depend
    # on z.
    a = problem.a
    ah = a * h
    c = basis.slope(n, z / a)
    rows, dots, cond2 = _support_rows(n, a, design.points)
    rep, size = [0.0] * n, [0.0] * n
    for g, dot, w in zip(rows, dots, design.weights):
        # fsum rounds the exact sum symmetrically, so sign * dot is p . g(u_i)
        # bit for bit; an exact zero keeps the sign fsum gave it.
        wv = math.copysign(w, sign * dot if dot else dot)
        for k, gk in enumerate(g):
            rep[k] += wv * gk
            size[k] += abs(w * gk)
    # A row whose terms are all zero holds exactly; `or 1.0` keeps it at 0.
    res = [abs(ck - ah * rk) / (abs(ck) + ah * sk or 1.0)
           for ck, rk, sk in zip(c, rep, size)]
    # max() may pass over a nan; an overflowed residual has to stay nan.
    cond3 = math.nan if any(math.isnan(r) for r in res) else max(res)

    ok = (cond1 <= tol and all(r <= tol for r in cond2) and cond3 <= tol)
    return ElfvingCertificate(p, h, cond1, cond2, cond3,
                              "verified" if ok else "failed")

"""The variance functional and optimality certificates.

A design is optimal for estimating c^T theta exactly when a polynomial in the
model span stays within [-1, 1] on the design space, hits +/-1 at every
support point, and reproduces c through the weighted support representation
c = h * sum_i w_i f(x_i) * value_i.  The certificate here evaluates all three
conditions numerically and reports the margins; when it verifies, h^2 equals
the optimal variance.  No grid enters it: condition 1 takes the sup of the
polynomial at its critical points.  The numerical checks work in the unit
basis of :mod:`slopedesign.basis`, in pure Python: nothing here imports
numpy, and the variance of a design off the closed-form support is taken
from a Householder QR of its weighted model vectors.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from . import basis
from ._record import Record
from .designs import (Design, DesignProblem, DomainError, _abs_derivatives,
                      _interval, _rows_at, _unit_state, basis_derivatives,
                      support_points)


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
    # into h for f'(z).  One entry: oracle.compare's two routes,
    # lp_c_optimal and restricted_weights, each ask for it at the same
    # (problem, z), and the first computes it for both.
    c = basis.slope(problem.n, z / problem.a)
    scale = max(abs(ck) for ck in c)
    if not math.isfinite(scale):
        raise DomainError("z", f"z={z!r} is out of range: the slope vector "
                          "is not finite")
    return tuple(ck / scale for ck in c), scale / problem.a


def variance(problem: DesignProblem, design: Design, z: float) -> float:
    """c^T M^- c for the slope c = f'(z); +inf when c is not estimable.

    On the closed-form support, intercept-free Lagrange interpolation at the
    nodes reproduces every model function, so f'(z) = sum_i L_i'(z) f(x_i):
    G beta = c has the solution beta_i = L_i'(z), with G the nonsingular
    n x n matrix of model vectors, and M^-1 = G^-T W^-1 G^-1 gives
    c^T M^-1 c = sum_i L_i'(z)^2 / w_i, from
    :func:`~slopedesign.designs.basis_derivatives`, with no matrix; it is
    inf where that sum leaves the float range.  Any other design goes
    through a Householder QR, B = QR, of the weighted rows
    B_i = sqrt(w_i) g(x_i / a) in the unit basis of :mod:`slopedesign.basis`
    (Golub & Van Loan, Matrix Computations, 4th ed., 2013, sec. 5.2), in
    pure Python: the minimum-norm solution of B^T y = c gives
    c^T M^- c = |y|^2 = |R^-T c|^2, whatever the generalized inverse.  A
    row at x = 0 is 0 and is dropped.  With m rows left, the factorization
    stops after k = min(m, n) reflections, or at the first column whose
    remaining norm |R_jj| is at most eps max(m, n) |B|_F, where numpy's
    lstsq cuts off singular values: B then has numerical rank k = j.  The
    first k equations of R^T y = c are solved forward, and c is not
    estimable when the other n - k leave a residual above 1e-8 of |c|; a
    slope vector that is not finite raises
    :class:`~slopedesign.designs.DomainError`.  Raises
    :class:`OverflowError` when B is not finite, such as when a design point
    lies far outside [0, a].
    """
    if design.points == support_points(problem):
        # hypot scales its terms, so no square underflows, and a total
        # beyond the float range is inf, not an error.
        root = math.hypot(*(d / math.sqrt(w) for d, w in zip(
            basis_derivatives(problem, z), design.weights)))
        return root * root
    c, factor = _unit_slope(problem, z)
    rows = [[math.sqrt(w) * g for g in basis.values(problem.n, x / problem.a)]
            for x, w in zip(design.points, design.weights) if x]
    size = math.hypot(*(v for row in rows for v in row))  # |B|_F
    if not math.isfinite(size):
        raise OverflowError("the moment system is not finite")
    # The columns of B, one per g_k; with no row, k = 0 and none is read.
    cols = [list(col) for col in zip(*rows)] or [[]] * problem.n
    k, y = min(len(rows), problem.n), []
    for j in range(k):
        x = cols[j]
        alpha = -math.copysign(math.hypot(*x[j:]), x[j])
        # lstsq's cutoff on singular values: below it B has rank j, and
        # rows j.. of R^T y = c join the residual.
        if abs(alpha) <= math.ulp(1.0) * max(len(rows), problem.n) * size:
            k = j
            break
        # Column j holds R[:j, j] above alpha = R[j, j]: row j of R^T y = c.
        y.append((c[j] - math.fsum(map(operator.mul, x, y))) / alpha)
        # The reflection I - tau w w^T with w = (x - alpha e_j) / (x_j - alpha)
        # and tau = (x_j - alpha) / -alpha maps the column x below row j to
        # alpha e_j (Golub & Van Loan, Alg. 5.1.1).  |w_i| <= 1 = w_j, so no
        # product with w underflows.
        head = x[j] - alpha
        w = [1.0] + [xi / head for xi in x[j + 1:]]
        for col in cols[j + 1:]:
            t = math.fsum(map(operator.mul, w, col[j:])) * (head / -alpha)
            col[j:] = [ci - t * wi for ci, wi in zip(col[j:], w)]
    residual = [cj - math.fsum(map(operator.mul, col, y))
                for cj, col in zip(c[k:], cols[k:])]
    if math.hypot(*residual) > _RTOL * math.hypot(*c):
        return math.inf
    root = math.hypot(*y) * factor
    return root * root


def extremal_value(problem: DesignProblem, x: float) -> float:
    """The extremal polynomial at x: sum_k p_k g_k(x / a) for the
    coefficients that certify emits, evaluated by Clenshaw's recurrence.

    Its sign is the one that is +1 at a.
    """
    return basis.series(_unit_state(problem.n).p, (float(x) / problem.a,))[0]


def certify(problem: DesignProblem, z: float, design: Design, *,
            tol: float = 1e-10) -> ElfvingCertificate:
    """Evaluate the three optimality conditions for ``design`` at target z.

    h is (-1)^(n+j) * sum_i |L_i'(z)| for the interval index j containing z
    (recomputed here, never trusted from the caller); the reported pair is
    normalized to h > 0 by flipping the polynomial's sign.  Condition (1)
    takes the sup of the polynomial's magnitude over [0, a] where it is
    reached: at 0, at a and at the n - 1 critical points, which
    :func:`slopedesign.basis.local_extrema` refines inside brackets around
    the interior support points; the support points themselves are
    evaluated too, so no grid enters it; only the oracle's LP takes one.
    When the derivative does not change sign across every bracket, the
    polynomial is not the extremal one, and the margin is inf.  Conditions
    (1) and (2) evaluate the emitted coefficients p on the unit basis of
    :mod:`slopedesign.basis`.  p, the condition-1 margin and, for the
    closed-form support, the model vectors g(s_i), the values of p there
    and the condition-(2) residuals are read from the unit state of the
    degree; for any other design those are computed at each call.
    Condition (3) is checked in the same basis, with v_i = +/-1 the sign of
    the polynomial at x_i: each row |g_k'(u_z) - a h sum_i w_i v_i g_k(u_i)|
    is divided by the size of its terms, |g_k'(u_z)| + a h sum_i
    |w_i g_k(u_i)|, so its margin has no units.  Every margin is compared
    with ``tol``.  z is located in the region as in
    :func:`~slopedesign.designs.optimal_design`: outside the intervals
    :class:`~slopedesign.designs.NotCovered` is raised, and where h is not
    finite :class:`~slopedesign.designs.DomainError`, naming z.
    """
    n = problem.n
    j = _interval(problem, z)
    h_signed = (-1.0) ** (n + j) * _abs_derivatives(problem, z)[1]
    sign = 1.0 if h_signed > 0 else -1.0
    h = abs(h_signed)

    state = _unit_state(n)
    p = tuple(sign * pk for pk in state.p)
    cond1 = state.cond1

    # Conditions 2 and 3 in the unit basis: p . g(u_i) must be +/-1 at each
    # design point, and with v_i its sign, row by row
    # g'(u_z) = a h sum_i w_i v_i g(u_i), each row relative to the size of
    # its own terms.  Only the sign of p, the weights and the slope depend
    # on z.
    a = problem.a
    ah = a * h
    c = basis.slope(n, z / a)
    rows, dots, cond2 = (
        state.support_rows if design.points == support_points(problem)
        else _rows_at(n, state.p, [x / a for x in design.points]))
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

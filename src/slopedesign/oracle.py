"""Numerical cross-checks of the closed-form designs.

Two routes that do not use the closed-form weights:

* a grid linear program over conv{+/- f(x)} whose optimal objective h gives
  the optimal variance h^2 among all designs supported on the grid, and
* a fixed-support weight optimizer that solves the n x n moment system
  on the closed-form support and minimizes the variance over weights in
  closed form.

Neither is independent of the closed-form support: the grid is augmented
with it and the first LP solve of a problem starts from its columns, and the
fixed-support route is pinned to it.  This is the only module of the
package that imports numpy.  Inside the admissible region all three
routes must agree; outside, the LP beats the fixed support by a measurable
margin, which is exactly the evidence that the closed form does not extend
there.

The grid LP is the one LP solver here: a revised primal simplex on the grid
matrix G alone, which starts from a kept basis and so never runs phase 1.
Only the right-hand side c = f'(z) depends on the target, so each n x n
matrix is inverted once and kept while it is in use: one factor of the
closed-form support's columns, B and B^-1, is kept per problem, and both
the LP's first basis and the fixed-support route read it (the closed
form's variance is a sum over the nodes and reads none); the LP keeps one
factor of its basis, first that one, from which every solve starts.  A
basic column that a new target drives negative is swapped for its mirror
by negating its column of B and its row of B^-1, and the simplex prices
with the kept B^-1; only a basis a pivot reached is inverted again.  A
covered target after the first is then a few matrix-vector products, with
no LAPACK call.
h is the correctly rounded sum of the basic values, so it depends only on
the basis the LP ends on, not on how the LP got there.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

from . import basis as unit_basis  # `basis` names the LP basis here
from ._record import Record
from .designs import (Design, DesignProblem, NotCovered, optimal_design,
                      support_points)
from .elfving import _unit_slope, variance
from .polynomial import Degenerate


class NumericalFailure(Degenerate):
    """The simplex exceeded its iteration cap or ended on a singular basis
    (hard bug signal); a :class:`Degenerate`, as every numerical breakdown
    of the package is."""


class GridSpec(Record):
    """Uniform grid of m points spanning [0, a]."""

    __slots__ = ("m",)
    m: int

    def __init__(self, m: int = 2001):
        # As DesignProblem takes n: any integer type, no float and no bool.
        try:
            index = operator.index(m)
        except TypeError:
            index = None
        if index is None or isinstance(m, bool):
            raise ValueError("grid size must be an integer")
        if index < 2:
            raise ValueError("grid needs at least 2 points")
        super().__init__(index)

    def points(self, problem: DesignProblem) -> np.ndarray:
        # a * k / (m-1) rather than linspace: grids with m and 2m-1 points
        # are then bitwise nested, which the refinement tests rely on.  An a
        # above 1 is scaled below 1 first, exactly, so a * k cannot overflow.
        e = max(math.frexp(problem.a)[1], 0)
        return np.ldexp(math.ldexp(problem.a, -e) * np.arange(self.m)
                        / (self.m - 1), e)

    @property
    def spacing_fraction(self) -> float:
        return 1.0 / (self.m - 1)


class OracleReport(Record):
    __slots__ = ("covered", "closed_form_variance", "lp_variance",
                 "restricted_variance", "lp_design", "max_weight_discrepancy",
                 "agrees", "margin_threshold")
    covered: bool
    closed_form_variance: float | None
    lp_variance: float
    restricted_variance: float
    lp_design: Design
    max_weight_discrepancy: float | None
    agrees: bool
    margin_threshold: float

    def as_dict(self) -> dict:
        return {
            "covered": self.covered,
            "closed_form_variance": self.closed_form_variance,
            "lp_variance": self.lp_variance,
            "restricted_variance": self.restricted_variance,
            "lp_design": {
                "points": list(self.lp_design.points),
                "weights": list(self.lp_design.weights),
            },
            "max_weight_discrepancy": self.max_weight_discrepancy,
            "agrees": self.agrees,
            "margin_threshold": self.margin_threshold,
        }


# --- revised primal simplex of the grid LP -----------------------------------

_PIVOT_TOL = 1e-11
_MAX_ITER = 50000
_TOL = 1e-9


def _ratio_test(d: np.ndarray, rhs: np.ndarray,
                basis: list[int]) -> tuple[int, bool]:
    # The leaving row for the entering column d = B^-1 a_j, and whether the
    # step is degenerate.
    best_key = None
    best_row = -1
    for i, (a, r) in enumerate(zip(d.tolist(), rhs.tolist())):
        if a > _PIVOT_TOL:
            key = (max(r, 0.0) / a, basis[i])
            if best_key is None or key < best_key:
                best_key, best_row = key, i
    if best_row < 0:
        raise NumericalFailure("unbounded pivot direction")
    return best_row, best_key[0] <= 0.0


def _factor(columns, basis: list[int]) -> tuple:
    # The columns of a final basis in a canonical order, their matrix B and
    # B^-1, from which every x on that basis is taken: x then depends only on
    # the basis and not on the pivots that led there.  The order sorts the
    # columns by their magnitudes, lexicographically from the first row,
    # then by index, so that a column and its negation take the same place:
    # LU with partial pivoting rounds alike in either sign, so negating some
    # columns of the basis negates those columns of B and rows of B^-1
    # exactly.  columns(index) gives the columns of the constraint matrix at
    # the indices.
    basis = np.asarray(basis)
    unordered = columns(basis)
    by_size = np.lexsort((basis, *np.abs(unordered)[::-1]))
    # One memory order for B, in which B x rounds the same for every caller.
    matrix = np.ascontiguousarray(unordered[:, by_size])
    try:
        return basis[by_size], matrix, np.linalg.inv(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"singular final basis: {exc}") from exc


def _solution(factor: tuple, b: np.ndarray) -> np.ndarray:
    # B^-1 b, refined once with the residual b - B x.  The product with the
    # explicit inverse alone errs by up to cond(B) eps: 6e-12 relative in h
    # on the bases of gap targets, whose cond(B) reaches 6e4, where a
    # backward-stable solve errs by 2e-14.  One step of refinement brings
    # it to 4e-15 (Higham, Accuracy and Stability of Numerical Algorithms,
    # 2002, ch. 12).
    _, matrix, inverse = factor
    x = inverse @ b
    return x + inverse @ (b - matrix @ x)


def _entering(v: np.ndarray, stall: int) -> int | None:
    # The entering column of [G, -G] at reduced costs 1 - v and 1 + v, taken
    # over their concatenation.  Dantzig's rule while the objective moves:
    # the most negative reduced cost, the first on a tie, so +g before -g.
    # After 30 degenerate steps in a row, Bland's rule against cycling: the
    # first column whose reduced cost is below -_TOL.  None when none is.
    plus, minus = 1.0 - v, 1.0 + v
    if stall < 30:
        j, k = plus.argmin(), minus.argmin()
        if minus[k] < plus[j]:
            return None if minus[k] >= -_TOL else int(k) + v.size
        return None if plus[j] >= -_TOL else int(j)
    for half, reduced in enumerate((plus, minus)):
        below = np.flatnonzero(reduced < -_TOL)
        if below.size:
            return int(below[0]) + half * v.size
    return None


class _GridLP:
    """The grid LP of one problem: min sum(x) subject to [G, -G] x = rhs,
    x >= 0, with G[k-1, j] = g_k(u_j) of :mod:`slopedesign.basis` on the
    unit grid u = x / a, and the basis the next solve starts from.  Only G
    is stored, with its transpose GT, whose rows are the entering columns
    of a pivot: column j >= m of the LP is the mirror -G[:, j - m].

    ``factor`` is that basis, as _factor gives it: its columns in the order
    of their grid points, their matrix B and B^-1; first the closed-form
    support, which the grid holds exactly.  ``priced`` says whether pricing
    found it optimal.  Only the right-hand side depends on the target, and
    the costs never change, so every solve takes x = B^-1 rhs, refined
    once, and swaps each basic column with x < 0 for its mirror, which
    leaves the basis primal feasible.  The swap negates that column of B
    and that row of B^-1, exactly what inverting the swapped basis gives,
    and keeps the order, which sorts by magnitudes.  Reduced costs do not
    depend on the right-hand side, and those of the global mirror, 1 - v
    and 1 + v, only swap, so a priced basis that swapped no column or every
    column is still optimal.  Any other basis restarts a revised primal
    simplex there (Chvatal, Linear Programming, 1983, ch. 7-10): y = 1.B^-1
    prices both halves with one product v = y.G, at reduced costs 1 - v and
    1 + v, and each pivot takes B^-1 (+/-g_j) as the entering column and
    updates B^-1 by rank one.  When the updated inverse prices out, the
    basis it ends on is factored afresh and priced again from that factor,
    so a drifted inverse cannot end the solve.
    """

    def __init__(self, problem: DesignProblem, grid: GridSpec):
        support = np.asarray(support_points(problem))
        self.points = np.unique(np.concatenate([grid.points(problem), support]))
        self.G = np.array(unit_basis.values(problem.n, self.points / problem.a))
        self.GT = self.G.T.copy()
        # The support's factor with its positions relabelled to grid
        # indices, which keeps _factor's order: they rise as the positions.
        order, *rest = _support_factor(problem)
        self.factor = (np.searchsorted(self.points, support)[order], *rest)
        self.priced = False

    def columns(self, index) -> np.ndarray:
        """The LP columns at ``index``: g(u_j) for j < m, else -g(u_{j-m})."""
        index = np.asarray(index)
        m = self.points.size
        rows = self.GT[index % m]
        np.negative(rows, out=rows, where=(index >= m)[:, None])
        return rows.T

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The optimal x over [G, -G]: the columns of the final basis, in
        the order of their grid points, and their values, with every other
        entry 0; at a degenerate optimum, only the positive columns.  x is
        the kept inverse of the final basis times rhs, refined once."""
        m = self.points.size
        order, matrix, inverse = self.factor
        x = _solution(self.factor, rhs)
        swapped = x < 0
        if swapped.any():
            sign = np.where(swapped, -1.0, 1.0)
            self.factor = (np.where(swapped, (order + m) % (2 * m), order),
                           matrix * sign, sign[:, None] * inverse)
            x = np.abs(x)
        if not (self.priced and (swapped.all() or not swapped.any())):
            x = self._restart(x, rhs)
        # The optimal bases of a degenerate optimum differ in columns at 0;
        # solving on the positive columns makes x the same for all of them.
        order, matrix, _ = self.factor
        np.maximum(x, 0.0, out=x)
        positive = x > 1e-12 * x.sum()
        if positive.all():
            return order, x
        try:
            return order[positive], np.linalg.lstsq(matrix[:, positive], rhs,
                                                    rcond=None)[0]
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"degenerate optimum: {exc}") from exc

    def _restart(self, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        # x on the optimal basis the primal simplex reaches from the kept
        # factor, on which x is primal feasible; that basis is kept.
        G, GT = self.G, self.GT
        m = self.points.size
        stall = pivots = 0
        while True:
            order, _, inverse = self.factor
            col = _entering(inverse.sum(axis=0) @ G, stall)
            if col is None:
                self.priced = True
                return x
            basis, inverse = order.tolist(), inverse.copy()
            while col is not None:
                if pivots == _MAX_ITER:
                    raise NumericalFailure("simplex iteration cap exceeded")
                pivots += 1
                d = inverse @ GT[col % m]
                if col >= m:
                    np.negative(d, out=d)
                row, degenerate = _ratio_test(d, x, basis)
                stall = stall + 1 if degenerate else 0
                basis[row] = col
                inverse[row] /= d[row]
                x[row] /= d[row]
                d[row] = 0.0
                inverse -= d[:, None] * inverse[row]
                x -= d * x[row]
                col = _entering(inverse.sum(axis=0) @ G, stall)
            self.factor = _factor(self.columns, basis)
            x = _solution(self.factor, rhs)


_grid_lp = lru_cache(maxsize=1)(_GridLP)  # (problem, grid) -> its LP


@lru_cache(maxsize=1)
def _support_factor(problem: DesignProblem) -> tuple:
    # _factor of the columns g(x_i / a) at the closed-form support, with the
    # positions 0..n-1 of its points as the basis: the grid LP's first
    # basis, and the matrix whose inverse gives the restricted route's beta.
    # Neither writes to its arrays.
    u = np.asarray(support_points(problem)) / problem.a
    columns = np.array(unit_basis.values(problem.n, u))
    return _factor(lambda index: columns[:, index], range(problem.n))


def lp_c_optimal(problem: DesignProblem, z: float,
                 grid: GridSpec = GridSpec()) -> tuple[float, Design]:
    """Grid LP for the optimal variance of the slope at z: h and the design.

    Writes c = f'(z) as h * (convex combination of +/- f(x_i)) with minimal h
    over the uniform grid augmented with the exact closed-form support
    points; the optimal variance over that support set is h^2.  The LP is
    posed in the unit basis of :mod:`slopedesign.basis`, whose entries are at
    most 1 whatever a is.  The LP of the last problem and grid is kept as
    G alone, the mirror columns -G staying implicit, with one factor of the
    basis its next solve starts from: first the closed-form support, then
    the last optimal basis.  Each solve swaps the basic columns that went
    negative for their mirrors; a priced basis of which it swapped none or
    all is still optimal, and any other basis restarts a revised primal
    simplex there, priced from the kept inverse, with no phase 1.  The
    solve gives the columns of x that are positive, each +g(u_j) or -g(u_j)
    of one grid point, in the order of those points, and their values.  h
    is their sum, taken with math.fsum: it is correctly rounded, so h does
    not depend on the order of the values or on the zeros of the columns
    off the basis, and any solver that ends on the same x gives the same h
    bit for bit.  The design puts on each such point its value over that
    sum; it is built from Python floats.
    """
    if grid.m < problem.n + 1:
        raise ValueError("grid must have at least n+1 points")
    rhs, factor = _unit_slope(problem, z)
    lp = _grid_lp(problem, grid)
    columns, values = lp.solve(np.array(rhs))
    total = math.fsum(values.tolist())
    return total * factor, Design(lp.points[columns % lp.points.size].tolist(),
                                  (values / total).tolist())


def restricted_weights(problem: DesignProblem,
                       z: float) -> tuple[float, tuple[float, ...]]:
    """Best weights (and variance) for the slope at z on the closed-form
    support, pinned: the competitor that the optimal design beats outside
    the admissible region.

    Solves G beta = c with G = (g(u_1) ... g(u_n)) at the support's unit
    points u_i = x_i / a, in the unit basis of :mod:`slopedesign.basis`;
    the variance sum_i beta_i^2 / w_i is minimized by w_i proportional to
    |beta_i|, with minimum (sum_i |beta_i|)^2, the sum taken with
    math.fsum.  beta is one product with the inverse of G that the grid
    LP's first basis keeps, for the same problem: a second construction, up
    to a common factor, of the L_i'(z) from which
    :func:`~slopedesign.elfving.variance` sums the closed form's variance.
    The weights are in the order of the points.
    """
    rhs, factor = _unit_slope(problem, z)
    order, _, inverse = _support_factor(problem)
    # order[k] is the point of the k-th entry, so argsort puts them back.
    beta = np.abs(inverse @ rhs)[np.argsort(order)].tolist()
    total = math.fsum(beta)
    root = total * factor
    return root * root, tuple(v / total for v in beta)


def compare(problem: DesignProblem, z: float,
            grid: GridSpec = GridSpec()) -> OracleReport:
    """Run all three routes at z and report how well they agree.

    Inside the region the LP must match the closed form within 1e-2 relative
    (grid discretization) and the restricted route within 1e-9; outside, the
    report exposes the LP-vs-restricted gap against ``margin_threshold``, a
    grid-resolution allowance relative to the LP variance,
    lp_variance * min(1, max(1e-6, 3 * (n * spacing / a)^2)), so that it
    scales as the variances do with a; it is written with spacing / a so
    that no power of a is formed, and as one product with lp_variance
    whose factor is at most 1, so that the threshold is finite whenever
    lp_variance is, on every grid.  lp_variance is h * h, which is inf
    where h^2 leaves the float range.  The grid holds the closed-form support
    exactly, so each LP point is matched to the closed-form point it
    equals; the weight of any other LP point is stray, and the largest one
    counts as a weight discrepancy.

    The closed-form variance, from :func:`~slopedesign.elfving.variance`,
    is a sum over the nodes with no matrix, so the 1e-9 check holds it
    against a second construction: the restricted route reads the inverse
    of the closed-form support's matrix that the LP's first basis keeps,
    and the LP that of its kept basis.  A covered target calls no LAPACK
    solve: a cold one inverts that one matrix, and a later one does only
    the work of z.
    """
    try:
        closed = optimal_design(problem, z)
    except NotCovered:
        closed = None
    h_lp, lp_design = lp_c_optimal(problem, z, grid)
    lp_var = h_lp * h_lp  # inf beyond the float range, where ** raises
    restricted_var, _ = restricted_weights(problem, z)

    margin_threshold = lp_var * min(1.0, max(
        1e-6, 3.0 * (problem.n * grid.spacing_fraction) ** 2))

    if closed is None:
        return OracleReport(False, None, lp_var, restricted_var, lp_design,
                            None, False, margin_threshold)

    cf_var = variance(problem, closed, z)
    index = {x: k for k, x in enumerate(closed.points)}
    lp_on_support = [0.0] * len(closed.points)
    stray = 0.0
    for x, w in zip(lp_design.points, lp_design.weights):
        k = index.get(x)
        if k is None:
            stray = max(stray, w)
        else:
            lp_on_support[k] += w
    disc = max(max(abs(wc - wl) for wc, wl
                   in zip(closed.weights, lp_on_support)), stray)
    agrees = (abs(lp_var - cf_var) <= 1e-2 * cf_var
              and abs(restricted_var - cf_var) <= 1e-9 * cf_var)
    return OracleReport(True, cf_var, lp_var, restricted_var, lp_design,
                        disc, agrees, margin_threshold)

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
A basis is n grid points, each with the sign v_i = +/-1 of Elfving's
representation.  Only the right-hand side c = f'(z) depends on the target,
so each n x n matrix is inverted once and kept while it is in use: one
factor of the closed-form support's columns, B and B^-1, is kept per
problem, and both the LP's first basis and the fixed-support route read it
(the closed form's variance is a sum over the nodes and reads none); the
LP keeps one factor of the unsigned columns of its basis, first that one,
from which every solve starts, and the signs beside it.  A basic point
whose value a new target drives negative has its sign flipped, which
touches neither B nor B^-1, and the simplex prices with the kept B^-1,
its rows signed; only a basis a pivot reached is inverted again.  A
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
                basis: list) -> tuple[int, bool]:
    # The leaving row for the entering column d = B^-1 a_j, and whether the
    # step is degenerate.  A tie goes to the smaller basis entry: the order
    # of the entries is the one total order of the columns that Bland's
    # rule needs.
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


def _factor(basis, matrix: np.ndarray) -> tuple:
    # The columns of matrix at the indices of a final basis, in the order
    # given, their matrix B and B^-1, from which every x on that basis is
    # taken: x then depends only on the basis and not on the pivots that
    # led there.  The grid LP gives its points in ascending order.
    basis = np.asarray(basis)
    # One memory order for B, in which B x rounds the same for every caller.
    matrix = np.ascontiguousarray(matrix[:, basis])
    try:
        return basis, matrix, np.linalg.inv(matrix)
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


def _entering(v: np.ndarray, stall: int) -> tuple[int, float] | None:
    # The entering grid point and its sign, at reduced costs 1 - v of +g and
    # 1 + v of -g.  Dantzig's rule while the objective moves: the most
    # negative reduced cost, the first on a tie, so +g before -g.  After 30
    # degenerate steps in a row, Bland's rule against cycling: the first +g,
    # else the first -g, whose reduced cost is below -_TOL.  None when none
    # is.
    plus, minus = 1.0 - v, 1.0 + v
    if stall < 30:
        j, k = plus.argmin(), minus.argmin()
        if minus[k] < plus[j]:
            return None if minus[k] >= -_TOL else (int(k), -1.0)
        return None if plus[j] >= -_TOL else (int(j), 1.0)
    for sign, reduced in ((1.0, plus), (-1.0, minus)):
        below = np.flatnonzero(reduced < -_TOL)
        if below.size:
            return int(below[0]), sign
    return None


class _GridLP:
    """The grid LP of one problem: min sum(x) subject to
    sum_j x_j v_j g(u_j) = rhs, x >= 0, over the signs v_j = +/-1 of
    Elfving's representation, with G[k-1, j] = g_k(u_j) of
    :mod:`slopedesign.basis` on the unit grid u = x / a, and the basis the
    next solve starts from.  Only G is stored: the column of -g(u_j) is
    -G[:, j].

    A basis is n grid points, each with a sign.  ``factor`` holds its
    points in ascending order, the unsigned matrix B of their columns
    g(u_j) and B^-1, as _factor gives them; ``signs`` holds their signs.
    The first basis is the closed-form support, which the grid holds
    exactly, with every sign +1.  ``priced`` says whether pricing found the
    basis optimal.  Only the right-hand side depends on the target, and the
    costs never change, so every solve takes x = B^-1 rhs, refined once,
    flips the sign of each point whose signed value is negative and takes
    |x|, which leaves the basis primal feasible.  A flip touches neither B
    nor B^-1.  Reduced costs do not depend on the right-hand side, and
    those of the global flip, 1 - v and 1 + v, only swap, so a priced basis
    that flipped no sign or every sign is still optimal.  Any other basis
    restarts a revised primal simplex there (Chvatal, Linear Programming,
    1983, ch. 7-10) on the signed inverse diag(signs) B^-1, which is bit
    for bit the inverse of the signed columns, since LU with partial
    pivoting rounds alike in either sign: y = 1.B^-1 prices both signs with
    one product v = y.G, at reduced costs 1 - v and 1 + v, and each pivot
    takes B^-1 (+/-g_j) as the entering column and updates B^-1 by rank
    one.  When the updated inverse prices out, the basis it ends on is
    factored afresh and priced again from that factor, so a drifted inverse
    cannot end the solve.
    """

    def __init__(self, problem: DesignProblem, grid: GridSpec):
        support = np.asarray(support_points(problem))
        self.points = np.unique(np.concatenate([grid.points(problem), support]))
        self.G = np.array(unit_basis.values(problem.n, self.points / problem.a))
        # The support's factor with its positions relabelled to grid indices.
        self.factor = (np.searchsorted(self.points, support),
                       *_support_factor(problem)[1:])
        self.signs = np.ones(problem.n)
        self.priced = False

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The optimal x: the grid points of the final basis, in ascending
        order, and their values, with every other entry 0; at a degenerate
        optimum, only the positive ones.  x is the kept inverse of the
        final basis times rhs, refined once."""
        x = self.signs * _solution(self.factor, rhs)
        flipped = x < 0
        if flipped.any():
            self.signs = np.where(flipped, -self.signs, self.signs)
            x = np.abs(x)
        if not (self.priced and (flipped.all() or not flipped.any())):
            x = self._restart(x, rhs)
        # The optimal bases of a degenerate optimum differ in columns at 0;
        # solving on the positive columns makes x the same for all of them.
        points, matrix, _ = self.factor
        np.maximum(x, 0.0, out=x)
        positive = x > 1e-12 * x.sum()
        if positive.all():
            return points, x
        try:
            return points[positive], np.linalg.lstsq(
                matrix[:, positive] * self.signs[positive], rhs,
                rcond=None)[0]
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"degenerate optimum: {exc}") from exc

    def _restart(self, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        # x on the optimal basis the primal simplex reaches from the kept
        # factor, on which x is primal feasible; that basis is kept.  The
        # pivots key each basic column (sign < 0, j), the order in which
        # _entering's Bland rule takes the columns.
        G = self.G
        stall = pivots = 0
        while True:
            points, _, inverse = self.factor
            inverse = self.signs[:, None] * inverse
            entering = _entering(inverse.sum(axis=0) @ G, stall)
            if entering is None:
                self.priced = True
                return x
            basis = list(zip((self.signs < 0).tolist(), points.tolist()))
            while entering is not None:
                if pivots == _MAX_ITER:
                    raise NumericalFailure("simplex iteration cap exceeded")
                pivots += 1
                j, sign = entering
                d = inverse @ G[:, j]
                if sign < 0:
                    np.negative(d, out=d)
                row, degenerate = _ratio_test(d, x, basis)
                stall = stall + 1 if degenerate else 0
                basis[row] = (sign < 0, j)
                inverse[row] /= d[row]
                x[row] /= d[row]
                d[row] = 0.0
                inverse -= d[:, None] * inverse[row]
                x -= d * x[row]
                entering = _entering(inverse.sum(axis=0) @ G, stall)
            negative, points = zip(*sorted(basis, key=operator.itemgetter(1)))
            self.factor = _factor(points, G)
            self.signs = np.where(negative, -1.0, 1.0)
            x = self.signs * _solution(self.factor, rhs)


_grid_lp = lru_cache(maxsize=1)(_GridLP)  # (problem, grid) -> its LP


@lru_cache(maxsize=1)
def _support_factor(problem: DesignProblem) -> tuple:
    # _factor of the columns g(x_i / a) at the closed-form support, with the
    # positions 0..n-1 of its points as the basis: the grid LP's first
    # basis, and the matrix whose inverse gives the restricted route's beta.
    # Neither writes to its arrays.
    u = np.asarray(support_points(problem)) / problem.a
    return _factor(range(problem.n), np.array(unit_basis.values(problem.n, u)))


def lp_c_optimal(problem: DesignProblem, z: float,
                 grid: GridSpec = GridSpec()) -> tuple[float, Design]:
    """Grid LP for the optimal variance of the slope at z: h and the design.

    Writes c = f'(z) as h * (convex combination of +/- f(x_i)) with minimal h
    over the uniform grid augmented with the exact closed-form support
    points; the optimal variance over that support set is h^2.  The LP is
    posed in the unit basis of :mod:`slopedesign.basis`, whose entries are at
    most 1 whatever a is.  The LP of the last problem and grid is kept as
    G alone, with one factor of the basis its next solve starts from, n
    grid points and a sign for each: first the closed-form support, then
    the last optimal basis.  Each solve flips the signs of the basic points
    whose values went negative; a priced basis of which it flipped none or
    all is still optimal, and any other basis restarts a revised primal
    simplex there, priced from the kept inverse, with no phase 1.  The
    solve gives the grid points of x that are positive, each entering as
    +g(u_j) or -g(u_j), in ascending order, and their values.  h
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
    points, values = lp.solve(np.array(rhs))
    total = math.fsum(values.tolist())
    return total * factor, Design(lp.points[points].tolist(),
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
    beta = np.abs(_support_factor(problem)[2] @ rhs).tolist()
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

"""Independent numerical cross-checks of the closed-form designs.

Two routes that share no code with the closed-form construction:

* a grid linear program over conv{+/- f(x)} whose optimal objective h gives
  the optimal variance h^2 among all designs supported on the grid, and
* a fixed-support weight optimizer that solves the n x n moment system
  directly and minimizes the variance over weights in closed form.

Inside the admissible region all three routes must agree; outside, the LP
beats the fixed support by a measurable margin, which is exactly the evidence
that the closed form does not extend there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .designs import (BoundaryPoint, Design, DesignProblem, NotCovered,
                      optimal_design, support_points)
from .elfving import slope_vector, variance


class Infeasible(Exception):
    """The equality constraints admit no nonnegative solution."""


class NumericalFailure(RuntimeError):
    """The simplex exceeded its iteration cap or ended on a singular basis
    (hard bug signal)."""


class SingularSupport(ValueError):
    """Support points coincide or include 0, so the moment system is singular."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of m points spanning [0, a]."""

    m: int = 2001

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("grid needs at least 2 points")

    def points(self, problem: DesignProblem) -> np.ndarray:
        # a * k / (m-1) rather than linspace: grids with m and 2m-1 points
        # are then bitwise nested, which the refinement tests rely on.
        return problem.a * np.arange(self.m) / (self.m - 1)

    @property
    def spacing_fraction(self) -> float:
        return 1.0 / (self.m - 1)


@dataclass(frozen=True)
class OracleReport:
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


# --- dense-tableau primal simplex with Bland's rule --------------------------

_PIVOT_TOL = 1e-11
_MAX_ITER = 50000
_TOL = 1e-9


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    other = tableau[:, col].copy()
    other[row] = 0.0
    tableau -= np.outer(other, tableau[row])
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def _simplex_loop(tableau: np.ndarray, basis: list[int], ncols: int,
                  max_iter: int, tol: float) -> None:
    # Last tableau row holds reduced costs; optimal when none is < -tol.
    # Entering rule: most negative reduced cost while the objective moves,
    # Bland's smallest-index rule during degenerate stalls (anti-cycling).
    stall = 0
    for _ in range(max_iter):
        reduced = tableau[-1, :ncols]
        if stall < 30:
            col = int(np.argmin(reduced))
            if reduced[col] >= -tol:
                return
        else:
            candidates = np.nonzero(reduced < -tol)[0]
            if candidates.size == 0:
                return
            col = int(candidates[0])
        best_key = None
        best_row = -1
        for i in range(len(basis)):
            a = tableau[i, col]
            if a > _PIVOT_TOL:
                key = (max(tableau[i, -1], 0.0) / a, basis[i])
                if best_key is None or key < best_key:
                    best_key, best_row = key, i
        if best_row < 0:
            raise NumericalFailure("unbounded pivot direction")
        stall = stall + 1 if best_key[0] <= 0.0 else 0
        _pivot(tableau, basis, best_row, col)
    raise NumericalFailure("simplex iteration cap exceeded")


def _two_phase(cost, A, b, max_iter: int,
               tol: float) -> tuple[list[int], list[int]]:
    """Optimal basis of min cost.x, A x = b, x >= 0, from the artificial
    basis, and the rows of A it spans (redundant rows are dropped)."""
    m, k = A.shape
    sign = np.where(b < 0, -1.0, 1.0)
    tableau = np.zeros((m + 1, k + m + 1))
    tableau[:m, :k] = A * sign[:, None]
    tableau[:m, k:k + m] = np.eye(m)
    tableau[:m, -1] = b * sign
    basis = list(range(k, k + m))
    # Phase-1 reduced costs for the artificial basis.
    tableau[m, :k] = -tableau[:m, :k].sum(axis=0)
    tableau[m, -1] = -tableau[:m, -1].sum()
    _simplex_loop(tableau, basis, k + m, max_iter, tol)
    if -tableau[m, -1] > 1e-7 * max(1.0, abs(b).max()):
        raise Infeasible("right-hand side is outside the feasible cone")

    # Drive artificials (at value 0) out of the basis; drop redundant rows.
    keep = []
    for i in range(m):
        if basis[i] < k:
            keep.append(i)
            continue
        row = tableau[i, :k]
        nz = np.nonzero(np.abs(row) > _PIVOT_TOL)[0]
        if nz.size:
            _pivot(tableau, basis, i, int(nz[0]))
            keep.append(i)
    if len(keep) < m:
        tableau = tableau[keep + [m]]
        basis = [basis[i] for i in keep]
    # The artificial columns stay in the tableau but can no longer enter.
    _phase2(tableau, basis, cost, max_iter, tol)
    return basis, keep


def _phase2(tableau: np.ndarray, basis: list[int], cost: np.ndarray,
            max_iter: int, tol: float) -> None:
    # The tableau holds B^-1 A and B^-1 b for a primal-feasible basis B.
    rows = tableau[:-1]
    k = cost.size
    tableau[-1, :k] = cost - cost[basis] @ rows[:, :k]
    tableau[-1, -1] = -float(cost[basis] @ rows[:, -1])
    _simplex_loop(tableau, basis, k, max_iter, tol)


def _basic_solution(A: np.ndarray, b: np.ndarray, basis: list[int],
                    rows: list[int]) -> np.ndarray:
    # One solve on the sorted basis, so that x depends only on the basis the
    # simplex ends on and not on the pivots that led there.
    order = sorted(basis)
    x = np.zeros(A.shape[1])
    try:
        x[order] = np.linalg.solve(A[np.ix_(rows, order)], b[rows])
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"singular final basis: {exc}") from exc
    np.maximum(x, 0.0, out=x)
    return x


def simplex_minimize(cost, A, b, max_iter: int = _MAX_ITER,
                     tol: float = _TOL) -> tuple[np.ndarray, float]:
    """Solve min cost.x subject to A x = b, x >= 0 (two-phase primal).

    Deterministic dense tableau; x comes from one linear solve on the sorted
    optimal basis.  Raises :class:`Infeasible` when the phase-1 objective
    stays positive and :class:`NumericalFailure` on the iteration cap.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    cost = np.asarray(cost, dtype=float)
    basis, rows = _two_phase(cost, A, b, max_iter, tol)
    x = _basic_solution(A, b, basis, rows)
    return x, float(cost @ x)


def _divide_powers(c, scale: float) -> np.ndarray:
    # c_k / scale^k, k = 1..n, by k successive divisions: scale^k itself
    # overflows long before the quotient does.
    out = np.array(c, dtype=float)
    with np.errstate(all="ignore"):
        for k in range(out.size):
            out[k:] /= scale
    if not np.all(np.isfinite(out)):
        raise OverflowError("c_k / scale^k overflows")
    return out


class _GridLP:
    """The grid LP of one problem: min sum(x) subject to [U, -U] x = rhs,
    x >= 0, with U[k-1, j] = u_j^k on the unit grid u = x / a, and the
    optimal basis of the last solve.

    Only the right-hand side depends on the target, and the costs never
    change, so a later target restarts from the last optimal basis: basic
    columns that went negative are swapped for their mirrors, which leaves
    the basis primal feasible, and phase 2 runs only if pricing finds a
    negative reduced cost (Chvatal, Linear Programming, 1983, ch. 10).
    """

    def __init__(self, problem: DesignProblem, grid: GridSpec):
        self.points = np.unique(np.concatenate(
            [grid.points(problem), np.asarray(support_points(problem))]))
        u = self.points / problem.a
        cols = np.vander(u, problem.n + 1, increasing=True)[:, 1:].T
        self.matrix = np.hstack([cols, -cols])
        self.basis: list[int] | None = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The optimal x; the first solve runs the cold two-phase simplex."""
        cost = np.ones(self.matrix.shape[1])
        if self.basis is None:
            basis, rows = _two_phase(cost, self.matrix, rhs, _MAX_ITER, _TOL)
        else:
            basis, rows = self._restart(rhs, cost), list(range(rhs.size))
        x = _basic_solution(self.matrix, rhs, basis, rows)
        self.basis = basis if len(rows) == rhs.size else None
        return x

    def _restart(self, rhs: np.ndarray, cost: np.ndarray) -> list[int]:
        A = self.matrix
        half = A.shape[1] // 2
        basis = np.array(self.basis)
        x_b = np.linalg.solve(A[:, basis], rhs)
        neg = x_b < 0
        basis[neg] = (basis[neg] + half) % (2 * half)
        B = A[:, basis]
        y = np.linalg.solve(B.T, cost[basis])
        # Reduced costs are 1 - y.f(u_j) and 1 + y.f(u_j) for the mirror.
        if 1.0 - np.abs(y @ A[:, :half]).max() >= -_TOL:
            return basis.tolist()
        tableau = np.empty((rhs.size + 1, A.shape[1] + 1))
        tableau[:-1, :-1] = np.linalg.solve(B, A)
        tableau[:-1, basis] = np.eye(rhs.size)
        tableau[:-1, -1] = np.abs(x_b)
        basis = basis.tolist()
        _phase2(tableau, basis, cost, _MAX_ITER, _TOL)
        return basis


@lru_cache(maxsize=1)
def _grid_lp(problem: DesignProblem, grid: GridSpec) -> _GridLP:
    return _GridLP(problem, grid)


def lp_c_optimal(problem: DesignProblem, c,
                 grid: GridSpec = GridSpec()) -> tuple[float, Design]:
    """Grid LP for the optimal variance: h and the optimizing design.

    Writes c as h * (convex combination of +/- f(x_i)) with minimal h over the
    uniform grid augmented with the exact closed-form support points; the
    optimal variance over that support set is h^2.  The LP is posed on the
    unit interval, with columns u^k for u = x / a and right-hand side
    c_k / a^k, so its entries are at most 1 whatever a is.  The LP of the
    last problem and grid is kept, and a new target restarts from its
    optimal basis.
    """
    n = problem.n
    c = np.asarray(c, dtype=float)
    if c.shape != (n,) or not np.any(c):
        raise ValueError("c must be a nonzero vector of length n")
    if grid.m < n + 1:
        raise ValueError("grid must have at least n+1 points")
    rhs = _divide_powers(c, problem.a)
    lp = _grid_lp(problem, grid)
    x = lp.solve(rhs)
    pts = lp.points
    mass = x[:pts.size] + x[pts.size:]
    sel = mass > 1e-12 * mass.sum()
    w = mass[sel] / mass[sel].sum()
    return float(x.sum()), Design(pts[sel], w)


def restricted_weights(support, c) -> tuple[float, tuple[float, ...]]:
    """Best weights (and variance) for a design pinned to the given support.

    Solves the n x n system F beta = c with F = (f(s_1) ... f(s_n)); the
    variance sum_i beta_i^2 / w_i is minimized by w_i proportional to
    |beta_i|, with minimum (sum_i |beta_i|)^2.
    """
    c = np.asarray(c, dtype=float)
    s = np.asarray(support, dtype=float)
    n = c.size
    if s.size != n:
        raise ValueError("support size must match the length of c")
    smax = np.max(np.abs(s))
    tol = 1e-12 * smax
    if np.any(np.abs(s) <= tol):
        raise SingularSupport("a support point sits at 0, where f vanishes")
    if n > 1 and np.min(np.diff(np.sort(s))) <= tol:
        raise SingularSupport("support points coincide within 1e-12 * max|s|")
    # F(s) beta = c and F(s / smax) beta = (c_k / smax^k) have the same
    # beta, and the second system cannot overflow.
    big_f = np.vander(s / smax, n + 1, increasing=True)[:, 1:].T
    try:
        beta = np.linalg.solve(big_f, _divide_powers(c, smax))
    except np.linalg.LinAlgError as exc:
        raise SingularSupport(str(exc)) from exc
    total = float(np.sum(np.abs(beta)))
    return total ** 2, tuple(float(v) for v in np.abs(beta) / total)


def compare(problem: DesignProblem, z: float,
            grid: GridSpec = GridSpec()) -> OracleReport:
    """Run all three routes at z and report how well they agree.

    Inside the region the LP must match the closed form within 1e-2 relative
    (grid discretization) and the restricted route within 1e-9; outside, the
    report exposes the LP-vs-restricted gap against ``margin_threshold``, a
    grid-resolution allowance max(1e-6, 3 * lp_variance * (n * spacing / a)^2),
    written with spacing / a so that no power of a is formed.
    """
    n, a = problem.n, problem.a
    c = slope_vector(n, z)
    try:
        closed = optimal_design(problem, z)
    except (NotCovered, BoundaryPoint):
        closed = None
    h_lp, lp_design = lp_c_optimal(problem, c, grid)
    lp_var = h_lp ** 2
    restricted_var, _ = restricted_weights(support_points(problem), c)

    spacing = a * grid.spacing_fraction
    margin_threshold = max(1e-6,
                           3.0 * lp_var * (n * grid.spacing_fraction) ** 2)

    if closed is None:
        return OracleReport(False, None, lp_var, restricted_var, lp_design,
                            None, False, margin_threshold)

    cf_var = variance(closed, c)
    lp_on_support = [0.0] * len(closed.points)
    stray = 0.0
    for x, w in zip(lp_design.points, lp_design.weights):
        dists = [abs(x - s) for s in closed.points]
        k = dists.index(min(dists))
        if dists[k] <= 0.5 * spacing:
            lp_on_support[k] += w
        else:
            stray = max(stray, w)
    disc = max(max(abs(wc - wl) for wc, wl
                   in zip(closed.weights, lp_on_support)), stray)
    agrees = (abs(lp_var - cf_var) <= 1e-2 * cf_var
              and abs(restricted_var - cf_var) <= 1e-9 * cf_var)
    return OracleReport(True, cf_var, lp_var, restricted_var, lp_design,
                        disc, agrees, margin_threshold)

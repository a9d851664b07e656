"""The dense-tableau two-phase primal simplex, the reference LP solver of
the tests.

It solves any min cost.x subject to A x = b, x >= 0 from the artificial
basis, with no start taken from the problem, so the tests can compare the
package's grid LP against an optimum it did not help to find.  The final
basis is factored and solved exactly as the grid LP factors and solves its
own, through the package's ``_factor`` and ``_solution``, so that on the
same basis the two give the same x bit for bit.  On the grid LP's matrix
[G, -G], which the tests form for it, its order of the basic columns is
the grid LP's: the signed columns in the order of their grid points.
"""

from __future__ import annotations

import numpy as np

from slopedesign.oracle import (_MAX_ITER, _PIVOT_TOL, _TOL, NumericalFailure,
                                _factor, _ratio_test, _solution)


class Infeasible(Exception):
    """The equality constraints admit no nonnegative solution."""


def _choose_pivot(tableau: np.ndarray, basis: list[int], ncols: int,
                  stall: int, tol: float) -> tuple[int, int, bool] | None:
    """One simplex step on the tableau: (entering column, leaving row,
    whether the step is degenerate), or None when no reduced cost of the
    first ``ncols`` columns is below -tol.

    Entering rule: most negative reduced cost while the objective moves,
    Bland's smallest-index rule after 30 degenerate steps (anti-cycling).
    Ratio test over the rows whose pivot exceeds _PIVOT_TOL, ties broken by
    the smaller basic column.
    """
    reduced = tableau[-1, :ncols]
    if stall < 30:
        col = int(np.argmin(reduced))
        if reduced[col] >= -tol:
            return None
    else:
        candidates = np.nonzero(reduced < -tol)[0]
        if candidates.size == 0:
            return None
        col = int(candidates[0])
    row, degenerate = _ratio_test(tableau[:-1, col], tableau[:-1, -1], basis)
    return col, row, degenerate


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
    # The last tableau row holds the reduced costs, the last column B^-1 b.
    stall = 0
    for _ in range(max_iter):
        step = _choose_pivot(tableau, basis, ncols, stall, tol)
        if step is None:
            return
        col, row, degenerate = step
        stall = stall + 1 if degenerate else 0
        _pivot(tableau, basis, row, col)
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
                    size: int) -> np.ndarray:
    # The basic columns sorted by their magnitudes, lexicographically from
    # the first row, then by index, so that a column and its negation take
    # the same place.  On the grid LP's [G, -G] that is the order of the grid
    # points, since the first row g_1(u) = u rises with u: the order in which
    # the grid LP factors its own basis.
    basis = np.asarray(basis)
    by_size = np.lexsort((basis, *np.abs(A[:, basis])[::-1]))
    factor = _factor(basis[by_size], A)
    x = np.zeros(size)
    x[factor[0]] = _solution(factor, b)
    np.maximum(x, 0.0, out=x)
    return x


def simplex_minimize(cost, A, b, max_iter: int = _MAX_ITER,
                     tol: float = _TOL) -> tuple[np.ndarray, float]:
    """Solve min cost.x subject to A x = b, x >= 0 (two-phase primal).

    Deterministic dense tableau; x is the inverse of the optimal basis, its
    columns in a canonical order, times b, refined once.  Raises
    :class:`Infeasible` when the phase-1 objective stays positive and
    :class:`NumericalFailure` on the iteration cap.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    cost = np.asarray(cost, dtype=float)
    basis, rows = _two_phase(cost, A, b, max_iter, tol)
    x = _basic_solution(A[rows], b[rows], basis, A.shape[1])
    return x, float(cost @ x)

"""High-precision reference for the c-optimal slope design, written apart from
the package: it imports nothing from ``slopedesign``.

Everything is computed in mpmath from the nodes ``{0} ∪ {s_j}``:

* the support points ``s_j``, the extremal points of the rescaled Chebyshev
  polynomial ``T_n(u)`` with ``u = x (1 + c) / a - c`` and ``c = cos(pi/2n)``;
* the intercept-free Lagrange basis derivatives ``L_i'(z)`` in product form,
  hence the weights ``|L_i'(z)| / sum_j |L_j'(z)|`` and the optimal variance
  ``(sum_j |L_j'(z)|)^2``;
* the roots of ``L_i'``: ``L_i`` has the simple zeros ``0`` and ``s_j`` (j != i),
  so by Rolle each gap between consecutive zeros holds exactly one root, which
  is found by a bracketing solver inside that gap;
* the admissible region: interval j runs from the (j-1)-th root of ``L_1'`` to
  the j-th root of ``L_n'``;
* the variance ``c^T M^- c`` of an arbitrary design, through the weighted
  least-squares form used to recheck an LP oracle's output.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath

mp = mpmath.MPContext()
mp.dps = 40


def _mpf(x):
    return mp.mpf(x)


class Problem:
    """Reference objects for one ``(n, a)``; all values are mpf."""

    def __init__(self, n: int, a: float):
        if n < 1 or not a > 0:
            raise ValueError("need n >= 1 and a > 0")
        self.n = n
        self.a = _mpf(a)
        c = mp.cos(mp.pi / (2 * n))
        self.c = c
        self.points = [self.a * (mp.cos((n - k) * mp.pi / n) + c) / (1 + c)
                       for k in range(1, n + 1)]
        # D_i = s_i * prod_{j != i} (s_i - s_j), so L_i(x) = g_i(x) / D_i with
        # g_i(x) = x * prod_{j != i} (x - s_j).
        self.denoms = []
        for i, si in enumerate(self.points):
            d = si
            for j, sj in enumerate(self.points):
                if j != i:
                    d *= si - sj
            self.denoms.append(d)
        self._roots = {}

    # --- basis derivatives --------------------------------------------------

    def _zeros(self, i: int) -> list:
        """Zeros of L_i (0-based i), ascending: 0 and s_j for j != i."""
        return [_mpf(0)] + [s for j, s in enumerate(self.points) if j != i]

    def deriv(self, i: int, x) -> "mpmath.mpf":
        """L_i'(x) for 0-based i: g_i(x) * sum_r 1/(x - r) over the zeros r
        of L_i, or the plain product rule when x sits on a zero."""
        x = _mpf(x)
        diffs = [x - r for r in self._zeros(i)]
        if all(diffs):
            total = mp.fprod(diffs) * mp.fsum(1 / d for d in diffs)
        else:
            total = mp.fsum(mp.fprod(d for m, d in enumerate(diffs) if m != k)
                            for k in range(len(diffs)))
        return total / self.denoms[i]

    def derivs(self, x) -> list:
        return [self.deriv(i, x) for i in range(self.n)]

    def weights(self, z) -> list:
        vals = [abs(v) for v in self.derivs(z)]
        total = mp.fsum(vals)
        return [v / total for v in vals]

    def optimal_variance(self, z) -> "mpmath.mpf":
        """(sum_i |L_i'(z)|)^2, the optimal variance inside the region."""
        return mp.fsum(abs(v) for v in self.derivs(z)) ** 2

    # --- roots and region ---------------------------------------------------

    def roots(self, i: int) -> list:
        """The n-1 roots of L_i' (0-based i), ascending, one per Rolle gap."""
        if i not in self._roots:
            zeros = self._zeros(i)
            out = []
            for lo, hi in zip(zeros, zeros[1:]):
                out.append(mp.findroot(lambda x: self.deriv(i, x), (lo, hi),
                                       solver="anderson"))
            self._roots[i] = out
        return self._roots[i]

    def region(self) -> list:
        """Admissible intervals as (lo, hi) mpf pairs, with -inf/+inf ends."""
        n = self.n
        if n == 1:
            return [(-mp.inf, mp.inf)]
        first, last = self.roots(0), self.roots(n - 1)
        return [(-mp.inf if j == 1 else first[j - 2],
                 mp.inf if j == n else last[j - 1]) for j in range(1, n + 1)]

    def locate(self, z) -> int | None:
        """1-based interval index holding z, or None in a gap."""
        z = _mpf(z)
        for j, (lo, hi) in enumerate(self.region(), start=1):
            if lo < z < hi:
                return j
        return None

    # --- plot columns -------------------------------------------------------

    def extremal(self, x) -> "mpmath.mpf":
        """T_n(x (1 + c) / a - c), the equioscillating polynomial."""
        u = _mpf(x) * (1 + self.c) / self.a - self.c
        return mp.chebyt(self.n, u)


def slope_vector(n: int, z) -> list:
    z = _mpf(z)
    return [k * z ** (k - 1) for k in range(1, n + 1)]


def design_variance(n: int, z, points, weights) -> "mpmath.mpf":
    """c^T M^- c of an arbitrary design, or +inf when c is not estimable.

    With F the n x k matrix of model vectors at the points, c must lie in the
    column space of F; then c^T M^- c = min sum_i beta_i^2 / w_i over
    F beta = c, which for linearly independent columns is the unique beta.
    """
    pts = [_mpf(x) for x in points]
    ws = [_mpf(w) for w in weights]
    k = len(pts)
    if k > n:
        raise ValueError("designs with more than n points are not supported")
    f = mp.matrix(n, k)
    for col, x in enumerate(pts):
        for row in range(n):
            f[row, col] = x ** (row + 1)
    c = mp.matrix(slope_vector(n, z))
    beta, resid = mp.qr_solve(f, c)
    if resid > mp.mpf(10) ** (-20) * mp.norm(c):
        return mp.inf
    return mp.fsum(beta[i] ** 2 / ws[i] for i in range(k))


@lru_cache(maxsize=512)
def problem(n: int, a: float) -> Problem:
    return Problem(n, a)


def to_float(x) -> float:
    return float(x) if mp.isfinite(x) else math.copysign(math.inf, float(x))

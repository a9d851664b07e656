"""Closed-form optimal designs for slope estimation on [0, a].

The support is the set of extremal points of a rescaled Chebyshev polynomial,
the weights come from the derivatives of the Lagrange basis without intercept,
and the target points z for which this recipe is optimal form a union of n
open intervals bounded by roots of those derivatives.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

from .polynomial import Degenerate, Poly


class AllDerivativesVanish(ArithmeticError):
    """Every basis derivative is ~0 at z; weights are undefined."""


class NotCovered(Exception):
    """z lies outside the admissible region; no closed-form design exists."""

    def __init__(self, z: float, region: "AdmissibleRegion"):
        super().__init__(f"z={z!r} is not in the admissible region")
        self.z = z
        self.region = region


class BoundaryPoint(Exception):
    """z coincides with a finite region endpoint; a weight degenerates to 0."""

    def __init__(self, z: float, endpoint: float):
        super().__init__(f"z={z!r} coincides with region endpoint {endpoint!r}")
        self.z = z
        self.endpoint = endpoint


@dataclass(frozen=True)
class DesignProblem:
    """Degree-n model x, x^2, ..., x^n observed on the interval [0, a]."""

    n: int
    a: float

    def __post_init__(self):
        # operator.index takes any integer type (numpy's too) and no float;
        # bool is an int subclass and is refused on its own.
        try:
            n = operator.index(self.n)
        except TypeError:
            n = None
        if n is None or isinstance(self.n, bool) or n < 1:
            raise ValueError("n must be an integer >= 1")
        object.__setattr__(self, "n", n)
        if not (isinstance(self.a, (int, float)) and math.isfinite(self.a)
                and self.a > 0):
            raise ValueError("a must be a finite positive real")
        object.__setattr__(self, "a", float(self.a))


@dataclass(frozen=True)
class Design:
    """Finite probability measure: strictly increasing points, positive weights."""

    points: tuple[float, ...]
    weights: tuple[float, ...]

    def __init__(self, points, weights):
        pts = tuple(float(x) for x in points)
        ws = tuple(float(w) for w in weights)
        if len(pts) != len(ws) or not pts:
            raise ValueError("points and weights must be nonempty, same length")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("points must be strictly increasing")
        if any(w <= 0 for w in ws):
            raise ValueError("weights must be positive")
        if abs(math.fsum(ws) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", ws)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class AdmissibleRegion:
    """Ordered union of open intervals for z, with the labeled boundary roots.

    ``intervals[j-1]`` is the j-th interval; the first lower endpoint is -inf
    and the last upper endpoint is +inf.  ``boundary_roots[i-1]`` holds the
    ascending roots of the i-th basis derivative.
    """

    intervals: tuple[tuple[float, float], ...]
    boundary_roots: tuple[tuple[float, ...], ...]

    def locate(self, z: float, boundary_tol: float = 1e-10):
        """Classify z: ("inside", j) with 1-based j, ("boundary", endpoint),
        or ("outside", None).

        ``boundary_tol`` is absolute here; :func:`optimal_design` and
        :func:`~slopedesign.elfving.certify` pass their tolerance times a.
        """
        z = float(z)
        for lo, hi in self.intervals:
            for e in (lo, hi):
                if math.isfinite(e) and abs(z - e) <= boundary_tol:
                    return ("boundary", e)
        for j, (lo, hi) in enumerate(self.intervals, start=1):
            if lo < z < hi:
                return ("inside", j)
        return ("outside", None)

    def __contains__(self, z: float) -> bool:
        return self.locate(z)[0] == "inside"


@lru_cache(maxsize=256)
def _unit_nodes(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    # The support points of the problem on [0, 1] and the denominators
    # D_i = s_i * prod_{j != i} (s_i - s_j) of the basis L_i = g_i / D_i.
    c = math.cos(math.pi / (2 * n))
    den = 1.0 + c
    s = tuple((math.cos((n - k) * math.pi / n) + c) / den
              for k in range(1, n + 1))
    denoms = tuple(si * math.prod(si - sj for j, sj in enumerate(s) if j != i)
                   for i, si in enumerate(s))
    return s, denoms


def support_points(problem: DesignProblem) -> tuple[float, ...]:
    """The n extremal points of the rescaled Chebyshev polynomial, ascending.

    The k-th ascending point is a * (cos((n-k) pi / n) + cos(pi/2n)) /
    (1 + cos(pi/2n)); the largest is exactly a.
    """
    return tuple(problem.a * x for x in _unit_nodes(problem.n)[0])


def basis_derivatives(problem: DesignProblem, z: float) -> tuple[float, ...]:
    """The values L_i'(z), i = 1..n, of the intercept-free basis derivatives.

    With g_i(x) = x * prod_{j != i} (x - s_j), L_i = g_i / D_i.  The
    derivative of g_i is taken from prefix and suffix products of its linear
    factors, so nothing divides by z - s_j and the nodes need no special
    case.  The problem is scale-equivariant, L_i(z) = L_i^unit(z / a), so the
    products run over the nodes on [0, 1] and the result is scaled by 1 / a.
    """
    s, denoms = _unit_nodes(problem.n)
    a = problem.a
    u = float(z) / a
    d = [u - x for x in s]
    # p[i] = u * prod_{j < i} d_j and dp[i] = p[i]'; q and dq likewise for
    # prod_{j > i} d_j, built while walking i downwards.
    p, dp = [u], [1.0]
    for k in range(len(s) - 1):
        dp.append(dp[k] * d[k] + p[k])
        p.append(p[k] * d[k])
    out = [0.0] * len(s)
    q, dq = 1.0, 0.0
    for i in range(len(s) - 1, -1, -1):
        out[i] = (dp[i] * q + p[i] * dq) / (denoms[i] * a)
        dq = dq * d[i] + q
        q *= d[i]
    return tuple(out)


@lru_cache(maxsize=256)
def _basis_cached(problem: DesignProblem) -> tuple[Poly, ...]:
    s = support_points(problem)
    n = problem.n
    out = []
    for i in range(n):
        num = Poly((0.0, 1.0))
        den = s[i]
        for j in range(n):
            if j == i:
                continue
            num = num * Poly((-s[j], 1.0))
            den *= s[i] - s[j]
        out.append(num * (1.0 / den))
    return tuple(out)


def lagrange_basis(problem: DesignProblem) -> tuple[Poly, ...]:
    """Interpolation basis without intercept: L_i(s_j) = delta_ij, L_i(0) = 0.

    Each polynomial has degree exactly n and an exactly zero constant term.
    A coefficient view for reporting; the design path never builds it.
    """
    return _basis_cached(problem)


@lru_cache(maxsize=256)
def weight_functions(problem: DesignProblem) -> tuple[Poly, ...]:
    """Derivatives of the intercept-free Lagrange basis (degree n-1 each),
    as monomial coefficients; :func:`basis_derivatives` evaluates them."""
    return tuple(p.derivative() for p in _basis_cached(problem))


def weights_at(problem: DesignProblem, z: float) -> tuple[float, ...]:
    """Normalized absolute basis-derivative values |L_i'(z)| / sum_j |L_j'(z)|."""
    vals = [abs(v) for v in basis_derivatives(problem, z)]
    total = math.fsum(vals)
    if total < 1e-14:
        raise AllDerivativesVanish(f"all basis derivatives vanish at z={z!r}")
    return tuple(v / total for v in vals)


_MAX_STEPS = 100
_STEP_TOL = 1e-10


def _rolle_root(zeros: tuple[float, ...], k: int) -> float:
    # The one root of sum_r 1/(x - r) over the zeros r of L_i between
    # zeros[k] and zeros[k + 1]: that sum falls strictly from +inf to -inf
    # there.  Newton runs on the pole-free form
    # F(x) = (x - lo)(hi - x) sum_r 1/(x - r), with F(lo) > 0 > F(hi), inside
    # a bracket that shrinks with the sign of F; a step that leaves the
    # bracket is replaced by bisection.  A step below _STEP_TOL of the gap
    # ends the iteration; the quadratic convergence of Newton then leaves an
    # error at the rounding level of F.
    lo, hi = zeros[k], zeros[k + 1]
    others = zeros[:k] + zeros[k + 2:]
    left, right = lo, hi
    tol = _STEP_TOL * (hi - lo)
    x = 0.5 * (lo + hi)
    for _ in range(_MAX_STEPS):
        s1 = s2 = 0.0
        for r in others:
            t = 1.0 / (x - r)
            s1 += t
            s2 += t * t
        w = (x - lo) * (hi - x)
        f = (hi - x) - (x - lo) + w * s1
        if f > 0.0:
            left = x
        else:
            right = x
        df = (hi + lo - 2.0 * x) * s1 - 2.0 - w * s2
        if df < 0.0:
            step = f / df
            if abs(step) <= tol:
                return x - step
            if left < x - step < right:
                x -= step
                continue
        x = 0.5 * (left + right)
    raise Degenerate(f"no convergence in ({lo!r}, {hi!r}) after "
                     f"{_MAX_STEPS} steps")


@lru_cache(maxsize=256)
def _region_cached(problem: DesignProblem, tol: float) -> AdmissibleRegion:
    n, a = problem.n, problem.a
    if n == 1:
        return AdmissibleRegion(((-math.inf, math.inf),), ((),))
    s, _ = _unit_nodes(n)
    # L_i has the simple zeros 0 and s_j (j != i); by Rolle, each gap between
    # consecutive zeros holds exactly one root of L_i'.  Solved on [0, 1].
    roots = []
    for i in range(n):
        zeros = (0.0,) + s[:i] + s[i + 1:]
        roots.append(tuple(a * _rolle_root(zeros, k) for k in range(n - 1)))
    intervals = []
    for j in range(1, n + 1):
        lo = -math.inf if j == 1 else roots[0][j - 2]
        hi = math.inf if j == n else roots[n - 1][j - 1]
        if not lo < hi:
            raise Degenerate(f"interval {j} is empty: [{lo!r}, {hi!r}]")
        intervals.append((lo, hi))
    for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
        if not hi < lo:
            raise Degenerate("region intervals are not disjoint")
    return AdmissibleRegion(tuple(intervals), tuple(roots))


def admissible_region(problem: DesignProblem,
                      tol_root: float = 1e-12) -> AdmissibleRegion:
    """The n open z-intervals on which the closed-form design is optimal.

    Interval j runs from the (j-1)-th root of the first basis derivative to
    the j-th root of the last one (conventionally -inf and +inf at the ends).
    ``tol_root`` is the absolute tolerance of those roots: each is solved on
    [0, 1] down to the rounding level of double precision, a few 1e-16 * a,
    which meets any tolerance above that.
    """
    return _region_cached(problem, float(tol_root))


def optimal_design(problem: DesignProblem, z: float,
                   boundary_tol: float = 1e-10,
                   tol_root: float = 1e-12) -> Design:
    """The closed-form optimal design for slope estimation at z.

    For n = 1 all mass sits at a regardless of z.  For n > 1 the design exists
    only for z strictly inside the admissible region; :class:`NotCovered` and
    :class:`BoundaryPoint` report the other cases explicitly.  A z within
    ``boundary_tol * a`` of a finite region endpoint is a boundary point: the
    tolerance is relative to a.
    """
    if problem.n == 1:
        return Design((problem.a,), (1.0,))
    region = admissible_region(problem, tol_root)
    kind, info = region.locate(z, boundary_tol * problem.a)
    if kind == "boundary":
        raise BoundaryPoint(z, info)
    if kind == "outside":
        raise NotCovered(z, region)
    return Design(support_points(problem), weights_at(problem, z))

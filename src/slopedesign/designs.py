"""Closed-form optimal designs for slope estimation on [0, a].

The support is the set of extremal points of a rescaled Chebyshev polynomial,
the weights come from the derivatives of the Lagrange basis without intercept,
and the target points z for which this recipe is optimal form a union of n
open intervals bounded by roots of those derivatives.  All of it is sums and
products over the n nodes, in pure Python; nothing here imports numpy.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property, lru_cache

from . import basis
from ._record import Record
from .polynomial import Degenerate


class DomainError(ValueError):
    """An input lies outside the domain that double precision can carry.

    ``input`` names it: ``"n"``, ``"a"`` or ``"z"``, or for the command
    line the flag (``"grid"``, ``"samples"``, ``"tol_cert"``).
    """

    def __init__(self, input: str, message: str):
        super().__init__(message)
        self.input = input


class NotCovered(Exception):
    """z lies outside the admissible region; no closed-form design exists."""

    def __init__(self, z: float, region: "AdmissibleRegion"):
        super().__init__(f"z={z!r} is not in the admissible region")
        self.z = z
        self.region = region


class BoundaryPoint(NotCovered):
    """z coincides with a finite region endpoint; a weight degenerates to 0."""

    def __init__(self, z: float, region: "AdmissibleRegion", endpoint: float):
        super().__init__(z, region)
        self.args = (f"z={z!r} coincides with region endpoint {endpoint!r}",)
        self.endpoint = endpoint


class DesignProblem(Record):
    """Degree-n model x, x^2, ..., x^n observed on the interval [0, a]."""

    __slots__ = ("n", "a")
    n: int
    a: float

    def __init__(self, n, a):
        # operator.index takes any integer type (numpy's too) and no float;
        # bool is an int subclass and is refused on its own.
        try:
            index = operator.index(n)
        except TypeError:
            index = None
        if index is None or isinstance(n, bool) or index < 1:
            raise DomainError("n", "n must be an integer >= 1")
        real = math.nan
        if isinstance(a, (int, float)) and not isinstance(a, bool):
            try:
                real = float(a)
            except OverflowError:  # an int beyond the float range
                pass
        if not (math.isfinite(real) and real > 0):
            raise DomainError("a", "a must be a finite positive real")
        super().__init__(index, real)


class Design(Record):
    """Finite probability measure: strictly increasing finite points, positive
    finite weights that sum to 1."""

    __slots__ = ("points", "weights")
    points: tuple[float, ...]
    weights: tuple[float, ...]

    def __init__(self, points, weights):
        pts = tuple(float(x) for x in points)
        ws = tuple(float(w) for w in weights)
        if len(pts) != len(ws) or not pts:
            raise ValueError("points and weights must be nonempty, same length")
        if not all(map(math.isfinite, pts)):
            raise ValueError("points must be finite")
        if not all(map(operator.lt, pts, pts[1:])):
            raise ValueError("points must be strictly increasing")
        if not all(map(math.isfinite, ws)):
            raise ValueError("weights must be finite")
        if any(w <= 0 for w in ws):
            raise ValueError("weights must be positive")
        if abs(math.fsum(ws) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        super().__init__(pts, ws)

    def __len__(self) -> int:
        return len(self.points)


# A target within this fraction of a of a finite region endpoint is a
# boundary point.  The problem is scale-equivariant in a, so the band is too.
_BOUNDARY_REL = 1e-10


class AdmissibleRegion(Record):
    """Ordered union of open intervals for z, with the labeled boundary roots.

    ``intervals[j-1]`` is the j-th interval; the first lower endpoint is -inf
    and the last upper endpoint is +inf.  ``a`` is the right end of the
    design interval, which sets the width of the boundary band.

    ``boundary_roots[i-1]`` holds the ascending roots of the i-th basis
    derivative of the degree n = len(intervals), scaled by ``a`` at each
    read.  The intervals use only those of the first and the last; the
    other n - 2 sets are solved on [0, 1] on the first read for the degree.
    """

    __slots__ = ("a", "intervals")
    a: float
    intervals: tuple[tuple[float, float], ...]

    @property
    def boundary_roots(self) -> tuple[tuple[float, ...], ...]:
        a = self.a
        return tuple(tuple(a * r for r in roots)
                     for roots in _unit_state(len(self.intervals)).roots)

    def locate(self, z: float):
        """Classify z: ("inside", j) with 1-based j, ("boundary", endpoint),
        or ("outside", None).

        z is a boundary point when it lies within 1e-10 * a of a finite
        endpoint.
        """
        z = float(z)
        band = _BOUNDARY_REL * self.a
        for lo, hi in self.intervals:
            for e in (lo, hi):
                if math.isfinite(e) and abs(z - e) <= band:
                    return ("boundary", e)
        for j, (lo, hi) in enumerate(self.intervals, start=1):
            if lo < z < hi:
                return ("inside", j)
        return ("outside", None)

    def __contains__(self, z: float) -> bool:
        return self.locate(z)[0] == "inside"


class _UnitState:
    """The problem of degree n on [0, 1], which every [0, a] scales: the
    support is a * s, the region endpoints are a * r, and the extremal
    polynomial is S(x / a).  Each field is a cached property, built on its
    first read and kept; no caller pays for one it skips.
    """

    def __init__(self, n: int):
        self.n = n

    @cached_property
    def s(self):
        n = self.n
        c = math.cos(math.pi / (2 * n))
        return tuple((math.cos((n - k) * math.pi / n) + c) / (1.0 + c)
                     for k in range(1, n + 1))

    @cached_property
    def denoms(self):
        # D_i = s_i prod_{j != i} (s_i - s_j) of the basis L_i = g_i / D_i.
        s = self.s
        return tuple(si * math.prod(si - sj for sj in s[:i] + s[i + 1:])
                     for i, si in enumerate(s))

    def _roots_of(self, i: int) -> tuple[float, ...]:
        # The n - 1 ascending roots of L_i' (0-based i).  L_i has the simple
        # zeros 0 and s_j (j != i); by Rolle, each gap between consecutive
        # zeros holds exactly one root of L_i'.
        zeros = (0.0,) + self.s[:i] + self.s[i + 1:]
        return tuple(_rolle_root(zeros, k) for k in range(self.n - 1))

    @cached_property
    def ends(self):
        # Interval j runs from the (j-1)-th root of L_1' to the j-th root of
        # L_n', so the endpoints, -inf and inf at the ends, alternate between
        # the two sets.
        first, last = self._roots_of(0), self._roots_of(self.n - 1)
        ends = [-math.inf, *(x for pair in zip(last, first) for x in pair),
                math.inf]
        if not all(map(operator.lt, ends, ends[1:])):
            raise Degenerate(f"degree {self.n}: region intervals overlap")
        return tuple(ends)

    @cached_property
    def roots(self):
        n, ends = self.n, self.ends[1:-1]
        return tuple(ends[1::2] if i == 0 else ends[0::2] if i == n - 1
                     else self._roots_of(i) for i in range(n))

    @cached_property
    def p(self):
        # The coefficients p_1..p_n of the extremal polynomial on the unit
        # basis, S(u) = T_n((1 + c) u - c) = sum_k p_k g_k(u) with
        # c = cos(pi / 2n).  S(0) = 0, so S(u) / u = sum_k p_k T_{k-1}(2u - 1)
        # has degree n - 1, and its Chebyshev coefficients follow from its
        # values at the n Chebyshev points 2u - 1 = cos(theta_j) by discrete
        # orthogonality (Trefethen, Approximation Theory and Approximation
        # Practice, 2013, ch. 3-4).  With (1 + c) u - c = cos(phi) and
        # -c = cos(psi), S(u) / u = (1 + c) (cos n phi - cos n psi) /
        # (cos phi - cos psi) is a product of two ratios sin(n x) / sin(x),
        # which divides nothing by u and makes p exactly (1,) at n = 1.
        n = self.n
        c = math.cos(math.pi / (2 * n))
        psi = math.pi - math.pi / (2 * n)
        thetas = [math.pi * (j + 0.5) / n for j in range(n)]
        q = []
        for theta in thetas:
            phi = math.acos((1.0 + c) * math.cos(0.5 * theta) ** 2 - c)
            s, d = 0.5 * (psi + phi), 0.5 * (psi - phi)
            q.append((1.0 + c) * (math.sin(n * s) / math.sin(s))
                     * (math.sin(n * d) / math.sin(d)))
        # cos(k theta_j) = cos(pi k (2j + 1) / 2n), read from a table of
        # the 4n cosines cos(pi r / 2n) at r = k (2j + 1) mod 4n: the angle
        # is reduced exactly, where k * theta_j carries the rounding of
        # theta_j times k.
        table = [math.cos(math.pi * r / (2 * n)) for r in range(4 * n)]
        p = [2.0 / n * math.fsum(qj * table[k * (2 * j + 1) % (4 * n)]
                                 for j, qj in enumerate(q))
             for k in range(n)]
        p[0] *= 0.5
        return tuple(p)

    @cached_property
    def cond1(self):
        # max |S| - 1 over [0, 1], taken at 0, at 1, at the interior nodes
        # and at the critical points of S.  For the exact p those are the
        # nodes; a sign change of S' across each bracket between 0, the
        # midpoints of neighbouring nodes and 1 leaves room for one root
        # each, so refining them finds all the critical points of p.  A p
        # whose S' breaks that pattern is not extremal: its margin is inf.
        p = self.p
        inner = self.s[:-1]
        edges = (0.0, *((x + y) / 2 for x, y in zip(inner, inner[1:])), 1.0)
        critical = basis.local_extrema(p, edges, inner)
        if critical is None:
            return math.inf
        return max(map(abs, basis.series(p, (0.0, 1.0, *inner,
                                             *critical)))) - 1.0

    @cached_property
    def support_rows(self):
        return _rows_at(self.n, self.p, self.s)


_unit_state = lru_cache(maxsize=256)(_UnitState)


def _rows_at(n: int, p, us) -> tuple[tuple, tuple, tuple]:
    # Certify's rows at the points x = a u: the model vectors g(u), p . g(u)
    # before the sign of p is fixed, and the residuals ||p . g| - 1|.
    rows = tuple(basis.values(n, u) for u in us)
    dots = tuple(math.fsum(map(operator.mul, p, g)) for g in rows)
    return rows, dots, tuple(abs(abs(v) - 1.0) for v in dots)


def support_points(problem: DesignProblem) -> tuple[float, ...]:
    """The n extremal points of the rescaled Chebyshev polynomial, ascending.

    The k-th ascending point is a * (cos((n-k) pi / n) + cos(pi/2n)) /
    (1 + cos(pi/2n)); the largest is exactly a.
    """
    return tuple([problem.a * x for x in _unit_state(problem.n).s])


def basis_derivatives(problem: DesignProblem, z: float) -> tuple[float, ...]:
    """The values L_i'(z), i = 1..n, of the intercept-free basis derivatives.

    With g_i(x) = x * prod_{j != i} (x - s_j), L_i = g_i / D_i.  The
    derivative of g_i is taken from prefix and suffix products of its linear
    factors, so nothing divides by z - s_j and the nodes need no special
    case.  The problem is scale-equivariant, L_i(z) = L_i^unit(z / a), so the
    products run over the nodes on [0, 1] and the result is scaled by 1 / a.
    At a target of huge magnitude a value beyond the float range is +/-inf,
    never nan: no product of an overflowed factor with a zero is formed.
    A scale D_i * a that is 0 raises :class:`DomainError`, naming n when
    the unit denominator D_i is 0 (from n = 543), and a otherwise.
    """
    state = _unit_state(problem.n)
    s, denoms = state.s, state.denoms
    a = problem.a
    u = float(z) / a
    d = [u - x for x in s]
    # p[i] = u * prod_{j < i} d_j and dp[i] = p[i]'; q and dq likewise for
    # prod_{j > i} d_j, built while walking i downwards.
    p, dp = [u], [1.0]
    for k in range(len(s) - 1):
        dp.append(dp[k] * d[k] + p[k])
        p.append(p[k] * d[k])
    # At the last index q = 1 and dq = 0, so the derivative is dp alone:
    # p * dq there would be inf * 0 = nan once the prefix product overflows.
    out = [0.0] * len(s)
    try:
        out[-1] = dp[-1] / (denoms[-1] * a)
        q, dq = d[-1], 1.0
        for i in range(len(s) - 2, -1, -1):
            out[i] = (dp[i] * q + p[i] * dq) / (denoms[i] * a)
            dq = dq * d[i] + q
            q *= d[i]
    except ZeroDivisionError:
        # D_i is a product of n - 1 node differences below 1, and it alone
        # underflows from n = 543.
        if 0.0 in denoms:
            raise DomainError("n", f"n={problem.n} is too large: the "
                              "denominators D_i of the basis derivatives "
                              "underflow to 0") from None
        raise DomainError("a", f"a={a!r} is too small for n={problem.n}: "
                          "the scales of the basis derivatives underflow to "
                          "0 when multiplied by it") from None
    return tuple(out)


def _abs_derivatives(problem: DesignProblem,
                     z: float) -> tuple[list[float], float]:
    # |L_i'(z)| and their total: the weights' denominator and the h of the
    # certificate.  The basis reproduces x, sum_i s_i L_i'(z) = 1, so the
    # total is at least 1 / a and never zero.
    vals = [abs(v) for v in basis_derivatives(problem, z)]
    try:
        total = math.fsum(vals)
    except OverflowError:  # finite values whose sum leaves the float range
        total = math.inf
    if not math.isfinite(total):
        raise DomainError("z", f"z={z!r} is out of range: weights must be "
                          "finite, and h, the total of |L_i'(z)|, is not "
                          "finite")
    return vals, total


def weights_at(problem: DesignProblem, z: float) -> tuple[float, ...]:
    """Normalized absolute basis-derivative values |L_i'(z)| / sum_j |L_j'(z)|.

    Raises :class:`DomainError` naming z where that total is not finite.
    """
    vals, total = _abs_derivatives(problem, z)
    return tuple(v / total for v in vals)


def _rolle_root(zeros: tuple[float, ...], k: int) -> float:
    # The one root of sum_r 1/(x - r) over the zeros r of L_i between
    # zeros[k] and zeros[k + 1]: that sum falls strictly from +inf to -inf
    # there.  Newton runs on the pole-free form
    # F(x) = (x - lo)(hi - x) sum_r 1/(x - r), with F(lo) > 0 > F(hi), from
    # the middle of the gap.
    lo, hi = zeros[k], zeros[k + 1]
    others = zeros[:k] + zeros[k + 2:]

    def f_df(x):
        s1 = s2 = 0.0
        for r in others:
            t = 1.0 / (x - r)
            s1 += t
            s2 += t * t
        w = (x - lo) * (hi - x)
        return ((hi - x) - (x - lo) + w * s1,
                (hi + lo - 2.0 * x) * s1 - 2.0 - w * s2)

    root = basis.bracketed_newton(f_df, lo, hi, 0.5 * (lo + hi), False)
    if root is None:
        raise Degenerate(f"no convergence in ({lo!r}, {hi!r})")
    return root


def admissible_region(problem: DesignProblem) -> AdmissibleRegion:
    """The n open z-intervals on which the closed-form design is optimal.

    Interval j runs from the (j-1)-th root of the first basis derivative to
    the j-th root of the last one (conventionally -inf and +inf at the ends),
    so only those two root sets are solved here.  Each root is solved on
    [0, 1], once per n, to the rounding level of double precision, and
    scaled by a at each call; a subnormal a that merges two scaled endpoints
    raises :class:`DomainError`.
    """
    a = problem.a
    ends = [a * x for x in _unit_state(problem.n).ends]
    if not all(map(operator.lt, ends, ends[1:])):
        raise DomainError("a", f"a={a!r} is too small for n={problem.n}: the "
                          "admissible intervals collapse when scaled by it")
    return AdmissibleRegion(a, tuple(zip(ends[::2], ends[1::2])))


def _interval(problem: DesignProblem, z: float) -> int:
    # The 1-based index of the interval that holds z, for optimal_design and
    # certify alike.
    region = admissible_region(problem)
    kind, info = region.locate(z)
    if kind == "boundary":
        raise BoundaryPoint(z, region, info)
    if kind == "outside":
        raise NotCovered(z, region)
    return info


def optimal_design(problem: DesignProblem, z: float) -> Design:
    """The closed-form optimal design for slope estimation at z.

    The design exists only for z strictly inside the admissible region;
    :class:`NotCovered` reports the other cases, and its subclass
    :class:`BoundaryPoint` a z on a finite endpoint, within the band of
    :meth:`AdmissibleRegion.locate`.  For n = 1 the region is the whole
    line and all mass sits at a.
    A target of such magnitude, or an interval so short, that the weights
    are not finite raises :class:`DomainError`, as :func:`weights_at` does;
    :class:`Design` raises :class:`ValueError` should a subnormal a merge
    two support points.
    """
    _interval(problem, z)
    # Design checks the points too: a subnormal a can merge two of them.
    return Design(support_points(problem), weights_at(problem, z))

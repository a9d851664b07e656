"""The model basis of every numerical check: g_k(u) = u T_{k-1}(2u - 1),
k = 1..n, with u = x / a and T_m the Chebyshev polynomials.

It spans the model x, ..., x^n without intercept, and |g_k| <= 1 on [0, 1]
whatever a is.  Both c^T M^- c and Elfving's representation
c = h sum_i w_i v_i f(x_i) are invariant under an invertible change of basis
(Pukelsheim, Optimal Design of Experiments, 1993, ch. 2-3).  values and
slope take a float or a numpy array for u and return a list of the n
entries; series evaluates a series sum_k y_k g_k(u), and local_extrema finds
its critical points by bracketed_newton, the root finder that the region's
roots use too.  All use arithmetic only (no numpy import).
"""

from __future__ import annotations


def values(n: int, u):
    """The model vector (g_1(u), ..., g_n(u))."""
    t = 2.0 * u - 1.0
    out = [u]
    t_prev, t_cur = 1.0, t
    for _ in range(n - 1):
        out.append(u * t_cur)
        t_prev, t_cur = t_cur, 2.0 * t * t_cur - t_prev
    return out


def slope(n: int, u):
    """The derivatives (g_1'(u), ..., g_n'(u)) in u; the slope in x at
    x = a u is this vector divided by a.

    g_k' = T_{k-1}(t) + 2u T_{k-1}'(t) with t = 2u - 1, and the derivatives
    of the Chebyshev polynomials follow T_{m+1}' = 2 T_m + 2t T_m' - T_{m-1}'.
    """
    t = 2.0 * u - 1.0
    out = [u ** 0]  # 1.0, or ones of the shape of an array u
    t_prev, t_cur = 1.0, t
    d_prev, d_cur = 0.0, 1.0
    for _ in range(n - 1):
        out.append(t_cur + 2.0 * u * d_cur)
        t_prev, t_cur, d_prev, d_cur = (
            t_cur, 2.0 * t * t_cur - t_prev,
            d_cur, 2.0 * t_cur + 2.0 * t * d_cur - d_prev)
    return out


def series(y, us) -> list[float]:
    """sum_k y_k g_k(u) = u sum_k y_k T_{k-1}(2u - 1) at each u of us, by
    Clenshaw's recurrence."""
    return [u * _chebyshev(y, 2.0 * u - 1.0) for u in us]


def _chebyshev(c, t: float) -> float:
    # sum_j c_j T_j(t) by Clenshaw's recurrence.
    t2 = 2.0 * t
    b1 = b2 = 0.0
    for cj in c[:0:-1]:
        b1, b2 = cj + t2 * b1 - b2, b1
    return c[0] + t * b1 - b2


def _chebyshev_derivative(c) -> list[float]:
    # The coefficients of d/dt sum_j c_j T_j(t), from the top down by
    # c'_{j-1} = c'_{j+1} + 2j c_j, with c'_0 halved (Trefethen, ATAP,
    # 2013, ch. 3).
    m = len(c) - 1
    d = [0.0] * (m + 2)
    for j in range(m, 0, -1):
        d[j - 1] = d[j + 1] + 2.0 * j * c[j]
    d[0] *= 0.5
    return d[:max(m, 1)]


def local_extrema(y, edges, starts):
    """The critical points of S(u) = sum_k y_k g_k(u), one in each bracket
    (edges[i], edges[i + 1]), refined from starts[i] inside it; None when
    S' does not change sign strictly across some bracket.

    S' has degree len(y) - 1, so when it changes sign across that many
    disjoint brackets, each holds exactly one of its roots and these are all
    the critical points of S.  With t = 2u - 1 and Q(t) = sum_k y_k
    T_{k-1}(t), S = u Q, so S' = Q + (t + 1) dQ/dt and S'' = 2 dS'/dt: both
    are Chebyshev series in t, whose coefficients are formed once, and
    Clenshaw's recurrence evaluates them.  Each root is refined by
    :func:`bracketed_newton` on S' and S''; a bracket where it does not
    converge also gives None.
    """
    # S' adds (t + 1) dQ/dt to Q, with t T_0 = T_1 and
    # t T_j = (T_{j+1} + T_{j-1}) / 2; the appended zero makes room for the
    # T_1 term of a constant Q.
    d1 = list(y) + [0.0]
    for j, b in enumerate(_chebyshev_derivative(y)):
        d1[j] += b
        if j:
            d1[j + 1] += 0.5 * b
            d1[j - 1] += 0.5 * b
        else:
            d1[1] += b
    d2 = [2.0 * v for v in _chebyshev_derivative(d1)]
    slopes = [_chebyshev(d1, 2.0 * u - 1.0) for u in edges]

    def f_df(u):
        t = 2.0 * u - 1.0
        return _chebyshev(d1, t), _chebyshev(d2, t)

    out = []
    for lo, hi, f_lo, f_hi, x in zip(edges, edges[1:], slopes, slopes[1:],
                                     starts):
        if not (f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo):
            return None
        root = bracketed_newton(f_df, lo, hi, x, f_lo < 0.0)
        if root is None:
            return None
        out.append(root)
    return out


_MAX_STEPS = 100
_STEP_TOL = 1e-10


def bracketed_newton(f_df, lo, hi, x, rising):
    """The root of f in (lo, hi), across which f changes sign, rising from
    below 0 to above it or, when not ``rising``, falling; refined from x
    inside the bracket, and None when 100 steps do not reach it.

    f_df(x) gives f(x) and f'(x).  Newton runs inside a bracket that
    shrinks with the sign of f; a step that leaves the bracket, or one with
    f' = 0, is replaced by bisection.  A step below 1e-10 of the width of
    (lo, hi) ends the iteration; the quadratic convergence of Newton then
    leaves an error at the rounding level of f.
    """
    left, right = lo, hi
    tol = _STEP_TOL * (hi - lo)
    for _ in range(_MAX_STEPS):
        f, df = f_df(x)
        if (f < 0.0) == rising:
            left = x
        else:
            right = x
        if df:
            step = f / df
            if abs(step) <= tol:
                return x - step
            if left < x - step < right:
                x -= step
                continue
        x = 0.5 * (left + right)
    return None

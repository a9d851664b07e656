"""The model basis of every numerical check: g_k(u) = u T_{k-1}(2u - 1),
k = 1..n, with u = x / a and T_m the Chebyshev polynomials.

It spans the model x, ..., x^n without intercept, and |g_k| <= 1 on [0, 1]
whatever a is.  Both c^T M^- c and Elfving's representation
c = h sum_i w_i v_i f(x_i) are invariant under an invertible change of basis
(Pukelsheim, Optimal Design of Experiments, 1993, ch. 2-3).  Both functions
take a float or a numpy array for u, use arithmetic only (no numpy import),
and return a list of the n entries.
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

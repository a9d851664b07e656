"""The closed form, its variance, the emitted extremal polynomial and the
oracle against the independent mpmath reference of the benchmark
(``perfbench/reference.py``, which imports nothing from the package) over
n = 1..30 and a in {1e-8, 1, 1e8}.

The reference is evaluated on [0, 1] and carried to [0, a] by the exact
scale equivariance of the problem, in 40-digit arithmetic: roots scale by a,
L_i'(z) = L_i'^unit(z / a) / a, so the weights at z equal the unit weights
at z / a and h scales by 1 / a.
"""

import math
import sys
from pathlib import Path

import pytest

from slopedesign.designs import (DesignProblem, admissible_region,
                                 basis_derivatives, optimal_design, weights_at)
from slopedesign.elfving import extremal_value, variance
from slopedesign.oracle import compare

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import reference as R  # noqa: E402

SCALES = (1e-8, 1.0, 1e8)


def unit_targets(ref):
    """z = 0 and one point per admissible interval of the unit problem."""
    out = [R.mp.mpf(0)]
    for lo, hi in ref.region():
        if not R.mp.isfinite(lo) and not R.mp.isfinite(hi):
            lo, hi = -0.5, 1.5
        elif not R.mp.isfinite(lo):
            lo = hi - 0.5
        elif not R.mp.isfinite(hi):
            hi = lo + 0.5
        out.append((lo + hi) / 2)
    return out


@pytest.mark.parametrize("n", range(1, 31))
def test_roots_weights_and_h_match_reference(n):
    ref = R.problem(n, 1.0)
    targets = unit_targets(ref)
    for a in SCALES:
        problem = DesignProblem(n, a)
        got = admissible_region(problem).boundary_roots
        for i in {0, n - 1}:
            want = ref.roots(i)
            assert len(got[i]) == len(want) == n - 1
            for r, w in zip(got[i], want):
                assert abs(r - a * w) <= 1e-12 * a, (n, a, i + 1)
        for u in targets:
            z = float(u * a)
            zu = R.mp.mpf(z) / a
            mags = [abs(v) for v in ref.derivs(zu)]
            total = R.mp.fsum(mags)
            for w, m in zip(weights_at(problem, z), mags):
                assert abs(w - m / total) <= 1e-12, (n, a, z)
            h = math.fsum(abs(v) for v in basis_derivatives(problem, z))
            assert abs(h - total / a) <= 1e-12 * total / a, (n, a, z)


@pytest.mark.parametrize("n", range(1, 31))
def test_variance_matches_reference(n):
    ref = R.problem(n, 1.0)
    for a in SCALES:
        problem = DesignProblem(n, a)
        for u in unit_targets(ref):
            z = float(u * a)
            total = R.mp.fsum(abs(v) for v in ref.derivs(R.mp.mpf(z) / a))
            want = (total / a) ** 2
            got = variance(problem, optimal_design(problem, z), z)
            assert abs(got - want) <= 1e-12 * want, (n, a, z)


@pytest.mark.parametrize("n", range(1, 31))
def test_oracle_agrees_in_every_interval(n):
    # compare's own thresholds: the LP within 1e-2 of the closed form, the
    # restricted weights within 1e-9.  Its three variances are also checked
    # against the optimum to 1e-12: the grid holds the closed-form support,
    # so the LP's optimum is the closed form's.
    ref = R.problem(n, 1.0)
    targets = unit_targets(ref)[1:]
    for a in SCALES:
        problem = DesignProblem(n, a)
        for u in targets:
            z = float(u * a)
            report = compare(problem, z)
            assert report.covered and report.agrees, (n, a, z)
            total = R.mp.fsum(abs(v) for v in ref.derivs(R.mp.mpf(z) / a))
            want = (total / a) ** 2
            for got in (report.lp_variance, report.restricted_variance,
                        report.closed_form_variance):
                assert abs(got - want) <= 1e-12 * want, (n, a, z)


@pytest.mark.parametrize("n", range(1, 31))
def test_emitted_polynomial_matches_reference(n):
    # The certificate's polynomial sum_k p_k g_k(x / a) on a 2001-point grid,
    # to 1e-11 absolute.
    ref = R.problem(n, 1.0)
    us = [k / 2000 for k in range(2001)]
    want = [ref.extremal(R.mp.mpf(u)) for u in us]
    for a in SCALES:
        problem = DesignProblem(n, a)
        for u, w in zip(us, want):
            got = extremal_value(problem, a * u)
            # (a * u) / a may differ from u in the last bit, which moves S
            # by at most 2 n^2 * 1.1e-16 = 2e-13.
            assert abs(got - w) <= 1e-11, (n, a, u)

"""Command-line front end: designs, regions, certificates, oracle runs, plot data.

Every successful structured command prints exactly one JSON document on
stdout; ``plotdata`` prints CSV.  Diagnostics go to stderr.  Exit codes:
0 success (also when the reader closes stdout early), 2 target point not
covered, 64 usage, 65 bad input data, 70 internal numerical failure.

Each limit has one exception type, raised where it is detected, and
:func:`main` alone maps each to its exit code: a
:class:`~slopedesign.designs.DomainError`, an input outside the domain that
double precision can carry (its ``input`` names it: n, a, z or a flag), to
64; a design file that cannot be used to 65; and a numerical breakdown,
:class:`~slopedesign.polynomial.Degenerate` (which the oracle's
``NumericalFailure`` is) or an ``ArithmeticError``, to 70.  The commands
catch only :class:`~slopedesign.designs.NotCovered`, which ``design`` and
``check`` report as a document with exit 2, the design file's errors, and
the oracle's ``MemoryError``, which names ``--grid``.

Each command takes only the flags it reads: ``region`` takes ``--n`` and
``--a``, ``--tol-cert`` belongs to ``design`` and ``check``, whose
certificates take no grid, and ``--grid`` to ``oracle``, whose LP does.
Any other flag is a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from .designs import (BoundaryPoint, Design, DesignProblem, DomainError,
                      NotCovered, admissible_region, basis_derivatives,
                      optimal_design)
from .elfving import certify, extremal_value, variance
from .polynomial import Degenerate

EXIT_OK = 0
EXIT_NOT_COVERED = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70


class _DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's default matcher misses exponents, so it would read
        # `--z -5e-05` as an option; subparsers are built from this class.
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _endpoint(v: float):
    if v == math.inf:
        return "inf"
    if v == -math.inf:
        return "-inf"
    return v


def _region_payload(region) -> list:
    return [[_endpoint(lo), _endpoint(hi)] for lo, hi in region.intervals]


_quote = json.encoder.encode_basestring_ascii


def _json(o, pad: str = "\n") -> str:
    """o as ``json.dumps(o, indent=2, sort_keys=True, allow_nan=False)``
    writes it, for the str-keyed documents this module emits; ``pad`` is the
    newline and indentation of the line o starts on.

    With ``indent`` set, the stdlib encodes in Python through a chain of
    generators (before Python 3.13); this builds each container with one
    join, and a list of finite floats in a single one.
    """
    # No value is of two of these types but for bool, an int subclass, so
    # any order of the checks that tests True and False before int gives
    # json's output; the common types go first.
    if isinstance(o, float):
        if not math.isfinite(o):
            raise ValueError("Out of range float values are not JSON "
                             f"compliant: {o!r}")
        return float.__repr__(o)
    if isinstance(o, str):
        return _quote(o)
    inner = pad + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        if all(type(v) is float for v in o):
            body = ("," + inner).join(map(float.__repr__, o))
            if "n" not in body:  # no inf and no nan
                return "[" + inner + body + pad + "]"
        items = [_json(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [_quote(k) + ": " + _json(o[k], inner) for k in sorted(o)]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} "
                    "is not JSON serializable")


def _emit(command: str, inputs: dict, result, warnings: list[str]) -> None:
    doc = {
        "schema_version": "1",
        "command": command,
        "inputs": inputs,
        "result": result,
        "warnings": warnings,
    }
    sys.stdout.write(_json(doc) + "\n")


def _problem(args) -> DesignProblem:
    problem = DesignProblem(args.n, args.a)
    # Every command but plotdata --what extremal reads the region, which a
    # subnormal a can collapse, and all but it and region read the basis
    # derivatives, whose scales D_i * a do not depend on z: one row shows
    # whether any underflows to 0.
    if getattr(args, "what", None) != "extremal":
        admissible_region(problem)
        if args.command != "region":
            basis_derivatives(problem, 0.0)
    tol = getattr(args, "tol_cert", None)
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise DomainError("tol_cert", "--tol-cert must be finite and > 0")
    return problem


def _check_targets(args) -> None:
    zs = [args.z] if getattr(args, "z_list", None) is None else args.z_list
    if not all(math.isfinite(z) for z in zs):
        raise DomainError("z", "target points must be finite")


def _require_finite(z: float, values) -> None:
    # At a target of huge magnitude a variance or a margin overflows; no
    # JSON number can carry the result.
    if not all(math.isfinite(v) for v in values):
        raise DomainError("z", f"z={z!r} is out of range: its slope vector, "
                          "weights, h, variance or a certificate margin is "
                          "not finite")


def _cert_numbers(cert) -> tuple[float, ...]:
    return (cert.h, cert.h * cert.h, cert.condition1_margin,
            *cert.condition2_residuals, cert.condition3_residual)


def _missed_region(exc: NotCovered, warnings: list[str]) -> list:
    # The region that z misses, for the result of design or check; a z on a
    # region boundary also gets a warning.
    if isinstance(exc, BoundaryPoint):
        warnings.append(f"z={exc.z!r} lies on a region boundary (endpoint "
                        f"{exc.endpoint!r}); a support weight vanishes there")
    return _region_payload(exc.region)


def _design_payload(problem, z, args, warnings):
    try:
        design = optimal_design(problem, z)
    except NotCovered as exc:
        return {"covered": False,
                "region": _missed_region(exc, warnings)}, False
    cert = certify(problem, z, design, tol=args.tol_cert)
    _require_finite(z, _cert_numbers(cert))  # Design's weights are finite
    payload = {
        "covered": True,
        "points": list(design.points),
        "weights": list(design.weights),
        "variance": cert.h * cert.h,
        "certificate": cert.as_dict(),
    }
    return payload, True


def _cmd_design(args) -> int:
    problem = _problem(args)
    _check_targets(args)
    warnings: list[str] = []
    if args.z_list is not None:
        result, all_covered = [], True
        for z in args.z_list:
            payload, covered = _design_payload(problem, z, args, warnings)
            payload["z"] = z
            result.append(payload)
            all_covered = all_covered and covered
    else:
        result, all_covered = _design_payload(problem, args.z, args, warnings)
    inputs = {"n": args.n, "a": args.a, "tol_cert": args.tol_cert}
    if args.z_list is not None:
        inputs["z_list"] = args.z_list
    else:
        inputs["z"] = args.z
    _emit("design", inputs, result, warnings)
    return EXIT_OK if all_covered else EXIT_NOT_COVERED


def _cmd_region(args) -> int:
    problem = _problem(args)
    region = admissible_region(problem)
    result = {
        "intervals": _region_payload(region),
        "roots": {str(i + 1): list(rs)
                  for i, rs in enumerate(region.boundary_roots)},
    }
    _emit("region", {"n": args.n, "a": args.a}, result, [])
    return EXIT_OK


def _load_design_file(path: str) -> tuple[list, list]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _DataError(f"cannot read design file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _DataError(f"design file is not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and "result" in doc and isinstance(doc["result"], dict):
        doc = doc["result"]  # accept a `design` command envelope directly
    if not (isinstance(doc, dict) and "points" in doc and "weights" in doc):
        raise _DataError("design file must carry 'points' and 'weights'")
    return (_numbers("points", doc["points"]),
            _numbers("weights", doc["weights"]))


def _numbers(key: str, values) -> list:
    # JSON true/false load as bool, an int subclass; they are not numbers.
    if not (isinstance(values, list) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in values)):
        raise _DataError(f"'{key}' must be a JSON array of numbers")
    try:
        return [float(v) for v in values]
    except OverflowError as exc:  # an integer beyond the float range
        raise _DataError(f"'{key}' must be finite: {exc}") from exc


def _cmd_check(args) -> int:
    problem = _problem(args)
    _check_targets(args)
    warnings: list[str] = []
    points, weights = _load_design_file(args.design)
    if not all(math.isfinite(v) for v in points + weights):
        raise _DataError("points and weights must be finite")
    if not all(0.0 <= x <= problem.a for x in points):
        raise _DataError(f"design points must lie in [0, a] = [0, {args.a!r}]")
    total = math.fsum(weights)
    if abs(total - 1.0) > 1e-9:
        raise _DataError(f"weights sum to {total!r}, violating 1 within 1e-9")
    if abs(total - 1.0) > 1e-12:
        warnings.append("weights renormalized to sum exactly to 1")
    try:
        design = Design(points, [w / total for w in weights])
    except ValueError as exc:
        raise _DataError(f"invalid design: {exc}") from exc
    inputs = {"n": args.n, "a": args.a, "z": args.z, "design": args.design,
              "tol_cert": args.tol_cert}
    var = variance(problem, design, args.z)
    try:
        cert = certify(problem, args.z, design, tol=args.tol_cert)
    except NotCovered as exc:
        result = {"verdict": "z_outside_region",
                  "region": _missed_region(exc, warnings),
                  "variance": _endpoint(var)}
        _emit("check", inputs, result, warnings)
        return EXIT_NOT_COVERED
    _require_finite(args.z, _cert_numbers(cert))
    result = cert.as_dict()
    result["variance"] = _endpoint(var)
    _emit("check", inputs, result, warnings)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    # The oracle, the one module that needs numpy, is imported on first use.
    from . import oracle
    problem = _problem(args)
    if args.grid < args.n + 1:
        raise DomainError("grid", f"--grid must be >= {args.n + 1}")
    _check_targets(args)
    try:
        report = oracle.compare(problem, args.z, oracle.GridSpec(args.grid))
    except MemoryError as exc:
        # The grid LP holds a few doubles per grid point and degree.
        raise DomainError("grid", f"--grid {args.grid} is too large: the "
                          "grid LP does not fit in memory") from exc
    _require_finite(args.z, (report.lp_variance, report.restricted_variance,
                             report.closed_form_variance or 0.0,
                             report.margin_threshold))
    _emit("oracle", {"n": args.n, "a": args.a, "z": args.z,
                     "grid": args.grid}, report.as_dict(), [])
    return EXIT_OK


def _cmd_plotdata(args) -> int:
    problem = _problem(args)
    m = args.samples
    if m < 2:
        raise DomainError("samples", "--samples must be >= 2")
    # Both sample sets are formed on an a scaled below 1 by an exact power
    # of two, as GridSpec.points forms the oracle's grid, so (hi - lo) * k
    # cannot overflow, and each sample is the float the unscaled formula
    # gives wherever that does not overflow.  The extremal curve's x stays
    # in [0, a], which rounding can pass at the last sample, and z stays
    # below the largest float, which the padded window of weightderivs
    # passes at the largest a.
    extremal = args.what == "extremal"
    e = max(math.frexp(problem.a)[1], 0)
    lo, hi = 0.0, math.ldexp(problem.a, -e)
    top = hi if extremal else math.ldexp(sys.float_info.max, -e)
    if not extremal and problem.n > 1:
        # The smallest boundary root is the first root of L_n', the largest
        # the last root of L_1': the inner ends of the two outer intervals.
        region = admissible_region(problem)
        lo, hi = (math.ldexp(v, -e) for v in (region.intervals[0][1],
                                              region.intervals[-1][0]))
        pad = 0.1 * (hi - lo)
        lo, hi = lo - pad, hi + pad
    out = sys.stdout
    out.write("x,S\n" if extremal else
              "z," + ",".join(f"L{i}p" for i in range(1, problem.n + 1)) + "\n")
    for k in range(m):
        x = math.ldexp(min(lo + (hi - lo) * k / (m - 1), top), e)
        values = ((extremal_value(problem, x),) if extremal
                  else basis_derivatives(problem, x))
        out.write(f"{x:.17g}," + ",".join(f"{v:.17g}" for v in values) + "\n")
    return EXIT_OK


def _add_common(p, with_z=True, with_tol=True):
    p.add_argument("--n", type=int, required=True, help="polynomial degree (>= 1)")
    p.add_argument("--a", type=float, required=True, help="right interval endpoint (> 0)")
    if with_z:
        p.add_argument("--z", type=float, help="target point for the slope")
    if with_tol:
        p.add_argument("--tol-cert", dest="tol_cert", type=float, default=1e-10,
                       help="certificate margin tolerance (finite, > 0)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="slopedesign",
                     description="c-optimal designs for slope estimation in "
                                 "polynomial regression without intercept on [0, a]")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="compute and certify the optimal design")
    _add_common(p)
    p.add_argument("--z-list", dest="z_list", type=float, nargs="+",
                   help="batch of target points (results follow input order)")
    p.set_defaults(handler=_cmd_design)

    p = sub.add_parser("region", help="admissible z-intervals and boundary roots")
    _add_common(p, with_z=False, with_tol=False)
    p.set_defaults(handler=_cmd_region)

    p = sub.add_parser("check", help="certify a design read from a JSON file")
    _add_common(p)
    p.add_argument("--design", required=True, help="JSON file with points/weights")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("oracle", help="cross-check closed form vs LP and "
                                      "restricted-weight oracles")
    _add_common(p, with_tol=False)
    p.add_argument("--grid", type=int, default=2001,
                   help="grid points of the LP (>= n + 1)")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("plotdata", help="CSV curves (extremal polynomial or "
                                        "basis derivatives)")
    _add_common(p, with_z=False, with_tol=False)
    p.add_argument("--what", choices=("extremal", "weightderivs"), required=True)
    p.add_argument("--samples", type=int, default=500)
    p.set_defaults(handler=_cmd_plotdata)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "design":
        if args.z is None and args.z_list is None:
            parser.error("design requires --z or --z-list")
        if args.z is not None and args.z_list is not None:
            parser.error("design takes --z or --z-list, not both")
    elif getattr(args, "z", "absent") is None:
        parser.error(f"{args.command} requires --z")
    try:
        code = args.handler(args)
        # A reader that closed the pipe shows here rather than in the
        # interpreter's final flush, which would print a traceback.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader stopped reading (`plotdata ... | head`), which is its
        # choice and not an error.  Later flushes go to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (Degenerate, ArithmeticError) as exc:
        print(f"internal numerical failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

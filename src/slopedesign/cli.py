"""Command-line front end: designs, regions, certificates, oracle runs, plot data.

Every successful structured command prints exactly one JSON document on
stdout; ``plotdata`` prints CSV.  Diagnostics go to stderr.  Exit codes:
0 success (also when the reader closes stdout early), 2 target point not
covered, 64 usage, 65 bad input data, 70 internal numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from .designs import (BoundaryPoint, DesignProblem, Design, NotCovered,
                      admissible_region, basis_derivatives, optimal_design)
from .elfving import (ZOutsideRegion, _slope, certify, extremal_value,
                      slope_vector, variance)
from .polynomial import Degenerate

EXIT_OK = 0
EXIT_NOT_COVERED = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70


class _DataError(Exception):
    pass


class _InternalError(Exception):
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


def _emit(command: str, inputs: dict, result, warnings: list[str]) -> None:
    doc = {
        "schema_version": "1",
        "command": command,
        "inputs": inputs,
        "result": result,
        "warnings": warnings,
    }
    print(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False))


def _problem(args) -> DesignProblem:
    try:
        problem = DesignProblem(args.n, args.a)
    except ValueError as exc:
        raise _UsageExit(exc) from exc
    tol = getattr(args, "tol_cert", None)
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise _UsageExit("--tol-cert must be finite and > 0")
    return problem


def _check_grid_and_targets(args, min_grid: int) -> None:
    if args.grid < min_grid:
        raise _UsageExit(f"--grid must be >= {min_grid}")
    zs = [args.z] if getattr(args, "z_list", None) is None else args.z_list
    if not all(math.isfinite(z) for z in zs):
        raise _UsageExit("target points must be finite")


class _UsageExit(Exception):
    pass


def _require_finite(z: float, values) -> None:
    # A target of huge magnitude overflows the powers of z; no JSON number
    # can carry the result.
    if not all(math.isfinite(v) for v in values):
        raise _UsageExit(f"z={z!r} is out of range: its slope vector, "
                         "weights, h, variance or a certificate margin is "
                         "not finite")


def _cert_numbers(cert) -> tuple[float, ...]:
    return (cert.h, cert.h * cert.h, cert.condition1_margin,
            *cert.condition2_residuals, cert.condition3_residual)


def _design_payload(problem, z, args, warnings):
    try:
        design = optimal_design(problem, z)
    except BoundaryPoint as exc:
        warnings.append(
            f"z={z!r} lies on a region boundary (endpoint {exc.endpoint!r}); "
            "a support weight vanishes there")
        region = admissible_region(problem)
        return {"covered": False, "region": _region_payload(region)}, False
    except NotCovered as exc:
        return {"covered": False, "region": _region_payload(exc.region)}, False
    cert = certify(problem, z, design, grid_points=args.grid,
                   tol=args.tol_cert)
    _require_finite(z, (*design.weights, *_cert_numbers(cert)))
    payload = {
        "covered": True,
        "points": list(design.points),
        "weights": list(design.weights),
        "variance": cert.h ** 2,
        "certificate": cert.as_dict(),
    }
    return payload, True


def _cmd_design(args) -> int:
    problem = _problem(args)
    _check_grid_and_targets(args, 2)
    warnings: list[str] = []
    if args.z_list is not None:
        zs = args.z_list
        results = []
        all_covered = True
        for z in zs:
            payload, covered = _design_payload(problem, z, args, warnings)
            payload["z"] = z
            results.append(payload)
            all_covered = all_covered and covered
        result = results
    else:
        result, all_covered = _design_payload(problem, args.z, args, warnings)
    inputs = {"n": args.n, "a": args.a, "grid": args.grid,
              "tol_cert": args.tol_cert}
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
    return doc["points"], doc["weights"]


def _cmd_check(args) -> int:
    problem = _problem(args)
    _check_grid_and_targets(args, 2)
    warnings: list[str] = []
    points, weights = _load_design_file(args.design)
    try:
        points = [float(x) for x in points]
        weights = [float(w) for w in weights]
    except (TypeError, ValueError) as exc:
        raise _DataError(f"points and weights must be numbers: {exc}") from exc
    if not all(math.isfinite(v) for v in points + weights):
        raise _DataError("points and weights must be finite")
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
              "grid": args.grid, "tol_cert": args.tol_cert}
    _require_finite(args.z, _slope(args.n, args.z))
    var = variance(design, slope_vector(args.n, args.z))
    try:
        cert = certify(problem, args.z, design, grid_points=args.grid,
                       tol=args.tol_cert)
    except ZOutsideRegion as exc:
        result = {"verdict": "z_outside_region",
                  "region": _region_payload(exc.region),
                  "variance": _endpoint(var)}
        _emit("check", inputs, result, warnings)
        return EXIT_NOT_COVERED
    _require_finite(args.z, _cert_numbers(cert))
    result = cert.as_dict()
    result["variance"] = _endpoint(var)
    _emit("check", inputs, result, warnings)
    return EXIT_OK


def compare(problem, z: float, grid_points: int):
    """The three-route cross-check of :mod:`slopedesign.oracle`, which is
    imported here, on first use, because it needs numpy."""
    from .oracle import GridSpec, compare
    return compare(problem, z, GridSpec(grid_points))


def _cmd_oracle(args) -> int:
    from numpy.linalg import LinAlgError
    from .oracle import Infeasible, NumericalFailure, SingularSupport
    problem = _problem(args)
    _check_grid_and_targets(args, args.n + 1)
    _require_finite(args.z, _slope(args.n, args.z))
    try:
        report = compare(problem, args.z, args.grid)
    except OverflowError as exc:
        raise _UsageExit(f"z={args.z!r} is out of range: {exc}") from exc
    except (Infeasible, NumericalFailure, SingularSupport,
            LinAlgError) as exc:
        raise _InternalError(exc) from exc
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
        raise _UsageExit("--samples must be >= 2")
    out = sys.stdout
    if args.what == "extremal":
        out.write("x,S\n")
        for k in range(m):
            x = problem.a * k / (m - 1)
            out.write(f"{x:.17g},{extremal_value(problem, x):.17g}\n")
        return EXIT_OK
    region = admissible_region(problem)
    roots = [r for rs in region.boundary_roots for r in rs]
    if roots:
        lo, hi = min(roots), max(roots)
        pad = 0.1 * (hi - lo)
        lo, hi = lo - pad, hi + pad
    else:
        lo, hi = 0.0, problem.a
    out.write("z," + ",".join(f"L{i}p" for i in range(1, problem.n + 1)) + "\n")
    for k in range(m):
        z = lo + (hi - lo) * k / (m - 1)
        row = ",".join(f"{v:.17g}" for v in basis_derivatives(problem, z))
        out.write(f"{z:.17g},{row}\n")
    return EXIT_OK


def _add_common(p, with_z=True, with_tols=True):
    p.add_argument("--n", type=int, required=True, help="polynomial degree (>= 1)")
    p.add_argument("--a", type=float, required=True, help="right interval endpoint (> 0)")
    if with_z:
        p.add_argument("--z", type=float, help="target point for the slope")
    if with_tols:
        p.add_argument("--tol-cert", dest="tol_cert", type=float, default=1e-8,
                       help="certificate margin tolerance (finite, > 0)")
        p.add_argument("--grid", type=int, default=2001,
                       help="grid points for certificate / oracle checks")


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
    _add_common(p, with_z=False)
    p.set_defaults(handler=_cmd_region)

    p = sub.add_parser("check", help="certify a design read from a JSON file")
    _add_common(p)
    p.add_argument("--design", required=True, help="JSON file with points/weights")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("oracle", help="cross-check closed form vs LP and "
                                      "restricted-weight oracles")
    _add_common(p, with_tols=False)
    p.add_argument("--grid", type=int, default=2001)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("plotdata", help="CSV curves (extremal polynomial or "
                                        "basis derivatives)")
    _add_common(p, with_z=False, with_tols=False)
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
    except _UsageExit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (_InternalError, Degenerate, ArithmeticError) as exc:
        print(f"internal numerical failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

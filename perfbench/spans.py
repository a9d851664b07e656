"""Span wrappers around the public functions of each slopedesign layer.

``install(tracer)`` replaces each traced function by a wrapper in every
``slopedesign`` module that holds it, so the copies other modules imported by
name are traced too (``cli`` calls ``certify`` through its own global).  A
span records its duration; its self time is that duration minus the time of
the spans it encloses.  Very hot, very small functions get a call counter
instead of a span, which keeps the overhead of the traced run small.

Run as a script it is the traced CLI child:

    python3 -X importtime perfbench/spans.py STATS.json <slopedesign argv...>

which installs the spans, runs the CLI and writes the span totals to
STATS.json; the import times go to stderr as ``-X importtime`` prints them.
"""

from __future__ import annotations

import json
import sys
import time

SPANNED = {
    "cli": ("main",),
    "designs": ("admissible_region", "optimal_design", "weights_at"),
    "elfving": ("certify", "variance", "extremal_polynomial"),
    "oracle": ("compare", "lp_c_optimal", "simplex_minimize",
               "restricted_weights"),
    "polynomial": ("real_roots",),
}
COUNTED = {"elfving": ("extremal_value",)}
POLY_SPANNED = ("compose_affine",)
POLY_COUNTED = {"__call__": "call"}


class Tracer:
    """Per-name totals: calls, wall time and self time (seconds)."""

    def __init__(self):
        self.totals: dict[str, list] = {}
        self._stack: list[float] = []

    def span(self, name: str, fn):
        stats = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if stack:
                    stack[-1] += dt
        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        stats = self.totals.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            stats[0] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def as_dict(self) -> dict:
        return {k: {"calls": c, "total_s": t, "self_s": s}
                for k, (c, t, s) in self.totals.items()}


def _replace_everywhere(original, wrapper) -> None:
    for name, mod in list(sys.modules.items()):
        if name == "slopedesign" or name.startswith("slopedesign."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the traced names of every layer; names a version lacks are
    skipped, so their metrics read 0."""
    import importlib
    mods = {layer: importlib.import_module(f"slopedesign.{layer}")
            for layer in set(SPANNED) | set(COUNTED)}
    for table, make in ((SPANNED, tracer.span), (COUNTED, tracer.counter)):
        for layer, names in table.items():
            for name in names:
                fn = getattr(mods[layer], name, None)
                if fn is not None:
                    _replace_everywhere(fn, make(f"{layer}.{name}", fn))
    poly = getattr(mods["polynomial"], "Poly", None)
    if poly is None:
        return
    for name in POLY_SPANNED:
        if name in vars(poly):
            setattr(poly, name, tracer.span(f"polynomial.Poly.{name}",
                                            vars(poly)[name]))
    for name, label in POLY_COUNTED.items():
        if name in vars(poly):
            setattr(poly, name, tracer.counter(f"polynomial.Poly.{label}",
                                               vars(poly)[name]))


def _traced_cli(stats_path: str, argv: list) -> int:
    import slopedesign.cli
    tracer = Tracer()
    install(tracer)
    try:
        return slopedesign.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.as_dict(), fh)


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1], sys.argv[2:]))

"""In-process executor for the library workloads (oracle-sweep, domain-sweep).

    python3 perfbench/worker.py POOL.json SECONDS TRACE MIN_ROUNDS OUT.json

It imports slopedesign, runs whole rounds of the pool until SECONDS have
passed and at least MIN_ROUNDS rounds are done, and writes the wall time of
each call and each round, the first output of every distinct operation, any repeat whose output differs from that first one, and (with
TRACE 1) the span totals to OUT.json.  It runs in its own process so that its
peak memory is the program's and not the benchmark's.
"""

from __future__ import annotations

import json
import sys
import time


def cache_clearers() -> list:
    """cache_clear of every functools cache in the package, so that each
    "fresh" problem starts cold as it would in a new process."""
    out = []
    for name, mod in list(sys.modules.items()):
        if name == "slopedesign" or name.startswith("slopedesign."):
            for value in vars(mod).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    out.append(clear)
    return out


def _region_dict(region) -> dict:
    return {"intervals": [list(iv) for iv in region.intervals],
            "roots": [list(rs) for rs in region.boundary_roots]}


def main(pool_path: str, seconds: float, trace: bool, min_rounds: int,
         out_path: str) -> None:
    with open(pool_path, encoding="utf-8") as fh:
        pool = json.load(fh)
    import slopedesign as sd
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    clearers = cache_clearers()
    clock = time.perf_counter

    def run(op):
        problem = sd.DesignProblem(op["n"], op["a"])
        if op["kind"] == "compare":
            return sd.compare(problem, op["z"], sd.GridSpec(op["grid"]))
        region = sd.admissible_region(problem)
        results = []
        for z in op["zs"]:
            design = sd.optimal_design(problem, z)
            results.append((design, sd.certify(problem, z, design)))
        return region, results

    def output(op, raw):
        if op["kind"] == "compare":
            return raw.as_dict()
        region, results = raw
        return {"region": _region_dict(region),
                "designs": [{"points": list(d.points),
                             "weights": list(d.weights),
                             "h": c.h, "verdict": c.verdict}
                            for d, c in results]}

    calls, rounds, first, mismatched = [], [], {}, []
    start = clock()
    while len(rounds) < min_rounds or clock() - start < seconds:
        ri = len(rounds) % len(pool)
        round_start = clock()
        for oi, op in enumerate(pool[ri]):
            if op["kind"] == "domain" or op.get("fresh"):
                for clear in clearers:
                    clear()
            t0 = clock()
            try:
                raw = run(op)
            except Exception as exc:  # recorded and checked as a failure
                dt, out = clock() - t0, {"error": repr(exc)}
            else:
                dt = clock() - t0
                out = output(op, raw)
            key = f"{ri}.{oi}"
            if key not in first:
                first[key] = out
            elif out != first[key]:
                mismatched.append(key)
            calls.append([ri, oi, dt])
        rounds.append([ri, clock() - round_start])
    wall = clock() - start
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "rounds": rounds, "calls": calls,
                   "first": first, "mismatched": mismatched,
                   "spans": tracer.as_dict() if tracer else {}}, fh)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1", int(sys.argv[4]),
         sys.argv[5])

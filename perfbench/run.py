"""slopedesign benchmark: one command, four workloads, checked against mpmath.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --ledger [--seed N]

Run from the root of a source checkout; the program is the package under
``src/``.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  Each run also
writes its figures to ``perfbench/results/``.  ``--ledger`` runs every
distinct operation of every workload once and lists those that fail.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
RESULTS = HERE / "results"
PY = sys.executable
CLI_ENTRY = "import sys; from slopedesign.cli import main; sys.exit(main())"
SETUP_SAMPLES = 5  # before and again after the timed loop
IN_PROCESS = ("oracle-sweep", "domain-sweep")

# Per-layer metrics: name -> (unit, source).  A source "span:NAME:self" or
# "span:NAME:calls" reads the span totals; the rest are measured apart.
PER_LAYER = {
    "import.total_ms": ("ms/item", "import:total"),
    "import.numpy_ms": ("ms/item", "import:numpy"),
    "cli.self_ms": ("ms/item", "span:cli.main:self"),
    "cli.stdout_bytes": ("bytes/item", "stdout"),
    "designs.admissible_region.calls": (
        "calls/item", "span:designs.admissible_region:calls"),
    "designs.admissible_region.self_ms": (
        "ms/item", "span:designs.admissible_region:self"),
    "designs.optimal_design.self_ms": (
        "ms/item", "span:designs.optimal_design:self"),
    "designs.weights_at.self_ms": ("ms/item", "span:designs.weights_at:self"),
    "elfving.certify.self_ms": ("ms/item", "span:elfving.certify:self"),
    "elfving.extremal_value.calls": (
        "calls/item", "span:elfving.extremal_value:calls"),
    "elfving.extremal_polynomial.calls": (
        "calls/item", "span:elfving.extremal_polynomial:calls"),
    "elfving.variance.self_ms": ("ms/item", "span:elfving.variance:self"),
    "oracle.lp_c_optimal.self_ms": ("ms/item", "span:oracle.lp_c_optimal:self"),
    "oracle.simplex_minimize.self_ms": (
        "ms/item", "span:oracle.simplex_minimize:self"),
    "oracle.restricted_weights.self_ms": (
        "ms/item", "span:oracle.restricted_weights:self"),
    "oracle.tableau_cells": ("cells/item", "cells"),
    "polynomial.real_roots.calls": (
        "calls/item", "span:polynomial.real_roots:calls"),
    "polynomial.real_roots.self_ms": (
        "ms/item", "span:polynomial.real_roots:self"),
    "polynomial.Poly.call.calls": ("calls/item",
                                   "span:polynomial.Poly.call:calls"),
    "polynomial.Poly.compose_affine.self_ms": (
        "ms/item", "span:polynomial.Poly.compose_affine:self"),
    "trace.overhead_pct": ("%", "overhead"),
}


class Checkout:
    """The source tree under test and the environment its children run in."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        if not (self.src / "slopedesign" / "__init__.py").is_file():
            raise SystemExit(f"error: no slopedesign package under {self.src}")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + [p for p in
                               os.environ.get("PYTHONPATH", "").split(os.pathsep)
                               if p])

    def build(self) -> None:
        """Byte-compile the package, so no timed process compiles it."""
        subprocess.run([PY, "-m", "compileall", "-q", str(self.src)],
                       check=True, env=self.env, cwd=self.root)
        found = subprocess.run(
            [PY, "-c", "import slopedesign; print(slopedesign.__file__)"],
            check=True, env=self.env, cwd=self.root, capture_output=True,
            text=True).stdout.strip()
        if Path(found).resolve().parent != (self.src / "slopedesign").resolve():
            raise SystemExit(f"error: slopedesign resolves to {found}")

    def spawn(self, argv: list, stderr_path: Path) -> tuple:
        """Run one child to completion: (wall s, exit code, stdout, maxrss MB)."""
        with open(stderr_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=self.root)
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, out, usage.ru_maxrss / 1024.0

    def setup_seconds(self) -> list:
        """Wall times of fresh interpreters finishing `import slopedesign`."""
        argv = [PY, "-c", "import slopedesign"]
        self.spawn(argv, WORK / "setup.err")  # warm the file cache
        samples = []
        for _ in range(SETUP_SAMPLES):
            wall, code, _, _ = self.spawn(argv, WORK / "setup.err")
            if code != 0:
                raise SystemExit("error: import slopedesign failed")
            samples.append(wall)
        return samples

    def import_times(self, code: str) -> dict:
        """Import times (ms) that `-X importtime` reports for a child."""
        self.spawn([PY, "-X", "importtime", "-c", code], WORK / "import.err")
        return parse_importtime((WORK / "import.err").read_text())


def parse_importtime(text: str) -> dict:
    """Sum of the top-level cumulative import times, and numpy's (ms)."""
    total = numpy = 0.0
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not name[1:].startswith(" "):
            total += int(cumulative) / 1e3
        if name.strip() == "numpy":
            numpy = int(cumulative) / 1e3
    return {"total": total, "numpy": numpy}


# --- timed loops ----------------------------------------------------------------


def cli_argv(op: dict, check_file: Path | None) -> list:
    num = W.cli_number
    args = ["--n", str(op["n"]), "--a", num(op["a"])]
    cmd = op["cmd"]
    if cmd == "batch":
        return ["design"] + args + ["--z-list"] + [num(z) for z in op["zs"]]
    if cmd == "plotdata":
        return ["plotdata"] + args + ["--what", op["what"]]
    if cmd == "region":
        return ["region"] + args
    args += ["--z", num(op["z"])]
    if cmd == "check":
        args += ["--design", str(check_file)]
    return [cmd] + args


def run_cli(box: Checkout, pool: list, seconds: float, trace: bool,
            min_rounds: int) -> dict:
    """Closed loop, one CLI process at a time, whole rounds of the pool."""
    files = {}
    for ri, ops in enumerate(pool):
        for oi, op in enumerate(ops):
            if op["cmd"] == "check":
                path = WORK / f"design-{ri}-{oi}.json"
                path.write_text(json.dumps(W.reference_design(op)))
                files[(ri, oi)] = path
    calls, first, mismatched = [], {}, []
    spans, imports, rss = {}, {"total": 0.0, "numpy": 0.0}, 0.0
    stats_path, err_path = WORK / "spans.json", WORK / "cli.err"
    rounds = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        ri = len(rounds) % len(pool)
        round_start = time.perf_counter()
        for oi, op in enumerate(pool[ri]):
            tail = cli_argv(op, files.get((ri, oi)))
            if trace:
                argv = [PY, "-X", "importtime", str(HERE / "spans.py"),
                        str(stats_path)] + tail
            else:
                argv = [PY, "-c", CLI_ENTRY] + tail
            wall, code, out, maxrss = box.spawn(argv, err_path)
            rss = max(rss, maxrss)
            if trace:
                _add_spans(spans, json.loads(stats_path.read_text()))
                for k, v in parse_importtime(err_path.read_text()).items():
                    imports[k] += v
            key = f"{ri}.{oi}"
            result = (code, out.decode("utf-8", "replace"))
            if key not in first:
                first[key] = result
            elif result != first[key]:
                mismatched.append(key)
            calls.append([ri, oi, wall, len(out)])
        rounds.append([ri, time.perf_counter() - round_start])
    return {"wall_s": time.perf_counter() - start, "rounds": rounds,
            "calls": calls, "first": first, "mismatched": mismatched,
            "spans": spans, "imports": imports, "rss_mb": rss}


def run_library(box: Checkout, pool: list, seconds: float, trace: bool,
                min_rounds: int) -> dict:
    """The in-process workloads run in one worker process per run."""
    pool_path, out_path = WORK / "pool.json", WORK / "worker-out.json"
    pool_path.write_text(json.dumps(pool))
    argv = [PY, str(HERE / "worker.py"), str(pool_path), repr(seconds),
            "1" if trace else "0", str(min_rounds), str(out_path)]
    _, code, _, maxrss = box.spawn(argv, WORK / "worker.err")
    if code != 0:
        sys.stderr.write((WORK / "worker.err").read_text())
        raise SystemExit(f"error: worker exited with {code}")
    res = json.loads(out_path.read_text())
    res["rss_mb"] = maxrss
    res["calls"] = [c + [0] for c in res["calls"]]  # no stdout in process
    if trace:
        res["imports"] = box.import_times("import slopedesign")
    return res


def _add_spans(acc: dict, spans: dict) -> None:
    for name, s in spans.items():
        a = acc.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for k in a:
            a[k] += s[k]


# --- checking ---------------------------------------------------------------------


def check_run(pool: list, res: dict) -> dict:
    """Check the first output of every distinct operation against the
    reference; repeats must reproduce that output exactly."""
    verdicts = {}
    for key, out in res["first"].items():
        ri, oi = map(int, key.split("."))
        op = pool[ri][oi]
        if op["kind"] == "cli":
            code, stdout = out
            verdicts[key] = W.check_cli(op, code, stdout)
        else:
            verdicts[key] = [W.check_library(op, out)]
    attempted = failed = 0
    classes: dict[str, int] = {}
    unexpected = []
    for ri, oi, *_ in res["calls"]:
        op = pool[ri][oi]
        for bad in verdicts[f"{ri}.{oi}"]:
            attempted += 1
            if not bad:
                continue
            failed += 1
            for cls in sorted({c for c, _ in bad}):
                classes[cls] = classes.get(cls, 0) + 1
            if not op.get("fixed"):
                unexpected.append(f"{ri}.{oi}")
    failing = {k: v for k, v in verdicts.items() if any(v)}
    return {"attempted": attempted, "failed": failed, "classes": classes,
            "failing": failing, "mismatched": res["mismatched"],
            "correct": not unexpected and not res["mismatched"]}


# --- metrics ----------------------------------------------------------------------


def end_to_end(pool: list, res: dict, setup: list) -> dict:
    """Both time metrics rest on each distinct operation's median wall time
    over its repeats in the run, so that a spell of load from other tenants
    of the machine moves them less than it moves a mean, and calls of
    different cost cannot trade places between runs.  Throughput is the
    pool's items over the sum of these medians; the call time is their
    median over the distinct operations."""
    walls: dict[str, list] = {}
    items: dict[str, int] = {}
    for ri, oi, wall, *_ in res["calls"]:
        key = json.dumps(pool[ri][oi], sort_keys=True)
        walls.setdefault(key, []).append(wall)
        items[key] = W.items_of(pool[ri][oi])
    typical = [statistics.median(w) for w in walls.values()]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (sum(items.values()) / sum(typical), "items/s"),
        "call_ms_p50": (1e3 * statistics.median(typical), "ms"),
        "peak_rss_mb": (res["rss_mb"], "MB"),
    }


def per_layer(pool: list, res: dict, overhead_pct: float) -> dict:
    items = sum(W.items_of(pool[ri][oi]) for ri, oi, *_ in res["calls"])
    cells = sum(W.tableau_cells(pool[ri][oi]) for ri, oi, *_ in res["calls"])
    stdout = sum(c[3] for c in res["calls"])
    out = {}
    for name, (unit, source) in PER_LAYER.items():
        kind, _, rest = source.partition(":")
        if kind == "span":
            span, field = rest.split(":")
            s = res["spans"].get(span, {"calls": 0, "self_s": 0.0})
            total = s["calls"] if field == "calls" else 1e3 * s["self_s"]
        elif kind == "import":
            total = res["imports"][rest]
        elif kind == "stdout":
            total = stdout
        elif kind == "cells":
            total = cells
        else:
            out[name] = (overhead_pct, unit)
            continue
        out[name] = (total / items, unit)
    return out


def _per_item_wall(pool: list, res: dict) -> float:
    items = sum(W.items_of(pool[ri][oi]) for ri, oi, *_ in res["calls"])
    return res["wall_s"] / items


def machine_info() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy,
            "mpmath": metadata.version("mpmath")}


def run_workload(box: Checkout, name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    pool = W.POOLS[name](seed)
    runner = run_library if name in IN_PROCESS else run_cli
    if not trace:
        setup = box.setup_seconds()
        res = runner(box, pool, seconds, False, len(pool))
        setup += box.setup_seconds()
        checked = check_run(pool, res)
        metrics = end_to_end(pool, res, setup)
        extra = {"setup_samples_s": setup}
        walls = [c[2] for c in res["calls"]]
        if len(walls) >= 100:
            extra["call_ms_p90"] = 1e3 * statistics.quantiles(walls, n=10)[8]
    else:
        plain = runner(box, pool, seconds / 2, False, 1)
        res = runner(box, pool, seconds / 2, True, 1)
        overhead = 100.0 * (_per_item_wall(pool, res)
                            / _per_item_wall(pool, plain) - 1.0)
        checked = check_run(pool, res)
        untraced = check_run(pool, plain)
        checked["correct"] = checked["correct"] and untraced["correct"]
        metrics = per_layer(pool, res, overhead)
        extra = {"spans": res["spans"], "imports_ms": res["imports"]}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": checked["correct"], "attempted": checked["attempted"],
        "failed": checked["failed"], "failed_by_class": checked["classes"],
        "calls": len(res["calls"]), "round_walls_s": res["rounds"],
        "call_walls_s": [c[:3] for c in res["calls"]],
        "timed_wall_s": res["wall_s"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failing_ops": {k: v for k, v in list(checked["failing"].items())[:20]},
        "mismatched_repeats": checked["mismatched"],
        "machine": machine_info(), **extra,
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    return record


def ledger(box: Checkout, seed: int) -> int:
    """Run each distinct operation of every workload once; list failures."""
    for name, make in W.POOLS.items():
        pool = make(seed)
        runner = run_library if name in IN_PROCESS else run_cli
        res = runner(box, pool, 0.0, False, len(pool))
        checked = check_run(pool, res)
        for key, verdict in checked["failing"].items():
            ri, oi = map(int, key.split("."))
            op = {k: v for k, v in pool[ri][oi].items() if k != "zs"}
            faults = sorted({c for bad in verdict for c, _ in bad})
            first = next(m for bad in verdict for _, m in bad)
            print(f"{name}\t{','.join(faults)}\t{json.dumps(op)}\t{first}")
        print(f"# {name}: {checked['failed']} of {checked['attempted']} "
              f"failed {checked['classes']}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(W.POOLS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ledger", action="store_true",
                   help="list the failing operations of every workload")
    args = p.parse_args(argv)
    if not args.ledger and args.workload is None:
        p.error("--workload is required")
    box = Checkout(Path.cwd())
    WORK.mkdir(exist_ok=True)
    box.build()
    if args.ledger:
        return ledger(box, args.seed)
    rec = run_workload(box, args.workload, args.seed, args.seconds,
                       bool(args.trace))
    print(f"# {args.workload}: {rec['failed']} of {rec['attempted']} failed "
          f"{rec['failed_by_class']}", file=sys.stderr)
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": rec["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

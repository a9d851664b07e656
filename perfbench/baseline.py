"""Re-measure the ROADMAP baseline table: per-layer timings and CLI wall times.

    python3 perfbench/baseline.py

Run from the root of a source checkout.  Layer rows are the best of 5 calls
in one warm process at a = 1 and z inside the last interval; the CLI rows
are the best of 5 fresh processes.  Prints a Markdown table.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path.cwd() / "src"
NS = (2, 4, 6, 10)
REPEATS = 5


def best_ms(fn, before=None) -> float:
    out = []
    for _ in range(REPEATS):
        if before is not None:
            before()
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return 1e3 * min(out)


def layer_rows() -> list:
    sys.path.insert(0, str(SRC))
    import slopedesign as sd
    from worker import cache_clearers
    clearers = cache_clearers()

    def cold():
        for clear in clearers:
            clear()

    rows = {"`admissible_region`, cold cache": [],
            "`optimal_design`, warm": [],
            "`certify`, grid 2001": [],
            "`lp_c_optimal`, grid 2001": []}
    for n in NS:
        p = sd.DesignProblem(n, 1.0)
        z = sd.admissible_region(p).intervals[-1][0] + 0.25
        d = sd.optimal_design(p, z)
        c = sd.slope_vector(n, z)
        for (name, vals), (fn, before) in zip(rows.items(), (
                (lambda: sd.admissible_region(p), cold),
                (lambda: sd.optimal_design(p, z), None),
                (lambda: sd.certify(p, z, d), None),
                (lambda: sd.lp_c_optimal(p, c), None))):
            vals.append(best_ms(fn, before))
    return [(name, vals) for name, vals in rows.items()]


def cli_best_s(argv: list) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
        out.append(time.perf_counter() - t0)
    return min(out)


def main() -> None:
    print("| layer | " + " | ".join(f"n={n}" for n in NS) + " |")
    print("|---|" + "---|" * len(NS))
    for name, vals in layer_rows():
        print(f"| {name} | " + " | ".join(f"{v:.3g} ms" for v in vals) + " |")
    entry = "import sys; from slopedesign.cli import main; sys.exit(main())"
    py = sys.executable
    zs = [f"{0.95 + 0.0001 * k:.4f}" for k in range(500)]
    print()
    print(f"- CLI `design --n 4 --a 1 --z 0.95`: "
          f"{cli_best_s([py, '-c', entry, 'design', '--n', '4', '--a', '1', '--z', '0.95']):.3f} s")
    print(f"- `import slopedesign`: "
          f"{cli_best_s([py, '-c', 'import slopedesign']):.3f} s; "
          f"`import numpy`: {cli_best_s([py, '-c', 'import numpy']):.3f} s")
    print(f"- `design --n 4 --a 1 --z-list` with 500 targets: "
          f"{cli_best_s([py, '-c', entry, 'design', '--n', '4', '--a', '1', '--z-list'] + zs):.3f} s")


if __name__ == "__main__":
    main()

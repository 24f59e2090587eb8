"""In-process timing of benchmark templates, next to their counting work.

    python3 scripts/time_templates.py [TEMPLATE ...] [--repeats 5] [--src DIR]

Runs each named template of ``benchmark/workloads.py`` (by default those of
the ``dichotomy`` workload) at every seed of its pool through
``genlat.cli.main`` with ``--workers 1``, in this one process, ``--repeats``
rounds over the pool after one warm-up operation.  For each template it
prints the median and quartiles of the milliseconds per operation over
every (seed, round) operation, and the ``count_solutions`` calls and
visited prefixes (``CountResult.visited``) one pass over the pool makes,
counted in a separate pass so the timed rounds run unwrapped.  The last
line of standard output is the same table as one JSON object.

The package is imported from ``--src`` (default: this checkout's ``src``),
so one copy of this script times any checkout; the templates always come
from this checkout's ``benchmark/workloads.py``, which is only read.
Outputs go to a temporary directory that is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _counting(modules):
    """Wrap every binding of ``count_solutions`` in ``modules``; returns the
    tally (calls, visited) and a function that restores the bindings."""
    tally = {"calls": 0, "visited": 0}
    original = sys.modules["genlat.counting"].count_solutions

    def counted(q):
        res = original(q)
        tally["calls"] += 1
        tally["visited"] += res.visited
        return res

    bound = [m for m in modules if getattr(m, "count_solutions", None) is original]
    for m in bound:
        m.count_solutions = counted

    def restore():
        for m in bound:
            m.count_solutions = original

    return tally, restore


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
    return q1, q2, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("templates", nargs="*", help="template names (default: the dichotomy workload's)")
    ap.add_argument("--repeats", type=int, default=5, help="timed rounds over each seed pool")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="directory that holds the genlat package")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    sys.path.insert(0, str(args.src.resolve()))
    sys.path.insert(0, str(ROOT / "benchmark"))
    import genlat.cli
    import workloads

    names = args.templates or list(dict.fromkeys(workloads.WORKLOADS["dichotomy"].round))
    unknown = [name for name in names if name not in workloads.TEMPLATES]
    if unknown:
        ap.error(f"unknown templates {unknown}; known: {sorted(workloads.TEMPLATES)}")
    modules = [m for name, m in sys.modules.items() if name.startswith("genlat.")]
    table = {}
    with tempfile.TemporaryDirectory() as tmp:

        def run(name: str, seed: int) -> float:
            argv = [*workloads.Operation(name, seed).argv(), "--workers", "1", "--out", f"{tmp}/{name}-{seed}"]
            tic = perf_counter()
            rc = genlat.cli.main(argv)
            elapsed = perf_counter() - tic
            if rc != 0:
                raise SystemExit(f"{name} --seed {seed} exited with status {rc}")
            return elapsed

        for name in names:
            pool = workloads.TEMPLATES[name].seeds
            tally, restore = _counting(modules)
            try:
                for seed in pool:
                    run(name, seed)
            finally:
                restore()
            run(name, pool[0])  # warm-up, untimed
            ms = [1e3 * run(name, seed) for _ in range(args.repeats) for seed in pool]
            q1, median, q3 = _quartiles(ms)
            table[name] = {"operations": len(ms), "median_ms": round(median, 3), "q1_ms": round(q1, 3),
                           "q3_ms": round(q3, 3), "count_solutions_calls": tally["calls"],
                           "visited": tally["visited"], "pool": list(pool)}
            print(f"{name:16s} {len(ms):4d} ops  median {median:9.2f} ms  [{q1:.2f}-{q3:.2f}]  "
                  f"count_solutions {tally['calls']:5d} calls, {tally['visited']:,} visited per pool pass")
    print(json.dumps(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())

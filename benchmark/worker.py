"""One benchmark process: set up, then (unless only set-up is measured) run a
workload's operations in a closed loop and report them.

Started by ``run.py``; not meant to be run by hand.  Protocol: lines on
standard output that start with ``@bench`` carry JSON messages; everything
else the program prints is ignored.

    python3 benchmark/worker.py <mode> <workload> <seed> <seconds> <work_dir>

``mode`` is ``setup`` (exit once ready), ``timed`` or ``trace``.  A timed
worker pauses a few times (a ``pause`` message) and goes on when a line
arrives on its standard input.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import genlat.cli  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_PAUSES = 8  # fresh set-ups timed during a timed run, besides the worker's own
WALL_CAP = 120.0  # seconds; no round starts later, so the run ends within three minutes


def emit(kind: str, payload) -> None:
    sys.stdout.write(f"@bench {json.dumps({'kind': kind, 'data': payload})}\n")
    sys.stdout.flush()


def run_op(op: workloads.Operation, prefix: Path, tracer: Tracer | None = None, op_id: int = 0):
    """Run one operation, traced when a tracer is given; returns (seconds,
    exit status).  An exception escaping the program counts as a failed
    operation, never as a crash of the benchmark."""
    argv = op.argv() + ["--out", str(prefix), "--workers", "1"]

    def call():
        # looked up per call, so a traced run reaches the wrapped binding
        return genlat.cli.main(argv)

    if tracer is not None:
        tracer.install()
    try:
        tic = perf_counter()
        try:
            rc = tracer.run_op(op_id, call) if tracer else call()
        except Exception:  # boundary: report and keep measuring
            traceback.print_exc()
            rc = "exception"
        return perf_counter() - tic, rc
    finally:
        if tracer is not None:
            tracer.uninstall()


def measure(op, prefix: Path, refs: dict, tracer: Tracer | None = None, op_id: int = 0) -> dict:
    """Run and check one operation.  The check runs outside the timing; the
    JSONL digest is recorded for information only, since a change may alter
    the bytes on purpose."""
    secs, rc = run_op(op, prefix, tracer, op_id)
    try:
        result = workloads.read_outputs(prefix, rc)
        problems = workloads.check(op, result, refs)
    except Exception as exc:  # a missing or malformed output is a failed operation
        result, problems = {}, [f"check raised {exc!r}"]
    digest = hashlib.sha256(result["jsonl"]).hexdigest() if "jsonl" in result else None
    return {"template": op.template, "seed": op.seed, "units": op.units, "seconds": secs,
            "sha256": digest, "problems": problems}


def loop(batches, prefix: Path, refs: dict, seconds: float = math.inf,
         tracer: Tracer | None = None, pauses: int = 0):
    """Closed loop: each operation starts when the previous one (and its
    check) ends.  Whole rounds run until the untraced operations add up to
    ``seconds`` or ``batches`` ends, so every run holds the same mix of
    templates.  With a tracer, each operation runs again traced right after
    its untraced run, so the pair sees the same machine state.

    ``pauses`` times, spread evenly over ``seconds`` of operations, the loop
    stops between two operations until a line arrives on standard input:
    ``run.py`` times a fresh set-up meanwhile, so the set-ups sample the
    machine over the whole run, as the operations do.
    Returns (untraced, traced)."""
    plain, traced = [], []
    busy = 0.0
    paused = 0
    wall_start = perf_counter()
    for batch in batches:
        if busy >= seconds or perf_counter() - wall_start > WALL_CAP:
            break
        for op in batch:
            plain.append(measure(op, prefix, refs))
            busy += plain[-1]["seconds"]
            if tracer is not None:
                traced.append(measure(op, prefix, refs, tracer, len(traced)))
            if paused < pauses and busy >= seconds * (paused + 1) / (pauses + 1):
                paused += 1
                emit("pause", {})
                sys.stdin.readline()
    return plain, traced


def main() -> int:
    mode, workload, seed, seconds, work_dir = sys.argv[1:6]
    seed, seconds = int(seed), float(seconds)
    prefix = Path(work_dir) / "op"
    refs = workloads.load_references()
    warm = workloads.warmup_operation(workload)
    run_op(warm, prefix)
    emit("ready", {})
    if mode == "setup":
        return 0

    env = {"python": sys.version.split()[0], "numpy": np.__version__}
    stream = workloads.rounds(workload, seed)
    if mode == "timed":
        records, _ = loop(stream, prefix, refs, seconds, pauses=SETUP_PAUSES)
        emit("result", {"ops": records, "environment": env,
                        "unit": workloads.WORKLOADS[workload].unit,
                        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
        return 0

    # trace: a fixed number of rounds, each operation followed by its traced
    # rerun, so every work counter is a function of the seed and --seconds
    planned = workloads.WORKLOADS[workload].trace_rounds(seconds)
    tracer = Tracer()
    plain, traced = loop(itertools.islice(stream, planned), prefix, refs, tracer=tracer)
    tracer.check_accounting()
    spans_path = Path(work_dir).parent / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(spans_path)
    metrics = tracer.metrics()
    untraced = sum(r["seconds"] for r in plain)
    metrics["trace_overhead_frac"] = sum(r["seconds"] for r in traced) / untraced - 1.0
    counters = tracer.op_counters()
    emit("result", {
        "ops": plain + traced,
        "environment": env,
        "metrics": metrics,
        "shares": tracer.self_time_shares()[:8],
        "rounds": [len(traced) // len(workloads.WORKLOADS[workload].round), planned],
        "op_counters": [counters.get(i, {}) for i in range(len(traced))],
        "spans": str(spans_path.relative_to(ROOT)),
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())

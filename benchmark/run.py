"""genlat benchmark: one command, three seeded workloads, closed loop.

    python3 benchmark/run.py --workload count_mixed --seed 1 --seconds 36 --trace 0

Every operation is one ``genlat.cli.main(argv)`` call with ``--workers 1``
in one process; BLAS is capped at one thread.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` a separate traced run
reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every metric with its unit, the
environment, and (traced) the layers with the largest self time.  A full
report goes to ``.bench_out/`` in the repository root.

See ``benchmark/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("lattice_stats", "dichotomy", "count_mixed")
DEADLINE = 170.0  # seconds; the whole run must end within three minutes
BLAS_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
TAIL_BEYOND = 10  # the tail percentile keeps this many operations above it


class WorkerError(RuntimeError):
    pass


def _worker(mode: str, args, work: Path, deadline: float, on_pause=None):
    """Run one worker to its end; returns (seconds until it was ready, its
    messages).  ``on_pause()`` runs whenever the worker pauses, and the
    worker goes on when it returns.  A worker still running at the deadline
    is killed."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode, args.workload, str(args.seed),
           str(args.seconds), str(work)]
    tic = perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE if on_pause else subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env={**os.environ, **BLAS_ENV})
    watchdog = threading.Timer(max(0.0, deadline - tic), proc.kill)
    watchdog.start()
    ready = None
    messages = {}
    try:
        for line in proc.stdout:
            if line.startswith("@bench "):
                msg = json.loads(line[len("@bench "):])
                if msg["kind"] == "ready":
                    ready = perf_counter() - tic
                elif msg["kind"] == "pause":
                    on_pause()
                    proc.stdin.write("\n")
                    proc.stdin.flush()
                messages[msg["kind"]] = msg["data"]
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pipe in (proc.stdin, proc.stdout):
            if pipe is not None:
                pipe.close()
    if proc.returncode != 0 or ready is None:
        raise WorkerError(f"{mode} worker exited with status {proc.returncode}")
    return ready, messages


def git_sha(git: Path) -> str:
    """Commit checked out in the repository whose git directory is ``git``,
    or ``unknown`` when there is none."""
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head  # detached
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return "unknown"


def _environment(args, worker_env: dict) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        **worker_env,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(ROOT / ".git"),
        "blas_threads": BLAS_ENV,
        "workload": args.workload,
        "seed": args.seed,
        "src_lines": src_lines,  # tracked, not gated
    }


def _tail(latencies_ms: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND operations above
    it, and that percentile; the maximum when there are too few."""
    xs = sorted(latencies_ms)
    rank = len(xs) - TAIL_BEYOND if len(xs) > TAIL_BEYOND else len(xs)  # 1-based
    return xs[rank - 1], 100.0 * rank / len(xs)


def _counts(ops: list[dict]) -> tuple[int, int]:
    return len(ops), sum(1 for op in ops if op["problems"])


def timed(args, work: Path, deadline: float) -> tuple[dict, list[str], dict]:
    """End-to-end metrics.  ``setup_s`` is the median over the timed
    worker's own set-up and the fresh set-ups timed while it pauses."""
    setups = []

    def fresh_setup():
        setups.append(_worker("setup", args, work, deadline)[0])

    ready, msgs = _worker("timed", args, work, deadline, on_pause=fresh_setup)
    setups.append(ready)
    res = msgs["result"]
    ops = res["ops"]
    busy = sum(op["seconds"] for op in ops)
    latencies = [op["seconds"] * 1e3 for op in ops]
    tail, pct = _tail(latencies)
    attempted, failed = _counts(ops)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "units_per_s": (sum(op["units"] for op in ops) / busy, "units/s"),
        "query_p50_ms": (statistics.median(latencies), "ms"),
        "query_tail_ms": (tail, "ms"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
    }
    lines = [f"{k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines[1] += f"  (unit: {res['unit']})"
    lines[3] += f"  (p{pct:.1f} of {attempted} ops, {TAIL_BEYOND} beyond)"
    lines.append(f"failed_frac = {failed / attempted:.6g} ratio  ({failed} of {attempted})")
    report = {"setup_runs_s": setups, "ops": ops, "environment": res["environment"],
              "tail_percentile": pct}
    return metrics, lines, report


def traced(args, work: Path, deadline: float) -> tuple[dict, list[str], dict]:
    _, msgs = _worker("trace", args, work, deadline)
    res = msgs["result"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in spec if m["name"] not in res["metrics"]]
    if missing:
        raise WorkerError(f"per-layer metrics not measured: {missing}")
    metrics = {m["name"]: (res["metrics"][m["name"]], m["unit"]) for m in spec}
    lines = [f"{k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
    done, planned = res["rounds"]
    lines.append(f"traced rounds = {done} of {planned}"
                 + ("" if done == planned else "  (cut at the wall-time cap: counters not comparable)"))
    lines.append("largest self-time shares: " + ", ".join(
        f"{name} {share:.1%}" for name, share in res["shares"]))
    return metrics, lines, res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "genlat" / "cli.py").exists():
        print(f"no genlat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        metrics, lines, report = (traced if args.trace else timed)(args, work, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed = _counts(report["ops"])
    env = _environment(args, report["environment"])
    report["environment"] = env
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    for line in lines:
        print(line)
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

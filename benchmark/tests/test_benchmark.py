"""Tests of the benchmark itself; they do not belong to the package suite.

    python3 -m pytest benchmark/tests -q

Each run happens in a copy of the benchmark and the sources under a
temporary directory, the way a fresh checkout would hold them.  The whole
module takes about two minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
BENCH = REPO / "benchmark"
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from run import git_sha  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import SETUP_PAUSES  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _checkout(dest: Path, with_src: bool = True) -> Path:
    shutil.copytree(BENCH, dest / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", dest)
    if with_src:
        shutil.copytree(REPO / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    return _checkout(tmp_path_factory.mktemp("checkout"))


def _run(root: Path, workload: str, seed: int, trace: int, seconds: float = 1.0):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _report(root: Path, workload: str, seed: int, trace: int) -> dict:
    return json.loads((root / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8 and 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s").items()
    # every per-layer metric the tracer computes is declared, and no other
    declared = [m["name"] for m in SPEC["per_layer"]]
    assert declared == list(Tracer().metrics()) + ["trace_overhead_frac"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(checkout, workload):
    proc = _run(checkout, workload, seed=3, trace=0)
    res = _result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
        assert re.search(rf"^{m['name']} = \S+ {re.escape(m['unit'])}", proc.stdout, re.M)
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert re.search(r"^failed_frac = 0 ratio", proc.stdout, re.M)
    env = json.loads(re.search(r"^environment (.*)$", proc.stdout, re.M).group(1))
    for key in ("python", "numpy", "nproc", "git_sha", "blas_threads", "seed", "src_lines"):
        assert key in env
    report = _report(checkout, workload, 3, 0)
    assert all(op["sha256"] for op in report["ops"])
    # the timed worker's own set-up and one fresh set-up per pause
    assert len(report["setup_runs_s"]) == 1 + SETUP_PAUSES


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_prints_every_per_layer_metric(checkout, workload):
    proc = _run(checkout, workload, seed=3, trace=1)
    res = _result(proc)
    assert res["correct"]
    assert list(res["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    rounds = workloads.WORKLOADS[workload].trace_rounds(1.0)
    assert f"traced rounds = {rounds} of {rounds}\n" in proc.stdout
    for m in SPEC["per_layer"]:
        assert re.search(rf"^{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}",
                         proc.stdout, re.M)


def test_wrong_reference_count_is_a_failed_operation(tmp_path):
    root = _checkout(tmp_path)
    refs_path = root / "benchmark" / "references.json"
    refs = json.loads(refs_path.read_text())
    refs["count"]["prod3"] = {seed: n + 1 for seed, n in refs["count"]["prod3"].items()}
    refs_path.write_text(json.dumps(refs))
    res = _result(_run(root, "count_mixed", seed=5, trace=0))
    assert not res["correct"]
    ops = _report(root, "count_mixed", 5, 0)["ops"]
    failed = {op["template"] for op in ops if op["problems"]}
    assert failed == {"prod3"}
    assert res["failed"] == sum(op["template"] == "prod3" for op in ops) >= 1


def test_same_seed_gives_identical_work_counters(tmp_path):
    root = _checkout(tmp_path)
    counters, totals = [], []
    for _ in range(2):
        res = _result(_run(root, "count_mixed", seed=11, trace=1, seconds=2.0))
        ops = _report(root, "count_mixed", 11, 1)["op_counters"]
        # manifest timestamps may change the byte count; work counters may not
        counters.append([{name: {k: v for k, v in c.items() if k != "bytes"}
                          for name, c in op.items()} for op in ops])
        totals.append({m["name"]: res["metrics"][m["name"]]["value"] for m in SPEC["per_layer"]
                       if m["unit"] == "count"})
    assert len(counters[0]) == len(workloads.WORKLOADS["count_mixed"].round)
    assert counters[0] == counters[1]
    assert totals[0] == totals[1]
    fields = {f for op in counters[0] for name in op.values() for f in name}
    assert {"calls", "visited", "rows"} <= fields


def test_wrong_rogers_variance_fails_its_check(tmp_path):
    from genlat.cli import main

    op = workloads.Operation("rogers", 3)
    prefix = tmp_path / "op"
    rc = main(op.argv() + ["--out", str(prefix), "--workers", "1"])
    result = workloads.read_outputs(prefix, rc)
    assert workloads.check(op, result, {}) == []
    row = result["manifest"]["result"]["rows"][1]
    row["variance"] *= 1.5
    row["ratio"] *= 1.5
    problems = workloads.check(op, result, {})
    assert len(problems) == 1 and "not the moments" in problems[0]


def test_git_sha_reads_loose_and_packed_refs(tmp_path):
    git = tmp_path / ".git"
    assert git_sha(git) == "unknown"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    assert git_sha(git) == "unknown"
    (git / "packed-refs").write_text("# pack-refs with: peeled\n"
                                     "1111111111111111111111111111111111111111 refs/heads/dev\n"
                                     "2222222222222222222222222222222222222222 refs/heads/main\n")
    assert git_sha(git) == "2" * 40
    (git / "refs" / "heads" / "main").write_text("3" * 40 + "\n")
    assert git_sha(git) == "3" * 40


def test_sources_missing_is_an_error_without_a_result(tmp_path):
    root = _checkout(tmp_path, with_src=False)
    proc = _run(root, "lattice_stats", seed=1, trace=0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_tracer_wraps_every_binding_and_accounts_for_all_time(tmp_path):
    import genlat.cli
    import genlat.counting
    import genlat.experiments
    import genlat.haar

    originals = (genlat.counting.lll_reduce, genlat.experiments.sample_lattice_exact,
                 genlat.cli.count_solutions)
    tracer = Tracer()
    tracer.install()
    try:
        for mod, attr in ((genlat.counting, "lll_reduce"),
                          (genlat.experiments, "sample_lattice_exact"),
                          (genlat.cli, "count_solutions"), (genlat.haar, "lll_reduce")):
            assert hasattr(getattr(mod, attr), "__wrapped__"), f"{mod.__name__}.{attr}"
        argv = ["count", "--f", "spf:p=2,q=1,d=2", "--psi", "pl:C=1,s=0.5,j=0", "--t", "64",
                "--space", "w", "--seed", "3", "--out", str(tmp_path / "op")]
        assert tracer.run_op(0, lambda: genlat.cli.main(argv)) == 0
    finally:
        tracer.uninstall()
    assert (genlat.counting.lll_reduce, genlat.experiments.sample_lattice_exact,
            genlat.cli.count_solutions) == originals
    tracer.check_accounting()
    names = {s[0] for s in tracer.spans}
    assert {"bench.op", "cli.main", "counting.count_solutions", "haar.lll_reduce",
            "haar.sample_sl", "core.bound_values"} <= names
    metrics = tracer.metrics()
    assert metrics["counting.count_solutions.calls.spf2"] == 1
    assert metrics["haar.lll_reduce.calls"] >= 1

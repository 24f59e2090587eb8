"""Regenerate ``references.json``, the stored answers of the count_mixed
checks, and run every pooled operation once through its check.

Every count query (template x map seed) runs once through
``genlat.cli.main`` and once through ``brute_force_count``; the script stops
if the two disagree, so each stored count is brute-force verified.  The
closed-form volume templates store the values the CLI prints.  Last, every
operation any workload can run is run once and must pass its check, so a
correct program never fails the benchmark by chance.

The n=3 brute-force scans dominate: about 40 minutes on one core.

    python3 benchmark/make_references.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from genlat.cli import main  # noqa: E402
from genlat.counting import brute_force_count  # noqa: E402

from workloads import (  # noqa: E402
    REFERENCES,
    TEMPLATES,
    Operation,
    check,
    count_query,
    read_outputs,
)

BOX_CAP = 2 * 10**9  # the T=512, n=3 boxes hold 1025^3 ~ 1.08e9 cells


def _cli_records(argv: list[str], prefix: Path) -> list[dict]:
    if main(argv + ["--out", str(prefix), "--format", "jsonl"]) != 0:
        raise SystemExit(f"CLI failed: {argv}")
    return [json.loads(line) for line in prefix.with_suffix(".jsonl").read_text().splitlines()]


def build() -> dict:
    refs: dict = {"count": {}, "volume": {}}
    with tempfile.TemporaryDirectory() as tmp:
        prefix = Path(tmp) / "ref"
        for name, tpl in TEMPLATES.items():
            if tpl.argv[0] == "volume":
                refs["volume"][name] = [r["value"] for r in _cli_records(list(tpl.argv), prefix)]
        # cheapest brute-force boxes first
        count_templates = sorted(
            (t for t in TEMPLATES.values() if t.argv[0] == "count"),
            key=lambda t: float(t.argv[t.argv.index("--t") + 1]) ** count_query(
                Operation(t.name, t.seeds[0]).argv()).f.n,
        )
        for tpl in count_templates:
            refs["count"][tpl.name] = {}
            for seed in tpl.seeds:
                argv = Operation(tpl.name, seed).argv()
                tic = time.perf_counter()
                fast = _cli_records(argv, prefix)[0]["count"]
                slow = brute_force_count(count_query(argv), box_cap=BOX_CAP).count
                if fast != slow:
                    raise SystemExit(f"{argv}: counter {fast} != brute force {slow}")
                refs["count"][tpl.name][str(seed)] = fast
                print(f"{tpl.name} seed {seed}: {fast} ({time.perf_counter() - tic:.1f} s)",
                      flush=True)
    return refs


def verify_pools(refs: dict) -> None:
    """Run every pooled operation once; stop at the first failed check."""
    with tempfile.TemporaryDirectory() as tmp:
        prefix = Path(tmp) / "op"
        for tpl in TEMPLATES.values():
            for seed in tpl.seeds:
                op = Operation(tpl.name, seed)
                rc = main(op.argv() + ["--out", str(prefix)])
                problems = check(op, read_outputs(prefix, rc), refs)
                if problems:
                    raise SystemExit(f"{tpl.name} seed {seed}: {problems}")
            print(f"{tpl.name}: {len(tpl.seeds)} pooled operations pass", flush=True)


if __name__ == "__main__":
    references = build()
    verify_pools(references)
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES}")

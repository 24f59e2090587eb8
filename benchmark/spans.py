"""Span tracing of genlat's layers, applied from outside the package.

``Tracer.install`` wraps the public functions of each layer module (the
names in its ``__all__``, plus ``cli.main`` and the row-evaluation methods
of ``core``).  A module that did ``from .haar import lll_reduce`` holds its
own binding of the function, so every binding in every ``genlat`` module is
replaced, and installation fails if any binding still points at an
unwrapped original.

A span records its name, start, end, parent span, operation id and work
counters.  Spans stay in memory until the run ends.  A span's self time is
its duration minus the durations of its child spans.  Per-name metrics use
the outermost spans of that name only (a recursive ``sample_lattice_exact``
call or a ``VectorOf`` part's ``evaluate_many`` is a child, not a second
call).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("core", "haar", "volume", "counting", "experiments", "cli")
ROOT = "bench.op"  # the benchmark's own span around each operation

# methods that carry the per-row work of core; several target classes share
# one span name because they implement one interface
METHODS = {
    "core.evaluate_many": (
        ("SignedPowerForm", "evaluate_many"),
        ("CoordinateProduct", "evaluate_many"),
        ("MaxPower", "evaluate_many"),
        ("VectorOf", "evaluate_many"),
    ),
    "core.Norm.eval_many": (("Norm", "eval_many"),),
}

FAMILIES = ("spf2", "spf_odd", "spf_frac", "prod", "maxpow", "vecbands")

EXPERIMENTS = (
    "siegel_mean_experiment",
    "rogers_variance_experiment",
    "empty_probability_experiment",
    "counting_ratio_experiment",
    "zero_full_experiment",
    "uniform_approx_experiment",
    "kg_system_experiment",
)


def target_family(f) -> str:
    """Counting family of a target, as the engines split them."""
    from genlat.core import CoordinateProduct, MaxPower, SignedPowerForm, VectorOf

    if isinstance(f, SignedPowerForm):
        if f.d == 2:
            return "spf2"
        if f.d != int(f.d):
            return "spf_frac"
        return "spf_odd" if int(f.d) % 2 else "spf_even"
    if isinstance(f, CoordinateProduct):
        return "prod"
    if isinstance(f, MaxPower):
        return "maxpow"
    if isinstance(f, VectorOf) and all(
        isinstance(p, MaxPower) and len(p.exponents) == 1 for p in f.parts
    ):
        return "vecbands"
    return "other"


def _rows(args, kwargs, result):
    return {"rows": len(args[1])}  # args[0] is the instance


def _count_counters(args, kwargs, result):
    return {
        "family": target_family(args[0].f),
        "visited": result.visited,
        "count": result.count,
        "full_scan": int(result.full_scan),
    }


def _records(args, kwargs, result):
    records = getattr(result, "records", None)
    return {"records": len(records if records is not None else result.rows)}


def _bytes_written(args, kwargs, result):
    from pathlib import Path

    argv = args[0]
    prefix = Path(argv[argv.index("--out") + 1])
    paths = [prefix.with_suffix(s) for s in (".jsonl", ".csv", ".manifest.json")]
    return {"bytes": sum(p.stat().st_size for p in paths if p.exists())}


LABELS = ("family", "dim")  # counters that name a kind of call instead of counting work

COUNTERS = {
    "haar.sample_lattice_exact": lambda a, k, r: {"dim": a[0]},
    "counting.count_solutions": _count_counters,
    "counting.lattice_points_in_region": lambda a, k, r: {"points": len(r[0])},
    "volume.monte_carlo_region_volume": lambda a, k, r: {"samples": r.samples},
    "core.evaluate_many": _rows,
    "core.Norm.eval_many": _rows,
    "core.bound_values": lambda a, k, r: {"rows": len(r)},
    "cli.main": _bytes_written,
    **{f"experiments.{name}": _records for name in EXPERIMENTS},
}


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index or None, op id, counters or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self._originals: list = []

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    def run_op(self, op_id: int, call):
        """Run ``call()`` as operation ``op_id`` under a root span."""
        self.op = op_id
        wrapped = self._wrap(ROOT, call)
        try:
            return wrapped()
        finally:
            self.op = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every binding.  Installed only around a traced operation;
        ``uninstall`` restores the originals, so untraced operations and the
        checks run the program's own functions."""
        modules = {layer: importlib.import_module(f"genlat.{layer}") for layer in LAYERS}
        swaps = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            names = ["main"] if layer == "cli" else list(mod.__all__)
            for attr in names:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    swaps[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for span_name, methods in METHODS.items():
            for cls_name, meth in methods:
                cls = getattr(modules["core"], cls_name)
                fn = cls.__dict__[meth]
                self._originals.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(span_name, fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in swaps and swaps[id(value)][0] is value:
                    self._originals.append((mod, attr, value))
                    setattr(mod, attr, swaps[id(value)][1])
        leaks = [
            f"{mod.__name__}.{attr}"
            for mod in modules.values()
            for attr, value in vars(mod).items()
            if id(value) in swaps and swaps[id(value)][0] is value
        ]
        if leaks:
            raise RuntimeError(f"unwrapped bindings escape the trace: {leaks}")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._originals):
            setattr(owner, attr, value)
        self._originals.clear()

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                out[s[3]] -= s[2] - s[1]
        return out

    def check_accounting(self, tol: float = 1e-6) -> None:
        """Per operation, self times of all spans (the root's self time is the
        benchmark's own overhead) must add up to the operation's wall time,
        and every child must lie inside its parent."""
        selfs = self.self_times()
        per_op: dict[int, float] = defaultdict(float)
        roots: dict[int, float] = {}
        for i, s in enumerate(self.spans):
            per_op[s[4]] += selfs[i]
            if s[3] is None:
                roots[s[4]] = s[2] - s[1]
            else:
                parent = self.spans[s[3]]
                if not (parent[1] <= s[1] <= s[2] <= parent[2] and parent[4] == s[4]):
                    raise RuntimeError(f"span {s[0]} escapes its parent {parent[0]}")
        for op, wall in roots.items():
            if abs(per_op[op] - wall) > tol:
                raise RuntimeError(
                    f"op {op}: layer self times {per_op[op]:.6f} s != wall {wall:.6f} s"
                )

    def _key(self, s) -> str:
        if s[0] == "counting.count_solutions":
            return f"{s[0]}[{s[5]['family']}]"
        return s[0]

    def self_time_shares(self) -> list[tuple[str, float]]:
        """Share of traced wall time spent in each span name's own code."""
        totals: dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, self.self_times()):
            totals[self._key(s)] += t
        whole = sum(totals.values()) or 1.0
        return sorted(((k, v / whole) for k, v in totals.items()), key=lambda kv: -kv[1])

    def op_counters(self) -> dict[int, dict]:
        """Work counters of each operation, summed per span name."""
        out: dict[int, dict] = defaultdict(lambda: defaultdict(lambda: defaultdict(int)))
        for s in self.spans:
            slot = out[s[4]][self._key(s)]
            slot["calls"] += 1
            for k, v in (s[5] or {}).items():
                if k not in LABELS:
                    slot[k] += v
        return {op: {k: dict(v) for k, v in names.items()} for op, names in out.items()}

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics, from outermost spans of each name."""
        selfs = self.self_times()
        agg: dict[str, dict] = defaultdict(lambda: defaultdict(int))
        for i, s in enumerate(self.spans):
            if s[3] is not None and self.spans[s[3]][0] == s[0]:
                continue  # nested call of the same name
            if s[0] == "haar.sample_lattice_exact" and s[5]["dim"] < 3:
                continue  # plane inversion: no primitive Gaussian mass to measure
            keys = [s[0]]
            if s[0] == "counting.count_solutions":
                keys.append(f"{s[0]}.{s[5]['family']}")
            for key in keys:
                a = agg[key]
                a["calls"] += 1
                a["dur"] += s[2] - s[1]
                a["self"] += selfs[i]
                for k, v in (s[5] or {}).items():
                    if k not in LABELS:
                        a[k] += v

        def per(key, num, den, scale):
            a = agg.get(key)
            return a[num] / a[den] * scale if a and a[den] else 0.0

        def total(key, field):
            a = agg.get(key)
            return a[field] if a else 0

        m: dict[str, float] = {}
        for name in ("haar.sample_lattice_exact", "haar.sample_grid_exact"):
            m[f"{name}.self_ms"] = per(name, "self", "calls", 1e3)
            m[f"{name}.calls"] = total(name, "calls")
        for name in ("haar.lll_reduce", "haar.sample_sl"):
            m[f"{name}.us_per_call"] = per(name, "dur", "calls", 1e6)
            m[f"{name}.calls"] = total(name, "calls")
        name = "counting.lattice_points_in_region"
        m[f"{name}.self_us_per_call"] = per(name, "self", "calls", 1e6)
        m[f"{name}.calls"] = total(name, "calls")
        m[f"{name}.points_per_call"] = per(name, "points", "calls", 1.0)
        name = "counting.count_solutions"
        for fam in FAMILIES:
            key = f"{name}.{fam}"
            m[f"{name}.ms_per_call.{fam}"] = per(key, "dur", "calls", 1e3)
            m[f"{name}.ns_per_visited.{fam}"] = per(key, "dur", "visited", 1e9)
            m[f"{name}.visited.{fam}"] = total(key, "visited")
            m[f"{name}.calls.{fam}"] = total(key, "calls")
        m[f"{name}.full_scan_frac"] = per(name, "full_scan", "calls", 1.0)
        m[f"{name}.yield"] = per(name, "count", "visited", 1.0)
        m[f"{name}.calls"] = total(name, "calls")
        for name in ("volume.shell_volume", "volume.threshold_M"):
            m[f"{name}.ms_per_call"] = per(name, "dur", "calls", 1e3)
            m[f"{name}.calls"] = total(name, "calls")
        name = "volume.monte_carlo_region_volume"
        m[f"{name}.ns_per_sample"] = per(name, "dur", "samples", 1e9)
        m[f"{name}.samples"] = total(name, "samples")
        for name in ("core.evaluate_many", "core.Norm.eval_many", "core.bound_values"):
            m[f"{name}.ns_per_row"] = per(name, "dur", "rows", 1e9)
            m[f"{name}.rows"] = total(name, "rows")
        for exp in EXPERIMENTS:
            name = f"experiments.{exp}"
            m[f"{name}.self_ms"] = per(name, "self", "calls", 1e3)
            m[f"{name}.records"] = total(name, "records")
        m["cli.main.self_ms"] = per("cli.main", "self", "calls", 1e3)
        m["cli.main.bytes_written"] = total("cli.main", "bytes")
        m["cli.main.calls"] = total("cli.main", "calls")
        return m

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[0], "start": s[1], "end": s[2],
                    "parent": s[3], "op": s[4], "counters": s[5],
                }) + "\n")

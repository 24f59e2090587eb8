"""Command line surface: configuration, persistence, and seed management.

Each subcommand resolves an ExperimentConfig from the model keys it reads
(_COMMANDS; flags override config-file values, other keys are errors), runs
one experiment, and writes up to three artifacts under the --out prefix:

  <out>.jsonl          one record per sample or per schedule point; every
                       record carries the master seed and its sample index
  <out>.csv            tidy summary columns (x, y, stderr style) for plotting
  <out>.manifest.json  schema version, the resolved model keys the command
                       reads plus the master seed, worker count, wall-clock
                       timestamps, and a sha256 digest of each data file

Each config key is described once, by its _MODEL_KEYS row: its flag, its
ExperimentConfig field, the reader of its flag or config-file value, and its
manifest form.

Each command handler returns (records, table, extras): the JSONL records, the
CSV table as one dict per row that maps each column name to its value (the
header is the first row's keys), and the manifest result.  So each CSV column
is named once, next to its value.

Records never contain timestamps, so a rerun with the same master seed and
worker count is byte identical; the wall clock lives in the manifest only.
Validation failures exit with status 2 and a machine readable error record
on stderr naming the offending key.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import platform
import sys
from collections import namedtuple
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    ApproxFunction,
    CoordinateProduct,
    DyadicSchedule,
    MaxPower,
    Norm,
    PointClass,
    SignedPowerForm,
    TargetFunction,
    mix_seed,
    norm_spec,
    parse_norm,
    parse_psi,
    parse_target,
    psi_spec,
    target_spec,
)
from .counting import CountQuery, brute_force_count, count_solutions
from .experiments import (
    counting_ratio_experiment,
    draw_map,
    empty_probability_experiment,
    kg_system_experiment,
    norm_independence_check,
    rogers_variance_experiment,
    siegel_mean_experiment,
    uniform_approx_experiment,
    zero_full_experiment,
)
from .haar import sample_sl
from .volume import (
    Verdict,
    adaptive_simpson,
    classify_series,
    i_k_closed_form,
    monte_carlo_region_volume,
    shell_volume,
    verification_matrix,
)

SCHEMA_VERSION = 1


# --------------------------------------------------------------------------
# configuration


class ConfigError(ValueError):
    """Validation failure attributable to one configuration key."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved run parameters shared by the subcommands."""

    n: int
    f: TargetFunction | None = None
    psi: ApproxFunction | None = None
    norm: Norm | None = None
    point_class: PointClass = PointClass.ALL_NONZERO
    group: str = "SL"
    shift_bound: float = 0.0
    schedule: DyadicSchedule | None = None
    sample_count: int = 1
    master_seed: int = 0

    def __post_init__(self) -> None:
        if int(self.n) != self.n or self.n < 1:
            raise ConfigError("n", f"n must be a positive integer, got {self.n}")
        if self.sample_count < 1:
            raise ConfigError("sampleCount", f"sampleCount must be >= 1, got {self.sample_count}")
        if self.group not in ("SL", "ASL"):
            raise ConfigError("group", f"group must be SL or ASL, got {self.group!r}")
        if self.shift_bound < 0:
            raise ConfigError("shiftBound", f"shiftBound must be >= 0, got {self.shift_bound}")
        if self.f is not None and self.f.n != self.n:
            raise ConfigError("f", f"target dimension {self.f.n} does not match n={self.n}")
        if self.norm is not None and self.norm.dim != self.n:
            raise ConfigError("norm", f"norm dimension {self.norm.dim} does not match n={self.n}")


def _integer(value) -> int:
    """An int, an integral float or a digit string; never a bool."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    """A number or a numeric string; never a bool."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _parse_schedule(value) -> DyadicSchedule:
    """A schedule from its flag string or its config-file object."""
    if isinstance(value, dict):
        kv = dict(value)
    else:
        kv = {}
        for item in str(value).split(","):
            if "=" not in item:
                raise ValueError(f"expected key=value, got {item!r}")
            k, v = item.split("=", 1)
            kv[k] = v
    extra = set(kv) - {"t0", "ratio", "k0", "kmax"}
    if extra:
        raise ValueError(f"unknown keys {sorted(extra)}")
    return DyadicSchedule(
        t0=_real(kv.get("t0", 1.0)),
        ratio=_real(kv.get("ratio", 2.0)),
        k0=_integer(kv.get("k0", 0)),
        kmax=_integer(kv.get("kmax", 0)),
    )


# A config key: its flag, argparse keywords and ExperimentConfig field, a reader
# of its flag or config-file value (at dimension n), and its manifest form (by
# default the value itself).
_Key = namedtuple("_Key", "flag kwargs field read render", defaults=(lambda value: value,))

# config key (its config-file name, also its argparse dest) -> its one description:
# the model keys, which each command picks from (_COMMANDS), then masterSeed, which
# every command reads (the common --seed); n comes first, as norm is read at dimension n
_MODEL_KEYS = {
    "n": _Key("--n", {"type": int, "help": "ambient dimension"}, "n", lambda v, n: _integer(v)),
    "f": _Key("--f", {"help": "target spec, e.g. spf:p=2,q=1,d=2"}, "f",
              lambda v, n: parse_target(str(v)), target_spec),
    "psi": _Key("--psi", {"help": "bound spec, e.g. pl:C=1,s=1,j=0"}, "psi",
                lambda v, n: parse_psi(str(v)), psi_spec),
    "norm": _Key("--norm", {"help": "norm spec (max, ld:<d>, block:...); defaults to the family norm"},
                 "norm", lambda v, n: parse_norm(str(v), n), norm_spec),
    "pointClass": _Key("--class", {"choices": ("nonzero", "primitive", "all")}, "point_class",
                       lambda v, n: PointClass(v), lambda pc: pc.value),
    "group": _Key("--group", {"choices": ("SL", "ASL")}, "group", lambda v, n: str(v)),
    "shiftBound": _Key("--shift-bound", {"type": float}, "shift_bound", lambda v, n: _real(v)),
    "schedule": _Key("--schedule", {"help": "t0=..,ratio=..,k0=..,kmax=.."}, "schedule",
                     lambda v, n: _parse_schedule(v), asdict),
    "sampleCount": _Key("--samples", {"type": int, "help": "sample count (sampleCount)"}, "sample_count",
                        lambda v, n: _integer(v)),
    "masterSeed": _Key("--seed", {"type": int, "help": "master seed (masterSeed)"}, "master_seed",
                       lambda v, n: _integer(v)),
}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build the resolved config from flag or config-file values (spec strings,
    numbers and the schedule object), naming the offending key on any failure.
    A null value is an absent key."""
    unknown = sorted(set(data) - set(_MODEL_KEYS))
    if unknown:
        raise ConfigError(unknown[0], f"unknown config key {unknown[0]!r}")
    if data.get("n") is None:
        raise ConfigError("n", "missing required key 'n'")
    fields: dict = {}
    for key, row in _MODEL_KEYS.items():
        if data.get(key) is not None:
            try:
                fields[row.field] = row.read(data[key], fields.get("n"))
            except (TypeError, ValueError) as exc:
                raise ConfigError(key, f"{key}: {exc}") from None
    if "f" in fields:
        fields.setdefault("norm", fields["f"].canonical_norm())
    return ExperimentConfig(**fields)


def serialize_config(cfg: ExperimentConfig) -> dict:
    """JSON-ready dict of every set key, in the form config_from_dict reads."""
    return {key: row.render(value) for key, row in _MODEL_KEYS.items()
            if (value := getattr(cfg, row.field)) is not None}


def parse_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge the config file (if any) with flags; flags win.  Both set only the command's keys."""
    command = _COMMANDS[args.command]
    data: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError("config", f"config file not found: {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"config file is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config", "config file must hold a JSON object")
        unread = sorted(set(data) - set(command.keys) - {"masterSeed"})
        if unread:
            raise ConfigError(unread[0], f"{args.command} does not read config key {unread[0]!r}")
    for key in (*command.keys, "masterSeed"):
        if getattr(args, key) is not None:
            data[key] = getattr(args, key)
    if not command.needs_n and data.get("f") is None:
        # without f the command runs its own built-in cases and reads no model key
        given = [key for key in command.keys if data.get(key) is not None]
        if given:
            raise ConfigError(given[0], f"{args.command} without f does not read {given[0]!r}")
        data["n"] = 2  # placeholder; the cases carry their own dimensions
    elif data.get("n") is None and data.get("f") is not None:
        try:
            data["n"] = parse_target(str(data["f"])).n
        except ValueError as exc:
            raise ConfigError("f", f"f: {exc}") from None
    return config_from_dict(data)


# --------------------------------------------------------------------------
# persistence


# one encoder for every record: json.dumps with options builds one per call
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _json_line(record: dict) -> str:
    return _JSON.encode(record)


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(_json_line(rec) + "\n")


def _write_csv(path: Path, table: list[dict]) -> None:
    """One row per dict; the header is the first row's keys, in order."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(table[0]))
        writer.writeheader()
        writer.writerows(table)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _emit(
    args: argparse.Namespace,
    cfg: ExperimentConfig,
    records: list[dict],
    table: list[dict],
    extras: dict | None = None,
    started: str = "",
) -> None:
    """Write the requested data files plus the manifest."""
    seen = set()
    stamped = []
    for rec in records:
        rec = {"masterSeed": cfg.master_seed, **rec}
        rec.setdefault("sample", len(stamped))
        key = (rec["sample"], rec.get("volume"), rec.get("t"), rec.get("case"))
        if key in seen:
            raise RuntimeError(f"duplicate record key {key}")
        seen.add(key)
        stamped.append(rec)
    prefix = Path(args.out)
    if prefix.parent != Path("."):
        prefix.parent.mkdir(parents=True, exist_ok=True)

    outputs = {}
    if args.format in ("jsonl", "both"):
        jpath = Path(f"{prefix}.jsonl")
        _write_jsonl(jpath, stamped)
        outputs[jpath.name] = _sha256(jpath)
    if args.format in ("csv", "both"):
        cpath = Path(f"{prefix}.csv")
        _write_csv(cpath, table)
        outputs[cpath.name] = _sha256(cpath)
    command = _COMMANDS[args.command]
    # without f, a command that needs no n runs its built-in cases and reads no model key
    read = command.keys if command.needs_n or cfg.f is not None else ()
    manifest = {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "command": args.command,
        "config": {key: value for key, value in serialize_config(cfg).items()
                   if key in read or key == "masterSeed"},
        "masterSeed": cfg.master_seed,
        "workers": args.workers,
        "startedAt": started,
        "finishedAt": datetime.now(timezone.utc).isoformat(),
        "outputs": outputs,
        # reruns are byte identical for a fixed numpy version; the platform comes
        # from uname, as platform.platform() costs ~10 ms scanning the interpreter
        "environment": {"python": platform.python_version(), "numpy": np.__version__, "nproc": os.cpu_count(),
                        "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}"},
    }
    if extras:
        manifest["result"] = extras
    mpath = Path(f"{prefix}.manifest.json")
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# --------------------------------------------------------------------------
# shared pieces


def _require(value, key: str):
    if value is None:
        raise ConfigError(key, f"missing required key {key!r}")
    return value


def _map_group(cfg: ExperimentConfig, args) -> str:
    """--group, or "identity" under --identity: one map, no affine group or shift."""
    if not getattr(args, "identity", False):
        return cfg.group
    for key, value, unset in (("group", cfg.group, "SL"), ("shiftBound", cfg.shift_bound, 0.0),
                              ("sampleCount", cfg.sample_count, 1)):
        if value != unset:
            raise ConfigError(key, f"--identity uses one identity map, so {key} must be {unset}, got {value}")
    return "identity"


def _sampled_maps(cfg: ExperimentConfig, args) -> dict:
    """How a command draws its maps (``experiments.draw_map``): sampleCount
    maps of --group from the master seed, or one identity map under --identity."""
    return {"samples": cfg.sample_count, "seed": cfg.master_seed, "workers": args.workers,
            "group": _map_group(cfg, args), "shift_bound": cfg.shift_bound}


# the point set siegel and rogers sample: lattices under SL, affine grids
# (a uniform shift on the torus) under ASL
_ENSEMBLES = {"SL": "lattice", "ASL": "grid"}


def _volume_list(text: str, key: str) -> list[float]:
    try:
        values = [float(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(key, f"{key}: expected comma separated numbers, got {text!r}") from None
    if not values or not all(map(math.isfinite, values)):
        raise ConfigError(key, f"{key}: expected finite numbers, got {text!r}")
    return values


def _round6(x):
    if x is None:
        return None
    return float(f"{x:.12g}")


# --------------------------------------------------------------------------
# subcommand handlers: each returns (records, table, extras), the JSONL
# records, the CSV rows as column -> value dicts and the manifest result


def _cmd_volume(cfg: ExperimentConfig, args) -> tuple:
    if cfg.f is not None:
        cases = [("custom", cfg.f, _require(cfg.psi, "psi"), cfg.norm,
                  float(_require(args.t0, "t0")), float(_require(args.t, "t")))]
    else:
        cases = [(label, f, psi, f.canonical_norm(), lo, hi) for label, f, psi, lo, hi in verification_matrix()]
    rows = []
    for label, f, psi, norm, lo, hi in cases:
        quad = shell_volume(f, psi, norm, lo, hi)
        rows.append({"case": label, "f": target_spec(f), "psi": psi_spec(psi), "norm": norm_spec(norm),
                     "sLo": lo, "tHi": hi, "value": quad.value, "quadError": quad.error})
    return rows, rows, {"rows": len(rows)}


def _cmd_mc_volume(cfg: ExperimentConfig, args) -> tuple:
    f = _require(cfg.f, "f")
    psi = _require(cfg.psi, "psi")
    outer = float(_require(args.outer, "outer"))
    mc = monte_carlo_region_volume(
        f, psi, cfg.norm, outer, cfg.sample_count, seed=cfg.master_seed, inner=args.inner
    )
    row = {"value": mc.value, "stderr": mc.stderr, "hits": mc.hits, "samples": mc.samples,
           "degenerate": mc.degenerate}
    return [row], [row], {"value": mc.value, "stderr": mc.stderr}


def _cmd_count(cfg: ExperimentConfig, args) -> tuple:
    f = _require(cfg.f, "f")
    if args.eps is None:
        bound = _require(cfg.psi, "psi")
    elif cfg.psi is not None:
        raise ConfigError("psi", "count takes a fixed --eps or a bound psi, not both")
    else:
        bound = tuple([float(args.eps)] * f.component_count)
    g = draw_map(cfg.n, cfg.master_seed, 0, _map_group(cfg, args), cfg.shift_bound, cfg.norm)
    query = CountQuery(
        g=g,
        f=f,
        bound=bound,
        norm=cfg.norm,
        point_class=cfg.point_class,
        t0=args.t0,
        t=float(_require(args.t, "t")),
        shell_space=args.space,
        stop_after_first=args.stop_after_first,
    )
    res = count_solutions(query)
    witness = None if res.first_witness is None else [int(x) for x in res.first_witness]
    row = {"count": res.count, "visited": res.visited, "fullScan": res.full_scan, "witness": witness}
    record = {**row, "identity": bool(args.identity)}
    return [record], [{**row, "witness": json.dumps(witness)}], {"count": res.count}


def _cmd_classify(cfg: ExperimentConfig, args) -> tuple:
    f = _require(cfg.f, "f")
    psi = _require(cfg.psi, "psi")
    verdict = classify_series(f, psi, args.criterion, r=args.r)
    row = {"criterion": args.criterion, "r": args.r, "verdict": verdict.value}
    return [row], [row], {"verdict": verdict.value}


def _cmd_siegel(cfg: ExperimentConfig, args) -> tuple:
    res = siegel_mean_experiment(
        cfg.n,
        _volume_list(str(_require(args.volume, "volume")), "volume")[0],
        cfg.sample_count,
        cfg.master_seed,
        ensemble=_ENSEMBLES[cfg.group],
        workers=args.workers,
    )
    table = []
    summary = {}
    for key, est in res.estimates.items():
        ref = res.references[key]
        gap = abs(est.estimate - ref) / est.stderr if est.stderr > 0 else 0.0
        table.append({"pointClass": key, "mean": est.estimate, "stderr": est.stderr, "reference": ref,
                      "gapInStderr": gap, "ess": est.ess})
        summary[key] = {"mean": est.estimate, "stderr": est.stderr, "reference": ref}
    return res.records, table, {"volume": res.volume, "estimates": summary}


def _cmd_rogers(cfg: ExperimentConfig, args) -> tuple:
    volumes = _volume_list(_require(args.volumes, "volumes"), "volumes")
    res = rogers_variance_experiment(
        cfg.n,
        volumes,
        cfg.sample_count,
        cfg.master_seed,
        ensemble=_ENSEMBLES[cfg.group],
        ceiling=args.ceiling,
        workers=args.workers,
    )
    extras = {"rows": [{k: _round6(v) if isinstance(v, float) else v for k, v in r.items()} for r in res.rows]}
    return res.records, res.rows, extras


def _cmd_emptyprob(cfg: ExperimentConfig, args) -> tuple:
    volumes = _volume_list(_require(args.volumes, "volumes"), "volumes")
    res = empty_probability_experiment(
        cfg.n, volumes, cfg.sample_count, cfg.master_seed, r=args.r, workers=args.workers
    )
    table = [
        {"volume": r["volume"], "emptyFrequency": r["empty_frequency"], "wilsonLow": r["wilson_low"],
         "wilsonHigh": r["wilson_high"], "slope": res.slope, "slopeBound": res.slope_bound}
        for r in res.rows
    ]
    extras = {"slope": res.slope, "slopeBound": res.slope_bound, "decayOk": res.decay_ok}
    return res.records, table, extras


def _cmd_ratio(cfg: ExperimentConfig, args) -> tuple:
    """One ratio series per sampled map; sampleCount > 1 repeats the run
    over independent maps (sample i is drawn from mix_seed(seed, i))."""
    res = counting_ratio_experiment(
        _require(cfg.f, "f"),
        _require(cfg.psi, "psi"),
        cfg.norm,
        cfg.point_class,
        _require(cfg.schedule, "schedule"),
        **_sampled_maps(cfg, args),
    )
    table = [{**r, "threshold": res.threshold, "constant": res.constant} for r in res.records]
    series = [
        {"sample": s["sample"], "firstRatio": s["first_ratio"], "finalRatio": s["final_ratio"],
         "threshold": res.threshold}
        for s in res.series
    ]
    extras = {"constant": res.constant, "identity": bool(args.identity), "series": series}
    return res.records, table, extras


def _cmd_zerofull(cfg: ExperimentConfig, args) -> tuple:
    res = zero_full_experiment(
        _require(cfg.f, "f"),
        _require(cfg.psi, "psi"),
        cfg.norm,
        cfg.point_class,
        float(_require(args.t_split, "tSplit")),
        float(_require(args.t_max, "tMax")),
        **_sampled_maps(cfg, args),
    )
    extras = {"fraction": res.fraction, "verdict": res.verdict.value}
    return res.records, [{**extras, "samples": cfg.sample_count}], extras


def _cmd_uniform(cfg: ExperimentConfig, args) -> tuple:
    res = uniform_approx_experiment(
        _require(cfg.f, "f"),
        _require(cfg.psi, "psi"),
        cfg.norm,
        cfg.point_class,
        _require(cfg.schedule, "schedule"),
        **_sampled_maps(cfg, args),
    )
    extras = {"passFraction": res.pass_fraction}
    table = [
        {"t": c["t"], "successFraction": c["success_fraction"], "samples": cfg.sample_count, **extras}
        for c in res.checkpoints
    ]
    return res.records, table, extras


def _cmd_kgsystem(cfg: ExperimentConfig, args) -> tuple:
    res = kg_system_experiment(
        _require(cfg.psi, "psi"),
        cfg.n,
        cfg.point_class,
        _require(cfg.schedule, "schedule"),
        **_sampled_maps(cfg, args),
    )
    extras = {"verdict": res.verdict.value}
    table = [{"t": r["t"], "meanCount": r["mean_count"], "stderr": r["stderr"], **extras} for r in res.rows]
    return res.records, table, extras


def _cmd_normcheck(cfg: ExperimentConfig, args) -> tuple:
    norm_b = parse_norm(_require(args.norm_b, "normB"), cfg.n)
    scales = _volume_list(args.scales, "scales")
    res = norm_independence_check(
        _require(cfg.f, "f"),
        _require(cfg.psi, "psi"),
        cfg.norm,
        norm_b,
        scales,
        cfg.sample_count,
        cfg.master_seed,
    )
    extras = {"trendA": res.trend_a, "trendB": res.trend_b, "agree": res.agree}
    table = [
        {"scale": r["scale"], "volumeA": r["volume_a"], "stderrA": r["stderr_a"], "volumeB": r["volume_b"],
         "stderrB": r["stderr_b"], **extras}
        for r in res.rows
    ]
    return res.rows, table, extras


# --------------------------------------------------------------------------
# selftest


def nested_kernel_quadrature(k: int, z: float, c: float) -> float:
    """High-accuracy oracle for the product-family kernel recursion
    I_k(z, c) = int_0^z I_{k-1}(z, c/y) dy.  The inner closed form goes
    constant (= z^k) below the saturation point y* = c / z^(k+1), so the
    integral is split there; a plain pass over the kink stalls near 1e-7.
    """
    kink = min(c / z ** (k + 1), z)
    total = z**k * kink
    if kink < z:
        def smooth(y):
            return i_k_closed_form(k - 1, z, c / y)

        total += adaptive_simpson(smooth, kink, z, abs_tol=1e-13, rel_tol=1e-12).value
    return total


def _selftest_queries(rng: np.random.Generator):
    """Small randomized oracle queries, cheap enough to brute force."""
    targets = [
        SignedPowerForm(1, 1, 2),
        SignedPowerForm(2, 1, 2),
        SignedPowerForm(1, 1, 1),
        CoordinateProduct(2),
        CoordinateProduct(3),
        MaxPower((2.0,), 2),
        MaxPower((2.0, 1.0), 3),
    ]
    for f in targets:
        n = f.n
        g = sample_sl(n, rng)
        psi = ApproxFunction(((float(rng.uniform(0.4, 1.5)), float(rng.uniform(0.0, 0.8)), 0),))
        t = float(rng.uniform(6.0, 12.0)) if n == 2 else float(rng.uniform(4.0, 7.0))
        pc = [PointClass.ALL_NONZERO, PointClass.PRIMITIVE][int(rng.integers(2))]
        yield CountQuery(g, f, psi, f.canonical_norm(), pc, 0.0, t)


def _cmd_selftest(cfg: ExperimentConfig, args) -> tuple:
    checks: list[tuple[str, bool, str]] = []

    rng = np.random.default_rng(mix_seed(cfg.master_seed, 101))
    mismatches = 0
    total = 0
    for query in _selftest_queries(rng):
        total += 1
        if count_solutions(query).count != brute_force_count(query).count:
            mismatches += 1
    checks.append(("counter-oracle", mismatches == 0, f"{total - mismatches}/{total} queries match"))

    bad = 0
    picked = [0, 4, 7]
    for idx in picked:
        label, f, psi, lo, hi = verification_matrix()[idx]
        closed = shell_volume(f, psi, f.canonical_norm(), lo, hi)
        mc = monte_carlo_region_volume(
            f, psi, f.canonical_norm(), hi, 300_000, seed=mix_seed(cfg.master_seed, 202), inner=lo
        )
        if mc.degenerate or abs(closed.value - mc.value) > 4.0 * mc.stderr + closed.error:
            bad += 1
    checks.append(("volume-vs-mc", bad == 0, f"{len(picked) - bad}/{len(picked)} points within 4 stderr"))

    worst = 0.0
    for k in (1, 2, 3):
        for z, c in ((2.0, 1.0), (3.0, 6.0), (2.5, 0.3)):
            nested = nested_kernel_quadrature(k, z, c)
            closed = i_k_closed_form(k, z, c)
            worst = max(worst, abs(nested - closed) / max(abs(closed), 1e-30))
    checks.append(("kernel-recursion", worst < 1e-8, f"max relative gap {worst:.2e}"))

    wrong = 0
    cells = 0
    for n, d in ((3, 2), (4, 2), (4, 3)):
        for s in (0.0, 0.5, 1.0, 1.5, 2.0):
            for j in (0, 1, 2):
                cells += 1
                verdict = classify_series(
                    SignedPowerForm(n - 1, 1, d),
                    ApproxFunction(((1.0, s, j),)),
                    "asymptotic",
                )
                expected = Verdict.DIVERGES if s <= n - d else Verdict.CONVERGES
                if verdict is not expected:
                    wrong += 1
    checks.append(("classifier-grid", wrong == 0, f"{cells - wrong}/{cells} cells match the analytic rule"))

    sched = DyadicSchedule(1.0, 2.0, 3, 9)
    vals = sched.values()
    ratios = [b / a for a, b in zip(vals, vals[1:])]
    ok = all(r == 2.0 for r in ratios) and vals == sorted(vals)
    checks.append(("schedule-lacunary", ok, f"{len(vals)} checkpoints, ratio 2"))

    records = [{"check": name, "passed": passed, "detail": detail} for name, passed, detail in checks]
    table = [{"check": name, "status": "pass" if passed else "FAIL", "detail": detail}
             for name, passed, detail in checks]
    width = max(len(row["check"]) for row in table)
    for row in table:
        print(f"{row['check']:<{width}}  {row['status']}  {row['detail']}")
    failed = sum(1 for _, passed, _ in checks if not passed)
    return records, table, {"failed": failed, "checks": len(checks)}


# --------------------------------------------------------------------------
# argument parsing


# a subcommand: its handler, help, the model keys the handler reads, and whether
# it needs n (volume's built-in matrix and selftest carry their own dimensions)
_Command = namedtuple("_Command", "handler help keys needs_n", defaults=(True,))

_DICHOTOMY_KEYS = ("n", "f", "psi", "norm", "pointClass", "group", "shiftBound", "schedule", "sampleCount")

_COMMANDS = {
    "volume": _Command(_cmd_volume, "closed-form shell volumes (default: the 9-point verification matrix)",
                       ("n", "f", "psi", "norm"), needs_n=False),
    "mc-volume": _Command(_cmd_mc_volume, "Monte Carlo volume of a sublevel shell",
                          ("n", "f", "psi", "norm", "sampleCount")),
    "count": _Command(_cmd_count, "count lattice points in one sublevel shell",
                      ("n", "f", "psi", "norm", "pointClass", "group", "shiftBound")),
    "classify": _Command(_cmd_classify, "convergence/divergence of the family criterion", ("n", "f", "psi")),
    "siegel": _Command(_cmd_siegel, "mean count vs c_P * volume", ("n", "group", "sampleCount")),
    "rogers": _Command(_cmd_rogers, "count variance per region volume", ("n", "group", "sampleCount")),
    "emptyprob": _Command(_cmd_emptyprob, "P(empty region) decay across a V grid", ("n", "sampleCount")),
    "ratio": _Command(_cmd_ratio, "count over c_P * volume along a schedule", _DICHOTOMY_KEYS),
    "zerofull": _Command(_cmd_zerofull, "fraction of sampled maps with a solution in a shell",
                         tuple(key for key in _DICHOTOMY_KEYS if key != "schedule")),
    "uniform": _Command(_cmd_uniform, "per-checkpoint uniform approximability checks", _DICHOTOMY_KEYS),
    "kgsystem": _Command(_cmd_kgsystem, "componentwise simultaneous system counts",
                         ("n", "psi", "pointClass", "group", "shiftBound", "schedule", "sampleCount")),
    "normcheck": _Command(_cmd_normcheck, "norm independence of the finiteness dichotomy",
                          ("n", "f", "psi", "norm", "sampleCount")),
    "selftest": _Command(_cmd_selftest, "oracle equivalence and invariant suite", (), needs_n=False),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args keeps no state between calls."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its values")
    common.add_argument("--workers", type=int, default=1, help="parallel sample workers")
    common.add_argument("--out", default="run", help="output path prefix")
    common.add_argument("--format", choices=("csv", "jsonl", "both"), default="both")

    parser = argparse.ArgumentParser(
        prog="genlat",
        description="Lattice point statistics in sublevel regions: exact volumes, "
        "invariant sampling, pruned counting, and the statistical experiment suite.",
    )
    parser.add_argument("--version", action="version", version=f"genlat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # each config flag is built once and shared, as parents= does (an add_argument per
    # subparser costs ~1 ms); no prefix matching, or an unread --f passes as --format
    model = argparse.ArgumentParser(add_help=False)
    actions = {key: model.add_argument(row.flag, dest=key, **row.kwargs) for key, row in _MODEL_KEYS.items()}
    p = {}
    for name, command in _COMMANDS.items():
        p[name] = sub.add_parser(name, parents=[common], help=command.help, allow_abbrev=False)
        for key in (*command.keys, "masterSeed"):
            p[name]._add_action(actions[key])

    p["volume"].add_argument("--t0", type=float, default=None, help="shell start (custom row)")
    p["volume"].add_argument("--t", type=float, default=None, help="shell end (custom row)")

    p["mc-volume"].add_argument("--outer", type=float, required=True)
    p["mc-volume"].add_argument("--inner", type=float, default=0.0)

    p["count"].add_argument("--t0", type=float, default=0.0)
    p["count"].add_argument("--t", type=float, default=None, help="shell radius (required)")
    p["count"].add_argument("--space", choices=("v", "w"), default="v", help="measure the radius on v or on w = g(v)")
    p["count"].add_argument("--eps", type=float, default=None, help="fixed tolerance instead of --psi")
    p["count"].add_argument("--identity", action="store_true", help="use the identity map (non-generic)")
    p["count"].add_argument("--stop-after-first", action="store_true")

    p["classify"].add_argument("--criterion", choices=("asymptotic", "uniform"), default="asymptotic")
    p["classify"].add_argument("--r", type=float, default=2.0)

    p["siegel"].add_argument("--volume", type=float, default=None, required=False)

    p["rogers"].add_argument("--volumes", default=None, help="comma separated V grid")
    p["rogers"].add_argument("--ceiling", type=float, default=None)

    p["emptyprob"].add_argument("--volumes", default=None, help="comma separated V grid")
    p["emptyprob"].add_argument("--r", type=float, default=2.0)

    p["ratio"].add_argument("--identity", action="store_true", help="use the identity map (non-generic)")

    p["zerofull"].add_argument("--t-split", type=float, default=None)
    p["zerofull"].add_argument("--t-max", type=float, default=None)

    p["normcheck"].add_argument("--norm-b", default=None, help="second norm spec")
    p["normcheck"].add_argument("--scales", default="2,4,8", help="comma separated shell scales")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = datetime.now(timezone.utc).isoformat()
    try:
        cfg = parse_config(args)
        records, table, extras = _COMMANDS[args.command].handler(cfg, args)
        _emit(args, cfg, records, table, extras, started)
    except ConfigError as exc:
        sys.stderr.write(_json_line({"error": "config", "key": exc.key, "message": str(exc)}) + "\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(_json_line({"error": "invalid", "message": str(exc)}) + "\n")
        return 2
    if args.command == "selftest" and extras.get("failed"):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Desk-scale statistical experiments on random lattices and grids.

Each experiment draws its per-sample randomness from a generator seeded by
``mix_seed(master_seed, sample_index)``, so results are byte-identical for
a fixed master seed regardless of worker count or scheduling.  Results
carry both summary statistics and per-sample records (plain dicts, JSON
serializable, canonically ordered by sample index) for persistence.

The dichotomy experiments (counting ratio, zero-full, uniform, band system)
share one map-draw rule, ``draw_map`` (SL, ASL with a bounded shift, or the
identity), and one worker that counts a run's list of shells (bound, t0, t)
on each sampled map; each experiment only builds its shells and summarizes
the counts.  Nested exhaustive shells (``ratio``, ``kgsystem``) are counted
in one pass per map, at the largest t, and each shell reads its count off
the hits' radii; early-exit runs count each shell on its own.  The mean, variance and empty-probability experiments sample
lattices or affine grids from the exact invariant law instead.

Estimators: unweighted runs use the usual sample mean and variance; the
exact invariant-law lattice sampler in dimension >= 3 is importance
weighted, so those runs report self-normalized weighted means with the
matching standard error and effective sample size.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    ApproxFunction,
    DyadicSchedule,
    MaxPower,
    Norm,
    PointClass,
    TargetFunction,
    VectorOf,
    max_norm,
    mix_seed,
)
from .counting import (
    CountQuery,
    NormBall,
    count_solutions,
    lattice_points_in_region,
)
from .haar import (
    UnimodularMap,
    identity_map,
    sample_asl,
    sample_grid_exact,
    sample_lattice_exact,
    sample_sl,
)
from .volume import (
    Verdict,
    _shell_family,
    _shell_integral,
    classify_series,
    monte_carlo_region_volume,
    threshold_M,
    zeta_fn,
)

__all__ = [
    "WeightedMean",
    "wilson_interval",
    "draw_map",
    "siegel_mean_experiment",
    "SiegelResult",
    "rogers_variance_experiment",
    "RogersResult",
    "empty_probability_experiment",
    "EmptyProbResult",
    "counting_ratio_experiment",
    "RatioResult",
    "zero_full_experiment",
    "ZeroFullResult",
    "uniform_approx_experiment",
    "UniformResult",
    "kg_system_experiment",
    "KGSystemResult",
    "norm_independence_check",
    "NormCheckResult",
]


# --------------------------------------------------------------------------
# summaries


@dataclass(frozen=True)
class WeightedMean:
    """Self-normalized importance-sampling mean with its standard error.

    With all weights equal this reduces to the plain mean with the
    population-variance standard error; ess is the effective sample size
    (sum w)^2 / sum w^2.
    """

    estimate: float
    stderr: float
    ess: float
    sample_count: int

    @classmethod
    def from_weighted(cls, values, weights) -> "WeightedMean":
        xs = np.asarray(values, dtype=float)
        ws = np.asarray(weights, dtype=float)
        if len(xs) != len(ws) or len(xs) == 0:
            raise ValueError("need equally many values and weights, at least one")
        if np.any(ws < 0) or not np.any(ws > 0):
            raise ValueError("weights must be nonnegative with positive total")
        total = ws.sum()
        mean = float((ws * xs).sum() / total)
        se = float(np.sqrt((ws * ws * (xs - mean) ** 2).sum()) / total)
        ess = float(total * total / (ws * ws).sum())
        return cls(mean, se, ess, len(xs))


# the normal quantile of a two-sided 95% interval
_WILSON_Z = 1.96


def wilson_interval(successes: float, trials: float) -> tuple[float, float]:
    """95% Wilson score confidence interval for a binomial proportion;
    weighted runs pass their effective trial count and successes at that
    scale."""
    if trials < 1 or not 0 <= successes <= trials:
        raise ValueError(f"bad counts ({successes}, {trials})")
    z = _WILSON_Z
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# --------------------------------------------------------------------------
# worker plumbing


def _run_indexed(worker, payloads, workers: int):
    """Map ``worker`` over payloads, in order, optionally across processes."""
    if workers <= 1 or len(payloads) <= 1:
        return [worker(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, payloads, chunksize=max(1, len(payloads) // (4 * workers))))


_SIEGEL_CONSTANT = {
    PointClass.ALL_NONZERO: lambda n: 1.0,
    PointClass.ALL_INTEGER: lambda n: 1.0,
    PointClass.PRIMITIVE: lambda n: 1.0 / zeta_fn(float(n)),
}


# --------------------------------------------------------------------------
# Siegel mean


@dataclass(frozen=True)
class SiegelResult:
    volume: float
    estimates: dict
    references: dict
    records: list


# a sample holds about `volume` points (the Siegel mean), so ranges of
# _RANGE_POINTS / volume samples bound the points one enumeration call keeps
_RANGE_POINTS = 16384


def _siegel_sample(args):
    """Per volume, the records of samples start..stop-1.  Each sample is
    drawn once from its own stream in index order; one region enumeration
    at the largest sup-norm ball finds the points of all of them, and each
    volume counts the points inside its own ball."""
    n, volumes, ensemble, seed, start, stop = args
    size = stop - start
    bases, shifts, weights = np.zeros((size, n, n)), np.zeros((size, n)), np.zeros(size)
    for k in range(size):
        rng = np.random.default_rng(mix_seed(seed, start + k))
        if ensemble == "lattice":
            bases[k], weights[k] = sample_lattice_exact(n, rng)
        else:
            g, weights[k] = sample_grid_exact(n, rng)
            bases[k], shifts[k] = g.h, g.z
    sup = max_norm(n)
    radii = [0.5 * volume ** (1.0 / n) for volume in volumes]  # sup norm: volume (2r)^n
    top = max(radii)
    owner, vs, ws = lattice_points_in_region(bases, shifts, NormBall(sup, top))
    # every point found lies in the top ball; a smaller one takes NormBall.contains's test
    norms = sup.eval_many(ws) if min(radii) < top else None
    keys = ("nonzero", "primitive") if ensemble == "lattice" else ("all",)
    classes = {key: PointClass(key).contains(vs) for key in keys}
    out = []
    for radius in radii:
        inside = classes if radius == top else {key: mask & (norms <= radius) for key, mask in classes.items()}
        counts = {key: np.bincount(owner[mask], minlength=size) for key, mask in inside.items()}
        out.append([
            {"sample": start + k, "weight": float(weights[k]), **{key: int(c[k]) for key, c in counts.items()}}
            for k in range(size)
        ])
    return out


def _sample_records(n, volumes, samples, seed, ensemble, workers) -> list:
    """Per volume, the records of samples 0..samples-1 (``_siegel_sample``),
    run over contiguous index ranges, at least one per worker; the records
    do not depend on the ranges."""
    if ensemble not in ("lattice", "grid"):
        raise ValueError(f"ensemble must be lattice or grid, got {ensemble!r}")
    if samples < 1:
        raise ValueError("need at least one sample")
    for volume in volumes:
        if not volume >= 0:
            raise ValueError(f"volume must be >= 0, got {volume}")
    per_range = max(1, int(_RANGE_POINTS // max(*volumes, 1.0)))
    parts = max(-(-samples // per_range), min(workers, samples))
    edges = [samples * k // parts for k in range(parts + 1)]
    payloads = [(n, tuple(volumes), ensemble, seed, a, b) for a, b in zip(edges, edges[1:])]
    ranges = _run_indexed(_siegel_sample, payloads, workers)
    return [[r for part in ranges for r in part[vi]] for vi in range(len(volumes))]


def siegel_mean_experiment(
    n: int,
    volume: float,
    samples: int,
    seed: int,
    ensemble: str = "lattice",
    workers: int = 1,
) -> SiegelResult:
    """Empirical mean of the point count in a volume-V ball vs c_P * V.

    The lattice ensemble counts nonzero and primitive points on the same
    samples; the grid ensemble counts all grid points.  References:
    c = 1 for nonzero and grid counts, 1/zeta(n) for primitive ones.
    """
    (records,) = _sample_records(n, (volume,), samples, seed, ensemble, workers)
    weights = [r["weight"] for r in records]
    classes = ("nonzero", "primitive") if ensemble == "lattice" else ("all",)
    estimates, references = {}, {}
    for key in classes:
        estimates[key] = WeightedMean.from_weighted([r[key] for r in records], weights)
        references[key] = _SIEGEL_CONSTANT[PointClass(key)](n) * volume
    return SiegelResult(volume, estimates, references, records)


# --------------------------------------------------------------------------
# Rogers variance


@dataclass(frozen=True)
class RogersResult:
    rows: list
    records: list


def rogers_variance_experiment(
    n: int,
    volumes,
    samples: int,
    seed: int,
    ensemble: str = "grid",
    ceiling: float | None = None,
    workers: int = 1,
) -> RogersResult:
    """Empirical count variance per region volume over a V grid.

    The affine-grid ensemble at any n is the variance equality case
    (variance/V near 1); lattice rows report the same ratio for stability
    inspection.  A configured ceiling flags rows that exceed it.
    """
    key = "all" if ensemble == "grid" else "nonzero"
    rows, records = [], []
    for vi, volume in enumerate(volumes):
        (recs,) = _sample_records(n, (float(volume),), samples, mix_seed(seed, vi), ensemble, workers)
        counts = np.asarray([r[key] for r in recs], dtype=float)
        weights = np.asarray([r["weight"] for r in recs], dtype=float)
        mean = float((weights * counts).sum() / weights.sum())
        var = float((weights * (counts - mean) ** 2).sum() / weights.sum())
        ratio = var / volume if volume > 0 else None
        flagged = bool(ceiling is not None and ratio is not None and ratio > ceiling)
        rows.append(
            {
                "volume": float(volume),
                "mean": mean,
                "variance": var,
                "ratio": ratio,
                "flagged": flagged,
            }
        )
        records += [{"volume": float(volume), **r} for r in recs]
    return RogersResult(rows, records)


# --------------------------------------------------------------------------
# empty probability


@dataclass(frozen=True)
class EmptyProbResult:
    rows: list
    slope: float
    slope_bound: float
    decay_ok: bool
    records: list


def empty_probability_experiment(
    n: int,
    volumes,
    samples: int,
    seed: int,
    r: float = 2.0,
    workers: int = 1,
) -> EmptyProbResult:
    """Empirical P(no nonzero lattice point in the volume-V ball) per V.

    Each sample is drawn once and counted in every ball, from the streams
    mix_seed(mix_seed(seed, 0), i).  The balls are nested, so the rows are
    correlated and, for increasing volumes, their frequencies cannot
    increase.  Frequencies are self-normalized weighted means (the exact
    sampler is importance weighted for n >= 3), with Wilson intervals at the
    effective sample size (sum w)^2 / sum w^2; each record carries its
    sample's weight, so the rows can be rebuilt from the records.  The
    log-log slope across the grid is fit with zero frequencies clamped to
    0.5/samples, and compared against the bound shape V^(1-r) with half a
    unit of slack.
    """
    if len(volumes) < 2:
        raise ValueError("need at least two volumes for the decay fit")
    volumes = [float(volume) for volume in volumes]
    per_volume = _sample_records(n, volumes, samples, mix_seed(seed, 0), "lattice", workers)
    weights = np.asarray([rec["weight"] for rec in per_volume[0]])
    total, square = weights.sum(), (weights * weights).sum()
    ess = float(total * total / square)
    rows, records = [], []
    for volume, recs in zip(volumes, per_volume):
        empty = np.asarray([rec["nonzero"] == 0 for rec in recs])
        # weighted successes at the effective size: k and samples for equal weights
        successes = float(weights[empty].sum() * total / square)
        lo, hi = wilson_interval(successes, ess)
        rows.append(
            {
                "volume": volume,
                "empty_frequency": successes / ess,
                "wilson_low": lo,
                "wilson_high": hi,
            }
        )
        records += [
            {"volume": volume, "sample": rec["sample"], "empty": bool(e), "weight": rec["weight"]}
            for rec, e in zip(recs, empty)
        ]
    # least-squares slope in log2-log2 coordinates, zero rows clamped
    clamp = 0.5 / samples
    xs = np.log2([row["volume"] for row in rows])
    ys = np.log2([max(row["empty_frequency"], clamp) for row in rows])
    slope = float(np.polyfit(xs, ys, 1)[0])
    decay_ok = rows[-1]["empty_frequency"] <= rows[0]["empty_frequency"]
    return EmptyProbResult(rows, slope, -(r - 1.0) + 0.5, decay_ok, records)


# --------------------------------------------------------------------------
# sampled maps: one draw rule and one counting worker


def draw_map(
    n: int,
    seed: int,
    index: int,
    group: str = "SL",
    shift_bound: float = 0.0,
    norm: Norm | None = None,
) -> UnimodularMap:
    """Map ``index`` of a run with master seed ``seed``, drawn from
    default_rng(mix_seed(seed, index)).

    Group SL gives ``sample_sl``; ASL gives ``sample_asl``, the same linear
    part plus a shift uniform in the ``norm`` ball of radius ``shift_bound``
    (bound 0 is the SL draw); "identity" gives the identity map, the
    non-generic comparison case.
    """
    if group == "identity":
        return identity_map(n)
    rng = np.random.default_rng(mix_seed(seed, index))
    if group == "ASL":
        return sample_asl(n, rng, shift_bound, norm)
    if group == "SL":
        return sample_sl(n, rng)
    raise ValueError(f"group must be SL, ASL or identity, got {group!r}")


def _count_map(payload):
    """One map's counts on a run's shells: a CountResult per shell for an
    early exit, a count per shell for an exhaustive run.

    The exact refilter decides each v from its own radius, so the hits of an
    exhaustive shell (t0, t] are the hits of (t0, t_top] with radius <= t,
    for the same bound and t0 and the largest such t_top.  Each (bound, t0)
    is counted once, at its t_top, and each shell's count is read off that
    count's sorted hit radii."""
    (f, norm, point_class, shells, space, early, group, shift_bound, seed), index = payload
    g = draw_map(f.n, seed, index, group, shift_bound, norm)
    queries = [CountQuery(g, f, bound, norm, point_class, t0, t, space, early) for bound, t0, t in shells]
    if early:
        return [count_solutions(q) for q in queries]
    tops = {}
    for q in queries:
        top = tops.setdefault((q.bound, q.t0), q)
        if q.t > top.t:
            tops[q.bound, q.t0] = q
    radii = {key: count_solutions(q).radii for key, q in tops.items()}
    return [int(np.searchsorted(radii[q.bound, q.t0], q.t, side="right")) for q in queries]


def _count_maps(
    f, norm, point_class, shells, samples, seed, group, shift_bound, workers,
    space="v", stop_after_first=False,
) -> list:
    """Per sampled map (``draw_map`` of index 0..samples-1), its counts on
    each shell (bound, t0, t) (``_count_map``): CountResults with
    ``stop_after_first``, counts otherwise; in sample order for any worker
    count."""
    run = (f, norm, point_class, tuple(shells), space, stop_after_first, group, shift_bound, seed)
    return _run_indexed(_count_map, [(run, i) for i in range(samples)], workers)


# --------------------------------------------------------------------------
# counting ratio


@dataclass(frozen=True)
class RatioResult:
    threshold: float
    constant: float
    records: list  # per (sample, checkpoint): t, count, reference, ratio
    series: list  # per sample: its first and final ratio


def counting_ratio_experiment(
    f: TargetFunction,
    psi: ApproxFunction,
    norm: Norm,
    point_class: PointClass,
    schedule: DyadicSchedule,
    samples: int,
    seed: int,
    workers: int = 1,
    group: str = "SL",
    shift_bound: float = 0.0,
) -> RatioResult:
    """Lattice count over the sublevel shell vs c_P times its volume, per
    sampled map and checkpoint.

    Counts run in the image space (the region lives there); volumes come
    from the family's closed form over the same shell (M, t_k], once per
    run.  M is computed once, and the family checked once: each counted
    shell starts at M itself and ends past it, so it passes the shell check
    of ``shell_volume``, and is integrated as ``shell_volume`` integrates
    it.  Radii at or below the threshold M produce rows with a missing
    ratio rather than 0/0.  Only meaningful in the divergent regime;
    convergent input is rejected.
    """
    if classify_series(f, psi, "asymptotic") is not Verdict.DIVERGES:
        raise ValueError(
            "counting-ratio experiment needs the divergent (infinite measure) regime"
        )
    m_thr = threshold_M(f, psi)
    c = _SIEGEL_CONSTANT[point_class](f.n)
    ts = [float(t) for t in schedule.values()]
    counted = [t > m_thr * (1.0 + 1e-9) for t in ts]
    fam = _shell_family(f, psi, norm) if any(counted) else None
    references = [
        c * _shell_integral(fam, m_thr, t).value if ok else 0.0 for t, ok in zip(ts, counted)
    ]
    shells = [(psi, m_thr, t) for t, ok in zip(ts, counted) if ok]
    counts = _count_maps(
        f, norm, point_class, shells, samples, seed, group, shift_bound, workers, space="w"
    )
    records, series = [], []
    for i, shell_counts in enumerate(counts):
        hits = iter(shell_counts)
        found = [next(hits) if ok else 0 for ok in counted]
        ratios = [None if (k == 0 and ref == 0.0) else k / ref for k, ref in zip(found, references)]
        records += [
            {"sample": i, "t": t, "count": k, "reference": ref, "ratio": r}
            for t, k, ref, r in zip(ts, found, references, ratios)
        ]
        defined = [r for r in ratios if r is not None]
        series.append({"sample": i, "first_ratio": defined[0] if defined else None,
                       "final_ratio": defined[-1] if defined else None})
    return RatioResult(m_thr, c, records, series)


# --------------------------------------------------------------------------
# zero-full dichotomy


@dataclass(frozen=True)
class ZeroFullResult:
    fraction: float
    verdict: Verdict
    records: list


def zero_full_experiment(
    f: TargetFunction,
    psi: ApproxFunction,
    norm: Norm,
    point_class: PointClass,
    t_split: float,
    t_max: float,
    samples: int,
    seed: int,
    workers: int = 1,
    group: str = "SL",
    shift_bound: float = 0.0,
) -> ZeroFullResult:
    """Fraction of sampled g with a solution |f(g v)| <= psi(nu(v)) in the
    shell (T_split, T_max]; near 1 in the divergent regime, near 0 in the
    convergent one as the split grows."""
    if not t_split < t_max:
        raise ValueError(f"need T_split < T_max, got ({t_split}, {t_max})")
    counts = _count_maps(
        f, norm, point_class, [(psi, float(t_split), float(t_max))], samples, seed,
        group, shift_bound, workers, stop_after_first=True,
    )
    records = [
        {
            "sample": i,
            "hit": res.count > 0,
            "witness": list(res.first_witness) if res.first_witness else None,
        }
        for i, (res,) in enumerate(counts)
    ]
    fraction = sum(1 for r in records if r["hit"]) / samples
    return ZeroFullResult(fraction, classify_series(f, psi, "asymptotic"), records)


# --------------------------------------------------------------------------
# uniform approximability


@dataclass(frozen=True)
class UniformResult:
    pass_fraction: float
    checkpoints: list
    records: list


def uniform_approx_experiment(
    f: TargetFunction,
    psi: ApproxFunction,
    norm: Norm,
    point_class: PointClass,
    schedule: DyadicSchedule,
    samples: int,
    seed: int,
    workers: int = 1,
    group: str = "SL",
    shift_bound: float = 0.0,
) -> UniformResult:
    """Per sample and checkpoint t_k, checks whether some point of the class
    has nu(v) <= t_k and |f(g v)| <= psi(t_k) componentwise (a fixed
    tolerance per checkpoint).  k_star is the first index from which every
    later check passes; a sample passes if k_star exists in the schedule.
    """
    ts = tuple(schedule.values())
    shells = [(tuple(float(x) for x in psi(t)), 0.0, float(t)) for t in ts]
    counts = _count_maps(
        f, norm, point_class, shells, samples, seed, group, shift_bound, workers,
        stop_after_first=True,
    )
    records = []
    for i, results in enumerate(counts):
        successes = [res.count > 0 for res in results]
        misses = [k for k, ok in enumerate(successes) if not ok]
        start = misses[-1] + 1 if misses else 0  # of the trailing run of passes
        records.append({"sample": i, "successes": successes, "k_star": start if start < len(ts) else None})
    passed = sum(1 for r in records if r["k_star"] is not None)
    checkpoints = [
        {
            "t": float(t),
            "success_fraction": sum(1 for r in records if r["successes"][k]) / samples,
        }
        for k, t in enumerate(ts)
    ]
    return UniformResult(passed / samples, checkpoints, records)


# --------------------------------------------------------------------------
# componentwise band systems


@dataclass(frozen=True)
class KGSystemResult:
    verdict: Verdict
    rows: list
    records: list


def kg_system_experiment(
    psi: ApproxFunction,
    n: int,
    point_class: PointClass,
    schedule: DyadicSchedule,
    samples: int,
    seed: int,
    workers: int = 1,
    group: str = "SL",
    shift_bound: float = 0.0,
) -> KGSystemResult:
    """Componentwise simultaneous system |(g v)_i| <= psi_i(nu(v)) for
    i < l, the component count of psi, realized as a vector of
    single-coordinate bands; counts per checkpoint, with their mean and its
    standard error sqrt(var / samples), alongside the analytic
    classification."""
    l = psi.component_count
    if not 1 <= l < n:
        raise ValueError(f"need 1 <= number of components < n, got {l}")
    f = VectorOf(tuple(MaxPower((1.0,), n, (i,)) for i in range(l)))
    norm = max_norm(n)
    verdict = classify_series(f, psi, "asymptotic")
    ts = tuple(schedule.values())
    counts = _count_maps(
        f, norm, point_class, [(psi, 0.0, float(t)) for t in ts], samples, seed,
        group, shift_bound, workers,
    )
    records = [{"sample": i, "counts": shell_counts} for i, shell_counts in enumerate(counts)]
    rows = []
    for k, t in enumerate(ts):
        xs = np.asarray([r["counts"][k] for r in records], dtype=float)
        var = float(xs.var(ddof=1)) if samples > 1 else 0.0
        rows.append({"t": float(t), "mean_count": float(xs.mean()), "stderr": math.sqrt(var / samples)})
    return KGSystemResult(verdict, rows, records)


# --------------------------------------------------------------------------
# norm independence


@dataclass(frozen=True)
class NormCheckResult:
    rows: list
    trend_a: str
    trend_b: str
    agree: bool


def _trend_label(first: float, last: float, noise: float) -> str:
    if last > first * 1.15 + noise:
        return "growing"
    if last < first * 0.85 - noise:
        return "shrinking"
    return "flat"


def norm_independence_check(
    f: TargetFunction,
    psi: ApproxFunction,
    norm_a: Norm,
    norm_b: Norm,
    scales,
    samples: int,
    seed: int,
) -> NormCheckResult:
    """Monte Carlo volumes of the sublevel region over dyadic shells
    (S, 2S] under two radius norms; the finiteness dichotomy is norm
    independent, so both volume series should grow together or vanish
    together across the scale grid."""
    scales = [float(s) for s in scales]
    if len(scales) < 2:
        raise ValueError("need at least two scales")
    rows = []
    for si, s in enumerate(scales):
        mc_a = monte_carlo_region_volume(
            f, psi, norm_a, outer=2.0 * s, samples=samples, seed=mix_seed(seed, si), inner=s
        )
        mc_b = monte_carlo_region_volume(
            f, psi, norm_b, outer=2.0 * s, samples=samples, seed=mix_seed(seed, si), inner=s
        )
        rows.append(
            {
                "scale": s,
                "volume_a": mc_a.value,
                "stderr_a": mc_a.stderr,
                "volume_b": mc_b.value,
                "stderr_b": mc_b.stderr,
            }
        )
    noise_a = 3.0 * (rows[0]["stderr_a"] + rows[-1]["stderr_a"])
    noise_b = 3.0 * (rows[0]["stderr_b"] + rows[-1]["stderr_b"])
    trend_a = _trend_label(rows[0]["volume_a"], rows[-1]["volume_a"], noise_a)
    trend_b = _trend_label(rows[0]["volume_b"], rows[-1]["volume_b"], noise_b)
    return NormCheckResult(rows, trend_a, trend_b, trend_a == trend_b)

"""End-to-end acceptance suite: eleven statistical and exact checks at desk scale.

Mean and variance laws for random lattices and affine grids, empty-probability
decay, closed-form volumes against a high-sample Monte Carlo oracle, pruned
counting against brute force (correctness and speed), the counting-ratio
trend, the zero-full dichotomy, uniform approximability, exact series
classification, byte-identical reruns of the seeded CLI pipelines, and the
mean-value and zero-full pipelines at n=4.

Master seeds are pinned, so pass/fail is deterministic for a fixed numpy
version.  The whole module runs in roughly four minutes on four workers; the
long pole is the exact-sampler mean-value run at n=3 (about a minute), which
criterion timing below bounds explicitly.
"""

import csv
import math
import time
from pathlib import Path

import numpy as np
import pytest

from genlat.cli import main, nested_kernel_quadrature
from genlat.core import ApproxFunction, PointClass, SignedPowerForm
from genlat.counting import CountQuery, brute_force_count, count_solutions
from genlat.experiments import (
    empty_probability_experiment,
    rogers_variance_experiment,
    uniform_approx_experiment,
)
from genlat.core import DyadicSchedule
from genlat.haar import sample_sl
from genlat.volume import (
    classify_series,
    i_k_closed_form,
    monte_carlo_region_volume,
    shell_volume,
    verification_matrix,
)

WORKERS = 4

ZETA = {2: math.pi**2 / 6.0, 3: 1.2020569031595943, 4: math.pi**4 / 90.0}


def _run_cli(argv, prefix) -> float:
    """Run one CLI pipeline into ``prefix``, returning the wall time."""
    t0 = time.monotonic()
    rc = main([str(a) for a in argv] + ["--out", str(prefix), "--workers", str(WORKERS)])
    elapsed = time.monotonic() - t0
    assert rc == 0, f"CLI run failed: {argv}"
    return elapsed


def _manifest(prefix):
    import json

    return json.loads(Path(f"{prefix}.manifest.json").read_text())


def _jsonl_bytes(prefix) -> bytes:
    return Path(f"{prefix}.jsonl").read_bytes()


@pytest.fixture(scope="module")
def artifacts_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def siegel_runs(artifacts_dir):
    """Criterion 1 artifacts: mean-value runs at n=2 and n=3, V=50, 1e4 samples."""
    runs = {}
    for n in (2, 3):
        argv = ["siegel", "--n", n, "--volume", 50, "--samples", 10_000, "--seed", 101]
        prefix = artifacts_dir / f"siegel_n{n}"
        runs[n] = (argv, prefix, _run_cli(argv, prefix))
    return runs


@pytest.fixture(scope="module")
def ratio_run(artifacts_dir):
    """Criterion 6 artifact: 20 sampled maps, dyadic checkpoints 2^4..2^9."""
    argv = [
        "ratio", "--f", "spf:p=2,q=1,d=2", "--psi", "pl:C=1,s=0.5,j=0",
        "--schedule", "t0=1,ratio=2,k0=4,kmax=9", "--samples", 20, "--seed", 909,
    ]
    prefix = artifacts_dir / "ratio"
    return argv, prefix, _run_cli(argv, prefix)


@pytest.fixture(scope="module")
def zero_full_runs(artifacts_dir):
    """Criterion 7 artifacts: 100 sampled maps, shell (2^5, 2^9], both regimes."""
    runs = {}
    for label, psi in (("divergent", "pl:C=1,s=0.5,j=0"), ("convergent", "pl:C=1,s=2,j=0")):
        argv = [
            "zerofull", "--f", "spf:p=2,q=1,d=2", "--psi", psi,
            "--t-split", 32, "--t-max", 512, "--samples", 100, "--seed", 301,
        ]
        prefix = artifacts_dir / f"zerofull_{label}"
        runs[label] = (argv, prefix, _run_cli(argv, prefix))
    return runs


# --------------------------------------------------------------------------
# 1. mean count over random lattices matches c_P * V on the same samples


def test_siegel_mean_within_three_stderr(siegel_runs):
    for n, (_, prefix, elapsed) in siegel_runs.items():
        assert elapsed < 120.0, f"n={n} run took {elapsed:.0f}s"
        estimates = _manifest(prefix)["result"]["estimates"]
        assert set(estimates) == {"nonzero", "primitive"}
        assert estimates["nonzero"]["reference"] == pytest.approx(50.0)
        assert estimates["primitive"]["reference"] == pytest.approx(50.0 / ZETA[n], rel=1e-9)
        for key, s in estimates.items():
            gap = abs(s["mean"] - s["reference"])
            assert gap <= 3.0 * s["stderr"], f"n={n} {key}: gap {gap:.3f} vs stderr {s['stderr']:.3f}"


# --------------------------------------------------------------------------
# 2. affine-grid count variance equals the region volume


def test_affine_variance_ratio_in_band():
    res = rogers_variance_experiment(2, [25.0, 50.0, 100.0], 10_000, 14, ensemble="grid", workers=WORKERS)
    for row in res.rows:
        assert 0.8 <= row["ratio"] <= 1.2, f"V={row['volume']}: var/V={row['ratio']:.3f}"


# --------------------------------------------------------------------------
# 3. empty-region probability decays at least like V^{-1/2}


def test_empty_probability_decays():
    res = empty_probability_experiment(2, [1.0, 4.0, 16.0, 64.0, 256.0], 10_000, 17, workers=WORKERS)
    assert res.slope <= -0.5, f"log-log slope {res.slope:.3f}"
    last = res.rows[-1]
    assert last["volume"] == 256.0
    assert last["empty_frequency"] <= 0.02


# --------------------------------------------------------------------------
# 4. closed-form volumes against the Monte Carlo oracle, and the kernel
#    integrals against nested quadrature


@pytest.mark.parametrize("idx", range(len(verification_matrix())), ids=[row[0] for row in verification_matrix()])
def test_closed_volume_matches_monte_carlo(idx):
    name, f, psi, s_lo, t_hi = verification_matrix()[idx]
    norm = f.canonical_norm()
    closed = shell_volume(f, psi, norm, s_lo, t_hi)
    mc = monte_carlo_region_volume(f, psi, norm, t_hi, 10_000_000, seed=12345 + idx, inner=s_lo)
    assert mc.samples >= 10**7
    assert not mc.degenerate
    gap = abs(closed.value - mc.value)
    tol = 3.0 * math.hypot(mc.stderr, closed.error)
    assert gap <= tol, f"{name}: closed {closed.value:.6f} vs mc {mc.value:.6f} (tol {tol:.2e})"


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_kernel_closed_form_matches_quadrature(k):
    for z in (0.8, 1.6):
        for c in (0.1, 0.9):
            exact = i_k_closed_form(k, z, c)
            quad = nested_kernel_quadrature(k, z, c)
            assert abs(exact - quad) <= 1e-8 * abs(exact), f"k={k} z={z} c={c}"


# --------------------------------------------------------------------------
# 5. pruned counter equals brute force, and stays fast at large radius


def test_counter_matches_brute_force_on_random_queries(counting_tools):
    rng = np.random.default_rng(777)
    for i in range(100):
        q = counting_tools.make_random_query(rng)
        fast = count_solutions(q)
        slow = brute_force_count(q)
        assert fast.count == slow.count, f"query {i}: {fast.count} != {slow.count}"
        counting_tools.assert_valid_witness(q, fast)


def test_counter_is_fast_at_large_radius():
    f = SignedPowerForm(2, 1, 2)
    q = CountQuery(
        g=sample_sl(3, np.random.default_rng(31)),
        f=f,
        bound=ApproxFunction(((1.0, 0.5, 0),)),
        norm=f.canonical_norm(),
        point_class=PointClass.ALL_NONZERO,
        t0=0.0,
        t=512.0,
    )
    t0 = time.monotonic()
    res = count_solutions(q)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    assert res.count > 0
    assert res.visited < 10**8


def test_counter_is_fast_at_large_radius_for_a_fractional_degree():
    """A non-integer degree has slots of its own (certified cells), so the
    count visits about one candidate per prefix, not the whole window."""
    f = SignedPowerForm(2, 1, 2.5)
    q = CountQuery(
        g=sample_sl(3, np.random.default_rng(31)),
        f=f,
        bound=ApproxFunction(((1.0, 0.5, 0),)),
        norm=f.canonical_norm(),
        point_class=PointClass.ALL_NONZERO,
        t0=0.0,
        t=128.0,
    )
    t0 = time.monotonic()
    res = count_solutions(q)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    assert res.count > 0
    assert not res.full_scan
    assert res.visited < 10**6


# --------------------------------------------------------------------------
# 6. counting ratio drifts toward 1 along the dyadic schedule


def test_counting_ratio_approaches_one(ratio_run):
    _, prefix, _ = ratio_run
    series = _manifest(prefix)["result"]["series"]
    assert len(series) == 20
    good = sum(
        1
        for s in series
        if 0.5 <= s["finalRatio"] <= 2.0
        and abs(s["finalRatio"] - 1.0) < abs(s["firstRatio"] - 1.0)
    )
    assert good >= 16, f"only {good}/20 samples improved into [0.5, 2]"


# --------------------------------------------------------------------------
# 7. zero-full dichotomy across the convergence boundary


def test_zero_full_dichotomy(zero_full_runs):
    divergent = _manifest(zero_full_runs["divergent"][1])["result"]
    convergent = _manifest(zero_full_runs["convergent"][1])["result"]
    assert divergent["fraction"] >= 0.9, f"divergent fraction {divergent['fraction']}"
    assert convergent["fraction"] <= 0.2, f"convergent fraction {convergent['fraction']}"
    total = zero_full_runs["divergent"][2] + zero_full_runs["convergent"][2]
    assert total < 600.0, f"zero-full runs took {total:.0f}s"


# --------------------------------------------------------------------------
# 8. uniform approximability along dyadic checkpoints


def test_uniform_approximability_passes_eventually():
    f = SignedPowerForm(2, 1, 2)
    res = uniform_approx_experiment(
        f,
        ApproxFunction(((1.0, 1.0, 2),)),  # log^2(e+z)/z
        f.canonical_norm(),
        PointClass.ALL_NONZERO,
        DyadicSchedule(1.0, 2.0, 4, 9),
        50,
        401,
        workers=WORKERS,
    )
    assert res.pass_fraction >= 0.9, f"pass fraction {res.pass_fraction:.2f}"


# --------------------------------------------------------------------------
# 9. series classifier agrees with the analytic rule on the whole grid


def test_series_classifier_matches_analytic_rule():
    mismatches = []
    for n, d in ((3, 2), (4, 2), (4, 3)):
        f = SignedPowerForm(n - 1, 1, d)
        for s in (0.0, 0.5, 1.0, 1.5, 2.0):
            for j in (0, 1, 2):
                psi = ApproxFunction(((1.0, s, j),))
                verdict = classify_series(f, psi).value
                expected = "diverges" if s <= n - d else "converges"
                if verdict != expected:
                    mismatches.append((n, d, s, j, verdict))
    assert not mismatches, f"classifier mismatches: {mismatches}"


def test_series_classifier_anchor_cases():
    # the critical exponent s = n - d diverges bare ...
    f = SignedPowerForm(2, 1, 2)
    assert classify_series(f, ApproxFunction(((1.0, 1.0, 0),))).value == "diverges"
    # ... and stays divergent with a logarithmic correction on top
    assert classify_series(f, ApproxFunction(((1.0, 1.0, 2),))).value == "diverges"
    # just past it the series converges
    assert classify_series(f, ApproxFunction(((1.0, 1.5, 0),))).value == "converges"


# --------------------------------------------------------------------------
# 10. seeded pipelines rerun byte-identically


def test_seeded_pipelines_rerun_byte_identical(siegel_runs, ratio_run, zero_full_runs, artifacts_dir):
    reruns = [(argv, prefix) for argv, prefix, _ in siegel_runs.values()]
    reruns.append(ratio_run[:2])
    reruns.extend(run[:2] for run in zero_full_runs.values())
    for argv, prefix in reruns:
        again = artifacts_dir / f"{Path(prefix).name}_again"
        _run_cli(argv, again)
        assert _jsonl_bytes(again) == _jsonl_bytes(prefix), f"rerun of {Path(prefix).name} differs"


# --------------------------------------------------------------------------
# 11. n=4 pipelines: the mean-value check at 1e3 samples and the zero-full
#     dichotomy on a small shell (2^5, 2^6]


def test_siegel_mean_at_n4(artifacts_dir):
    prefix = artifacts_dir / "siegel_n4"
    _run_cli(["siegel", "--n", 4, "--volume", 50, "--samples", 1000, "--seed", 7], prefix)
    estimates = _manifest(prefix)["result"]["estimates"]
    assert estimates["nonzero"]["reference"] == pytest.approx(50.0)
    assert estimates["primitive"]["reference"] == pytest.approx(50.0 / ZETA[4], rel=1e-9)
    for key, s in estimates.items():
        gap = abs(s["mean"] - s["reference"])
        assert gap <= 3.0 * s["stderr"], f"{key}: gap {gap:.3f} vs stderr {s['stderr']:.3f}"
    with open(f"{prefix}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["pointClass"] for row in rows] == ["nonzero", "primitive"]
    assert all(float(row["ess"]) > 0 for row in rows)


@pytest.mark.parametrize("psi, verdict", [("pl:C=1,s=1,j=0", "diverges"), ("pl:C=1,s=3,j=0", "converges")])
def test_zero_full_dichotomy_at_n4(artifacts_dir, psi, verdict):
    prefix = artifacts_dir / f"zerofull_n4_{verdict}"
    argv = [
        "zerofull", "--n", 4, "--f", "spf:p=3,q=1,d=2", "--psi", psi,
        "--t-split", 32, "--t-max", 64, "--samples", 20, "--seed", 301,
    ]
    _run_cli(argv, prefix)
    result = _manifest(prefix)["result"]
    assert result["verdict"] == verdict
    if verdict == "diverges":
        assert result["fraction"] >= 0.9, f"divergent fraction {result['fraction']}"
    else:
        assert result["fraction"] <= 0.2, f"convergent fraction {result['fraction']}"

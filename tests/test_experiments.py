"""Experiment harness tests at small sample counts.

Statistical assertions here use generous bands (the acceptance suite runs
the full-scale versions); the focus is determinism, record shapes, the
summary algebra, and the structural properties: primitive/nonzero coupling
and trend agreement across norms.
"""

import math

import numpy as np
import pytest

from genlat import experiments, volume
from genlat.core import (
    ApproxFunction,
    CoordinateProduct,
    DyadicSchedule,
    MaxPower,
    PointClass,
    SignedPowerForm,
    VectorOf,
    block_norm,
    lp_norm,
    max_norm,
    mix_seed,
    power_law,
)
from genlat.counting import CountQuery, NormBall, count_solutions, lattice_points_in_region
from genlat.experiments import (
    WeightedMean,
    _count_map,
    _siegel_sample,
    counting_ratio_experiment,
    empty_probability_experiment,
    kg_system_experiment,
    norm_independence_check,
    rogers_variance_experiment,
    siegel_mean_experiment,
    uniform_approx_experiment,
    draw_map,
    wilson_interval,
    zero_full_experiment,
)
from genlat.haar import sample_grid_exact, sample_lattice_exact
from genlat.volume import Verdict, zeta_fn


class TestSummaries:
    def test_from_values_matches_numpy(self):
        # kgsystem's rows summarize the per-checkpoint counts of its records
        res = kg_system_experiment(
            ApproxFunction(((1.0, 0.6, 0), (1.0, 0.6, 0))), n=3,
            point_class=PointClass.ALL_NONZERO,
            schedule=DyadicSchedule(1.0, 2.0, 2, 5), samples=5, seed=7,
        )
        for k, row in enumerate(res.rows):
            xs = [r["counts"][k] for r in res.records]
            assert len(set(xs)) > 1
            assert row["mean_count"] == pytest.approx(np.mean(xs))
            assert row["stderr"] == pytest.approx(math.sqrt(np.var(xs, ddof=1) / 5))
        one = kg_system_experiment(
            power_law(1.0, 1.0, 0), n=2, point_class=PointClass.ALL_NONZERO,
            schedule=DyadicSchedule(1.0, 2.0, 2, 3), samples=1, seed=7,
        )
        assert [row["stderr"] for row in one.rows] == [0.0, 0.0]

    def test_weighted_mean_equal_weights_is_plain_mean(self):
        xs = [2.0, 4.0, 9.0, 1.0]
        wm = WeightedMean.from_weighted(xs, [1.0] * 4)
        assert wm.estimate == pytest.approx(np.mean(xs))
        assert wm.ess == pytest.approx(4.0)
        assert wm.stderr == pytest.approx(np.std(xs) / 2.0)

    def test_weighted_mean_validation(self):
        with pytest.raises(ValueError, match="weights"):
            WeightedMean.from_weighted([1.0], [0.0])
        with pytest.raises(ValueError, match="equally"):
            WeightedMean.from_weighted([1.0, 2.0], [1.0])

    def test_wilson_interval(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and 0.0 < hi < 0.05
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        with pytest.raises(ValueError, match="counts"):
            wilson_interval(5, 4)


class TestSiegelMean:
    def test_plane_lattice_mean_and_coupling(self):
        res = siegel_mean_experiment(2, 30.0, samples=600, seed=5)
        nz = res.estimates["nonzero"]
        pr = res.estimates["primitive"]
        assert abs(nz.estimate - 30.0) <= 4.0 * nz.stderr
        assert abs(pr.estimate - 30.0 / zeta_fn(2.0)) <= 4.0 * pr.stderr
        # primitive/nonzero coupling on the same samples
        z2 = zeta_fn(2.0)
        assert abs(pr.estimate - nz.estimate / z2) <= 3.0 * (pr.stderr + nz.stderr / z2)

    def test_space_lattice_weighted_mean(self):
        res = siegel_mean_experiment(3, 25.0, samples=400, seed=9)
        nz = res.estimates["nonzero"]
        assert nz.ess >= 0.5 * 400
        assert abs(nz.estimate - 25.0) <= 4.0 * nz.stderr

    def test_grid_ensemble_counts_all_points(self):
        res = siegel_mean_experiment(2, 20.0, samples=500, seed=3, ensemble="grid")
        est = res.estimates["all"]
        assert abs(est.estimate - 20.0) <= 4.0 * est.stderr
        assert res.references["all"] == 20.0

    def test_degenerate_volume(self):
        res = siegel_mean_experiment(2, 0.0, samples=50, seed=1, ensemble="grid")
        assert res.estimates["all"].estimate == 0.0

    def test_records_shape_and_order(self):
        res = siegel_mean_experiment(2, 10.0, samples=40, seed=2)
        assert [r["sample"] for r in res.records] == list(range(40))
        assert all(set(r) == {"sample", "weight", "nonzero", "primitive"} for r in res.records)

    def test_determinism_across_workers(self):
        one = siegel_mean_experiment(2, 15.0, samples=60, seed=11, workers=1)
        two = siegel_mean_experiment(2, 15.0, samples=60, seed=11, workers=2)
        assert one.records == two.records

    def test_records_do_not_depend_on_index_ranges(self):
        # at volume 400 a range holds 16384 // 400 = 40 samples, so 50 samples
        # run as two enumerations; one range over all of them gives the same
        res = siegel_mean_experiment(2, 400.0, samples=50, seed=3)
        assert [res.records] == _siegel_sample((2, (400.0,), "lattice", 3, 0, 50))
        grid = siegel_mean_experiment(2, 400.0, samples=50, seed=3, ensemble="grid")
        assert [grid.records] == _siegel_sample((2, (400.0,), "grid", 3, 0, 50))

    @pytest.mark.parametrize("n, ensemble", [(2, "lattice"), (2, "grid"), (3, "lattice")])
    def test_nested_counts_match_one_ball_each(self, n, ensemble):
        # one draw and one enumeration at the largest ball serve every
        # volume; each volume's counts equal a separate one-ball count of
        # the same draws
        volumes, samples, seed = (0.5, 3.0, 12.0, 40.0), 30, 21
        per_volume = _siegel_sample((n, volumes, ensemble, seed, 0, samples))
        bases, shifts = np.zeros((samples, n, n)), np.zeros((samples, n))
        for k in range(samples):
            rng = np.random.default_rng(mix_seed(seed, k))
            if ensemble == "lattice":
                bases[k] = sample_lattice_exact(n, rng)[0]
            else:
                bases[k], shifts[k], _ = sample_grid_exact(n, rng)
        for volume, records in zip(volumes, per_volume):
            ball = NormBall(max_norm(n), 0.5 * volume ** (1.0 / n))
            owner, vs, _ = lattice_points_in_region(bases, shifts, ball)
            if ensemble == "lattice":
                keep = {"nonzero": (vs != 0).any(axis=1), "primitive": np.gcd.reduce(np.abs(vs), axis=1) == 1}
            else:
                keep = {"all": np.ones(len(vs), dtype=bool)}
            for key, mask in keep.items():
                assert [r[key] for r in records] == np.bincount(owner[mask], minlength=samples).tolist()
        counts = [[r[key] for r in records] for records in per_volume]
        assert sum(map(sum, counts)) > 0
        assert all(a <= b for lo, hi in zip(counts, counts[1:]) for a, b in zip(lo, hi))

    def test_validation(self):
        with pytest.raises(ValueError, match="ensemble"):
            siegel_mean_experiment(2, 10.0, samples=5, seed=0, ensemble="torus")
        with pytest.raises(ValueError, match="sample"):
            siegel_mean_experiment(2, 10.0, samples=0, seed=0)
        with pytest.raises(ValueError, match="volume"):
            siegel_mean_experiment(2, float("nan"), samples=5, seed=0)


class TestRogersVariance:
    def test_grid_variance_tracks_volume(self):
        # The count variance equals V for affine plane grids, but the count
        # distribution is heavy tailed (rare near-cusp lattices carry a big
        # share of the variance), so sample variance at this size scatters.
        # The seed is pinned to a typical run; the band is a smoke check.
        res = rogers_variance_experiment(2, [16.0, 36.0], samples=1500, seed=11)
        for row in res.rows:
            assert 0.6 <= row["ratio"] <= 1.4, row

    def test_zero_volume_row(self):
        res = rogers_variance_experiment(2, [0.0], samples=30, seed=0)
        assert res.rows[0]["variance"] == 0.0
        assert res.rows[0]["ratio"] is None

    def test_ceiling_flag(self):
        res = rogers_variance_experiment(2, [25.0], samples=400, seed=1, ceiling=1e-6)
        assert res.rows[0]["flagged"]

    def test_records_do_not_depend_on_worker_count(self):
        one = rogers_variance_experiment(2, [9.0, 25.0], samples=45, seed=6, workers=1)
        two = rogers_variance_experiment(2, [9.0, 25.0], samples=45, seed=6, workers=2)
        assert one.records == two.records
        assert one.rows == two.rows

    def test_lattice_rows_report_ratio(self):
        res = rogers_variance_experiment(
            3, [20.0], samples=150, seed=4, ensemble="lattice"
        )
        assert res.rows[0]["ratio"] > 0


class TestEmptyProbability:
    def test_decay_and_slope(self):
        res = empty_probability_experiment(2, [1.0, 8.0, 64.0], samples=800, seed=13)
        freqs = [row["empty_frequency"] for row in res.rows]
        assert res.decay_ok
        assert freqs[-1] < freqs[0]
        assert res.slope <= res.slope_bound
        for row in res.rows:
            assert row["wilson_low"] <= row["empty_frequency"] <= row["wilson_high"]

    def test_tiny_volume_is_nearly_always_empty(self):
        res = empty_probability_experiment(2, [1e-3, 1.0], samples=300, seed=2)
        assert res.rows[0]["empty_frequency"] >= 0.95

    def test_records_do_not_depend_on_worker_count(self):
        one = empty_probability_experiment(2, [1.0, 4.0, 16.0], samples=45, seed=8, workers=1)
        two = empty_probability_experiment(2, [1.0, 4.0, 16.0], samples=45, seed=8, workers=2)
        assert one.records == two.records
        assert one.rows == two.rows

    def test_first_volume_keeps_its_draws(self):
        # every volume counts the draws that volume 0 used when each volume
        # drew its own: siegel at seed mix_seed(seed, 0)
        res = empty_probability_experiment(2, [1.0, 4.0, 16.0], samples=60, seed=8)
        first = siegel_mean_experiment(2, 1.0, samples=60, seed=mix_seed(8, 0))
        assert [r["empty"] for r in res.records[:60]] == [r["nonzero"] == 0 for r in first.records]
        k = sum(r["nonzero"] == 0 for r in first.records)
        assert res.rows[0]["empty_frequency"] == k / 60
        assert (res.rows[0]["wilson_low"], res.rows[0]["wilson_high"]) == wilson_interval(k, 60)

    def test_weighted_frequency(self, monkeypatch):
        # hand-weighted records: samples 0 and 2 are empty in the small
        # ball, sample 0 in the large one; weights 1, 3, 2, 2
        weights, nonzero = (1.0, 3.0, 2.0, 2.0), ((0, 1, 0, 4), (0, 2, 1, 6))

        def worker(args):
            start, stop = args[4], args[5]
            return [
                [{"sample": k, "weight": weights[k], "nonzero": counts[k], "primitive": 0}
                 for k in range(start, stop)]
                for counts in nonzero
            ]

        monkeypatch.setattr(experiments, "_siegel_sample", worker)
        res = empty_probability_experiment(3, [1.0, 2.0], samples=4, seed=0)
        ess = 8.0**2 / 18.0
        for row, empty in zip(res.rows, (3.0, 1.0)):
            assert row["empty_frequency"] == pytest.approx(empty / 8.0, rel=1e-15)
            lo, hi = wilson_interval(empty / 8.0 * ess, ess)
            assert row["wilson_low"] == pytest.approx(lo, rel=1e-14)
            assert row["wilson_high"] == pytest.approx(hi, rel=1e-14)
        assert [r["empty"] for r in res.records] == [True, False, True, False, True, False, False, False]

    def test_rows_rebuild_from_weighted_records(self):
        # at n = 3 the weights differ, and each row is the weighted share of
        # its records that are empty
        volumes = [0.5, 1.5, 4.0]
        res = empty_probability_experiment(3, volumes, samples=60, seed=4)
        assert len({r["weight"] for r in res.records}) > 1
        freqs = []
        for volume, row in zip(volumes, res.rows):
            recs = [r for r in res.records if r["volume"] == volume]
            assert [r["sample"] for r in recs] == list(range(60))
            share = sum(r["weight"] for r in recs if r["empty"]) / sum(r["weight"] for r in recs)
            assert row["empty_frequency"] == pytest.approx(share, rel=1e-12)
            freqs.append(share)
        assert 0.0 < freqs[-1] < freqs[0] < 1.0
        plane = empty_probability_experiment(2, [1.0, 4.0], samples=20, seed=4)
        assert {r["weight"] for r in plane.records} == {1.0}

    def test_needs_two_volumes(self):
        with pytest.raises(ValueError, match="two volumes"):
            empty_probability_experiment(2, [4.0], samples=10, seed=0)


class TestCountingRatio:
    def test_divergent_ratio_structure(self):
        res = counting_ratio_experiment(
            SignedPowerForm(2, 1, 2),
            power_law(1.0, 0.5, 0),
            block_norm(((2, 2), (1, 2))),
            PointClass.ALL_NONZERO,
            DyadicSchedule(1.0, 2.0, 4, 7),
            samples=1,
            seed=23,
        )
        assert res.threshold >= 1.0
        assert len(res.records) == 4
        final = res.series[0]["final_ratio"]
        assert final is not None and final > 0
        counts = [row["count"] for row in res.records]
        assert counts == sorted(counts)

    def test_references_are_shell_volumes_from_one_threshold(self, monkeypatch):
        # the run finds M once and integrates each (M, t_k] as shell_volume does
        f, psi, norm = SignedPowerForm(2, 1, 2), power_law(1.0, 0.5, 0), block_norm(((2, 2), (1, 2)))
        calls, threshold_m = [], volume.threshold_M

        def counted(*args):
            calls.append(args)
            return threshold_m(*args)

        monkeypatch.setattr(experiments, "threshold_M", counted)
        monkeypatch.setattr(volume, "threshold_M", counted)
        res = counting_ratio_experiment(f, psi, norm, PointClass.PRIMITIVE, DyadicSchedule(1.0, 2.0, 0, 7),
                                        samples=1, seed=23)
        assert len(calls) == 1
        monkeypatch.undo()
        rows = [row for row in res.records if row["t"] > res.threshold]
        assert 0 < len(rows) < len(res.records)
        for row in rows:
            want = res.constant * volume.shell_volume(f, psi, norm, res.threshold, row["t"]).value
            assert row["reference"] == want
        assert all(row["reference"] == 0.0 for row in res.records if row["t"] <= res.threshold)

    def test_convergent_regime_rejected(self):
        with pytest.raises(ValueError, match="divergent"):
            counting_ratio_experiment(
                SignedPowerForm(2, 1, 2),
                power_law(1.0, 2.0, 0),
                block_norm(((2, 2), (1, 2))),
                PointClass.ALL_NONZERO,
                DyadicSchedule(1.0, 2.0, 4, 6),
                samples=1,
                seed=0,
                group="identity",
            )

    def test_checkpoints_below_threshold_report_missing_ratio(self):
        # constant bound C = 8 crosses z^2 near 2.83, past the first checkpoints
        res = counting_ratio_experiment(
            CoordinateProduct(2),
            ApproxFunction(((8.0, 0.0, 0),)),
            max_norm(2),
            PointClass.ALL_NONZERO,
            DyadicSchedule(1.0, 2.0, 0, 5),
            samples=1,
            seed=3,
        )
        low_rows = [row for row in res.records if row["t"] <= res.threshold]
        assert low_rows, "expected sub-threshold checkpoints"
        assert all(row["ratio"] is None and row["count"] == 0 for row in low_rows)

    def test_primitive_constant_applied(self):
        kwargs = dict(
            f=SignedPowerForm(1, 1, 1),
            psi=power_law(1.0, 0.5, 0),
            norm=block_norm(((1, 1), (1, 1))),
            schedule=DyadicSchedule(1.0, 2.0, 3, 5),
            samples=1,
            seed=29,
        )
        nz = counting_ratio_experiment(point_class=PointClass.ALL_NONZERO, **kwargs)
        pr = counting_ratio_experiment(point_class=PointClass.PRIMITIVE, **kwargs)
        assert pr.constant == pytest.approx(1.0 / zeta_fn(2.0))
        assert nz.constant == 1.0


def _per_shell_counts(payload):
    """Each shell of a ``_count_map`` payload counted on its own."""
    (f, norm, point_class, shells, space, early, group, shift_bound, seed), index = payload
    g = draw_map(f.n, seed, index, group, shift_bound, norm)
    return [count_solutions(CountQuery(g, f, bound, norm, point_class, t0, t, space)).count
            for bound, t0, t in shells]


def _recording(calls, key):
    """``count_solutions``, appending ``key(query)`` to ``calls`` first."""

    def count(q):
        calls.append(key(q))
        return count_solutions(q)

    return count


# (target, n, group, space, point class, largest checkpoint): every slot
# solver, with and without a shift, in both spaces and all three classes
_NESTED_CASES = {
    "spf2-n2": (SignedPowerForm(1, 1, 2), "SL", "v", "nonzero", 40.0),
    "spf2-n3": (SignedPowerForm(2, 1, 2), "ASL", "w", "primitive", 12.0),
    "spf2-n4": (SignedPowerForm(3, 1, 2), "SL", "w", "all", 5.0),
    "maxpow-n3": (MaxPower((2.0, 1.0), 3, (0, 2)), "SL", "w", "nonzero", 12.0),
    "bands-n4": (VectorOf((MaxPower((1.0,), 4, (0,)), MaxPower((1.0,), 4, (1,)))), "ASL", "v", "all", 5.0),
    "bands-n2": (VectorOf((MaxPower((1.0,), 2, (1,)),)), "ASL", "w", "primitive", 40.0),
    "prod-n2": (CoordinateProduct(2), "ASL", "v", "all", 40.0),
    "prod-n3": (CoordinateProduct(3), "SL", "w", "primitive", 10.0),
    "spf2.5-n3": (SignedPowerForm(2, 1, 2.5), "SL", "v", "nonzero", 8.0),
    "spf2.5-n2": (SignedPowerForm(1, 1, 2.5), "ASL", "w", "all", 30.0),
}


class TestNestedShells:
    """An exhaustive run counts each map once per (bound, t0), at its
    largest checkpoint, and reads every shell's count off the hit radii."""

    @pytest.mark.parametrize("case", sorted(_NESTED_CASES))
    def test_one_pass_equals_per_shell_counts(self, case):
        f, group, space, key, top = _NESTED_CASES[case]
        bound = power_law(1.5, 0.4, 1) if f.component_count == 1 else ApproxFunction(((1.0, 0.3, 0),) * 2)
        ts = [top / 2**k for k in range(4)]
        for index in range(3):
            for t0 in (0.0, 0.4 * ts[-1]):
                shells = tuple((bound, t0, t) for t in ts)
                payload = ((f, f.canonical_norm(), PointClass(key), shells, space, False, group, 0.8, 2502),
                           index)
                want = _per_shell_counts(payload)
                assert _count_map(payload) == want
                assert want[0] > 0
                assert draw_map(f.n, 2502, index, group, 0.8).z.any() == (group == "ASL")

    def test_shells_of_two_bounds_count_once_per_bound(self, monkeypatch):
        f = SignedPowerForm(2, 1, 2)
        shells = tuple((bound, 1.0, t) for bound in (power_law(1.0, 0.5, 0), (0.3,)) for t in (9.0, 4.0, 6.0))
        payload = ((f, f.canonical_norm(), PointClass.ALL_NONZERO, shells, "w", False, "SL", 0.0, 5), 1)
        want = _per_shell_counts(payload)
        tops = []
        monkeypatch.setattr(experiments, "count_solutions", _recording(tops, lambda q: (q.bound, q.t)))
        assert _count_map(payload) == want
        assert tops == [(power_law(1.0, 0.5, 0), 9.0), ((0.3,), 9.0)]

    def test_hit_on_a_checkpoint_counts_there(self):
        # identity map, sup norm, a tolerance every point meets: the hits of
        # (0, k] are the (2k + 1)^2 - 1 nonzero points, 8 of them of radius k
        f = MaxPower((1.0,), 2, (0,))
        shells = tuple(((100.0,), 0.0, float(t)) for t in (1, 2, 3, 4))
        payload = ((f, max_norm(2), PointClass.ALL_NONZERO, shells, "v", False, "identity", 0.0, 0), 0)
        assert _count_map(payload) == [8, 24, 48, 80] == _per_shell_counts(payload)

    def test_empty_shell_list_issues_no_count(self, monkeypatch):
        monkeypatch.setattr(experiments, "count_solutions", None)  # a count would raise TypeError
        f = SignedPowerForm(2, 1, 2)
        for early in (False, True):
            payload = ((f, f.canonical_norm(), PointClass.ALL_NONZERO, (), "w", early, "SL", 0.0, 1), 0)
            assert _count_map(payload) == []
        # every checkpoint at or below M: no shell, no count, and zero counts
        res = counting_ratio_experiment(CoordinateProduct(2), ApproxFunction(((8.0, 0.0, 0),)), max_norm(2),
                                        PointClass.ALL_NONZERO, DyadicSchedule(1.0, 2.0, 0, 1), samples=2, seed=3)
        assert [row["count"] for row in res.records] == [0, 0, 0, 0]

    def test_early_exit_runs_count_every_shell(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "count_solutions", _recording(calls, lambda q: q.t))
        uniform_approx_experiment(SignedPowerForm(2, 1, 2), power_law(1.0, 1.0, 2), block_norm(((2, 2), (1, 2))),
                                  PointClass.ALL_NONZERO, DyadicSchedule(1.0, 2.0, 2, 4), samples=2, seed=4)
        assert calls == [4.0, 8.0, 16.0] * 2

    def test_ratio_below_threshold_matches_per_shell_counts(self):
        """A schedule whose first checkpoints fall at or below M: the rows
        past M hold the counts of (M, t_k] counted one by one."""
        f, psi, norm = SignedPowerForm(2, 1, 2), power_law(2.0, 0.5, 0), block_norm(((2, 2), (1, 2)))
        res = counting_ratio_experiment(f, psi, norm, PointClass.PRIMITIVE, DyadicSchedule(1.0, 2.0, 0, 5),
                                        samples=3, seed=31, group="ASL", shift_bound=0.5)
        assert res.records[0]["t"] <= res.threshold < res.records[-1]["t"]
        for row in res.records:
            if row["t"] <= res.threshold:
                assert row["count"] == 0
                continue
            g = draw_map(3, 31, row["sample"], "ASL", 0.5, norm)
            q = CountQuery(g, f, psi, norm, PointClass.PRIMITIVE, res.threshold, row["t"], "w")
            assert row["count"] == count_solutions(q).count


class TestZeroFull:
    def test_divergent_vs_convergent_fractions(self):
        f = SignedPowerForm(2, 1, 2)
        norm = block_norm(((2, 2), (1, 2)))
        div = zero_full_experiment(
            f, power_law(1.0, 0.5, 0), norm, PointClass.ALL_NONZERO,
            t_split=2.0**4, t_max=2.0**6, samples=30, seed=17,
        )
        conv = zero_full_experiment(
            f, power_law(1.0, 2.0, 0), norm, PointClass.ALL_NONZERO,
            t_split=2.0**4, t_max=2.0**6, samples=30, seed=17,
        )
        assert div.verdict is Verdict.DIVERGES
        assert conv.verdict is Verdict.CONVERGES
        assert div.fraction >= 0.8
        assert conv.fraction <= 0.4
        assert div.fraction > conv.fraction

    def test_records_carry_witnesses(self):
        f = SignedPowerForm(1, 1, 2)
        res = zero_full_experiment(
            f, power_law(1.0, 0.5, 0), block_norm(((1, 2), (1, 2))),
            PointClass.ALL_NONZERO, t_split=4.0, t_max=32.0, samples=10, seed=5,
        )
        for r in res.records:
            assert r["hit"] == (r["witness"] is not None)

    def test_bad_shell(self):
        with pytest.raises(ValueError, match="T_split"):
            zero_full_experiment(
                SignedPowerForm(1, 1, 2), power_law(), lp_norm(2, 2.0),
                PointClass.ALL_NONZERO, t_split=8.0, t_max=8.0, samples=2, seed=0,
            )


class TestUniformApprox:
    def test_generous_tolerance_passes_everywhere(self):
        f = SignedPowerForm(1, 1, 2)
        res = uniform_approx_experiment(
            f, ApproxFunction(((50.0, 0.0, 0),)), block_norm(((1, 2), (1, 2))),
            PointClass.ALL_NONZERO, DyadicSchedule(1.0, 2.0, 2, 5),
            samples=12, seed=3,
        )
        assert res.pass_fraction == 1.0
        assert all(r["k_star"] == 0 for r in res.records)

    def test_uniform_pass_implies_final_shell_hit(self):
        f = SignedPowerForm(2, 1, 2)
        norm = block_norm(((2, 2), (1, 2)))
        psi = power_law(1.0, 0.5, 0)
        sched = DyadicSchedule(1.0, 2.0, 3, 6)
        res = uniform_approx_experiment(
            f, psi, norm, PointClass.ALL_NONZERO, sched, samples=15, seed=21
        )
        for r in res.records:
            if r["k_star"] is not None:
                assert r["successes"][-1]

    def test_checkpoint_fractions_reported(self):
        f = SignedPowerForm(1, 1, 2)
        res = uniform_approx_experiment(
            f, power_law(1.0, 0.5, 0), block_norm(((1, 2), (1, 2))),
            PointClass.ALL_NONZERO, DyadicSchedule(1.0, 2.0, 2, 4),
            samples=10, seed=8,
        )
        assert len(res.checkpoints) == 3
        for cp in res.checkpoints:
            assert 0.0 <= cp["success_fraction"] <= 1.0


class TestKGSystem:
    def test_dirichlet_regime_counts_grow(self):
        res = kg_system_experiment(
            power_law(1.0, 1.0, 0), n=2, point_class=PointClass.ALL_NONZERO,
            schedule=DyadicSchedule(1.0, 2.0, 2, 6), samples=12, seed=31,
        )
        assert res.verdict is Verdict.DIVERGES
        means = [row["mean_count"] for row in res.rows]
        assert means[-1] > means[0]

    def test_convergent_regime_classified(self):
        res = kg_system_experiment(
            ApproxFunction(((1.0, 1.1, 0),)), n=2,
            point_class=PointClass.ALL_NONZERO,
            schedule=DyadicSchedule(1.0, 2.0, 2, 4), samples=6, seed=2,
        )
        assert res.verdict is Verdict.CONVERGES

    def test_component_count_validated(self):
        with pytest.raises(ValueError, match="components"):
            kg_system_experiment(
                ApproxFunction(((1.0, 1.0, 0),) * 2), n=2,
                point_class=PointClass.ALL_NONZERO,
                schedule=DyadicSchedule(1.0, 2.0, 1, 2), samples=2, seed=0,
            )


class TestNormIndependence:
    def test_identical_norms_identical_volumes(self):
        f = SignedPowerForm(2, 1, 2)
        norm = block_norm(((2, 2), (1, 2)))
        res = norm_independence_check(
            f, power_law(1.0, 0.5, 0), norm, norm,
            scales=[4.0, 16.0], samples=40_000, seed=6,
        )
        for row in res.rows:
            assert row["volume_a"] == row["volume_b"]
        assert res.agree

    def test_divergent_psi_grows_under_both_norms(self):
        f = SignedPowerForm(2, 1, 2)
        res = norm_independence_check(
            f, power_law(1.0, 0.5, 0), block_norm(((2, 2), (1, 2))), max_norm(3),
            scales=[2.0, 4.0, 8.0], samples=400_000, seed=10,
        )
        assert res.trend_a == "growing" and res.trend_b == "growing"
        assert res.agree

    def test_convergent_psi_shrinks_under_both_norms(self):
        f = SignedPowerForm(2, 1, 2)
        res = norm_independence_check(
            f, power_law(4.0, 2.0, 0), block_norm(((2, 2), (1, 2))), max_norm(3),
            scales=[2.0, 4.0, 8.0], samples=400_000, seed=12,
        )
        assert res.trend_a == "shrinking" and res.trend_b == "shrinking"
        assert res.agree


class TestDeterminism:
    def test_zero_full_reruns_identically(self):
        f = SignedPowerForm(1, 1, 2)
        kwargs = dict(
            psi=power_law(1.0, 0.5, 0), norm=block_norm(((1, 2), (1, 2))),
            point_class=PointClass.ALL_NONZERO, t_split=4.0, t_max=32.0,
            samples=15, seed=99,
        )
        a = zero_full_experiment(f, **kwargs)
        b = zero_full_experiment(f, **kwargs)
        assert a.records == b.records

    def test_different_seeds_differ(self):
        res_a = siegel_mean_experiment(2, 20.0, samples=50, seed=1)
        res_b = siegel_mean_experiment(2, 20.0, samples=50, seed=2)
        assert res_a.records != res_b.records

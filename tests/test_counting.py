"""Counting engine tests.

Frozen hand counts pin the predicate conventions (shell half-openness,
point classes, the zero vector); the randomized block compares the pruned
enumerator against the brute-force scan across every family, bound kind,
norm, point class, and shell space; scaling identities tie nonzero counts
to primitive counts the way the zeta factor ties the two mean laws.
"""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from genlat.core import (
    ApproxFunction,
    CoordinateProduct,
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
from genlat import counting
from genlat.counting import (
    CountQuery,
    CountResult,
    NormBall,
    _MAX_BLOCK,
    _REGION_ROWS,
    _batched_roots,
    _candidates,
    _centered,
    _exact_mask,
    _prefix_blocks,
    _solved_index,
    brute_force_count,
    count_solutions,
    is_primitive,
    lattice_points_in_region,
)
from genlat.haar import UnimodularMap, identity_map, lll_reduce, sample_asl, sample_sl


def _query(**kw):
    base = dict(
        g=identity_map(2),
        f=SignedPowerForm(1, 1, 2),
        bound=(0.5,),
        norm=block_norm(((1, 2), (1, 2))),
        point_class=PointClass.ALL_NONZERO,
        t0=0.0,
        t=10.0,
    )
    base.update(kw)
    return CountQuery(**base)


class TestFrozenCounts:
    def test_difference_form_diagonals(self):
        # |v1^2 - v2^2| <= 0.5 forces |v1| = |v2|; 4 sign patterns per 1..10
        res = count_solutions(_query())
        assert res.count == 40
        assert res.first_witness is not None
        assert not res.full_scan

    def test_difference_form_matches_brute(self):
        q = _query()
        assert count_solutions(q).count == brute_force_count(q).count

    def test_single_linear_band(self):
        # |v1| <= 0.5 pins v1 = 0; v2 ranges over +-1..4
        q = _query(
            f=MaxPower((1.0,), 2),
            bound=(0.5,),
            norm=max_norm(2),
            t=4.0,
        )
        assert count_solutions(q).count == 8

    def test_zero_tolerance_product_counts_axis_points(self):
        # |v1 v2| <= 0 needs a zero coordinate; 4 choices per axis arm times 3
        q = _query(f=CoordinateProduct(2), bound=(0.0,), norm=max_norm(2), t=3.0)
        assert count_solutions(q).count == 12

    def test_definite_quadratic_ball(self):
        # v1^2 + v2^2 <= 4: 4 unit, 4 diagonal, 4 length-2 axis points
        q = _query(f=SignedPowerForm(2, 0, 2), bound=(4.0,), norm=lp_norm(2, 2.0))
        assert count_solutions(q).count == 12

    def test_one_dimensional_query(self):
        # |v|^2 <= 6 with 0 < |v| <= 3: v in {+-1, +-2}
        q = CountQuery(
            g=identity_map(1),
            f=SignedPowerForm(1, 0, 2),
            bound=(6.0,),
            norm=lp_norm(1, 2.0),
            point_class=PointClass.ALL_NONZERO,
            t0=0.0,
            t=3.0,
        )
        assert count_solutions(q).count == 4
        assert brute_force_count(q).count == 4

    def test_lower_shell_excludes_small_points(self):
        full = count_solutions(_query(t0=0.0))
        tail = count_solutions(_query(t0=4.0))
        # diagonals with |a| in 5..10: 24 points
        assert tail.count == 24
        assert tail.count < full.count

    def test_primitive_class_keeps_coprime_diagonals_only(self):
        # on the diagonal gcd(|a|,|a|) = |a|, so only |a| = 1 is primitive
        q = _query(point_class=PointClass.PRIMITIVE)
        assert count_solutions(q).count == 4

    def test_all_integer_excludes_origin_in_v_space(self):
        # nu(0) = 0 never lands in (0, T], so the classes agree here
        q_all = _query(point_class=PointClass.ALL_INTEGER)
        q_nz = _query(point_class=PointClass.ALL_NONZERO)
        assert count_solutions(q_all).count == count_solutions(q_nz).count


class TestPointClasses:
    def test_is_primitive(self):
        assert is_primitive((2, 3))
        assert is_primitive((-3, 6, 2))
        assert not is_primitive((2, 4))
        assert not is_primitive((0, 7))
        assert not is_primitive((0, 0))
        assert is_primitive((0, 1))
        assert is_primitive((1,))

    def test_contains_is_the_one_class_rule(self):
        # row by row with math.gcd; the zero row is in no class but "all"
        rng = np.random.default_rng(17)
        vs = rng.integers(-6, 7, size=(400, 3))
        vs[:5] = 0
        vs[5:10, 1:] = 0
        for pc, rule in (
            (PointClass.ALL_NONZERO, lambda v: any(v)),
            (PointClass.PRIMITIVE, lambda v: math.gcd(*map(int, v)) == 1),
            (PointClass.ALL_INTEGER, lambda v: True),
        ):
            mask = pc.contains(vs)
            assert mask.dtype == bool
            assert mask.tolist() == [rule(v) for v in vs]
        assert [is_primitive(v) for v in vs] == PointClass.PRIMITIVE.contains(vs).tolist()

    def test_origin_counted_in_w_space_shells(self):
        # with a grid shift, v = 0 maps to w = z inside the shell
        g = UnimodularMap(np.eye(2), np.array([0.3, 0.4]))
        base = dict(
            g=g,
            f=CoordinateProduct(2),
            bound=(10.0,),
            norm=max_norm(2),
            t0=0.0,
            t=2.0,
            shell_space="w",
        )
        n_all = count_solutions(CountQuery(point_class=PointClass.ALL_INTEGER, **base))
        n_nz = count_solutions(CountQuery(point_class=PointClass.ALL_NONZERO, **base))
        assert n_all.count == n_nz.count + 1
        assert n_all.count == brute_force_count(
            CountQuery(point_class=PointClass.ALL_INTEGER, **base)
        ).count


class TestValidation:
    def test_empty_shell_rejected(self):
        with pytest.raises(ValueError, match="T0 < T"):
            _query(t0=5.0, t=5.0)
        with pytest.raises(ValueError, match="T < inf"):
            _query(t=math.inf)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            _query(g=identity_map(3))

    def test_bad_shell_space(self):
        with pytest.raises(ValueError, match="shell_space"):
            _query(shell_space="x")

    def test_bad_bound_shape(self):
        with pytest.raises(ValueError, match="tolerance"):
            _query(bound=(0.5, 0.5))

    def test_result_invariant(self):
        with pytest.raises(ValueError, match="witness"):
            CountResult(count=3, first_witness=None, visited=10)

    def test_brute_force_box_guard(self):
        q = _query(t=4000.0)
        with pytest.raises(ValueError, match="box"):
            brute_force_count(q, box_cap=10**6)


class TestOracleEquivalence:
    def test_randomized_queries_match_brute_force(self, counting_tools):
        rng = np.random.default_rng(20241108)
        for i in range(60):
            q = counting_tools.make_random_query(rng)
            fast = count_solutions(q)
            slow = brute_force_count(q)
            assert fast.count == slow.count, f"query {i}: {q}"
            counting_tools.assert_valid_witness(q, fast)
            counting_tools.assert_valid_witness(q, slow)

    def test_mixed_vector_targets_match_brute_force(self, counting_tools):
        # the shared generator builds vectors from bands only; here a band
        # rides with a signed power of degree 2, an integer or a fractional
        # degree, or with a coordinate product
        rng = np.random.default_rng(5150)
        kinds = ("spf2", "spf_int", "spf_frac", "prod")
        for i in range(48):
            n = int(rng.integers(2, 4))
            kind = kinds[i % 4]
            if kind == "prod":
                other = CoordinateProduct(n)
            else:
                d = {"spf2": 2.0, "spf_int": float(rng.choice([3.0, 4.0])),
                     "spf_frac": float(rng.choice([1.5, 2.5]))}[kind]
                p = int(rng.integers(1, n + 1))
                other = SignedPowerForm(p, n - p, d)
            band = MaxPower((float(rng.choice([1.0, 2.0])),), n, (int(rng.integers(n)),))
            f = VectorOf((other, band) if rng.random() < 0.5 else (band, other))
            shell_space = "w" if rng.random() < 0.3 else "v"
            q = CountQuery(
                g=sample_asl(n, rng, shift_bound=0.8) if rng.random() < 0.5 else sample_sl(n, rng),
                f=f,
                bound=tuple(float(x) for x in np.exp(rng.uniform(np.log(0.3), np.log(4.0), 2))),
                norm=(max_norm(n), lp_norm(n, 2.0))[int(rng.integers(2))],
                point_class=tuple(PointClass)[int(rng.integers(3))],
                t0=0.0 if rng.random() < 0.5 else float(rng.uniform(0.5, 3.0)),
                t=float(rng.uniform(6.0, 16.0 if n == 2 else 8.0)),
                shell_space=shell_space,
            )
            fast = count_solutions(q)
            slow = brute_force_count(q)
            assert fast.count == slow.count, f"query {i}: {q}"
            early = count_solutions(replace(q, stop_after_first=True))
            assert early.first_witness == fast.first_witness, f"query {i}: {q}"
            counting_tools.assert_valid_witness(q, fast)

    def test_quadratic_engine_at_larger_radius(self):
        rng = np.random.default_rng(7)
        psi = power_law(1.0, 0.5, 0)
        for g in (identity_map(3), sample_sl(3, rng)):
            q = CountQuery(
                g=g,
                f=SignedPowerForm(2, 1, 2),
                bound=psi,
                norm=block_norm(((2, 2), (1, 2))),
                point_class=PointClass.PRIMITIVE,
                t0=16.0,
                t=32.0,
            )
            assert count_solutions(q).count == brute_force_count(q).count

    def test_band_engine_at_larger_radius(self):
        rng = np.random.default_rng(11)
        f = VectorOf((MaxPower((1.0,), 3, (0,)), MaxPower((2.0,), 3, (2,))))
        q = CountQuery(
            g=sample_sl(3, rng),
            f=f,
            bound=(0.8, 1.7),
            norm=max_norm(3),
            point_class=PointClass.ALL_NONZERO,
            t0=0.0,
            t=24.0,
        )
        assert count_solutions(q).count == brute_force_count(q).count

    def test_odd_degree_indefinite_form(self):
        # exercises the piecewise-polynomial path
        q = _query(
            f=SignedPowerForm(1, 1, 3),
            bound=(2.5,),
            norm=block_norm(((1, 3), (1, 3))),
            t=9.0,
        )
        fast = count_solutions(q)
        assert not fast.full_scan
        assert fast.count == brute_force_count(q).count


class TestBandSystems:
    def test_max_power_counts_as_its_component_bands(self):
        # |x_c|^a <= psi for every band is max_c |x_c|^a <= psi
        rng = np.random.default_rng(2718)
        psi = power_law(1.2, 0.4, 1)
        for f in (MaxPower((2.0, 1.0), 3), MaxPower((1.5,), 3, (2,)), MaxPower((1.0, 3.0), 4, (3, 0))):
            parts = tuple(MaxPower((a,), f.n, (c,)) for c, a in zip(f.resolved_coords(), f.exponents))
            vec = VectorOf(parts)
            for _ in range(3):
                g = sample_sl(f.n, rng)
                kw = dict(g=g, norm=max_norm(f.n), point_class=PointClass.ALL_NONZERO, t0=0.0, t=9.0)
                one = count_solutions(CountQuery(f=f, bound=psi, **kw))
                bands = count_solutions(
                    CountQuery(f=vec, bound=ApproxFunction(psi.components * len(parts)), **kw)
                )
                assert one.count == bands.count


class TestFractionalDegree:
    """Non-integer degrees have slots of their own: the cell solver bisects
    each window into certified integer cells, and no window is scanned."""

    def test_fractional_degree_is_solved_without_a_scan(self):
        q = _query(
            f=SignedPowerForm(1, 1, 1.5),
            bound=(1.0,),
            norm=block_norm(((1, 1.5), (1, 1.5))),
            t=8.0,
        )
        res = count_solutions(q)
        assert not res.full_scan
        assert res.count == brute_force_count(q).count

    def test_fractional_part_of_a_vector_is_solved_without_a_scan(self):
        """The d = 2.5 part's point slots are intersected with the band
        part's slot."""
        rng = np.random.default_rng(5158)
        for i in range(4):
            n = 2 + i % 2
            q = CountQuery(
                g=sample_sl(n, rng),
                f=VectorOf((SignedPowerForm(1, n - 1, 2.5), MaxPower((1.0,), n, (0,)))),
                bound=(2.0, 1.5),
                norm=max_norm(n),
                point_class=PointClass.ALL_NONZERO,
                t0=0.0,
                t=12.0 if n == 2 else 6.0,
            )
            res = count_solutions(q)
            assert not res.full_scan
            assert res.count == brute_force_count(q).count

    def test_fractional_part_in_a_reduced_basis_is_solved_without_a_scan(self, counting_tools):
        """A w-space count runs in an LLL-reduced basis; the result mapped
        back to the original coordinates keeps every field."""
        rng = np.random.default_rng(5159)
        g = next(g for g in (sample_sl(3, rng) for _ in range(20)) if not np.allclose(lll_reduce(g.h), g.h))
        q = CountQuery(
            g=g,
            f=VectorOf((SignedPowerForm(1, 2, 2.5), MaxPower((1.0,), 3, (0,)))),
            bound=(2.0, 1.5),
            norm=max_norm(3),
            point_class=PointClass.ALL_NONZERO,
            t0=0.0,
            t=6.0,
            shell_space="w",
        )
        res = count_solutions(q)
        assert not res.full_scan
        assert res.count == brute_force_count(q).count > 0
        counting_tools.assert_valid_witness(q, res)

    def test_integer_degree_does_not_flag(self):
        assert not count_solutions(_query()).full_scan

    @pytest.mark.parametrize(
        "f, h, counts",
        [
            (SignedPowerForm(1, 1, 2.5), np.eye(2), {"v": 36, "w": 36}),
            (SignedPowerForm(2, 1, 1.5), np.eye(3), {"v": 72, "w": 72}),
            (SignedPowerForm(1, 1, 2.5), np.array([[1.0, 3.0], [0.0, 1.0]]), {"v": 12, "w": 36}),
        ],
        ids=["spf1,1-identity", "spf2,1-identity", "spf1,1-shear"],
    )
    @pytest.mark.parametrize("space", ["v", "w"])
    def test_zero_tolerance_on_the_cone(self, f, h, counts, space, counting_tools):
        """At eps = 0 every solution sits exactly on the cone: |x| = |y|, or
        a zero coordinate with |y| = |z|.  A solution's one-integer cell
        has an enclosure of width 0 around a float value that rounding may
        move off 0, so only the slack keeps it."""
        q = CountQuery(
            g=UnimodularMap(h, np.zeros(f.n)),
            f=f,
            bound=(0.0,),
            norm=max_norm(f.n),
            point_class=PointClass.ALL_NONZERO,
            t0=0.0,
            t=9.0,
            shell_space=space,
        )
        full = count_solutions(q)
        assert full.count == brute_force_count(q).count == counts[space]
        counting_tools.assert_valid_witness(q, full)
        early = count_solutions(replace(q, stop_after_first=True))
        assert early.first_witness == full.first_witness

    def test_a_solution_on_the_tolerance_boundary_is_kept(self):
        """eps is |f(w)| at an integer point as the exact refilter computes
        it, so the point is a solution with no room to spare.  The cell
        solver builds w from the block's affine parts, whose rounding can
        put its own |f| a few ulps above eps; the enclosure slack keeps the
        point (without it, 3 of these 48 counts fall short)."""
        rng = np.random.default_rng(5160)
        for i in range(48):
            n = 2 + i % 2
            f = SignedPowerForm(1, n - 1, 2.5) if i % 4 < 2 else SignedPowerForm(n - 1, 1, 1.5)
            g = sample_asl(n, rng, shift_bound=0.8) if i % 3 == 0 else sample_sl(n, rng)
            v = rng.integers(-6, 7, size=n)
            if not v.any():
                continue
            eps = float(abs(f.evaluate_many(g.apply(v[None].astype(float)))[0, 0]))
            q = CountQuery(g=g, f=f, bound=(eps,), norm=max_norm(n),
                           point_class=PointClass.ALL_NONZERO, t0=0.0, t=8.0)
            assert count_solutions(q).count == brute_force_count(q).count >= 1, q


class TestMonotonicity:
    def test_count_nondecreasing_in_radius(self):
        counts = [count_solutions(_query(t=t)).count for t in (3.0, 6.0, 9.0, 12.0)]
        assert counts == sorted(counts)
        assert counts[-1] > counts[0]

    def test_count_nonincreasing_in_lower_cut(self):
        counts = [count_solutions(_query(t0=t0)).count for t0 in (0.0, 2.0, 5.0, 8.0)]
        assert counts == sorted(counts, reverse=True)

    def test_count_nondecreasing_in_tolerance(self):
        q_small = _query(f=SignedPowerForm(2, 0, 2), bound=(2.0,), norm=lp_norm(2, 2.0))
        q_big = _query(f=SignedPowerForm(2, 0, 2), bound=(8.0,), norm=lp_norm(2, 2.0))
        assert count_solutions(q_small).count <= count_solutions(q_big).count


class TestScalingIdentity:
    @pytest.mark.parametrize("gseed", [None, 3])
    def test_nonzero_count_decomposes_over_primitive_multiples(self, gseed):
        """Every nonzero v is m * u with u primitive, and the predicate is
        degree-d homogeneous, so the shell count splits exactly."""
        if gseed is None:
            g = identity_map(2)
        else:
            g = sample_sl(2, np.random.default_rng(gseed))
        norm = lp_norm(2, 2.0)
        eps, big_t, d = 3.0, 7.5, 2.0
        total = count_solutions(
            CountQuery(
                g=g,
                f=SignedPowerForm(1, 1, 2),
                bound=(eps,),
                norm=norm,
                point_class=PointClass.ALL_NONZERO,
                t0=0.0,
                t=big_t,
            )
        ).count
        split = 0
        for m in range(1, int(big_t) + 1):
            if big_t / m < 1.0:
                break
            split += count_solutions(
                CountQuery(
                    g=g,
                    f=SignedPowerForm(1, 1, 2),
                    bound=(eps / m**d,),
                    norm=norm,
                    point_class=PointClass.PRIMITIVE,
                    t0=0.0,
                    t=big_t / m,
                )
            ).count
        assert split == total


def _first_in_prefix_order(q):
    """The hit that comes first in centered prefix order, then t, by a
    full scan of the v-space box."""
    n = q.f.n
    sol = _solved_index(q.g.h)
    lim = int(q.t)
    axes = np.meshgrid(*[np.arange(-lim, lim + 1)] * n, indexing="ij")
    vs = np.stack([a.ravel() for a in axes], axis=1)
    hits = vs[_exact_mask(q, vs)]
    if len(hits) == 0:
        return None
    rank = np.abs(2 * hits) - (hits > 0)  # 0, 1, -1, 2, -2, ... -> 0, 1, 2, 3, 4, ...
    keys = [hits[:, sol]] + [rank[:, c] for c in reversed(range(n)) if c != sol]
    return tuple(int(x) for x in hits[np.lexsort(keys)[0]])


def _expand(block) -> np.ndarray:
    """The prefix rows of a block (leads, tail): each lead, slowest, times
    every tail row."""
    leads, tail = block
    return np.column_stack((np.repeat(leads, len(tail)), np.tile(tail, (len(leads), 1))))


def _blocks(*args, **kw) -> list[np.ndarray]:
    return [_expand(block) for block in _prefix_blocks(*args, **kw)]


class TestEarlyExit:
    def test_stop_after_first_returns_single_witness(self, counting_tools):
        q = _query(stop_after_first=True)
        res = count_solutions(q)
        assert res.count == 1
        counting_tools.assert_valid_witness(q, res)
        full = count_solutions(_query())
        assert res.visited <= full.visited

    def test_stop_after_first_on_empty_region(self):
        q = _query(bound=(0.4,), t0=9.4, t=9.6, stop_after_first=True)
        res = count_solutions(q)
        assert res.count == 0
        assert res.first_witness is None

    @pytest.mark.parametrize(
        "box, prefix_cols",
        [((40, 3, 9), [0, 2]), ((7, 0, 5, 2), [0, 1, 3]), ((300,), [0]), ((2, 500), [1, 0])],
    )
    def test_block_schedule_grows_to_the_cap(self, box, prefix_cols):
        box = np.asarray(box)
        slab = int(np.prod([2 * box[c] + 1 for c in prefix_cols[1:]]))
        orders = []
        for first in (1, 5, 256, _MAX_BLOCK):
            blocks = _blocks(box, prefix_cols, first)
            orders.append(np.concatenate(blocks))
            sizes = [len(b) for b in blocks]
            for i, size in enumerate(sizes[:-1]):
                # a block closes at the first slab that reaches its target
                target = min(first << i, _MAX_BLOCK)
                assert target <= size < target + slab
            assert sizes[:-1] == sorted(sizes[:-1])
        # centered order, the first prefix coordinate slowest
        grids = np.meshgrid(*[_centered(int(box[c])) for c in prefix_cols], indexing="ij")
        centered = np.stack([g.ravel() for g in grids], axis=1)
        for order in orders:
            assert np.array_equal(order, centered)

    @pytest.mark.parametrize("half", [False, True])
    def test_a_slab_past_the_cap_is_cut_into_tail_slices(self, half):
        # slabs of 301^2 = 90601 rows, more than one block holds
        box, prefix_cols = np.asarray((2, 150, 150)), [0, 1, 2]
        assert 301 * 301 > _MAX_BLOCK
        grids = np.meshgrid(*[_centered(int(box[c])) for c in prefix_cols], indexing="ij")
        centered = np.stack([g.ravel() for g in grids], axis=1)
        keep = np.asarray([_first_nonzero_positive(row) for row in centered])
        for first in (1, 256, _MAX_BLOCK):
            raw = list(_prefix_blocks(box, prefix_cols, first, half=half))
            # every block is one slice of one lead's slab
            assert all(len(leads) == 1 for leads, _ in raw)
            blocks = [_expand(block) for block in raw]
            assert max(len(b) for b in blocks) <= _MAX_BLOCK
            order = np.concatenate(blocks)
            assert np.array_equal(order, centered[keep] if half else centered)

    def test_witness_does_not_depend_on_blocks(self, counting_tools):
        """The early-exit witness is the exhaustive run's first witness:
        the first hit in prefix order, then t, in every engine."""
        rng = np.random.default_rng(6061)
        qs = [counting_tools.make_random_query(rng) for _ in range(60)]
        f = SignedPowerForm(2, 1, 2)
        for i in range(12):
            # zero-full style spf d=2 shells: early exit crosses many blocks
            qs.append(
                CountQuery(
                    g=sample_sl(3, rng),
                    f=f,
                    bound=power_law(1.0, (0.5, 1.0, 1.5)[i % 3], 0),
                    norm=f.canonical_norm(),
                    point_class=PointClass.PRIMITIVE,
                    t0=float(8 * (1 + i % 4)),
                    t=(40.0, 96.0)[i % 2],
                )
            )
        hits = 0
        for q in qs:
            full = count_solutions(q)
            early = count_solutions(replace(q, stop_after_first=True))
            assert (full.count > 0) == (early.count > 0)
            assert early.first_witness == full.first_witness, q
            counting_tools.assert_valid_witness(q, early)
            if q.shell_space == "v" and q.t <= 40.0:
                assert full.first_witness == _first_in_prefix_order(q), q
            hits += full.count > 0
        assert hits >= 50


def _first_nonzero_positive(v) -> bool:
    return next((x > 0 for x in v if x != 0), True)  # the zero prefix counts as its own half


class TestHalfSpace:
    """A map without a shift enumerates one prefix of each pair {p, -p} and
    counts the hits off the zero prefix twice; counts and first witnesses
    are those of the full enumeration."""

    @pytest.mark.parametrize(
        "f",
        [
            SignedPowerForm(2, 1, 2),
            SignedPowerForm(2, 1, 3),
            SignedPowerForm(1, 2, 2.5),
            CoordinateProduct(3),
            MaxPower((2.0, 1.0), 3),
            VectorOf((MaxPower((1.0,), 3, (0,)), MaxPower((2.0,), 3, (2,)))),
            VectorOf((SignedPowerForm(1, 2, 4), CoordinateProduct(3))),
        ],
        ids=lambda f: f.spec(),
    )
    def test_targets_are_even_bitwise(self, f):
        ws = np.random.default_rng(77).normal(0.0, 40.0, size=(2000, 3))
        assert np.array_equal(np.abs(f.evaluate_many(-ws)), np.abs(f.evaluate_many(ws)))

    @pytest.mark.parametrize(
        "norm",
        [max_norm(3), lp_norm(3, 1.0), lp_norm(3, 2.0), lp_norm(3, 2.5), block_norm(((2, 2), (1, None))),
         block_norm(((1, 3), (2, 1)))],
    )
    def test_norms_are_even_bitwise(self, norm):
        ws = np.random.default_rng(78).normal(0.0, 40.0, size=(2000, 3))
        assert np.array_equal(norm.eval_many(-ws), norm.eval_many(ws))

    @pytest.mark.parametrize(
        "box, prefix_cols",
        [((9, 4), [1]), ((40, 3, 9), [0, 2]), ((2, 500), [1, 0]), ((7, 0, 5, 2), [0, 1, 3]),
         ((3, 6, 2, 4), [2, 0, 1])],
    )
    def test_half_generator_is_the_positive_subsequence(self, box, prefix_cols):
        box = np.asarray(box)
        full = np.concatenate(_blocks(box, prefix_cols, _MAX_BLOCK))
        keep = np.asarray([_first_nonzero_positive(row) for row in full])
        for first in (1, 5, 256, _MAX_BLOCK):
            blocks = _blocks(box, prefix_cols, first, half=True)
            half = np.concatenate(blocks)
            assert np.array_equal(half, full[keep])
            # with their mirrors they cover the box, meeting only at 0
            rows = {tuple(r) for r in half}
            mirrors = {tuple(-r) for r in half}
            assert rows | mirrors == {tuple(r) for r in full}
            assert rows & mirrors == {(0,) * len(prefix_cols)}
            assert not half[0].any()

    def test_half_slab_does_not_count_toward_the_target(self):
        # slabs of 33 rows, 16384 = 496 * 33 + 16: counted toward the target,
        # the half slab of 17 rows would close a block at 16385 rows, and
        # every solver buffer would grow again at the next block; as a block
        # of its own it leaves the first full-size block the largest
        sizes = [len(b) for b in _blocks(np.asarray((1600, 16)), [0, 1], _MAX_BLOCK, half=True)]
        assert len(sizes) > 3
        assert sizes[0] == 17
        assert sizes[1] == max(sizes[1:]) == 497 * 33

    @pytest.mark.parametrize("t", [10.0, 40.0])
    def test_a_witness_of_lead_0_ends_the_search_after_its_half_slab(self, t):
        # the identity solves coordinate 0 and leads with coordinate 1; the
        # bands |w_0|, |w_2| <= 1 meet only at tail rows -1, 0, 1, so the
        # first witness (-1, 0, 0) lies in the half slab of lead 0
        f = MaxPower((1.0, 1.0), 3, (0, 2))
        q = CountQuery(g=identity_map(3), f=f, bound=(1.0,), norm=max_norm(3),
                       point_class=PointClass.PRIMITIVE, t0=0.0, t=t, stop_after_first=True)
        res = count_solutions(q)
        assert res.first_witness == count_solutions(replace(q, stop_after_first=False)).first_witness
        assert res.first_witness[1] == 0
        slab = 2 * int(t) + 1
        assert (slab + 1) // 2 <= res.visited < (slab + 1) // 2 + slab

    @pytest.mark.parametrize("space", ["v", "w"])
    @pytest.mark.parametrize("point_class", list(PointClass))
    def test_counts_match_brute_force(self, space, point_class, counting_tools):
        rng = np.random.default_rng(7171)
        maps = [identity_map(3), sample_sl(3, rng), sample_sl(3, rng)]
        targets = [
            (SignedPowerForm(2, 1, 2), (1.5,)),
            (CoordinateProduct(3), power_law(2.0, 0.5, 0)),
            (MaxPower((2.0, 1.0), 3), (0.7,)),
            (VectorOf((MaxPower((1.0,), 3, (0,)), MaxPower((2.0,), 3, (1,)))), (0.5, 3.0)),
            (SignedPowerForm(1, 2, 3), (2.0,)),
        ]
        for g in maps:
            for f, bound in targets:
                q = CountQuery(g=g, f=f, bound=bound, norm=f.canonical_norm(), point_class=point_class,
                               t0=0.0, t=7.5, shell_space=space)
                slow = brute_force_count(q)
                fast = count_solutions(q)
                assert fast.count == slow.count, q
                counting_tools.assert_valid_witness(q, fast)
                early = count_solutions(replace(q, stop_after_first=True))
                assert early.first_witness == fast.first_witness, q

    def test_axis_hits_on_the_zero_prefix_count_once(self):
        # the identity map's product vanishes off the open octants: 9^3 - 8^3
        # points of the box minus the origin; the zero prefix holds (t, 0, 0)
        # and its mirror (-t, 0, 0) for t = 1..4
        f = CoordinateProduct(3)
        q = CountQuery(g=identity_map(3), f=f, bound=(0.0,), norm=max_norm(3),
                       point_class=PointClass.ALL_NONZERO, t0=0.0, t=4.0)
        assert _solved_index(q.g.h) == 0
        assert count_solutions(q).count == brute_force_count(q).count == 9**3 - 8**3 - 1

    def test_only_a_shifted_query_visits_the_whole_prefix_box(self):
        # v-space: the prefix box is (2 * 10 + 1)^2 rows, and a band system at
        # a tiny tolerance has few candidates
        rng = np.random.default_rng(4343)
        f = MaxPower((2.0, 1.0), 3)
        for _ in range(4):
            g = sample_asl(3, rng, shift_bound=0.8)
            shifted = CountQuery(g=g, f=f, bound=(1e-3,), norm=max_norm(3),
                                 point_class=PointClass.ALL_INTEGER, t0=0.0, t=10.0)
            linear = replace(shifted, g=UnimodularMap(g.h, np.zeros(3)))
            for q in (shifted, linear):
                res = count_solutions(q)
                assert res.count == brute_force_count(q).count
            assert count_solutions(shifted).visited >= 21 * 21
            assert (21 * 21 + 1) // 2 <= count_solutions(linear).visited < 21 * 21

    def test_first_witness_is_the_first_hit_in_prefix_order(self, counting_tools):
        rng = np.random.default_rng(9191)
        qs = []
        for i in range(40):
            f = [SignedPowerForm(2, 1, 2), CoordinateProduct(3), MaxPower((2.0, 1.0), 3),
                 SignedPowerForm(1, 1, 3)][i % 4]
            n = f.n
            g = identity_map(n) if i % 5 == 0 else sample_sl(n, rng)
            qs.append(CountQuery(g=g, f=f, bound=power_law(1.0, (0.5, 1.0)[i % 2], 0),
                                 norm=f.canonical_norm(), point_class=list(PointClass)[i % 3],
                                 t0=float(i % 3), t=(8.0, 12.0)[i % 2]))
        hits = 0
        for q in qs:
            oracle = _first_in_prefix_order(q)
            assert count_solutions(q).first_witness == oracle, q
            assert count_solutions(replace(q, stop_after_first=True)).first_witness == oracle, q
            hits += oracle is not None
        assert hits >= 30


def _stacked(maps):
    return np.array([g.h for g in maps]), np.array([g.z for g in maps])


def _direct_region_scan(g, region):
    """Integer v with g(v) in the region, by one meshgrid over a padded box."""
    reach = np.abs(g.inverse_h()) @ (region.radius + np.abs(g.z))
    axes = [np.arange(-b, b + 1) for b in np.ceil(reach).astype(int) + 1]
    vs = np.stack([x.ravel() for x in np.meshgrid(*axes, indexing="ij")], axis=1)
    return {tuple(v) for v in vs[region.contains(g.apply(vs.astype(float)))]}


class TestRegionStreaming:
    def test_identity_sup_ball(self):
        owner, vs, ws = lattice_points_in_region(
            np.eye(2)[None], np.zeros((1, 2)), NormBall(max_norm(2), 2.0)
        )
        assert len(vs) == 25
        assert np.array_equal(owner, np.zeros(25))
        assert np.array_equal(vs.astype(float), ws)
        assert any(np.all(v == 0) for v in vs)

    def test_shifted_grid_matches_direct_scan(self):
        g = UnimodularMap(np.eye(2), np.array([0.25, -0.4]))
        ball = NormBall(lp_norm(2, 2.0), 3.0)
        _, vs, ws = lattice_points_in_region(*_stacked([g]), ball)
        expected = set()
        for a in range(-5, 6):
            for b in range(-5, 6):
                w = np.array([a + 0.25, b - 0.4])
                if np.hypot(*w) <= 3.0:
                    expected.add((a, b))
        assert {tuple(v) for v in vs} == expected
        assert np.allclose(ws, g.apply(vs.astype(float)))

    def test_skewed_raw_basis_finds_the_same_lattice_as_identity(self):
        # [[1, 100], [0, 1]] spans Z^2, so the image points are those of the
        # identity map; the box of the unreduced basis must still cover them
        skew = np.array([[1.0, 100.0], [0.0, 1.0]])
        ball = NormBall(lp_norm(2, 2.0), 2.5)
        _, vs, ws = lattice_points_in_region(skew[None], np.zeros((1, 2)), ball)
        _, _, ws_id = lattice_points_in_region(np.eye(2)[None], np.zeros((1, 2)), ball)
        assert {tuple(w) for w in ws} == {tuple(w) for w in ws_id}
        assert len(vs) == len(ws_id) == 21
        assert np.array_equal(ws, vs @ skew.T)

    @pytest.mark.parametrize("n", [2, 3])
    def test_batched_maps_match_per_map_scans(self, n):
        rng = np.random.default_rng(2024 + n)
        skew = np.eye(n)
        skew[0, n - 1] = 100.0 if n == 2 else 12.0
        maps = [sample_asl(n, rng, shift_bound=0.5) for _ in range(5)]
        maps += [UnimodularMap(skew, np.full(n, 0.3))]
        maps += [sample_asl(n, rng, shift_bound=0.5) for _ in range(5)]
        maps += [UnimodularMap(np.eye(n), np.linspace(-0.4, 0.4, n))]
        regions = [
            NormBall(max_norm(n), 3.0),
            NormBall(lp_norm(n, 2.0), 3.0),
        ]
        bases, shifts = _stacked(maps)
        for region in regions:
            owner, vs, ws = lattice_points_in_region(bases, shifts, region)
            assert np.all(np.diff(owner) >= 0)
            for s, g in enumerate(maps):
                mine = owner == s
                assert {tuple(v) for v in vs[mine]} == _direct_region_scan(g, region), (s, region)
                assert np.allclose(ws[mine], g.apply(vs[mine].astype(float)))

    def test_chunks_hold_whole_maps_and_a_large_map_runs_alone(self):
        # chunks are row ranges of the concatenated boxes: the skewed map's box
        # exceeds one, so chunk edges split it and the small maps around it
        skew = np.array([[1.0, 100.0], [0.0, 1.0]])
        ball = NormBall(max_norm(2), 3.0)
        reach = np.abs(np.linalg.inv(skew)) @ np.full(2, 3.0)
        assert np.prod(2 * np.floor(reach) + 1) > _REGION_ROWS
        small = [UnimodularMap(np.eye(2), np.array([0.1 * k, -0.05 * k])) for k in range(200)]
        maps = small[:100] + [UnimodularMap(skew, np.zeros(2))] + small[100:]
        assert 100 * 49 > _REGION_ROWS
        owner, vs, _ = lattice_points_in_region(*_stacked(maps), ball)
        counts = np.bincount(owner, minlength=len(maps))
        for s, g in enumerate(maps):
            assert counts[s] == len(_direct_region_scan(g, ball)), s

    def test_one_large_map_is_streamed(self):
        # a shear-100 box holds 21 x 2,021 x 21 = 891K cells for 21^3 points;
        # row ranges keep the peak near one chunk, not the whole box
        h = np.array([[1.0, 100.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        tracemalloc.start()
        try:
            owner, vs, ws = lattice_points_in_region(h[None], np.zeros((1, 3)), NormBall(max_norm(3), 10.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(vs) == 21**3 and not owner.any()
        assert np.array_equal(ws, vs @ h.T) and np.abs(ws).max() == 10
        assert peak < 8 << 20

    def test_region_validation(self):
        with pytest.raises(ValueError, match="radius"):
            NormBall(max_norm(2), -1.0)
        with pytest.raises(ValueError, match="too large"):
            lattice_points_in_region(np.eye(3)[None], np.zeros((1, 3)), NormBall(max_norm(3), 300.0))

    def test_box_cap_is_checked_in_floating_point(self):
        # 10001^2 cells is just over the cap; an infinite radius or a nan
        # shift must fail the same way, with no int cast of a non-finite box
        ident = np.eye(2)[None]
        assert 10001**2 > 1e8 >= 9999**2
        cases = [
            (ident, np.zeros((1, 2)), NormBall(max_norm(2), 5000.0)),
            (ident, np.zeros((1, 2)), NormBall(max_norm(2), math.inf)),
            (ident, np.array([[math.nan, 0.0]]), NormBall(max_norm(2), 1.0)),
            (np.stack([np.eye(2), np.eye(2)]), np.array([[0.0, 0.0], [1e70, 0.0]]),
             NormBall(max_norm(2), 1.0)),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bases, shifts, region in cases:
                with pytest.raises(ValueError, match="too large"):
                    lattice_points_in_region(bases, shifts, region)

    def test_cap_holds_for_all_maps_together(self):
        # 400 maps of 65^3 = 274,625 cells each: every map is under the cap,
        # their 1.1e8 cells are not, and the call fails before allocating them
        bases, shifts = np.broadcast_to(np.eye(3), (400, 3, 3)).copy(), np.zeros((400, 3))
        ball = NormBall(max_norm(3), 32.0)
        assert 65**3 <= 1e8 < 400 * 65**3
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"too large: 1\.098e\+08 cells over 400 maps"):
                lattice_points_in_region(bases, shifts, ball)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestPrefixCap:
    # n = 5 at T = 512: 1025^4 = 1.1e12 prefixes
    Q = dict(f=SignedPowerForm(3, 2, 2), bound=power_law(1.0, 0.5, 0),
             norm=block_norm(((3, 2), (2, 2))), point_class=PointClass.ALL_NONZERO, t0=0.0, t=512.0)

    def test_exhaustive_count_over_the_cap_fails_before_enumerating(self, monkeypatch):
        q = CountQuery(sample_sl(5, np.random.default_rng(3)), **self.Q)
        monkeypatch.setattr(counting, "_prefix_blocks", None)  # enumerating would raise TypeError
        with pytest.raises(ValueError, match=r"1\.104e\+12 prefixes exceeds the cap of 4\.295e\+09"):
            count_solutions(q)
        # past the int64 range the box is still measured, in floating point
        for space in ("v", "w"):
            with pytest.raises(ValueError, match=r"e\+12\d prefixes exceeds the cap"):
                count_solutions(replace(q, t=1e30, shell_space=space))

    def test_early_exit_is_exempt(self):
        q = CountQuery(sample_sl(5, np.random.default_rng(3)), stop_after_first=True, **self.Q)
        assert count_solutions(q).count == 1

    def test_cap_is_inclusive(self, monkeypatch):
        # n = 3 at T = 4 in v-space: a 9 x 9 prefix box
        q = _query(g=identity_map(3), f=SignedPowerForm(2, 1, 2), norm=max_norm(3), t=4.0)
        monkeypatch.setattr(counting, "_MAX_PREFIXES", 81.0)
        assert count_solutions(q).count == brute_force_count(q).count
        monkeypatch.setattr(counting, "_MAX_PREFIXES", 80.0)
        with pytest.raises(ValueError, match="81 prefixes exceeds the cap of 80"):
            count_solutions(q)


class TestVisited:
    def test_visited_positive_and_grows_with_box(self):
        small = count_solutions(_query(t=4.0))
        large = count_solutions(_query(t=12.0))
        assert 0 < small.visited < large.visited

    def test_pruning_visits_less_than_brute_force(self):
        q = _query(t=20.0)
        assert count_solutions(q).visited < brute_force_count(q).visited


def _family(name, n):
    return {
        "prod": CoordinateProduct(n),
        "spf3": SignedPowerForm(1, n - 1, 3),
        "spf4": SignedPowerForm(1, n - 1, 4),
        "spf3+prod": VectorOf((SignedPowerForm(1, n - 1, 3), CoordinateProduct(n))),
        "spf2+prod": VectorOf((SignedPowerForm(1, n - 1, 2), CoordinateProduct(n))),
        "spf2+maxpow": VectorOf(
            (SignedPowerForm(1, n - 1, 2), MaxPower((2.0,) * (n - 1), n))
        ),
        "spf4+maxpow": VectorOf(
            (SignedPowerForm(1, n - 1, 4), MaxPower((2.0,) * (n - 1), n))
        ),
    }[name]


def _check_against_brute_force(q, counting_tools):
    fast = count_solutions(q)
    slow = brute_force_count(q)
    assert fast.count == slow.count, f"{q}: {fast.count} != {slow.count}"
    assert not fast.full_scan
    counting_tools.assert_valid_witness(q, fast)
    return fast


class TestSlotSolver:
    """The batched slot solver (coordinate products, integer-degree power
    forms and vectors of them) against brute force, in regimes the random
    query generator rarely reaches."""

    def test_batched_roots_match_np_roots(self):
        rng = np.random.default_rng(4041)
        polys = rng.normal(size=(240, 6))
        polys[::6, 0] = 0.0  # vanishing leading coefficients lower the degree
        polys[1::6, :3] = 0.0
        polys[2::6, -1] = 0.0  # vanishing trailing coefficients are roots at 0
        polys[3::6, -2:] = 0.0
        polys[4::6, [0, -1]] = 0.0
        polys[5, :-1] = 0.0  # a constant has no roots
        polys[11] = 0.0
        roots = _batched_roots(polys)
        for row, got in zip(polys, roots):
            want = np.sort_complex(np.roots(row))
            got = np.sort_complex(got[~np.isnan(got)])
            assert len(got) == len(want)
            assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(np.abs(want), 1.0))

    def test_candidates_are_distinct_and_ordered(self):
        """Overlapping slots of one solver give each integer once, in prefix
        order, then t; slots of two solvers that share no integer give
        none."""
        one = (np.array([1, 0, 0]), np.array([2.0, 1.0, -0.5]), np.array([3.0, 2.0, 1.0]))
        rows, ts = _candidates([one], {})
        assert rows.tolist() == [0, 0, 0, 1, 1] and ts.tolist() == [0, 1, 2, 2, 3]
        other = (np.array([0, 1]), np.array([5.0, 0.0]), np.array([6.0, 1.5]))
        rows, ts = _candidates([one, other], {})
        assert len(rows) == len(ts) == 0

    @pytest.mark.parametrize("family", ["prod", "spf3", "spf4"])
    def test_zero_tolerance_multiple_root(self, family, counting_tools):
        """With z = c h e_sol, v = -c e_sol maps to w = 0: a root of
        multiplicity d of the prefix-0 polynomial, which root finding
        scatters off the real axis."""
        rng = np.random.default_rng(5150)
        for i in range(12):
            n = 2 + i % 2
            h = sample_sl(n, rng).h
            sol = _solved_index(h)
            c = int(rng.integers(1, 4)) * (-1) ** i
            q = CountQuery(
                g=UnimodularMap(h, c * h[:, sol]),
                f=_family(family, n),
                bound=(0.0,),
                norm=max_norm(n),
                point_class=PointClass.ALL_NONZERO,
                t0=0.0,
                t=5.0,
            )
            assert _check_against_brute_force(q, counting_tools).count >= 1

    @pytest.mark.parametrize(
        "f, bound",
        [
            (SignedPowerForm(2, 1, 2), (0.0,)),
            (SignedPowerForm(1, 1, 2), (0.0,)),
            (MaxPower((2.0, 2.0), 3), (0.0,)),
            (VectorOf(tuple(MaxPower((1.0,), 3, (c,)) for c in range(3))), (0.0, 0.0, 1.5)),
            (VectorOf((SignedPowerForm(2, 1, 2), MaxPower((1.0,), 3, (2,)))), (0.0, 1.5)),
        ],
        ids=["spf2-n3", "spf2-n2", "maxpow-squares", "bands-two-pinned", "spf2+band"],
    )
    def test_zero_tolerance_double_root_closed_form(self, f, bound, counting_tools):
        """The same construction for the closed-form engines: the degree-2
        form has a double root at t = -c, and every zero-radius band centres
        there, so rounding can empty the slot unless its nearest integer is
        proposed."""
        rng = np.random.default_rng(5156)
        for i in range(20):
            h = sample_sl(f.n, rng).h
            sol = _solved_index(h)
            c = int(rng.integers(1, 4)) * (-1) ** i
            q = CountQuery(
                g=UnimodularMap(h, c * h[:, sol]),
                f=f,
                bound=bound,
                norm=max_norm(f.n),
                point_class=PointClass.ALL_INTEGER,
                t0=0.0,
                t=5.0,
            )
            full = count_solutions(q)
            assert full.count == brute_force_count(q).count >= 1, q
            counting_tools.assert_valid_witness(q, full)
            early = count_solutions(replace(q, stop_after_first=True))
            assert early.first_witness == full.first_witness

    @pytest.mark.parametrize("family", ["spf3+prod", "spf4+maxpow", "spf2+prod", "spf2+maxpow"])
    def test_vector_of_polynomial_parts(self, family, counting_tools):
        rng = np.random.default_rng(5151)
        for i in range(8):
            n = 2 + i % 2
            f = _family(family, n)
            q = CountQuery(
                g=sample_sl(n, rng),
                f=f,
                bound=tuple(float(rng.uniform(0.5, 6.0)) for _ in f.parts),
                norm=max_norm(n),
                point_class=(PointClass.ALL_NONZERO, PointClass.PRIMITIVE)[i % 2],
                t0=0.0,
                t=20.0 if n == 2 else 8.0,
            )
            _check_against_brute_force(q, counting_tools)

    def test_vector_part_without_slots(self, counting_tools):
        """A shifted zero-tolerance band holds no integer, so the product's
        single-point slots must all be dropped."""
        rng = np.random.default_rng(5155)
        for i in range(4):
            n = 2 + i % 2
            q = CountQuery(
                g=sample_asl(n, rng, shift_bound=0.8),
                f=VectorOf((CoordinateProduct(n), MaxPower((1.0,), n, (n - 1,)))),
                bound=(0.0, 0.0),
                norm=max_norm(n),
                point_class=PointClass.ALL_INTEGER,
                t0=0.0,
                t=6.0,
            )
            _check_against_brute_force(q, counting_tools)

    @pytest.mark.parametrize("family", ["prod", "spf3", "spf4"])
    def test_identity_and_triangular_maps(self, family, counting_tools):
        """Solved columns with zero entries drop the polynomial degree."""
        rng = np.random.default_rng(5152)
        for n in (2, 3):
            tri = np.eye(n) + np.triu(rng.normal(size=(n, n)), 1)
            for g in (identity_map(n), UnimodularMap(tri, np.zeros(n))):
                for bound in ((0.0,), (2.5,), ApproxFunction(((2.0, 0.5, 0),))):
                    q = CountQuery(
                        g=g,
                        f=_family(family, n),
                        bound=bound,
                        norm=max_norm(n),
                        point_class=PointClass.ALL_NONZERO,
                        t0=0.0,
                        t=12.0 if n == 2 else 6.0,
                    )
                    _check_against_brute_force(q, counting_tools)

    @pytest.mark.parametrize("family", ["prod", "spf3", "spf4", "spf3+prod"])
    def test_w_space_with_shift(self, family, counting_tools):
        rng = np.random.default_rng(5153)
        for i in range(6):
            n = 2 + i % 2
            f = _family(family, n)
            q = CountQuery(
                g=sample_asl(n, rng, shift_bound=0.8),
                f=f,
                bound=tuple(float(rng.uniform(0.5, 6.0)) for _ in range(f.component_count)),
                norm=lp_norm(n, 2.0),
                point_class=(PointClass.ALL_INTEGER, PointClass.PRIMITIVE)[i % 2],
                t0=float(rng.uniform(0.0, 2.0)),
                t=16.0 if n == 2 else 7.0,
                shell_space="w",
            )
            _check_against_brute_force(q, counting_tools)

    @pytest.mark.parametrize(
        "n, family, t",
        [
            (2, "prod", 1000.0),
            (2, "spf3", 1000.0),
            (2, "spf4", 1000.0),
            (3, "prod", 40.0),
            (3, "spf3", 40.0),
        ],
    )
    def test_larger_radius(self, n, family, t, counting_tools):
        q = CountQuery(
            g=sample_sl(n, np.random.default_rng(5154)),
            f=_family(family, n),
            bound=power_law(2.0, 0.5, 0),
            norm=max_norm(n),
            point_class=PointClass.ALL_NONZERO,
            t0=0.0,
            t=t,
        )
        assert _check_against_brute_force(q, counting_tools).count > 0


_KG_BANDS = VectorOf((MaxPower((1.0,), 3, (0,)), MaxPower((1.0,), 3, (1,))))  # the system kgsystem counts


class TestQuadraticOracleReach:
    """The closed-form quadratic engine, the band solver and the cell
    solver (non-integer degrees) against brute force at radii the random
    query generator does not reach, exhaustive and early exit."""

    @pytest.mark.parametrize(
        "n, t, f, bound, shell_space",
        [
            (2, 1500.0, SignedPowerForm(1, 1, 2), power_law(2.0, 0.25, 0), "v"),
            (2, 1500.0, SignedPowerForm(1, 1, 2), (3.0,), "v"),
            (3, 60.0, SignedPowerForm(2, 1, 2), power_law(1.0, 0.5, 0), "v"),
            (3, 60.0, SignedPowerForm(1, 2, 2), (0.3,), "w"),
            (3, 60.0, MaxPower((2.0, 1.0), 3), power_law(1.0, 0.5, 0), "v"),
            (3, 60.0, MaxPower((2.0, 1.0), 3), (0.3,), "w"),
            (3, 60.0, _KG_BANDS, ApproxFunction(((1.0, 0.6, 0), (1.0, 0.6, 0))), "w"),
            (3, 60.0, SignedPowerForm(2, 1, 2.5), power_law(1.0, 0.5, 0), "v"),
            (3, 60.0, SignedPowerForm(1, 2, 2.5), (0.3,), "w"),
            (3, 60.0, SignedPowerForm(2, 1, 1.5), power_law(1.0, 0.5, 0), "v"),
        ],
    )
    def test_large_radius(self, n, t, f, bound, shell_space, counting_tools):
        rng = np.random.default_rng(5157)
        g = sample_asl(n, rng, shift_bound=0.8) if shell_space == "w" else sample_sl(n, rng)
        q = CountQuery(
            g=g,
            f=f,
            bound=bound,
            norm=max_norm(n),
            point_class=PointClass.PRIMITIVE,
            t0=t / 4,
            t=t,
            shell_space=shell_space,
        )
        full = count_solutions(q)
        assert full.count == brute_force_count(q).count > 0
        counting_tools.assert_valid_witness(q, full)
        early = count_solutions(replace(q, stop_after_first=True))
        assert early.count == 1
        assert early.first_witness == full.first_witness
        assert early.visited <= full.visited


class TestFourDimensions:
    """Every solver kind at n = 4 against brute force: the quadratic engine,
    a band system, the polynomial engine (products, odd degree) and the
    cell solver (a non-integer degree).  Each target runs one v-space and
    one w-space query, one of them shifted, at the default block cap and at
    a cap below the tail slab, so that every block is a tail slice."""

    @pytest.mark.parametrize(
        "i, f, bound",
        [
            (0, SignedPowerForm(2, 2, 2), power_law(1.0, 0.5, 0)),
            (1, MaxPower((2.0, 1.0, 1.0), 4), power_law(1.0, 0.5, 0)),
            (2, CoordinateProduct(4), power_law(2.0, 0.5, 0)),
            (3, SignedPowerForm(3, 1, 3), power_law(2.0, 0.5, 0)),
            (4, SignedPowerForm(3, 1, 2.5), power_law(1.0, 0.5, 0)),
        ],
        ids=lambda x: x.spec() if hasattr(x, "spec") else None,
    )
    def test_counts_match_brute_force(self, i, f, bound, counting_tools, monkeypatch):
        rng = np.random.default_rng(4040 + i)
        for space, shifted in (("v", i % 2 == 0), ("w", i % 2 == 1)):
            g = sample_asl(4, rng, shift_bound=0.8) if shifted else sample_sl(4, rng)
            q = CountQuery(g=g, f=f, bound=bound, norm=f.canonical_norm(),
                           point_class=list(PointClass)[i % 3], t0=0.0, t=12.0, shell_space=space)
            slow = brute_force_count(q)
            fast = count_solutions(q)
            assert fast.count == slow.count > 0, q
            counting_tools.assert_valid_witness(q, fast)
            with monkeypatch.context() as m:
                m.setattr(counting, "_MAX_BLOCK", 256)  # every tail slab here holds >= 25^2 rows
                sliced = count_solutions(q)
                early = count_solutions(replace(q, stop_after_first=True))
            assert (sliced.count, sliced.first_witness, sliced.visited) == (
                fast.count, fast.first_witness, fast.visited)
            assert early.first_witness == fast.first_witness, q


def _pre_filter_slots(weights, eps, alphas, wlo, whi):
    """Both slots of every row, (2, m) arrays lo and hi, by the two root
    pairs of the closed-form quadratic solver as it ran on every row before
    the near-integer test: -B -/+ sqrt(D +/- eps/a), merged and clipped."""
    a, w_b, w_c = weights
    half_b = np.matmul(w_b, alphas)
    disc = half_b * half_b - np.matmul(w_c, alphas * alphas)
    with np.errstate(invalid="ignore"):
        root = np.sqrt(disc + eps / a)
        lo0, hi1 = -half_b - root, -half_b + root
        root = np.sqrt(disc + -eps / a)
        hi0, lo1 = -half_b - root, -half_b + root
    lo1 = np.maximum(lo1, lo0)
    hi0 = np.fmin(hi0, hi1)
    return np.maximum(np.stack([lo0, lo1]), wlo), np.minimum(np.stack([hi0, hi1]), whi)


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


def _quadratic_block(rng, part, beta, e, shift):
    """Affine parts (n, m) of a synthetic prefix block along ``beta``: rows
    of every scale up to |B| = 1e4, and rows alpha = lam beta + mu gamma with
    B = lam and D = -mu^2 (w_c . gamma^2) set on purpose: D within 1e-3 e of
    +e and of -e, D + e < 0, and rows whose only integer k sits at the far
    end of a narrow slot, just inside the inner root -B -/+ sqrt(D - e) (or
    at the centre of a hole-free slot, s^2 just under 2e)."""
    n = len(beta)
    _, w_b, w_c = counting._quadratic_weights(part, beta)
    cols = [rng.normal(size=(n, 400)) * 10.0 ** rng.uniform(-2, 4, size=400)]
    gammas = []
    for _ in range(64):
        x = rng.normal(size=n)
        gamma = x - (w_b @ x) * beta  # w_b . beta = 1, so w_b . gamma = 0
        if abs(w_c @ (gamma * gamma)) > 1e-3:
            gammas.append(gamma)
    for gamma in gammas:
        g = w_c @ (gamma * gamma)  # D = -mu^2 g
        for _ in range(12):
            small = rng.random() < 0.5
            k = float(rng.integers(-20, 21) if small else rng.integers(-10**4, 10**4))
            kind = rng.integers(4)
            if kind == 0:  # D within 1e-3 e of +-e, or below -e
                d = e * rng.choice([1.0, -1.0, -3.0]) * (1.0 + rng.uniform(-1e-3, 1e-3))
                lam = -k + rng.uniform(-1.0, 1.0)
            elif kind == 1:  # hole: k just inside the inner root of slot 1 or 0
                d = e * (1.0 + 10.0 ** rng.uniform(-3, 3))
                r, s = math.sqrt(d - e), math.sqrt(d + e)
                inside = rng.uniform(0.0, 0.2) * (s - r)
                lam = r - k + inside if rng.random() < 0.5 else -r - k - inside
            elif kind == 2:  # no hole: k at the centre, s^2 = D + e just under 2e
                d = e * (1.0 - rng.uniform(0.0, 1e-3))
                lam = -k
            else:  # k near an outer root
                d = e * 10.0 ** rng.uniform(-3, 3)
                lam = math.sqrt(d + e) - k + rng.uniform(-1e-3, 1e-3)
            if d * g >= 0:
                continue  # this gamma cannot give D of that sign
            mu = math.sqrt(-d / g)
            cols.append((lam * beta + mu * gamma)[:, None])
    alphas = np.concatenate(cols, axis=1)
    if shift:
        alphas = alphas + rng.normal(size=(n, 1)) * 1e-3
    return np.ascontiguousarray(alphas)


class TestNearIntegerPrefilter:
    """The quadratic solver solves only rows where an outer root is near an
    integer.  On synthetic blocks it must keep every row whose slots, as the
    pre-filter formula gives them on every row, hold an integer, and the
    kept rows' slots must be that formula's bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("space", ["v", "w"])
    @pytest.mark.parametrize("shift", [False, True])
    def test_kept_rows_are_a_superset_with_the_same_slots(self, n, space, shift):
        rng = np.random.default_rng(1500 + 10 * n + 2 * (space == "w") + shift)
        targeted_hits = 0
        for p in range(1, n + 1):
            part = SignedPowerForm(p, n - p, 2)
            beta = rng.normal(size=n)
            weights = counting._quadratic_weights(part, beta)
            for eps in (1e-8, 1e-5, 1e-2, 0.7, 10.0):
                alphas = _quadratic_block(rng, part, beta, eps / weights[0], shift)
                m = alphas.shape[1]
                t = float(rng.choice([30.0, 3e3, 3e4]))
                q = _query(f=part, g=identity_map(n), norm=max_norm(n), t=t, shell_space=space)
                window = counting._window(q, alphas, beta, {})
                wlo, whi = (np.array(x) for x in window())
                ref_lo, ref_hi = _pre_filter_slots(weights, eps, alphas, wlo, whi)
                start, stop = counting._integer_range(ref_lo.ravel(), ref_hi.ravel(), {})
                holds = ((ref_lo.ravel() <= ref_hi.ravel()) & (start <= stop)).reshape(2, m).any(axis=0)
                rows, lo, hi = counting._quadratic_solver(*weights, eps, {}, alphas, beta, window)
                kept = rows[: len(rows) // 2]
                assert np.array_equal(rows, np.concatenate([kept, kept]))
                assert set(np.nonzero(holds)[0]) <= set(kept.tolist()), (p, eps)
                assert np.array_equal(_bits(lo), _bits(ref_lo[:, kept].ravel()))
                assert np.array_equal(_bits(hi), _bits(ref_hi[:, kept].ravel()))
                assert len(kept) < m  # the filter drops rows
                targeted_hits += int(holds[400:].sum())  # past the 400 random rows
        assert targeted_hits > 0

    def test_window_is_asked_only_at_kept_rows(self):
        rng = np.random.default_rng(15)
        part, beta = SignedPowerForm(2, 1, 2), rng.normal(size=3)
        alphas = np.ascontiguousarray(rng.normal(size=(3, 5000)) * 50.0)
        for space in ("v", "w"):
            q = _query(f=part, g=identity_map(3), norm=max_norm(3), t=200.0, shell_space=space)
            window = counting._window(q, alphas, beta, {})
            asked = []

            def spy(rows=None):
                asked.append(rows)
                return window(rows)

            rows, _, _ = counting._quadratic_solver(*counting._quadratic_weights(part, beta), 1.0,
                                                    {}, alphas, beta, spy)
            assert 0 < len(rows) < 2 * alphas.shape[1]
            assert len(asked) == 1 and asked[0] is not None
            assert np.array_equal(asked[0], rows[: len(rows) // 2])
            # at the asked rows the window is the whole block's, row for row
            wlo, whi = (np.array(x) for x in window())
            sub_lo, sub_hi = window(asked[0])
            assert np.array_equal(sub_lo, wlo[asked[0]]) and np.array_equal(sub_hi, whi[asked[0]])

    def test_band_solver_returns_only_rows_whose_bands_meet(self):
        rng = np.random.default_rng(16)
        f = MaxPower((2.0, 1.0), 3)
        beta = rng.normal(size=3)
        alphas = np.ascontiguousarray(rng.normal(size=(3, 4000)) * 40.0)
        q = _query(f=f, g=identity_map(3), norm=max_norm(3), t=100.0, shell_space="w")
        window = counting._window(q, alphas, beta, {})
        bands = counting.band_system(f)
        solve = counting._slot_solvers(replace(q, bound=power_law(1.0, 0.5, 0)), np.asarray([0.5]))[0]
        rows, lo, hi = solve(alphas, beta, window)
        radii = np.asarray([0.5 ** (1.0 / a) for _, a, _ in bands])
        blo, bhi = counting._band_slots(alphas, beta, [c for c, _, _ in bands], radii, {})
        assert np.array_equal(rows, np.nonzero(blo <= bhi)[0])
        wlo, whi = (np.array(x) for x in window())
        assert np.array_equal(lo, np.maximum(blo[rows], wlo[rows]))
        assert np.array_equal(hi, np.minimum(bhi[rows], whi[rows]))

    def test_candidates_skip_empty_and_nan_slots(self):
        nan = np.nan
        rows = np.array([0, 1, 2, 3, 4, 5])
        lo = np.array([0.5, 3.0, nan, 1.0, -2.9, 7.0])
        hi = np.array([2.5, 2.0, 4.0, nan, -2.2, 7.0])
        got_rows, ts = _candidates([(rows, lo, hi)], {})
        # row 1 is empty (lo > hi), rows 2 and 3 have a nan end, row 4 holds
        # no integer
        assert got_rows.tolist() == [0, 0, 5] and ts.tolist() == [1, 2, 7]


class TestBlockMemory:
    @pytest.mark.parametrize("half", [False, True])
    def test_first_early_exit_block_at_n4_is_small(self, half):
        """At n = 4, T = 512 a lead's slab holds 1025^2 rows (8.4 MB as one
        int64 pair per row; the whole tail grid peaked at 69 MB).  The first
        256-row block decodes its tail slice from positions alone and stays
        under 1 MB."""
        import tracemalloc

        box = np.full(4, 512)
        tracemalloc.start()
        try:
            block = next(iter(_prefix_blocks(box, [0, 1, 2], 256, half=half)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        leads, tail = block
        assert leads.tolist() == [0] and len(tail) == 256
        grids = np.meshgrid(_centered(512)[:3], _centered(512), indexing="ij")
        rows = np.stack([g.ravel() for g in grids], axis=1)
        if half:
            rows = rows[[_first_nonzero_positive(r) for r in rows]]
        assert np.array_equal(tail, rows[:256])

    def test_early_exit_set_up_does_not_grow_with_t(self, counting_tools):
        """At n = 3 a large T slices every lead's slab; the slabs of the lead
        values come one at a time, so an early exit after a few hundred
        prefixes stays small at any T."""
        f = SignedPowerForm(2, 1, 2)
        g = sample_sl(3, np.random.default_rng(mix_seed(31, 0)))
        results = []
        for t in (1e4, 1e5):
            q = CountQuery(g, f, power_law(1.0, 0.5, 0), f.canonical_norm(), PointClass.ALL_NONZERO,
                           0.0, t, stop_after_first=True)
            tracemalloc.start()
            try:
                res = count_solutions(q)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            counting_tools.assert_valid_witness(q, res)
            results.append((res.first_witness, res.visited))
        assert results[0] == results[1] and results[0][1] < 1000
        assert peak < 8 << 20

"""Sampler tests: determinant contracts, shift sampling, basis reduction,
and statistical smoke checks of the exact-law tier."""

import math

import numpy as np
import pytest

from genlat.core import lp_norm, max_norm, mix_seed
from genlat.haar import (
    UnimodularMap,
    identity_map,
    lll_reduce,
    sample_asl,
    sample_grid_exact,
    sample_lattice_exact,
    sample_sl,
)
from genlat.haar import _TAIL, _primitive_gaussian_mass


class TestUnimodularMap:
    def test_identity(self):
        g = identity_map(3)
        assert g.n == 3 and not np.any(g.z != 0.0)
        assert np.array_equal(g.apply(np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])

    def test_apply_matches_columns(self):
        rng = np.random.default_rng(4)
        g = sample_asl(3, rng, shift_bound=1.0)
        assert np.allclose(g.apply(np.zeros(3)), g.z)
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            assert np.allclose(g.apply(e) - g.z, g.h[:, i])

    def test_apply_batch_matches_single(self):
        rng = np.random.default_rng(5)
        g = sample_asl(2, rng, shift_bound=2.0)
        pts = rng.uniform(-3, 3, size=(50, 2))
        batch = g.apply(pts)
        for p, w in zip(pts, batch):
            assert np.allclose(g.apply(p), w)

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError, match="det"):
            UnimodularMap(2.0 * np.eye(2), np.zeros(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            UnimodularMap(np.eye(2), np.zeros(3))
        with pytest.raises(ValueError):
            UnimodularMap(np.ones((2, 3)), np.zeros(2))

    def test_fields_read_only(self):
        g = identity_map(2)
        with pytest.raises(ValueError):
            g.h[0, 0] = 5.0


class TestSampleSL:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_determinant_batch(self, n):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            g = sample_sl(n, rng)
            assert abs(np.linalg.det(g.h) - 1.0) <= 1e-9
            assert not np.any(g.z != 0.0)

    def test_distinct_seeds_distinct_draws(self):
        a = sample_sl(2, np.random.default_rng(1))
        b = sample_sl(2, np.random.default_rng(2))
        assert not np.allclose(a.h, b.h)

    def test_deterministic_for_fixed_seed(self):
        a = sample_sl(3, np.random.default_rng(7))
        b = sample_sl(3, np.random.default_rng(7))
        assert np.array_equal(a.h, b.h)

    def test_renormalization_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            h = sample_sl(3, rng).h
            again = h / np.linalg.det(h) ** (1.0 / 3)
            assert np.all(np.abs(again - h) <= 1e-12 * (1.0 + np.abs(h)))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            sample_sl(1, np.random.default_rng(0))


class TestSampleASL:
    def test_zero_shift_is_linear(self):
        g = sample_asl(2, np.random.default_rng(0), shift_bound=0.0)
        assert np.array_equal(g.z, np.zeros(2))

    def test_max_norm_shift_in_cube(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            g = sample_asl(2, rng, shift_bound=1.0)
            assert np.all(np.abs(g.z) <= 1.0)

    def test_euclidean_shift_in_ball(self):
        rng = np.random.default_rng(2)
        nu = lp_norm(3, 2.0)
        for _ in range(200):
            g = sample_asl(3, rng, shift_bound=1.0, norm=nu)
            assert nu(g.z) <= 1.0
            assert abs(np.linalg.det(g.h) - 1.0) <= 1e-9

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_asl(2, rng, shift_bound=-1.0)
        with pytest.raises(ValueError):
            sample_asl(2, rng, shift_bound=1.0, norm=max_norm(3))


class TestSeedMixing:
    def test_deterministic(self):
        assert mix_seed(12345, 7) == mix_seed(12345, 7)

    def test_distinct_indices_decorrelate(self):
        seeds = {mix_seed(0, i) for i in range(10000)}
        assert len(seeds) == 10000

    def test_64_bit_range(self):
        for i in range(100):
            s = mix_seed(2**63, i)
            assert 0 <= s < 2**64


class TestLLL:
    def lattice_equal(self, a, b):
        u = np.linalg.inv(a) @ b
        return np.allclose(u, np.round(u), atol=1e-9) and abs(
            abs(np.linalg.det(u)) - 1.0
        ) <= 1e-9

    def test_preserves_lattice(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            basis = sample_sl(3, rng).h
            red = lll_reduce(basis)
            assert self.lattice_equal(basis, red)

    def test_shortens_skewed_basis(self):
        basis = np.array([[1.0, 100.0], [0.0, 1.0]])
        red = lll_reduce(basis)
        assert self.lattice_equal(basis, red)
        assert np.abs(red).max() <= 2.0

    def test_identity_fixed(self):
        assert np.allclose(lll_reduce(np.eye(3)), np.eye(3))

    def test_output_is_size_reduced_and_lovasz(self):
        # 200 seeded bases, n = 2..5, skewed by unimodular integer matrices;
        # the Gram-Schmidt data of each output are recomputed independently
        rng = np.random.default_rng(29)
        for i in range(200):
            n = 2 + i % 4
            upper = np.triu(rng.integers(-6, 7, (n, n)), 1) + np.eye(n)
            lower = np.tril(rng.integers(-6, 7, (n, n)), -1) + np.eye(n)
            basis = sample_sl(n, rng).h @ upper @ lower
            red = lll_reduce(basis)
            assert self.lattice_equal(basis, red)
            r = np.linalg.qr(red, mode="r")
            mu = (r / np.diag(r)[:, None]).T  # mu[i, j] = <b_i, b*_j> / |b*_j|^2
            bb = np.diag(r) ** 2
            assert np.all(np.abs(np.tril(mu, -1)) <= 0.5 + 1e-9)
            for k in range(1, n):
                assert bb[k] >= (0.99 - mu[k, k - 1] ** 2) * bb[k - 1] * (1.0 - 1e-9)


def count_in_ball(basis: np.ndarray, radius: float, shift: np.ndarray | None = None):
    """Tiny reference enumerator: (nonzero count, primitive count) of lattice
    (or grid) points in the Euclidean ball.  Test-local on purpose."""
    n = basis.shape[0]
    hinv = np.linalg.inv(basis)
    center = np.zeros(n) if shift is None else hinv @ shift
    reach = np.abs(hinv).sum(axis=1) * radius
    ranges = [
        np.arange(math.floor(-c - r), math.floor(c + r) + 2)
        for c, r in zip(-center, reach)
    ]
    grids = np.meshgrid(*ranges, indexing="ij")
    coeffs = np.stack([g.ravel() for g in grids], axis=1)
    pts = coeffs @ basis.T + (0.0 if shift is None else shift)
    inside = (pts * pts).sum(axis=1) <= radius * radius
    nonzero = (coeffs != 0).any(axis=1)
    if shift is None:
        count_all = int((inside & nonzero).sum())
        prim = np.gcd.reduce(np.abs(coeffs), axis=1) == 1
        return count_all, int((inside & prim).sum())
    return int(inside.sum()), 0


class TestExactSamplers:
    def test_plane_basis_determinant_and_determinism(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            basis, w = sample_lattice_exact(2, rng)
            assert w == 1.0
            assert abs(np.linalg.det(basis) - 1.0) <= 1e-12
        a, _ = sample_lattice_exact(2, np.random.default_rng(42))
        b, _ = sample_lattice_exact(2, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_space_basis_contract(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            basis, w = sample_lattice_exact(3, rng)
            assert abs(np.linalg.det(basis) - 1.0) <= 1e-9
            assert 0.0 < w < math.inf

    def test_grid_shift_inside_fundamental_cell(self):
        rng = np.random.default_rng(2)
        g, w = sample_grid_exact(2, rng)
        theta = np.linalg.solve(g.h, g.z)
        assert np.all(theta >= 0.0) and np.all(theta < 1.0)

    def test_plane_mean_count_statistical(self):
        # invariant-law mean of the nonzero count in a ball of volume V is V;
        # 1500 exact plane samples put the check at the 4-sigma level
        volume = 20.0
        radius = math.sqrt(volume / math.pi)
        rng = np.random.default_rng(11)
        counts = []
        for _ in range(1500):
            basis, _ = sample_lattice_exact(2, rng)
            counts.append(count_in_ball(basis, radius)[0])
        counts = np.asarray(counts, dtype=float)
        stderr = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - volume) <= 4.0 * stderr

    def test_space_weighted_mean_count_statistical(self):
        # self-normalized importance-sampling mean against the same constant
        volume = 30.0
        radius = (volume / (4.0 * math.pi / 3.0)) ** (1.0 / 3.0)
        rng = np.random.default_rng(13)
        counts, weights = [], []
        for _ in range(1200):
            basis, w = sample_lattice_exact(3, rng)
            counts.append(count_in_ball(basis, radius)[0])
            weights.append(w)
        counts = np.asarray(counts, dtype=float)
        weights = np.asarray(weights)
        mean = (weights * counts).sum() / weights.sum()
        se = math.sqrt((weights**2 * (counts - mean) ** 2).sum()) / weights.sum()
        assert abs(mean - volume) <= 4.0 * se
        ess = weights.sum() ** 2 / (weights**2).sum()
        assert ess >= 0.5 * len(counts)  # the proposal is close to the target

    def test_gaussian_tier_is_biased_where_exact_is_not(self):
        # the reason tier 2 exists: the normalized Gaussian draw over-weights
        # well-rounded lattices and visibly under-counts on mean statistics
        volume = 20.0
        radius = math.sqrt(volume / math.pi)
        rng = np.random.default_rng(17)
        counts = []
        for _ in range(1500):
            g = sample_sl(2, rng)
            counts.append(count_in_ball(g.h, radius)[0])
        counts = np.asarray(counts, dtype=float)
        stderr = counts.std(ddof=1) / math.sqrt(len(counts))
        assert (volume - counts.mean()) / stderr > 8.0

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            sample_lattice_exact(1, np.random.default_rng(0))

    def test_primitive_mass_matches_abs_row_sum_box(self):
        # oracle: the masses of the 8 sigma ball's points, from a box that
        # covers the ball; the two sums drop different terms, so they agree
        # within the written tail bounds of both
        rng = np.random.default_rng(23)
        bases = [sample_lattice_exact(3, rng)[0] for _ in range(20)]
        bases.append(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]))
        bases.append(sample_lattice_exact(2, rng)[0])
        bases += [sample_lattice_exact(4, rng)[0] for _ in range(3)]
        for basis in bases:
            for sigma in (1.0, 1.5):
                mass, tol = box_mass_and_tolerance(basis, sigma)
                assert abs(_primitive_gaussian_mass(basis, sigma) - mass) <= tol

    def test_primitive_mass_with_a_very_short_vector(self):
        # lambda_1 = 0.035 puts T(k) terms up to k = R / lambda_1, about 367
        # at sigma = 1.5, past any fixed Mobius table of 200 entries
        s = 1.0 / math.sqrt(0.035)
        basis = np.array([[0.035, 0.3, 0.1], [0.0, s, 0.2 * s], [0.0, 0.0, s]])
        for sigma in (1.0, 1.5):
            mass, tol = box_mass_and_tolerance(basis, sigma)
            assert abs(_primitive_gaussian_mass(basis, sigma) - mass) <= tol


def _banaszczyk(n: int, c: float) -> float:
    """Relative mass of a lattice Gaussian sum's terms below e^{-c} times
    its largest (Banaszczyk 1993, Lemma 1.5), for c >= n/2."""
    return (2.0 * math.e * c / n) ** (n / 2.0) * math.exp(-c)


def box_mass_and_tolerance(basis: np.ndarray, sigma: float) -> tuple[float, float]:
    """Primitive mass of the 8 sigma ball by direct summation, and the sum of
    its tail bound and the one written for ``_primitive_gaussian_mass``.
    Test-local on purpose: it shares no code with the method under test."""
    n = basis.shape[0]
    radius = 8.0 * sigma
    hinv = np.linalg.inv(basis)
    box = np.floor(np.abs(hinv).sum(axis=1) * radius).astype(int)
    primitive, total, shortest = 0.0, 0.0, math.inf
    for first in range(-box[0], box[0] + 1):  # one slab at a time keeps n = 4 small
        grids = np.meshgrid(*[np.arange(-b, b + 1) for b in box[1:]], indexing="ij")
        coeffs = np.stack([np.full(grids[0].size, first)] + [g.ravel() for g in grids], axis=1)
        coeffs = coeffs[(coeffs != 0).any(axis=1)]
        pts = coeffs @ basis.T
        sq = (pts * pts).sum(axis=1)
        keep = sq <= radius * radius
        gauss = np.exp(-sq / (2.0 * sigma * sigma))
        total += gauss[keep].sum()
        primitive += gauss[keep & (np.gcd.reduce(np.abs(coeffs), axis=1) == 1)].sum()
        shortest = min(shortest, math.sqrt(sq.min()))
    norm_const = (2.0 * math.pi * sigma * sigma) ** (n / 2.0)
    whole = (1.0 + total) / norm_const  # rho(L), the origin included
    # _primitive_gaussian_mass's bound: (K + 1)(1 + 1/(2c)) beta rho(L)
    c = _TAIL
    reach = sigma * math.sqrt(2.0 * c)
    top = max(int(reach / shortest), math.ceil(math.sqrt(2.0 * math.pi) * sigma) - 1)
    bound = (top + 1) * (1.0 + 0.5 / c) * _banaszczyk(n, c)
    # the box drops the points past 8 sigma, below e^{-32} times the largest
    return primitive / norm_const, (bound + _banaszczyk(n, 32.0)) * whole

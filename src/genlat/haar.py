"""Random determinant-one maps and affine grids, in two tiers.

Tier 1, ``sample_sl`` / ``sample_asl``: normalized
Gaussian matrices.  Their law is absolutely continuous with respect to the
invariant measure on the group, which is exactly what almost-every-g
statements consume (dichotomy, counting-ratio, and uniform-approximability
experiments): null and conull sets transfer.  It is NOT the invariant law
itself.  Conditioned on determinant one, the Gaussian draw over-weights
well-rounded matrices (the normalized density carries a Frobenius-norm
factor), and mean-count statistics compared against invariant-measure
constants are off by dozens of standard errors at routine sample sizes.

Tier 2, ``sample_lattice_exact`` / ``sample_grid_exact``: samples whose
weighted law is the invariant one, for the mean, variance, and
empty-probability experiments.  The plane is sampled by inverting the
classical fundamental-domain coordinates (shape x + iy with |x| <= 1/2,
x^2 + y^2 >= 1, density proportional to dx dy / y^2).  Higher dimensions
disintegrate along a marked primitive vector: the marked vector is proposed
from a centered Gaussian, the orthogonal complement carries an exact sample
one dimension down plus uniform torus phases, and the proposal/target
discrepancy is returned as an importance weight (the reciprocal of the
total Gaussian mass on the lattice's primitive vectors).  Estimators must
use self-normalized weighted means; the (basis, weight) return type keeps
that contract visible.

All samplers take an explicit NumPy generator and never touch global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Norm, max_norm

__all__ = [
    "UnimodularMap",
    "identity_map",
    "sample_sl",
    "sample_asl",
    "lll_reduce",
    "sample_lattice_exact",
    "sample_grid_exact",
]

DET_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class UnimodularMap:
    """A map x -> h x + z with det h = 1; z = 0 for the linear group."""

    h: np.ndarray
    z: np.ndarray

    def __post_init__(self) -> None:
        h = np.array(self.h, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError(f"h must be square, got shape {h.shape}")
        if abs(np.linalg.det(h) - 1.0) > DET_TOL:
            raise ValueError(f"det h = {np.linalg.det(h)} is not 1 within {DET_TOL}")
        z = np.array(self.z, dtype=float)
        if z.shape != (h.shape[0],):
            raise ValueError(f"shift shape {z.shape} does not match n = {h.shape[0]}")
        h.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "z", z)

    @property
    def n(self) -> int:
        return self.h.shape[0]

    def apply(self, points: np.ndarray) -> np.ndarray:
        """h p + z for a single point (n,) or rows of an (m, n) array."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            return self.h @ pts + self.z
        return pts @ self.h.T + self.z

    def inverse_h(self) -> np.ndarray:
        return np.linalg.inv(self.h)


def identity_map(n: int, shift: np.ndarray | None = None) -> UnimodularMap:
    z = np.zeros(n) if shift is None else np.asarray(shift, dtype=float)
    return UnimodularMap(np.eye(n), z)


# --------------------------------------------------------------------------
# tier 1: Gaussian draws (measure class, not the invariant law)


def sample_sl(n: int, rng: np.random.Generator, max_tries: int = 100) -> UnimodularMap:
    """Normalized Gaussian matrix with determinant exactly 1 (to 1e-9).

    A negative determinant is fixed by negating the first row, so sample
    cost is deterministic; near-singular draws (|det| < 1e-12) are redrawn.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    for _ in range(max_tries):
        a = rng.standard_normal((n, n))
        det = np.linalg.det(a)
        if abs(det) < 1e-12:
            continue
        if det < 0:
            a[0] = -a[0]
            det = -det
        h = a / det ** (1.0 / n)
        # one more scalar renormalization squeezes out the float error
        h = h / np.linalg.det(h) ** (1.0 / n)
        return UnimodularMap(h, np.zeros(n))
    raise RuntimeError(f"no well-conditioned draw in {max_tries} tries")


def sample_asl(
    n: int,
    rng: np.random.Generator,
    shift_bound: float = 0.0,
    norm: Norm | None = None,
    max_tries: int = 10**6,
) -> UnimodularMap:
    """Gaussian h plus a shift uniform in the norm ball of radius shift_bound.

    The shift is rejection-sampled from the bounding cube (block norms
    dominate the sup norm, so the ball sits inside the cube).
    """
    g = sample_sl(n, rng)
    if shift_bound == 0.0:
        return g
    if shift_bound < 0.0:
        raise ValueError(f"shift bound must be >= 0, got {shift_bound}")
    nu = norm if norm is not None else max_norm(n)
    if nu.dim != n:
        raise ValueError(f"norm dimension {nu.dim} does not match n = {n}")
    for _ in range(max_tries):
        z = rng.uniform(-shift_bound, shift_bound, size=n)
        if nu(z) <= shift_bound:
            return UnimodularMap(g.h, z)
    raise RuntimeError("shift rejection cap hit; norm ball too small inside its cube")


# --------------------------------------------------------------------------
# basis reduction


def lll_reduce(basis: np.ndarray, delta: float = 0.99) -> np.ndarray:
    """Lenstra-Lenstra-Lovasz reduction of a column basis (float arithmetic).

    Returns a basis of the same lattice with near-orthogonal, short columns;
    used to keep enumeration boxes small.  delta close to 1 gives the
    strongest reduction the algorithm supports.
    """
    b = np.array(basis, dtype=float)
    n = b.shape[1]
    if not 0.25 < delta < 1.0:
        raise ValueError(f"delta must be in (1/4, 1), got {delta}")

    def gso(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        bs = b.copy()
        mu = np.zeros((n, n))
        for i in range(n):
            for j in range(i):
                mu[i, j] = (b[:, i] @ bs[:, j]) / (bs[:, j] @ bs[:, j])
                bs[:, i] -= mu[i, j] * bs[:, j]
        return bs, mu

    bs, mu = gso(b)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q != 0:
                b[:, k] -= q * b[:, j]
                bs, mu = gso(b)
        if bs[:, k] @ bs[:, k] >= (delta - mu[k, k - 1] ** 2) * (bs[:, k - 1] @ bs[:, k - 1]):
            k += 1
        else:
            b[:, [k - 1, k]] = b[:, [k, k - 1]]
            bs, mu = gso(b)
            k = max(k - 1, 1)
    return b


# --------------------------------------------------------------------------
# tier 2: exact invariant-law samplers


def _plane_basis(rng: np.random.Generator) -> np.ndarray:
    # shape coordinates: x uniform on |x| <= 1/2; y = (sqrt(3)/2)/u has
    # density proportional to 1/y^2 on y >= sqrt(3)/2; reject below the
    # unit circle.  The scale 1/sqrt(y) makes the column basis determinant 1.
    while True:
        x = rng.uniform(-0.5, 0.5)
        y = (math.sqrt(3.0) / 2.0) / rng.uniform(0.0, 1.0)
        if x * x + y * y >= 1.0:
            break
    s = 1.0 / math.sqrt(y)
    shape = np.array([[s, x * s], [0.0, y * s]])
    # The shape coordinates fix the lattice only up to rotation; the
    # invariant measure factors as (shape) x (uniform rotation angle), and
    # skipping the rotation skews count statistics in any region that is not
    # rotation invariant (the mean survives, higher moments do not).
    phi = rng.uniform(0.0, 2.0 * math.pi)
    c, sn = math.cos(phi), math.sin(phi)
    rot = np.array([[c, -sn], [sn, c]])
    return rot @ shape


def _rotation_to_first_axis(v: np.ndarray) -> np.ndarray:
    """Orthogonal matrix with determinant +1 taking e_1 to v/|v|."""
    n = len(v)
    u = v / np.linalg.norm(v)
    e1 = np.zeros(n)
    e1[0] = 1.0
    w = u - e1
    nw = np.linalg.norm(w)
    if nw < 1e-12:
        return np.eye(n)
    w = w / nw
    refl = np.eye(n) - 2.0 * np.outer(w, w)  # reflection: e1 -> u, det -1
    fix = np.eye(n)
    fix[n - 1, n - 1] = -1.0
    return refl @ fix


def _primitive_gaussian_mass(basis: np.ndarray, sigma: float) -> float:
    """Total N(0, sigma^2 I) density mass on the lattice's primitive vectors
    inside the 8 sigma ball (the tail beyond is ~e^{-32}, negligible)."""
    n = basis.shape[0]
    radius = 8.0 * sigma
    hinv = np.linalg.inv(basis)
    # on the ball |c_i| = |hinv_i . x| <= |hinv_i| radius; the slack keeps
    # rounding from cutting a boundary row (points past the ball drop below)
    box = np.floor(np.linalg.norm(hinv, axis=1) * radius * (1.0 + 1e-9)).astype(int)
    ranges = [np.arange(-b, b + 1) for b in box]
    grids = np.meshgrid(*ranges, indexing="ij")
    coeffs = np.stack([g.ravel() for g in grids], axis=1)
    # the ranges are symmetric, so the origin is the middle row
    mid = len(coeffs) // 2
    coeffs = np.concatenate((coeffs[:mid], coeffs[mid + 1 :]))
    pts = coeffs @ basis.T
    sq = (pts * pts).sum(axis=1)
    # test primitivity only inside the ball: the same points in the same
    # order as a mask over the whole box, so the same sum
    inside = sq <= radius * radius
    sq = sq[inside]
    primitive = np.gcd.reduce(np.abs(coeffs[inside]), axis=1) == 1
    norm_const = (2.0 * math.pi * sigma * sigma) ** (n / 2.0)
    return float(np.exp(-sq[primitive] / (2.0 * sigma * sigma)).sum() / norm_const)


def sample_lattice_exact(
    n: int, rng: np.random.Generator, sigma: float = 1.5
) -> tuple[np.ndarray, float]:
    """One weighted sample (column basis, importance weight) of a random
    unimodular lattice under the invariant law.

    n = 2 is exact with weight 1 (fundamental-domain inversion).  For
    n >= 3, a marked primitive vector v is proposed from N(0, sigma^2 I),
    the complement carries a recursive exact sample and uniform torus
    phases, and the weight is the reciprocal Gaussian mass on the
    resulting lattice's primitive vectors (times any weight from the
    recursive sample).  Weighted averages with these weights are unbiased
    for invariant-law expectations; use self-normalized estimators.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n == 2:
        return _plane_basis(rng), 1.0
    v = sigma * rng.standard_normal(n)
    r = float(np.linalg.norm(v))
    scale = np.full(n, r ** (-1.0 / (n - 1)))
    scale[0] = r
    a_v = _rotation_to_first_axis(v) @ np.diag(scale)
    inner, inner_weight = sample_lattice_exact(n - 1, rng, sigma)
    phases = rng.uniform(0.0, 1.0, size=n - 1)
    g = np.zeros((n, n))
    g[0, 0] = 1.0
    g[0, 1:] = phases
    g[1:, 1:] = inner
    basis = lll_reduce(a_v @ g)
    if np.linalg.det(basis) < 0:
        basis[:, 0] = -basis[:, 0]  # same lattice, determinant back to +1
    weight = inner_weight / _primitive_gaussian_mass(basis, sigma)
    return basis, weight


def sample_grid_exact(
    n: int, rng: np.random.Generator, sigma: float = 1.5
) -> tuple[UnimodularMap, float]:
    """Weighted sample of a random affine grid h Z^n + z under the invariant
    law: an exact lattice plus a uniform torus shift z = h theta."""
    basis, weight = sample_lattice_exact(n, rng, sigma)
    theta = rng.uniform(0.0, 1.0, size=n)
    return UnimodularMap(basis, basis @ theta), weight

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
discrepancy is returned as an importance weight: the reciprocal of the
total Gaussian mass on the lattice's primitive vectors.  That mass comes by
Mobius inversion from Gaussian sums over the multiples kL, each taken over
the lattice itself or, by Poisson summation, over its dual, whichever needs
the smaller ball; no ball has radius above about 3.3 at sigma = 1.5, and
the dropped terms carry a stated relative bound (see
``_primitive_gaussian_mass``).  Estimators must use self-normalized
weighted means; the (basis, weight) return type keeps that contract
visible.

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


def identity_map(n: int) -> UnimodularMap:
    return UnimodularMap(np.eye(n), np.zeros(n))


# --------------------------------------------------------------------------
# tier 1: Gaussian draws (measure class, not the invariant law)

# draws before giving up: a near-singular Gaussian matrix, and a shift
# outside its norm ball, are redrawn
_SL_TRIES = 100
_SHIFT_TRIES = 10**6


def sample_sl(n: int, rng: np.random.Generator) -> UnimodularMap:
    """Normalized Gaussian matrix with determinant exactly 1 (to 1e-9).

    A negative determinant is fixed by negating the first row, so sample
    cost is deterministic; near-singular draws (|det| < 1e-12) are redrawn.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    for _ in range(_SL_TRIES):
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
    raise RuntimeError(f"no well-conditioned draw in {_SL_TRIES} tries")


def sample_asl(
    n: int,
    rng: np.random.Generator,
    shift_bound: float = 0.0,
    norm: Norm | None = None,
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
    for _ in range(_SHIFT_TRIES):
        z = rng.uniform(-shift_bound, shift_bound, size=n)
        if nu(z) <= shift_bound:
            return UnimodularMap(g.h, z)
    raise RuntimeError("shift rejection cap hit; norm ball too small inside its cube")


# --------------------------------------------------------------------------
# basis reduction


# the Lovasz parameter: close to 1 gives the strongest reduction LLL supports
_LLL_DELTA = 0.99


def lll_reduce(basis: np.ndarray) -> np.ndarray:
    """Lenstra-Lenstra-Lovasz reduction of a column basis (float arithmetic).

    Returns a basis of the same lattice with near-orthogonal, short columns;
    used to keep enumeration boxes small.  The Gram-Schmidt data are
    computed once and then updated in place after each size reduction and
    swap (Cohen, A Course in Computational Algebraic Number Theory, Alg.
    2.6.3); each column is size reduced in full before its Lovasz test.
    """
    rows = np.array(basis, dtype=float).T.copy()  # rows[i] is column i of the basis
    n = len(rows)
    # mu[i][j] = <b_i, b*_j> / |b*_j|^2 and bb[i] = |b*_i|^2, as Python floats
    gram = (rows @ rows.T).tolist()
    mu = [[0.0] * n for _ in range(n)]
    bb = [0.0] * n
    for i in range(n):
        for j in range(i):
            mu[i][j] = (gram[i][j] - sum(mu[j][l] * mu[i][l] * bb[l] for l in range(j))) / bb[j]
        bb[i] = gram[i][i] - sum(mu[i][l] * mu[i][l] * bb[l] for l in range(i))
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q != 0:
                rows[k] -= q * rows[j]
                for l in range(j):
                    mu[k][l] -= q * mu[j][l]
                mu[k][j] -= q
        m = mu[k][k - 1]
        if bb[k] >= (_LLL_DELTA - m * m) * bb[k - 1]:
            k += 1
            continue
        rows[[k - 1, k]] = rows[[k, k - 1]]
        mu[k - 1][: k - 1], mu[k][: k - 1] = mu[k][: k - 1], mu[k - 1][: k - 1]
        new = bb[k] + m * m * bb[k - 1]
        mu[k][k - 1] = m * bb[k - 1] / new
        bb[k] = bb[k - 1] * bb[k] / new
        bb[k - 1] = new
        for i in range(k + 1, n):
            t = mu[i][k]
            mu[i][k] = mu[i][k - 1] - m * t
            mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
        k = max(k - 1, 1)
    return np.ascontiguousarray(rows.T)


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


# A Gaussian sum drops its terms below e^{-_TAIL} times its largest term;
# e^{-_TAIL} = 2^-53 is the unit roundoff of a double.
_TAIL = 53.0 * math.log(2.0)


def _half_ball(basis: np.ndarray, inverse: np.ndarray, radius: float) -> np.ndarray:
    """Sorted squared lengths of the lattice points x = basis c, c != 0, with
    |x| <= radius, one of each pair +-x; ``inverse`` is basis^-1."""
    # on the ball |c_i| = |inverse_i . x| <= |inverse_i| radius; the slack keeps
    # rounding from cutting a boundary row (points past the ball drop below)
    box = np.floor(np.linalg.norm(inverse, axis=1) * radius * (1.0 + 1e-9)).astype(int)
    coeffs = np.indices(2 * box + 1).reshape(len(box), -1).T - box
    # the ranges are symmetric, so row i and row len-1-i hold c and -c, and
    # the rows after the middle one (the origin) hold one of each pair
    pts = coeffs[len(coeffs) // 2 + 1 :] @ basis.T
    sq = (pts * pts).sum(axis=1)
    return np.sort(sq[sq <= radius * radius])


def _mobius(m: int) -> np.ndarray:
    """mu(0..m), with mu(0) = 0."""
    mu = np.ones(m + 1, dtype=np.int64)
    mu[0] = 0
    rest = np.arange(m + 1)  # k with its prime factors up to sqrt(m) divided out once
    for p in range(2, math.isqrt(m) + 1):
        if rest[p] == p:  # no smaller prime divides p
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
            rest[p::p] //= p
    mu[rest > 1] *= -1  # a squarefree k <= m has at most one prime factor above sqrt(m)
    return mu


def _primitive_gaussian_mass(basis: np.ndarray, sigma: float) -> float:
    """Total N(0, sigma^2 I) density mass rho on the lattice's primitive vectors.

    Mobius inversion over the content k of a lattice vector gives
    rho_prim(L) = sum_k mu(k) T(k), with T(k) the mass of kL minus the
    origin.  Each T(k) is a Gaussian sum over the primal or, by Poisson
    summation, the dual lattice,

        T(k) = k^{-n} / det L * sum_{u in L*} exp(-2 pi^2 sigma^2 |u|^2 / k^2) - rho(0),

    and each sum keeps its terms of at least e^{-c} times its largest, with
    c = _TAIL.  The primal sum for T(k) then needs the ball of radius
    R / k, R = sigma sqrt(2c), and the dual sum the ball of radius
    k R / (2 pi sigma^2); the dual ball is the smaller one for
    k < sqrt(2 pi) sigma.  So the dual side gives T(k) below that crossover
    and one primal ball, at the first k past it, gives every larger T(k) by
    masking.  T(k) has no term left once k lambda_1 > R, so the Mobius table
    runs to K = max(floor(R / lambda_1), last dual k), with lambda_1 read
    off the primal ball.

    Tail bound.  By Banaszczyk's lemma (Math. Ann. 296 (1993), Lemma
    1.5), the terms of one such sum over a lattice of rank n that lie
    below e^{-c} times the largest add up to less than
    beta = (2 e c / n)^{n/2} e^{-c} (for c >= n/2, so n <= 73) times the
    whole sum, and each whole sum is rho(kL) <= rho(L), the lattice's total
    mass with the origin (a dual sum is rho(kL) by Poisson summation).
    With at most K truncated sums, and the dropped tail
    sum_{k > K} T(k) <= (1 + (K + 1) / (2c)) beta rho(L), the result is off
    by less than (K + 1)(1 + 1/(2c)) beta rho(L), before rounding.
    """
    n = basis.shape[0]
    two_var = 2.0 * sigma * sigma
    rho0 = (math.pi * two_var) ** (-n / 2.0)  # rho at the origin
    reach = math.sqrt(_TAIL * two_var)
    last_dual = math.ceil(math.sqrt(math.pi * two_var)) - 1
    inverse = np.linalg.inv(basis)
    primal = _half_ball(basis, inverse, reach / (last_dual + 1))
    top = last_dual if len(primal) == 0 else max(last_dual, int(reach / math.sqrt(primal[0])))
    mu = _mobius(top)
    # dual side: every dual point in the largest dual ball serves each k
    kd = np.arange(1, last_dual + 1, dtype=float)
    dual = _half_ball(inverse.T, basis.T, last_dual * reach / (math.pi * two_var))
    theta = 1.0 + 2.0 * np.exp(np.outer(-(math.pi * math.pi * two_var) / (kd * kd), dual)).sum(axis=1)
    det = abs(np.linalg.det(basis))
    mass = float((mu[1 : last_dual + 1] * (theta / (kd**n * det) - rho0)).sum())
    # primal side: T(k) over the points with k |x| <= R, a prefix of the sorted ball
    ks = np.flatnonzero(mu[last_dual + 1 :]) + last_dual + 1
    counts = np.searchsorted(primal, (reach / ks) ** 2, side="right")
    kk = np.repeat(ks, counts)
    idx = np.arange(len(kk)) - np.repeat(np.cumsum(counts) - counts, counts)
    terms = mu[kk] * np.exp(-(kk * kk) * primal[idx] / two_var)
    return mass + 2.0 * rho0 * float(terms.sum())


# the width of the marked vector's Gaussian proposal
_SIGMA = 1.5


def sample_lattice_exact(n: int, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """One weighted sample (column basis, importance weight) of a random
    unimodular lattice under the invariant law.

    n = 2 is exact with weight 1 (fundamental-domain inversion).  For
    n >= 3, a marked primitive vector v is proposed from N(0, sigma^2 I)
    with sigma = 1.5, the complement carries a recursive exact sample and
    uniform torus phases, and the weight is the reciprocal Gaussian mass on
    the resulting lattice's primitive vectors (times any weight from the
    recursive sample).  Weighted averages with these weights are unbiased
    for invariant-law expectations; use self-normalized estimators.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n == 2:
        return _plane_basis(rng), 1.0
    v = _SIGMA * rng.standard_normal(n)
    r = float(np.linalg.norm(v))
    scale = np.full(n, r ** (-1.0 / (n - 1)))
    scale[0] = r
    a_v = _rotation_to_first_axis(v) @ np.diag(scale)
    inner, inner_weight = sample_lattice_exact(n - 1, rng)
    phases = rng.uniform(0.0, 1.0, size=n - 1)
    g = np.zeros((n, n))
    g[0, 0] = 1.0
    g[0, 1:] = phases
    g[1:, 1:] = inner
    basis = lll_reduce(a_v @ g)
    if np.linalg.det(basis) < 0:
        basis[:, 0] = -basis[:, 0]  # same lattice, determinant back to +1
    weight = inner_weight / _primitive_gaussian_mass(basis, _SIGMA)
    return basis, weight


def sample_grid_exact(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, float]:
    """Weighted sample (column basis h, shift z, importance weight) of a
    random affine grid h Z^n + z under the invariant law: an exact lattice
    plus a uniform torus shift z = h theta."""
    basis, weight = sample_lattice_exact(n, rng)
    theta = rng.uniform(0.0, 1.0, size=n)
    return basis, basis @ theta, weight

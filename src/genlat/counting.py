"""Exact counting of integer points in bounded sublevel regions.

A count query asks for the number of integer vectors v of a point class
(all nonzero, primitive, or all) whose radius sits in a shell and whose
image w = h v + z lands in the tolerance region of a target form:

    T0 < nu(.) <= T   and   |f(w)| <= bound(nu(.)) componentwise,

where the radius argument "." is either v itself (shell_space "v", the
natural space for approximability statements) or w (shell_space "w", the
natural space for lattice-point counting against region volumes).

Strategy: enumerate integer prefixes (all coordinates except one solved
coordinate) over the shell's bounding box; for each prefix the image w is
affine in the solved coordinate t, so an over-approximate constraint
|f(w)| <= eps* cuts out a small union of t-intervals, where eps* bounds
the tolerance over every radius in the shell.
Every integer candidate in those intervals is then re-filtered against the
exact predicate.  Double precision plus the interval expansion margin is
the correctness contract; counts are exact wherever f values at integer
points are not within 1e-9 of the tolerance boundary.

Interval solving works on whole blocks of prefixes.  Degree-2 signed power
forms and linear band systems have closed-form solvers (these carry the
large-T experiments).  Coordinate products and integer-degree forms are
polynomials in t, piecewise for odd degrees; stacked companion matrices
give the roots of P -/+ eps* for every row at once, the cells between roots
whose midpoint passes become slots, and the nearest integer to every root
is proposed too.  Vector targets keep what lies in every part's slots.  A
non-integer degree scans the solved coordinate's window, flagged in the
result.  At a zero tolerance the closed-form solvers also propose the
nearest integer to the double root or to a zero-radius band's centre,
which rounding can otherwise leave outside an empty slot.

Prefixes come in centered order (small coordinates first), in blocks whose
row target doubles after every block up to 16384 rows.  An early-exit query
starts at 256 rows, so a witness near the origin costs one small block and
an empty search soon runs at full block size; an exhaustive query runs at
16384 rows throughout.  The first witness is the first hit in prefix order,
then t, for every engine and both modes, so it does not depend on where
block edges fall: an early-exit search returns the exhaustive run's first
witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .core import (
    ApproxFunction,
    Bound,
    CoordinateProduct,
    Norm,
    PointClass,
    SignedPowerForm,
    TargetFunction,
    VectorOf,
    band_system,
    bound_values,
)
from .haar import UnimodularMap, lll_reduce

__all__ = [
    "CountQuery",
    "CountResult",
    "count_solutions",
    "brute_force_count",
    "is_primitive",
    "NormBall",
    "IntegerBox",
    "lattice_points_in_region",
]

# endpoint expansion before integer rounding; exactness restored by refilter
_EXPAND = 1e-9


@dataclass(frozen=True)
class CountQuery:
    g: UnimodularMap
    f: TargetFunction
    bound: Bound
    norm: Norm
    point_class: PointClass
    t0: float
    t: float
    shell_space: str = "v"  # radius measured on v, or on w = g(v)
    stop_after_first: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.t0 < self.t:
            raise ValueError(f"need 0 <= T0 < T, got ({self.t0}, {self.t})")
        n = self.f.n
        if self.g.n != n or self.norm.dim != n:
            raise ValueError(
                f"dimension mismatch: f has n={n}, g has {self.g.n}, norm {self.norm.dim}"
            )
        if self.shell_space not in ("v", "w"):
            raise ValueError(f"shell_space must be 'v' or 'w', got {self.shell_space!r}")
        # validates the component count
        bound_values(self.bound, np.asarray([1.0]), self.f.component_count)


@dataclass(frozen=True)
class CountResult:
    count: int
    # first hit in prefix order, then t, for every engine and both modes
    first_witness: tuple[int, ...] | None
    visited: int  # prefixes examined plus integer candidates tested
    full_scan: bool = False  # true when every integer of each window was tested

    def __post_init__(self) -> None:
        if (self.count == 0) != (self.first_witness is None):
            raise ValueError("count = 0 iff there is no witness")


def is_primitive(v) -> bool:
    """gcd of all coordinates is 1; the zero vector is not primitive."""
    arr = np.abs(np.asarray(v, dtype=np.int64))
    return int(np.gcd.reduce(arr)) == 1


# --------------------------------------------------------------------------
# shared exact refilter


def _exact_mask(q: CountQuery, vs: np.ndarray) -> np.ndarray:
    """Boolean mask of rows of integer matrix ``vs`` satisfying the query."""
    if len(vs) == 0:
        return np.zeros(0, dtype=bool)
    ws = q.g.apply(vs.astype(float))
    radii = q.norm.eval_many(vs.astype(float) if q.shell_space == "v" else ws)
    mask = (radii > q.t0) & (radii <= q.t)
    if q.point_class is PointClass.ALL_NONZERO:
        mask &= (vs != 0).any(axis=1)
    elif q.point_class is PointClass.PRIMITIVE:
        mask &= np.gcd.reduce(np.abs(vs), axis=1) == 1
    if not mask.any():
        return mask
    idx = mask.nonzero()[0]
    tol = bound_values(q.bound, radii[idx], q.f.component_count)
    vals = np.abs(q.f.evaluate_many(ws[idx]))
    mask[idx] = np.all(vals <= tol, axis=1)
    return mask


def _coarse_tolerance(q: CountQuery) -> np.ndarray:
    """Componentwise upper bound of the tolerance over the whole shell.

    Power-log bounds are not pointwise monotone when the log exponent is
    positive, so each factor is maximized separately: the log factor at T,
    the power factor at max(T0, 1) (the plateau covers radii below 1).
    """
    if isinstance(q.bound, ApproxFunction):
        zlo = max(q.t0, 1.0)
        return np.asarray(
            [
                c * math.log(math.e + q.t) ** j * zlo ** (-s)
                for c, s, j in q.bound.components
            ]
        )
    return bound_values(q.bound, np.asarray([q.t0]), q.f.component_count)[0]


# --------------------------------------------------------------------------
# prefix geometry


def _centered(limit: int) -> np.ndarray:
    """0, 1, -1, 2, -2, ... up to |limit|; small vectors come first so
    early-exit witness searches terminate quickly."""
    out = np.empty(2 * limit + 1, dtype=np.int64)
    out[0] = 0
    k = np.arange(1, limit + 1)
    out[1::2] = k
    out[2::2] = -k
    return out


def _prefix_box(q: CountQuery) -> np.ndarray:
    """Per-coordinate integer bounds |v_i| <= b_i covering all solutions."""
    n = q.f.n
    if q.shell_space == "v":
        # block norms dominate the sup norm
        return np.full(n, math.floor(q.t), dtype=np.int64)
    hinv = q.g.inverse_h()
    reach = np.abs(hinv) @ (q.t + np.abs(q.g.z))
    return np.floor(reach + _EXPAND).astype(np.int64)


def _solved_index(h: np.ndarray) -> int:
    """Index of the coordinate solved in closed form: the column of h with
    the largest Euclidean norm, keeping the affine coefficient away from 0."""
    return int(np.argmax((h * h).sum(axis=0)))


# --------------------------------------------------------------------------
# interval machinery (vectorized slots)

# A slot pair (lo, hi) with lo > hi denotes the empty interval.


def _quadratic_slots(
    a: float, b: np.ndarray, c: np.ndarray, eps: float
) -> tuple[np.ndarray, ...]:
    """Solution of |a t^2 + b t + c| <= eps as up to two interval slots.

    a is a per-query scalar (the prefix only shifts the linear/constant
    coefficients); b, c are per-prefix arrays.
    """
    m = len(b)
    inf = np.inf
    if abs(a) < 1e-12:
        # linear per prefix
        lo1 = np.full(m, inf)
        hi1 = np.full(m, -inf)
        nz = np.abs(b) > 1e-12
        lo1[nz] = (-eps - c[nz]) / b[nz]
        hi1[nz] = (eps - c[nz]) / b[nz]
        flip = nz & (lo1 > hi1)
        lo1[flip], hi1[flip] = hi1[flip].copy(), lo1[flip].copy()
        const_ok = ~nz & (np.abs(c) <= eps)
        lo1[const_ok], hi1[const_ok] = -inf, inf
        lo2 = np.full(m, inf)
        hi2 = np.full(m, -inf)
        return lo1, hi1, lo2, hi2
    if a < 0:
        a, b, c = -a, -b, -c
    # outer set {quad <= eps}: between the roots; the closed comparison keeps
    # tangency points so eps = 0 solution sets survive
    disc_out = b * b - 4.0 * a * (c - eps)
    has_out = disc_out >= 0.0
    root = np.sqrt(np.maximum(disc_out, 0.0))
    out_lo = np.where(has_out, (-b - root) / (2.0 * a), np.inf)
    out_hi = np.where(has_out, (-b + root) / (2.0 * a), -np.inf)
    # inner hole {quad < -eps}: strictly between its roots
    disc_in = b * b - 4.0 * a * (c + eps)
    has_in = disc_in > 0.0
    root_in = np.sqrt(np.maximum(disc_in, 0.0))
    in_lo = np.where(has_in, (-b - root_in) / (2.0 * a), np.inf)
    in_hi = np.where(has_in, (-b + root_in) / (2.0 * a), -np.inf)
    # [out_lo, out_hi] minus (in_lo, in_hi)
    lo1 = out_lo
    hi1 = np.where(has_in, np.minimum(out_hi, in_lo), out_hi)
    lo2 = np.where(has_in, np.maximum(out_lo, in_hi), np.inf)
    hi2 = np.where(has_in, out_hi, -np.inf)
    return lo1, hi1, lo2, hi2


def _band_slots(
    alphas: np.ndarray, betas: np.ndarray, radii: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Intersection over bands |alpha_i + beta_i t| <= r_i, as one slot.

    alphas: (m, k) per-prefix affine constants; betas: (k,); radii: (k,).
    """
    m = alphas.shape[0]
    lo = np.full(m, -np.inf)
    hi = np.full(m, np.inf)
    for i in range(alphas.shape[1]):
        a_col = alphas[:, i]
        b_i = betas[i]
        r_i = radii[i]
        if abs(b_i) > 1e-12:
            x = (-r_i - a_col) / b_i
            y = (r_i - a_col) / b_i
            np.maximum(lo, np.minimum(x, y), out=lo)
            np.minimum(hi, np.maximum(x, y), out=hi)
        else:
            dead = np.abs(a_col) > r_i
            lo[dead] = np.inf
            hi[dead] = -np.inf
    pinned = (radii == 0.0) & (np.abs(betas) > 1e-12)
    if pinned.any():
        # a zero radius pins t to the band's centre, and rounding can leave
        # two such centres apart; any integer solution is the nearest integer
        # to the steepest pinned band's centre, and the exact refilter decides
        steep = int(np.argmax(np.where(pinned, np.abs(betas), 0.0)))
        centre = np.rint(-alphas[:, steep] / betas[steep])
        live = lo < np.inf  # lo is +inf only where a flat band ruled the row out
        lo = np.where(live, centre, np.inf)
        hi = np.where(live, centre, -np.inf)
    return lo, hi


# --------------------------------------------------------------------------
# batched polynomial slots (coordinate products, integer-degree forms)

# prefix rows solved together inside one block; bounds the root-isolation arrays
_ROW_CHUNK = 4096


def _batched_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of each row polynomial (highest power first), padded with nan.

    Row by row this is ``np.roots``: leading and trailing zeros are stripped
    (trailing ones are roots at 0), and rows of equal remaining degree stack
    the same companion matrices into one ``np.linalg.eigvals`` call.
    """
    p, width = coeffs.shape
    out = np.full((p, width - 1), np.nan, dtype=complex)
    nz = coeffs != 0.0
    live = nz.any(axis=1)
    first = np.argmax(nz, axis=1)
    core = np.where(live, width - 1 - np.argmax(nz[:, ::-1], axis=1) - first, 0)
    pos = np.arange(width - 1)
    out[live[:, None] & (pos >= core[:, None]) & (pos < width - 1 - first[:, None])] = 0.0
    for k in np.unique(core[core > 0]):
        rows = np.nonzero(core == k)[0]
        c = coeffs[rows[:, None], first[rows, None] + np.arange(k + 1)]
        comp = np.zeros((len(rows), k, k))
        comp[:, np.arange(1, k), np.arange(k - 1)] = 1.0
        comp[:, 0, :] = -c[:, 1:] / c[:, :1]
        out[rows, :k] = np.linalg.eigvals(comp)
    return out


def _poly_pieces(part, alphas, beta, wlo, whi) -> tuple[np.ndarray, ...]:
    """Pieces (rows, coefficients, lo, hi) of the windows on which
    part(alpha + beta t) is one polynomial in t, highest power first."""
    m, n = alphas.shape
    if isinstance(part, CoordinateProduct):
        coeffs = np.ones((m, 1))
        for j in range(n):
            nxt = np.zeros((m, j + 2))
            nxt[:, :-1] = coeffs * beta[j]
            nxt[:, 1:] += coeffs * alphas[:, j, None]
            coeffs = nxt
        return np.arange(m), coeffs, wlo, whi
    d = int(part.d)
    k = np.arange(d + 1)
    binom = np.asarray([math.comb(d, i) for i in k], dtype=float)
    # (alpha_j + beta_j t)^d has t^(d-i) coefficient C(d, i) beta_j^(d-i) alpha_j^i
    powers = binom * beta[None, :, None] ** (d - k) * alphas[:, :, None] ** k
    signs = np.concatenate([np.ones(part.p), -np.ones(part.q)])
    if d % 2 == 0:
        return np.arange(m), np.einsum("j,mjk->mk", signs, powers), wlo, whi
    # odd degree: |u|^d = sign(u) u^d, so the polynomial changes only where
    # some u_j = alpha_j + beta_j t changes sign; split the window there
    moving = np.abs(beta) > 1e-12
    breaks = np.where(moving, -alphas / np.where(moving, beta, 1.0), np.inf)
    inside = (breaks > wlo[:, None]) & (breaks < whi[:, None])
    cuts = np.concatenate([wlo[:, None], whi[:, None], np.where(inside, breaks, np.inf)], axis=1)
    cuts.sort(axis=1)
    rows, piece = np.nonzero(np.isfinite(cuts[:, 1:]))
    lo, hi = cuts[rows, piece], cuts[rows, piece + 1]
    u_sign = np.where(alphas[rows] + beta * (0.5 * (lo + hi))[:, None] >= 0, 1.0, -1.0)
    return rows, np.einsum("pj,pjk->pk", signs * u_sign, powers[rows]), lo, hi


def _poly_slots(rows, coeffs, lo, hi, eps: float) -> tuple[np.ndarray, ...]:
    """Slots (rows, lo, hi) of |P(t)| <= eps for row polynomials P on [lo, hi].

    The roots of P - eps and P + eps cut each piece into cells; a cell is
    kept when its midpoint passes.  The nearest integer to the real part of
    every root is a point slot too: a multiple root at an integer scatters
    off the real axis, and the exact refilter decides.
    """
    p = len(coeffs)
    shifted = np.concatenate([coeffs, coeffs])
    shifted[:p, -1] -= eps
    shifted[p:, -1] += eps
    roots = _batched_roots(shifted)
    roots = np.concatenate([roots[:p], roots[p:]], axis=1)
    re = roots.real
    real = (np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(re))) & (re > lo[:, None]) & (re < hi[:, None])
    cuts = np.concatenate([lo[:, None], hi[:, None], np.where(real, re, np.inf)], axis=1)
    cuts.sort(axis=1)
    left, right = cuts[:, :-1], cuts[:, 1:]
    cell = np.isfinite(right)
    mid = np.where(cell, 0.5 * (left + right), 0.0)
    val = np.zeros_like(mid)
    for c in coeffs.T:
        val = val * mid + c[:, None]
    cp, ci = np.nonzero(cell & (np.abs(val) <= eps))
    rp, ri = np.nonzero((re > lo[:, None] - 1.0) & (re < hi[:, None] + 1.0))
    pts = np.clip(np.rint(re[rp, ri]), lo[rp], hi[rp])
    return (
        np.concatenate([rows[cp], rows[rp]]),
        np.concatenate([left[cp, ci], pts]),
        np.concatenate([right[cp, ci], pts]),
    )


def _part_slots(part, alphas, beta, eps: float, wlo, whi) -> tuple[np.ndarray, ...]:
    """Slots (rows, lo, hi) of |part(alpha + beta t)| <= eps in the windows."""
    bands = band_system(part)
    if bands is None:
        return _poly_slots(*_poly_pieces(part, alphas, beta, wlo, whi), eps)
    lo, hi = _system_slot(bands, alphas, beta, [eps])
    return np.arange(len(alphas)), np.maximum(lo, wlo), np.minimum(hi, whi)


def _system_slot(bands, alphas, beta, eps_vec) -> tuple[np.ndarray, np.ndarray]:
    """One slot per row for the bands |alpha_c + beta_c t|^a <= eps_k of a
    band system's (c, a, k) triples."""
    coords = [c for c, _, _ in bands]
    radii = np.asarray([float(eps_vec[k]) ** (1.0 / a) for _, a, k in bands])
    return _band_slots(alphas[:, coords], beta[coords], radii)


def _slot_candidates(parts, alphas, beta, eps_vec, wlo, whi) -> tuple[np.ndarray, np.ndarray]:
    """Distinct candidates (rows, ts) of one prefix block, sorted by row,
    then t, for targets whose parts are solved slot by slot.

    The part with the fewest integers in its slots is expanded; a candidate
    stays when it lies in an expanded slot of every other part.
    """
    live = np.nonzero(wlo <= whi)[0]
    if len(live) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    # one integer key per (row, t), increasing in row, then t
    tmin = math.floor(wlo[live].min()) - 1
    span = math.ceil(whi[live].max()) + 2 - tmin
    rows_out, ts_out = [], []
    for s in range(0, len(live), _ROW_CHUNK):
        sub = live[s : s + _ROW_CHUNK]
        ranges = []
        for part, eps in zip(parts, eps_vec):
            rows, lo, hi = _part_slots(part, alphas[sub], beta, float(eps), wlo[sub], whi[sub])
            start, stop = _integer_range(lo, hi)
            ok = start <= stop
            base = rows[ok] * span - tmin
            ranges.append((base + start[ok].astype(np.int64), base + stop[ok].astype(np.int64)))
        ranges.sort(key=lambda r: int((r[1] - r[0] + 1).sum()))
        key_lo, key_hi = ranges[0]
        counts = key_hi - key_lo + 1
        keys = np.repeat(key_lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        for key_lo, key_hi in ranges[1:]:
            order = np.argsort(key_lo)
            # slots never reach into the next row's keys, so the running
            # maximum of the slot ends only covers keys of the slot's own row
            ends = np.maximum.accumulate(key_hi[order])
            at = np.searchsorted(key_lo[order], keys, side="right") - 1
            keys = keys[(at >= 0) & (keys <= ends[np.maximum(at, 0)])]
        keys = np.unique(keys)
        rows_out.append(sub[keys // span])
        ts_out.append(keys % span + tmin)
    return np.concatenate(rows_out), np.concatenate(ts_out)


# --------------------------------------------------------------------------
# candidate expansion and the main loop


def _integer_range(los: np.ndarray, his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last integer of per-row intervals, as floats; stop < start
    when an interval holds none.

    Endpoints are expanded by 1e-9 * (1 + |endpoint|) before rounding so
    root-finding error cannot drop a boundary candidate; the exact refilter
    discards any extras.
    """
    empty = ~(los <= his)  # also catches the (+inf, -inf) empty sentinel
    los = np.where(empty, 1.0, los)
    his = np.where(empty, 0.0, his)
    start = np.ceil(los - _EXPAND * (1.0 + np.abs(los)))
    stop = np.floor(his + _EXPAND * (1.0 + np.abs(his)))
    return start, stop


def _expand_candidates(los: np.ndarray, his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer points of per-row intervals, as (row_index, t) flat arrays."""
    start, stop = _integer_range(los, his)
    counts = np.maximum(stop - start + 1.0, 0.0)
    ok = counts > 0
    counts = counts[ok].astype(np.int64)
    if len(counts) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    rows = np.repeat(np.nonzero(ok)[0], counts)
    offsets = np.arange(counts.sum()) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    ts = np.repeat(start[ok].astype(np.int64), counts) + offsets
    return rows, ts


def _assemble(
    prefix_rows: np.ndarray, ts: np.ndarray, prefix_cols: list[int], sol: int, n: int
) -> np.ndarray:
    vs = np.empty((len(ts), n), dtype=np.int64)
    vs[:, prefix_cols] = prefix_rows
    vs[:, sol] = ts
    return vs


def _window_arrays(
    q: CountQuery, alphas: np.ndarray, beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-prefix bounds on the solved coordinate from the shell's box."""
    m = alphas.shape[0]
    if q.shell_space == "v":
        lim = math.floor(q.t)
        return np.full(m, -lim, dtype=float), np.full(m, lim, dtype=float)
    # w-cube: every |alpha_j + beta_j t| <= T
    return _band_slots(alphas, beta, np.full(q.f.n, q.t))


def _reduce_for_w(q: CountQuery) -> tuple[CountQuery, np.ndarray | None]:
    """Rewrite a w-space query in a reduced basis of the same w-lattice.

    v-space radii depend on the integer coordinates themselves, but a
    w-space query only sees the image points, so v = change @ v' turns the
    query into one over a shorter basis with a far smaller scan box (the
    point classes are preserved by the unimodular change).  Returns the
    rewritten query and the change matrix, or (q, None) when reduction
    does not certify or does not help.
    """
    reduced = _certified_reduction(q.g.h)
    if reduced is None or np.allclose(reduced[0], q.g.h):
        return q, None
    basis, change = reduced
    if np.linalg.det(basis) < 0:
        basis = basis.copy()
        basis[:, 0] = -basis[:, 0]
        change = change.copy()
        change[:, 0] = -change[:, 0]
    return replace(q, g=UnimodularMap(basis, q.g.z)), change


def _certified_reduction(h: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """LLL-reduced basis of the columns of h with its integer change of basis
    (h @ change = basis), or None when the change does not round to an
    integer matrix of determinant +-1."""
    basis = lll_reduce(h)
    u = np.linalg.inv(h) @ basis
    change = np.round(u).astype(np.int64)
    if np.max(np.abs(u - change)) > 1e-6 or abs(abs(np.linalg.det(u)) - 1.0) > 1e-6:
        return None
    return basis, change


def _in_reduced_basis(q: CountQuery, core) -> CountResult:
    """``core(q)``, run on a w-space query in its reduced basis, with the
    witness mapped back to the original integer coordinates."""
    if q.shell_space == "w":
        q2, change = _reduce_for_w(q)
        if change is not None:
            res = core(q2)
            if res.first_witness is None:
                return res
            mapped = tuple(int(x) for x in change @ np.asarray(res.first_witness))
            return CountResult(res.count, mapped, res.visited, res.full_scan)
    return core(q)


def count_solutions(q: CountQuery) -> CountResult:
    """Exact shell count; see the module docstring for the contract."""
    return _in_reduced_basis(q, _count_core)


def _count_core(q: CountQuery) -> CountResult:
    n = q.f.n
    h = q.g.h
    sol = _solved_index(h)
    prefix_cols = [i for i in range(n) if i != sol]
    box = _prefix_box(q)
    eps_vec = _coarse_tolerance(q)
    beta = h[:, sol]

    parts = q.f.parts if isinstance(q.f, VectorOf) else (q.f,)
    bands = band_system(q.f)
    if isinstance(q.f, SignedPowerForm) and q.f.d == 2:
        engine = "quadratic"
    elif bands is not None:
        engine = "bands"
    elif any(isinstance(p, SignedPowerForm) and p.d != int(p.d) for p in parts):
        engine = "scan"
    else:
        engine = "slots"

    count = 0
    witness: tuple[int, ...] | None = None
    visited = 0
    full_scan = engine == "scan"

    first_block = 256 if q.stop_after_first else _MAX_BLOCK
    for prefix_block in _prefix_blocks(box, prefix_cols, first_block):
        visited += len(prefix_block)
        alphas = prefix_block.astype(float) @ h[:, prefix_cols].T + q.g.z
        wlo, whi = _window_arrays(q, alphas, beta)

        if engine == "quadratic":
            signs = np.concatenate([np.ones(q.f.p), -np.ones(q.f.q)])
            a_coef = float(signs @ (beta * beta))
            b_coef = 2.0 * (alphas * beta) @ signs
            c_coef = (alphas * alphas) @ signs
            eps = float(eps_vec[0])
            lo1, hi1, lo2, hi2 = _quadratic_slots(a_coef, b_coef, c_coef, eps)
            slot_rows, slot_ts = [], []
            for lo, hi in ((lo1, hi1), (lo2, hi2)):
                r, t = _expand_candidates(np.maximum(lo, wlo), np.minimum(hi, whi))
                slot_rows.append(r)
                slot_ts.append(t)
            double_root = eps == 0.0 and abs(a_coef) >= 1e-12
            if double_root:
                # rounding can push a double root's discriminant below 0, or
                # split the root off its integer: propose the nearest integer
                # to -b/2a too, and let the refilter decide
                slot_rows.append(np.arange(len(b_coef)))
                slot_ts.append(np.rint(-b_coef / (2.0 * a_coef)).astype(np.int64))
            rows = np.concatenate(slot_rows)
            ts = np.concatenate(slot_ts)
            if double_root:
                # the point may repeat a slot's integer
                pairs = np.unique(np.stack([rows, ts], axis=1), axis=0)
                rows, ts = pairs[:, 0], pairs[:, 1]
        elif engine == "bands":
            lo, hi = _system_slot(bands, alphas, beta, eps_vec)
            rows, ts = _expand_candidates(np.maximum(lo, wlo), np.minimum(hi, whi))
        elif engine == "scan":
            rows, ts = _expand_candidates(wlo, whi)
        else:
            rows, ts = _slot_candidates(parts, alphas, beta, eps_vec, wlo, whi)

        if len(ts) == 0:
            continue
        visited += len(ts)
        vs = _assemble(prefix_block[rows], ts, prefix_cols, sol, n)
        mask = _exact_mask(q, vs)
        hits = int(mask.sum())
        if hits and witness is None:
            # first hit in prefix order, then t, whatever order the engine
            # emitted its candidates in
            idx = mask.nonzero()[0]
            first = idx[np.lexsort((ts[idx], rows[idx]))[0]]
            witness = tuple(int(x) for x in vs[first])
        count += hits
        if q.stop_after_first and count > 0:
            # truncated search: the count reports the witness, not the total
            return CountResult(1, witness, visited, full_scan)
    return CountResult(count, witness, visited, full_scan)


# prefix rows per block once the block schedule has grown
_MAX_BLOCK = 1 << 14


def _prefix_blocks(
    box: np.ndarray, prefix_cols: list[int], first_block: int
) -> Iterator[np.ndarray]:
    """Integer prefix assignments in centered order, in contiguous blocks.

    The first prefix coordinate advances slowest (centered 0, 1, -1, ...);
    the remaining coordinates are fully expanded per slab so blocks stay
    vectorizable.  A block closes once it holds ``first_block`` rows; the
    target doubles after every block, up to ``_MAX_BLOCK``.
    """
    if not prefix_cols:
        yield np.zeros((1, 0), dtype=np.int64)
        return
    lead = _centered(int(box[prefix_cols[0]]))
    rest = [_centered(int(box[c])) for c in prefix_cols[1:]]
    slab: list[np.ndarray] = []
    slab_rows = 0
    if rest:
        grids = np.meshgrid(*rest, indexing="ij")
        tail = np.stack([g.ravel() for g in grids], axis=1)
    else:
        tail = np.zeros((1, 0), dtype=np.int64)
    target = first_block
    for v1 in lead:
        block = np.empty((len(tail), len(prefix_cols)), dtype=np.int64)
        block[:, 0] = v1
        block[:, 1:] = tail
        slab.append(block)
        slab_rows += len(block)
        if slab_rows >= target:
            yield np.concatenate(slab, axis=0)
            slab, slab_rows = [], 0
            target = min(2 * target, _MAX_BLOCK)
    if slab:
        yield np.concatenate(slab, axis=0)


# --------------------------------------------------------------------------
# brute-force oracle


def brute_force_count(q: CountQuery, box_cap: int = 10**9) -> CountResult:
    """Full integer-box scan with the exact predicate; ground truth."""
    return _in_reduced_basis(q, lambda q2: _brute_core(q2, box_cap))


def _brute_core(q: CountQuery, box_cap: int) -> CountResult:
    box = _prefix_box(q)
    cells = 1
    for b in box:
        cells *= 2 * int(b) + 1
        if cells > box_cap:
            raise ValueError(f"brute-force box exceeds {box_cap} points")
    n = q.f.n
    axes = [np.arange(-int(b), int(b) + 1, dtype=np.int64) for b in box]
    count = 0
    witness = None
    visited = 0
    # slab over the first coordinate to bound memory
    tail_grids = np.meshgrid(*axes[1:], indexing="ij") if n > 1 else []
    tail = (
        np.stack([g.ravel() for g in tail_grids], axis=1)
        if n > 1
        else np.zeros((1, 0), dtype=np.int64)
    )
    for v1 in axes[0]:
        vs = np.empty((len(tail), n), dtype=np.int64)
        vs[:, 0] = v1
        if n > 1:
            vs[:, 1:] = tail
        visited += len(vs)
        mask = _exact_mask(q, vs)
        hits = int(mask.sum())
        if hits and witness is None:
            witness = tuple(int(x) for x in vs[mask.argmax()])
        count += hits
    return CountResult(count, witness, visited)


# --------------------------------------------------------------------------
# region streaming (w-space), for mean/variance experiments


@dataclass(frozen=True)
class NormBall:
    norm: Norm
    radius: float

    def __post_init__(self) -> None:
        if not self.radius >= 0.0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")

    def cube_halfwidth(self) -> float:
        return self.radius

    def contains(self, ws: np.ndarray) -> np.ndarray:
        return self.norm.eval_many(ws) <= self.radius


@dataclass(frozen=True)
class IntegerBox:
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi) or any(
            a > b for a, b in zip(self.lo, self.hi)
        ):
            raise ValueError("box corners out of order")

    def cube_halfwidth(self) -> float:
        return max(max(abs(a), abs(b)) for a, b in zip(self.lo, self.hi))

    def contains(self, ws: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((ws >= lo) & (ws <= hi), axis=1)


def lattice_points_in_region(
    g: UnimodularMap, region: NormBall | IntegerBox, reduce_basis: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """All integer v with w = g(v) in the region, as arrays (V, W).

    Enumeration runs in a reduced basis to keep the scan box small for
    skewed maps; the returned v are in the original integer coordinates
    (the reduction is inverted through its unimodular change of basis).
    Includes v = 0 when its image lies in the region; callers filter
    point classes.
    """
    reduced = _certified_reduction(g.h) if reduce_basis else None
    if reduced is None:
        # no reduction asked for, or it failed to certify: the raw basis
        reduced = g.h, np.eye(g.n, dtype=np.int64)
    basis, change = reduced
    half = region.cube_halfwidth()
    hinv = np.linalg.inv(basis)
    reach = np.abs(hinv) @ (half + np.abs(g.z))
    box = np.floor(reach + _EXPAND).astype(np.int64)
    total = 1
    for b in box:
        total *= 2 * int(b) + 1
        if total > 10**8:
            raise ValueError("region enumeration box too large")
    axes = [np.arange(-int(b), int(b) + 1, dtype=np.int64) for b in box]
    grids = np.meshgrid(*axes, indexing="ij")
    coeffs = np.stack([gx.ravel() for gx in grids], axis=1)
    ws = coeffs.astype(float) @ basis.T + g.z
    keep = region.contains(ws)
    vs = coeffs[keep] @ change.T
    return vs, ws[keep]

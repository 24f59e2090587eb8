"""Exact counting of integer points in bounded sublevel regions.

A count query asks for the number of integer vectors v of a point class
(all nonzero, primitive, or all) whose radius sits in a shell and whose
image w = h v + z lands in the tolerance region of a target form:

    T0 < nu(.) <= T   and   |f(w)| <= bound(nu(.)) componentwise,

where the radius argument "." is either v itself (shell_space "v", the
natural space for approximability statements) or w (shell_space "w", the
natural space for lattice-point counting against region volumes).

Strategy: enumerate integer prefixes (every coordinate but one solved
coordinate t) over the shell's bounding box.  For each prefix w is affine in
t, so |f(w)| <= eps*, with eps* the tolerance's maximum over the shell, cuts
out a few t-intervals (slots), clipped to the prefix's window of t in the
shell's box.  A solver returns only the slots that can hold an integer, and
every integer in them is re-filtered against the exact predicate.  Double
precision plus the interval expansion margin is the correctness contract;
counts are exact wherever f values at integer points are not within 1e-9 of
the tolerance boundary.

Slots come from one solver per part of the target, picked once per query
and run on whole blocks of prefixes; a solver asks for the windows only at
the rows it has not ruled out:

- a band system (a max power, or a vector of single bands) is one solver
  that intersects all its bands into one slot per prefix, at the prefixes
  where they meet;
- a degree-2 signed power form has two closed-form slots per prefix, each
  ending at an outer root x of Q = +eps* and at most 2e/s wide (s the
  outer roots' half distance, e = eps*/a), so only the rows with
  dist(x, Z) s <= 4e at one of the two outer roots, plus a rounding margin,
  are solved: most rows hold no integer and fail this one test.  Its
  half-coefficient B and discriminant D are affine and quadratic in the
  lead value, so they come from per-tail tables and no alpha is built;
- every other part (a coordinate product, a signed power form of another
  degree, or a degree-2 form that is linear in t along the solved column)
  is solved by bisecting certified integer cells: on a cell [s, e] each
  affine coordinate u = alpha_j + beta_j t runs between its end values.
  So a power form's term |u|^d lies between its smaller and larger end
  value (0 and the larger where u changes sign inside), and the signed sum
  encloses f; a product is enclosed by the interval product of its
  factors' [min, max].  A cell whose enclosure misses [-eps*, eps*] by
  more than a slack, 1e-9 (1 + the sum of the terms' larger ends) for a
  power form and 1e-9 prod_j (1 + the larger |u_j| end) for a product,
  holds no solution: the end values and the exact refilter's f(w) build w
  by different roundings, which move each u by about delta = 1e-16 |h| |v|
  and f by at most about d delta (n delta for a product) times the slack's
  sum (product), far below the slack in any box counted.  Other cells split
  at the floor of their midpoint, and the one-integer cells that pass,
  where the enclosure is the point's own float value, are point slots.

The candidates are the integers in a slot of every solver; empty slots are
dropped before their integer ranges are taken.  At a zero tolerance the
closed-form solvers add a point slot at the nearest integer to a double
root or to a zero-radius band's centre, and the quadratic solver keeps
every row.

Prefixes come in centered order (small coordinates first), in blocks whose
row target doubles after every block up to 16384 rows.  An early-exit query
starts at 256 rows, so a witness near the origin costs one small block and
an empty search soon runs at full block size; an exhaustive query runs at
16384 rows throughout.  The first witness is the first hit in prefix order,
then t, for every target and both modes, so it does not depend on where
block edges fall: an early-exit search returns the exhaustive run's first
witness.

A block is never written out as prefix rows.  It is one pair (leads, tail):
a run of lead values (the first prefix coordinate) times the R tail rows
(the other prefix coordinates, in centered order), so its row r is the
prefix (leads[r // R], tail[r % R]).  A lead's slab of tail rows larger
than a block (n >= 4) is cut into contiguous tail slices, one per block.
The tail's share of the affine part, h[:, tail] @ tail + z, is an (n, R)
table built once per query (once per block for a slice), and the affine
part of row (lead, j) is alpha = h p + z = lead * h[:, lead] + table[:, j].
The solvers see a block as one ``_Block``, which builds alpha only when
asked and only at the rows asked for: the band and cell solvers take the
whole block, the column-major (n, m) array of one broadcast add whose rows
they read contiguously; the w-space window takes the rows it is
asked at; the quadratic solver takes none.  It reads B = w_b . alpha and
D = B^2 - w_c . alpha^2 off the (R,) tables b0, d1 and d0 of the tail, as
lead b1 + b0 and (lead d2 + d1) lead + d0, a few broadcasts over
(leads x R); the tables are built once per tail, as the tail's table is.

A map without a shift (z = 0) sends -v to -w, and every target has
|f(-w)| = |f(w)| and every norm is even, so its solution set is symmetric
under v -> -v.  Such a query enumerates one prefix of each pair {p, -p}:
the zero prefix, with its whole t range, and the prefixes whose first
nonzero coordinate is positive; the half slab of lead 0 is the first
block, on its own.  A hit off the zero prefix counts twice; floating point
is mirror-exact here (the affine coefficients, the quadratic tables' B and
D, the closed-form slots and their integer ranges all negate or stay
exactly; the cell solver's splits do not, but its slots hold every integer
the refilter accepts), so the two halves would have made the same
exact-refilter decisions.  In centered order a prefix of the half comes
before its mirror, so the first witness is the full order's, and an early
exit stops at the same point.  A shifted query enumerates every prefix.

A result keeps the radius of every hit it counts (``CountResult.radii``),
sorted, with the bits the exact refilter compared against T0 and T: one
radius per unit of the count, so a hit off the zero prefix of an unshifted
query, which stands for its mirror too, has its radius twice (the mirror's
radius is the same, as every norm is even and -w is exact).  An early exit
holds the one radius of its witness.  The refilter decides each v from its
own radius alone, and the coarse tolerance and the box only grow with T, so
the hits of (T0, t] for any t < T are the hits of (T0, T] of radius <= t:
one exhaustive count gives the count of every nested shell of the same
bound and T0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Iterator, NamedTuple

import numpy as np

from .core import (
    ApproxFunction,
    Bound,
    CoordinateProduct,
    Norm,
    PointClass,
    TargetFunction,
    VectorOf,
    _checked_tolerance,
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
    # a fixed tolerance as its validated (l,) row; None for a bound function
    fixed_eps: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.t0 < self.t < math.inf:
            raise ValueError(f"need 0 <= T0 < T < inf, got ({self.t0}, {self.t})")
        n = self.f.n
        if self.g.n != n or self.norm.dim != n:
            raise ValueError(
                f"dimension mismatch: f has n={n}, g has {self.g.n}, norm {self.norm.dim}"
            )
        if self.shell_space not in ("v", "w"):
            raise ValueError(f"shell_space must be 'v' or 'w', got {self.shell_space!r}")
        object.__setattr__(self, "fixed_eps", _checked_tolerance(self.bound, self.f.component_count))


@dataclass(frozen=True)
class CountResult:
    count: int
    # first hit in prefix order, then t, for every target and both modes
    first_witness: tuple[int, ...] | None
    visited: int  # prefixes enumerated (one of each +-p pair without a shift) plus candidates tested
    # always False, since every part has slots of its own and no window is
    # scanned whole; the count command's fullScan key and the benchmark's
    # full_scan_frac still read it
    full_scan: bool = False
    # the radius of every hit counted, sorted: one per count (a mirrored hit
    # twice), so an early exit holds its witness's radius
    radii: np.ndarray = field(default_factory=lambda: np.zeros(0), repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.count == 0) != (self.first_witness is None):
            raise ValueError("count = 0 iff there is no witness")
        if len(self.radii) != self.count:
            raise ValueError(f"{len(self.radii)} hit radii for a count of {self.count}")


def is_primitive(v) -> bool:
    """gcd of all coordinates is 1; the zero vector is not primitive."""
    return bool(PointClass.PRIMITIVE.contains(np.asarray(v, dtype=np.int64)[None])[0])


# --------------------------------------------------------------------------
# shared exact refilter


def _exact_mask(q: CountQuery, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Boolean mask of rows of integer matrix ``vs`` satisfying the query,
    and the rows' radii.  Each row is decided from its own radius alone."""
    if len(vs) == 0:
        return np.zeros(0, dtype=bool), np.zeros(0)
    xs = vs.astype(float)
    ws = q.g.apply(xs)
    radii = q.norm.eval_many(xs if q.shell_space == "v" else ws)
    mask = (radii > q.t0) & (radii <= q.t) & q.point_class.contains(vs)
    if not mask.any():
        return mask, radii
    idx = mask.nonzero()[0]
    tol = q.fixed_eps
    if tol is None:
        tol = bound_values(q.bound, radii[idx], q.f.component_count)
    vals = np.abs(q.f.evaluate_many(ws[idx]))
    mask[idx] = np.all(vals <= tol, axis=1)
    return mask, radii


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
    return q.fixed_eps


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
    """Per-coordinate integer bounds |v_i| <= b_i covering all solutions,
    as floats, so a box too large for an int is still measured."""
    n = q.f.n
    if q.shell_space == "v":
        # block norms dominate the sup norm
        return np.full(n, np.floor(q.t))
    hinv = q.g.inverse_h()
    reach = np.abs(hinv) @ (q.t + np.abs(q.g.z))
    return np.floor(reach + _EXPAND)


def _solved_index(h: np.ndarray) -> int:
    """Index of the coordinate solved in closed form: the column of h with
    the largest Euclidean norm, keeping the affine coefficient away from 0."""
    return int(np.argmax((h * h).sum(axis=0)))


def _lead_column(h: np.ndarray, sol: int) -> np.ndarray:
    """The column of h of the lead, the first prefix coordinate (the first
    one but the solved one); zeros at n = 1, which has no prefix."""
    return h[:, 1 if sol == 0 else 0] if len(h) > 1 else np.zeros(1)


# --------------------------------------------------------------------------
# slot solvers


def _buffer(work: dict, key: str, *shape: int, dtype=float) -> np.ndarray:
    """A view of the array ``key`` in a per-query workspace, grown as needed.

    A 16384-row float64 array is 128 KiB.  When a block frees several of
    them at once, the C allocator returns the top of the heap to the system
    and the next block faults it back in page by page, so the per-block
    arrays live in the workspace and are filled with ``out=`` ufuncs.
    """
    size = math.prod(shape)
    arr = work.get(key)
    if arr is None or len(arr) < size:
        arr = work[key] = np.empty(size, dtype)
    return arr[:size].reshape(shape)


def _slot_solvers(q: CountQuery, eps_vec: np.ndarray, sol: int) -> list:
    """The target's slot solvers along the solved coordinate ``sol``.  The
    only place that tells target families apart: a band system is one
    solver over all its bands; every other target has one solver per part,
    and every part has slots of its own, so no window is scanned whole.
    There are three kinds: a band part takes the band solver, a degree-2
    signed power form the closed-form quadratic solver, and every other
    part (a coordinate product, any other degree, or a degree-2 form that
    is linear in t along this column) the cell solver.

    A solver ``solve(block, window)`` maps a prefix block (a ``_Block``) to
    slots (rows, lo, hi): intervals of t, each tied to a row of the block and
    clipped to that row's window, whose integers hold every solution of its
    part.  The block's affine parts are built only when a solver asks for
    them (``block.alphas(rows)``); the quadratic solver never does, as it
    reads per-tail tables instead.  ``window(rows)`` gives the solved
    coordinate's bounds (wlo, whi) at the block rows ``rows`` (every row for
    None), so a solver that can rule rows out first asks only at the rest.
    A slot is empty unless lo <= hi, and a solver may leave out rows whose
    slots hold no integer.
    """
    bands = band_system(q.f)
    if bands is not None:
        return [partial(_band_solver, bands, eps_vec, {})]
    parts = q.f.parts if isinstance(q.f, VectorOf) else (q.f,)
    beta, lead_h = q.g.h[:, sol], _lead_column(q.g.h, sol)
    solvers = []
    for part, eps in zip(parts, eps_vec):
        if (bands := band_system(part)) is not None:
            solvers.append(partial(_band_solver, bands, [eps], {}))
        elif isinstance(part, CoordinateProduct):
            solvers.append(partial(_cell_solver, 1.0, _product_live, eps, {}))
        elif part.d == 2 and (form := _quadratic_form(part, beta, lead_h)) is not None:
            solvers.append(partial(_quadratic_solver, form, eps, {}))
        else:
            solvers.append(partial(_cell_solver, part.d, partial(_power_live, part.p), eps, {}))
    return solvers


def _cell_solver(d: float, live, eps: float, work, block, window) -> tuple[np.ndarray, ...]:
    """Point slots of |f(alpha + beta t)| <= eps for a part f that is not a
    band or a solvable degree-2 form, by bisecting certified integer cells
    (interval enclosures, Moore 1966).  The part gives two things: its
    degree d, so that a cell end's values are the signed terms
    sign(u) |u|^d at each u = alpha_j + beta_j t (a product takes d = 1,
    whose signed terms are the factors u themselves), and
    ``live(low, top, eps)``, its rule for the cells whose enclosure of f
    meets [-eps, eps] within a slack (``_power_live``, ``_product_live``).

    Each row's window, rounded as ``_integer_range`` rounds it, is one cell
    [s, e] of integers.  On a cell, |u| is convex in t, so |u|^d lies in
    [low, top]: min and max of its two end values, or 0 and the max where u
    changes sign inside.  A cell that is not live is dropped.  Any other
    cell of more than one integer is split at floor of its midpoint; its
    children keep its outer end values, so each split evaluates two new
    ends.  A cell of one integer is enclosed by its own float value, so the
    same test is its integer's prefilter, and the survivors are point
    slots.  Rows are bisected ``_ROW_CHUNK`` at a time.
    """
    alphas, beta = block.alphas(), block.beta

    def signed_terms(rows, ts):  # sign(u) |u|^d at u = alpha + beta t
        u = np.take(alphas, rows, axis=1) + beta[:, None] * ts
        return np.copysign(np.abs(u) ** d, u)

    wlo, whi = window()
    start, stop = _integer_range(wlo, whi, work)
    nonempty = np.nonzero(start <= stop)[0]
    kept = [(nonempty[:0], start[:0])]
    for c in range(0, len(nonempty), _ROW_CHUNK):
        rows = nonempty[c : c + _ROW_CHUNK]
        lo, hi = start[rows], stop[rows]
        at_lo, at_hi = signed_terms(rows, lo), signed_terms(rows, hi)
        while len(rows):
            ends = np.abs(at_lo), np.abs(at_hi)
            top = np.maximum(*ends)
            low = np.where(at_lo * at_hi < 0.0, 0.0, np.minimum(*ends))
            passed = live(low, top, eps)
            point = passed & (lo == hi)
            kept.append((rows[point], lo[point]))
            # children [lo, mid] and [mid + 1, hi] keep their parent's outer ends
            split = np.nonzero(passed & (lo < hi))[0]
            mid = np.floor(0.5 * (lo[split] + hi[split]))
            rows = np.concatenate((rows[split], rows[split]))
            inner = signed_terms(rows, np.concatenate((mid, mid + 1.0)))
            lo, hi = np.concatenate((lo[split], mid + 1.0)), np.concatenate((mid, hi[split]))
            at_lo = np.concatenate((np.take(at_lo, split, axis=1), inner[:, len(split):]), axis=1)
            at_hi = np.concatenate((inner[:, : len(split)], np.take(at_hi, split, axis=1)), axis=1)
    rows, ts = (np.concatenate(x) for x in zip(*kept))
    return rows, ts, ts


def _power_live(p: int, low, top, eps: float) -> np.ndarray:
    """The cells where a signed power form's enclosure, its signs' sum of the
    terms' [low, top], meets [-eps, eps] within 1e-9 (1 + sum of top).  The
    end values and the exact refilter's f(w) build u by different
    roundings, which move u by about delta = 1e-16 |h| |v|, and a term by
    about d |u|^(d-1) delta <= d delta (1 + |u|^d): far below the slack, as
    are the roundings of the powers and the sums, wherever d |h| |v| is far
    below 1e7, as in any box counted."""
    slack = 1e-9 * (1.0 + top.sum(axis=0))
    f_lo = low[:p].sum(axis=0) - top[p:].sum(axis=0)
    f_hi = top[:p].sum(axis=0) - low[p:].sum(axis=0)
    return (f_lo <= eps + slack) & (f_hi >= -(eps + slack))


def _product_live(low, top, eps: float) -> np.ndarray:
    """The cells where a coordinate product's enclosure, the interval product
    of its factors' [min, max] end values, meets [-eps, eps] within
    1e-9 prod (1 + top).  That interval holds 0 where a factor's does (low
    is 0 there), and is +-[prod low, prod top] elsewhere, so it meets the
    slackened interval exactly where prod low <= eps + slack.  The end
    values and the refilter's w round u differently, by about
    delta = 1e-16 |h| |v|, which moves the product by about
    sum_j delta prod_{k != j} top_k: each such product, and the n - 1
    roundings of the product itself, is below prod (1 + top), so the slack
    covers them wherever n |h| |v| is far below 1e7.  (1e-9 (1 + prod top)
    would not, where a factor near 0 meets large others.)"""
    return low.prod(axis=0) <= eps + 1e-9 * (1.0 + top).prod(axis=0)


def _band_solver(bands, eps_vec, work, block, window) -> tuple[np.ndarray, ...]:
    """One slot per row for the bands |alpha_c + beta_c t|^a <= eps_k of a
    band system's (c, a, k) triples, at the rows where they meet."""
    coords = [c for c, _, _ in bands]
    radii = np.asarray([float(eps_vec[k]) ** (1.0 / a) for _, a, k in bands])
    lo, hi = _band_slots(block.alphas(), block.beta, coords, radii, work)
    rows = np.nonzero(lo <= hi)[0]
    wlo, whi = window(rows)
    return rows, np.maximum(lo[rows], wlo), np.minimum(hi[rows], whi)


def _band_slots(alphas, beta, coords, radii, work: dict) -> tuple[np.ndarray, ...]:
    """Intersection over bands |alpha_c + beta_c t| <= r of the coordinates c
    in coords with radii r, as one slot per row in workspace arrays."""
    lo, hi, x, y = _buffer(work, "bands", 4, alphas.shape[1])
    lo.fill(-np.inf)
    hi.fill(np.inf)
    for c, r in zip(coords, radii):
        if abs(beta[c]) > 1e-12:
            np.divide(np.subtract(-r, alphas[c], out=x), beta[c], out=x)
            np.divide(np.subtract(r, alphas[c], out=y), beta[c], out=y)
            # x <= y exactly when beta_c > 0
            np.maximum(lo, x if beta[c] > 0 else y, out=lo)
            np.minimum(hi, y if beta[c] > 0 else x, out=hi)
        else:
            dead = np.abs(alphas[c]) > r
            lo[dead] = np.inf
            hi[dead] = -np.inf
    betas = beta[coords]
    pinned = (radii == 0.0) & (np.abs(betas) > 1e-12)
    if pinned.any():
        # a zero radius pins t to the band's centre, and rounding can leave
        # two such centres apart; any integer solution is the nearest integer
        # to the steepest pinned band's centre, and the exact refilter decides
        steep = int(np.argmax(np.where(pinned, np.abs(betas), 0.0)))
        centre = np.rint(-alphas[coords[steep]] / betas[steep])
        live = lo < np.inf  # lo is +inf only where a flat band ruled the row out
        lo = np.where(live, centre, np.inf)
        hi = np.where(live, centre, -np.inf)
    return lo, hi


class _QuadraticForm(NamedTuple):
    """A degree-2 form along the solved column beta: Q(t) / a =
    t^2 + 2 B t + C at alpha + beta t, with B = w_b . alpha and
    C = w_c . alpha^2; a > 0, as |Q| = |-Q|.  Its lead terms along the lead
    column l (see ``_quadratic_tables``) are b1 = w_b . l, r = b1 w_b - w_c l
    and d2 = r . l, kept as ``b1_d2`` = (b1, d2) shaped (2, 1, 1), as
    ``r2`` = 2 r, and as ``lead_top`` = (|b1|, max(d2, 0)) for ``_reach``."""

    a: float
    w_b: np.ndarray
    w_c: np.ndarray
    b1_d2: np.ndarray
    r2: np.ndarray
    lead_top: tuple[float, float]


def _quadratic_form(part, beta, lead_h) -> _QuadraticForm | None:
    """The degree-2 signed power form ``part`` along the solved column beta
    and the lead column ``lead_h``, made in one pass over the n
    coordinates; None when a is about 0: then Q is linear in t along this
    column, with no closed form to take."""
    signs = [1.0] * part.p + [-1.0] * part.q
    betas = beta.tolist()
    a = sum(s * b * b for s, b in zip(signs, betas))
    if abs(a) < 1e-12:
        return None
    if a < 0:
        a, signs = -a, [-s for s in signs]
    w_b = [s * b / a for s, b in zip(signs, betas)]
    w_c = [s / a for s in signs]
    lead = lead_h.tolist()
    b1 = sum(w * x for w, x in zip(w_b, lead))
    r = [b1 * u - w * x for u, w, x in zip(w_b, w_c, lead)]
    d2 = sum(u * x for u, x in zip(r, lead))
    return _QuadraticForm(a, np.array(w_b), np.array(w_c), np.array([[[b1]], [[d2]]]),
                          np.array([2.0 * u for u in r]), (abs(b1), max(d2, 0.0)))


def _quadratic_solver(form: _QuadraticForm, eps: float, work, block, window) -> tuple[np.ndarray, ...]:
    """Slots of |Q(t)| <= eps, Q(t) = a t^2 + b t + c the degree-2 form at
    alpha + beta t: two per row in closed form, [out_lo, out_hi] minus the
    hole (in_lo, in_hi).  At a zero tolerance rounding can push a double
    root's discriminant below 0, or split the root off its integer, so the
    nearest integer to -b/2a is a third, point slot, and the exact refilter
    decides.

    B = b/2a = w_b . alpha and C = c/a = w_c . alpha^2 take fixed weight
    vectors (``_QuadraticForm``), so on a block, where alpha is
    lead * lead_h + table, B is affine and the discriminant D = B^2 - C
    quadratic in the lead; both come from per-tail tables
    (``_quadratic_tables``) and no alpha is built.  Both root pairs are
    -B -/+ sqrt(D +/- e), e = eps/a.

    At eps > 0 only the rows that ``_near_integer_rows`` keeps are solved,
    and only they ask for their windows.  Each slot ends at an outer root
    x = -B -/+ s, s = sqrt(D + e), and is narrow: with a hole (D >= e) it
    runs from x inward by s - sqrt(D - e) = 2e / (s + sqrt(D - e)) <= 2e/s;
    without one it is the whole [-B - s, -B + s], whose integers lie within
    s of an end, and s^2 = D + e < 2e.  Either way an integer in a slot has
    dist(x, Z) s <= 2e for one of its ends, so a row with dist(x, Z) s > 4e,
    plus a margin, at both outer roots holds no integer.  A row with
    D + e < 0 has nan roots and no slots at all.
    """
    e = eps / form.a
    tables = _quadratic_tables(form, block, work)
    # B, D and the outer root half width s, one row each
    both = _buffer(work, "b_disc", 3, len(block.leads), len(tables.rows[0]))
    _half_b_disc(form, tables, block.leads, both[:2])
    both = both.reshape(3, -1)
    half_b, disc, outer = both
    with np.errstate(invalid="ignore"):  # nan roots where there are none
        np.sqrt(np.add(disc, e, out=outer), out=outer)
        if eps == 0.0:
            k, rows = 3, np.arange(len(half_b))
            wlo, whi = window()
        else:
            k, rows = 2, _near_integer_rows(half_b, outer, e, _reach(form, tables, block.leads, e), work)
            if len(rows) == 0:
                return rows, disc[:0], disc[:0]
            both = both[:, rows]
            wlo, whi = window(rows)
        neg_b, disc, _ = both
        np.negative(neg_b, out=neg_b)
        np.sqrt(np.add(disc, -e, out=disc), out=disc)  # both is now (-B, inner, s)
        # the slot ends, one row each: hi0, lo0, [the point slot,] lo1, hi1,
        # so lo = (lo0, [point,] lo1) is a slice and hi = (hi0, [point,] hi1)
        # a stride; -B -/+ (inner, s) give the first two and the last two
        ends = _buffer(work, "ends", k + 2, len(rows))
        np.subtract(neg_b, both[1:], out=ends[:2])
        np.add(neg_b, both[1:], out=ends[-2:])
    lo, hi = ends[1 : k + 1], ends[:: 3 if k == 2 else 2]
    # outer set {Q <= eps}: between its roots; the closed comparison keeps
    # tangency points so eps = 0 solution sets survive.  Inner hole
    # {Q < -eps}: strictly between its roots, which split the outer slot in
    # two; where there is no hole its nan roots leave slot 0 whole (fmin)
    # and slot 1 empty (maximum)
    np.maximum(lo[-1], lo[0], out=lo[-1])
    np.fmin(hi[0], hi[-1], out=hi[0])
    if k == 3:
        np.rint(neg_b, out=lo[1])
    np.maximum(lo, wlo, out=lo)
    np.minimum(hi, whi, out=hi)
    return np.concatenate((rows,) * k), lo.ravel(), hi.ravel()


class _QuadraticTables(NamedTuple):
    """A degree-2 form's B and D on the blocks of one tail: at the row
    (lead, j), B = lead b1 + b0[j] and D = (lead d2 + d1[j]) lead + d0[j],
    with ``rows`` the (3, R) array (b0, d1, d0) and ``top`` its rows'
    largest absolute values, for ``_reach``."""

    rows: np.ndarray
    top: list[float]


def _quadratic_tables(form: _QuadraticForm, block, work: dict) -> _QuadraticTables:
    """The tables of ``block``'s tail, kept for the tail they were built
    from, as ``_tail_table`` keeps its table.

    With alpha = lead l + t (l the lead column of h, t a table column),
    B = w_b . alpha = lead b1 + b0 with b1 = w_b . l and b0 = w_b . t, and
    C = w_c . alpha^2, so D = B^2 - C = lead^2 d2 + lead d1 + d0 with
    r = b1 w_b - w_c l, d2 = r . l, d1 = 2 r . t and d0 = b0^2 - w_c . t^2.
    b1, d2 and r depend only on l and come with the form
    (``_QuadraticForm``), along the block's own lead column.  At lead 0,
    B and D are b0 and d0, the direct products w_b . alpha and
    B^2 - w_c . alpha^2 at alpha = t.

    Rounding: every entry is a few products and sums of the terms of B and
    C, so the expanded D is off by O(u (B'^2 + C')), with B' and C' the sums
    of |w_b,c alpha_c| and of |w_c,c| alpha_c^2 over the coordinates c, each
    alpha_c = lead l_c + t_c split into |lead l_c| + |t_c|.  That is the
    order of the rounding of alpha = lead l + t itself and of B^2 - C taken
    from it, far below the 1e-9 pads (see ``_near_integer_rows``).  Without
    a shift a negated tail has a negated table, so b0 and d1 negate and d0
    stays, bit for bit: the mirror (-leads, -tail) of a block gets -B and
    the same D."""
    kept = work.get("tables")
    if kept is not None and kept[0] is block.tail:
        return kept[1]
    table = block.table
    rows = np.empty((3, table.shape[1]))
    b0, d1, d0 = rows
    np.matmul(form.w_b, table, out=b0)
    np.matmul(form.r2, table, out=d1)
    np.subtract(np.multiply(b0, b0, out=d0), np.matmul(form.w_c, table * table), out=d0)
    tables = _QuadraticTables(rows, np.abs(rows).max(axis=1).tolist())
    work["tables"] = (block.tail, tables)
    return tables


def _half_b_disc(form: _QuadraticForm, tables: _QuadraticTables, leads, out: np.ndarray) -> None:
    """B and D at the rows (lead, j) of a block of the tables' tail, into
    ``out`` (2, leads, R): one broadcast for both B and lead d2 + d1, then
    Horner's rule over the lead for D."""
    column = leads[:, None]
    np.add(np.multiply(form.b1_d2, column), tables.rows[:2, None, :], out=out)
    disc = out[1]
    np.multiply(disc, column, out=disc)
    np.add(disc, tables.rows[2], out=disc)


def _reach(form: _QuadraticForm, tables: _QuadraticTables, leads, e: float) -> float:
    """An upper bound of |B| + sqrt(D + e), hence of every outer root's
    |x|, over a block, from its tables and its largest |lead|, its last."""
    b1, d2 = form.lead_top
    b0, d1, d0 = tables.top
    lead = abs(float(leads[-1]))
    return b1 * lead + b0 + math.sqrt(max((d2 * lead + d1) * lead + d0 + e, 0.0))


def _near_integer_rows(half_b, outer, e: float, reach: float, work) -> np.ndarray:
    """The rows where an outer root is near an integer: dist(x, Z) s <= 4e
    plus a slack, for x = s - B or s + B and s = sqrt(D + e) (``outer``).

    x is the outer roots' own arithmetic, so it is a root, up to sign, bit
    for bit.  The slack s * 2e-9 (1 + reach), with reach >= max |x| over
    the block, covers the pads of 1e-9 (1 + |end|) that ``_integer_range``
    adds at slot ends, which lie within the roots' span, and the rounding of
    D +/- e, of the roots and of this test, all far below 1e-9 of the same
    scale.  A larger reach only keeps more rows."""
    x, near = _buffer(work, "x_near", 2, 2, len(half_b))
    np.subtract(outer, half_b, out=x[0])
    np.add(outer, half_b, out=x[1])
    np.abs(np.subtract(x, np.rint(x, out=near), out=near), out=near)
    dist = np.minimum(near[0], near[1], out=near[0])
    np.multiply(np.subtract(dist, 2e-9 * (1.0 + reach), out=dist), outer, out=dist)
    return np.nonzero(dist <= 4.0 * e)[0]


# prefix rows whose cells are bisected together; bounds the cell arrays,
# which grow with the window
_ROW_CHUNK = 4096


# --------------------------------------------------------------------------
# candidates and the main loop


def _candidates(slots, work: dict) -> tuple[np.ndarray, np.ndarray]:
    """Distinct candidates (rows, ts) of one prefix block, in prefix order,
    then t: the integers that lie in some slot of every solver.

    The solver whose slots hold the fewest integers is expanded; a
    candidate stays when it lies in a slot of every other solver.
    """
    ranges = []
    for rows, lo, hi in slots:
        ok = np.nonzero(lo <= hi)[0]
        rows, lo, hi = rows[ok], lo[ok], hi[ok]
        start, stop = _integer_range(lo, hi, work)
        ok = np.nonzero(start <= stop)[0]
        ranges.append((rows[ok], start[ok].astype(np.int64), stop[ok].astype(np.int64)))
    if len(ranges) > 1:
        ranges.sort(key=lambda r: int((r[2] - r[1] + 1).sum()))
    rows, start, stop = ranges[0]
    if len(rows) == 0:
        return rows, start
    # one integer key per (row, t), increasing in row, then t; slots are
    # clipped to their windows, so a slot never reaches the next row's keys
    tmin = min(int(r[1].min(initial=0)) for r in ranges)
    span = max(int(r[2].max(initial=0)) for r in ranges) + 1 - tmin
    counts = stop - start + 1
    key_lo = rows * span - tmin + start
    keys = np.repeat(key_lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    for rows, start, stop in ranges[1:]:
        key_lo = rows * span - tmin + start
        order = np.argsort(key_lo)
        # the running maximum of the slot ends covers only keys of the
        # slot's own row, since slots never reach into the next row's keys
        ends = np.maximum.accumulate(key_lo[order] + (stop - start)[order])
        at = np.searchsorted(key_lo[order], keys, side="right") - 1
        keys = keys[(at >= 0) & (keys <= ends[np.maximum(at, 0)])]
    keys.sort()
    fresh = np.empty(len(keys), dtype=bool)
    fresh[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    rows, ts = np.divmod(keys[fresh], span)
    return rows, ts + tmin


def _integer_range(los: np.ndarray, his: np.ndarray, work: dict) -> tuple[np.ndarray, np.ndarray]:
    """First and last integer of per-row intervals with lo <= hi, as floats
    in workspace arrays; stop < start when an interval holds none.

    Endpoints are expanded by 1e-9 * (1 + |endpoint|) before rounding so
    root-finding error cannot drop a boundary candidate; the exact refilter
    discards any extras.
    """
    start, stop = _buffer(work, "range", 2, len(los))
    with np.errstate(invalid="ignore"):  # infinite ends of empty intervals
        # each end's pad is built in its own output array
        np.multiply(_EXPAND, np.add(1.0, np.abs(los, out=start), out=start), out=start)
        np.ceil(np.subtract(los, start, out=start), out=start)
        np.multiply(_EXPAND, np.add(1.0, np.abs(his, out=stop), out=stop), out=stop)
        np.floor(np.add(his, stop, out=stop), out=stop)
    return start, stop


def _window(q: CountQuery, block, work: dict):
    """The block's per-prefix bounds on the solved coordinate from the
    shell's box, as ``window(rows)``: (wlo, whi) at the block rows ``rows``,
    in arrays valid until the next such call, or at every row for None,
    built once per block.  They are +-floor(T) in v-space and the w-cube's
    band slot in w-space, which builds alpha only at the rows asked for."""
    n = q.f.n
    lim = math.floor(q.t)
    whole = []

    def window(rows=None):
        if rows is None and whole:
            return whole
        out = work if rows is None else work.setdefault("window", {})
        if q.shell_space == "v":
            lo, hi = _buffer(out, "lo_hi", 2, block.size if rows is None else len(rows))
            lo.fill(-lim)
            hi.fill(lim)
        else:
            # w-cube: every |alpha_j + beta_j t| <= T
            lo, hi = _band_slots(block.alphas(rows), block.beta, range(n), np.full(n, q.t), out)
        if rows is None:
            whole.extend((lo, hi))
        return lo, hi

    return window


def _in_reduced_basis(q: CountQuery, core) -> CountResult:
    """``core(q)``, run on a w-space query in an LLL-reduced basis of the
    same w-lattice, with the witness mapped back to the original integer
    coordinates.

    v-space radii depend on the integer coordinates themselves, but a
    w-space query only sees the image points, so v = change @ v', with
    h @ change the reduced basis, turns the query into one over a shorter
    basis with a far smaller scan box (the point classes are preserved by
    the unimodular change).  The query runs as given in v-space, when the
    change does not round to an integer matrix of determinant +-1, and
    when reduction leaves the basis as it was.
    """
    if q.shell_space != "w":
        return core(q)
    basis = lll_reduce(q.g.h)
    u = np.linalg.inv(q.g.h) @ basis
    change = np.round(u).astype(np.int64)
    uncertified = np.max(np.abs(u - change)) > 1e-6 or abs(abs(np.linalg.det(u)) - 1.0) > 1e-6
    if uncertified or np.allclose(basis, q.g.h):
        return core(q)
    if np.linalg.det(basis) < 0:
        basis[:, 0] = -basis[:, 0]
        change[:, 0] = -change[:, 0]
    res = core(replace(q, g=UnimodularMap(basis, q.g.z)))
    if res.first_witness is None:
        return res
    mapped = tuple(int(x) for x in change @ np.asarray(res.first_witness))
    return replace(res, first_witness=mapped)


# the most prefixes an exhaustive count may enumerate: about 700 times the
# largest box the commands, scripts and tests count (6e6 prefixes, n = 3 at
# T = 512 in w-space), while a count past it would run for minutes at tens of
# nanoseconds a prefix
_MAX_PREFIXES = 2.0**32


def count_solutions(q: CountQuery) -> CountResult:
    """Exact shell count; see the module docstring for the contract.

    An exhaustive count whose prefix box holds more than ``_MAX_PREFIXES``
    prefixes raises ValueError before it enumerates any.  An early-exit
    query (``stop_after_first``) is exempt: its cost depends on where the
    first witness lies, not on the size of the box.
    """
    return _in_reduced_basis(q, _count_core)


def _count_core(q: CountQuery) -> CountResult:
    n = q.f.n
    sol = _solved_index(q.g.h)
    prefix_cols = [i for i in range(n) if i != sol]
    box = _prefix_box(q)
    prefixes = math.prod(2.0 * float(box[c]) + 1.0 for c in prefix_cols)
    if not q.stop_after_first and not prefixes <= _MAX_PREFIXES:
        raise ValueError(
            f"an exhaustive count over {prefixes:.4g} prefixes exceeds the cap of "
            f"{_MAX_PREFIXES:.4g}"
        )
    solvers = _slot_solvers(q, _coarse_tolerance(q), sol)
    # without a shift the solution set is symmetric under v -> -v
    half = not q.g.z.any()
    work: dict = {}

    witness: tuple[int, ...] | None = None
    visited = 0
    hit_radii = [np.zeros(0)]

    first_block = 256 if q.stop_after_first else _MAX_BLOCK
    for block in _prefix_blocks(box, prefix_cols, first_block, half):
        leads, tail = block
        visited += len(leads) * len(tail)
        vs = _block_candidates(q, solvers, block, prefix_cols, sol, work)
        if len(vs) == 0:
            continue
        visited += len(vs)
        mask, radii = _exact_mask(q, vs)
        if not mask.any():
            continue
        first = mask.argmax()
        if witness is None:
            # candidates come in prefix order, then t
            witness = tuple(int(x) for x in vs[first])
        if q.stop_after_first:
            # truncated search: the count reports the witness, not the total
            return CountResult(1, witness, visited, radii=radii[first : first + 1])
        hit_radii.append(radii[mask])
        if half:
            # every hit off the zero prefix stands for its mirror, of the same radius
            hit_radii.append(radii[mask & vs[:, prefix_cols].any(axis=1)])
    radii = np.sort(np.concatenate(hit_radii))
    return CountResult(len(radii), witness, visited, radii=radii)


def _block_candidates(q: CountQuery, solvers, block, prefix_cols, sol, work) -> np.ndarray:
    """Candidate vectors of one prefix block, in prefix order, then t.

    The solvers' slots are views of their workspaces; they die on return,
    so a workspace that grows for the next block is never held twice.
    """
    h = q.g.h
    n = q.f.n
    leads, tail = block
    lead_h = _lead_column(h, sol)
    table = _tail_table(q, tail, prefix_cols[1:], work)
    lazy = _Block(leads, lead_h, tail, table, h[:, sol], work)
    window = _window(q, lazy, work)
    rows, ts = _candidates([solve(lazy, window) for solve in solvers], work)
    lead, j = np.divmod(rows, len(tail))
    vs = np.empty((len(ts), n), dtype=np.int64)
    if prefix_cols:  # n = 1 has no lead
        vs[:, prefix_cols[0]] = leads[lead]
    vs[:, prefix_cols[1:]] = tail[j]
    vs[:, sol] = ts
    return vs


class _Block:
    """A prefix block (leads, tail) as the solvers see it.

    Row r is the prefix (leads[r // R], tail[r % R]), and its affine part
    alpha = h p + z is lead * lead_h + table[:, r % R], with lead_h the lead
    column of h and table the tail's share (``_tail_table``).  The leads are
    a run of lead values in centered order (or in the half's), so |lead|
    never falls along it and the last is the largest.  ``alphas`` builds
    alpha only when a solver asks for it, with that arithmetic at every row
    asked for, so a row's alpha has the same bits however it was asked for.
    """

    __slots__ = ("leads", "lead_h", "tail", "table", "beta", "size", "_work", "_full")

    def __init__(self, leads, lead_h, tail, table, beta, work: dict) -> None:
        self.leads = leads
        self.lead_h = lead_h
        self.tail = tail  # the per-tail tables are kept for this array
        self.table = table
        self.beta = beta
        self.size = len(leads) * len(tail)
        self._work = work
        self._full = None

    def alphas(self, rows=None) -> np.ndarray:
        """alpha at the block rows ``rows`` as an (n, k) array, or at every
        row as the column-major (n, m) array, one broadcast add, whose row
        c is contiguous; it is built once per block, in the workspace."""
        if self._full is None and rows is None:
            n, width = self.table.shape
            self._full = _buffer(self._work, "alphas", n, self.size)
            # viewed as (n, leads, R): block row r is (leads[r // R], tail[r % R])
            np.add(np.multiply.outer(self.lead_h, self.leads)[:, :, None], self.table[:, None, :],
                   out=self._full.reshape(n, len(self.leads), width))
        if rows is None:
            return self._full
        if self._full is not None:
            return self._full[:, rows]
        lead, j = np.divmod(rows, self.table.shape[1])
        return np.multiply.outer(self.lead_h, self.leads[lead]) + self.table[:, j]


def _tail_table(q: CountQuery, tail, tail_cols, work: dict) -> np.ndarray:
    """The tail rows' share of alpha, h[:, tail_cols] @ tail.T + z, as an
    (n, R) table.  It is kept for the tail array it was built from, so the
    tail that the blocks share is tabled once per query, and the half slab
    of lead 0 or a tail slice once for its block."""
    kept = work.get("tail")
    if kept is not None and kept[0] is tail:
        return kept[1]
    table = _buffer(work, "table", q.f.n, len(tail))
    np.matmul(q.g.h[:, tail_cols], tail.T.astype(float), out=table)
    table += q.g.z[:, None]
    work["tail"] = (tail, table)
    return table


# prefix rows per block once the block schedule has grown
_MAX_BLOCK = 1 << 14


def _prefix_blocks(
    box: np.ndarray, prefix_cols: list[int], first_block: int, half: bool = False
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Integer prefix assignments in centered order, in blocks.

    A block is one pair (leads, tail): every lead value (the first prefix
    coordinate, centered 0, 1, -1, ..., advancing slowest) times every row
    of ``tail`` (the remaining coordinates, in centered order), one slab of
    tail rows per lead.  A block closes at the first slab that reaches its
    target of ``first_block`` rows; the target doubles after every block, up
    to ``_MAX_BLOCK``.  A slab larger than ``_MAX_BLOCK`` (n >= 4, or n = 3
    at a large radius) is cut instead into contiguous tail slices of the
    target size, one per block, each decoded from its positions alone, so
    the whole slab is never held.

    With ``half`` only one prefix of each pair {p, -p} comes: the zero
    prefix and those whose first nonzero coordinate is positive, which in
    centered order come before their mirrors.  The half slab of lead 0 is
    then the first block, whole and outside the target schedule, so no
    later block outgrows the first full-size one; a slab cut into slices
    has its half sliced like any other slab.
    """
    if not prefix_cols:
        yield np.zeros(1, dtype=np.int64), np.zeros((1, 0), dtype=np.int64)
        return
    lead = _centered(int(box[prefix_cols[0]]))
    axes = [_centered(int(box[c])) for c in prefix_cols[1:]]
    slab = math.prod(len(a) for a in axes)
    zero = lead[:1]
    if half:
        lead = lead[lead > 0]
    target = first_block
    if slab > _MAX_BLOCK:
        # (leads, whether the slab is the half slab of lead 0), made lazily, so
        # an early exit's set-up does not grow with the number of lead values
        slabs = ((lead[i : i + 1], False) for i in range(len(lead)))
        for leads, halved in itertools.chain([(zero, True)] if half else [], slabs):
            count = (slab + 1) // 2 if halved else slab
            start = 0
            while start < count:
                at = np.arange(start, min(start + target, count))
                yield leads, _centered_rows(axes, _half_positions(axes, at) if halved else at)
                start += target
                target = min(2 * target, _MAX_BLOCK)
        return
    if half:
        yield zero, _centered_rows(axes, _half_positions(axes, np.arange((slab + 1) // 2)))
    tail = _centered_rows(axes, np.arange(slab))
    pos = 0
    while pos < len(lead):
        k = -(-target // slab)  # slabs that reach the target
        yield lead[pos : pos + k], tail
        pos += k
        target = min(2 * target, _MAX_BLOCK)


def _centered_rows(axes: list[np.ndarray], at: np.ndarray) -> np.ndarray:
    """Rows at positions ``at`` of the product of the centered ``axes`` in
    order, the first axis slowest."""
    out = np.empty((len(at), len(axes)), dtype=np.int64)
    for j in reversed(range(len(axes))):
        at, digit = np.divmod(at, len(axes[j]))
        out[:, j] = axes[j][digit]
    return out


def _half_positions(axes: list[np.ndarray], at: np.ndarray) -> np.ndarray:
    """Positions in the product of the centered ``axes`` of the rows at
    positions ``at`` of its half: the rows that are zero or whose first
    nonzero entry is positive, in order.

    The half of a product of R rows starts with the half of its trailing
    axes (H = (R' + 1) // 2 rows of R') under a zero first entry; position
    H + k past them is row k of the trailing product under the (k // R' + 1)th
    positive first entry, which sits at every other position from 1.  The
    first axis that applies is the outermost with ``at >= H``."""
    out = np.zeros_like(at)  # the zero row stays at position 0
    for j in reversed(range(len(axes))):
        rest = math.prod(len(a) for a in axes[j + 1 :])
        k = at - (rest + 1) // 2
        np.copyto(out, k + (k // rest + 1) * rest, where=k >= 0)
    return out


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
    witness = None
    visited = 0
    hit_radii = [np.zeros(0)]
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
        mask, radii = _exact_mask(q, vs)
        if witness is None and mask.any():
            witness = tuple(int(x) for x in vs[mask.argmax()])
        hit_radii.append(radii[mask])
    radii = np.sort(np.concatenate(hit_radii))
    return CountResult(len(radii), witness, visited, radii=radii)


# --------------------------------------------------------------------------
# region streaming (w-space), for mean/variance experiments


@dataclass(frozen=True)
class NormBall:
    norm: Norm
    radius: float

    def __post_init__(self) -> None:
        if not self.radius >= 0.0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")

    def contains(self, ws: np.ndarray) -> np.ndarray:
        return self.norm.eval_many(ws) <= self.radius


# rows of one enumeration range, a range of the maps' concatenated rows
# (lead, t); also the rows of one Monte Carlo piece in ``volume``
_REGION_ROWS = 4096
# leads of one enumeration chunk, a range of the maps' concatenated leads
_REGION_LEADS = 4096
# box cells one enumeration call may hold, over all its maps together
_REGION_CELLS = 1e8


def lattice_points_in_region(
    bases: np.ndarray, shifts: np.ndarray, region: NormBall
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sample_index, V, W) of every integer v with w = h v + z in the region,
    for S maps h = bases[s] and z = shifts[s]; rows are grouped by map, and
    within a map v runs in lexicographic order.  Includes v = 0; callers
    filter point classes.

    Every norm here dominates the sup norm, so the region lies in the sup
    ball of its radius r.  The cap measures the box |h^-1| (r + |z|) about
    0, which covers that ball in any basis (a reduced basis only keeps it
    small): a call whose boxes hold more than 1e8 cells over all S maps
    fails before it allocates anything.  Each map enumerates only the box
    about the ball's centre c = -h^-1 z, with half-widths r sum_i |h^-1_ji|,
    clipped to the box about 0.  The leads, every coordinate of v but the
    last, run over that box; each lead's tail t, the last coordinate, runs
    only over the integers where every coordinate of the sup slab
    |p_i + z_i + h_i,n-1 t| <= r can hold, with p = sum_j<n-1 h_j v_j the
    lead's part of h v (a zero h_i,n-1 does not cut).  Box and tail ends
    are padded by 1e-9 (1 + |end|) before rounding, and ``region.contains``
    decides every row.  Leads are taken 4,096 at a time and their rows made
    4,096 at a time, so neither a call's leads nor one lead's tail is ever
    held whole.

    W is the left fold ((h_0 v_0 + h_1 v_1) + ...) + z over the columns h_j
    of h.  At n = 2 that is the order of ``np.einsum("ij,j->i", h, v) + z``;
    at n >= 3 einsum may add in another order, so W can differ from it in
    the last bit.
    """
    n = bases.shape[-1]
    inverse = np.linalg.inv(bases)
    spread = np.abs(inverse)
    reach = np.einsum("sij,sj->si", spread, region.radius + np.abs(shifts))
    sizes = 2.0 * np.floor(reach + _EXPAND) + 1.0
    # in floating point, so an infinite or nan box fails before any int cast
    cells = float(np.prod(sizes, axis=1).sum())
    if not cells <= _REGION_CELLS:
        raise ValueError(
            f"region enumeration box too large: {cells:.4g} cells over {len(sizes)} maps, "
            f"above the cap of {_REGION_CELLS:.4g}"
        )
    work: dict = {}
    centre = -np.einsum("sij,sj->si", inverse, shifts)
    half = region.radius * spread.sum(axis=2)
    start, stop = _integer_range((centre - half).ravel(), (centre + half).ravel(), work)
    bound = (sizes - 1.0) / 2.0
    lo = np.maximum(start.reshape(sizes.shape), -bound)
    hi = np.minimum(stop.reshape(sizes.shape), bound)
    tail = bases[:, :, n - 1]
    cuts = tail != 0.0
    maps = _MapColumns(
        _by_map(lo.astype(np.int64)),
        _by_map(np.maximum(hi - lo + 1.0, 0.0).astype(np.int64)),
        hi[:, n - 1].copy(),
        _by_map(bases),
        _by_map(shifts),
        _by_map(np.divide(-1.0, tail, out=np.zeros_like(tail), where=cuts)),
        _by_map(np.divide(region.radius, np.abs(tail), out=np.full_like(tail, np.inf), where=cuts)),
    )
    pieces = list(_region_pieces(maps, region, work))
    if not pieces:
        return np.zeros(0, np.int64), np.zeros((0, n), np.int64), np.zeros((0, n))
    owner = np.concatenate([piece[0] for piece in pieces])
    return owner, _joined(pieces, range(1, n + 1), np.int64), _joined(pieces, range(n + 1, 2 * n + 1), float)


def _by_map(values: np.ndarray) -> np.ndarray:
    """Per-map ``values`` (S, ...) with the map axis last and contiguous."""
    return np.ascontiguousarray(values.transpose((*range(1, values.ndim), 0)))


class _MapColumns(NamedTuple):
    """Per-map values of one enumeration call, one contiguous row of S
    values per coordinate: the centred box ``lo`` and ``width`` (n, S) and
    the tail's last value ``tail_hi`` (S,); ``bases`` (n, n, S) and
    ``shifts`` (n, S); and the sup slab of each coordinate i on the tail,
    centre -(p_i + z_i) / h_i,n-1 = ``slope`` (p_i + z_i) and half-width
    ``reach`` = r / |h_i,n-1| (slope 0 and reach inf where h_i,n-1 = 0)."""

    lo: np.ndarray
    width: np.ndarray
    tail_hi: np.ndarray
    bases: np.ndarray
    shifts: np.ndarray
    slope: np.ndarray
    reach: np.ndarray


def _region_pieces(maps: _MapColumns, region: NormBall, work: dict) -> Iterator[list[np.ndarray]]:
    """The region points of each row range, as columns (owner, v_0 ..
    v_n-1, w_0 .. w_n-1)."""
    n = len(maps.lo)
    leads = np.prod(maps.width[:-1], axis=0) * (maps.width[-1] > 0)
    lead_edges = np.concatenate(([0], np.cumsum(leads)))
    for a in range(0, int(lead_edges[-1]), _REGION_LEADS):
        lead_owner, at = _ragged(lead_edges, a, min(a + _REGION_LEADS, int(lead_edges[-1])))
        coords, p, start, rows = _lead_tails(maps, lead_owner, at, work)
        for b in range(0, int(rows[-1]), _REGION_ROWS):
            lead, k = _ragged(rows, b, min(b + _REGION_ROWS, int(rows[-1])))
            owner = lead_owner[lead]
            t = start[lead] + k
            tf = t.astype(float)
            ws = np.empty((n, len(t)))
            for i in range(n):
                np.multiply(maps.bases[i, n - 1][owner], tf, out=ws[i])
                ws[i] += p[i][lead]
                ws[i] += maps.shifts[i][owner]
            keep = region.contains(ws.T)
            lead = lead[keep]
            piece = [owner[keep], *(c[lead] for c in coords), t[keep], *(w[keep] for w in ws)]
            del k, owner, t, tf, ws  # this range's rows, freed before the next range is made
            yield piece


def _joined(pieces: list[list[np.ndarray]], columns: range, dtype) -> np.ndarray:
    """(m, k) array of the pieces' ``columns`` joined in order, dropping each
    piece's column once it is joined."""
    out = np.empty((sum(len(piece[0]) for piece in pieces), len(columns)), dtype)
    for k, c in enumerate(columns):
        np.concatenate([piece[c] for piece in pieces], out=out[:, k])
        for piece in pieces:
            piece[c] = None
    return out


def _ragged(edges: np.ndarray, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Segment and offset in it of each position a..b-1 of a ragged sequence
    whose segment s holds positions edges[s]..edges[s+1]-1."""
    first = int(np.searchsorted(edges, a, "right")) - 1
    last = int(np.searchsorted(edges, b, "left"))
    ends = np.minimum(np.maximum(edges[first : last + 1], a), b)
    segment = np.repeat(np.arange(first, last), ends[1:] - ends[:-1])
    return segment, np.arange(a, b) - edges[segment]


def _lead_tails(maps: _MapColumns, owner: np.ndarray, at: np.ndarray, work: dict):
    """Leads at positions ``at`` of the boxes of maps ``owner``, and their
    tails: lead coordinates (n - 1, L), lead parts p = sum_j<n-1 h_j v_j
    (n, L), each tail's first t, and the edges of the tails' concatenated
    rows (lead l holds rows rows[l] .. rows[l+1]-1, of t = start[l] on)."""
    n = len(maps.lo)
    coords = np.empty((n - 1, len(owner)), np.int64)
    for j in reversed(range(1, n - 1)):
        at, digit = np.divmod(at, maps.width[j][owner])
        coords[j] = maps.lo[j][owner] + digit
    if n > 1:
        coords[0] = maps.lo[0][owner] + at
    p = np.zeros((n, len(owner)))  # at n = 1 no lead, and p = 0
    t_lo = maps.lo[n - 1][owner].astype(float)
    t_hi = maps.tail_hi[owner]
    for i in range(n):
        for j in range(n - 1):
            term = maps.bases[i, j][owner] * coords[j]
            p[i] = p[i] + term if j else term
        mid = (p[i] + maps.shifts[i][owner]) * maps.slope[i][owner]
        reach = maps.reach[i][owner]
        np.maximum(t_lo, mid - reach, out=t_lo)
        np.minimum(t_hi, mid + reach, out=t_hi)
    start, stop = _integer_range(t_lo, t_hi, work)
    rows = np.concatenate(([0], np.cumsum(np.maximum(stop - start + 1.0, 0.0).astype(np.int64))))
    return coords, p, start.astype(np.int64), rows

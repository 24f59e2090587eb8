"""Domain types for lattice problems on sublevel regions of subhomogeneous forms.

A target form f: R^n -> R^l is a vector of scalar forms, each one
subhomogeneous of degree d > 0, meaning |f(t x)| <= t^d |f(x)| componentwise
for t in (0, 1].  A bound function psi assigns to each radius z >= 0 a
componentwise tolerance, and the central regions are

    A(f, psi, nu) = { x in R^n : |f(x)| <= psi(nu(x)) componentwise },

usually intersected with a shell S < nu(x) <= T of the block norm nu.

Conventions fixed here and relied on throughout the package:

  * norms are max-of-blocks: nu(x) = max_b ( sum_{i in b} |x_i|^{d_b} )^{1/d_b},
    with d_b = None denoting the sup norm on that block;
  * bound components are psi_i(z) = C * log(e + z)^j * z^(-s) for z >= 1
    (natural log), extended by the constant psi_i(1) on [0, 1);
  * the componentwise partial order a <= b is meant everywhere a vector
    inequality appears;
  * 0^0 = 1 wherever a power-log expression degenerates.

The compact string specs parsed/rendered here ("max", "ld:2", "block:2:2,1:2",
"pl:C=1,s=1,j=0", "spf:p=2,q=1,d=2", ...) are the command-line surface; parse
and render are exact inverses on canonical forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence, Union

import numpy as np

__all__ = [
    "Norm",
    "max_norm",
    "lp_norm",
    "block_norm",
    "ApproxFunction",
    "power_law",
    "SignedPowerForm",
    "CoordinateProduct",
    "MaxPower",
    "VectorOf",
    "TargetFunction",
    "PointClass",
    "DyadicSchedule",
    "mix_seed",
    "Bound",
    "bound_values",
    "band_system",
    "parse_norm",
    "norm_spec",
    "parse_psi",
    "psi_spec",
    "parse_target",
    "target_spec",
]


# --------------------------------------------------------------------------
# norms


@dataclass(frozen=True)
class Norm:
    """Block norm: max over blocks of the block's l^d norm.

    ``blocks`` is a tuple of (dimension, exponent) pairs partitioning the
    coordinates in order.  The exponent None is the sup-norm sentinel; it is
    kept distinct from float('inf') so serialized specs round-trip exactly.
    """

    blocks: tuple[tuple[int, float | None], ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("norm needs at least one block")
        for dim, d in self.blocks:
            if int(dim) != dim or dim < 1:
                raise ValueError(f"block dimension must be a positive integer, got {dim}")
            if d is not None and not d >= 1.0:
                raise ValueError(f"block exponent must be >= 1 or None, got {d}")

    @property
    def dim(self) -> int:
        return sum(b[0] for b in self.blocks)

    def __call__(self, x: Sequence[float]) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected vector of dimension {self.dim}, got shape {x.shape}")
        return float(self.eval_many(x[None, :])[0])

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """Norms of the rows of ``xs`` (shape (m, dim)).

        Each block folds its coordinate columns from the left with
        ``np.add`` or ``np.maximum``, bit for bit numpy's axis-1 reduction
        without its cost on a short axis.  Summation order: a sum over 8 or
        more columns keeps ``.sum(axis=1)``, which adds in another order
        there.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise ValueError(f"expected array of shape (m, {self.dim}), got {xs.shape}")
        out = np.zeros(xs.shape[0])
        i = 0
        for dim, d in self.blocks:
            seg = [np.abs(xs[:, c]) for c in range(i, i + dim)]
            i += dim
            if d is None:
                v = _fold(np.maximum, seg)
            elif d == 1.0:
                v = _row_sum(seg)
            elif d == 2.0:
                v = np.sqrt(_row_sum([c * c for c in seg]))
            else:
                v = _row_sum([c**d for c in seg]) ** (1.0 / d)
            np.maximum(out, v, out=out)
        return out


# numpy's axis-1 sum of fewer than 8 terms adds them left to right; from 8
# terms on it sums in unrolled blocks, in another order
_FOLD_TERMS = 7


def _fold(ufunc: np.ufunc, cols: Sequence[np.ndarray]) -> np.ndarray:
    """``ufunc`` folded over equal-length columns from the left; the column
    itself when there is one."""
    if len(cols) == 1:
        return cols[0]
    out = ufunc(cols[0], cols[1])
    for c in cols[2:]:
        ufunc(out, c, out=out)
    return out


def _row_sum(cols: Sequence[np.ndarray]) -> np.ndarray:
    """Sum of the columns, bit for bit the axis-1 sum of their stack."""
    if len(cols) > _FOLD_TERMS:
        return np.stack(cols, axis=1).sum(axis=1)
    return _fold(np.add, cols)


def max_norm(n: int) -> Norm:
    return Norm(((n, None),))


def lp_norm(n: int, d: float) -> Norm:
    return Norm(((n, float(d)),))


def block_norm(blocks: Iterable[tuple[int, float | None]]) -> Norm:
    return Norm(tuple((int(a), None if b is None else float(b)) for a, b in blocks))


# --------------------------------------------------------------------------
# bound functions


@dataclass(frozen=True)
class ApproxFunction:
    """Vector of power-log bound components.

    Component i evaluates to C_i * log(e + z)^j_i * z^(-s_i) for z >= 1 and is
    frozen at its z = 1 value on [0, 1), making it finite at z = 0.  C > 0,
    s >= 0, and j is a nonnegative integer.
    """

    components: tuple[tuple[float, float, int], ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("bound function needs at least one component")
        for coeff, s, j in self.components:
            if not coeff > 0:
                raise ValueError(f"coefficient must be positive, got {coeff}")
            if not s >= 0:
                raise ValueError(f"power must be nonnegative, got {s}")
            if int(j) != j or j < 0:
                raise ValueError(f"log exponent must be a nonnegative integer, got {j}")

    @property
    def component_count(self) -> int:
        return len(self.components)

    def __call__(self, z: float) -> np.ndarray:
        zs = np.array([z], dtype=float)
        if zs[0] < 0:
            raise ValueError("bound functions are defined on z >= 0")
        return self._values(np.maximum(zs, 1.0))[0]

    def eval_many(self, zs: np.ndarray) -> np.ndarray:
        """Shape (m, l) array of component values at each z; z < 1 plateaus."""
        zs = np.asarray(zs, dtype=float)
        if np.any(zs < 0):
            raise ValueError("bound functions are defined on z >= 0")
        return self._values(np.maximum(zs, 1.0))

    def _values(self, zc: np.ndarray) -> np.ndarray:
        """(m, l) component values at the radii ``zc`` >= 1, the one kernel
        of ``__call__`` and ``eval_many``; log(e + z)^0 = 1 is skipped, as
        coeff * 1.0 is coeff exactly."""
        out = np.empty((len(zc), len(self.components)))
        for i, (coeff, s, j) in enumerate(self.components):
            scale = coeff * np.log(math.e + zc) ** j if j else coeff
            np.multiply(scale, zc ** (-s), out=out[:, i])
        return out


def power_law(coeff: float = 1.0, s: float = 1.0, j: int = 0) -> ApproxFunction:
    return ApproxFunction(((float(coeff), float(s), int(j)),))


# fixed componentwise tolerance, as a tuple; or a radius-dependent bound
Bound = Union[ApproxFunction, tuple]


def _checked_tolerance(bound: Bound, component_count: int) -> np.ndarray | None:
    """``bound`` checked against a target of ``component_count`` components:
    None for a bound function, whose component count must match, and a
    fixed tolerance as its validated (l,) row, nonnegative."""
    if isinstance(bound, ApproxFunction):
        if bound.component_count != component_count:
            raise ValueError(
                f"bound has {bound.component_count} components, target has {component_count}"
            )
        return None
    eps = np.asarray(bound, dtype=float)
    if eps.shape != (component_count,):
        raise ValueError(f"expected {component_count} tolerance components, got {eps.shape}")
    if np.any(eps < 0):
        raise ValueError("fixed tolerances must be nonnegative")
    return eps


def bound_values(bound: Bound, zs: np.ndarray, component_count: int) -> np.ndarray:
    """Tolerance matrix (m, l) for radii ``zs`` under either bound kind."""
    zs = np.asarray(zs, dtype=float)
    eps = _checked_tolerance(bound, component_count)
    if eps is None:
        return bound.eval_many(zs)
    return np.broadcast_to(eps, (len(zs), component_count))


# --------------------------------------------------------------------------
# target forms


@dataclass(frozen=True)
class SignedPowerForm:
    """f(x) = sum_{i<=p} |x_i|^d  -  sum_{i>p} |x_i|^d on R^(p+q), degree d."""

    p: int
    q: int
    d: float

    def __post_init__(self) -> None:
        if int(self.p) != self.p or self.p < 1:
            raise ValueError(f"p must be a positive integer, got {self.p}")
        if int(self.q) != self.q or self.q < 0:
            raise ValueError(f"q must be a nonnegative integer, got {self.q}")
        if not self.d >= 1.0:
            raise ValueError(f"d must be >= 1, got {self.d}")

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def component_count(self) -> int:
        return 1

    @property
    def degrees(self) -> tuple[float, ...]:
        return (float(self.d),)

    def evaluate_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        powed = [np.abs(xs[:, c]) ** self.d for c in range(self.n)]
        val = _row_sum(powed[: self.p])
        if self.q:
            val = val - _row_sum(powed[self.p :])
        return val[:, None]

    def canonical_norm(self) -> Norm:
        if self.q == 0:
            return lp_norm(self.p, self.d)
        return block_norm(((self.p, self.d), (self.q, self.d)))

    def spec(self) -> str:
        return f"spf:p={self.p},q={self.q},d={_format_float(self.d)}"


@dataclass(frozen=True)
class CoordinateProduct:
    """f(x) = x_1 * ... * x_n, degree n."""

    n: int

    def __post_init__(self) -> None:
        if int(self.n) != self.n or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n}")

    @property
    def component_count(self) -> int:
        return 1

    @property
    def degrees(self) -> tuple[float, ...]:
        return (float(self.n),)

    def evaluate_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return _fold(np.multiply, list(xs.T))[:, None]

    def canonical_norm(self) -> Norm:
        return max_norm(self.n)

    def spec(self) -> str:
        return f"prod:n={self.n}"


@dataclass(frozen=True)
class MaxPower:
    """f(x) = max_i |x_{c_i}|^{a_i} over l < n chosen coordinates, degree min a_i.

    ``coords`` defaults to the first l coordinates; any distinct subset is
    allowed, which is how componentwise simultaneous systems are assembled.
    """

    exponents: tuple[float, ...]
    n: int
    coords: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not self.exponents:
            raise ValueError("need at least one exponent")
        if any(not a >= 1.0 for a in self.exponents):
            raise ValueError(f"exponents must be >= 1, got {self.exponents}")
        if int(self.n) != self.n or len(self.exponents) >= self.n:
            raise ValueError(
                f"need integer n with len(exponents) < n, got n={self.n}, "
                f"l={len(self.exponents)}"
            )
        c = self.resolved_coords()
        if len(set(c)) != len(c) or any(i < 0 or i >= self.n for i in c):
            raise ValueError(f"coords must be distinct indices below n, got {c}")

    def resolved_coords(self) -> tuple[int, ...]:
        if self.coords is None:
            return tuple(range(len(self.exponents)))
        if len(self.coords) != len(self.exponents):
            raise ValueError("coords and exponents must have equal length")
        return self.coords

    @property
    def component_count(self) -> int:
        return 1

    @property
    def degrees(self) -> tuple[float, ...]:
        return (min(self.exponents),)

    def evaluate_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        cols = xs[:, list(self.resolved_coords())]
        powed = np.abs(cols) ** np.asarray(self.exponents)
        val = _fold(np.maximum, list(powed.T))
        return val[:, None]

    def canonical_norm(self) -> Norm:
        return max_norm(self.n)

    def spec(self) -> str:
        out = "maxpow:a=" + "|".join(_format_float(x) for x in self.exponents) + f",n={self.n}"
        if self.coords is not None:
            out += ",c=" + "|".join(str(c) for c in self.coords)
        return out


@dataclass(frozen=True)
class VectorOf:
    """Vector target: concatenation of scalar parts sharing one ambient n."""

    parts: tuple["ScalarTarget", ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("vector target needs at least one part")
        dims = {p.n for p in self.parts}
        if len(dims) != 1:
            raise ValueError(f"parts must share one ambient dimension, got {dims}")

    @property
    def n(self) -> int:
        return self.parts[0].n

    @property
    def component_count(self) -> int:
        return len(self.parts)

    @property
    def degrees(self) -> tuple[float, ...]:
        return tuple(p.degrees[0] for p in self.parts)

    def evaluate_many(self, xs: np.ndarray) -> np.ndarray:
        return np.concatenate([p.evaluate_many(xs) for p in self.parts], axis=1)

    def canonical_norm(self) -> Norm:
        return max_norm(self.n)

    def spec(self) -> str:
        return "vec:" + ";".join(p.spec() for p in self.parts)


ScalarTarget = Union[SignedPowerForm, CoordinateProduct, MaxPower]
TargetFunction = Union[SignedPowerForm, CoordinateProduct, MaxPower, VectorOf]


def band_system(f: TargetFunction) -> tuple[tuple[int, float, int], ...] | None:
    """The bands |x_c|^a <= psi_k of f as (c, a, k) triples, or None.

    A max power bounds all its bands by component 0; a vector of
    single-coordinate max powers bounds band k by component k.  Any other
    target is not a band system.
    """
    if isinstance(f, MaxPower):
        return tuple((c, a, 0) for c, a in zip(f.resolved_coords(), f.exponents))
    if isinstance(f, VectorOf):
        parts = [band_system(p) for p in f.parts]
        if all(b is not None and len(b) == 1 for b in parts):
            return tuple((c, a, k) for k, ((c, a, _),) in enumerate(parts))
    return None


# --------------------------------------------------------------------------
# seed derivation


def mix_seed(master: int, index: int) -> int:
    """Derive a decorrelated 64-bit seed from a master seed and an index.

    splitmix64 finalizer.  Every derived RNG in the package (per sample,
    per chunk, per worker) is seeded this way, so results depend only on
    the master seed and the logical index, not on scheduling.
    """
    x = (master + 0x9E3779B97F4A7C15 * (index + 1)) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


# --------------------------------------------------------------------------
# point classes and schedules


class PointClass(Enum):
    """Which integer vectors a count ranges over."""

    ALL_NONZERO = "nonzero"
    PRIMITIVE = "primitive"
    ALL_INTEGER = "all"

    def contains(self, vs: np.ndarray) -> np.ndarray:
        """Boolean mask of the rows of the integer matrix ``vs`` in the class:
        nonzero rows, rows whose coordinates have gcd 1 (so never the zero
        row), or every row."""
        if self is PointClass.ALL_NONZERO:
            return _fold(np.logical_or, list(vs.T != 0))
        if self is PointClass.PRIMITIVE:
            return _fold(np.gcd, list(np.abs(vs.T))) == 1
        return np.ones(len(vs), dtype=bool)


@dataclass(frozen=True)
class DyadicSchedule:
    """Geometric checkpoint radii t_k = t0 * ratio^k for k0 <= k <= kmax."""

    t0: float = 1.0
    ratio: float = 2.0
    k0: int = 0
    kmax: int = 0

    def __post_init__(self) -> None:
        if not self.t0 > 0 or not self.ratio > 1:
            raise ValueError("need t0 > 0 and ratio > 1")
        if self.k0 > self.kmax:
            raise ValueError(f"empty schedule: k0={self.k0} > kmax={self.kmax}")

    def indices(self) -> range:
        return range(self.k0, self.kmax + 1)

    def values(self) -> list[float]:
        return [self.t0 * self.ratio**k for k in self.indices()]


# --------------------------------------------------------------------------
# string specs


def _format_float(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def parse_norm(spec: str, n: int) -> Norm:
    """Parse "max", "ld:<d>", or "block:<dim>:<d>,<dim>:<d>,..." at dimension n."""
    spec = spec.strip()
    if spec == "max":
        return max_norm(n)
    if spec.startswith("ld:"):
        tok = spec[3:]
        if tok == "inf":
            return max_norm(n)
        try:
            d = float(tok)
        except ValueError:
            raise ValueError(f"norm spec: bad exponent {tok!r} in {spec!r}") from None
        return lp_norm(n, d)
    if spec.startswith("block:"):
        blocks = []
        for part in spec[6:].split(","):
            pieces = part.split(":")
            if len(pieces) != 2:
                raise ValueError(f"norm spec: bad block {part!r} in {spec!r}")
            dim = int(pieces[0])
            d = None if pieces[1] == "inf" else float(pieces[1])
            blocks.append((dim, d))
        norm = block_norm(blocks)
        if norm.dim != n:
            raise ValueError(f"norm spec: blocks sum to {norm.dim}, expected n={n}")
        return norm
    raise ValueError(f"norm spec: unrecognized {spec!r}")


def norm_spec(norm: Norm) -> str:
    if len(norm.blocks) == 1:
        d = norm.blocks[0][1]
        return "max" if d is None else f"ld:{_format_float(d)}"
    parts = ",".join(
        f"{dim}:{'inf' if d is None else _format_float(d)}" for dim, d in norm.blocks
    )
    return f"block:{parts}"


def _parse_kv(body: str, spec: str) -> dict[str, str]:
    out = {}
    for item in body.split(","):
        if "=" not in item:
            raise ValueError(f"spec {spec!r}: expected key=value, got {item!r}")
        k, v = item.split("=", 1)
        if k in out:
            raise ValueError(f"spec {spec!r}: duplicate key {k!r}")
        out[k] = v
    return out


def parse_psi(spec: str) -> ApproxFunction:
    """Parse "pl:C=..,s=..,j=.." with ";"-separated components."""
    spec = spec.strip()
    if not spec.startswith("pl:"):
        raise ValueError(f"bound spec: expected 'pl:' prefix in {spec!r}")
    comps = []
    for body in spec[3:].split(";"):
        kv = _parse_kv(body, spec)
        extra = set(kv) - {"C", "s", "j"}
        if extra:
            raise ValueError(f"bound spec: unknown keys {sorted(extra)} in {spec!r}")
        coeff = float(kv.get("C", "1"))
        s = float(kv.get("s", "1"))
        j = int(kv.get("j", "0"))
        comps.append((coeff, s, j))
    return ApproxFunction(tuple(comps))


def psi_spec(psi: ApproxFunction) -> str:
    return "pl:" + ";".join(
        f"C={_format_float(c)},s={_format_float(s)},j={j}" for c, s, j in psi.components
    )


def _need(kv: dict[str, str], key: str, spec: str) -> str:
    if key not in kv:
        raise ValueError(f"spec {spec!r}: missing required key {key!r}")
    return kv[key]


# prefix -> (allowed keys, constructor from the parsed key=value pairs)
_SCALAR_TARGETS = {
    "spf": (
        {"p", "q", "d"},
        lambda kv, spec: SignedPowerForm(
            p=int(_need(kv, "p", spec)), q=int(kv.get("q", "0")), d=float(_need(kv, "d", spec))
        ),
    ),
    "prod": ({"n"}, lambda kv, spec: CoordinateProduct(n=int(_need(kv, "n", spec)))),
    "maxpow": (
        {"a", "n", "c"},
        lambda kv, spec: MaxPower(
            exponents=tuple(float(t) for t in _need(kv, "a", spec).split("|")),
            n=int(_need(kv, "n", spec)),
            coords=tuple(int(t) for t in kv["c"].split("|")) if "c" in kv else None,
        ),
    ),
}


def _parse_scalar_target(spec: str) -> ScalarTarget:
    prefix, colon, body = spec.partition(":")
    if not colon or prefix not in _SCALAR_TARGETS:
        raise ValueError(f"target spec: unrecognized {spec!r}")
    keys, build = _SCALAR_TARGETS[prefix]
    kv = _parse_kv(body, spec)
    extra = set(kv) - keys
    if extra:
        raise ValueError(f"target spec: unknown keys {sorted(extra)} in {spec!r}")
    return build(kv, spec)


def parse_target(spec: str) -> TargetFunction:
    """Parse "spf:p=..,q=..,d=..", "prod:n=..", "maxpow:a=..|..,n=..[,c=..|..]",
    or "vec:" followed by ";"-separated scalar specs."""
    spec = spec.strip()
    if spec.startswith("vec:"):
        parts = tuple(_parse_scalar_target(p) for p in spec[4:].split(";"))
        return VectorOf(parts)
    return _parse_scalar_target(spec)


def target_spec(f: TargetFunction) -> str:
    return f.spec()

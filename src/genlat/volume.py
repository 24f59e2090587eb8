"""Exact volumes of sublevel shells, Monte Carlo cross-checks, classifiers.

For a target form f of one of the power families, a scalar bound function
psi, and the family's canonical block norm nu, the shell volume

    m( { x : |f(x)| <= psi(nu(x)),  S < nu(x) <= T } )

reduces to a one-dimensional integral once S is past the threshold radius
where psi(z) < z^degree:

  * signed power form, f = sum_{i<=p} |x_i|^d - sum_{i>p} |x_i|^d, nu the
    max of the two d-blocks:

        int_S^T z^(n-1) [ v_p v'_q (1 - (1 - psi(z)/z^d)^(p/d))
                        + v_q v'_p (1 - (1 - psi(z)/z^d)^(q/d)) ] dz,

    where v_k = (2 Gamma(1+1/d))^k / Gamma(1+k/d) is the unit-ball volume of
    the l^d norm on R^k and v'_k = k v_k its radial density factor;

  * coordinate product, f = x_1...x_n, nu the sup norm:

        2^n n int_S^T K_{n-2}(z, psi(z)) dz,

    with the kernel K_k(z, c) = integral of min(z, c/(z y_1...y_k)) over
    (0, z]^k, available in closed form (below);

  * band system, bands |x_{c_i}|^{a_i} <= psi_{k_i}(nu(x)) on l < n
    distinct coordinates, nu the sup norm (a max power bounds every band by
    its one component; a componentwise system bounds band i by component i):

        2^n (n-l) int_S^T prod_k psi_k(z)^(w_k) z^(n-l-1) dz,

    where w_k = sum of 1/a_i over the bands that component k bounds.

One private description per family (``_family``) holds the integrand, its
scale, the growth exponents the classifiers read and the checkpoint term of
the uniform criterion; ``shell_volume``, ``classify_series`` and
``criterion_terms`` read that description and never branch on the family.
A definite signed power form (q = 0) is the norm to the power d, so its
region is bounded: its shells past the threshold are empty (scale 0), the
volume integral converges, and the uniform series diverges (X_k = 0).

Everything here is deterministic; Monte Carlo volumes draw from one seeded
generator per chunk, in cache-sized pieces, with a fixed reduction order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    ApproxFunction,
    Bound,
    CoordinateProduct,
    DyadicSchedule,
    MaxPower,
    Norm,
    SignedPowerForm,
    TargetFunction,
    band_system,
    bound_values,
    mix_seed,
    power_law,
)
from .counting import _REGION_ROWS

__all__ = [
    "Quadrature",
    "MCVolume",
    "Verdict",
    "adaptive_simpson",
    "zeta_fn",
    "unit_ball_volume_ld",
    "threshold_M",
    "i_k_closed_form",
    "shell_volume",
    "region_mask",
    "monte_carlo_region_volume",
    "classify_series",
    "criterion_terms",
    "verification_matrix",
]


class Quadrature(NamedTuple):
    value: float
    error: float


# bisection depth past which a panel is accepted as it stands
_MAX_DEPTH = 60


def adaptive_simpson(
    fn: Callable[[float], float],
    a: float,
    b: float,
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-8,
) -> Quadrature:
    """Adaptive Simpson integral of ``fn`` on [a, b] with an error estimate.

    Bisects until the Richardson error estimate of a panel drops under the
    panel's share of the tolerance (absolute, or relative to the running
    whole-interval magnitude); panels at the depth cap are accepted with
    their current estimate contributing to the reported error.
    """
    if not b >= a:
        raise ValueError(f"integration bounds out of order: [{a}, {b}]")
    if a == b:
        return Quadrature(0.0, 0.0)

    def simpson(x0: float, x2: float, f0: float, f1: float, f2: float) -> float:
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    m = 0.5 * (a + b)
    fa, fm, fb = fn(a), fn(m), fn(b)
    whole = simpson(a, b, fa, fm, fb)
    # crude magnitude reference for the relative tolerance
    scale = abs(whole)

    total = 0.0
    err_total = 0.0
    stack = [(a, m, b, fa, fm, fb, whole, abs_tol, 0)]
    while stack:
        x0, x1, x2, f0, f1, f2, s, tol, depth = stack.pop()
        lm = 0.5 * (x0 + x1)
        rm = 0.5 * (x1 + x2)
        flm, frm = fn(lm), fn(rm)
        left = simpson(x0, x1, f0, flm, f1)
        right = simpson(x1, x2, f1, frm, f2)
        delta = left + right - s
        tol_here = max(tol, rel_tol * scale)
        if abs(delta) <= 15.0 * tol_here or depth >= _MAX_DEPTH:
            piece = left + right + delta / 15.0
            total += piece
            err_total += abs(delta) / 15.0
            scale = max(scale, abs(total))
        else:
            stack.append((x0, lm, x1, f0, flm, f1, left, tol / 2.0, depth + 1))
            stack.append((x1, rm, x2, f1, frm, f2, right, tol / 2.0, depth + 1))
    return Quadrature(total, err_total)


# --------------------------------------------------------------------------
# special functions


# Bernoulli numbers B_2, B_4, ... B_12 for the Euler-Maclaurin tail
_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730)

# the Euler-Maclaurin cutoff N
_ZETA_TERMS = 48


def zeta_fn(s: float) -> float:
    """Riemann zeta for real s > 1 by Euler-Maclaurin summation.

    With the cutoff at N = 48 and six Bernoulli corrections the result is
    accurate to full double precision for s >= 2.
    """
    if not s > 1:
        raise ValueError(f"zeta_fn requires s > 1, got {s}")
    n = _ZETA_TERMS
    head = sum(k ** (-s) for k in range(1, n))
    tail = n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** (-s)
    rising = s
    power = float(n) ** (-s - 1.0)
    fact = 2.0
    correction = 0.0
    for i, b in enumerate(_BERNOULLI, start=1):
        correction += b / fact * rising * power
        # advance (s)(s+1)...(s+2i) and N^(-s-2i-1), (2i+2)!
        rising *= (s + 2 * i - 1) * (s + 2 * i)
        power /= n * n
        fact *= (2 * i + 1) * (2 * i + 2)
    return head + tail + correction


def unit_ball_volume_ld(k: int, d: float | None) -> tuple[float, float]:
    """(volume, radial density factor) of the unit l^d ball in R^k.

    Returns (v_k, k v_k); d = None is the sup norm, giving (2^k, k 2^k).
    The radial factor is d/dR [ v_k R^k ] / R^(k-1), i.e. the (k-1)-content
    density of the unit sphere in the cone decomposition.
    """
    if int(k) != k or k < 0:
        raise ValueError(f"dimension must be a nonnegative integer, got {k}")
    if k == 0:
        return 1.0, 0.0
    if d is None:
        v = 2.0**k
    else:
        if not d >= 1:
            raise ValueError(f"exponent must be >= 1 or None, got {d}")
        v = (2.0 * math.gamma(1.0 + 1.0 / d)) ** k / math.gamma(1.0 + k / d)
    return v, k * v


# --------------------------------------------------------------------------
# threshold radius

# the doubling scan gives up past this radius
_Z_CAP = 2.0**200


def threshold_M(f: TargetFunction, psi: ApproxFunction) -> float:
    """Smallest safe shell start: radius past which psi_i(z) < z^(d_i) holds.

    d_i are the componentwise degrees of f.  Found by doubling scan and
    bisection (psi_i nonincreasing and z^d increasing make the crossing
    unique) down to adjacent doubles, padded by a 1.01 safety factor and
    clamped to at least 1.
    """
    if psi.component_count != f.component_count:
        raise ValueError(
            f"bound has {psi.component_count} components, target has {f.component_count}"
        )
    degrees = np.asarray(f.degrees)

    def clear(z: float) -> bool:
        return bool(np.all(psi(z) < z**degrees))

    if clear(1.0):
        return 1.0
    lo, hi = 1.0, 2.0
    while not clear(hi):
        lo, hi = hi, hi * 2.0
        if hi > _Z_CAP:
            raise ValueError("bound function exceeds the power shell at every radius")
    # once lo and hi are adjacent doubles, mid rounds onto one of them and
    # no further step moves either
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if clear(mid):
            hi = mid
        else:
            lo = mid
    return max(1.0, hi * 1.01)


def _require_shell(f: TargetFunction, psi: ApproxFunction, s_lo: float, t_hi: float) -> None:
    if not s_lo <= t_hi:
        raise ValueError(f"shell bounds out of order: ({s_lo}, {t_hi}]")
    m = threshold_M(f, psi)
    if s_lo < m * (1.0 - 1e-12):
        raise ValueError(
            f"closed forms need the shell to start past the threshold radius "
            f"{m:.6g}, got S={s_lo}"
        )


# --------------------------------------------------------------------------
# closed forms


def i_k_closed_form(k: int, z: float, bound_value: float) -> float:
    """Closed form of the kernel K_k(z, c) = int_{(0,z]^k} min(z, c/(z prod y)) dy.

    Equals z^(k+1) when c >= z^(k+2) (the min saturates), and otherwise

        (c / z) * sum_{i=0}^{k} log^i( z^(k+2) / c ) / i!

    with the 0^0 = 1 convention at the seam.  k = 0 is the plain min.
    """
    if int(k) != k or k < 0:
        raise ValueError(f"k must be a nonnegative integer, got {k}")
    if not z > 0:
        raise ValueError(f"z must be positive, got {z}")
    if bound_value < 0:
        raise ValueError(f"bound value must be nonnegative, got {bound_value}")
    if bound_value == 0.0:
        return 0.0
    if bound_value >= z ** (k + 2):
        return float(z ** (k + 1))
    ratio = math.log(z ** (k + 2) / bound_value)
    acc = 1.0
    term = 1.0
    for i in range(1, k + 1):
        term *= ratio / i
        acc += term
    return bound_value / z * acc


class _Family(NamedTuple):
    """What the closed form and the classifiers read of one target family.

    The shell volume over (S, T] is ``scale`` times the integral of
    ``integrand``; scale 0 marks a bounded region, whose shells past the
    threshold radius are empty.  Far out the integrand grows like
    z^(A-1) log^B z prod psi_k(z)^(1/a) over the (a, k) pairs in ``bands``.
    ``checkpoint(k, t)`` is X_k, the volume-scale factor of the k-th
    checkpoint shell of the uniform criterion.
    """

    integrand: Callable[[float], float]
    scale: float
    a_pow: float
    b_log: float
    bands: tuple[tuple[float, int], ...]
    checkpoint: Callable[[int, float], float]


def _family(f: TargetFunction, psi: ApproxFunction) -> _Family:
    """The description of f's family, with psi checked against it."""
    if psi.component_count != f.component_count:
        raise ValueError("need one bound component per target component")
    n = f.n

    if isinstance(f, SignedPowerForm):
        p, q, d = f.p, f.q, f.d
        v_p, vr_p = unit_ball_volume_ld(p, d)
        v_q, vr_q = unit_ball_volume_ld(q, d)

        def one_minus_pow(w: float, alpha: float) -> float:
            # 1 - (1-w)^alpha without cancellation for w near 0 (and near 1)
            if w >= 1.0:
                return 1.0
            return -math.expm1(alpha * math.log1p(-w))

        def integrand(z: float) -> float:
            w = float(psi(z)[0]) / z**d  # in (0, 1) past the threshold
            return z ** (n - 1) * (
                v_p * vr_q * one_minus_pow(w, p / d) + v_q * vr_p * one_minus_pow(w, q / d)
            )

        def checkpoint(k: int, t: float) -> float:
            pv = float(psi(t)[0])
            return k * pv if d == n else t ** (n - d) * pv

        # q = 0: f is the norm to the power d, so the region is bounded
        return _Family(integrand, 1.0 if q else 0.0, n - d, 0, ((1.0, 0),), checkpoint)

    if isinstance(f, CoordinateProduct):

        def integrand(z: float) -> float:
            return i_k_closed_form(n - 2, z, float(psi(z)[0]))

        def checkpoint(k: int, t: float) -> float:
            pv = float(psi(t)[0])
            if n == 2:
                return k * pv
            arg = t * pv ** (-1.0 / n)
            if arg <= 1.0:
                raise ValueError(f"checkpoint t={t} too small for the product criterion")
            return pv * math.log(arg) ** (n - 1)

        return _Family(integrand, 2.0**n * n, 0, n - 2, ((1.0, 0),), checkpoint)

    bands = band_system(f)
    if bands is None:
        raise ValueError("band systems need max power or single-coordinate max power parts")
    coords = [c for c, _, _ in bands]
    if len(set(coords)) != len(coords):
        raise ValueError(f"band coordinates must be distinct, got {coords}")
    ell = len(bands)
    if ell >= n:
        raise ValueError("need at least one unconstrained coordinate")
    # w_k = sum of 1/a_i over the bands that component k bounds
    w = [0.0] * f.component_count
    for _, a, k in bands:
        w[k] += 1.0 / a

    def band_product(vals: np.ndarray) -> float:
        prod = 1.0
        for v, wk in zip(vals, w):
            prod *= float(v) ** wk
        return prod

    return _Family(
        lambda z: band_product(psi(z)) * z ** (n - ell - 1),
        2.0**n * (n - ell),
        n - ell,
        0,
        tuple((a, k) for _, a, k in bands),
        lambda k, t: t ** (n - ell) * band_product(psi(t)),
    )


def shell_volume(
    f: TargetFunction,
    psi: ApproxFunction,
    norm: Norm,
    s_lo: float,
    t_hi: float,
) -> Quadrature:
    """Exact shell volume of f's family; requires ``norm`` to be the family norm."""
    fam = _shell_family(f, psi, norm)
    _require_shell(f, psi, s_lo, t_hi)
    return _shell_integral(fam, s_lo, t_hi)


def _shell_family(f: TargetFunction, psi: ApproxFunction, norm: Norm) -> _Family:
    """f's family, with ``norm`` checked to be its family norm."""
    if norm != f.canonical_norm():
        raise ValueError(
            "closed forms hold under the family norm "
            f"({f.canonical_norm()}), got {norm}"
        )
    return _family(f, psi)


def _shell_integral(fam: _Family, s_lo: float, t_hi: float) -> Quadrature:
    """The closed-form volume of the shell (s_lo, t_hi] of a checked family
    (``shell_volume`` once its shell has passed ``_require_shell``)."""
    q = adaptive_simpson(fam.integrand, s_lo, t_hi)
    return Quadrature(fam.scale * q.value, fam.scale * q.error)


# --------------------------------------------------------------------------
# Monte Carlo


def region_mask(
    f: TargetFunction,
    bound: Bound,
    norm: Norm,
    xs: np.ndarray,
    inner: float = 0.0,
    outer: float = math.inf,
) -> np.ndarray:
    """Boolean membership of the rows of ``xs`` in the bounded sublevel shell."""
    zs = norm.eval_many(xs)
    mask = (zs > inner) & (zs <= outer)
    if not mask.any():
        return mask
    tol = bound_values(bound, zs[mask], f.component_count)
    vals = np.abs(f.evaluate_many(xs[mask]))
    mask[mask.nonzero()[0]] = np.all(vals <= tol, axis=1)
    return mask


@dataclass(frozen=True)
class MCVolume:
    value: float
    stderr: float
    hits: int
    samples: int
    degenerate: bool  # no information at this sample size (0 or all hits)


def monte_carlo_region_volume(
    f: TargetFunction,
    bound: Bound,
    norm: Norm,
    outer: float,
    samples: int,
    seed: int = 0,
    inner: float = 0.0,
    chunk: int = 1_000_000,
) -> MCVolume:
    """Volume of { inner < nu(x) <= outer, |f(x)| <= bound } by rejection.

    Draws uniformly from the bounding cube [-outer, outer]^n (block norms
    dominate the sup norm, so the cube contains the region).  Work proceeds
    in fixed chunks of ``chunk`` samples, each with its own derived
    generator, and an order-fixed reduction, so results are reproducible
    for a given seed.  A chunk is drawn and tested in pieces of 4,096 rows,
    so the working set stays cache-sized; successive draws from one
    generator continue its stream, so the hits are those of one draw of the
    whole chunk.
    """
    if not samples > 0:
        raise ValueError("need a positive sample count")
    if not 0.0 <= inner < outer:
        raise ValueError(f"need 0 <= inner < outer, got ({inner}, {outer})")
    n = f.n
    if norm.dim != n:
        raise ValueError(f"norm dimension {norm.dim} does not match target n={n}")
    hits = 0
    done = 0
    index = 0
    while done < samples:
        take = min(chunk, samples - done)
        rng = np.random.default_rng(mix_seed(seed, index))
        for start in range(0, take, _REGION_ROWS):
            xs = rng.uniform(-outer, outer, size=(min(_REGION_ROWS, take - start), n))
            hits += int(region_mask(f, bound, norm, xs, inner, outer).sum())
        done += take
        index += 1
    box = (2.0 * outer) ** n
    p = hits / samples
    return MCVolume(
        value=box * p,
        stderr=box * math.sqrt(max(p * (1.0 - p), 0.0) / samples),
        hits=hits,
        samples=samples,
        degenerate=hits == 0 or hits == samples,
    )


# --------------------------------------------------------------------------
# convergence classification

# Every criterion reduces to one of two elementary facts:
#   * int^inf log^J(z) z^(-P) dz converges iff P > 1 (never at P = 1 for
#     J >= 0);
#   * sum_k (alpha k^beta rho^k)^(1-r) with r > 1 converges iff rho > 1, or
#     rho = 1 and beta (r-1) > 1.
# With the family's growth z^(A-1) log^B z prod psi_k^(1/a) and
# psi_k = C_k log^(j_k) z^(-s_k), the integrand decays like z^(-P) with
# P = s_eff - (A - 1), s_eff = sum s_k / a, and the checkpoint term grows like
# k^beta 2^(gamma k) with gamma = A - s_eff, beta = j_eff + B (one more log at
# A = 0, where the shell integral is harmonic).  These are exact in the
# family and bound parameters, so the classification is exact whenever those
# are exactly representable.


class Verdict(Enum):
    CONVERGES = "converges"
    DIVERGES = "diverges"


def _series_verdict(gamma: float, beta: float, r: float) -> Verdict:
    # terms (k^beta 2^(gamma k))^(1-r)
    if gamma > 0.0:
        return Verdict.CONVERGES
    if gamma < 0.0:
        return Verdict.DIVERGES
    return Verdict.CONVERGES if beta * (r - 1.0) > 1.0 else Verdict.DIVERGES


def classify_series(
    f: TargetFunction,
    psi: ApproxFunction,
    criterion: str = "asymptotic",
    r: float = 2.0,
) -> Verdict:
    """Exact convergence/divergence of the family's criterion.

    ``criterion`` = "asymptotic" classifies the volume integral governing
    whether the full region has finite measure; "uniform" classifies the
    dyadic series sum_k (term_k)^(1-r) governing the uniform statement along
    t_k = 2^k checkpoints (r > 1 is the variance-bound exponent).  A bounded
    region has finite measure and empty checkpoint shells (X_k = 0), so it
    converges under the first and diverges under the second.
    """
    if criterion not in ("asymptotic", "uniform"):
        raise ValueError(f"unknown criterion {criterion!r}")
    if criterion == "uniform" and not r > 1.0:
        raise ValueError(f"uniform criterion needs r > 1, got {r}")
    fam = _family(f, psi)
    if fam.scale == 0.0:
        return Verdict.CONVERGES if criterion == "asymptotic" else Verdict.DIVERGES
    s_eff = 0.0
    j_eff = 0.0
    for a, k in fam.bands:
        _, s, j = psi.components[k]
        s_eff += s / a
        j_eff += j / a
    if criterion == "asymptotic":
        # the log factor is nonnegative, so the critical power P = 1 diverges
        p_pow = s_eff - (fam.a_pow - 1.0)
        return Verdict.CONVERGES if p_pow > 1.0 else Verdict.DIVERGES
    beta = j_eff + fam.b_log + (1.0 if fam.a_pow == 0 else 0.0)
    return _series_verdict(fam.a_pow - s_eff, beta, r)


def criterion_terms(
    f: TargetFunction,
    psi: ApproxFunction,
    schedule: DyadicSchedule,
    r: float = 2.0,
) -> list[float]:
    """Numeric uniform-criterion terms X_k^(1-r) along the schedule.

    X_k is the exact volume-scale factor of the k-th checkpoint shell for
    the family (the quantity whose dyadic series the classifier decides).
    """
    if not r > 1.0:
        raise ValueError(f"need r > 1, got {r}")
    fam = _family(f, psi)
    out = []
    for k, t in zip(schedule.indices(), schedule.values()):
        x = fam.checkpoint(k, t) if fam.scale else 0.0  # bounded: empty shells
        if not x > 0:
            raise ValueError(f"nonpositive criterion term at k={k}")
        out.append(x ** (1.0 - r))
    return out


def verification_matrix() -> list[tuple[str, TargetFunction, ApproxFunction, float, float]]:
    """The nine-point cross-validation grid: three parameter points per
    closed-form family, each resolvable by rejection Monte Carlo (shell
    measure at least ~1e-4 of the sampling box).  Rows are
    (label, f, psi, s_lo, t_hi); the norm is always the family norm."""
    return [
        ("spf-flat", SignedPowerForm(1, 1, 2), power_law(0.5, 0.0, 0), 2.0, 6.0),
        ("spf-decay", SignedPowerForm(2, 1, 2), power_law(1.0, 0.5, 0), 2.0, 5.0),
        ("spf-log", SignedPowerForm(2, 2, 3), power_law(0.8, 1.0, 1), 1.5, 4.0),
        ("prod-flat", CoordinateProduct(2), power_law(0.5, 0.0, 0), 1.5, 5.0),
        ("prod-log", CoordinateProduct(3), power_law(1.0, 1.0, 1), 2.0, 4.0),
        ("prod-decay", CoordinateProduct(3), power_law(2.0, 0.5, 0), 1.5, 4.0),
        ("maxpow-pair", MaxPower((2.0, 1.5), 3), power_law(1.0, 0.5, 0), 2.0, 5.0),
        ("maxpow-slab", MaxPower((1.0,), 2), power_law(0.7, 0.0, 0), 1.0, 4.0),
        ("maxpow-wide", MaxPower((2.0, 1.0), 4), power_law(1.0, 1.0, 0), 2.0, 5.0),
    ]

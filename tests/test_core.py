"""Unit and property tests for the domain types, and the public-surface rule."""

import ast
import importlib
import math
import re
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genlat.core import (
    ApproxFunction,
    CoordinateProduct,
    DyadicSchedule,
    MaxPower,
    Norm,
    PointClass,
    SignedPowerForm,
    TargetFunction,
    VectorOf,
    block_norm,
    bound_values,
    lp_norm,
    max_norm,
    norm_spec,
    parse_norm,
    parse_psi,
    parse_target,
    power_law,
    psi_spec,
    target_spec,
)
from genlat.volume import region_mask

RNG = np.random.default_rng(20240819)


# --------------------------------------------------------------------------
# norms


def test_norm_euclidean_345():
    assert lp_norm(2, 2.0)((3.0, 4.0)) == pytest.approx(5.0, rel=1e-15)


def test_norm_max():
    assert max_norm(3)((1.0, -7.0, 2.0)) == 7.0


def test_norm_block_takes_max_of_blocks():
    nu = block_norm(((1, 2.0), (1, 2.0)))
    assert nu((3.0, 4.0)) == 4.0
    nu2 = block_norm(((2, 2.0), (1, 2.0)))
    assert nu2((3.0, 4.0, 1.0)) == 5.0


def test_norm_l1():
    assert lp_norm(3, 1.0)((1.0, -2.0, 3.0)) == 6.0


def test_norm_dimension_mismatch():
    with pytest.raises(ValueError):
        lp_norm(2, 2.0)((1.0, 2.0, 3.0))


def test_norm_validation():
    with pytest.raises(ValueError):
        Norm(())
    with pytest.raises(ValueError):
        Norm(((0, 2.0),))
    with pytest.raises(ValueError):
        Norm(((2, 0.5),))


@given(
    st.lists(st.floats(-50, 50), min_size=3, max_size=3),
    st.lists(st.floats(-50, 50), min_size=3, max_size=3),
    st.sampled_from([1.0, 1.5, 2.0, 3.0, None]),
)
def test_norm_axioms(xs, ys, d):
    nu = max_norm(3) if d is None else lp_norm(3, d)
    x = np.array(xs)
    y = np.array(ys)
    assert nu(x) >= 0
    assert nu(x + y) <= nu(x) + nu(y) + 1e-9
    assert nu(2.5 * x) == pytest.approx(2.5 * nu(x), abs=1e-9)


@given(st.lists(st.floats(-50, 50), min_size=4, max_size=4))
def test_block_norm_dominates_sup_norm(xs):
    nu = block_norm(((2, 2.0), (2, 1.0)))
    x = np.array(xs)
    assert nu(x) >= np.abs(x).max() - 1e-12


def test_eval_many_matches_scalar():
    nu = block_norm(((2, 2.0), (1, None)))
    xs = RNG.uniform(-5, 5, size=(40, 3))
    many = nu.eval_many(xs)
    for i in range(40):
        assert many[i] == pytest.approx(nu(xs[i]), rel=1e-14)


# The evaluators fold coordinate columns with ufuncs instead of reducing
# over axis 1; these are the axis reductions they replace, which they must
# match bit for bit (a sum over 8 or more columns keeps the reduction).


def _axis_norm(nu, xs):
    out = np.zeros(len(xs))
    i = 0
    for dim, d in nu.blocks:
        seg = np.abs(xs[:, i : i + dim])
        i += dim
        if d is None:
            v = seg.max(axis=1)
        elif d == 1.0:
            v = seg.sum(axis=1)
        elif d == 2.0:
            v = np.sqrt((seg * seg).sum(axis=1))
        else:
            v = (seg**d).sum(axis=1) ** (1.0 / d)
        np.maximum(out, v, out=out)
    return out


def _axis_target(f, xs):
    if isinstance(f, SignedPowerForm):
        powed = np.abs(xs) ** f.d
        return (powed[:, : f.p].sum(axis=1) - powed[:, f.p :].sum(axis=1))[:, None]
    if isinstance(f, CoordinateProduct):
        return xs.prod(axis=1)[:, None]
    cols = xs[:, list(f.resolved_coords())]
    return (np.abs(cols) ** np.asarray(f.exponents)).max(axis=1)[:, None]


def _axis_norms(width):
    exps = (None, 1.0, 2.0, 2.5, 3.0)
    out = [Norm(((width, d),)) for d in exps]
    for split in range(1, width):
        pairs = zip(exps, exps[2:] + exps[:2])
        out += [block_norm(((split, a), (width - split, b))) for a, b in pairs]
    return out


def _axis_targets(width):
    degrees = (1.0, 2.0, 2.5, 3.0)
    out = [SignedPowerForm(p, width - p, d) for p in range(1, width + 1) for d in degrees]
    if width >= 2:
        out.append(CoordinateProduct(width))
        out.append(MaxPower(tuple(1.0 + 0.5 * k for k in range(width - 1)), width))
        out.append(MaxPower((3.0, 2.0)[: width - 1], width, coords=(width - 1, 0)[: width - 1]))
    return out


@pytest.mark.parametrize("width", range(1, 10))
def test_column_folds_match_axis_reductions_bit_for_bit(width):
    rng = np.random.default_rng(width)
    xs = rng.standard_normal((20_000, width)) * rng.uniform(0.0, 50.0, size=(20_000, 1))
    for nu in _axis_norms(width):
        assert nu.eval_many(xs).tobytes() == _axis_norm(nu, xs).tobytes(), nu
    for f in _axis_targets(width):
        assert f.evaluate_many(xs).tobytes() == _axis_target(f, xs).tobytes(), f
    vs = rng.integers(-6, 7, size=(20_000, width))
    assert np.array_equal(PointClass.ALL_NONZERO.contains(vs), (vs != 0).any(axis=1))
    assert np.array_equal(
        PointClass.PRIMITIVE.contains(vs), np.gcd.reduce(np.abs(vs), axis=1) == 1
    )


# --------------------------------------------------------------------------
# bound functions


def test_psi_power_law_at_4():
    psi = power_law(1.0, 0.5, 0)
    assert psi(4.0)[0] == pytest.approx(0.5, rel=1e-15)


def test_psi_log_component_frozen_value():
    # C=1, s=1, j=2 at z = e^2 under the log(e+z) convention; frozen from a
    # 40-digit evaluation.  The pure-log variant of the same expression would
    # give 4 e^-2 = 0.54134...; the convention here is log(e+z) everywhere.
    psi = power_law(1.0, 1.0, 2)
    assert psi(math.e**2)[0] == pytest.approx(0.7242034115445520, rel=1e-14)


def test_psi_plateau_below_one():
    psi = power_law(3.0, 1.0, 1)
    v1 = psi(1.0)
    assert psi(0.0)[0] == v1[0]
    assert psi(0.7)[0] == v1[0]
    assert psi(1.0 + 1e-12)[0] == pytest.approx(v1[0], rel=1e-9)


def test_psi_vector_components():
    psi = ApproxFunction(((1.0, 0.5, 0), (2.0, 1.0, 0)))
    v = psi(4.0)
    assert v.shape == (2,)
    assert v[0] == pytest.approx(0.5)
    assert v[1] == pytest.approx(0.5)


def test_psi_validation():
    with pytest.raises(ValueError):
        ApproxFunction(((0.0, 1.0, 0),))
    with pytest.raises(ValueError):
        ApproxFunction(((1.0, -1.0, 0),))
    with pytest.raises(ValueError):
        ApproxFunction(((1.0, 1.0, -2),))
    with pytest.raises(ValueError):
        power_law().eval_many(np.array([-0.5]))


@pytest.mark.parametrize(
    "components",
    [
        ((1.0, 0.5, 0),),
        ((1.0, 2.0, 0),),
        ((1.0, 1.0, 2),),
        ((1.0, 0.5, 0), (2.0, 1.5, 1)),
        ((3.0, 1.0, 1),),
    ],
)
def test_psi_call_is_eval_many_bit_for_bit(components):
    """A single z gives eval_many([z])'s row exactly: the ratio volumes'
    bytes rest on it, and scalar math differs from the array path in the
    last bit for a few percent of values."""
    psi = ApproxFunction(components)
    zs = np.concatenate([np.linspace(0.0, 3000.0, 6001), np.geomspace(1e-6, 1e12, 2000)])
    for z in zs:
        got, want = psi(z), psi.eval_many(np.array([z]))[0]
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), z
    with pytest.raises(ValueError):
        psi(-0.5)
    assert np.isnan(psi(math.nan)).all()


@pytest.mark.parametrize(
    "components",
    [
        ((1.0, 0.5, 0),),
        ((2.0, 0.0, 0),),
        ((1.0, 1.0, 2),),
        ((1.0, 0.5, 0), (2.0, 1.5, 1), (0.5, 0.0, 3)),
    ],
)
def test_psi_eval_many_is_the_product_formula_bit_for_bit(components):
    """eval_many skips the factor log(e + z)^0 = 1 and writes its columns in
    place; the values are those of the full product, stacked."""
    zs = np.concatenate([np.linspace(0.0, 3000.0, 6001), np.geomspace(1e-6, 1e12, 2000)])
    zc = np.maximum(zs, 1.0)
    want = np.stack(
        [c * np.log(math.e + zc) ** j * zc ** (-s) for c, s, j in components], axis=1
    )
    got = ApproxFunction(components).eval_many(zs)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@given(
    st.floats(0.1, 10),
    st.floats(0, 3),
    st.integers(0, 2),
    st.floats(0, 50),
    st.floats(0, 50),
)
def test_psi_nonincreasing_when_power_dominates(coeff, s, j, z1, z2):
    # log(e+z)^j z^-s is nonincreasing on [1, inf) whenever
    # s >= j * sup_z z / ((e+z) log(e+z)) ~= 0.3183 j; test that regime only.
    if s < 0.33 * j:
        s = 0.33 * j + 0.01
    psi = power_law(coeff, s, j)
    lo, hi = min(z1, z2), max(z1, z2)
    assert psi(hi)[0] <= psi(lo)[0] * (1 + 1e-12)


def test_bound_values_fixed_and_psi():
    zs = np.array([0.5, 2.0, 8.0])
    fixed = bound_values((0.25, 1.5), zs, 2)
    assert fixed.shape == (3, 2)
    assert np.all(fixed[:, 0] == 0.25)
    psi = power_law(1.0, 1.0, 0)
    vals = bound_values(psi, zs, 1)
    assert vals[2, 0] == pytest.approx(0.125)
    with pytest.raises(ValueError):
        bound_values((0.25,), zs, 2)


# --------------------------------------------------------------------------
# target forms


def _at(f, x) -> np.ndarray:
    """Component values of f at a single point, shape (l,)."""
    return f.evaluate_many(np.asarray(x, dtype=float)[None, :])[0]


def test_spf_eval():
    f = SignedPowerForm(p=2, q=1, d=2.0)
    assert _at(f, (1.0, 2.0, 2.0))[0] == pytest.approx(1.0)
    assert f.n == 3 and f.degrees == (2.0,)


def test_spf_definite_when_q_zero():
    f = SignedPowerForm(p=2, q=0, d=3.0)
    assert _at(f, (1.0, -2.0))[0] == pytest.approx(9.0)


def test_product_eval():
    f = CoordinateProduct(n=3)
    assert _at(f, (2.0, -3.0, 0.5))[0] == pytest.approx(-3.0)
    assert f.degrees == (3.0,)


def test_maxpower_eval():
    f = MaxPower(exponents=(2.0, 3.0), n=4)
    assert _at(f, (2.0, 1.5, 9.0, 9.0))[0] == pytest.approx(4.0)
    assert f.degrees == (2.0,)


def test_maxpower_custom_coords():
    f = MaxPower(exponents=(1.0,), n=3, coords=(2,))
    assert _at(f, (5.0, 6.0, -0.25))[0] == pytest.approx(0.25)


def test_vector_target():
    f = VectorOf((SignedPowerForm(2, 1, 2.0), CoordinateProduct(3)))
    v = _at(f, (1.0, 1.0, 2.0))
    assert v.shape == (2,)
    assert v[0] == pytest.approx(-2.0)
    assert v[1] == pytest.approx(2.0)
    assert f.degrees == (2.0, 3.0)


def test_target_validation():
    with pytest.raises(ValueError):
        SignedPowerForm(p=0, q=1, d=2.0)
    with pytest.raises(ValueError):
        SignedPowerForm(p=1, q=1, d=0.5)
    with pytest.raises(ValueError):
        MaxPower(exponents=(2.0, 1.0), n=2)
    with pytest.raises(ValueError):
        MaxPower(exponents=(1.0,), n=3, coords=(3,))
    with pytest.raises(ValueError):
        VectorOf((SignedPowerForm(1, 1, 2.0), CoordinateProduct(3)))


@given(
    st.integers(1, 3),
    st.integers(0, 2),
    st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    st.floats(0.05, 1.0),
    st.lists(st.floats(-10, 10), min_size=5, max_size=5),
)
def test_spf_exact_homogeneity(p, q, d, t, xs):
    f = SignedPowerForm(p=p, q=q, d=d)
    x = np.array(xs[: f.n])
    left = _at(f, t * x)[0]
    right = t**d * _at(f, x)[0]
    assert left == pytest.approx(right, rel=1e-12, abs=1e-12)


@given(st.floats(0.05, 1.0), st.lists(st.floats(-10, 10), min_size=3, max_size=3))
def test_product_exact_homogeneity(t, xs):
    f = CoordinateProduct(3)
    x = np.array(xs)
    assert _at(f, t * x)[0] == pytest.approx(t**3 * _at(f, x)[0], rel=1e-12, abs=1e-12)


def subhomogeneity_witness(f, samples: int = 200, seed: int = 0, scale: float = 5.0) -> float:
    """Largest observed ratio |f(t x)|_i / (t^{d_i} |f(x)|_i) over random probes.

    At most 1 (to rounding) certifies subhomogeneity with the declared
    componentwise degrees on the probe set; the two power families are exactly
    homogeneous so the ratio sits at 1 whenever f(x) != 0.
    """
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-scale, scale, size=(samples, f.n))
    ts = rng.uniform(0.05, 1.0, size=samples)
    base = np.abs(f.evaluate_many(xs))
    scaled = np.abs(f.evaluate_many(xs * ts[:, None]))
    denom = ts[:, None] ** np.asarray(f.degrees)[None, :] * base
    ok = denom > 1e-12
    if not ok.any():
        return 0.0
    return float((scaled[ok] / denom[ok]).max())


def test_subhomogeneity_witness_families():
    for f in (
        SignedPowerForm(2, 1, 2.0),
        SignedPowerForm(1, 1, 1.5),
        CoordinateProduct(3),
        MaxPower((2.0, 3.0), 4),
        VectorOf((MaxPower((1.0,), 3, coords=(0,)), MaxPower((1.0,), 3, coords=(1,)))),
    ):
        assert subhomogeneity_witness(f) <= 1.0 + 1e-12


def test_canonical_norms():
    assert SignedPowerForm(2, 1, 2.0).canonical_norm() == block_norm(((2, 2.0), (1, 2.0)))
    assert SignedPowerForm(2, 0, 4.0).canonical_norm() == lp_norm(2, 4.0)
    assert CoordinateProduct(3).canonical_norm() == max_norm(3)


# --------------------------------------------------------------------------
# region membership and the scaling inclusion


def _in_b_set(f, eps, nu, big_t, x) -> bool:
    """x in { nu(x) <= T, |f(x)| <= eps }; the ball includes the origin, so
    the shell's inner radius sits below 0."""
    return bool(region_mask(f, eps, nu, np.asarray([x], dtype=float), -1.0, big_t)[0])


def test_in_b_set_basic():
    f = SignedPowerForm(2, 1, 2.0)
    nu = f.canonical_norm()
    assert _in_b_set(f, (0.5,), nu, 10.0, (1.0, 1.0, 1.4))
    assert not _in_b_set(f, (0.5,), nu, 10.0, (1.0, 1.0, 0.0))
    assert not _in_b_set(f, (0.5,), nu, 1.0, (1.0, 1.0, 1.4))


def test_in_a_set_shell():
    f = SignedPowerForm(1, 1, 1.0)
    nu = f.canonical_norm()
    psi = power_law(1.0, 0.0, 0)  # constant 1
    x = np.array([[4.0, 4.5]])
    assert region_mask(f, psi, nu, x, inner=2.0, outer=8.0)[0]
    assert not region_mask(f, psi, nu, x, inner=5.0, outer=8.0)[0]


@given(
    st.floats(0.1, 1.0),
    st.floats(0.05, 4.0),
    st.floats(1.0, 20.0),
    st.lists(st.floats(-8, 8), min_size=3, max_size=3),
)
@settings(max_examples=200)
def test_b_set_scaling_inclusion(t, eps, big_t, xs):
    # scaling by t in (0,1] maps {nu <= T, |f| <= eps} into
    # {nu <= tT, |f| <= t^d eps} for a degree-d subhomogeneous f
    f = SignedPowerForm(2, 1, 2.0)
    nu = f.canonical_norm()
    x = np.array(xs)
    if _in_b_set(f, (eps,), nu, big_t, x):
        d = f.degrees[0]
        assert _in_b_set(f, (t**d * eps * (1 + 1e-9),), nu, t * big_t * (1 + 1e-12), t * x)


# --------------------------------------------------------------------------
# schedules and point classes


def test_schedule_values_exact_powers():
    sched = DyadicSchedule(t0=1.0, ratio=2.0, k0=4, kmax=9)
    assert sched.values() == [16.0, 32.0, 64.0, 128.0, 256.0, 512.0]


def test_schedule_strictly_increasing_and_exact_ratio():
    sched = DyadicSchedule(t0=3.0, ratio=2.0, k0=0, kmax=10)
    vals = sched.values()
    for a, b in zip(vals, vals[1:]):
        assert b == 2.0 * a  # float-exact for ratio 2 and integer t0


def test_schedule_validation():
    with pytest.raises(ValueError):
        DyadicSchedule(t0=1.0, ratio=1.0, k0=0, kmax=3)
    with pytest.raises(ValueError):
        DyadicSchedule(t0=1.0, ratio=2.0, k0=5, kmax=3)


def test_point_class_members():
    assert PointClass("nonzero") is PointClass.ALL_NONZERO
    assert {c.value for c in PointClass} == {"nonzero", "primitive", "all"}


# --------------------------------------------------------------------------
# spec strings: examples and round trips


def test_parse_norm_examples():
    assert parse_norm("max", 3) == max_norm(3)
    assert parse_norm("ld:2", 4) == lp_norm(4, 2.0)
    assert parse_norm("block:1:2,1:2", 2) == block_norm(((1, 2.0), (1, 2.0)))
    assert parse_norm("block:2:1,1:inf", 3) == block_norm(((2, 1.0), (1, None)))


def test_parse_norm_errors():
    with pytest.raises(ValueError):
        parse_norm("euclid", 2)
    with pytest.raises(ValueError):
        parse_norm("block:1:2", 3)  # dims do not sum to n


def test_parse_psi_examples():
    assert parse_psi("pl:C=1,s=1,j=0") == power_law(1.0, 1.0, 0)
    psi = parse_psi("pl:C=2,s=0.5,j=1;C=1,s=2,j=0")
    assert psi.components == ((2.0, 0.5, 1), (1.0, 2.0, 0))


def test_parse_target_examples():
    assert parse_target("spf:p=2,q=1,d=2") == SignedPowerForm(2, 1, 2.0)
    assert parse_target("prod:n=3") == CoordinateProduct(3)
    assert parse_target("maxpow:a=2|3,n=4") == MaxPower((2.0, 3.0), 4)
    f = parse_target("vec:maxpow:a=1,n=3,c=0;maxpow:a=1,n=3,c=1")
    assert isinstance(f, VectorOf) and f.component_count == 2


def test_parse_target_errors():
    with pytest.raises(ValueError):
        parse_target("spf:p=2,q=1")  # missing d
    with pytest.raises(ValueError):
        parse_target("spf:p=2,q=1,d=2,zz=1")
    with pytest.raises(ValueError):
        parse_psi("pl:C=1,s=1,q=0")


norm_strategy = st.one_of(
    st.builds(max_norm, st.integers(1, 5)),
    st.builds(lp_norm, st.integers(1, 5), st.sampled_from([1.0, 1.5, 2.0, 4.0])),
    st.builds(
        lambda a, b, da, db: block_norm(((a, da), (b, db))),
        st.integers(1, 3),
        st.integers(1, 3),
        st.sampled_from([1.0, 2.0, None]),
        st.sampled_from([2.0, 3.0, None]),
    ),
)


@given(norm_strategy)
def test_norm_spec_round_trip(nu):
    assert parse_norm(norm_spec(nu), nu.dim) == nu


psi_strategy = st.builds(
    lambda comps: ApproxFunction(tuple(comps)),
    st.lists(
        st.tuples(
            st.sampled_from([0.5, 1.0, 2.0, 3.25]),
            st.sampled_from([0.0, 0.5, 1.0, 2.0]),
            st.integers(0, 3),
        ),
        min_size=1,
        max_size=3,
    ),
)


@given(psi_strategy)
def test_psi_spec_round_trip(psi):
    assert parse_psi(psi_spec(psi)) == psi


target_strategy = st.one_of(
    st.builds(
        SignedPowerForm,
        st.integers(1, 3),
        st.integers(0, 3),
        st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    ),
    st.builds(CoordinateProduct, st.integers(2, 5)),
    st.builds(
        lambda exps, n: MaxPower(tuple(exps), n + len(exps)),
        st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=1, max_size=3),
        st.integers(1, 3),
    ),
    # explicit coordinates: the first l entries of a permutation of range(n)
    st.builds(
        lambda exps, perm: MaxPower(tuple(exps), len(perm), tuple(perm[: len(exps)])),
        st.lists(st.sampled_from([1.0, 1.5, 2.0, 3.0]), min_size=1, max_size=3),
        st.permutations(range(4)),
    ),
)


@st.composite
def _mixed_vectors(draw):
    """Vectors of different part families sharing one ambient n."""
    n = draw(st.integers(2, 4))
    pool = [
        SignedPowerForm(1, n - 1, draw(st.sampled_from([1.0, 2.0, 3.0]))),
        CoordinateProduct(n),
        MaxPower((draw(st.sampled_from([1.0, 2.0])),), n, (draw(st.integers(0, n - 1)),)),
    ]
    return VectorOf(tuple(draw(st.permutations(pool))[: draw(st.integers(2, 3))]))


@given(
    st.one_of(
        target_strategy,
        st.builds(lambda f: VectorOf((f, f)), target_strategy),
        _mixed_vectors(),
    )
)
def test_target_spec_round_trip(f):
    assert parse_target(target_spec(f)) == f


# --------------------------------------------------------------------------
# public surface: every exported name has a caller outside the tests

_ROOT = Path(__file__).resolve().parents[1]

# criterion_terms stays public as the numeric oracle that the uniform-criterion
# tests compare classify_series against; no program path needs it
_TEST_ORACLES = {("volume", "criterion_terms")}


def _without_annotations(source: str) -> str:
    """The source with every type annotation blanked: a name that only types
    a parameter, a return value or a field has no caller there."""
    tree = ast.parse(source)
    spans = [
        node.annotation if isinstance(node, (ast.arg, ast.AnnAssign)) else node.returns
        for node in ast.walk(tree)
        if isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    # offsets count utf-8 bytes, so blank the encoded source
    data = bytearray(source.encode())
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    for node in spans:
        if node is not None:
            lo = starts[node.lineno - 1] + node.col_offset
            hi = starts[node.end_lineno - 1] + node.end_col_offset
            data[lo:hi] = re.sub(rb"\S", b" ", bytes(data[lo:hi]))
    return data.decode()


@pytest.mark.parametrize("module", ["core", "haar", "volume", "counting", "experiments"])
def test_public_names_have_callers_outside_tests(module):
    paths = [
        *(_ROOT / "src" / "genlat").glob("*.py"),
        *(p for p in (_ROOT / "scripts").rglob("*") if p.is_file()),
        *(_ROOT / "benchmark").glob("*.py"),
    ]
    texts = [_without_annotations(p.read_text()) if p.suffix == ".py" else p.read_text() for p in paths]
    uncalled = []
    for name in importlib.import_module(f"genlat.{module}").__all__:
        if (module, name) in _TEST_ORACLES:
            continue
        # drop the name's own def/class line and its __all__ entry
        own = re.compile(rf'^\s*(?:def|class) {name}\b.*$|^\s*"{name}",$', re.M)
        word = re.compile(rf"\b{name}\b")
        if not any(word.search(own.sub("", t)) for t in texts):
            uncalled.append(name)
    assert uncalled == []


def test_counting_tells_target_classes_apart_in_one_function():
    """Counting keeps its family dispatch in one solver table: a new engine
    must become a table entry, not another isinstance branch."""
    classes = {c.__name__ for c in typing.get_args(TargetFunction)}
    tree = ast.parse((_ROOT / "src" / "genlat" / "counting.py").read_text())
    owners = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                named = {getattr(x, "id", getattr(x, "attr", None)) for x in ast.walk(node.args[1])}
                if named & classes:
                    owners.add(fn.name)
    assert owners == {"_slot_solvers"}


def test_dichotomy_experiments_draw_and_count_in_one_function_each():
    """The dichotomy experiments share one map-draw rule and one counting
    worker: a new experiment passes its shells to them instead of drawing
    or counting on its own."""
    tree = ast.parse((_ROOT / "src" / "genlat" / "experiments.py").read_text())
    callers = {"count_solutions": set(), "sample_sl": set(), "sample_asl": set()}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in callers:
                callers[node.func.id].add(fn.name)
    assert callers["count_solutions"] == {"_count_map"}
    assert callers["sample_sl"] | callers["sample_asl"] == {"draw_map"}


def test_point_classes_are_defined_once():
    """"Nonzero" and "primitive" are ``PointClass.contains``: no other
    module of the package tests a gcd or a nonzero row on its own."""
    for path in (_ROOT / "src" / "genlat").glob("*.py"):
        if path.name == "core.py":
            continue
        text = path.read_text()
        assert "np.gcd" not in text, path.name
        assert not re.search(r"!= 0\)\.any\(", text), path.name


def test_config_keys_are_named_only_by_the_cli():
    """Config keys are the command line's names: the CLI maps each one to
    its ``ExperimentConfig`` field, and no other module of the package
    names one."""
    keys = ("sampleCount", "shiftBound", "pointClass", "masterSeed")
    for path in (_ROOT / "src" / "genlat").glob("*.py"):
        if path.name != "cli.py":
            text = path.read_text()
            assert not [key for key in keys if key in text], path.name

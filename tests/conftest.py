"""Shared test tooling: randomized count-query generation and witness checks.

The counting tests and the acceptance suite both compare the pruned counter
against the brute-force scan over randomized queries; the generator lives
here so both draw from the same distribution over families, bounds, norms,
point classes, and shell spaces.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from genlat.core import (
    ApproxFunction,
    CoordinateProduct,
    MaxPower,
    PointClass,
    SignedPowerForm,
    VectorOf,
    bound_values,
    lp_norm,
    max_norm,
)
from genlat.counting import CountQuery, is_primitive
from genlat.haar import identity_map, sample_asl, sample_sl

_CLASSES = (PointClass.ALL_NONZERO, PointClass.PRIMITIVE, PointClass.ALL_INTEGER)


def _random_target(rng, n):
    fam = ["spf", "product", "maxpow", "bands"][int(rng.integers(4))]
    if fam == "spf":
        d = float(rng.choice([1.0, 1.5, 2.0, 2.5, 3.0, 4.0]))
        p = int(rng.integers(1, n + 1))
        return SignedPowerForm(p, n - p, d)
    if fam == "product":
        return CoordinateProduct(n)
    if fam == "maxpow":
        l = int(rng.integers(1, n))
        coords = tuple(int(c) for c in rng.choice(n, size=l, replace=False))
        exps = tuple(float(rng.choice([1.0, 1.5, 2.0])) for _ in range(l))
        return MaxPower(exps, n, coords)
    l = int(rng.integers(1, n))
    coords = rng.choice(n, size=l, replace=False)
    parts = tuple(
        MaxPower((float(rng.choice([1.0, 2.0])),), n, (int(c),)) for c in coords
    )
    return VectorOf(parts)


def _random_bound(rng, component_count):
    if rng.random() < 0.5:
        return tuple(
            float(np.exp(rng.uniform(np.log(0.2), np.log(6.0))))
            for _ in range(component_count)
        )
    comps = tuple(
        (
            float(rng.uniform(0.5, 3.0)),
            float(rng.uniform(0.0, 1.2)),
            int(rng.integers(0, 2)),
        )
        for _ in range(component_count)
    )
    return ApproxFunction(comps)


def _box_cells(g, n, t, shell_space):
    if shell_space == "v":
        side = 2 * int(t) + 1
        return side**n
    reach = np.abs(g.inverse_h()) @ (t + np.abs(g.z))
    cells = 1
    for b in np.floor(reach + 1e-9):
        cells *= 2 * int(b) + 1
    return cells


def make_random_query(rng) -> CountQuery:
    """One randomized query with a brute-force-checkable box."""
    while True:
        n = int(rng.integers(2, 4))
        f = _random_target(rng, n)
        bound = _random_bound(rng, f.component_count)
        norm_kind = int(rng.integers(3))
        norm = (f.canonical_norm(), max_norm(n), lp_norm(n, 2.0))[norm_kind]
        shell_space = "w" if rng.random() < 0.3 else "v"
        g_kind = int(rng.integers(3))
        if g_kind == 0:
            g = identity_map(n)
        elif g_kind == 1:
            g = sample_sl(n, rng)
        else:
            g = sample_asl(n, rng, shift_bound=0.8)
        t_hi = 22.0 if n == 2 else 10.0
        t = float(rng.uniform(4.0, t_hi))
        t0 = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.5, 0.6 * t))
        if _box_cells(g, n, t, shell_space) > 4_000_000:
            continue
        return CountQuery(
            g=g,
            f=f,
            bound=bound,
            norm=norm,
            point_class=_CLASSES[int(rng.integers(3))],
            t0=t0,
            t=t,
            shell_space=shell_space,
        )


def assert_valid_witness(q: CountQuery, res) -> None:
    assert (res.count == 0) == (res.first_witness is None)
    if res.first_witness is None:
        return
    v = np.asarray(res.first_witness, dtype=float)
    w = q.g.apply(v)
    r = q.norm(v) if q.shell_space == "v" else q.norm(w)
    assert q.t0 < r <= q.t
    tol = bound_values(q.bound, np.asarray([r]), q.f.component_count)[0]
    assert np.all(np.abs(q.f.evaluate_many(w[None, :])[0]) <= tol * (1.0 + 1e-12))
    if q.point_class is PointClass.ALL_NONZERO:
        assert np.any(v != 0)
    elif q.point_class is PointClass.PRIMITIVE:
        assert is_primitive(np.asarray(res.first_witness))


@pytest.fixture(scope="session")
def counting_tools():
    return SimpleNamespace(
        make_random_query=make_random_query,
        assert_valid_witness=assert_valid_witness,
    )

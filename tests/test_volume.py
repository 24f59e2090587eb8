"""Volume module tests: quadrature, special functions, closed forms vs
symbolic anchors and Monte Carlo, and the convergence classifiers against
independent numeric growth oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genlat.core import (
    ApproxFunction,
    CoordinateProduct,
    DyadicSchedule,
    MaxPower,
    SignedPowerForm,
    VectorOf,
    max_norm,
    mix_seed,
    power_law,
)
from genlat.volume import (
    MCVolume,
    Quadrature,
    Verdict,
    adaptive_simpson,
    classify_series,
    criterion_terms,
    i_k_closed_form,
    monte_carlo_region_volume,
    region_mask,
    shell_volume,
    threshold_M,
    unit_ball_volume_ld,
    verification_matrix,
    zeta_fn,
)

LN2 = math.log(2.0)


# --------------------------------------------------------------------------
# quadrature


class TestAdaptiveSimpson:
    def test_sine(self):
        q = adaptive_simpson(math.sin, 0.0, math.pi)
        assert abs(q.value - 2.0) < 1e-9
        assert q.error < 1e-6

    def test_reciprocal(self):
        q = adaptive_simpson(lambda x: 1.0 / x, 1.0, math.e)
        assert abs(q.value - 1.0) < 1e-9

    def test_kinked_min(self):
        # non-smooth integrand: min(1, 0.3/x) has a corner at x = 0.3
        q = adaptive_simpson(lambda x: min(1.0, 0.3 / x) if x > 0 else 1.0, 0.0, 1.0)
        exact = 0.3 + 0.3 * math.log(1.0 / 0.3)
        assert abs(q.value - exact) < 1e-7

    def test_degenerate_interval(self):
        assert adaptive_simpson(math.exp, 2.0, 2.0) == Quadrature(0.0, 0.0)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            adaptive_simpson(math.exp, 1.0, 0.0)

    def test_additive_over_split(self):
        f = lambda x: math.exp(-x) * x**2
        whole = adaptive_simpson(f, 0.0, 5.0).value
        parts = adaptive_simpson(f, 0.0, 2.0).value + adaptive_simpson(f, 2.0, 5.0).value
        assert abs(whole - parts) < 1e-9


# --------------------------------------------------------------------------
# special functions


class TestZeta:
    # reference values computed with mpmath at 50 digits
    REFERENCE = {
        1.5: 2.612375348685488,
        2.0: 1.6449340668482264,
        2.5: 1.341487257250917,
        3.0: 1.2020569031595942,
        4.0: 1.0823232337111381,
        5.0: 1.03692775514337,
        7.0: 1.008349277381923,
    }

    def test_reference_values(self):
        for s, ref in self.REFERENCE.items():
            assert abs(zeta_fn(s) - ref) <= 5e-15 * ref

    def test_basel(self):
        assert abs(zeta_fn(2.0) - math.pi**2 / 6.0) < 1e-15

    def test_fourth_power(self):
        assert abs(zeta_fn(4.0) - math.pi**4 / 90.0) < 1e-15

    def test_rejects_pole_and_left_of_it(self):
        for bad in (1.0, 0.5, 0.0, -2.0):
            with pytest.raises(ValueError):
                zeta_fn(bad)


class TestBallVolumes:
    def test_euclidean_disc(self):
        v, vr = unit_ball_volume_ld(2, 2)
        assert abs(v - math.pi) < 1e-14
        assert abs(vr - 2.0 * math.pi) < 1e-13

    def test_euclidean_ball(self):
        v, _ = unit_ball_volume_ld(3, 2)
        assert abs(v - 4.0 * math.pi / 3.0) < 1e-14

    def test_cross_polytope(self):
        # l^1 ball in the plane is a diamond of area 2
        assert unit_ball_volume_ld(2, 1) == (2.0, 4.0)

    def test_sup_ball_is_cube(self):
        assert unit_ball_volume_ld(4, None) == (16.0, 64.0)

    def test_segment(self):
        assert unit_ball_volume_ld(1, 7.3) == (2.0, 2.0)

    def test_point(self):
        assert unit_ball_volume_ld(0, 2) == (1.0, 0.0)

    def test_radial_factor_is_derivative(self):
        for k, d in [(2, 2), (3, 1), (4, 3.5), (3, None)]:
            v, vr = unit_ball_volume_ld(k, d)
            h = 1e-6
            numeric = (v * (1 + h) ** k - v * (1 - h) ** k) / (2 * h)
            assert abs(numeric - vr) < 1e-4 * max(vr, 1.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            unit_ball_volume_ld(-1, 2)
        with pytest.raises(ValueError):
            unit_ball_volume_ld(2, 0.5)


# --------------------------------------------------------------------------
# threshold radius


class TestThresholdRadius:
    def test_crossing_at_one(self):
        # z^(-1/2) < z^2 exactly for z > 1, so the padded radius is 1.01
        m = threshold_M(SignedPowerForm(1, 1, 2), power_law(1.0, 0.5, 0))
        assert abs(m - 1.01) < 1e-9

    def test_large_coefficient(self):
        # 100/z < z^2 crosses at z = 100^(1/3)
        m = threshold_M(SignedPowerForm(1, 1, 2), power_law(100.0, 1.0, 0))
        assert abs(m - 1.01 * 100.0 ** (1.0 / 3.0)) < 1e-9

    def test_clamped_to_one(self):
        assert threshold_M(SignedPowerForm(1, 1, 2), power_law(0.5, 1.0, 0)) == 1.0

    def test_condition_holds_past_m(self):
        f = CoordinateProduct(3)
        psi = power_law(7.0, 0.25, 2)
        m = threshold_M(f, psi)
        for z in [m, 1.5 * m, 10 * m, 1e6 * m]:
            assert float(psi(z)[0]) < z**f.degrees[0]

    def test_componentwise(self):
        f = VectorOf((MaxPower((1.0,), 3, (0,)), MaxPower((2.0,), 3, (1,))))
        psi = ApproxFunction(((50.0, 0.0, 0), (0.5, 0.0, 0)))
        m = threshold_M(f, psi)
        # first band needs 50 < z, second needs 0.5 < z^2; first binds
        assert abs(m - 1.01 * 50.0) < 1e-6

    def test_component_count_mismatch(self):
        with pytest.raises(ValueError):
            threshold_M(SignedPowerForm(1, 1, 2), ApproxFunction(((1.0, 0.0, 0),) * 2))

    def test_unreachable_crossing(self):
        with pytest.raises(ValueError):
            threshold_M(MaxPower((1.0,), 2), power_law(2.0**250, 0.0, 0))

    @pytest.mark.parametrize(
        "f, psi",
        [
            (SignedPowerForm(2, 1, 2), power_law(1.0, 0.5, 0)),
            (SignedPowerForm(2, 1, 2.5), power_law(3.0, 0.5, 0)),
            (SignedPowerForm(1, 2, 3), power_law(100.0, 1.0, 0)),
            (CoordinateProduct(2), power_law(5.0, 0.5, 0)),
            (CoordinateProduct(3), power_law(7.0, 0.25, 2)),
            (MaxPower((2.0, 1.0), 3), power_law(40.0, 0.1, 1)),
            (VectorOf((MaxPower((1.0,), 3, (0,)), MaxPower((2.0,), 3, (1,)))),
             ApproxFunction(((50.0, 0.0, 0), (0.5, 0.0, 0)))),
        ],
        ids=["spf-d2", "spf-d2.5", "spf-d3", "prod-n2", "prod-n3-log", "maxpow-log", "bands"],
    )
    def test_bisection_stops_at_adjacent_doubles(self, f, psi):
        """The result is the one a fixed 200-step bisection gives, bit for bit."""
        degrees = np.asarray(f.degrees)

        def clear(z):
            return bool(np.all(psi(z) < z**degrees))

        assert not clear(1.0)
        lo, hi = 1.0, 2.0
        while not clear(hi):
            lo, hi = hi, hi * 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if clear(mid):
                hi = mid
            else:
                lo = mid
        assert threshold_M(f, psi) == max(1.0, hi * 1.01)


# --------------------------------------------------------------------------
# the product-family kernel


def kernel_by_recursion(k: int, z: float, c: float) -> float:
    """K_k(z, c) = int_0^z K_{k-1}(z, c/y) dy, with K computed in closed form
    one level down.  The y -> 0 limit saturates at z^k."""

    def integrand(y: float) -> float:
        if y == 0.0:
            return z**k
        return i_k_closed_form(k - 1, z, c / y)

    return adaptive_simpson(integrand, 0.0, z).value


def kernel_by_single_integral(k: int, z: float, c: float) -> float:
    """Independent oracle: after substituting the total log-volume of the
    dummy coordinates, K_k collapses to one integral

        int_{-inf}^{k log z} min(z, (c/z) e^(-w)) e^w (k log z - w)^(k-1)
                             / (k-1)!  dw.
    """
    top = k * math.log(z)

    def integrand(w: float) -> float:
        val = min(z, (c / z) * math.exp(-w))
        return val * math.exp(w) * (top - w) ** (k - 1) / math.factorial(k - 1)

    return adaptive_simpson(integrand, top - 80.0, top).value


class TestProductKernel:
    def test_k0_is_plain_min(self):
        assert i_k_closed_form(0, 2.0, 1.0) == 0.5
        assert i_k_closed_form(0, 2.0, 5.0) == 2.0

    def test_k1_hand_value(self):
        z, c = 2.0, 3.0
        expect = (c / z) * (1.0 + math.log(z**3 / c))
        assert abs(i_k_closed_form(1, z, c) - expect) < 1e-15

    def test_saturated_branch(self):
        for k in range(5):
            assert i_k_closed_form(k, 3.0, 3.0 ** (k + 2) * 1.5) == 3.0 ** (k + 1)

    def test_zero_bound(self):
        assert i_k_closed_form(3, 2.0, 0.0) == 0.0

    def test_seam_continuity(self):
        for k in range(5):
            z = 2.0
            c = z ** (k + 2)
            below = i_k_closed_form(k, z, c * (1 - 1e-12))
            above = i_k_closed_form(k, z, c * (1 + 1e-12))
            assert abs(below - above) <= 1e-10 * above

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_recursion(self, k):
        for z, c in [(2.0, 1.0), (3.0, 10.0), (1.5, 0.2), (2.0, 2.0 ** (k + 2) * 4)]:
            got = i_k_closed_form(k, z, c)
            ref = kernel_by_recursion(k, z, c)
            assert abs(got - ref) <= 1e-6 * max(ref, 1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_single_integral_oracle(self, k):
        for z, c in [(2.0, 1.0), (3.0, 7.0), (1.25, 0.05)]:
            got = i_k_closed_form(k, z, c)
            ref = kernel_by_single_integral(k, z, c)
            assert abs(got - ref) <= 1e-7 * max(ref, 1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            i_k_closed_form(-1, 2.0, 1.0)
        with pytest.raises(ValueError):
            i_k_closed_form(2, 0.0, 1.0)
        with pytest.raises(ValueError):
            i_k_closed_form(2, 2.0, -1.0)

    @given(
        k=st.integers(0, 4),
        z=st.floats(1.1, 50.0),
        c1=st.floats(1e-6, 1e6),
        c2=st.floats(1e-6, 1e6),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_bound_and_capped(self, k, z, c1, c2):
        lo, hi = sorted((c1, c2))
        a, b = i_k_closed_form(k, z, lo), i_k_closed_form(k, z, hi)
        assert a <= b * (1 + 1e-12)
        assert b <= z ** (k + 1) * (1 + 1e-12)


# --------------------------------------------------------------------------
# closed-form shell volumes


class TestShellSymbolicAnchors:
    def test_product_plane_power_law(self):
        # 2^2 * 2 * int_2^32 z^(-2) dz = 8 (1/2 - 1/32) = 3.75
        f = CoordinateProduct(2)
        q = shell_volume(f, power_law(1.0, 1.0, 0), f.canonical_norm(), 2.0, 32.0)
        assert abs(q.value - 3.75) <= 1e-7

    def test_product_plane_constant(self):
        f = CoordinateProduct(2)
        q = shell_volume(f, power_law(0.25, 0.0, 0), f.canonical_norm(), 1.0, 10.0)
        assert abs(q.value - 2.0 * math.log(10.0)) <= 1e-7

    def test_product_space_constant(self):
        # kernel K_1(z, c) = (c/z)(1 + 3 log z - log c) integrates by hand
        f = CoordinateProduct(3)
        c, lo, hi = 1.0, 2.0, 8.0
        q = shell_volume(f, power_law(c, 0.0, 0), f.canonical_norm(), lo, hi)
        anti = lambda z: c * ((1.0 - math.log(c)) * math.log(z) + 1.5 * math.log(z) ** 2)
        expect = 24.0 * (anti(hi) - anti(lo))
        assert abs(q.value - expect) <= 1e-6 * expect

    def test_signed_power_linear(self):
        # d = 1 collapses to 8 int psi: with psi = 1/z on [2,16] that is 8 log 8
        f = SignedPowerForm(1, 1, 1)
        q = shell_volume(f, power_law(1.0, 1.0, 0), f.canonical_norm(), 2.0, 16.0)
        assert abs(q.value - 8.0 * math.log(8.0)) <= 1e-7

    def test_max_power_pair(self):
        # two linear bands in R^3: 8 int psi^2 = 8 log 10 for psi = z^(-1/2)
        f = MaxPower((1.0, 1.0), 3)
        q = shell_volume(f, power_law(1.0, 0.5, 0), f.canonical_norm(), 2.0, 20.0)
        assert abs(q.value - 8.0 * math.log(10.0)) <= 1e-7

    def test_component_bands(self):
        f = VectorOf((MaxPower((1.0,), 3, (0,)), MaxPower((1.0,), 3, (1,))))
        psi = ApproxFunction(((0.3, 0.0, 0), (0.2, 0.0, 0)))
        q = shell_volume(f, psi, f.canonical_norm(), 1.0, 5.0)
        assert abs(q.value - 8.0 * 0.3 * 0.2 * 4.0) <= 1e-9

    def test_definite_form_has_empty_shell(self):
        # with q = 0 the form equals the norm power, impossible past the threshold
        f = SignedPowerForm(2, 0, 2)
        q = shell_volume(f, power_law(1.0, 0.5, 0), f.canonical_norm(), 2.0, 8.0)
        assert q.value == 0.0

    def test_shell_additivity(self):
        f = SignedPowerForm(2, 1, 2)
        psi = power_law(1.0, 0.5, 1)
        nm = f.canonical_norm()
        whole = shell_volume(f, psi, nm, 2.0, 32.0).value
        split = (
            shell_volume(f, psi, nm, 2.0, 11.0).value
            + shell_volume(f, psi, nm, 11.0, 32.0).value
        )
        assert abs(whole - split) <= 1e-7 * whole

    def test_no_underflow_in_far_shells(self):
        # regression: 1-(1-w)^a must not cancel to zero for w ~ 1e-18
        f = SignedPowerForm(3, 1, 2)
        psi = power_law(1.0, 2.0, 0)
        nm = f.canonical_norm()
        inc17 = shell_volume(f, psi, nm, 2.0**17, 2.0**18).value
        inc18 = shell_volume(f, psi, nm, 2.0**18, 2.0**19).value
        assert inc17 > 0 and inc18 > 0
        # s - (n-d-1) = 1: exactly harmonic increments
        assert abs(inc18 / inc17 - 1.0) < 1e-6

    def test_far_shell_ratio_matches_power(self):
        f = SignedPowerForm(2, 1, 2)
        psi = power_law(1.0, 1.5, 0)
        nm = f.canonical_norm()
        inc = [shell_volume(f, psi, nm, 2.0**m, 2.0 ** (m + 1)).value for m in (17, 18)]
        assert abs(inc[1] / inc[0] - 2.0**-0.5) < 1e-4

    @given(c=st.floats(0.1, 5.0))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_coefficient(self, c):
        f = CoordinateProduct(2)
        nm = f.canonical_norm()
        lo = shell_volume(f, power_law(c, 1.0, 0), nm, 2.0, 16.0).value
        hi = shell_volume(f, power_law(c * 1.5, 1.0, 0), nm, 2.0, 16.0).value
        assert lo <= hi * (1 + 1e-12)


# shell_volume (value, error) on the nine verification points, pinned so a
# change of formula shows even where Monte Carlo stderr would hide it
PINNED_SHELLS = {
    "spf-flat": (2.2260212648974544, 7.96058681168388e-08),
    "spf-decay": (20.828579243003013, 4.519861963222145e-07),
    "spf-log": (43.591077064615064, 1.234928885699797e-06),
    "prod-flat": (4.815891218395444, 1.5884628427424258e-07),
    "prod-log": (46.0033887244213, 9.682726747950455e-07),
    "prod-decay": (100.3480188396415, 3.543175076980986e-06),
    "maxpow-pair": (11.914918270524588, 2.1962881156708153e-07),
    "maxpow-slab": (8.4, 0.0),
    "maxpow-wide": (52.59868257953153, 1.204311672875491e-06),
}


@pytest.mark.parametrize(
    "label, f, psi, lo, hi", verification_matrix(), ids=[row[0] for row in verification_matrix()]
)
def test_closed_forms_pinned(label, f, psi, lo, hi):
    q = shell_volume(f, psi, f.canonical_norm(), lo, hi)
    np.testing.assert_allclose(tuple(q), PINNED_SHELLS[label], rtol=1e-12, atol=0.0)


class TestShellValidation:
    def test_wrong_norm_rejected(self):
        f = SignedPowerForm(1, 1, 2)
        with pytest.raises(ValueError, match="family norm"):
            shell_volume(f, power_law(1.0, 1.0, 0), max_norm(2), 2.0, 4.0)

    def test_shell_must_start_past_threshold(self):
        f = SignedPowerForm(1, 1, 2)
        psi = power_law(100.0, 1.0, 0)
        with pytest.raises(ValueError, match="threshold"):
            shell_volume(f, psi, f.canonical_norm(), 2.0, 10.0)

    def test_reversed_shell_rejected(self):
        f = SignedPowerForm(1, 1, 2)
        with pytest.raises(ValueError):
            shell_volume(f, power_law(0.5, 1.0, 0), f.canonical_norm(), 8.0, 4.0)

    def test_vector_bound_on_scalar_family_rejected(self):
        f = CoordinateProduct(2)
        psi = ApproxFunction(((1.0, 1.0, 0),) * 2)
        with pytest.raises(ValueError):
            shell_volume(f, psi, f.canonical_norm(), 2.0, 4.0)

    def test_band_validation(self):
        dup = VectorOf((MaxPower((1.0,), 3, (0,)), MaxPower((1.0,), 3, (0,))))
        psi = ApproxFunction(((0.5, 0.0, 0), (0.5, 0.0, 0)))
        with pytest.raises(ValueError, match="distinct"):
            shell_volume(dup, psi, dup.canonical_norm(), 2.0, 4.0)
        full = VectorOf((MaxPower((1.0,), 2, (0,)), MaxPower((1.0,), 2, (1,))))
        with pytest.raises(ValueError, match="unconstrained"):
            shell_volume(full, psi, full.canonical_norm(), 2.0, 4.0)
        mixed = VectorOf((SignedPowerForm(1, 1, 2), MaxPower((1.0,), 2, (0,))))
        psi2 = ApproxFunction(((0.5, 0.0, 0), (0.5, 0.0, 0)))
        with pytest.raises(ValueError, match="single-coordinate"):
            shell_volume(mixed, psi2, mixed.canonical_norm(), 2.0, 4.0)

    def test_classifiers_validate_like_the_closed_form(self):
        # one family description: a band system the closed form rejects is
        # rejected by the classifier and the criterion terms too
        psi = ApproxFunction(((0.5, 0.0, 0), (0.5, 0.0, 0)))
        sched = DyadicSchedule(t0=1.0, ratio=2.0, k0=2, kmax=4)
        for f, needle in [
            (VectorOf((MaxPower((1.0,), 3, (0,)), MaxPower((2.0,), 3, (0,)))), "distinct"),
            (VectorOf((MaxPower((1.0,), 2, (0,)), MaxPower((1.0,), 2, (1,)))), "unconstrained"),
        ]:
            for crit in ("asymptotic", "uniform"):
                with pytest.raises(ValueError, match=needle):
                    classify_series(f, psi, crit)
            with pytest.raises(ValueError, match=needle):
                criterion_terms(f, psi, sched)


# --------------------------------------------------------------------------
# band systems: a max power is the componentwise system of its bands


def as_component_bands(f: MaxPower, psi: ApproxFunction) -> tuple[VectorOf, ApproxFunction]:
    """The single-coordinate bands of f, each under a copy of psi's one component."""
    parts = tuple(
        MaxPower((a,), f.n, (c,)) for c, a in zip(f.resolved_coords(), f.exponents)
    )
    return VectorOf(parts), ApproxFunction(psi.components * len(parts))


BAND_CASES = [
    (MaxPower((2.0, 1.5), 3), power_law(1.0, 0.5, 0)),
    (MaxPower((1.0,), 2), power_law(0.7, 0.0, 0)),
    (MaxPower((2.0, 1.0), 4), power_law(1.0, 1.0, 0)),
    (MaxPower((3.0, 2.5), 4, (3, 1)), power_law(1.5, 1.0, 1)),
    (MaxPower((1.0, 2.0, 7.0), 5), power_law(2.0, 2.0, 1)),
]


class TestMaxPowerAsBands:
    @pytest.mark.parametrize("f, psi", BAND_CASES)
    def test_same_verdicts(self, f, psi):
        vec, vpsi = as_component_bands(f, psi)
        for crit in ("asymptotic", "uniform"):
            assert classify_series(f, psi, crit) is classify_series(vec, vpsi, crit)

    @pytest.mark.parametrize("f, psi", BAND_CASES)
    def test_same_criterion_terms(self, f, psi):
        vec, vpsi = as_component_bands(f, psi)
        sched = DyadicSchedule(t0=1.0, ratio=2.0, k0=1, kmax=12)
        np.testing.assert_allclose(
            criterion_terms(vec, vpsi, sched), criterion_terms(f, psi, sched), rtol=1e-12
        )

    @pytest.mark.parametrize("f, psi", BAND_CASES)
    def test_same_shell_volume(self, f, psi):
        vec, vpsi = as_component_bands(f, psi)
        lo = max(threshold_M(f, psi), threshold_M(vec, vpsi))
        a = shell_volume(f, psi, f.canonical_norm(), lo, 3.0 * lo)
        b = shell_volume(vec, vpsi, vec.canonical_norm(), lo, 3.0 * lo)
        assert abs(a.value - b.value) <= a.error + b.error


# --------------------------------------------------------------------------
# Monte Carlo


MC_CASES = [
    (SignedPowerForm(1, 1, 2), power_law(0.5, 0.0, 0), 2.0, 6.0),
    (SignedPowerForm(2, 1, 2), power_law(1.0, 0.5, 0), 2.0, 5.0),
    (CoordinateProduct(3), power_law(1.0, 1.0, 1), 2.0, 4.0),
    (MaxPower((2.0, 1.5), 3), power_law(1.0, 0.5, 0), 2.0, 5.0),
]


class TestMonteCarlo:
    @pytest.mark.parametrize("case", MC_CASES, ids=lambda c: type(c[0]).__name__)
    def test_closed_form_agrees(self, case):
        f, psi, lo, hi = case
        nm = f.canonical_norm()
        closed = shell_volume(f, psi, nm, lo, hi)
        mc = monte_carlo_region_volume(f, psi, nm, hi, 2_000_000, seed=7, inner=lo)
        assert not mc.degenerate
        assert abs(closed.value - mc.value) <= 4.0 * mc.stderr + closed.error

    def test_exact_slab(self):
        # { |x_1| <= 1/2, sup norm <= T } has area 2T exactly
        f = MaxPower((1.0,), 2)
        mc = monte_carlo_region_volume(f, (0.5,), max_norm(2), 3.0, 1_000_000, seed=5)
        assert abs(mc.value - 6.0) <= 4.0 * mc.stderr

    def test_deterministic(self):
        f = SignedPowerForm(1, 1, 2)
        a = monte_carlo_region_volume(f, (0.5,), f.canonical_norm(), 4.0, 300_000, seed=9)
        b = monte_carlo_region_volume(f, (0.5,), f.canonical_norm(), 4.0, 300_000, seed=9)
        assert a == b

    def test_chunking_invariance_not_promised_but_seeded(self):
        # different chunk sizes legitimately give different draws; same
        # chunking must reproduce exactly
        f = SignedPowerForm(1, 1, 2)
        a = monte_carlo_region_volume(
            f, (0.5,), f.canonical_norm(), 4.0, 250_000, seed=9, chunk=100_000
        )
        b = monte_carlo_region_volume(
            f, (0.5,), f.canonical_norm(), 4.0, 250_000, seed=9, chunk=100_000
        )
        assert a == b

    @pytest.mark.parametrize("chunk", [1_000_000, 100_000])
    def test_pieces_hit_as_one_draw_per_chunk(self, chunk):
        # each chunk is drawn and tested in pieces from its own generator;
        # the hits are those of one draw of the whole chunk
        f = SignedPowerForm(2, 1, 2)
        psi = power_law(1.0, 0.5, 0)
        nm = f.canonical_norm()
        samples = 250_001
        mc = monte_carlo_region_volume(f, psi, nm, 5.0, samples, seed=11, inner=1.0, chunk=chunk)
        hits = 0
        for index, start in enumerate(range(0, samples, chunk)):
            rng = np.random.default_rng(mix_seed(11, index))
            xs = rng.uniform(-5.0, 5.0, size=(min(chunk, samples - start), 3))
            hits += int(region_mask(f, psi, nm, xs, 1.0, 5.0).sum())
        assert mc.samples == samples and mc.hits == hits > 0

    def test_memory_stays_at_one_piece(self):
        # one draw of a million rows at n = 3 would hold 24 MB per array
        f = SignedPowerForm(2, 1, 2)
        tracemalloc.start()
        try:
            monte_carlo_region_volume(
                f, power_law(1.0, 0.5, 0), f.canonical_norm(), 20.0, 1_000_000, seed=3, inner=1.0
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_full_box_degenerate(self):
        f = MaxPower((1.0,), 2)
        mc = monte_carlo_region_volume(f, (100.0,), max_norm(2), 2.0, 10_000, seed=1)
        assert mc.degenerate and mc.hits == mc.samples
        assert mc.value == 16.0 and mc.stderr == 0.0

    def test_empty_region_degenerate(self):
        f = SignedPowerForm(2, 0, 2)  # definite, empty past the threshold
        mc = monte_carlo_region_volume(
            f, power_law(0.5, 1.0, 0), f.canonical_norm(), 9.0, 10_000, seed=1, inner=3.0
        )
        assert mc.degenerate and mc.hits == 0

    def test_region_mask_matches_pointwise(self):
        f = SignedPowerForm(1, 1, 2)
        psi = power_law(1.0, 0.5, 0)
        nm = f.canonical_norm()
        rng = np.random.default_rng(0)
        xs = rng.uniform(-4, 4, size=(500, 2))
        mask = region_mask(f, psi, nm, xs, inner=1.0, outer=3.0)
        for x, hit in zip(xs, mask):
            z = nm(x)
            inside = 1.0 < z <= 3.0 and abs(f.evaluate_many(x[None])[0, 0]) <= psi(z)[0]
            assert inside == bool(hit)

    def test_rejects_bad_arguments(self):
        f = SignedPowerForm(1, 1, 2)
        nm = f.canonical_norm()
        with pytest.raises(ValueError):
            monte_carlo_region_volume(f, (0.5,), nm, 4.0, 0)
        with pytest.raises(ValueError):
            monte_carlo_region_volume(f, (0.5,), nm, 4.0, 100, inner=5.0)
        with pytest.raises(ValueError):
            monte_carlo_region_volume(f, (0.5,), max_norm(3), 4.0, 100)


# --------------------------------------------------------------------------
# classifiers, against independent growth oracles


def growth_verdict_integral(f, psi) -> Verdict:
    """Dyadic increments of the actual closed-form volume: geometric decay
    of far increments certifies a finite integral."""
    nm = f.canonical_norm()
    m0 = max(6, math.ceil(math.log2(threshold_M(f, psi))) + 1)
    inc = [
        shell_volume(f, psi, nm, 2.0**m, 2.0 ** (m + 1)).value
        for m in range(m0, m0 + 12)
    ]
    if inc[-2] <= 0.0:
        return Verdict.CONVERGES
    return Verdict.CONVERGES if inc[-1] / inc[-2] < 0.998 else Verdict.DIVERGES


def _log_psi_at_pow2(C, s, j, k):
    # log of C log(e + 2^k)^j 2^(-ks) without forming 2^k
    loglog = math.log(k * LN2) if k > 60 else math.log(math.log(math.e + 2.0**k))
    return math.log(C) + j * loglog - s * k * LN2


def _log_series_term(f, psi, k, r):
    if isinstance(f, SignedPowerForm):
        (C, s, j), = psi.components
        lp = _log_psi_at_pow2(C, s, j, k)
        lx = math.log(k) + lp if f.d == f.n else (f.n - f.d) * k * LN2 + lp
    elif isinstance(f, CoordinateProduct):
        (C, s, j), = psi.components
        lp = _log_psi_at_pow2(C, s, j, k)
        lx = math.log(k) + lp if f.n == 2 else lp + (f.n - 1) * math.log(k * LN2 - lp / f.n)
    elif isinstance(f, MaxPower):
        (C, s, j), = psi.components
        a = sum(1.0 / ai for ai in f.exponents)
        lx = (f.n - len(f.exponents)) * k * LN2 + a * _log_psi_at_pow2(C, s, j, k)
    else:
        lx = (f.n - len(f.parts)) * k * LN2
        for part, (C, s, j) in zip(f.parts, psi.components):
            lx += _log_psi_at_pow2(C, s, j, k) / part.exponents[0]
    return (1.0 - r) * lx


def growth_verdict_series(f, psi, r=2.0) -> Verdict:
    """Log-space dyadic block sums of the checkpoint series; a shrinking
    block certifies convergence."""

    def log_block(m):
        ks = np.arange(2**m, 2 ** (m + 1))
        lt = np.array([_log_series_term(f, psi, int(k), r) for k in ks])
        top = lt.max()
        return top + math.log(np.exp(lt - top).sum())

    return Verdict.CONVERGES if log_block(13) - log_block(12) < -1e-3 else Verdict.DIVERGES


SPF_GRID = [
    (n, d, s, j)
    for (n, d) in [(3, 2), (4, 2), (4, 3)]
    for s in (0.0, 0.5, 1.0, 1.5, 2.0)
    for j in (0, 1, 2)
]


class TestAsymptoticClassifier:
    @pytest.mark.parametrize("n,d,s,j", SPF_GRID)
    def test_signed_power_grid(self, n, d, s, j):
        f = SignedPowerForm(n - 1, 1, d)
        psi = power_law(1.0, s, j)
        assert classify_series(f, psi, "asymptotic") == growth_verdict_integral(f, psi)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_product(self, n, s):
        f = CoordinateProduct(n)
        psi = power_law(1.0, s, 1)
        assert classify_series(f, psi, "asymptotic") == growth_verdict_integral(f, psi)

    @pytest.mark.parametrize(
        "exps,n,s",
        [((2.0, 1.0), 4, 1.0), ((2.0, 1.0), 4, 2.0), ((1.0,), 2, 0.5), ((1.0,), 2, 1.5)],
    )
    def test_max_power(self, exps, n, s):
        f = MaxPower(exps, n)
        psi = power_law(1.0, s, 0)
        assert classify_series(f, psi, "asymptotic") == growth_verdict_integral(f, psi)

    def test_bands(self):
        f = VectorOf((MaxPower((1.0,), 3, (0,)), MaxPower((2.0,), 3, (1,))))
        conv = ApproxFunction(((1.0, 1.0, 0), (1.0, 1.5, 0)))  # s_eff = 1.75 > 1
        dive = ApproxFunction(((1.0, 0.5, 0), (1.0, 1.0, 0)))  # s_eff = 1.0, critical
        assert classify_series(f, conv, "asymptotic") == Verdict.CONVERGES
        assert classify_series(f, dive, "asymptotic") == Verdict.DIVERGES
        assert growth_verdict_integral(f, conv) == Verdict.CONVERGES
        assert growth_verdict_integral(f, dive) == Verdict.DIVERGES

    @pytest.mark.parametrize(
        "p,d,s,j", [(3, 2, 0.5, 0), (2, 2, 0.0, 0), (1, 1, 0.0, 2), (3, 3, 0.0, 1), (2, 1.5, 0.5, 0)]
    )
    def test_definite_signed_power(self, p, d, s, j):
        # q = 0: |f| is the norm to the power d, so the region is bounded
        f = SignedPowerForm(p, 0, d)
        psi = power_law(1.0, s, j)
        assert classify_series(f, psi, "asymptotic") == Verdict.CONVERGES
        assert growth_verdict_integral(f, psi) == Verdict.CONVERGES

    def test_coefficient_invariance(self):
        f = SignedPowerForm(2, 1, 2)
        for s in (0.5, 1.5):
            verdicts = {
                classify_series(f, power_law(C, s, 1), "asymptotic") for C in (0.01, 1.0, 90.0)
            }
            assert len(verdicts) == 1


UNIFORM_CASES = [
    (SignedPowerForm(2, 1, 2), (2.0, 0.5, 0)),
    (SignedPowerForm(2, 1, 2), (2.0, 1.0, 0)),
    (SignedPowerForm(2, 1, 2), (2.0, 1.0, 2)),
    (SignedPowerForm(2, 1, 2), (2.0, 1.5, 1)),
    (SignedPowerForm(1, 1, 2), (1.0, 0.0, 0)),
    (SignedPowerForm(1, 1, 2), (1.0, 0.0, 1)),
    (SignedPowerForm(1, 1, 2), (1.0, 0.5, 2)),
    (SignedPowerForm(3, 1, 3), (1.0, 1.0, 0)),
    (SignedPowerForm(3, 1, 3), (1.0, 1.0, 1)),
    (CoordinateProduct(2), (0.5, 0.0, 0)),
    (CoordinateProduct(2), (0.5, 0.0, 1)),
    (CoordinateProduct(2), (0.5, 0.5, 0)),
    (CoordinateProduct(3), (0.5, 0.0, 0)),
    (CoordinateProduct(4), (0.5, 0.0, 2)),
    (MaxPower((2.0, 1.0), 4), (1.0, 1.0, 0)),
    (MaxPower((2.0, 1.0), 4), (1.0, 4.0 / 3.0, 0)),
    (MaxPower((1.5,), 3), (1.0, 3.0, 2)),
    (MaxPower((2.0, 2.0), 3), (1.0, 1.0, 1)),
]


class TestUniformClassifier:
    @pytest.mark.parametrize(
        "f,params", UNIFORM_CASES, ids=[f"case{i}" for i in range(len(UNIFORM_CASES))]
    )
    def test_against_block_oracle(self, f, params):
        psi = power_law(*params)
        assert classify_series(f, psi, "uniform", r=2.0) == growth_verdict_series(f, psi)

    def test_band_system(self):
        f = VectorOf((MaxPower((1.0,), 3, (0,)), MaxPower((2.0,), 3, (1,))))
        for s1, s2 in [(0.0, 0.0), (1.0, 2.0), (2.0, 0.0), (0.5, 3.0)]:
            psi = ApproxFunction(((1.0, s1, 0), (1.0, s2, 1)))
            assert classify_series(f, psi, "uniform") == growth_verdict_series(f, psi)

    def test_variance_exponent_threshold(self):
        # gamma = 0, beta = 2: the series flips exactly at beta (r-1) = 1
        f = SignedPowerForm(2, 1, 2)
        psi = power_law(1.0, 1.0, 2)
        assert classify_series(f, psi, "uniform", r=1.5) == Verdict.DIVERGES
        assert classify_series(f, psi, "uniform", r=1.6) == Verdict.CONVERGES
        assert growth_verdict_series(f, psi, r=1.5) == Verdict.DIVERGES
        assert growth_verdict_series(f, psi, r=1.6) == Verdict.CONVERGES

    def test_degree_equals_dimension_edge(self):
        # d = n gains one log: beta = j+1, harmonic at j = 0, r = 2
        f = SignedPowerForm(1, 1, 2)
        assert classify_series(f, power_law(1.0, 0.0, 0), "uniform") == Verdict.DIVERGES
        assert classify_series(f, power_law(1.0, 0.0, 1), "uniform") == Verdict.CONVERGES

    @pytest.mark.parametrize(
        "f,params",
        [
            (SignedPowerForm(3, 0, 2), (1.0, 0.5, 0)),
            (SignedPowerForm(2, 0, 2), (1.0, 0.0, 1)),
            (SignedPowerForm(3, 0, 1.5), (1.0, 1.0, 0)),
        ],
    )
    def test_definite_signed_power_diverges(self, f, params):
        # every checkpoint shell of a bounded region is empty: X_k = 0
        for r in (1.5, 2.0, 3.0):
            assert classify_series(f, power_law(*params), "uniform", r=r) == Verdict.DIVERGES

    def test_rejects_bad_arguments(self):
        f = SignedPowerForm(1, 1, 2)
        psi = power_law(1.0, 1.0, 0)
        with pytest.raises(ValueError):
            classify_series(f, psi, "sideways")
        with pytest.raises(ValueError):
            classify_series(f, psi, "uniform", r=1.0)
        with pytest.raises(ValueError):
            classify_series(f, ApproxFunction(((1.0, 1.0, 0),) * 2), "asymptotic")


# --------------------------------------------------------------------------
# criterion terms


class TestCriterionTerms:
    def test_hand_value(self):
        # t = 4: X = t^(n-d) psi(t) = 4 * 0.5 = 2, term = X^(1-r) = 1/2
        f = SignedPowerForm(2, 1, 2)
        psi = power_law(1.0, 0.5, 0)
        sched = DyadicSchedule(t0=1.0, ratio=2.0, k0=2, kmax=2)
        assert criterion_terms(f, psi, sched, r=2.0) == [0.5]

    def test_terms_track_classifier(self):
        # divergent case: partial sums keep growing; convergent case flattens
        f = SignedPowerForm(2, 1, 2)
        sched = DyadicSchedule(t0=1.0, ratio=2.0, k0=1, kmax=400)
        div = np.cumsum(criterion_terms(f, power_law(1.0, 1.0, 0), sched))
        conv = np.cumsum(criterion_terms(f, power_law(1.0, 0.25, 0), sched))
        assert div[-1] - div[len(div) // 2] > 0.1
        assert conv[-1] - conv[len(conv) // 2] < 1e-6

    def test_product_small_checkpoint_rejected(self):
        f = CoordinateProduct(3)
        psi = power_law(8.0, 0.0, 0)
        sched = DyadicSchedule(t0=1.0, ratio=2.0, k0=0, kmax=3)
        with pytest.raises(ValueError, match="too small"):
            criterion_terms(f, psi, sched)

    @pytest.mark.parametrize("f", [SignedPowerForm(3, 0, 2), SignedPowerForm(2, 0, 2)])
    def test_definite_signed_power_rejected(self, f):
        # X_k = 0 on the empty checkpoint shells of a bounded region
        sched = DyadicSchedule(t0=1.0, ratio=2.0, k0=2, kmax=4)
        with pytest.raises(ValueError, match="nonpositive criterion term"):
            criterion_terms(f, power_law(1.0, 0.5, 0), sched)

    def test_rejects_bad_r(self):
        f = SignedPowerForm(1, 1, 2)
        with pytest.raises(ValueError):
            criterion_terms(f, power_law(1.0, 1.0, 0), DyadicSchedule(kmax=3), r=0.5)

    @pytest.mark.parametrize("f", [SignedPowerForm(2, 1, 2), CoordinateProduct(3)])
    def test_rejects_extra_bound_components(self, f):
        # the same check, with the same message, as classify_series
        psi = ApproxFunction(((1.0, 1.0, 0), (1.0, 0.5, 0)))
        sched = DyadicSchedule(t0=1.0, ratio=2.0, k0=2, kmax=4)
        with pytest.raises(ValueError, match="one bound component") as terms_err:
            criterion_terms(f, psi, sched)
        with pytest.raises(ValueError) as series_err:
            classify_series(f, psi, "uniform")
        assert str(terms_err.value) == str(series_err.value)

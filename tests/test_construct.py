"""Radial profile construction against the closed-form instance.

For n=3, p=2, f=z^4, eps=delta=1 everything is elementary:

    I(z)  = z^3 / (3 (1+z)^3)
    w(r)  = (1+2r) / (6 (1+r)^2)

and in general scaling is exact: I_delta(z) = delta^3 I_1(z/delta),
w_delta(r) = delta^2 w_1(r/delta) for this p.
"""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville import (
    CriterionUndecidedError,
    DeltaSearchOptions,
    DivergentIntegralError,
    DomainError,
    MonoCubic,
    Power,
    PowerLog,
    RadialProfile,
    StructureParams,
    Tolerance,
    change_of_variables_check,
    decay_bound,
    envelope,
    find_delta,
    integrate,
    parse_nonlinearity,
    sup_profile,
)

from conftest import grad_exact, inner_exact, w_exact


# ---------------------------------------------------------------------------
# monotone cubic


class TestMonoCubic:
    def test_interpolates_knots(self):
        xs = [0.0, 1.0, 2.5, 4.0]
        ys = [1.0, 2.0, 2.2, 7.0]
        m = MonoCubic(xs, ys)
        for x, y in zip(xs, ys):
            assert m(x) == pytest.approx(y, abs=1e-15)

    def test_monotone_between_knots(self):
        m = MonoCubic([0.0, 1.0, 2.0, 3.0], [0.0, 0.1, 5.0, 5.05])
        grid = np.linspace(0.0, 3.0, 400)
        vals = [m(x) for x in grid]
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))

    @given(
        ys=st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=3, max_size=12)
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_for_random_increasing_data(self, ys):
        cum = list(np.cumsum(ys))
        xs = list(range(len(cum)))
        m = MonoCubic(xs, cum)
        grid = np.linspace(0, len(cum) - 1, 257)
        vals = [m(float(x)) for x in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_matches_scipy_pchip_flavor(self):
        # not identical algorithms, but both are C1 monotone cubics;
        # on smooth monotone data they agree to interpolation accuracy
        from scipy.interpolate import PchipInterpolator

        xs = np.linspace(0.0, 3.0, 31)
        ys = np.log1p(np.exp(xs))
        ours = MonoCubic(list(xs), list(ys))
        ref = PchipInterpolator(xs, ys)
        for x in np.linspace(0.05, 2.95, 97):
            assert ours(float(x)) == pytest.approx(float(ref(x)), abs=5e-5)

    def test_out_of_range_raises(self):
        m = MonoCubic([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            m(-0.1)
        with pytest.raises(ValueError):
            m(1.1)

    def test_rejects_non_increasing_xs(self):
        with pytest.raises(ValueError):
            MonoCubic([0.0, 0.0, 1.0], [0.0, 1.0, 2.0])

    def test_shifted_matches_refit(self):
        xs = np.cumsum(np.linspace(0.1, 1.0, 40))
        ys = np.log1p(xs) + np.sin(xs) / 4.0
        moved = MonoCubic(list(xs), list(ys)).shifted(-3.0, 7.5)
        refit = MonoCubic(list(xs - 3.0), list(ys + 7.5))
        pts = np.linspace(xs[0] - 3.0, xs[-1] - 3.0, 301)
        assert moved.values(pts) == pytest.approx(refit.values(pts), rel=1e-13, abs=0.0)
        assert [moved(float(x)) for x in pts] == moved.values(pts).tolist()

    def test_array_values_match_calls(self):
        xs = np.cumsum(np.linspace(0.1, 1.0, 40))
        m = MonoCubic(list(xs), list(np.log1p(xs) + np.sin(xs) / 4.0))
        pts = np.concatenate((xs, np.linspace(xs[0], xs[-1], 301)))
        # same arithmetic in the same order: equal to the last bit
        assert m.values(pts).tolist() == [m(float(x)) for x in pts]
        with pytest.raises(ValueError):
            m.values(np.array([xs[1], xs[-1] + 1e-9]))


# ---------------------------------------------------------------------------
# envelope


def test_envelope_closed_form(params32):
    env = envelope(params32, 1.0)
    assert env(0.0) == 1.0
    assert env(1.0) == 0.5
    assert env(9.0) == pytest.approx(0.1, rel=1e-15)


def test_envelope_decay_exponent(params42):
    # k = (n-p)/(p-1) = 2
    env = envelope(params42, 1.0)
    assert env(999.0) == pytest.approx(1e-6, rel=1e-12)


def test_envelope_rejects_negative_radius(params32):
    env = envelope(params32, 1.0)
    with pytest.raises(DomainError):
        env(-1e-9)


def test_envelope_scale_matches_profile(instance_profile):
    env = envelope(StructureParams(3, 2.0), 1.0)
    for r in (0.0, 0.5, 3.0, 1e4):
        assert instance_profile.envelope_value(r) == env(r)


# ---------------------------------------------------------------------------
# inner integral


class TestInnerIntegral:
    def test_instance_values(self, instance_profile):
        assert instance_profile.inner_integral(1.0) == pytest.approx(1.0 / 24.0, abs=1e-9)
        assert instance_profile.inner_integral(0.1) == pytest.approx(
            inner_exact(0.1), rel=1e-8
        )

    def test_limit(self, instance_profile):
        assert instance_profile.inner_limit() == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert instance_profile.inner_integral(math.inf) == instance_profile.inner_limit()

    def test_below_cache_is_direct_quadrature(self, instance_profile):
        z = 1e-10  # cache starts at 1e-8
        assert instance_profile.inner_integral(z) == pytest.approx(z**3 / 3.0, rel=1e-9)

    def test_above_cache_extends_exactly(self, instance_profile):
        z = 5e8  # cache ends at 1e8
        assert instance_profile.inner_integral(z) == pytest.approx(
            inner_exact(z), rel=1e-7
        )

    def test_zero_and_negative(self, instance_profile):
        assert instance_profile.inner_integral(0.0) == 0.0
        assert instance_profile.inner_integral(-3.0) == 0.0

    def test_monotone_in_z(self, instance_profile):
        zs = np.geomspace(1e-6, 1e6, 200)
        vals = [instance_profile.inner_integral(float(z)) for z in zs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_scaling_in_delta(self, params32):
        prof2 = RadialProfile(Power(4.0), params32, 2.0)
        # I_delta(z) = delta^3 I_1(z/delta)
        for z in (0.5, 1.0, 4.0, 40.0):
            assert prof2.inner_integral(z) == pytest.approx(
                8.0 * inner_exact(z / 2.0), rel=1e-7
            )


# ---------------------------------------------------------------------------
# profile values


class TestProfile:
    def test_center_and_unit_values(self, instance_profile):
        assert instance_profile.profile_value(0.0) == pytest.approx(1.0 / 6.0, abs=1e-7)
        assert instance_profile.profile_value(1.0) == pytest.approx(1.0 / 8.0, abs=1e-7)

    def test_far_field_value(self, instance_profile):
        assert instance_profile.profile_value(1000.0) == pytest.approx(
            w_exact(1000.0), rel=1e-8
        )

    def test_infinity_is_zero(self, instance_profile):
        assert instance_profile.profile_value(math.inf) == 0.0

    def test_negative_radius_raises(self, instance_profile):
        with pytest.raises(DomainError):
            instance_profile.profile_value(-0.5)

    def test_grid_matches_pointwise(self, instance_profile):
        radii = [0.0, 0.125, 1.0, 7.3, 250.0]
        ws = instance_profile.values_on_grid(radii)
        # both routes are exact up to the cache interpolant's resolution
        for r, w in zip(radii, ws):
            assert w == pytest.approx(instance_profile.profile_value(r), rel=1e-8, abs=1e-13)

    def test_grid_requires_ascending_radii(self, instance_profile):
        with pytest.raises(ValueError):
            instance_profile.values_on_grid([1.0, 0.5])

    def test_grid_against_closed_form(self, instance_profile):
        radii = list(np.geomspace(1e-6, 1e6, 120))
        ws = instance_profile.values_on_grid(radii)
        for r, w in zip(radii, ws):
            assert w == pytest.approx(w_exact(r), rel=1e-7)

    def test_gradient_magnitude(self, instance_profile):
        assert instance_profile.gradient_magnitude(0.1) == pytest.approx(
            grad_exact(0.1), rel=1e-8
        )
        assert instance_profile.gradient_magnitude(10.0) == pytest.approx(
            grad_exact(10.0), rel=1e-8
        )

    def test_sup_is_center_value(self, instance_profile):
        assert sup_profile(instance_profile) == instance_profile.profile_value(0.0)

    def test_sup_scaling_in_delta(self, params32):
        # w_delta(0) = delta^2 / 6 for this instance
        for delta in (0.5, 2.0):
            prof = RadialProfile(Power(4.0), params32, delta)
            assert sup_profile(prof) == pytest.approx(delta**2 / 6.0, rel=1e-7)

    def test_zero_nonlinearity_gives_zero_profile(self, params32):
        prof = RadialProfile(parse_nonlinearity("0"), params32, 1.0)
        assert prof.inner_limit() == 0.0
        assert prof.profile_value(0.0) == 0.0
        assert prof.profile_value(3.0) == 0.0

    def test_rejects_bad_delta(self, params32):
        with pytest.raises(ValueError):
            RadialProfile(Power(4.0), params32, 0.0)

    def test_requires_n_above_p(self):
        with pytest.raises(Exception):
            RadialProfile(Power(4.0), StructureParams(2, 2.0), 1.0)


# ---------------------------------------------------------------------------
# batched panels against the scalar quadrature they replace

_SEG_TOL = Tolerance(rel=1e-12, absolute=0.0)
_BATCHED_CASES = [
    (Power(4.0), StructureParams(3, 2.0), 1.0),
    (PowerLog(-2.0, 3.0), StructureParams(3, 2.0), 0.5),
    (parse_nonlinearity("z^3*log(e+1/z)^-2"), StructureParams(4, 2.0), 1.0),
]


@pytest.fixture(scope="module", params=_BATCHED_CASES, ids=lambda c: repr(c[0]))
def batched_profile(request):
    f, params, delta = request.param
    return RadialProfile(f, params, delta)


def test_cache_fill_matches_scalar_segments(batched_profile):
    prof = batched_profile
    zs = prof._zs
    acc = integrate(prof._source, 0.0, zs[0], _SEG_TOL).value
    ref = [acc]
    for a, b in zip(zs, zs[1:]):
        acc += integrate(prof._source, a, b, _SEG_TOL).value
        ref.append(acc)
    assert prof._cum == pytest.approx(ref, rel=1e-10, abs=0.0)


@pytest.mark.parametrize(
    "radii",
    [
        list(np.geomspace(1e-6, 1e6, 200)),
        [0.0] + list(np.geomspace(1e-10, 1e10, 40)),  # past both cache ends
        [0.3, 7.0],
    ],
    ids=["default-grid", "beyond-cache", "one-segment"],
)
def test_values_on_grid_matches_scalar_segments(batched_profile, radii):
    prof = batched_profile
    rs = [float(r) * prof.delta for r in radii]
    ref = [0.0] * len(rs)
    ref[-1] = prof.profile_value(rs[-1])
    for i in range(len(rs) - 2, -1, -1):
        ref[i] = ref[i + 1] + integrate(prof._outer_integrand, rs[i], rs[i + 1], _SEG_TOL).value
    assert prof.values_on_grid(rs) == pytest.approx(ref, rel=1e-10, abs=0.0)


# ---------------------------------------------------------------------------
# rescaled views against fresh builds

# No absolute floor, so that fresh builds at small delta stay accurate.
_NO_FLOOR = Tolerance(rel=1e-10, absolute=0.0)


@pytest.fixture(
    scope="module",
    params=[
        (Power(5.5), StructureParams(5, 3.0)),
        (parse_nonlinearity("z^3*log(e+1/z)^-2"), StructureParams(4, 2.0)),
        (Power(3.5), StructureParams(8, 3.0)),
    ],
    ids=lambda c: f"{c[0]!r}-n{c[1].n}",
)
def unit_profile(request):
    f, params = request.param
    return RadialProfile(f, params, 1.0, _NO_FLOOR)


@pytest.mark.parametrize("j", [1, 6, 13, 20])
def test_rescaled_view_matches_fresh_build(unit_profile, j):
    delta = 2.0**-j
    view = unit_profile.rescaled(delta)
    fresh = RadialProfile(unit_profile.f, unit_profile.params, delta, _NO_FLOOR)
    assert view.delta == delta
    radii = [float(r) for r in np.geomspace(1e-6 * delta, 1e6 * delta, 200)]
    assert view.values_on_grid(radii) == pytest.approx(
        fresh.values_on_grid(radii), rel=1e-11, abs=0.0
    )
    assert view.inner_limit() == pytest.approx(fresh.inner_limit(), rel=1e-9)
    # below the cache, inside it, and above it
    for z in (1e-10 * delta, 3.0 * delta, 1e10 * delta):
        assert view.inner_integral(z) == pytest.approx(fresh.inner_integral(z), rel=1e-9)
    assert view.envelope_value(delta) == fresh.envelope_value(delta)
    assert view.gradient_magnitude(delta) == pytest.approx(
        fresh.gradient_magnitude(delta), rel=1e-11
    )


def test_rescaled_view_shares_and_frees(params32):
    base = RadialProfile(Power(4.0), params32, 1.0)
    assert base.rescaled(1.0) is base
    view = base.rescaled(0.25)
    assert view.f is base.f and view.tol is base.tol
    assert view.criterion_result() is base.criterion_result()
    assert sup_profile(view) == pytest.approx(0.25**2 / 6.0, rel=1e-9)
    # neither holds a reference cycle: each is freed as soon as it is dropped
    gone = [weakref.ref(base), weakref.ref(view)]
    del base, view
    assert [r() for r in gone] == [None, None]
    with pytest.raises(ValueError):
        RadialProfile(Power(4.0), params32, 1.0).rescaled(0.0)


# ---------------------------------------------------------------------------
# change of variables identity


def test_change_of_variables_closed_instance(instance_profile):
    direct, transformed = change_of_variables_check(instance_profile)
    assert direct.value == pytest.approx(1.0 / 3.0, rel=1e-9)
    assert transformed.value == pytest.approx(1.0 / 3.0, rel=1e-9)
    assert direct.value == pytest.approx(transformed.value, rel=1e-8)


def test_change_of_variables_beta_instance(params42):
    # n=4, p=2, lambda=3: both sides reduce to Beta(4, 2) = 1/20
    prof = RadialProfile(Power(3.0), params42, 1.0)
    direct, transformed = change_of_variables_check(prof)
    assert direct.value == pytest.approx(0.05, rel=1e-9)
    assert transformed.value == pytest.approx(0.05, rel=1e-9)


def test_change_of_variables_zero_function(params32):
    prof = RadialProfile(parse_nonlinearity("0"), params32, 1.0)
    direct, transformed = change_of_variables_check(prof)
    assert direct.value == 0.0
    assert transformed.value == 0.0


# ---------------------------------------------------------------------------
# decay bound


class TestDecayBound:
    def test_instance_constant(self, instance_profile):
        # a * (a * delta^n * eps^q * K_f)^(1/(p-1)) * r^-k with all
        # factors equal to one except K_f = 1
        assert decay_bound(instance_profile, 1.0) == pytest.approx(1.0, rel=1e-9)

    def test_bounds_profile_on_grid(self, instance_profile):
        for r in np.geomspace(1e-4, 1e5, 60):
            assert instance_profile.profile_value(float(r)) <= decay_bound(
                instance_profile, float(r)
            )

    def test_decay_exponent(self, instance_profile):
        # bound(r) ~ r^-k with k = 1 here
        b1 = decay_bound(instance_profile, 10.0)
        b2 = decay_bound(instance_profile, 1000.0)
        assert b1 / b2 == pytest.approx(100.0, rel=1e-12)

    def test_rejects_nonpositive_radius(self, instance_profile):
        with pytest.raises(DomainError):
            decay_bound(instance_profile, 0.0)


# ---------------------------------------------------------------------------
# delta search


class TestFindDelta:
    def test_closed_instance_first_candidate(self, params32):
        assert find_delta(Power(4.0), params32).delta == 1.0

    def test_divergent_input_refused(self, params32):
        with pytest.raises(DivergentIntegralError):
            find_delta(Power(2.0), params32)

    def test_inconclusive_input_refused(self, params42):
        with pytest.raises(CriterionUndecidedError):
            find_delta(parse_nonlinearity("z^2.005"), params42)

    def test_powerlog_constructs(self, params32):
        prof = find_delta(PowerLog(-2.0, 3.0), params32)
        d = prof.delta
        assert d > 0.0
        env = envelope(params32, d)
        for r in np.geomspace(d * 1e-5, d * 1e5, 64):
            assert prof.profile_value(float(r)) <= env(float(r)) + 1e-12

    @pytest.mark.parametrize(
        "n,p,lam",
        [(3, 2.0, 4.0), (4, 2.0, 3.0), (5, 3.0, 5.5)],
    )
    def test_certificate_survives_halving(self, n, p, lam):
        """If delta certifies, any smaller delta0 still certifies: the
        search from delta0 = found/2 must succeed as well."""
        params = StructureParams(n, p)
        d = find_delta(Power(lam), params).delta
        d_half = find_delta(Power(lam), params, DeltaSearchOptions(delta0=d / 2.0)).delta
        assert d_half == pytest.approx(d / 2.0)

    @pytest.mark.parametrize(
        "f, n, p, delta0, expected",
        [
            (Power(3.5), 3, 2.0, 1.0, 0.5),
            (Power(2.5), 4, 2.0, 1.0, 1.0),
            (Power(3.0), 4, 2.0, 1.0, 1.0),
            (Power(5.5), 5, 3.0, 1.0, 0.5),
            (Power(2.5), 5, 2.0, 1.0, 1.0),
            (PowerLog(-2.0, 3.0), 3, 2.0, 1.0, 0.5),
            (Power(4.0), 3, 2.0, 0.5, 0.5),
            (Power(3.0), 4, 2.0, 0.5, 0.5),
            (Power(5.5), 5, 3.0, 0.25, 0.25),
        ],
    )
    def test_delta_unchanged_by_batched_panels(self, f, n, p, delta0, expected):
        # the scales the scalar quadrature found for the suite's cases
        d = find_delta(f, StructureParams(n, p), DeltaSearchOptions(delta0=delta0)).delta
        assert d == expected

    def test_custom_delta0(self, params32):
        d = find_delta(Power(4.0), params32, DeltaSearchOptions(delta0=0.125)).delta
        assert d == 0.125

    def test_options_validation(self):
        with pytest.raises(ValueError):
            DeltaSearchOptions(delta0=0.0)


# ---------------------------------------------------------------------------
# profile misc


def test_criterion_result_cached(instance_profile):
    r1 = instance_profile.criterion_result()
    r2 = instance_profile.criterion_result()
    assert r1 is r2
    assert r1.value == pytest.approx(1.0, abs=1e-12)


def test_repr_mentions_family(instance_profile):
    text = repr(instance_profile)
    assert "delta=1.0" in text


@given(delta=st.floats(min_value=0.2, max_value=5.0))
@settings(max_examples=10, deadline=None)
def test_inner_scaling_property(delta):
    params = StructureParams(3, 2.0)
    prof = RadialProfile(Power(4.0), params, delta)
    z = 1.7 * delta
    assert prof.inner_integral(z) == pytest.approx(
        delta**3 * inner_exact(z / delta), rel=1e-7
    )

"""Verification checks on the closed-form instance.

Oracle values (mpmath, 40 digits, frozen before the tests were written):

    E(1000)     = 0.03225858147068036243   (E(r) = 4 pi int_0^r w^4 rho^2)
    E(inf)      = 0.03241325753703754929
    ratio(1000) = 0.09692093221050432935   (E(r) r^(p-n) / w(r)^(p-1))
"""

import itertools
import math

import mpmath
import numpy as np
import pytest

import liouville.construct as construct_module
import liouville.verify as verify_module
from liouville import (
    DeltaSearchOptions,
    Nonlinearity,
    Power,
    PowerLog,
    RadialProfile,
    StructureParams,
    Tolerance,
    critical_exponent,
    decay_bound,
    delta_limit_check,
    energy_diagnostic,
    find_delta,
    flux_identity_check,
    gradient_decay_check,
    normalization_check,
    parse_nonlinearity,
    supersolution_check,
    verify_profile,
)
from liouville.nonlinearity import _ln_f
from liouville.quadrature import _panels, integrate_intervals

from conftest import deadline, math_twin, partial_span_passes, quad_ref, redone_panels, transient_bytes

E_1000 = 0.03225858147068036243
RATIO_1000 = 0.09692093221050432935


# ---------------------------------------------------------------------------
# flux identity


def _flux_defect(profile, r, h):
    # the flux check's relative defect over the one window [r - h, r + h]
    defects, _ = verify_module._flux_defects(profile, np.array([r]), np.array([h]))
    return float(defects[0])


class TestFlux:
    def test_residual_small_at_moderate_window(self, instance_profile):
        assert _flux_defect(instance_profile, 1.0, 0.1) < 1e-7

    def test_residual_small_at_every_window_width(self, instance_profile):
        # the increment is the table's own integral over the window, so it
        # cancels to no noise floor: a window crossing many knots and one
        # inside a knot interval (0.018 wide in ln s) both match the source
        for h in (0.5, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            assert _flux_defect(instance_profile, 1.0, h) < 1e-12, h

    def test_window_validation(self, instance_profile):
        with pytest.raises(ValueError):
            _flux_defect(instance_profile, 1.0, 0.0)
        with pytest.raises(ValueError):
            _flux_defect(instance_profile, 1.0, 2.0)  # h >= r

    def test_check_passes_instance(self, instance_profile):
        res = flux_identity_check(instance_profile)
        assert res.passed
        assert res.worst_residual <= 1e-6
        assert res.name == "flux_identity"

    def test_check_reports_unconverged_quadrature(self, instance_profile, monkeypatch):
        honest = flux_identity_check(instance_profile)
        batched = verify_module.integrate_intervals

        def unconverged(*args, **kwargs):
            return batched(*args, **kwargs)._replace(converged=False)

        monkeypatch.setattr(verify_module, "integrate_intervals", unconverged)
        flagged = flux_identity_check(instance_profile)
        assert flagged.detail == honest.detail + "; quadrature did not converge"
        assert (flagged.passed, flagged.worst_residual) == (honest.passed, honest.worst_residual)

    def test_window_increment_is_the_tables_integral(self, instance_profile, monkeypatch):
        # the flux increment over each window is the table's integral over
        # it in one call, with no |w'| read: inside a knot interval the
        # difference of two dense outputs, across knots the rest of the
        # first, the running sums between and the start of the last, which
        # agrees with I_1 read at both ends; each window has the bits it
        # has alone
        t = instance_profile._table
        r = np.geomspace(0.01, 100.0, 13)
        h = np.concatenate((1e-3 * r, 0.5 * r))
        r = np.concatenate((r, r))
        a, b = np.log(r - h), np.log(r + h)
        inc = t.increment(a, b)
        (ia, ua), (ib, ub) = t.locate(a), t.locate(b)
        assert (ib - ia <= 1)[:13].all() and (ib - ia > 1)[13:].all()
        same = ia == ib
        assert same[:13].any() and (inc[same] == (t.span(ib, ub) - t.span(ia, ua))[same]).all()
        ends = t.inner(ib, ub)
        assert np.all(np.abs(inc - (ends - t.inner(ia, ua))) <= 64.0 * np.spacing(ends))
        assert [float(t.increment(a[k : k + 1], b[k : k + 1])[0]) for k in range(26)] == inc.tolist()
        rhs = integrate_intervals(instance_profile._source, r - h, r + h, Tolerance(rel=1e-13, absolute=0.0)).values
        calls, outer = [], RadialProfile._outer_array
        monkeypatch.setattr(RadialProfile, "_outer_array", lambda self, z: calls.append(z.size) or outer(self, z))
        defects, _ = verify_module._flux_defects(instance_profile, r, h)
        assert calls == []
        assert defects.tolist() == (np.abs(inc - rhs) / np.maximum(np.abs(inc), np.abs(rhs))).tolist()

    @pytest.mark.parametrize("s, passed", [(1.0, False), (0.01, False), (1e3, True), (1e-4, True)])
    def test_a_corrupted_panel_fails_only_inside_a_window(self, params32, s, passed):
        # one panel of the table with its node values scaled by 1 + 1e-4:
        # the check fails where a window lies inside it (s = 1 and 0.01 are
        # radii of the check), and where none does, it reads as the honest
        # table does
        prof = RadialProfile(Power(4.0), params32, 1.0)
        honest = flux_identity_check(prof)
        t = prof._table
        i, _ = t.locate(np.array([math.log(s)]))
        t.nodes[:, i] *= 1.0 + 1e-4
        corrupted = flux_identity_check(prof)
        assert honest.passed and corrupted.passed == passed
        if passed:
            assert corrupted == honest
        else:
            assert corrupted.worst_residual > 1e-5 and f"at r={s!r}" in corrupted.detail


@pytest.mark.parametrize(
    "f, n, p, delta",
    [
        (Power(4.0), 3, 2.0, 1.0),
        (PowerLog(-2.0, 3.0), 3, 2.0, 0.5),
        (parse_nonlinearity("z^3*log(e+1/z)^-2"), 4, 2.0, 1.0),
        (Power(6.29058), 8, 3.0, 2.0**-4),
    ],
    ids=repr,
)
def test_flux_windows_match_scalar_quadrature(f, n, p, delta, monkeypatch):
    # the flux check integrates all 13 source windows in one batched
    # call; each agrees with QUADPACK's quadrature of the window within
    # the two error estimates
    prof = RadialProfile(f, StructureParams(n, p), delta)
    batched = verify_module.integrate_intervals
    calls = []

    def recorded(g, lo, hi, tol):
        res = batched(g, lo, hi, tol)
        calls.append((g, np.asarray(lo).tolist(), np.asarray(hi).tolist(), tol, res))
        return res

    monkeypatch.setattr(verify_module, "integrate_intervals", recorded)
    flux_identity_check(prof)
    assert len(calls) == 1
    g, lo, hi, tol, res = calls[0]
    assert len(lo) == 13 and res.converged
    for a, b, value, error in zip(lo, hi, res.values.tolist(), res.abs_errors.tolist()):
        ref, ref_error = quad_ref(lambda t: float(g(np.array([t]))[0]), a, b, tol.rel)
        assert abs(value - ref) <= error + ref_error, (a, b)


# Benchmark inputs whose flux check failed (defects 1.4e-6 to 4.8e-6 at
# r = 46.4) while the cache interpolant estimated its slopes
@pytest.mark.parametrize(
    "f, n, p",
    [
        (Power(4.35671), 8, 3.0),
        (Power(1.42567), 4, 1.5),
        (Power(5.96543), 3, 2.0),
        (parse_nonlinearity("z^3*log(e+1/z)^-2"), 4, 2.0),
        (parse_nonlinearity("z^3.77888*log(e+1/z)^-2"), 8, 3.0),
        (parse_nonlinearity("z^4.35824"), 8, 3.0),
        (parse_nonlinearity("z^5.91857*log(e+1/z)^-2"), 3, 2.0),
        (parse_nonlinearity("z^1.39049"), 4, 1.5),
        (parse_nonlinearity("z^4.43176*log(e+1/z)^-2"), 8, 3.0),
    ],
    ids=repr,
)
def test_flux_identity_passes_on_benchmark_inputs(f, n, p):
    res = flux_identity_check(find_delta(f, StructureParams(n, p)))
    assert res.passed, res.detail


# Inputs whose flux check failed (defects 5e-5 to 1.0, most at r = 100)
# while the increment was the difference of I at the window's ends, which
# cancels where I saturates
@pytest.mark.parametrize(
    "f, params",
    [
        (Power(6.31689), StructureParams(8, 3.0)),
        (parse_nonlinearity("z^6.18633"), StructureParams(8, 3.0)),
        (Power(40.0), StructureParams(3, 2.0)),
        (Power(20.0), StructureParams(10, 3.5)),
        (Power(2.0), StructureParams(4, 1.5)),
        (parse_nonlinearity("(exp(z)-1)*z^1.0"), StructureParams(4, 1.5)),
        (parse_nonlinearity("log(1+z)*z^1"), StructureParams(4, 1.5)),
        (Power(0.5), StructureParams(6, 1.2)),
        (Power(0.5), StructureParams(5, 1.1)),
        (Power(critical_exponent(StructureParams(4, 1.05, 1e-10)) + 1.0), StructureParams(4, 1.05, 1e-10)),
        (Power(critical_exponent(StructureParams(3, 1.05, 1e-10)) + 1.0), StructureParams(3, 1.05, 1e-10)),
    ],
    ids=repr,
)
def test_flux_identity_passes_where_I_saturates(f, params):
    res = flux_identity_check(find_delta(f, params))
    assert res.passed and res.worst_residual <= 1e-7, res.detail


# ---------------------------------------------------------------------------
# supersolution domination


class TestSupersolution:
    def test_passes_instance(self, instance_profile):
        res = supersolution_check(instance_profile)
        assert res.passed
        assert res.grid_size == 200
        # min of f(env) - f(w) stays non-negative (clearly so here:
        # env = 2w at r=0 and env > w everywhere)
        assert res.worst_residual >= -1e-10

    def test_fails_for_oversized_delta(self, params32):
        # at delta = 1e6 the profile tops out around 1.7e11 while the
        # envelope is capped at eps = 1
        prof = RadialProfile(Power(4.0), params32, 1e6)
        res = supersolution_check(prof)
        assert not res.passed

    def test_zero_function_trivially_passes(self, params32):
        prof = RadialProfile(parse_nonlinearity("0"), params32, 1.0)
        res = supersolution_check(prof)
        assert res.passed


# ---------------------------------------------------------------------------
# gradient decay


class TestGradientDecay:
    def test_passes_with_early_peak(self, instance_profile):
        res = gradient_decay_check(instance_profile)
        assert res.passed
        # |w'| = r/(3(1+r)^3) peaks at r = 1/2, one halving below delta
        assert "peak at level 1" in res.detail

    def test_terminal_gradient_tiny(self, instance_profile):
        # 40 inward halvings reach r ~ 9e-13 where |w'| ~ r/3
        res = gradient_decay_check(instance_profile)
        assert res.worst_residual == pytest.approx(2.0**-40 / 3.0, rel=1e-3)
        assert res.worst_residual <= 1e-6

    def test_respects_level_budget(self, instance_profile):
        # the ladder halves inward from delta = 2**28; its 40 levels stop
        # at r = 2**-12, where |w'| ~ r/3 ~ 8.1e-5 is still above 1e-6,
        # so the check reports a failure rather than shrinking its claim
        delta = 2.0**28
        res = gradient_decay_check(instance_profile.rescaled(delta))
        assert res.grid_size == 41
        assert not res.passed
        assert "peak at level 1," in res.detail
        s = 2.0**-40  # |w'_delta(r)| = delta |w'_1(r/delta)|
        assert res.worst_residual == pytest.approx(delta * s / (3 * (1 + s) ** 3), rel=1e-6)


# ---------------------------------------------------------------------------
# normalization (decay to zero infimum)


def test_normalization_far_field(instance_profile):
    res = normalization_check(instance_profile)
    assert res.passed
    # w(1e6) = (1+2e6)/(6 (1+1e6)^2) = 3.33e-7
    assert res.worst_residual == pytest.approx(3.333328e-07, rel=1e-4)


def test_normalization_fails_for_oversized_delta(params32):
    prof = RadialProfile(Power(4.0), params32, 1e6)
    assert not normalization_check(prof).passed


# ---------------------------------------------------------------------------
# energy diagnostic


class TestEnergy:
    def test_instance_diagnostic(self, instance_profile):
        ed = energy_diagnostic(instance_profile)
        assert ed.passed
        assert ed.nondecreasing
        assert len(ed.radii) == 64

    def test_energies_match_oracle(self, instance_profile):
        ed = energy_diagnostic(instance_profile)
        assert ed.energies[-1] == pytest.approx(E_1000, abs=1e-6)
        assert ed.ratios[-1] == pytest.approx(RATIO_1000, rel=1e-6)

    def test_energy_monotone(self, instance_profile):
        ed = energy_diagnostic(instance_profile)
        assert all(b >= a for a, b in zip(ed.energies, ed.energies[1:]))

    def test_spread_is_modest_here(self, instance_profile):
        # acceptance allows a factor 1e3 around the median; this
        # instance actually spans only ~7.4x
        ed = energy_diagnostic(instance_profile)
        assert ed.spread < 10.0

    def test_as_check_shape(self, instance_profile):
        chk = energy_diagnostic(instance_profile).as_check()
        assert chk.name == "energy"
        assert chk.passed

    def test_energies_match_the_closed_form(self, instance_profile):
        # every energy within 1e-10 of 4 pi times the integral of
        # rho**2 w(rho)**4 up to its radius, w in closed form, by mpmath
        ed = energy_diagnostic(instance_profile)
        with mpmath.workdps(30):
            edges = [mpmath.mpf(0)] + [mpmath.mpf(r) for r in ed.radii]
            density = lambda r: r**2 * ((1 + 2 * r) / (6 * (1 + r) ** 2)) ** 4  # noqa: E731
            parts = [mpmath.quad(density, [a, b]) for a, b in zip(edges[:-1], edges[1:])]
            exact = [float(4 * mpmath.pi * x) for x in itertools.accumulate(parts)]
        assert list(ed.energies) == pytest.approx(exact, rel=1e-10, abs=0.0)


@pytest.mark.slow
def test_energies_match_mpmath_on_w_at_n8_p3():
    # the verify profile of n=8 p=3 z^6.3*log(e+1/z)^-2: every energy within
    # 1e-10 of an mpmath quadrature of rho**7 f(w(rho)) up to its radius,
    # with f in 30 digits and w read by values_on_grid at each point
    params = StructureParams(8, 3.0)
    prof = find_delta(parse_nonlinearity("z^6.3*log(e+1/z)^-2"), params)
    ed = energy_diagnostic(prof)
    assert len(ed.radii) == 64
    with mpmath.workdps(30):

        def density(r):
            w = mpmath.mpf(prof.values_on_grid([float(r)])[0])
            return r**7 * w**6.3 * mpmath.log(mpmath.e + 1 / w) ** -2

        edges = [mpmath.mpf(0)] + [mpmath.mpf(r) for r in ed.radii]
        parts = [mpmath.quad(density, [a, b]) for a, b in zip(edges[:-1], edges[1:])]
        omega = 2 * mpmath.pi**4 / mpmath.gamma(4)
        exact = [float(omega * x) for x in itertools.accumulate(parts)]
    assert list(ed.energies) == pytest.approx(exact, rel=1e-10, abs=0.0)


def _energy_knots(profile):
    """ln rho at the table's knots that the energy check integrates over,
    from the last at or below 1e-6 * delta to the first at or above
    1e3 * delta."""
    t = profile._table
    x = t.ln_s + math.log(profile.delta)
    lo = max(int(np.searchsorted(t.s, 1e-6, side="right")) - 1, 0)
    return x[lo : int(np.searchsorted(t.s, 1e3)) + 1]


def _scalar_energy(profile):
    """The energy diagnostic on the default radii, one adaptive scalar
    quadrature in ln rho of rho**n f(w) per decade from the check's first
    knot to delta, and per gap between radii, w read by values_on_grid at
    each point: energies, ratios and pass/fail."""
    rs = np.geomspace(profile.delta, 1e3 * profile.delta, 64)
    n, p, eps = profile.params.n, profile.params.p, profile.params.eps
    f = math_twin(profile.f)
    if not profile._table.s.size:
        return [0.0] * 64, [0.0] * 64, True
    x0 = _energy_knots(profile)[0]

    def density(t):
        wv = profile.values_on_grid([math.exp(t)])[0]
        return 0.0 if wv >= eps else math.exp(n * t) * f(wv)

    # every part at rel 1e-10; below the first knot w is held at its value there
    edges = [x0] + np.log(profile.delta * np.geomspace(1e-5, 1.0, 6)).tolist() + np.log(rs[1:]).tolist()
    parts = [density(x0) / n] + [quad_ref(density, a, b, 1e-10)[0] for a, b in zip(edges[:-1], edges[1:])]
    omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    energies = (omega * np.cumsum(parts)[-64:]).tolist()
    ws = profile.values_on_grid(rs)
    ratios = [en * r ** (p - n) / min(w, eps) ** (p - 1.0) for r, en, w in zip(rs.tolist(), energies, ws)]
    grows = all(b >= a * (1.0 - 1e-12) - 1e-300 for a, b in zip(energies, energies[1:]))
    if all(x > 0.0 for x in ratios):
        med = sorted(ratios)[32]
        spread = max(max(ratios) / med, med / min(ratios))
    else:  # a zero energy leaves no ratio to bound
        spread = math.inf
    return energies, ratios, grows and spread <= 1e3


@pytest.mark.parametrize(
    "f, n, p, delta",
    [
        (Power(4.0), 3, 2.0, 1.0),
        (Power(4.0), 3, 2.0, 1e6),
        (parse_nonlinearity("0"), 3, 2.0, 1.0),
        (Power(5.5), 5, 3.0, 0.5),
        (PowerLog(-2.0, 3.0), 3, 2.0, 0.5),
        (parse_nonlinearity("z^3 * log(e + 1/z)^-2"), 4, 2.0, 0.5),
        (Power(9.8), 4, 1.5, 1.0),
    ],
    ids=repr,
)
def test_energy_matches_scalar_quadrature(f, n, p, delta, monkeypatch):
    prof = RadialProfile(f, StructureParams(n, p), delta)
    energies, ratios, passed = _scalar_energy(prof)
    redone = redone_panels(monkeypatch)
    ed = energy_diagnostic(prof)
    # one panel per knot interval, every one within its bound at once ([]
    # for the zero profile, which has no panel), and every energy within
    # the check's stated 2e-10 of the integral of f(w)
    assert redone in ([0], [])
    assert list(ed.energies) == pytest.approx(energies, rel=2e-10, abs=0.0)
    assert list(ed.ratios) == pytest.approx(ratios, rel=2e-10, abs=0.0)
    assert ed.passed == passed
    assert "did not converge" not in ed.detail


@pytest.mark.parametrize("f, params", [(Power(12.8), StructureParams(4, 1.5)), (Power(40.0), StructureParams(3, 2.0))],
                         ids=repr)
def test_energy_of_a_fast_decaying_f_is_prompt(f, params):
    # far out the density underflows, so no panel there can meet 1e-10 of
    # its own value; the absolute floor lets it pass at once
    prof = RadialProfile(f, params, 1.0)
    prof.profile_value(0.0)  # the outer cache fill is not the check's
    with deadline(5):
        ed = energy_diagnostic(prof)
    assert ed.passed
    assert "did not converge" not in ed.detail


def test_energy_reports_unconverged_quadrature(instance_profile, monkeypatch):
    honest = energy_diagnostic(instance_profile)
    kernel, bisect = construct_module._k7, construct_module._bisect
    redone = []

    def missing(f0, inner, f6, h, **dense):
        # the first two panels of the fill, which runs in construct, miss
        # their bound (the halves go through verify's _k7, which is not
        # patched)
        values, errors = kernel(f0, inner, f6, h, **dense)
        errors[:2] = np.inf
        return values, errors

    def unconverged(rule, lo, hi, tol, first):
        # the panels as fractions of their intervals
        redone.append((lo.tolist(), hi.tolist()))
        values, errors, panels, _ = bisect(rule, lo, hi, tol, first)
        return values, errors, panels, np.zeros(lo.size, dtype=bool)

    monkeypatch.setattr(construct_module, "_k7", missing)
    monkeypatch.setattr(construct_module, "_bisect", unconverged)
    flagged = energy_diagnostic(instance_profile)
    assert redone == [([0.0, 0.0], [1.0, 1.0])]
    assert flagged.detail == honest.detail + "; quadrature did not converge"
    assert flagged.passed == honest.passed
    # the two panels redone, with w read as values_on_grid reads it, agree
    # with their K7 values
    assert list(flagged.energies) == pytest.approx(honest.energies, rel=1e-14, abs=0.0)


def test_energy_halves_missed_panels_on_w(instance_profile, monkeypatch):
    # the first three panels miss: their halves read w as values_on_grid
    # reads it, and agree with mpmath's quadrature of the same density over
    # the same interval
    instance_profile.profile_value(0.0)  # the outer cache fill is not the check's
    kernel, bisect, halved, calls = verify_module._k7, construct_module._bisect, [], []

    def missing(f0, inner, f6, h, **dense):
        # the first three panels of the check's own pass miss; the halving
        # starts from them, and values only their halves
        values, errors = kernel(f0, inner, f6, h, **dense)
        calls.append(h.size)
        if len(calls) == 1:
            errors[:3] = np.inf
        return values, errors

    def recorded(rule, lo, hi, tol, first):
        halved.append(bisect(rule, lo, hi, tol, first))
        return halved[-1]

    for module in (verify_module, construct_module):
        monkeypatch.setattr(module, "_k7", missing)
    monkeypatch.setattr(construct_module, "_bisect", recorded)
    energy_diagnostic(instance_profile)
    (values, _, panels, converged), = halved
    assert calls == [577, 6] and converged.all() and panels.tolist() == [2, 2, 2]
    x = _energy_knots(instance_profile)

    def density(t):  # rho**3 f(w), w < eps = 1 everywhere
        ln_w = np.log(instance_profile.values_on_grid([math.exp(t)]))
        return math.exp(3.0 * t + float(_ln_f(instance_profile.f, ln_w, np.exp(ln_w))[0]))

    ref = [quad_ref(density, x[i], x[i + 1], exact=True)[0] for i in range(3)]
    assert values.tolist() == pytest.approx(ref, rel=1e-13, abs=0.0)


def _underflowing_profile(n):
    # eps=1e-10, p=1.05, f = z**(q+1): w underflows to 0 inside the range
    params = StructureParams(n, 1.05, 1e-10)
    return RadialProfile(Power(critical_exponent(params) + 1.0), params, 1.0)


@pytest.mark.parametrize("n, positive, kept", [(3, 822, 9), (4, 728, 0)])
def test_energy_stops_at_the_last_positive_knot(n, positive, kept):
    # only the radii up to the last positive knot are reported; with none
    # left there is no ratio to bound, and the check fails
    prof = _underflowing_profile(n)
    knots = np.exp(_energy_knots(prof))
    assert knots.size == 1154
    assert (np.array(prof.values_on_grid(knots)) > 0.0).sum() == positive
    ed = energy_diagnostic(prof)
    radii = np.geomspace(1.0, 1e3, 64)
    assert ed.radii == tuple(radii[:kept].tolist())
    assert (radii[:kept] <= knots[positive - 1]).all() and (radii[kept:] > knots[positive - 1]).all()
    assert len(ed.energies) == len(ed.ratios) == ed.as_check().grid_size == kept
    dropped = f"; w underflows to 0 past r={knots[positive - 1]:.6g}, so {64 - kept} of 64 radii are dropped"
    assert ed.detail.endswith(dropped)
    assert ed.passed == (kept > 0)


def test_energy_at_the_kept_radii_does_not_depend_on_where_w_underflows(monkeypatch):
    # n=3: 332 of the 1154 knots are 0; w cut to 0 from knot 788 on keeps
    # the first 4 of the 9 radii, bit for bit
    prof = _underflowing_profile(3)
    ed = energy_diagnostic(prof)
    sample = prof._node_sample

    def cut_sample(lo, hi):
        part, w, inner = sample(lo, hi)
        w[788:] = 0.0
        return part, w, inner

    monkeypatch.setattr(prof, "_node_sample", cut_sample)
    cut = energy_diagnostic(prof)
    assert cut.energies == ed.energies[:4]
    assert cut.detail.endswith("so 60 of 64 radii are dropped")


def _fejer_energies(profile):
    """The energies of the diagnostic, one open 15-node Fejer panel per
    knot interval, the panels that miss the diagnostic's bound redone by
    integrate_intervals, and one more from the knot below each radius to
    it, of rho**n f(w), w read by values_on_grid at their nodes."""
    n, eps = profile.params.n, profile.params.eps
    if not profile._table.s.size:
        return [0.0] * 64
    rs = np.geomspace(profile.delta, 1e3 * profile.delta, 64)
    x = _energy_knots(profile)

    def density(t):
        # the radii in order, once each: a radius within ulps of a knot
        # (464.16 = 10**(8/3) on level-1 knots) gives a panel whose nodes
        # coincide
        radii, at = np.unique(np.exp(t.ravel()), return_inverse=True)
        w = np.array(profile.values_on_grid(radii))[at].reshape(t.shape)
        small = (w > 0.0) & (w < eps)
        ln_d = np.full(t.shape, -np.inf)
        ln_d[small] = n * t[small] + _ln_f(profile.f, np.log(w[small]), w[small])
        return np.exp(ln_d)

    values, errors = _panels(density, x[:-1], x[1:])
    head = density(x[:1])[0] / n
    below = np.searchsorted(x, np.log(rs), side="right") - 1
    sums = np.concatenate(([head], head + np.cumsum(values)))[below]
    tol = Tolerance(rel=1e-10, absolute=1e-10 * sums[sums > 0.0][:1].sum() / values.size)
    miss = np.flatnonzero(~(errors <= np.maximum(tol.absolute, tol.rel * np.abs(values))))
    if miss.size:
        values[miss] = integrate_intervals(density, x[miss], x[miss + 1], tol).values
    partial, _ = _panels(density, x[below], np.log(rs))
    omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    return (omega * (np.concatenate(([head], head + np.cumsum(values)))[below] + partial)).tolist()


@pytest.mark.parametrize(
    "f, n, p, delta",
    [
        (Power(4.0), 3, 2.0, 1.0),
        (Power(4.0), 3, 2.0, 1e6),
        (parse_nonlinearity("0"), 3, 2.0, 1.0),
        (Power(5.5), 5, 3.0, 0.5),
        (PowerLog(-2.0, 3.0), 3, 2.0, 0.5),
        (parse_nonlinearity("z^3 * log(e + 1/z)^-2"), 4, 2.0, 0.5),
        (Power(9.8), 4, 1.5, 1.0),
        (Power(40.0), 3, 2.0, 1.0),
        (Power(12.8), 4, 1.5, 1.0),
        (Power(0.81), 8, 1.5, 1.0),
        # the outer fill halves 469 of the check's intervals, where w at the
        # interior nodes is read by _on_grid
        (Power(0.5), 5, 1.1, 1.0),
    ],
    ids=repr,
)
def test_energy_k7_panels_match_fejer_panels(f, n, p, delta, monkeypatch):
    # the K7 panels on the knots against open 15-node panels over the same
    # intervals, with no panel redone
    prof = RadialProfile(f, StructureParams(n, p), delta)
    ref = _fejer_energies(prof)
    redone = redone_panels(monkeypatch)
    ed = energy_diagnostic(prof)
    assert redone in ([0], [])
    assert list(ed.energies) == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_energy_reads_f_once_at_every_node(instance_profile, monkeypatch):
    # one K7 panel per knot interval: the density at the 578 knots and at
    # five interior nodes of each of the 577 intervals, all in one call of
    # f's log evaluator (w < eps = 1 everywhere)
    instance_profile.profile_value(0.0)  # the outer cache fill is not the check's
    ln_f, sizes = verify_module._ln_f, []

    def counted(f, ln_z, z):
        sizes.append(ln_z.size)
        return ln_f(f, ln_z, z)

    monkeypatch.setattr(verify_module, "_ln_f", counted)
    energy_diagnostic(instance_profile)
    assert sizes == [578 + 5 * 577] == [3463]


def test_energy_allocates_little_beyond_its_result(instance_profile):
    # the density goes into the check's node stack in one pass of f over
    # its 3463 nodes: beyond the diagnostic it returns, the check allocates
    # 128 KB, under the bound of two of the table's node stacks (150 KB on
    # level-1 knots).  Concatenating the nodes' x and w, and stacking the
    # density with vstack, took three node stacks
    instance_profile.profile_value(0.0)  # the outer cache fill is not the check's
    bound = 2 * instance_profile._table.nodes.nbytes
    assert transient_bytes(lambda: energy_diagnostic(instance_profile)) < bound


def test_grid_checks_report_unconverged_outer_fill(params32, monkeypatch):
    checks = (supersolution_check, normalization_check, lambda p: energy_diagnostic(p).as_check())
    honest = [check(RadialProfile(Power(4.0), params32, 1.0)) for check in checks]
    fill = RadialProfile._fill_outer

    def unconverged(self):
        outer = fill(self)
        outer.converged = False
        return outer

    monkeypatch.setattr(RadialProfile, "_fill_outer", unconverged)
    prof = RadialProfile(Power(4.0), params32, 1.0)
    assert not prof.outer_converged()
    for check, ok in zip(checks, honest):
        flagged = check(prof)
        assert flagged.detail == ok.detail + "; quadrature did not converge"
        assert (flagged.passed, flagged.worst_residual) == (ok.passed, ok.worst_residual)


def test_gradient_check_reports_an_unconverged_source_integral(params32, monkeypatch):
    # the terminal source integral is the table's rule of its first panel on
    # [0, r], whose estimate is its gap to the rule on L4's nodes: with the
    # L4 row perturbed by 1e-6, the estimate misses the table's tolerance,
    # and the check says so, with the same verdict and residual
    prof = RadialProfile(Power(4.0), params32, 1.0)
    honest = gradient_decay_check(prof)
    rule = construct_module._origin_rule
    monkeypatch.setattr(construct_module, "_origin_rule", lambda n: rule(n) * [[1.0], [1.0 + 1e-6]])
    flagged = gradient_decay_check(prof)
    assert not honest.detail.endswith("; quadrature did not converge")
    assert flagged.detail == honest.detail + "; quadrature did not converge"
    assert (flagged.passed, flagged.worst_residual) == (honest.passed, honest.worst_residual)


def test_grid_checks_report_unconverged_table_fill(params32, monkeypatch):
    # a bump of width 1e-3 in f at z = 1/2 (s = 1) fits inside a knot
    # interval: the table fill halves the three panels there by _bisect
    f = parse_nonlinearity("z^4*(1+exp(-1e6*(z-0.5)^2))")
    checks = (supersolution_check, normalization_check, lambda p: energy_diagnostic(p).as_check())
    honest = [check(RadialProfile(f, params32, 1.0)) for check in checks]
    bisect, redone = construct_module._bisect, []

    def unconverged(rule, lo, hi, tol, first):
        redone.append(len(lo))
        values, errors, panels, _ = bisect(rule, lo, hi, tol, first)
        return values, errors, panels, np.zeros(lo.size, dtype=bool)

    monkeypatch.setattr(construct_module, "_bisect", unconverged)
    prof = RadialProfile(f, params32, 1.0)
    monkeypatch.undo()
    assert redone == [3]
    assert not prof.outer_converged()
    for check, ok in zip(checks, honest):
        flagged = check(prof)
        assert flagged.detail == ok.detail + "; quadrature did not converge"
        assert (flagged.passed, flagged.worst_residual) == (ok.passed, ok.worst_residual)


# ---------------------------------------------------------------------------
# vanishing-sup limit


class TestDeltaLimit:
    def test_closed_instance(self, params32):
        rep = delta_limit_check(Power(4.0), params32)
        assert rep.passed
        assert rep.strictly_decreasing
        assert len(rep.sups) == 11
        assert rep.final < 1e-3
        # sup scales as delta^2/6 = 4^-j / 6
        for j, s in enumerate(rep.sups):
            assert s == pytest.approx(4.0**-j / 6.0, rel=1e-6)

    def test_builds_one_profile(self, params32, monkeypatch):
        builds = []
        init = RadialProfile.__init__

        def counted(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(RadialProfile, "__init__", counted)
        rep = delta_limit_check(Power(4.0), params32, j_count=4)
        assert len(builds) == 1
        assert rep.deltas == (1.0, 0.5, 0.25, 0.125, 0.0625)

    def test_powerlog_instance(self, params32):
        rep = delta_limit_check(PowerLog(-2.0, 3.0), params32, j_count=6)
        assert rep.strictly_decreasing
        assert len(rep.sups) == 7

    def test_zero_function(self, params32):
        rep = delta_limit_check(parse_nonlinearity("0"), params32, j_count=3)
        assert rep.passed


# ---------------------------------------------------------------------------
# the bundled report


class TestVerifyProfile:
    def test_all_checks_pass(self, instance_profile):
        rep = verify_profile(instance_profile)
        assert rep.overall
        assert [c.name for c in rep.checks] == [
            "flux_identity",
            "supersolution",
            "gradient_decay",
            "normalization",
            "energy",
        ]
        assert all(c.passed for c in rep.checks)

    def test_deterministic_across_fresh_profiles(self, params32):
        a = verify_profile(RadialProfile(Power(4.0), params32, 1.0))
        b = verify_profile(RadialProfile(Power(4.0), params32, 1.0))
        assert a.overall == b.overall
        for ca, cb in zip(a.checks, b.checks):
            assert ca == cb  # dataclass equality: bit-identical floats

    def test_overall_false_when_any_check_fails(self, params32):
        # at delta = 1e6, w >= eps = 1 up to r = 1e3 delta: every energy is
        # 0, which leaves no ratio to bound
        rep = verify_profile(RadialProfile(Power(4.0), params32, 1e6))
        assert not rep.overall
        failed = {c.name for c in rep.checks if not c.passed}
        assert {"supersolution", "energy"} <= failed
        energy = rep.checks[-1]
        assert energy.worst_residual == math.inf and "around the median 0;" in energy.detail


# one input of each family, the expression one with no leading term for
# the walk (exp(z) - 1 cancels), so its criterion runs on the shells
_FAMILIES = [
    (Power(4.0), StructureParams(3, 2.0)),
    (PowerLog(-2.0, 2.0), StructureParams(4, 2.0)),
    (parse_nonlinearity("(exp(z)-1)*z^2.2"), StructureParams(4, 2.0)),
]


@pytest.mark.parametrize("f, params", _FAMILIES, ids=["power", "powerlog", "expression"])
def test_after_the_gate_f_is_read_in_logs_only(monkeypatch, f, params):
    # past the classifier gate, the profile and its checks evaluate f by
    # the log-domain evaluator alone, as the table does
    def refuse(self, *args):
        raise AssertionError("the plain evaluator of f was called")

    monkeypatch.setattr(Nonlinearity, "values", refuse)
    monkeypatch.setattr(Nonlinearity, "__call__", refuse)
    prof = find_delta(f, params, DeltaSearchOptions(assume_convergent=True))
    assert verify_profile(prof).overall
    assert decay_bound(prof, 2.0 * prof.delta) > 0.0
    ws = prof.values_on_grid([0.5 * prof.delta, prof.delta, 2.0 * prof.delta])
    assert ws[0] > ws[1] > ws[2] > 0.0


# ---------------------------------------------------------------------------
# the one sample of w that the grid checks read


def test_sample_radii_hold_every_grid():
    # one strictly increasing array; each check's grid at delta = 1 is its
    # slice, bit for bit
    radii, at_super, at_norm, at_energy = verify_module._unit_sample()
    assert radii.size == 322 and (np.diff(radii) > 0.0).all()
    assert radii[at_super].tolist() == np.geomspace(1e-6, 1e6, 200).tolist()
    assert radii[at_norm].tolist() == np.geomspace(1e-6, 1e6, 64).tolist()
    assert radii[at_energy].tolist() == np.geomspace(1.0, 1e3, 64).tolist()


def test_verify_reads_w_with_no_span_pass(monkeypatch, params32):
    # a fresh profile: its outer cache fill halves no span, so the sample
    # that the supersolution, normalization and energy checks share (all
    # of its 322 radii lie between table knots) and w at the energy check's
    # nodes are the dense output of the fill's nodes, with no pass of
    # adaptive spans
    passes = partial_span_passes(monkeypatch)
    verify_profile(RadialProfile(Power(4.0), params32, 1.0))
    assert passes == []


def test_energy_reads_no_outer_array(monkeypatch, params32):
    # w at the radii comes from the sample, and at the panels' nodes from
    # the outer record
    calls, outer = [], RadialProfile._outer_array
    monkeypatch.setattr(RadialProfile, "_outer_array", lambda self, z: calls.append(np.size(z)) or outer(self, z))
    energy_diagnostic(RadialProfile(Power(4.0), params32, 1.0))
    assert calls == []

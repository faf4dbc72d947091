"""Verification checks on the closed-form instance.

Oracle values (mpmath, 40 digits, frozen before the tests were written):

    E(1000)     = 0.03225858147068036243   (E(r) = 4 pi int_0^r w^4 rho^2)
    E(inf)      = 0.03241325753703754929
    ratio(1000) = 0.09692093221050432935   (E(r) r^(p-n) / w(r)^(p-1))
"""

import dataclasses
import math

import numpy as np
import pytest

import liouville.verify as verify_module
from liouville import (
    MonoCubic,
    Power,
    PowerLog,
    RadialProfile,
    StructureParams,
    Tolerance,
    delta_limit_check,
    energy_diagnostic,
    flux_identity_check,
    flux_residual_at,
    gradient_decay_check,
    integrate,
    normalization_check,
    parse_nonlinearity,
    supersolution_check,
    verify_profile,
)

E_1000 = 0.03225858147068036243
RATIO_1000 = 0.09692093221050432935


# ---------------------------------------------------------------------------
# flux identity


class TestFlux:
    def test_residual_small_at_moderate_window(self, instance_profile):
        assert flux_residual_at(instance_profile, 1.0, 0.1) < 1e-7

    def test_residual_grows_as_window_shrinks(self, instance_profile):
        # the increment over a tiny window cancels to the cache noise
        # floor, so wider windows are syntactically *more* accurate here
        wide = flux_residual_at(instance_profile, 1.0, 1e-1)
        narrow = flux_residual_at(instance_profile, 1.0, 1e-4)
        assert wide < narrow < 1e-4

    def test_window_validation(self, instance_profile):
        with pytest.raises(ValueError):
            flux_residual_at(instance_profile, 1.0, 0.0)
        with pytest.raises(ValueError):
            flux_residual_at(instance_profile, 1.0, 2.0)  # h >= r

    def test_check_passes_instance(self, instance_profile):
        res = flux_identity_check(instance_profile)
        assert res.passed
        assert res.worst_residual <= 1e-6
        assert res.name == "flux_identity"

    def test_check_custom_radii(self, instance_profile):
        res = flux_identity_check(instance_profile, radii=[0.5, 1.0, 2.0])
        assert res.passed
        assert res.grid_size == 3


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
        res = gradient_decay_check(instance_profile, levels=12)
        assert res.grid_size == 13
        # the ladder halves inward from delta; 12 levels stop at
        # r = 2^-12 where |w'| ~ r/3 ~ 8e-5 is still above tol_value,
        # so the check reports a failure rather than shrinking its claim
        assert not res.passed
        r = 2.0**-12
        assert res.worst_residual == pytest.approx(r / (3 * (1 + r) ** 3), rel=1e-6)


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


def _scalar_energy(profile):
    """The energy diagnostic on the default radii, one adaptive scalar
    quadrature per ball shell: energies, ratios and pass/fail."""
    rs = [float(r) for r in np.geomspace(profile.delta, 1e3 * profile.delta, 64)]
    n, p, eps = profile.params.n, profile.params.p, profile.params.eps
    grid = [float(g) for g in np.geomspace(1e-6 * rs[0], rs[-1], 512)]
    ws = profile.values_on_grid(grid)
    if ws[0] == 0.0:
        return [0.0] * 64, [0.0] * 64, True
    pos = [(g, w) for g, w in zip(grid, ws) if w > 0.0]
    interp = MonoCubic([math.log(g) for g, _ in pos], [math.log(w) for _, w in pos])

    def w_tilde(rho):
        if rho <= pos[0][0]:
            return pos[0][1]
        if rho >= pos[-1][0]:
            return pos[-1][1]
        return math.exp(interp(math.log(rho)))

    def density(rho):
        wv = w_tilde(rho)
        return 0.0 if wv >= eps else rho ** (n - 1) * profile.f(wv)

    omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    tol = Tolerance(rel=1e-10, absolute=0.0)
    acc, energies = 0.0, []
    for a, b in zip([0.0] + rs, rs):
        acc += integrate(density, a, b, tol).value
        energies.append(omega * acc)
    ratios = [
        en * r ** (p - n) / min(w_tilde(r), eps) ** (p - 1.0) for r, en in zip(rs, energies)
    ]
    grows = all(b >= a * (1.0 - 1e-12) - 1e-300 for a, b in zip(energies, energies[1:]))
    if all(x > 0.0 for x in ratios):
        med = sorted(ratios)[32]
        spread = max(max(ratios) / med, med / min(ratios))
    else:
        spread = 1.0 if not any(ratios) else math.inf
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
    ],
    ids=repr,
)
def test_energy_matches_scalar_quadrature(f, n, p, delta, monkeypatch):
    prof = RadialProfile(f, StructureParams(n, p), delta)
    energies, ratios, passed = _scalar_energy(prof)
    batched = verify_module.integrate_segments
    fallbacks = []

    def counted(*args, **kwargs):
        sums, pieces = batched(*args, **kwargs)
        fallbacks.append(pieces.fallbacks)
        return sums, pieces

    monkeypatch.setattr(verify_module, "integrate_segments", counted)
    ed = energy_diagnostic(prof)
    # cut at the interpolant's knots, every panel is smooth enough for
    # the batched rule
    assert sum(fallbacks) == 0
    assert list(ed.energies) == pytest.approx(energies, rel=1e-8, abs=0.0)
    assert list(ed.ratios) == pytest.approx(ratios, rel=1e-8, abs=0.0)
    assert ed.passed == passed
    assert "did not converge" not in ed.detail


def test_energy_reports_unconverged_quadrature(instance_profile, monkeypatch):
    honest = energy_diagnostic(instance_profile)
    batched = verify_module.integrate_segments

    def unconverged(*args, **kwargs):
        sums, pieces = batched(*args, **kwargs)
        return sums, dataclasses.replace(pieces, converged=False)

    monkeypatch.setattr(verify_module, "integrate_segments", unconverged)
    flagged = energy_diagnostic(instance_profile)
    assert flagged.detail == honest.detail + "; quadrature did not converge"
    assert flagged.passed == honest.passed
    assert flagged.energies == honest.energies


def test_grid_checks_report_unconverged_outer_fill(params32, monkeypatch):
    checks = (supersolution_check, normalization_check, lambda p: energy_diagnostic(p).as_check())
    honest = [check(RadialProfile(Power(4.0), params32, 1.0)) for check in checks]
    fill = RadialProfile._fill_outer
    monkeypatch.setattr(RadialProfile, "_fill_outer", lambda self: (fill(self)[0], False))
    prof = RadialProfile(Power(4.0), params32, 1.0)
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
        rep = verify_profile(RadialProfile(Power(4.0), params32, 1e6))
        assert not rep.overall
        failed = {c.name for c in rep.checks if not c.passed}
        assert "supersolution" in failed

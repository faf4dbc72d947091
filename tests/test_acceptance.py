"""Acceptance suite: the nine criteria the package must satisfy.

Each test covers exactly one criterion, at its stated tolerance and
runtime budget, and reports one PASS/FAIL line in the summary section
at the end of the run.  Numeric expectations are closed forms where
one exists, mpmath cross-checks (computed separately, 40 digits)
otherwise.
"""

import json
import math

import numpy as np
import pytest

from liouville import (
    Power,
    PowerLog,
    StructureParams,
    Tolerance,
    change_of_variables_check,
    classify,
    criterion_value,
    critical_exponent,
    decay_bound,
    delta_limit_check,
    energy_diagnostic,
    find_delta,
    flux_identity_check,
    integrate,
    integrate_to_infinity,
    parse_nonlinearity,
    supersolution_check,
)
from liouville.cli import main

POWER_CASES = [(4, 2.0), (3, 2.0), (5, 3.0)]


def test_criterion_1_power_dichotomy(acceptance, capsys):
    with acceptance(1, "pure power dichotomy at the critical exponent", budget=5.0):
        for n, p in POWER_CASES:
            params = StructureParams(n, p)
            q = critical_exponent(params)
            for lam, want in ((q - 0.5, "diverges"), (q, "diverges"), (q + 0.5, "converges")):
                analytic = classify(Power(lam), params)
                numeric = classify(parse_nonlinearity(f"z^{lam!r}"), params)
                assert analytic.method == "analytic"
                assert numeric.method == "numeric"
                assert analytic.verdict.value == want, (n, p, lam)
                assert numeric.verdict.value == want, (n, p, lam)
                code = main(["classify", "--n", str(n), "--p", repr(p), "--power", repr(lam)])
                capsys.readouterr()
                assert code == (1 if want == "converges" else 0), (n, p, lam)


def test_criterion_2_log_refined_dichotomy(acceptance):
    with acceptance(2, "log-refined dichotomy at the critical power", budget=10.0):
        params = StructureParams(3, 2.0)
        for mu in (-1.0, -0.5, 0.0):
            assert classify(PowerLog(mu, 3.0), params).verdict.value == "diverges", mu
        for mu in (-1.5, -2.0):
            assert classify(PowerLog(mu, 3.0), params).verdict.value == "converges", mu
        # the expression route on the spelled-out form must agree
        for mu in (-2.0, -0.5):
            expr = parse_nonlinearity(f"z^3.0 * log(e + 1.0/z)^{mu!r}")
            analytic = classify(PowerLog(mu, 3.0), params)
            numeric = classify(expr, params)
            assert numeric.method == "numeric"
            assert numeric.verdict == analytic.verdict, mu
        k_numeric = criterion_value(parse_nonlinearity("z^3.0 * log(e + 1.0/z)^-2.0"), params)
        k_analytic = criterion_value(PowerLog(-2.0, 3.0), params)
        assert k_numeric.value == pytest.approx(k_analytic.value, rel=1e-6)


def test_criterion_3_closed_form_instance(acceptance, instance_profile):
    with acceptance(3, "closed-form instance reproduces exact values", budget=2.0):
        assert instance_profile.inner_limit() == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert instance_profile.profile_value(0.0) == pytest.approx(1.0 / 6.0, abs=1e-7)
        assert instance_profile.profile_value(1.0) == pytest.approx(1.0 / 8.0, abs=1e-7)
        direct, transformed = change_of_variables_check(instance_profile)
        assert transformed.value == pytest.approx(direct.value, rel=1e-8)


def test_criterion_4_supersolution_certificate(acceptance, params32):
    with acceptance(4, "supersolution certificate on the instance", budget=5.0):
        profile = find_delta(Power(4.0), params32)
        assert profile.delta == 1.0
        sup = supersolution_check(profile)
        assert sup.grid_size == 200
        assert sup.passed
        assert sup.worst_residual >= -1e-10
        flux = flux_identity_check(profile)
        assert flux.passed
        assert flux.worst_residual <= 1e-6


def test_criterion_5_decay_bound(acceptance):
    cases = [(3, 2.0, 4.0), (3, 2.0, 3.5), (4, 2.0, 2.5),
             (4, 2.0, 3.0), (5, 3.0, 5.5), (5, 2.0, 2.5)]
    with acceptance(5, "explicit decay bound dominates the profile"):
        for n, p, lam in cases:
            params = StructureParams(n, p)
            assert lam > critical_exponent(params)
            profile = find_delta(Power(lam), params)
            delta = profile.delta
            radii = [float(r) for r in np.geomspace(1e-6 * delta, 1e6 * delta, 50)]
            for r, w in zip(radii, profile.values_on_grid(radii)):
                assert w <= decay_bound(profile, r), (n, p, lam, r)


def test_criterion_6_vanishing_sup_limit(acceptance, params32):
    with acceptance(6, "sup of the profile vanishes as delta does"):
        report = delta_limit_check(Power(4.0), params32, j_count=10)
        assert report.strictly_decreasing
        assert len(report.sups) == 11
        assert report.final < 1e-3


def test_criterion_7_energy_diagnostic(acceptance, instance_profile):
    with acceptance(7, "energy nondecreasing, scaled ratio near its median"):
        diag = energy_diagnostic(instance_profile)
        assert all(b >= a for a, b in zip(diag.energies, diag.energies[1:]))
        ratios = [x for x in diag.ratios if x > 0.0]
        median = sorted(ratios)[len(ratios) // 2]
        assert all(median / 1e3 <= x <= median * 1e3 for x in ratios)


def test_criterion_8_deterministic_reports(acceptance, capsys):
    with acceptance(8, "verification reports are byte-identical across runs"):
        argv = ["verify", "--n", "3", "--p", "2.0", "--power", "4.0", "--format", "json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        json.loads(first)  # and it is well-formed


def test_criterion_9_quadrature_examples(acceptance):
    tol = Tolerance(rel=1e-10)
    with acceptance(9, "quadrature engine hits closed forms at 1e-10"):
        poly = integrate(lambda z: z * z, 0.0, 1.0, tol)
        assert abs(poly.value - 1.0 / 3.0) <= tol.bound(1.0 / 3.0)

        singular = integrate(lambda z: z**-0.5, 0.0, 1.0, tol)
        assert abs(singular.value - 2.0) <= tol.bound(2.0)

        tail = integrate_to_infinity(lambda x: x * x * (1.0 + x) ** -4.0, 0.0, tol)
        assert abs(tail.value - 1.0 / 3.0) <= tol.bound(1.0 / 3.0)

"""Critical exponent, classification, and criterion values.

Numeric oracles, computed independently before being frozen here:

    K(mu=-2) at (n,p)=(3,2), eps=1:
        int_0^1 dz / (z * log(e + 1/z)^2)
        = int_0^inf log(e + e^u)^-2 du  (u = -ln z)
        = 1.189883970344349580   (mpmath, 40 digits, split at u=5,30,100)
    K(mu=-3) likewise = 0.556776080278639509
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville import (
    ClassifyOptions,
    CriterionUndecidedError,
    DivergentIntegralError,
    MonotonicityError,
    Power,
    PowerLog,
    Shifted,
    StructureParams,
    Tolerance,
    UnsupportedRegimeError,
    Verdict,
    classify,
    criterion_integrand,
    criterion_value,
    critical_exponent,
    floor_by_power,
    parse_nonlinearity,
)
from liouville.criterion import _fit_tail

K_MU_M2 = 1.189883970344349580
K_MU_M3 = 0.556776080278639509


# ---------------------------------------------------------------------------
# parameters and exponent


class TestStructureParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            StructureParams(1, 2.0)
        with pytest.raises(ValueError):
            StructureParams(3, 1.0)
        with pytest.raises(ValueError):
            StructureParams(3, 2.0, eps=0.0)

    def test_n_p_equal_allowed_at_construction(self):
        # n <= p only blocks construction-dependent operations
        params = StructureParams(2, 2.0)
        with pytest.raises(UnsupportedRegimeError):
            critical_exponent(params)


@pytest.mark.parametrize(
    "n,p,q",
    [(4, 2.0, 2.0), (3, 2.0, 3.0), (5, 3.0, 5.0), (5, 2.0, 5.0 / 3.0), (10, 4.0, 5.0)],
)
def test_critical_exponent_values(n, p, q):
    assert critical_exponent(StructureParams(n, p)) == pytest.approx(q, rel=1e-15)


def test_unsupported_regime_mentions_constancy():
    with pytest.raises(UnsupportedRegimeError, match="constant"):
        critical_exponent(StructureParams(2, 2.0))


# ---------------------------------------------------------------------------
# integrand


def test_integrand_critical_power_is_inverse(params42):
    g = criterion_integrand(Power(2.0), params42)
    assert g(0.5) == pytest.approx(2.0, rel=1e-14)
    assert g(0.01) == pytest.approx(100.0, rel=1e-14)


def test_integrand_exponents_cancel(params42):
    g = criterion_integrand(Power(3.0), params42)
    for z in (1e-6, 0.3, 0.9):
        assert g(z) == pytest.approx(1.0, rel=1e-13)


def test_integrand_powerlog(params32):
    g = criterion_integrand(PowerLog(-2.0, 3.0), params32)
    z = 0.2
    assert g(z) == pytest.approx(math.log(math.e + 5.0) ** -2 / z, rel=1e-13)


def test_integrand_matches_plain_product(params32):
    f = parse_nonlinearity("z^3.5 + z^5")
    g = criterion_integrand(f, params32)
    for z in (1e-4, 0.2, 0.8):
        assert g(z) == pytest.approx(f(z) / z**4, rel=1e-12)


def test_integrand_survives_deep_underflow(params32):
    # plain evaluation of z^4/z^4 at z=1e-120 would be 0/0
    g = criterion_integrand(parse_nonlinearity("z^4"), params32)
    assert g(1e-120) == pytest.approx(1.0, rel=1e-12)
    # and a value far below the double floor is still represented
    g5 = criterion_integrand(parse_nonlinearity("z^5"), params32)
    assert g5(1e-120) == pytest.approx(1e-120, rel=1e-10)


# ---------------------------------------------------------------------------
# analytic classification


@pytest.mark.parametrize("n,p", [(4, 2.0), (3, 2.0), (5, 3.0)])
def test_power_dichotomy_analytic(n, p):
    params = StructureParams(n, p)
    q = critical_exponent(params)
    assert classify(Power(q - 0.5), params).verdict is Verdict.DIVERGES
    assert classify(Power(q), params).verdict is Verdict.DIVERGES
    v = classify(Power(q + 0.5), params)
    assert v.verdict is Verdict.CONVERGES
    assert v.method == "analytic"
    assert v.value == pytest.approx(1.0 / 0.5, rel=1e-14)  # eps^(l-q)/(l-q)


@pytest.mark.parametrize(
    "mu,expected",
    [
        (0.0, Verdict.DIVERGES),
        (-0.5, Verdict.DIVERGES),
        (-1.0, Verdict.DIVERGES),
        (-1.5, Verdict.CONVERGES),
        (-2.0, Verdict.CONVERGES),
    ],
)
def test_powerlog_dichotomy_analytic(params32, mu, expected):
    q = critical_exponent(params32)
    v = classify(PowerLog(mu, q), params32)
    assert v.verdict is expected
    assert v.method == "analytic"


def test_powerlog_off_critical_power_goes_numeric(params32):
    # the analytic shortcut only covers the critical power
    v = classify(PowerLog(-2.0, 3.5), params32)
    assert v.method == "numeric"
    assert v.verdict is Verdict.CONVERGES


# ---------------------------------------------------------------------------
# numeric classification


def as_expr(mu, q):
    return parse_nonlinearity(f"z^{q} * log(e + 1/z)^({mu})")


class TestNumericClassify:
    def test_expression_power_verdicts(self, params42):
        assert classify(parse_nonlinearity("z^1.5"), params42).verdict is Verdict.DIVERGES
        assert classify(parse_nonlinearity("z^2"), params42).verdict is Verdict.DIVERGES
        assert classify(parse_nonlinearity("z^3"), params42).verdict is Verdict.CONVERGES

    def test_near_critical_is_inconclusive(self, params42):
        v = classify(parse_nonlinearity("z^2.005"), params42)
        assert v.verdict is Verdict.INCONCLUSIVE
        assert v.shells is not None and len(v.shells) == 40

    def test_critical_log_boundary_is_inconclusive(self, params42):
        # mu = -1: the sum diverges like log k, but shell decay looks
        # convergent; the tail-mass guard refuses to certify
        v = classify(as_expr(-1.0, 2), params42)
        assert v.verdict is Verdict.INCONCLUSIVE

    def test_convergent_log_expression(self, params42):
        v = classify(as_expr(-1.5, 2), params42)
        assert v.verdict is Verdict.CONVERGES

    def test_shifted_nonlinearity_diverges(self, params32):
        # f(0+) > 0 makes the criterion integrand blow up like z^-(1+q)
        v = classify(Shifted(Power(2.0), 0.5), params32)
        assert v.verdict is Verdict.DIVERGES
        assert v.method == "numeric"

    @pytest.mark.parametrize("lam", [3.5, 4.0, 5.0, 2.6])
    def test_numeric_agrees_with_analytic_when_convergent(self, params42, lam):
        analytic = classify(Power(lam), params42)
        numeric = classify(parse_nonlinearity(f"z^{lam}"), params42)
        assert analytic.verdict is numeric.verdict is Verdict.CONVERGES
        assert numeric.value == pytest.approx(analytic.value, rel=1e-6)

    @pytest.mark.parametrize("lam", [1.0, 1.5, 2.0])
    def test_numeric_agrees_with_analytic_when_divergent(self, params42, lam):
        assert classify(Power(lam), params42).verdict is Verdict.DIVERGES
        assert classify(parse_nonlinearity(f"z^{lam}"), params42).verdict is Verdict.DIVERGES

    def test_evaluation_failure_inconclusive(self, params32):
        v = classify(parse_nonlinearity("z / (z - z)"), params32,
                     ClassifyOptions(check_monotonicity=False))
        assert v.verdict is Verdict.INCONCLUSIVE
        assert "fail" in v.detail


# ---------------------------------------------------------------------------
# monotonicity gate


def test_monotonicity_gate_raises(params32):
    with pytest.raises(MonotonicityError):
        classify(parse_nonlinearity("1/(1+z)"), params32)


def test_monotonicity_gate_waivable(params32):
    v = classify(parse_nonlinearity("1/(1+z)"), params32,
                 ClassifyOptions(check_monotonicity=False))
    assert v.verdict is Verdict.DIVERGES  # f(0+) = 1 > 0


# ---------------------------------------------------------------------------
# criterion values


class TestCriterionValue:
    def test_exact_power_instances(self, params32, params42):
        # exponent 1+q makes the integrand identically 1
        assert criterion_value(Power(4.0), params32).value == pytest.approx(1.0, abs=1e-14)
        assert criterion_value(Power(3.0), params42).value == pytest.approx(1.0, abs=1e-14)

    def test_power_closed_form(self, params32):
        res = criterion_value(Power(5.0), params32)
        assert res.value == pytest.approx(0.5, rel=1e-13)
        assert res.converged

    def test_powerlog_oracle_mu_minus_2(self, params32):
        res = criterion_value(PowerLog(-2.0, 3.0), params32)
        assert res.value == pytest.approx(K_MU_M2, rel=1e-9)
        assert res.abs_error < 1e-6

    def test_powerlog_oracle_mu_minus_3(self, params32):
        res = criterion_value(PowerLog(-3.0, 3.0), params32)
        assert res.value == pytest.approx(K_MU_M3, rel=1e-9)

    def test_powerlog_oracle_scipy_cross_check(self, params32):
        # independent second oracle (coarse: scipy truncates at u=2000,
        # remainder bounded by the analytic tail int_2000^inf u^-2 du)
        from scipy.integrate import quad

        def integrand(u):
            # log(e + e^u) = u + log1p(e^(1-u)), stable for large u
            return (u + math.log1p(math.exp(1.0 - u))) ** -2.0 if u > 1 \
                else math.log(math.e + math.exp(u)) ** -2.0

        val, _ = quad(integrand, 0, 2000, limit=800)
        # remainder past u=2000 is int u^-2 du = 1/2000 up to ~e^-1999
        assert val + 1.0 / 2000.0 == pytest.approx(K_MU_M2, abs=1e-9)
        res = criterion_value(PowerLog(-2.0, 3.0), params32)
        assert res.value == pytest.approx(val + 1.0 / 2000.0, abs=1e-6)

    def test_expression_route_agrees(self, params32):
        res = criterion_value(parse_nonlinearity("z^3 * log(e + 1/z)^(-2)"), params32)
        assert res.value == pytest.approx(K_MU_M2, rel=1e-6)

    @pytest.mark.parametrize("lam", [5.86, 6.5, 20.0])
    def test_expression_with_underflowing_deep_shells(self, params32, lam):
        # shells past about 1074 / (lam - q) underflow to zero; the tail
        # fit uses the positive ones (or bounds the tail by the last one)
        res = criterion_value(parse_nonlinearity(f"z^{lam}"), params32)
        assert res.value == pytest.approx(1.0 / (lam - 3.0), rel=1e-9)
        assert res.converged

    def test_tail_fit_ignores_shells_after_first_zero(self):
        geometric = [0.5**k for k in range(30)]
        assert _fit_tail(geometric + [0.0] * 10) == _fit_tail(geometric)
        tail, err, label = _fit_tail(geometric[:5] + [0.0] * 35)
        assert (tail, err, label) == (0.0, geometric[4], "last-shell")

    def test_divergent_raises(self, params32):
        with pytest.raises(DivergentIntegralError):
            criterion_value(Power(2.0), params32)
        with pytest.raises(DivergentIntegralError):
            criterion_value(PowerLog(0.0, 3.0), params32)

    def test_boundary_mu_raises_undecided(self, params42):
        with pytest.raises((CriterionUndecidedError, DivergentIntegralError)):
            criterion_value(PowerLog(-1.0, 2.0), params42)

    def test_undecidable_expression_raises(self, params42):
        with pytest.raises(CriterionUndecidedError):
            criterion_value(parse_nonlinearity("z^2.005"), params42)

    @given(
        lam_off=st.floats(min_value=0.5, max_value=3.0),
        eps=st.floats(min_value=0.25, max_value=4.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_power_epsilon_scaling(self, lam_off, eps):
        n, p = 3, 2.0
        q = 3.0
        lam = q + lam_off
        res = criterion_value(Power(lam), StructureParams(n, p, eps))
        expected = eps ** (lam - q) / (lam - q)
        assert res.value == pytest.approx(expected, rel=1e-12)

    def test_floored_at_least_pure_floor(self, params32):
        # flooring by z^(1+q) can only add criterion mass
        floor_only = criterion_value(Power(4.0), params32).value
        v = classify(floor_by_power(Power(9.0), params32), params32)
        assert v.verdict is Verdict.CONVERGES
        assert v.value >= floor_only - 1e-9


def test_verdict_carries_shells_and_slope(params42):
    v = classify(parse_nonlinearity("z^3"), params42)
    assert v.shells is not None
    assert len(v.shells) == 40
    assert v.slope == pytest.approx(-math.log(2.0), rel=1e-3)

"""Critical exponent, classification, and criterion values.

Numeric oracles, computed independently before being frozen here:

    K(mu=-2) at (n,p)=(3,2), eps=1:
        int_0^1 dz / (z * log(e + 1/z)^2)
        = int_0^inf log(e + e^u)^-2 du  (u = -ln z)
        = 1.189883970344349580   (mpmath, 40 digits, split at u=5,30,100)
    K(mu=-3) likewise = 0.556776080278639509
"""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville import (
    DEFAULT_TOLERANCE,
    ClassifyOptions,
    CriterionUndecidedError,
    DivergentIntegralError,
    DomainError,
    EvalOverflow,
    MonotonicityError,
    Power,
    PowerLog,
    QuadratureResult,
    StructureParams,
    Tolerance,
    UnsupportedRegimeError,
    Verdict,
    classify,
    criterion_integrand,
    criterion_value,
    critical_exponent,
    integrate,
    cli,
    parse_nonlinearity,
)
from liouville._leading import Term, leading_term, ln_scaled_gamma
from liouville.criterion import _GAMMA_ERROR, _LN2, _classify_numeric, _decide, _log_shells
from liouville.nonlinearity import signed_log_eval

from conftest import critical_log_criterion

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


def test_powerlog_off_critical_power_is_analytic(params32):
    # the leading term z^3.5 L1^-2 decides off the critical power too, and
    # values the remainder by Gamma(-1, x): in v = ln(1/z) the integral of
    # e^(-v/2) log(e + e^v)^-2 over v > 0, 0.563295287944005 (mpmath)
    v = classify(PowerLog(-2.0, 3.5), params32)
    assert v.method == "analytic"
    assert v.verdict is Verdict.CONVERGES
    assert abs(v.value - 0.563295287944005) <= v.abs_error + 5e-16


# ---------------------------------------------------------------------------
# numeric classification


def as_expr(mu, q):
    return parse_nonlinearity(f"z^{q} * log(e + 1/z)^({mu})")


class TestNumericClassify:
    def test_expression_power_verdicts(self, params42):
        assert classify(parse_nonlinearity("z^1.5"), params42).verdict is Verdict.DIVERGES
        assert classify(parse_nonlinearity("z^2"), params42).verdict is Verdict.DIVERGES
        assert classify(parse_nonlinearity("z^3"), params42).verdict is Verdict.CONVERGES

    def test_near_critical_is_inconclusive(self):
        # 0.1 + 0.7 = 0.7999999999999999 in doubles, one ulp below q = 0.8:
        # which side the spelled exponent meant cannot be told
        v = classify(parse_nonlinearity("z^0.1*z^0.7"), StructureParams(4, 1.5))
        assert v.verdict is Verdict.INCONCLUSIVE
        assert v.detail == (
            "power exponent 0.7999999999999999 is -1.11e-16 from critical exponent 0.8, "
            "too close to tell in double precision"
        )
        assert classify(parse_nonlinearity("z^0.8"), StructureParams(4, 1.5)).verdict is Verdict.DIVERGES

    def test_critical_log_boundary_is_inconclusive(self, params42):
        # mu = -1 exactly diverges (the Bertrand scale); an ulp below -1
        # cannot be told from it
        assert classify(as_expr(-1.0, 2), params42).verdict is Verdict.DIVERGES
        v = classify(as_expr(-1.0000000000000002, 2), params42)
        assert v.verdict is Verdict.INCONCLUSIVE
        assert v.detail.startswith("log exponent -1.0000000000000002 is -2.22e-16 from -1")

    def test_convergent_log_expression(self, params42):
        v = classify(as_expr(-1.5, 2), params42)
        assert v.verdict is Verdict.CONVERGES

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

    @pytest.mark.parametrize("n, p, mu", [(4, 2.0, -1.02905), (3, 2.0, -1.00102)])
    def test_near_critical_log_is_exact(self, n, p, mu):
        # the remainder below the shells is closed form: no quadrature to stall
        params = StructureParams(n, p)
        res = criterion_value(PowerLog(mu, critical_exponent(params)), params)
        assert res.converged
        assert res.value == pytest.approx(critical_log_criterion(mu), rel=1e-10, abs=0.0)

    def test_expression_route_agrees(self, params32):
        res = criterion_value(parse_nonlinearity("z^3 * log(e + 1/z)^(-2)"), params32)
        assert res.value == pytest.approx(K_MU_M2, rel=1e-6)

    @pytest.mark.parametrize("lam", [5.86, 6.5, 20.0])
    def test_expression_with_underflowing_deep_shells(self, params32, lam):
        # shells past about 1074 / (lam - q) would underflow in zeta; as
        # log-values the remainder's deviation check sees them all (the
        # factor 1 + z keeps the leading term inexact, so shells are used)
        res = criterion_value(parse_nonlinearity(f"z^{lam}*(1+z)"), params32)
        assert res.value == pytest.approx(1.0 / (lam - 3.0) + 1.0 / (lam - 2.0), rel=1e-12)
        assert res.converged

    def test_divergent_raises(self, params32):
        with pytest.raises(DivergentIntegralError):
            criterion_value(Power(2.0), params32)
        with pytest.raises(DivergentIntegralError):
            criterion_value(PowerLog(0.0, 3.0), params32)

    def test_boundary_mu_raises_undecided(self, params42):
        with pytest.raises((CriterionUndecidedError, DivergentIntegralError)):
            criterion_value(PowerLog(-1.0, 2.0), params42)

    def test_undecidable_expression_raises(self, params42):
        # exp(z) - 1 has no leading term for the walk, and its growing
        # shells certify nothing
        with pytest.raises(CriterionUndecidedError):
            criterion_value(parse_nonlinearity("exp(z) - 1"), params42)

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


def test_numeric_verdict_carries_shells():
    # z^4 + z^5 has a leading term, so no shells; exp(z) - 1 goes numeric
    params = StructureParams(4, 1.5)
    assert classify(parse_nonlinearity("z^4 + z^5"), params).shells is None
    v = classify(parse_nonlinearity("exp(z) - 1"), params)
    assert v.shells is not None and len(v.shells) == 40
    assert v.shells[-2] - v.shells[-1] == pytest.approx(0.2 * math.log(2.0), rel=1e-9)


# ---------------------------------------------------------------------------
# the array integrand and the batched shells


def test_integrand_is_an_array_function(params32):
    g = criterion_integrand(parse_nonlinearity("z^4 + z^5"), params32)
    z = np.array([[1e-200, 0.5], [1.0, 3.0]])
    got = g(z)
    assert got.shape == (2, 2)
    assert got.ravel().tolist() == pytest.approx([1.0, 1.5, 2.0, 4.0], rel=1e-13)


def test_integrand_raises_at_first_bad_point(params32):
    g = criterion_integrand(parse_nonlinearity("z - 0.5"), params32)
    with pytest.raises(DomainError, match=r"f is negative at z=0\.25"):
        g(np.array([0.75, 0.25, 0.125]))
    g = criterion_integrand(Power(2.0), params32)  # z^-2: overflows near 1e-160
    with pytest.raises(EvalOverflow, match=r"integrand exceeds double range at 1e-200"):
        g(np.array([1.0, 1e-200, 1e-300]))


def _closure_integrand(f, params):
    # the per-point criterion integrand of the scalar families
    s = 1.0 + critical_exponent(params)
    if isinstance(f, Power):
        return lambda z: math.exp((f.exponent - s) * math.log(z))
    if isinstance(f, PowerLog):
        def g_powerlog(z):
            lf = math.log1p(math.e * z) - math.log(z)
            return math.exp((f.power - s) * math.log(z) + f.mu * math.log(lf))

        return g_powerlog

    def g_expr(z):
        sign, mag = signed_log_eval(f.root, math.log(z))
        return 0.0 if sign == 0 else math.exp(mag - s * math.log(z))

    return g_expr


_SHELL_CASES = [
    (Power(5.0), 3, 2.0),
    (PowerLog(-2.0, 3.0), 3, 2.0),
    (parse_nonlinearity("z^3*log(e+1/z)^-2"), 4, 2.0),
    (parse_nonlinearity("(z^5.3+z^6.3)*exp(z)"), 5, 3.0),
    (parse_nonlinearity("z^30"), 3, 2.0),  # shells past k = 41 underflow
    (parse_nonlinearity("z^6.5"), 3, 2.0),  # shells past k = 307 underflow
]
_SHELLS_CHECKED = list(range(0, 400, 23)) + [40, 41, 42, 306, 307, 308, 399]


@pytest.mark.parametrize("f, n, p", _SHELL_CASES, ids=repr)
def test_array_integrand_matches_closures(f, n, p):
    # log|f| - (1+q) ln z cancels in the log domain: the result is exact
    # up to a few ulps of the larger term, here about |30 ln z| < 9000
    params = StructureParams(n, p)
    z = np.array([0.7 * 2.0**-k for k in _SHELLS_CHECKED])
    got = criterion_integrand(f, params)(z)
    g = _closure_integrand(f, params)
    assert got.tolist() == pytest.approx([g(float(x)) for x in z], rel=1e-11, abs=0.0)


@pytest.mark.parametrize("f, n, p", _SHELL_CASES, ids=repr)
def test_batched_shells_match_scalar_reference(f, n, p):
    # the log-valued shells against the zeta integrand, shell by shell,
    # wherever the zeta shell is a normal double
    params = StructureParams(n, p)
    tol = Tolerance(rel=1e-12, absolute=0.0)
    g = criterion_integrand(f, params)
    shells = _log_shells(f, params, 0.0, 400, tol)
    assert len(shells) == 400 and all(r.converged for r in shells)
    for k in _SHELLS_CHECKED:
        ref = integrate(lambda t: float(g(t)), 2.0 ** -(k + 1), 2.0**-k, tol)
        if ref.value < np.finfo(float).tiny:
            continue  # underflowed in zeta: see test_deep_shells_match_closed_form
        assert ref.converged
        value = math.exp(shells[k].value)
        assert abs(value - ref.value) <= value * shells[k].abs_error + ref.abs_error


@pytest.mark.parametrize("text, first", [("z^30", 42), ("z^6.5", 307)])
def test_deep_shells_match_closed_form(text, first):
    # where the zeta shells underflow, the log of shell k of z**(q+d) is
    # -k d ln 2 + ln((1 - 2**-d) / d)
    params = StructureParams(3, 2.0)
    d = mpmath.mpf(text[2:]) - 3
    shells = _log_shells(parse_nonlinearity(text), params, 0.0, 400, Tolerance(rel=1e-12, absolute=0.0))
    with mpmath.workdps(30):
        for k in range(first, 400):
            exact = -k * d * mpmath.log(2) + mpmath.log((1 - mpmath.mpf(2) ** -d) / d)
            assert shells[k].converged
            assert abs(shells[k].value - float(exact)) <= 1e-12, k


@pytest.mark.parametrize(
    "text, p, detail",
    [("((z - 0.3)^2 + 1e-300)^-2", 2.0, "integrand exceeds double range within a shell"),
     ("1", 2.9, "the criterion integral exp(1576.33) exceeds double range")],
)
def test_overflow_is_inconclusive(text, p, detail):
    # a rise past e**709 inside one shell, and a sum past double range,
    # leave the numeric route inconclusive; classify decides both inputs
    # from their leading terms, constants, so they diverge
    f, params = parse_nonlinearity(text), StructureParams(3, p)
    shells, v = _classify_numeric(f, params, DEFAULT_TOLERANCE)
    assert shells == [] and v.verdict is Verdict.INCONCLUSIVE
    assert v.detail == "integrand evaluation failed while probing shells: " + detail
    assert classify(f, params, ClassifyOptions(check_monotonicity=False)).verdict is Verdict.DIVERGES
    give_up = parse_nonlinearity(f"(exp(z) - 1)*{text}")
    v = classify(give_up, params, ClassifyOptions(check_monotonicity=False))
    assert v.verdict is Verdict.INCONCLUSIVE and v.detail.startswith("integrand evaluation failed")


def test_convergent_verdict_without_a_value(params32):
    # the leading term z^4 decides, but the shells that would value the
    # integral overflow near z = 0.3: the verdict stands, without a value
    f = parse_nonlinearity("z^4*((z - 0.3)^2 + 1e-300)^-2")
    v = classify(f, params32, ClassifyOptions(check_monotonicity=False))
    assert v.verdict is Verdict.CONVERGES and v.value is None and v.abs_error is None
    assert v.detail == (
        "power exponent 4.0 > critical exponent 3.0; no value: integrand exceeds double range within a shell"
    )


@pytest.mark.parametrize(
    "text, n, p, eps",
    [
        ("z^3*log(e+1/z)^-2", 3, 2.0, 1.0),
        ("(exp(z) - 1)*z^2.2", 3, 2.0, 1.0),
        ("log(1 + z)*z^1.2", 4, 1.5, 1.0),
        ("z^0.8*log(e+1/z)^-2.2", 4, 1.5, 0.01),
        ("exp(-1/z)", 3, 2.0, 1.0),
    ],
)
def test_remainder_reads_the_shell_pass_at_its_edges(text, n, p, eps):
    # the remainder compares its model with L = ln f + q u at four shell
    # edges; the shells' own pass evaluated L there, and its values are the
    # bits that f.log_value gives at those edges alone
    f, params = parse_nonlinearity(text), StructureParams(n, p, eps)
    q, ln_top = critical_exponent(params), math.log(eps)
    shells = _log_shells(f, params, ln_top, 40, DEFAULT_TOLERANCE)
    at = [20, 38, 39, 40]
    u = _LN2 * np.array(at, dtype=float) - ln_top
    sign, ln_f = f.log_value(-u)
    assert shells.edges[at].tolist() == np.where(sign > 0, ln_f + q * u, -np.inf).tolist()


def test_log_shells_do_not_depend_on_their_neighbours(params32):
    # the outermost shells of a long pass are those of a short one, and
    # the rest are those of a pass that starts where the short one ends
    f = parse_nonlinearity("z^3*log(e+1/z)^-2")
    tol = Tolerance(rel=1e-12, absolute=0.0)
    long = _log_shells(f, params32, 0.0, 100, tol)
    assert _log_shells(f, params32, 0.0, 30, tol) == long[:30]
    assert _log_shells(f, params32, 0.0, 70, tol, first=30) == long[30:]


@pytest.mark.parametrize(
    "text, value",
    [("z^60", 1.0 / 57.0), ("z^200", 1.0 / 197.0), ("exp(-1/z)", 5.0 / math.e),
     ("z^4*exp(-1/(200*z))", None)],
)
def test_fast_decay_vanishes_on_the_deep_shells(params32, text, value):
    # the deep shells fall more than ln(2**1074) below the partial sum:
    # the remainder is zero, and no shell scale overflows on the way.
    # The shells' own verdict agrees with the leading term's, and their
    # sum with the value classify gives (closed form for the powers)
    f = parse_nonlinearity(text)
    shells = _log_shells(f, params32, 0.0, 40, DEFAULT_TOLERANCE)
    numeric = _decide(shells)
    assert numeric.verdict is Verdict.CONVERGES
    assert numeric.detail == "integrand vanishes on the deep shells; remainder taken as zero"
    partial = math.fsum(math.exp(r.value) for r in shells)
    v = classify(f, params32)
    assert v.verdict is Verdict.CONVERGES
    assert abs(v.value - partial) <= v.abs_error + 1e-12 * partial
    if value is not None:
        assert abs(v.value - value) <= v.abs_error + 1e-15 * value
    res = criterion_value(f, params32)
    assert res.converged and (res.value, res.abs_error) == (v.value, v.abs_error)


@pytest.mark.parametrize("lam", range(31, 57))
def test_window_ending_in_vanished_shells_converges(params32, lam):
    # from z^31 on the shells of the deciding window vanish partway
    # through it; the vanished ones are its deep end, so the remainder is
    # zero and the shells sum to the integral 1/(lam - 3), which classify
    # takes from the closed form
    f = parse_nonlinearity(f"z^{lam}")
    exact = 1.0 / (lam - 3)
    shells = _log_shells(f, params32, 0.0, 40, DEFAULT_TOLERANCE)
    v = _decide(shells)
    assert v.verdict is Verdict.CONVERGES
    assert v.detail == "integrand vanishes on the deep shells; remainder taken as zero"
    assert math.fsum(math.exp(r.value) for r in shells) == pytest.approx(exact, rel=1e-12)
    res = criterion_value(f, params32)
    assert res.converged and abs(res.value - exact) <= res.abs_error


def test_window_with_a_live_shell_below_vanished_ones_is_inconclusive(params32):
    # a shell that comes back below vanished ones leaves the remainder open
    results = _log_shells(parse_nonlinearity("z^40"), params32, 0.0, 40, DEFAULT_TOLERANCE)
    assert _decide(results).verdict is Verdict.CONVERGES
    revived = results[:-1] + [results[20]]
    v = _decide(revived)
    assert v.verdict is Verdict.INCONCLUSIVE
    assert v.detail == "deep shell integrals are not eventually positive"


def test_construct_of_fast_decaying_expression_matches_power(capsys):
    # z^40 at n=3 p=2 decides through its vanished deep shells
    argv = ["construct", "--n", "3", "--p", "2", "--format", "json"]
    assert cli.main(argv + ["--expr", "z^40"]) == cli.EXIT_OK
    got = json.loads(capsys.readouterr().out)
    assert cli.main(argv + ["--power", "40"]) == cli.EXIT_OK
    ref = json.loads(capsys.readouterr().out)
    assert got["delta"] == ref["delta"]
    assert [row["w"] for row in got["rows"]] == pytest.approx(
        [row["w"] for row in ref["rows"]], rel=1e-12, abs=0.0
    )


# ---------------------------------------------------------------------------
# verdict pins on the benchmark's expression forms
#
# Each form at exponent gaps 1e-3, 0.03, 0.3 and 3 above (+) and below (-)
# the critical threshold, as the benchmark spells it.  The letters are the
# analytic truth: convergent above, divergent below.


def _form(form, q, side, gap):
    def num(x):
        return format(x, ".6g")

    if form == "expr-log":
        return f"z^{q!r}*log(e+1/z)^{num(-1.0 - side * gap)}"
    a = q + gap if side > 0 else (q - gap if gap < 0.9 * q else 0.09 * q * q / gap)
    a = float(num(a))
    return {
        "expr-pow": f"z^{num(a)}",
        "expr-logpow": f"z^{num(a)}*log(e+1/z)^-2",
        "expr-mixed": f"(z^{num(a)}+z^{num(a + 1.0)})*exp(z)",
    }[form]


_PIN_CASES = [(gap, side) for gap in (1e-3, 0.03, 0.3, 3.0) for side in (1, -1)]
_VERDICT_PINS = {
    "expr-pow": "CDCDCDCD",
    "expr-logpow": "CDCDCDCD",
    "expr-mixed": "CDCDCDCD",
    "expr-log": "CDCDCDCD",
}


@pytest.mark.parametrize("n, p", [(3, 2.0), (4, 2.0), (5, 3.0), (4, 1.5), (8, 3.0)])
@pytest.mark.parametrize("form", sorted(_VERDICT_PINS))
def test_benchmark_form_verdicts_are_pinned(n, p, form):
    params = StructureParams(n, p)
    q = critical_exponent(params)
    got = "".join(
        classify(parse_nonlinearity(_form(form, q, side, gap)), params).verdict.value[0].upper()
        for gap, side in _PIN_CASES
    )
    assert got == _VERDICT_PINS[form]


# n=4, p=2: the value of the integral within a bound, or an error and its
# message.  Each value is the integral of the f the program evaluates (its
# exponents are the doubles the text parses to), from the closed form
# 1/(a - q) for powers and from mpmath otherwise (30 digits, in v =
# ln(1/z), with the leading term's tail past v = 200).  The bound is the
# error the program states, or an older pin's bound where the older digits
# already lay that close to the truth; either covers the program's value.
_DIVERGES = "the criterion integral diverges: "
_VALUE_PINS = [
    ("z^2.001", 1000.0000000001102, 4.0000000000004404e-13),
    ("z^1.999", DivergentIntegralError, _DIVERGES + "power exponent 1.999 <= critical exponent 2.0"),
    ("z^2.03", 33.33333333333355, 1.333333333333342e-14),
    ("z^1.97", DivergentIntegralError, _DIVERGES + "power exponent 1.97 <= critical exponent 2.0"),
    ("z^2.3", 3.3333333333333353, 4.815293955800229e-13),
    ("z^1.7", DivergentIntegralError, _DIVERGES + "power exponent 1.7 <= critical exponent 2.0"),
    ("z^5", 0.3333333333333334, 3.7007434154171895e-15),
    ("z^0.12", DivergentIntegralError, _DIVERGES + "power exponent 0.12 <= critical exponent 2.0"),
    ("z^2.001*log(e+1/z)^-2", 1.182738868393136, 1.554990848271481e-13),
    ("z^1.999*log(e+1/z)^-2", DivergentIntegralError, _DIVERGES + "power exponent 1.999 <= critical exponent 2.0"),
    ("z^2.03*log(e+1/z)^-2", 1.076914841130554, 1.7352691419225364e-13),
    ("z^1.97*log(e+1/z)^-2", DivergentIntegralError, _DIVERGES + "power exponent 1.97 <= critical exponent 2.0"),
    ("z^2.3*log(e+1/z)^-2", 0.6959808028661356, 1.301305161802879e-13),
    ("z^1.7*log(e+1/z)^-2", DivergentIntegralError, _DIVERGES + "power exponent 1.7 <= critical exponent 2.0"),
    ("z^5*log(e+1/z)^-2", 0.16727576377753564, 4.839154652477466e-15),
    ("z^0.12*log(e+1/z)^-2", DivergentIntegralError, _DIVERGES + "power exponent 0.12 <= critical exponent 2.0"),
    ("(z^2.001+z^3.001)*exp(z)", 1003.0337217925954, 7.0958713868882475e-09),
    ("(z^1.999+z^2.999)*exp(z)", DivergentIntegralError, _DIVERGES + "power exponent 1.999 <= critical exponent 2.0"),
    ("(z^2.03+z^3.03)*exp(z)", 36.29752441831482, 1.0671905764102234e-10),
    ("(z^1.97+z^2.97)*exp(z)", DivergentIntegralError, _DIVERGES + "power exponent 1.97 <= critical exponent 2.0"),
    ("(z^2.3+z^3.3)*exp(z)", 5.785663389709883, 1.5058720751543543e-12),
    ("(z^1.7+z^2.7)*exp(z)", DivergentIntegralError, _DIVERGES + "power exponent 1.7 <= critical exponent 2.0"),
    ("(z^5+z^6)*exp(z)", 1.281718171540955, 1.532640804301278e-14),
    ("(z^0.12+z^1.12)*exp(z)", DivergentIntegralError, _DIVERGES + "power exponent 0.12 <= critical exponent 2.0"),
    ("z^2.0*log(e+1/z)^-1.001", 1000.4499143360323, 3.973760240407808e-10),
    ("z^2.0*log(e+1/z)^-0.999", DivergentIntegralError, _DIVERGES + "log exponent -0.999 >= -1 at the critical power"),
    ("z^2.0*log(e+1/z)^-1.03", 33.772810523743566, 1.2547490227271734e-11),
    ("z^2.0*log(e+1/z)^-0.97", DivergentIntegralError, _DIVERGES + "log exponent -0.97 >= -1 at the critical power"),
    ("z^2.0*log(e+1/z)^-1.3", 3.6855235186416744, 1.0544929208945166e-12),
    ("z^2.0*log(e+1/z)^-0.7", DivergentIntegralError, _DIVERGES + "log exponent -0.7 >= -1 at the critical power"),
    ("z^2.0*log(e+1/z)^-4", 0.3192094350138513, 5.091062046717965e-13),
    ("z^2.0*log(e+1/z)^2", DivergentIntegralError, _DIVERGES + "log exponent 2.0 >= -1 at the critical power"),
]


@pytest.mark.parametrize("text, want, detail", _VALUE_PINS)
def test_criterion_value_outcomes_are_pinned(params42, text, want, detail):
    f = parse_nonlinearity(text)
    if isinstance(want, float):
        res = criterion_value(f, params42)
        assert res.converged
        assert abs(res.value - want) <= detail
    else:
        with pytest.raises(want) as info:
            criterion_value(f, params42)
        assert str(info.value) == detail


@pytest.mark.parametrize("text", [t for t, _, _ in _VALUE_PINS] + ["z / (z - z)"])
def test_criterion_value_decides_as_classify(params42, text):
    # criterion_value decides on its own outermost shells; the outcome is
    # what classifying first (without the monotonicity probe) gives
    f = parse_nonlinearity(text)
    verdict = classify(f, params42, ClassifyOptions(check_monotonicity=False))
    if verdict.verdict is Verdict.CONVERGES:
        res = criterion_value(f, params42)
        assert (res.value, res.abs_error) == (verdict.value, verdict.abs_error)
        return
    want = {
        Verdict.DIVERGES: (DivergentIntegralError, "the criterion integral diverges: "),
        Verdict.INCONCLUSIVE: (CriterionUndecidedError, "cannot certify convergence before valuing the integral: "),
    }[verdict.verdict]
    with pytest.raises(want[0]) as info:
        criterion_value(f, params42)
    assert str(info.value) == want[1] + verdict.detail


def test_unconverged_shell_makes_the_verdict_inconclusive(params32):
    # the same shell values give a verdict only while every shell converged
    results = _log_shells(parse_nonlinearity("z^4 * exp(z^2)"), params32, 0.0, 40, DEFAULT_TOLERANCE)
    assert _decide(results).verdict is Verdict.CONVERGES
    starved = [QuadratureResult(r.value, r.abs_error, r.subdivisions, k != 7) for k, r in enumerate(results)]
    v = _decide(starved)
    assert v.verdict is Verdict.INCONCLUSIVE
    assert v.detail == "a shell quadrature did not converge, so the shell values are not certified"


def test_singular_shell_edge_is_inconclusive():
    # |z - 1/2|^-1, kept finite at 1/2 itself, is not integrable at the
    # edge of the outermost shell; its quadrature gives up there (on the
    # numeric route: exp(z) - 1 has no leading term for the walk)
    f = parse_nonlinearity("(exp(z) - 1)*((z - 0.5)^2 + 1e-300)^-0.5")
    params = StructureParams(3, 2, eps=1.0)
    v = classify(f, params, ClassifyOptions(check_monotonicity=False))
    assert v.verdict is Verdict.INCONCLUSIVE
    assert "did not converge" in v.detail
    with pytest.raises(CriterionUndecidedError, match="did not converge"):
        criterion_value(f, params)


# ---------------------------------------------------------------------------
# the leading term


@pytest.mark.parametrize(
    "text, term",
    [
        ("z^3*log(e+1/z)^-2", Term(1.0, 3.0, -2.0)),
        ("2*z^3/z^0.5", Term(2.0, 2.5, exact=True)),
        ("z^3*log(e+1/z)^-1*log(log(e+1/z)+e)^-2", Term(1.0, 3.0, -1.0, -2.0)),
        ("(z^2.3+z^3.3)*exp(z)", Term(1.0, 2.3)),
        ("z^z*z^4", Term(1.0, 4.0)),
        ("2^z*z^4", Term(1.0, 4.0)),
        ("z^4*log(1/z)^2 + 3*z^4*log(1/z)^2", Term(4.0, 4.0, 2.0)),
        ("exp(-1/z)", Term(1.0, math.inf)),
        ("z^4*exp(-1/(200*z))", Term(1.0, math.inf)),
        ("exp(1/z)", Term(1.0, -math.inf)),
        ("exp(2)*z", Term(math.exp(2.0), 1.0, exact=True)),
    ],
)
def test_leading_term(text, term):
    assert leading_term(parse_nonlinearity(text)) == term


@pytest.mark.parametrize("text", ["exp(z) - 1", "log(1 + z)", "(1 + z)^3 - 1", "z - z", "-z", "exp(log(1/z))"])
def test_walk_gives_up_on_cancellation_and_negative_f(text):
    assert leading_term(parse_nonlinearity(text)) is None


def test_families_are_their_terms():
    assert leading_term(Power(2.5)) == Term(1.0, 2.5, exact=True)
    assert leading_term(PowerLog(-1.5, 3.0)) == Term(1.0, 3.0, -1.5)


_BERTRAND = "z^3*log(e+1/z)^-1*log(log(e+1/z)+e)^"


def test_bertrand_pair(params32):
    # at the critical power with L1^-1, the L2 exponent decides: -1
    # diverges, -2 converges to 1.365442 (mpmath, to the digits shown),
    # and the stated error covers it
    assert classify(parse_nonlinearity(_BERTRAND + "-1"), params32).verdict is Verdict.DIVERGES
    v = classify(parse_nonlinearity(_BERTRAND + "-2"), params32)
    assert v.verdict is Verdict.CONVERGES
    assert abs(v.value - 1.365442) <= v.abs_error + 5e-7
    assert v.abs_error < 0.05


def test_vanishing_beyond_every_power(params32):
    # the integral of exp(-1/z) z^-4 over (0, 1] is Gamma(3, 1) = 5/e
    v = classify(parse_nonlinearity("exp(-1/z)"), params32)
    assert v.verdict is Verdict.CONVERGES
    assert v.detail == "f vanishes faster than every power of z"
    assert abs(v.value - 5.0 / math.e) <= v.abs_error + 1e-16


def test_give_up_goes_numeric():
    # exp(z) - 1 ~ z, but its leading coefficients cancel: the shells
    # certify convergence at q = 0.8 (value 5.507732112146885, mpmath)
    # and nothing at q = 3, where the integral diverges
    f = parse_nonlinearity("exp(z) - 1")
    v = classify(f, StructureParams(4, 1.5))
    assert v.verdict is Verdict.CONVERGES and v.method == "numeric"
    assert abs(v.value - 5.507732112146885) <= v.abs_error + 1e-15
    assert classify(f, StructureParams(3, 2.0)).verdict is Verdict.INCONCLUSIVE


_GAMMA_S = [-3.0, -2.5, -2.0, -1.001, -1.0, -0.999, -0.5, -0.001, 0.0, 0.001, 0.5, 1.5, 2.0]
_GAMMA_X = [1e-4, 1e-3, 0.028, 0.3, 0.999, 1.0, 1.001, 2.0, 10.0, 27.7, 100.0, 600.0]


def test_scaled_gamma_against_mpmath():
    # e**x Gamma(s, x) through the continued fraction and the series,
    # within the relative error the remainder adds for it
    with mpmath.workdps(40):
        for s in _GAMMA_S:
            for x in _GAMMA_X:
                ref = mpmath.log(mpmath.gammainc(s, x)) + x
                assert abs(math.expm1(ln_scaled_gamma(s, x) - float(ref))) <= _GAMMA_ERROR, (s, x)
    assert ln_scaled_gamma(1.0, -3.0) == 0.0  # Gamma(1, x) = e**-x exactly

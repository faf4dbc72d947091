"""Differential sweep of the source limit and the criterion value.

Slow: deselected by default, run with ``pytest -m slow``.  The grid is
n = 3..8 and p in {1.5, 2, 3} with n > p; on it the powers z^lambda
with lambda - q in {0.001, 0.05, 0.5, 2} and the critical log forms
z^q log(e + 1/z)^mu with mu in {-1.03, -1.5, -3}, all at eps = 1.

* I(inf) at delta = 1 against the Beta function B(n, k lambda - n), or
  against mpmath quadrature in u = ln(1 + xi) for the log forms;
* the criterion value against mpmath's tanh-sinh quadrature in
  v = ln(1/z), where the integrand is e**(-(lambda - q) v) or
  ln(e + e**v)**mu.

Both must agree to 1e-10 relative.  For the powers, at eps = delta = 1:

* I at every knot of the table and at the midpoint of every knot
  interval in ln s, against the incomplete beta function
  I(s) = B(s/(1+s); n, b), b = k lambda - n, to 1e-12 relative.  There
  are 5375 points a case, too many for mpmath's betainc, so the
  reference is scipy's (Boost's) regularized one, taken from the side
  where its argument is exact (betainc in s/(1+s) below s = 1, betaincc
  in 1/(1+s) above), and it is itself held to 1e-13 of 30-digit mpmath
  on every 211th point;
* at p = 2, w on a radius grid against its closed form
  w(r) = [r**(2-n) I(r) + B(2, b2) - B(r/(1+r); 2, b2)] / (n - 2),
  b2 = k lambda - 2, in 30-digit mpmath, to 1e-12 relative.
"""

import mpmath
import numpy as np
import pytest
from scipy import special

from liouville import Power, PowerLog, RadialProfile, StructureParams, criterion_value, critical_exponent

from conftest import critical_log_criterion, source_limit

_GAPS = (0.001, 0.05, 0.5, 2.0)
_MUS = (-1.03, -1.5, -3.0)


def _grid():
    for p in (1.5, 2.0, 3.0):
        for n in range(3, 9):
            if n <= p:
                continue
            q = critical_exponent(StructureParams(n, p))
            for gap in _GAPS:
                yield pytest.param(n, p, Power(q + gap), id=f"n{n}-p{p:g}-gap{gap:g}")
            for mu in _MUS:
                yield pytest.param(n, p, PowerLog(mu, q), id=f"n{n}-p{p:g}-mu{mu:g}")


_GRID = list(_grid())


@pytest.mark.slow
@pytest.mark.parametrize("n, p, f", _GRID)
def test_inner_limit_against_mpmath(n, p, f):
    prof = RadialProfile(f, StructureParams(n, p), 1.0)
    assert prof.inner_limit() == pytest.approx(source_limit(n, p, f), rel=1e-10, abs=0.0)


@pytest.mark.slow
@pytest.mark.parametrize("n, p, f", _GRID)
def test_criterion_value_against_mpmath(n, p, f):
    params = StructureParams(n, p)
    res = criterion_value(f, params)
    if isinstance(f, Power):
        with mpmath.workdps(30):
            gap = mpmath.mpf(f.exponent) - mpmath.mpf(critical_exponent(params))
            ref = float(mpmath.quad(lambda v: mpmath.exp(-gap * v), [0, 1, 10, 100, mpmath.inf]))
    else:
        ref = critical_log_criterion(f.mu)
    assert res.converged
    assert res.value == pytest.approx(ref, rel=1e-10, abs=0.0)


_POWERS = [case for case in _GRID if isinstance(case.values[2], Power)]


def _beta_below(s, n, b):
    # B(s/(1+s); n, b) at 30 digits, from the hypergeometric series on the
    # side of s = 1 where it needs no cancellation: x**n / n 2F1(n, 1-b;
    # n+1; x) below, B(n, b) less y**b / b 2F1(b, 1-n; b+1; y) above
    s = mpmath.mpf(s)
    x, y = s / (1 + s), 1 / (1 + s)
    if s < 1:
        return x**n / n * mpmath.hyp2f1(n, 1 - b, n + 1, x)
    return mpmath.beta(n, b) - y**b / b * mpmath.hyp2f1(b, 1 - n, b + 1, y)


def _beta_fast(s, n, b):
    # B(s/(1+s); n, b) in doubles, for many s at once (see the module docstring)
    low = s < 1.0
    below = special.betainc(n, b, np.where(low, s, 0.0) / (1.0 + s))
    above = special.betaincc(b, n, 1.0 / (1.0 + s))
    return special.beta(n, b) * np.where(low, below, above)


@pytest.mark.slow
@pytest.mark.parametrize("n, p, f", _POWERS)
def test_inner_integral_at_knots_and_midpoints_against_incomplete_beta(n, p, f):
    prof = RadialProfile(f, StructureParams(n, p), 1.0)
    t = prof._table
    s = np.concatenate((t.s, np.exp(0.5 * (t.ln_s[:-1] + t.ln_s[1:]))))
    b = prof.decay * f.exponent - n
    ref = _beta_fast(s, n, b)
    with mpmath.workdps(30):
        check = s[::211]
        exact = np.array([float(_beta_below(x, n, mpmath.mpf(b))) for x in check])
    assert np.max(np.abs(_beta_fast(check, n, b) / exact - 1.0)) <= 1e-13
    ours = np.exp(prof._ln_inner(s))
    assert np.max(np.abs(ours / ref - 1.0)) <= 1e-12


@pytest.mark.slow
@pytest.mark.parametrize("n, p, f", [case for case in _POWERS if case.values[1] == 2.0])
def test_profile_against_the_closed_form_at_p2(n, p, f):
    prof = RadialProfile(f, StructureParams(n, p), 1.0)
    radii = np.geomspace(1e-6, 1e6, 61)
    with mpmath.workdps(30):
        lam = mpmath.mpf(f.exponent)
        b, b2 = (n - 2) * lam - n, (n - 2) * lam - 2

        def w(r):
            r = mpmath.mpf(r)
            y = 1 / (1 + r)
            # B(2, b2) - B(r/(1+r); 2, b2), the integral of t**(b2-1) (1-t) over (0, y)
            rest = y**b2 / b2 - y ** (b2 + 1) / (b2 + 1)
            return (r ** (2 - n) * _beta_below(r, n, b) + rest) / (n - 2)

        ref = [float(w(r)) for r in radii]
    assert prof.values_on_grid(radii) == pytest.approx(ref, rel=1e-12, abs=0.0)

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

Both must agree to 1e-10 relative.
"""

import mpmath
import pytest

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

"""Shared fixtures.

The closed-form instance (n=3, p=2, f=z^4, eps=delta=1) has everything
in elementary terms:

    envelope(r) = 1/(1+r)
    I(z)        = z^3 / (3 (1+z)^3)          I(inf) = 1/3
    w(r)        = (1+2r) / (6 (1+r)^2)       w(0) = 1/6, w(1) = 1/8
    |w'(r)|     = r / (3 (1+r)^3)

Most verification tests run against this instance, so the profile is
built once per session.
"""

import contextlib
import math
import signal
import time

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from liouville import Power, PowerLog, RadialProfile, StructureParams
from liouville import construct, criterion, nonlinearity, quadrature, verify

_ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance():
    """Recorder for the acceptance suite: one PASS/FAIL line per criterion.

    Lines are replayed in a dedicated section at the end of the pytest
    run (they would otherwise be swallowed by output capture).
    """

    @contextlib.contextmanager
    def criterion(num, label, budget=None):
        t0 = time.perf_counter()
        try:
            yield
            dt = time.perf_counter() - t0
            if budget is not None and dt >= budget:
                raise AssertionError(
                    f"runtime {dt:.2f}s exceeds the {budget:.0f}s budget"
                )
        except BaseException:
            dt = time.perf_counter() - t0
            _ACCEPTANCE_LINES.append(f"[acceptance {num}] {label}: FAIL ({dt:.2f}s)")
            raise
        else:
            _ACCEPTANCE_LINES.append(f"[acceptance {num}] {label}: PASS ({dt:.2f}s)")

    return criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.line(line)


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise :class:`TimeoutError` inside the block once ``seconds`` of
    wall time have passed, so that a hang fails its test instead of
    stalling the run.  Built on the real-time interval timer and SIGALRM,
    so it works in the main thread only."""

    def expire(signum, frame):
        raise TimeoutError(f"deadline of {seconds} s exceeded")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def partial_span_passes(monkeypatch):
    """The panel count of every pass of ``RadialProfile._outer_spans``,
    the adaptive route of w between knots in the intervals that the outer
    fill halved, one entry per pass."""
    route, passes = RadialProfile._outer_spans, []

    def counted(self, i, u0):
        passes.append(i.size)
        return route(self, i, u0)

    monkeypatch.setattr(RadialProfile, "_outer_spans", counted)
    return passes


def work_ledger(monkeypatch):
    """The numeric work of whatever runs next, one record per call of
    each kernel, through whichever module calls it: the panels of every
    ``_k7`` call, the intervals of every ``_bisect`` and every
    ``integrate_intervals`` call, and the points of every ``_ln_f`` call
    (f's log evaluator).  A dict of lists, in call order."""
    ledger = {"_k7": [], "_bisect": [], "integrate_intervals": [], "_ln_f": []}
    size = {"_k7": lambda f0, *rest: np.size(f0), "_ln_f": lambda f, ln_z, *rest: np.size(ln_z)}
    for module in (quadrature, nonlinearity, criterion, construct, verify):
        for name, calls in ledger.items():
            if name not in vars(module):
                continue
            route = getattr(module, name)
            count = size.get(name, lambda g, lo, *rest: np.size(lo))

            def counted(*args, route=route, calls=calls, count=count, **kwargs):
                calls.append(int(count(*args)))
                return route(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return ledger


@pytest.fixture(scope="session")
def params32():
    return StructureParams(3, 2.0)


@pytest.fixture(scope="session")
def params42():
    return StructureParams(4, 2.0)


@pytest.fixture(scope="session")
def instance_profile(params32):
    return RadialProfile(Power(4.0), params32, 1.0)


def w_exact(r: float) -> float:
    return (1.0 + 2.0 * r) / (6.0 * (1.0 + r) ** 2)


def inner_exact(z: float) -> float:
    return z**3 / (3.0 * (1.0 + z) ** 3)


def grad_exact(r: float) -> float:
    return r / (3.0 * (1.0 + r) ** 3)


def _log_factor(z: float) -> float:
    return math.log1p(math.e * z) - math.log(z)


# closed forms of the expressions the tests build profiles on, by source text
_EXPRESSION_TWINS = {
    "0.0": lambda z: 0.0,
    "z^3.0*log(e+1.0/z)^-2.0": lambda z: z**3 * _log_factor(z) ** -2 if z > 0.0 else 0.0,
}


def math_twin(f):
    """f as a closed form in ``math``, independent of the package's
    evaluator: a reference for tests that integrate f point by point."""
    if isinstance(f, Power):
        return lambda z: z**f.exponent
    if isinstance(f, PowerLog):
        return lambda z: z**f.power * _log_factor(z) ** f.mu if z > 0.0 else 0.0
    return _EXPRESSION_TWINS[f.source]


def quad_ref(g, a, b, rel=1e-12, exact=False):
    """An independent reference for the package's quadrature: the integral
    of the float function ``g`` over [a, b] (b may be inf) and its error
    estimate.  By QUADPACK's adaptive Gauss-Kronrod rule
    (``scipy.integrate.quad``) to relative accuracy ``rel``, with
    ``epsabs=0`` so that no absolute floor lets a small integral through;
    with ``exact``, by ``mpmath.quad`` at 30 digits on the same function,
    for comparisons at 1e-13, near QUADPACK's own rounding."""
    if exact:
        with mpmath.workdps(30):
            value, error = mpmath.quad(lambda t: g(float(t)), [a, b], error=True)
        return float(value), float(error)
    value, error = quad(g, a, b, epsabs=0.0, epsrel=rel, limit=200)
    return value, error


def source_limit(n: int, p: float, f) -> float:
    """I(inf) at eps = delta = 1 for a ``Power`` (the Beta function
    B(n, k lambda - n)) or a critical ``PowerLog`` (mpmath quadrature in
    u = ln(1 + xi), where the source term is (1 - e**-u)**(n-1) times
    ln(e + e**(k u))**mu, with the tail past u = 2000 in closed form)."""
    k = (n - p) / (p - 1.0)
    if isinstance(f, Power):
        return float(mpmath.beta(n, k * f.exponent - n))
    mu = f.mu
    with mpmath.workdps(30):
        top = mpmath.mpf(2000)
        head = mpmath.quad(
            lambda u: (-mpmath.expm1(-u)) ** (n - 1) * mpmath.log(mpmath.e + mpmath.exp(k * u)) ** mu,
            [0, 1, 10, 100, 1000, top],
        )
        return float(head + (k * top) ** (mu + 1) / (k * (-mu - 1)))


def critical_log_criterion(mu: float) -> float:
    """The criterion integral of z^q log(e + 1/z)^mu over (0, 1]: in
    v = ln(1/z) the integral of ln(e + e**v)**mu over v > 0."""
    with mpmath.workdps(30):
        top = mpmath.mpf(2000)
        head = mpmath.quad(lambda v: mpmath.log(mpmath.e + mpmath.exp(v)) ** mu, [0, 1, 10, 100, 1000, top])
        return float(head + top ** (mu + 1) / (-mu - 1))

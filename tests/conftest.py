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
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from liouville import DomainError, EvalOverflow, Power, PowerLog, RadialProfile, StructureParams
from liouville import construct, criterion, nonlinearity, quadrature, verify
from liouville.nonlinearity import Bin, Call, Euler, Neg, Num, Var

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


def fresh_interpreter(code: str) -> str:
    """stdout, stripped, of ``code`` run by a new interpreter that imports
    this package from the source tree under test."""
    src = os.path.dirname(os.path.dirname(construct.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=60)
    return out.stdout.strip()


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


def transient_bytes(fn) -> int:
    """The bytes that ``fn()`` allocates beyond what it keeps: tracemalloc's
    peak during the call less its traced memory after it, the call's result
    still held.  A first, untraced call fills whatever the call caches, so
    the count repeats from run to run (to within a few hundred bytes of
    Python objects from call to call in one process)."""
    fn()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        kept = fn()  # noqa: F841  (held while the memory after the call is read)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak - current


def redone_panels(monkeypatch):
    """The number of panels that each fill redoes by halving, one entry
    per call of ``construct._k7_fill``, the fill-and-redo routine of the
    table, the outer cache and the energy check, in call order."""
    route, counts = construct._k7_fill, []

    def counted(*args, **kwargs):
        out = route(*args, **kwargs)
        counts.append(out[2].size)
        return out

    for module in (construct, verify):
        monkeypatch.setattr(module, "_k7_fill", counted)
    return counts


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
    for comparisons at 1e-13, near QUADPACK's own rounding.

    Either way the nodes are doubles.  On an interval a few ulps wide they
    round onto its ends or the few doubles between, each up to an ulp from
    where it belongs, and the integral moves by up to that ulp times the
    change of g across the interval, on which g is linear to rounding: the
    error allows for that, which neither routine's estimate does."""
    if exact:
        with mpmath.workdps(30):
            value, error = mpmath.quad(lambda t: g(float(t)), [a, b], error=True)
        value, error = float(value), float(error)
    else:
        value, error = quad(g, a, b, epsabs=0.0, epsrel=rel, limit=200)
    ulp = math.ulp(max(abs(a), abs(b)))
    if b - a <= 64.0 * ulp:
        error += ulp * abs(g(b) - g(a))
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


# ---------------------------------------------------------------------------
# the scalar signed-log rules, point by point: the reference for the array
# pass over an expression tree

_LOG_MAX = math.log(sys.float_info.max)


def _signed_of(x):
    if x == 0.0:
        return (0, -math.inf)
    return ((1 if x > 0 else -1), math.log(abs(x)))


def _literal(node):
    # a (negated) number, exact: from its signed log, exp(log(3.0)) != 3.0
    if isinstance(node, Neg):
        return None if (x := _literal(node.arg)) is None else -x
    return node.value if isinstance(node, Num) else None


def _signed_add(s1, m1, s2, m2):
    if s1 == 0:
        return (s2, m2)
    if s2 == 0:
        return (s1, m1)
    if m1 == m2 and s1 != s2:
        return (0, -math.inf)
    if m1 >= m2:
        bs, bm, sm = s1, m1, m2
    else:
        bs, bm, sm = s2, m2, m1
    d = sm - bm if sm != bm else 0.0  # <= 0; two equal infinite magnitudes add to bm
    if s1 == s2:
        return (s1, bm + math.log1p(math.exp(d)))
    return (bs, bm + math.log(-math.expm1(d)))


def _determined(s, m):
    # a product or quotient of magnitudes inf and -inf has none: an overflow
    if math.isnan(m):
        raise EvalOverflow("value of magnitude exp(nan) exceeds double range")
    return (s, m)


def signed_log_oracle(node, ln_z):
    """(sign, log of magnitude) of an expression tree at z = exp(ln_z), by
    the scalar rules, or the error of the first rule that fails.

    The pair ``(0, -inf)`` denotes an exact zero, and ``ln_z = -inf``
    is z = 0.  Magnitudes are unrestricted; only converting back to a
    double can overflow.
    """
    if isinstance(node, Num):
        return _signed_of(node.value)
    if isinstance(node, Var):
        return (1, ln_z) if ln_z > -math.inf else (0, -math.inf)
    if isinstance(node, Euler):
        return (1, 1.0)
    if isinstance(node, Neg):
        s, m = signed_log_oracle(node.arg, ln_z)
        return (-s, m)
    if isinstance(node, Call):
        s, m = signed_log_oracle(node.arg, ln_z)
        if node.fn == "log":
            if s <= 0:
                raise DomainError("log of a non-positive value")
            # the argument's log-magnitude is the value of log itself
            return _signed_of(m)
        # exp: the new log-magnitude is the argument's value, which fails
        # where it is +inf, also where the argument is (math.exp(inf) does
        # not raise)
        if s == 0:
            return (1, 0.0)
        try:
            x = s * math.exp(m)
        except OverflowError:
            x = s * math.inf
        if x == math.inf:
            raise EvalOverflow("exp argument too large")
        return (1, x)
    if isinstance(node, Bin):
        op = node.op
        if op == "^":
            s, m = signed_log_oracle(node.left, ln_z)
            es, em = signed_log_oracle(node.right, ln_z)
            e = _literal(node.right)
            if e is None:
                if em > _LOG_MAX:
                    raise EvalOverflow(f"value of magnitude exp({em:.6g}) exceeds double range")
                e = es * math.exp(em)
            if s == 0:
                if e > 0:
                    return (0, -math.inf)
                if e == 0:
                    return (1, 0.0)
                raise DomainError("zero raised to a negative power")
            if s < 0:
                if e != math.floor(e):
                    raise DomainError("negative base with fractional power")
                sign = 1 if int(e) % 2 == 0 else -1
            else:
                sign = 1
            mag = m * e
            if math.isnan(mag):  # 0 * inf: base magnitude 1 or exponent 0
                mag = 0.0
            return (sign, mag)
        s1, m1 = signed_log_oracle(node.left, ln_z)
        s2, m2 = signed_log_oracle(node.right, ln_z)
        if op == "+":
            return _signed_add(s1, m1, s2, m2)
        if op == "-":
            return _signed_add(s1, m1, -s2, m2)
        if op == "*":
            if s1 == 0 or s2 == 0:
                return (0, -math.inf)
            return _determined(s1 * s2, m1 + m2)
        # division
        if s2 == 0:
            raise DomainError("division by zero")
        if s1 == 0:
            return (0, -math.inf)
        return _determined(s1 * s2, m1 - m2)
    raise TypeError(f"not an expression node: {node!r}")

"""Dichotomy test for the small-argument integral criterion.

For structure exponents n > p > 1 the quantity that decides everything
is the integral of ``f(zeta) * zeta**-(1+q)`` over (0, eps], where

    q = n * (p - 1) / (n - p)

is the critical exponent.  Divergence means the only non-negative
solution of the associated differential inequality on the whole space
is zero; convergence means a positive radial supersolution exists and
can be built explicitly (see :mod:`liouville.construct`).

:func:`classify` decides the dichotomy, analytically for the two
built-in families and numerically otherwise.  The numeric route probes
dyadic shells near zero, all in one batched adaptive pass.  Each shell
is integrated in v = ln(1/zeta), where the integrand is e**L with
L = ln f + q v exact at any depth (:meth:`Nonlinearity.log_value`),
scaled per shell, and comes back as a log-value: no shell underflows
or overflows, however deep.  A shell whose quadrature did not converge
makes the verdict inconclusive.

One routine values the integral below any point, :func:`_integral_below`:
:func:`criterion_value` is it at eps, and the profile's source limit
I(inf) below the envelope's last tabulated value.

Honest limits of the numeric route: a pure power within about 1.5e-3
of the critical exponent is reported as divergent even though an
integral with exponent gap d > 0 technically converges, and gaps up to
a few times 1e-2 come back inconclusive.  The analytic route has no
such blur; prefer the family types when they apply.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    CriterionUndecidedError,
    DivergentIntegralError,
    DomainError,
    EvalOverflow,
    EvaluationError,
    MonotonicityError,
    UnsupportedRegimeError,
)
from .nonlinearity import (
    _LOG_MAX,
    Nonlinearity,
    Power,
    PowerLog,
    check_monotone,
    signed_log_eval,  # noqa: F401  (patched by perfbench/tracing.py)
)
from .quadrature import (
    _MAX_LEVEL,
    DEFAULT_TOLERANCE,
    QuadratureResult,
    Tolerance,
    _bisect,
)

__all__ = [
    "StructureParams",
    "critical_exponent",
    "Verdict",
    "CriterionVerdict",
    "ClassifyOptions",
    "criterion_integrand",
    "classify",
    "criterion_value",
]


@dataclass(frozen=True)
class StructureParams:
    """Structure exponents: space dimension n, operator exponent p, and
    the upper endpoint eps of the criterion integral."""

    n: int
    p: float
    eps: float = 1.0

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n!r}")
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "eps", float(self.eps))
        if not (math.isfinite(self.p) and self.p > 1.0):
            raise ValueError(f"p must be finite and > 1, got {self.p!r}")
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ValueError(f"eps must be finite and positive, got {self.eps!r}")


def critical_exponent(params: StructureParams) -> float:
    """q = n (p - 1) / (n - p); requires n > p."""
    if params.n <= params.p:
        raise UnsupportedRegimeError(
            f"n={params.n} <= p={params.p}: every admissible solution is constant, "
            "so there is no dichotomy to decide"
        )
    return params.n * (params.p - 1.0) / (params.n - params.p)


class Verdict(enum.Enum):
    DIVERGES = "diverges"
    CONVERGES = "converges"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of :func:`classify`.

    ``value``/``abs_error`` are set for convergent verdicts (the value
    of the criterion integral).  ``slope`` and ``shells`` expose the
    numeric evidence when the numeric route ran: the logs of the
    per-shell integrals, outermost first, and the fitted log-slope per
    shell.
    """

    verdict: Verdict
    method: str  # "analytic" or "numeric"
    value: Optional[float] = None
    abs_error: Optional[float] = None
    slope: Optional[float] = None
    shells: Optional[Tuple[float, ...]] = None
    detail: str = ""


@dataclass(frozen=True)
class ClassifyOptions:
    """Options of :func:`classify`: ``check_monotonicity=False`` waives
    the sampled non-decrease check."""

    check_monotonicity: bool = True


# The numeric classifier probes _SHELL_COUNT dyadic shells and decides on
# the deeper half.  _RATIO_CUTOFF and _SLOPE_CUT separate "no decay" from
# "clear decay"; between them the verdict is inconclusive.  A convergent
# verdict also needs the geometric tail bound to be at most
# _TAIL_FRACTION of the partial sum, so the unseen remainder cannot flip
# the conclusion.
_SHELL_COUNT = 40
_RATIO_CUTOFF = 0.999
_SLOPE_CUT = 0.01
_TAIL_FRACTION = 0.25
_LN2 = math.log(2.0)
# A shell this far below the log of the shells' sum is below its last
# binary digit, even as a subnormal: ln(2**1074).
_LN_VANISHED = 1074 * _LN2


# ---------------------------------------------------------------------------
# stable integrand construction


def criterion_integrand(
    f: Nonlinearity, params: StructureParams
) -> Callable[[np.ndarray], np.ndarray]:
    """Array function computing f(z) * z**-(1+q) for z > 0, elementwise.

    Computed in the log domain, so the product is evaluated correctly
    even where f(z) alone would underflow to zero (pure powers at
    z ~ 1e-200, say); a product outside double range raises
    :class:`EvalOverflow`.  Results are guaranteed non-negative; the
    first point where f is negative raises :class:`DomainError`.
    """
    s = 1.0 + critical_exponent(params)

    def g(z):
        z = np.asarray(z, dtype=float)
        ln_z = np.log(z)
        sign, mag = f.log_value(ln_z)
        out = mag - s * ln_z
        bad = np.flatnonzero((sign < 0) | (out > _LOG_MAX))
        if bad.size:
            i = bad[0]
            if sign.flat[i] < 0:
                raise DomainError(f"expression is negative at z={float(z.flat[i])!r}")
            raise EvalOverflow(f"integrand exceeds double range at z={float(z.flat[i])!r}")
        return np.exp(out)

    return g


# ---------------------------------------------------------------------------
# least squares helpers and tail models


def _ls_line(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float, float]:
    """Fit ys ~ a + b*xs; returns (a, b, rms residual)."""
    m = len(ys)
    xbar = math.fsum(xs) / m
    ybar = math.fsum(ys) / m
    sxx = math.fsum((x - xbar) ** 2 for x in xs)
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    b = sxy / sxx
    a = ybar - b * xbar
    rms = math.sqrt(math.fsum((y - a - b * x) ** 2 for x, y in zip(xs, ys)) / m)
    return a, b, rms


def _hurwitz_tail(beta: float, x: float) -> float:
    # sum_{j >= 0} (x + j)**-beta for beta > 1, x > 0.5 (Euler-Maclaurin,
    # three correction terms; relative error well below 1e-8 for x >= 20)
    return (
        x ** (1.0 - beta) / (beta - 1.0)
        + 0.5 * x**-beta
        + beta * x ** (-beta - 1.0) / 12.0
        - beta * (beta + 1.0) * (beta + 2.0) * x ** (-beta - 3.0) / 720.0
    )


def _fit_tail(logs: Sequence[float]) -> Tuple[float, float, str]:
    """Extrapolate the remainder past the last dyadic shell, from the
    logs of the shell integrals.

    Two models are fitted on the deeper half of the shells: a geometric
    one (pure powers decay exactly geometrically per shell) and a
    shifted power law a_k = A * (k + c)**-beta (which captures the
    polynomial shell decay of critical-power-times-log integrands).
    The model with the smaller log-space residual wins.  Returns
    (tail, error estimate, model label).  Raises
    :class:`CriterionUndecidedError` if neither model certifies a
    finite tail.
    """
    K = len(logs)
    w0 = K - K // 2
    win = list(logs[w0:])
    xs = [float(w0 + i) for i in range(len(win))]
    ds = [a - b for a, b in zip(win, win[1:])]  # the log-drop per shell

    tail_geo = err_geo = None
    _, b1, r1 = _ls_line(xs, win)
    rho = math.exp(b1)
    if rho < 1.0:
        last = math.exp(logs[-1])
        tail_geo = last * rho / (1.0 - rho)
        rhi, rlo = math.exp(-min(ds)), math.exp(-max(ds))
        if rhi < 1.0:
            spread = abs(last * rhi / (1.0 - rhi) - last * rlo / (1.0 - rlo))
            err_geo = max(spread, 1e-15 * tail_geo)
        else:
            err_geo = tail_geo  # drifting ratios: no confidence

    tail_pow = err_pow = None
    r2 = math.inf
    if all(d > 0.0 for d in ds):
        ys = [1.0 / d for d in ds]
        a2, b2, _ = _ls_line(xs[:-1], ys)
        if b2 > 0.0:
            beta = 1.0 / b2
            c = a2 * beta - 0.5
            # beta beyond ~100 means the per-shell drop is essentially
            # constant, i.e. the sequence is geometric and the slope of
            # 1/d_k is float noise; the model would overflow downstream.
            if 1.0001 < beta < 100.0 and K + c > 0.5 and w0 + c > 0.0:
                ln_a = math.fsum(
                    lg + beta * math.log(x + c) for lg, x in zip(win, xs)
                ) / len(win)
                r2 = math.sqrt(
                    math.fsum(
                        (lg - (ln_a - beta * math.log(x + c))) ** 2
                        for lg, x in zip(win, xs)
                    )
                    / len(win)
                )
                try:
                    tail_pow = math.exp(ln_a) * _hurwitz_tail(beta, K + c)
                except OverflowError:
                    tail_pow = None
                    r2 = math.inf
                else:
                    err_pow = tail_pow * max(4.0 / K**2, 4.0 * r2)

    if tail_pow is not None and (tail_geo is None or r2 < r1):
        return tail_pow, err_pow, "power"
    if tail_geo is not None:
        return tail_geo, err_geo, "geometric"
    raise CriterionUndecidedError("shell decay fits neither a geometric nor a power model")


# ---------------------------------------------------------------------------
# classification


def classify(
    f: Nonlinearity,
    params: StructureParams,
    opts: Optional[ClassifyOptions] = None,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> CriterionVerdict:
    """Decide whether the criterion integral diverges or converges.

    Pure powers and critically-powered log corrections are decided
    analytically: a power diverges exactly when its exponent is <= q,
    and the log correction at power q diverges exactly when its
    exponent mu is >= -1.  Everything else runs the numeric shell
    probe, which can also return an inconclusive verdict near the
    analytic boundary.

    Unless waived in ``opts``, f is first probed for non-decrease on
    (0, eps]; a decreasing f raises :class:`MonotonicityError`.
    """
    opts = opts or ClassifyOptions()
    q = critical_exponent(params)

    if opts.check_monotonicity:
        report = check_monotone(f, params.eps)
        if not report.monotone:
            raise MonotonicityError(
                "f decreases on (0, eps]: "
                f"f({report.zeta_lo!r})={report.value_lo!r} > "
                f"f({report.zeta_hi!r})={report.value_hi!r}; "
                "pass check_monotonicity=False to waive"
            )

    analytic = _analytic(f, q)
    if analytic is None:
        return _classify_numeric(f, params, tol)[1]
    converges, detail = analytic
    if not converges:
        return CriterionVerdict(Verdict.DIVERGES, "analytic", detail=detail)
    res = _integral_below(f, params, math.log(params.eps), tol)
    return CriterionVerdict(
        Verdict.CONVERGES, "analytic", value=res.value, abs_error=res.abs_error, detail=detail
    )


def _analytic(f: Nonlinearity, q: float) -> Optional[Tuple[bool, str]]:
    """Whether the criterion integral converges, and why, for the two
    families decided analytically (None for any other f)."""
    if isinstance(f, Power):
        c = f.exponent > q
        return c, f"power exponent {f.exponent!r} {'>' if c else '<='} critical exponent {q!r}"
    if isinstance(f, PowerLog) and f.power == q:
        c = f.mu < -1.0
        return c, f"log exponent {f.mu!r} {'<' if c else '>='} -1 at the critical power"
    return None


def _totals(results: Sequence[QuadratureResult]) -> Tuple[float, float, List[bool]]:
    """The sum of the log-valued shells ``results`` and its error, and
    which shells count as vanished: zeros of f, and shells more than
    _LN_VANISHED below the log of the sum, under its last binary digit.
    A sum past double range raises :class:`EvalOverflow`."""
    logs = [r.value for r in results]
    top = max(logs)
    ln = top + math.log(math.fsum(math.exp(x - top) for x in logs)) if top > -math.inf else top
    if ln > _LOG_MAX:
        raise EvalOverflow(f"the criterion integral exp({ln:.6g}) exceeds double range")
    err = math.fsum(math.exp(r.value) * r.abs_error for r in results)
    return math.exp(ln), err, [x == -math.inf or x < ln - _LN_VANISHED for x in logs]


def _log_shells(
    f: Nonlinearity,
    params: StructureParams,
    ln_top: float,
    count: int,
    tol: Tolerance,
    first: int = 0,
) -> List[QuadratureResult]:
    """Shells k = first .. first + count - 1 of the criterion integral
    below top = e**ln_top, each over (top 2**-(k+1), top 2**-k], as logs.

    In v = ln(1/zeta), shell k is the integral of e**L, L = ln f(e**-v) + q v
    (:meth:`Nonlinearity.log_value`), over [k ln 2 - ln_top, (k+1) ln 2 - ln_top],
    taken as e**(L - r_k), r_k the largest L on its edges and midpoint, to
    relative accuracy min(tol.rel, 1e-12), all shells in one batched pass.
    ``value`` is r_k plus the log of that integral (-inf where it underflows
    at every node, as where f vanishes), ``abs_error`` the error of that log.
    A negative f raises :class:`DomainError`.
    """
    q = critical_exponent(params)

    def ln_g(v: np.ndarray) -> np.ndarray:
        sign, mag = f.log_value(-v)
        if (sign < 0).any():
            raise DomainError(f"expression is negative at z={math.exp(-v[sign < 0][0])!r}")
        return mag + q * v

    at = 0.5 * _LN2 * np.arange(2 * first, 2 * (first + count) + 1) - ln_top
    edges, ln_at = at[::2], ln_g(at)
    r = np.maximum(np.maximum(ln_at[:-1:2], ln_at[1::2]), ln_at[2::2])
    r = np.where(r > -np.inf, r, 0.0)  # f vanishes at all three points

    def g(v: np.ndarray) -> np.ndarray:
        # a row holds one panel's nodes (a flat array, scalar-fallback abscissae);
        # a node by an edge can round into the next shell, the panel's centre not
        centre = v if v.ndim == 1 else 0.5 * (v[:, :1] + v[:, -1:])
        out = ln_g(v) - r[np.clip(np.searchsorted(edges, centre, side="right") - 1, 0, count - 1)]
        if (out > _LOG_MAX).any():
            raise EvalOverflow("integrand exceeds double range within a shell")
        return np.exp(out)

    shell_tol = Tolerance(rel=min(tol.rel, 1e-12), absolute=0.0)
    values, errors, panels, converged, _ = _bisect(g, edges[:-1], edges[1:], shell_tol, _MAX_LEVEL)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = r + np.log(values)
        # the relative quadrature error, plus the log's own rounding
        errs = np.where(values > 0.0, errors / values + np.spacing(np.abs(logs)), 0.0)
    columns = (logs.tolist(), errs.tolist(), panels.tolist(), converged.tolist())
    return [QuadratureResult(*x) for x in zip(*columns)]


def _classify_numeric(
    f: Nonlinearity,
    params: StructureParams,
    tol: Tolerance,
) -> Tuple[List[QuadratureResult], CriterionVerdict]:
    """The ``_SHELL_COUNT`` outermost log-valued shells and the verdict on them."""
    try:
        results = _log_shells(f, params, math.log(params.eps), _SHELL_COUNT, tol)
        return results, _decide(results)
    except EvaluationError as exc:
        detail = f"integrand evaluation failed while probing shells: {exc}"
        return [], CriterionVerdict(Verdict.INCONCLUSIVE, "numeric", detail=detail)


def _decide(results: Sequence[QuadratureResult]) -> CriterionVerdict:
    """Verdict of the numeric classifier on the log-valued shells ``results``."""
    partial, err_sum, vanished = _totals(results)
    logs = [r.value for r in results]
    K = len(logs)
    win, gone = logs[K - K // 2 :], vanished[K - K // 2 :]
    numeric = functools.partial(CriterionVerdict, method="numeric", shells=tuple(logs))

    if not all(r.converged for r in results):
        return numeric(
            Verdict.INCONCLUSIVE,
            detail="a shell quadrature did not converge, so the shell values are not certified",
        )
    if all(gone):
        return numeric(
            Verdict.CONVERGES,
            value=partial,
            abs_error=err_sum,
            detail="integrand vanishes on the deep shells; remainder taken as zero",
        )
    if any(gone):
        return numeric(
            Verdict.INCONCLUSIVE, detail="deep shell integrals are not eventually positive"
        )

    xs = [float(K - K // 2 + i) for i in range(len(win))]
    _, slope, _ = _ls_line(xs, win)
    ratios = [math.exp(b - a) for a, b in zip(win, win[1:])]
    numeric = functools.partial(numeric, slope=slope)

    if min(ratios) >= _RATIO_CUTOFF and slope >= -_SLOPE_CUT:
        return numeric(
            Verdict.DIVERGES,
            detail=f"no shell decay: min ratio {min(ratios):.6g}, log-slope {slope:.6g} per shell",
        )

    if slope <= -_SLOPE_CUT and max(ratios) < 1.0:
        rho = max(ratios)
        geo_bound = math.exp(logs[-1]) * rho / (1.0 - rho)
        if geo_bound <= _TAIL_FRACTION * partial:
            tail, tail_err, label = _fit_tail(logs)
            return numeric(
                Verdict.CONVERGES,
                value=partial + tail,
                abs_error=err_sum + tail_err,
                detail=f"shells decay (log-slope {slope:.6g}); {label}-model tail",
            )
        return numeric(
            Verdict.INCONCLUSIVE,
            detail=(
                f"shells decay but the geometric tail bound ({geo_bound:.6g}) "
                f"is not small against the partial sum ({partial:.6g})"
            ),
        )

    return numeric(
        Verdict.INCONCLUSIVE,
        detail=(
            f"shell decay too shallow to certify either way "
            f"(log-slope {slope:.6g} per shell, min ratio {min(ratios):.6g})"
        ),
    )


# ---------------------------------------------------------------------------
# the integral below a point, and the criterion value

# The deepest shell below eps when _SHELL_COUNT shells miss the tolerance.
_DEEP_SHELL_COUNT = 400


def _integral_below(
    f: Nonlinearity,
    params: StructureParams,
    ln_top: float,
    tol: Tolerance,
    shells: Sequence[QuadratureResult] = (),
) -> QuadratureResult:
    """The integral of f(zeta) * zeta**-(1+q) over (0, top], top = e**ln_top,
    with its error.

    Pure powers are closed form.  Otherwise it is the log-valued dyadic
    shells below ``top`` (:func:`_log_shells`; ``shells``, the outermost
    ones, if already computed) plus the remainder below them: for the
    critical log family, in u = ln(1/zeta), the integral of
    (u + ln(1 + e**(1-u)))**mu over u > V = ln(2**K/top), which is
    V**(mu+1)/(-mu-1) within |mu| V**(mu-1) e**(1-V); zero when every
    shell of the deeper half vanished (:func:`_totals`); otherwise the
    fitted tail model.  That is tried on _SHELL_COUNT shells, then, if
    it missed ``tol`` or no model fitted, on shells down to
    eps * 2**-_DEEP_SHELL_COUNT, the depth of the criterion value's own;
    ``converged`` says whether every shell converged and the error is
    within ``tol``.  A divergent power or critical log raises
    :class:`DivergentIntegralError`, and a tail that fits no model at
    the deeper count :class:`CriterionUndecidedError`.
    """
    q = critical_exponent(params)
    analytic = _analytic(f, q)
    if analytic is not None and not analytic[0]:
        raise DivergentIntegralError(f"{analytic[1]}: the integral diverges")
    ln_eps = math.log(params.eps)
    if isinstance(f, Power):
        d = f.exponent - q  # top**d / d, exactly eps**d / d at top = eps
        value = params.eps**d * math.exp(d * (ln_top - ln_eps)) / d
        return QuadratureResult(value, 4e-16 * abs(value), 0, True)
    critical_log = analytic is not None

    results = list(shells)
    deep = _DEEP_SHELL_COUNT + round((ln_eps - ln_top) / _LN2)
    for count in (_SHELL_COUNT, deep):
        if len(results) < count:
            results += _log_shells(f, params, ln_top, count - len(results), tol, len(results))
        value, err, vanished = _totals(results)
        v = count * _LN2 - ln_top  # the remainder is u = ln(1/zeta) > v
        if critical_log and v > 0.0:
            tail = v ** (f.mu + 1.0) / (-f.mu - 1.0)
            tail_err = -f.mu * v ** (f.mu - 1.0) * math.exp(1.0 - v)
        elif critical_log:
            tail, tail_err = 0.0, math.inf
        elif all(vanished[count // 2 :]):
            tail, tail_err = 0.0, 0.0
        else:
            try:
                tail, tail_err, _ = _fit_tail([r.value for r in results])
            except CriterionUndecidedError:
                if count == deep:
                    raise
                continue
        value, err = value + tail, err + tail_err
        converged = all(r.converged for r in results) and err <= tol.bound(value)
        if converged:
            break
    return QuadratureResult(value, err, sum(r.subdivisions for r in results), converged)


def criterion_value(
    f: Nonlinearity,
    params: StructureParams,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> QuadratureResult:
    """Numeric value of the criterion integral over (0, eps]: the numeric
    classifier's gate (the analytic families need none), then
    :func:`_integral_below` at eps, on the classifier's shells.  Raises
    :class:`DivergentIntegralError` for certifiably divergent input and
    :class:`CriterionUndecidedError` when convergence is not certified.
    The shells are log-values, so no eps is too small for them."""
    shells: List[QuadratureResult] = []
    if _analytic(f, critical_exponent(params)) is None:
        shells, verdict = _classify_numeric(f, params, tol)
        if verdict.verdict is Verdict.DIVERGES:
            raise DivergentIntegralError(f"the criterion integral diverges: {verdict.detail}")
        if verdict.verdict is Verdict.INCONCLUSIVE:
            raise CriterionUndecidedError(
                f"cannot certify convergence before valuing the integral: {verdict.detail}"
            )
    return _integral_below(f, params, math.log(params.eps), tol, shells)

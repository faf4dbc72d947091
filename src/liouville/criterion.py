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
dyadic shells near zero, all in one batched adaptive pass, on an
integrand built in the log domain (:meth:`Nonlinearity.log_value`), so
integrands that underflow doubles at zeta around 1e-100 are still
resolved.  A shell whose quadrature did not converge makes the verdict
inconclusive.

Honest limits of the numeric route: a pure power within about 1.5e-3
of the critical exponent is reported as divergent even though an
integral with exponent gap d > 0 technically converges, and gaps up to
a few times 1e-2 come back inconclusive.  The analytic route has no
such blur; prefer the family types when they apply.
"""

from __future__ import annotations

import enum
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
    DEFAULT_TOLERANCE,
    QuadratureResult,
    Tolerance,
    _dyadic_shells,
    integrate_to_infinity,
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
    numeric evidence when the numeric route ran: per-shell integrals,
    outermost first, and the fitted log-slope per shell.
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


# ---------------------------------------------------------------------------
# stable integrand construction


def criterion_integrand(
    f: Nonlinearity, params: StructureParams
) -> Callable[[np.ndarray], np.ndarray]:
    """Array function computing f(z) * z**-(1+q) for z > 0, elementwise.

    Computed in the log domain, so the product is evaluated correctly
    even where f(z) alone would underflow to zero (pure powers at
    z ~ 1e-200, say).  Results are guaranteed non-negative; the first
    point where f is negative raises :class:`DomainError`.
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


def _fit_tail(vals: Sequence[float]) -> Tuple[float, float, str]:
    """Extrapolate the remainder past the last dyadic shell.

    Two models are fitted on the deeper half of the shells: a geometric
    one (pure powers decay exactly geometrically per shell) and a
    shifted power law a_k = A * (k + c)**-beta (which captures the
    polynomial shell decay of critical-power-times-log integrands).
    The model with the smaller log-space residual wins.  Returns
    (tail, error estimate, model label).  Deep shells that underflowed
    to zero carry no decay information, so only the positive shells
    before the first zero are fitted; when fewer than eight remain, the
    tail is taken as zero with the last positive shell as its error
    bound.  Raises :class:`CriterionUndecidedError` if neither model
    certifies a finite tail.
    """
    first_zero = next((i for i, v in enumerate(vals) if v <= 0.0), len(vals))
    vals = vals[:first_zero]
    if len(vals) < 8:
        return 0.0, (vals[-1] if vals else 0.0), "last-shell"
    K = len(vals)
    w0 = K - K // 2
    win = list(vals[w0:])
    xs = [float(w0 + i) for i in range(len(win))]
    logs = [math.log(v) for v in win]

    tail_geo = err_geo = None
    _, b1, r1 = _ls_line(xs, logs)
    rho = math.exp(b1)
    if rho < 1.0:
        last = vals[-1]
        tail_geo = last * rho / (1.0 - rho)
        ratios = [win[i + 1] / win[i] for i in range(len(win) - 1)]
        rhi = max(ratios)
        rlo = min(ratios)
        if rhi < 1.0:
            spread = abs(last * rhi / (1.0 - rhi) - last * rlo / (1.0 - rlo))
            err_geo = max(spread, 1e-15 * tail_geo)
        else:
            err_geo = tail_geo  # drifting ratios: no confidence

    tail_pow = err_pow = None
    r2 = math.inf
    ds = [logs[i] - logs[i + 1] for i in range(len(logs) - 1)]
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
                    lg + beta * math.log(x + c) for lg, x in zip(logs, xs)
                ) / len(win)
                r2 = math.sqrt(
                    math.fsum(
                        (lg - (ln_a - beta * math.log(x + c))) ** 2
                        for lg, x in zip(logs, xs)
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

    if isinstance(f, Power):
        lam = f.exponent
        if lam <= q:
            return CriterionVerdict(
                Verdict.DIVERGES,
                "analytic",
                detail=f"power exponent {lam!r} <= critical exponent {q!r}",
            )
        value = params.eps ** (lam - q) / (lam - q)
        return CriterionVerdict(
            Verdict.CONVERGES,
            "analytic",
            value=value,
            abs_error=4e-16 * abs(value),
            detail=f"power exponent {lam!r} > critical exponent {q!r}",
        )

    if isinstance(f, PowerLog) and f.power == q:
        if f.mu >= -1.0:
            return CriterionVerdict(
                Verdict.DIVERGES,
                "analytic",
                detail=f"log exponent {f.mu!r} >= -1 at the critical power",
            )
        res = criterion_value(f, params, tol)
        return CriterionVerdict(
            Verdict.CONVERGES,
            "analytic",
            value=res.value,
            abs_error=res.abs_error,
            detail=f"log exponent {f.mu!r} < -1 at the critical power",
        )

    return _classify_numeric(f, params, tol)[1]


def _shell_tolerance(tol: Tolerance) -> Tolerance:
    # Shells span many orders of magnitude, so each is resolved in pure
    # relative terms; an absolute floor would let deep shells go slack.
    return Tolerance(rel=min(tol.rel, 1e-12), absolute=0.0)


def _check_shell_depth(eps: float, count: int) -> None:
    # The lower edge of the deepest shell, computed as _dyadic_shells
    # computes it, must not underflow to 0: the integrand is NaN there.
    if not 0.5 * (eps * 0.5 ** (count - 1)) > 0.0:
        raise ValueError(f"eps={eps!r} is too small: {count} dyadic shells below it reach z = 0")


def _classify_numeric(
    f: Nonlinearity,
    params: StructureParams,
    tol: Tolerance,
) -> Tuple[List[QuadratureResult], CriterionVerdict]:
    """The ``_SHELL_COUNT`` outermost shells and the verdict on them."""
    g = criterion_integrand(f, params)
    _check_shell_depth(params.eps, _SHELL_COUNT)
    try:
        results = _dyadic_shells(g, params.eps, _SHELL_COUNT, _shell_tolerance(tol))
    except EvaluationError as exc:
        return [], CriterionVerdict(
            Verdict.INCONCLUSIVE,
            "numeric",
            detail=f"integrand evaluation failed while probing shells: {exc}",
        )
    return results, _decide(results)


def _decide(results: Sequence[QuadratureResult]) -> CriterionVerdict:
    """Verdict of the numeric classifier on the shell integrals ``results``."""
    vals = [r.value for r in results]
    err_sum = math.fsum(r.abs_error for r in results)
    shells = tuple(vals)
    K = len(vals)
    win = vals[K - K // 2 :]

    if not all(r.converged for r in results):
        return CriterionVerdict(
            Verdict.INCONCLUSIVE,
            "numeric",
            shells=shells,
            detail="a shell quadrature did not converge, so the shell values are not certified",
        )
    if all(v == 0.0 for v in win):
        partial = math.fsum(vals)
        return CriterionVerdict(
            Verdict.CONVERGES,
            "numeric",
            value=partial,
            abs_error=err_sum,
            shells=shells,
            detail="integrand vanishes on the deep shells; remainder taken as zero",
        )
    if any(v <= 0.0 for v in win):
        return CriterionVerdict(
            Verdict.INCONCLUSIVE,
            "numeric",
            shells=shells,
            detail="deep shell integrals are not eventually positive",
        )

    xs = [float(K - K // 2 + i) for i in range(len(win))]
    _, slope, _ = _ls_line(xs, [math.log(v) for v in win])
    ratios = [win[i + 1] / win[i] for i in range(len(win) - 1)]

    if min(ratios) >= _RATIO_CUTOFF and slope >= -_SLOPE_CUT:
        return CriterionVerdict(
            Verdict.DIVERGES,
            "numeric",
            slope=slope,
            shells=shells,
            detail=(
                f"no shell decay: min ratio {min(ratios):.6g}, "
                f"log-slope {slope:.6g} per shell"
            ),
        )

    if slope <= -_SLOPE_CUT and max(ratios) < 1.0:
        rho = max(ratios)
        partial = math.fsum(vals)
        geo_bound = vals[-1] * rho / (1.0 - rho)
        if geo_bound <= _TAIL_FRACTION * partial:
            tail, tail_err, label = _fit_tail(vals)
            return CriterionVerdict(
                Verdict.CONVERGES,
                "numeric",
                value=partial + tail,
                abs_error=err_sum + tail_err,
                slope=slope,
                shells=shells,
                detail=f"shells decay (log-slope {slope:.6g}); {label}-model tail",
            )
        return CriterionVerdict(
            Verdict.INCONCLUSIVE,
            "numeric",
            slope=slope,
            shells=shells,
            detail=(
                f"shells decay but the geometric tail bound ({geo_bound:.6g}) "
                f"is not small against the partial sum ({partial:.6g})"
            ),
        )

    return CriterionVerdict(
        Verdict.INCONCLUSIVE,
        "numeric",
        slope=slope,
        shells=shells,
        detail=(
            f"shell decay too shallow to certify either way "
            f"(log-slope {slope:.6g} per shell, min ratio {min(ratios):.6g})"
        ),
    )


# ---------------------------------------------------------------------------
# criterion value


def criterion_value(
    f: Nonlinearity,
    params: StructureParams,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> QuadratureResult:
    """Numeric value of the criterion integral over (0, eps].

    Raises :class:`DivergentIntegralError` for certifiably divergent
    input and :class:`CriterionUndecidedError` when the classifier
    cannot certify convergence.  Pure powers use the closed form.  The
    critical power-log family splits off an exact substitution tail;
    everything else sums shells and extrapolates a fitted tail model,
    with the error estimate reflecting the model risk.
    """
    q = critical_exponent(params)
    eps = params.eps

    if isinstance(f, Power):
        lam = f.exponent
        if lam <= q:
            raise DivergentIntegralError(
                f"power exponent {lam!r} <= critical exponent {q!r}: the integral diverges"
            )
        value = eps ** (lam - q) / (lam - q)
        return QuadratureResult(value, 4e-16 * abs(value), 0, True)

    stol = _shell_tolerance(tol)
    g = criterion_integrand(f, params)
    critical_log = isinstance(f, PowerLog) and f.power == q
    if critical_log:
        if f.mu >= -1.0:
            raise DivergentIntegralError(
                f"log exponent {f.mu!r} >= -1 at the critical power: the integral diverges"
            )
        K = 40
        _check_shell_depth(eps, K)
        results = _dyadic_shells(g, eps, K, stol)
    else:
        # Decide on the classifier's shells, the outermost ones here at
        # the same tolerance, then integrate only the deeper ones.
        results, verdict = _classify_numeric(f, params, tol)
        if verdict.verdict is Verdict.DIVERGES:
            raise DivergentIntegralError(f"the criterion integral diverges: {verdict.detail}")
        if verdict.verdict is Verdict.INCONCLUSIVE:
            raise CriterionUndecidedError(
                f"cannot certify convergence before valuing the integral: {verdict.detail}"
            )
        K = 400
        _check_shell_depth(eps, K)
        results += _dyadic_shells(g, eps * 0.5 ** len(results), K - len(results), stol)

    vals = [r.value for r in results]
    partial = math.fsum(vals)
    err = math.fsum(r.abs_error for r in results)
    subs = sum(r.subdivisions for r in results)
    converged = all(r.converged for r in results)
    if critical_log:
        # Substituting u = log(eps / zeta) turns the remainder over
        # (0, eps * 2**-K] into an integral of the log factor alone.
        mu, ln_eps = f.mu, math.log(eps)

        def log_factor_tail(u: float) -> float:
            lf = u - ln_eps + math.log1p(eps * math.e * math.exp(-u))
            return math.pow(lf, mu)

        rest = integrate_to_infinity(log_factor_tail, K * math.log(2.0), stol)
        tail, tail_err = rest.value, rest.abs_error
        subs += rest.subdivisions
        converged = converged and rest.converged
    elif all(v == 0.0 for v in vals[K - K // 2 :]):
        tail, tail_err = 0.0, 0.0
    else:
        tail, tail_err, _ = _fit_tail(vals)
    value = partial + tail
    err += tail_err
    return QuadratureResult(value, err, subs, converged and err <= tol.bound(value))

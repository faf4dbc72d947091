"""Dichotomy test for the small-argument integral criterion.

For structure exponents n > p > 1 the quantity that decides everything
is the integral of ``f(zeta) * zeta**-(1+q)`` over (0, eps], where

    q = n * (p - 1) / (n - p)

is the critical exponent.  Divergence means the only non-negative
solution of the associated differential inequality on the whole space
is zero; convergence means a positive radial supersolution exists and
can be built explicitly (see :mod:`liouville.construct`).

:func:`classify` decides the dichotomy from the leading term
c z**a L1**b1 L2**b2 of f as z -> 0+ (L1 = ln(1/z), L2 = ln L1;
:mod:`liouville._leading`), by limit comparison on the Bertrand scale:
the integral converges iff a > q, or a = q and the first of b1, b2 that
is not -1 is below -1.  Where the walk over an expression tree gives up
(leading terms that cancel, as in exp(z) - 1), a numeric route probes
dyadic shells near zero, all in one batched adaptive pass.  Each shell
is integrated in v = ln(1/zeta), where the integrand is e**L with
L = ln f + q v exact at any depth (:meth:`Nonlinearity.log_value`),
scaled per shell, and comes back as a log-value: no shell underflows
or overflows, however deep.  A shell whose quadrature did not converge
makes the verdict inconclusive.

One routine values the integral below any point, :func:`_integral_below`:
:func:`criterion_value` is it at eps, and the profile's source limit
I(inf) below the envelope's last tabulated value.  Below the shells the
remainder is the leading term's own integral, in closed form.

Honest limits.  Exponents are compared exactly, so an exponent that is
a float sum a few ulps away from its threshold (z^0.1 * z^0.7 against
q = 0.8) comes back inconclusive rather than on the side its spelling
meant.  The remainder's error is the deviation of the deepest shells
from the leading term, on the assumption that it keeps shrinking below
them (true eventually for these functions, and checked over the deeper
half of the shells); a log-log factor deviates slowly, so such values
carry errors near 1e-2.  Where the walk gives up, the shells alone can
certify convergence (vanished deep shells, or a geometric tail bound
within a quarter of the partial sum, itself a judgement on 40 shells)
but never divergence.  Their remainder, and that of a term without a
closed-form integral (a log-log factor off the critical power), fits
only the exponent, from the two deepest shells, and a log factor it
does not model is not in its error.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ._leading import Term, leading_term, tail
from .errors import (
    CriterionUndecidedError,
    DivergentIntegralError,
    EvalOverflow,
    EvaluationError,
    MonotonicityError,
    UnsupportedRegimeError,
)
from .nonlinearity import (
    _LOG_MAX,
    Expression,
    Nonlinearity,
    _exp_checked,
    _ln_f,
    check_monotone,
    signed_log_eval,  # noqa: F401  (patched by perfbench/tracing.py)
)
from .quadrature import (
    DEFAULT_TOLERANCE,
    QuadratureResult,
    Tolerance,
    _bisect,
    _panels,
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
    of the criterion integral).  ``shells`` exposes the numeric evidence
    when the numeric route ran: the logs of the per-shell integrals,
    outermost first.
    """

    verdict: Verdict
    method: str  # "analytic" or "numeric"
    value: Optional[float] = None
    abs_error: Optional[float] = None
    shells: Optional[Tuple[float, ...]] = None
    detail: str = ""


@dataclass(frozen=True)
class ClassifyOptions:
    """Options of :func:`classify`: ``check_monotonicity=False`` waives
    the sampled non-decrease check."""

    check_monotonicity: bool = True


# The integral below a point is _SHELL_COUNT dyadic shells plus the
# remainder below them; the numeric classifier decides on their deeper
# half.  Its convergent verdict needs the geometric tail bound to be at
# most _TAIL_FRACTION of the partial sum, so the unseen remainder cannot
# flip the conclusion.
_SHELL_COUNT = 40
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
    :class:`EvalOverflow`.  Results are guaranteed non-negative: f is
    checked for sign first, and its first negative point raises
    :class:`DomainError`.

    The classifier itself integrates in v = ln(1/z), as log-values
    (:func:`_log_shells`); this is the same integrand in z, kept public
    as the reference those shells are checked against in the tests.
    """
    s = 1.0 + critical_exponent(params)

    def g(z):
        z = np.asarray(z, dtype=float)
        ln_z = np.log(z)
        return _exp_checked(_ln_f(f, ln_z, z) - s * ln_z, "integrand", z)

    return g


# ---------------------------------------------------------------------------
# classification


def classify(
    f: Nonlinearity,
    params: StructureParams,
    opts: Optional[ClassifyOptions] = None,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> CriterionVerdict:
    """Decide whether the criterion integral diverges or converges, and
    value it when it converges.

    The verdict is the leading term's (:func:`_verdict`) wherever the
    walk of :mod:`liouville._leading` finds one; elsewhere the numeric
    shell probe runs, which can certify convergence or come back
    inconclusive, never divergent.  The method label names the input's
    route as before: "analytic" for the two families, whose terms are
    their definitions, and "numeric" for expressions.  A convergent
    verdict whose value cannot be certified comes back without one.

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

    term = leading_term(f)
    if term is None:
        shells, verdict = _classify_numeric(f, params, tol)
    else:
        decided, detail = _verdict(term, q)
        method = "numeric" if isinstance(f, Expression) else "analytic"
        shells, verdict = [], CriterionVerdict(decided, method, detail=detail)
    if verdict.verdict is not Verdict.CONVERGES:
        return verdict
    try:
        res = _integral_below(f, params, term, math.log(params.eps), tol, shells)
    except (CriterionUndecidedError, EvaluationError) as exc:
        return dataclasses.replace(verdict, detail=f"{verdict.detail}; no value: {exc}")
    return dataclasses.replace(verdict, value=res.value, abs_error=res.abs_error)


# a and q, or a b_i and -1, this close but not equal come from float sums
# too coarse to tell the side
_ULPS = 4


def _verdict(term: Term, q: float) -> Tuple[Verdict, str]:
    """The verdict of the leading term c z**a L1**b1 L2**b2 (c > 0), and
    why: limit comparison on the Bertrand scale.  The integral converges
    iff a > q, or a = q and the first of b1, b2 that is not -1 is below
    -1; a beyond every power decides by its sign.  Equality counts only
    exactly, and a gap of a few ulps is inconclusive."""
    if math.isinf(term.a):
        if term.a > 0.0:
            return Verdict.CONVERGES, "f vanishes faster than every power of z"
        return Verdict.DIVERGES, "f grows faster than every power of 1/z"
    gap = term.a - q
    if gap and abs(gap) <= _ULPS * math.ulp(q):
        return Verdict.INCONCLUSIVE, (
            f"power exponent {term.a!r} is {gap:.3g} from critical exponent {q!r}, "
            "too close to tell in double precision"
        )
    if gap or term.b1 == term.b2 == 0.0:
        c = gap > 0.0
        return (Verdict.CONVERGES if c else Verdict.DIVERGES), (
            f"power exponent {term.a!r} {'>' if c else '<='} critical exponent {q!r}"
        )
    for b, what in ((term.b1, "log exponent"), (term.b2, "log-log exponent")):
        gap = b + 1.0
        if gap and abs(gap) <= _ULPS * math.ulp(1.0):
            return Verdict.INCONCLUSIVE, (
                f"{what} {b!r} is {gap:.3g} from -1 at the critical power, "
                "too close to tell in double precision"
            )
        if gap:
            c = gap < 0.0
            return (Verdict.CONVERGES if c else Verdict.DIVERGES), (
                f"{what} {b!r} {'<' if c else '>='} -1 at the critical power"
            )
    return Verdict.DIVERGES, "log and log-log exponents -1 at the critical power"


class _Shell(NamedTuple):
    """One log-valued shell of :func:`_log_shells`, with the fields of a
    :class:`~liouville.quadrature.QuadratureResult`: a plain tuple, which
    costs a third of that frozen dataclass to build."""

    value: float
    abs_error: float
    subdivisions: int
    converged: bool


def _totals(results: Sequence[_Shell]) -> Tuple[float, float, List[bool]]:
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


def _vanished_tail(gone: Sequence[bool]) -> bool:
    """Whether the flagged shells (outermost first) end in vanished ones,
    with none alive below the first: then the remainder counts as zero."""
    return bool(gone) and gone[-1] and all(b for a, b in zip(gone, gone[1:]) if a)


class _LogShells(List[_Shell]):
    """The log-valued shells of :func:`_log_shells`, outermost first, and
    ``edges``: L at their count + 1 edges, as the pass evaluated it there
    (:func:`_remainder` reads it again)."""

    def __init__(self, shells: Iterable[_Shell], edges: np.ndarray):
        super().__init__(shells)
        self.edges = edges


def _log_shells(
    f: Nonlinearity,
    params: StructureParams,
    ln_top: float,
    count: int,
    tol: Tolerance,
    first: int = 0,
    q: Optional[float] = None,
) -> _LogShells:
    """Shells k = first .. first + count - 1 of the criterion integral
    below top = e**ln_top, each over (top 2**-(k+1), top 2**-k], as logs.

    In v = ln(1/zeta), shell k is the integral of e**L, L = ln f(e**-v) + q v
    (:meth:`Nonlinearity.log_value`), over [k ln 2 - ln_top, (k+1) ln 2 - ln_top],
    taken as e**(L - r_k), r_k the largest L on its edges and midpoint, to
    relative accuracy min(tol.rel, 1e-12), all shells in one batched pass.
    ``value`` is r_k plus the log of that integral (-inf where it underflows
    at every node, as where f vanishes), ``abs_error`` the error of that log.
    A negative f raises :class:`DomainError`.  ``q`` replaces the critical
    exponent (the weight of the source limit's first-order term).
    """
    q = critical_exponent(params) if q is None else q

    def ln_g(v: np.ndarray) -> np.ndarray:
        return _ln_f(f, -v, lambda: np.exp(-v)) + q * v

    at = 0.5 * _LN2 * np.arange(2 * first, 2 * (first + count) + 1) - ln_top
    edges, ln_at = at[::2], ln_g(at)
    r = np.maximum(np.maximum(ln_at[:-1:2], ln_at[1::2]), ln_at[2::2])
    r = np.where(r > -np.inf, r, 0.0)  # f vanishes at all three points

    def g(v: np.ndarray) -> np.ndarray:
        # a row holds one panel's nodes; a node by an edge can round into the
        # next shell, the panel's centre not
        centre = 0.5 * (v[:, :1] + v[:, -1:])
        out = ln_g(v) - r[np.clip(np.searchsorted(edges, centre, side="right") - 1, 0, count - 1)]
        if (out > _LOG_MAX).any():
            raise EvalOverflow("integrand exceeds double range within a shell")
        return np.exp(out)

    shell_tol = Tolerance(rel=min(tol.rel, 1e-12), absolute=0.0)
    values, errors, panels, converged = _bisect(lambda _, a, b: _panels(g, a, b), edges[:-1], edges[1:], shell_tol)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = r + np.log(values)
        # the relative quadrature error, plus the log's own rounding
        errs = np.where(values > 0.0, errors / values + np.spacing(np.abs(logs)), 0.0)
    columns = (logs.tolist(), errs.tolist(), panels.tolist(), converged.tolist())
    return _LogShells(map(_Shell._make, zip(*columns)), ln_at[::2])


def _classify_numeric(
    f: Nonlinearity,
    params: StructureParams,
    tol: Tolerance,
) -> Tuple[List[_Shell], CriterionVerdict]:
    """The ``_SHELL_COUNT`` outermost log-valued shells and the verdict on
    them, for an f whose leading term the walk could not find."""
    try:
        results = _log_shells(f, params, math.log(params.eps), _SHELL_COUNT, tol)
        return results, _decide(results)
    except EvaluationError as exc:
        detail = f"integrand evaluation failed while probing shells: {exc}"
        return [], CriterionVerdict(Verdict.INCONCLUSIVE, "numeric", detail=detail)


def _decide(results: Sequence[_Shell]) -> CriterionVerdict:
    """Verdict of the numeric classifier on the log-valued shells ``results``:
    convergent when the deeper half ends in vanished shells, or when its
    shell ratios stay below some rho < 1 and the geometric tail bound
    last * rho / (1 - rho) is at most _TAIL_FRACTION of the partial sum;
    inconclusive otherwise.  Shells alone never certify divergence."""
    partial, _, vanished = _totals(results)
    logs = [r.value for r in results]
    K = len(logs)
    win, gone = logs[K - K // 2 :], vanished[K - K // 2 :]
    numeric = functools.partial(CriterionVerdict, method="numeric", shells=tuple(logs))

    if not all(r.converged for r in results):
        return numeric(
            Verdict.INCONCLUSIVE,
            detail="a shell quadrature did not converge, so the shell values are not certified",
        )
    if _vanished_tail(gone):
        return numeric(Verdict.CONVERGES, detail="integrand vanishes on the deep shells; remainder taken as zero")
    if any(gone):
        return numeric(
            Verdict.INCONCLUSIVE, detail="deep shell integrals are not eventually positive"
        )
    rho = max(math.exp(b - a) for a, b in zip(win, win[1:]))
    bound = math.exp(logs[-1]) * rho / (1.0 - rho) if rho < 1.0 else math.inf
    if bound <= _TAIL_FRACTION * partial:
        return numeric(Verdict.CONVERGES, detail=f"shells decay geometrically (ratio at most {rho:.6g})")
    return numeric(
        Verdict.INCONCLUSIVE,
        detail=(
            f"the shells do not certify convergence: largest deep ratio {rho:.6g}, "
            f"geometric tail bound {bound:.6g} against the partial sum {partial:.6g}"
        ),
    )


# ---------------------------------------------------------------------------
# the integral below a point, and the criterion value

# The relative accuracy of ln_scaled_gamma on s in [-3, 2], x in [1e-4, 600]
# (7e-15 against mpmath), with room.
_GAMMA_ERROR = 2e-14


def _remainder(q: float, results: _LogShells, ln_top: float, term: Optional[Term]) -> Tuple[float, float]:
    """The criterion integral below the log-shells ``results``, the
    outermost ones below top = e**ln_top, and its error.

    In u = ln(1/zeta) it is the integral over u > V, the deepest shell's
    inner edge, of e**L, L = ln f(e**-u) + q u.  The model is the leading
    term's own integrand m(u) = c e**(-d u) u**b1 (ln u)**b2, d = a - q,
    integrated in closed form (:func:`~liouville._leading.tail`).  Where
    there is no term or no closed form (the walk gave up, f lies beyond
    every power, or d > 0 with b2 != 0) only the exponent is fitted: m
    is the power z**(q + d) whose shells repeat the ratio 2**-d of the
    two deepest, through the deepest.  The error is rho times the
    remainder, rho the largest relative deviation of e**L from m at the
    three deepest shell edges (L as the shells' pass evaluated it there).
    A deviation that grows over the deeper half of the shells refuses the
    remainder with :class:`CriterionUndecidedError`.
    """
    K = len(results)
    v = K * _LN2 - ln_top
    value = None
    if term is not None and math.isfinite(term.a) and v > 1.0:
        d, b1, b2 = term.a - q, term.b1, term.b2
        ln_m = math.log(term.c) - d * v + (b1 * math.log(v) if b1 else 0.0)
        ln_m += b2 * math.log(math.log(v)) if b2 else 0.0
        value = tail(ln_m, d, b1, b2, v)
    if value is None:
        drop = results[-2].value - results[-1].value
        if not 0.0 < drop < math.inf:
            raise CriterionUndecidedError("the deepest shells do not decay, so no remainder can be fitted")
        d, b1, b2 = drop / _LN2, 0.0, 0.0
        ln_m = results[-1].value + math.log(d) - drop - math.log(-math.expm1(-drop))
        value = tail(ln_m, d, b1, b2, v)
    at = [K // 2, K - 2, K - 1, K]
    u = _LN2 * np.array(at, dtype=float) - ln_top
    with np.errstate(all="ignore"):
        ln_model = ln_m - d * (u - v) + (b1 * np.log(u / v) if b1 else 0.0)
        ln_model = ln_model + (b2 * np.log(np.log(u) / math.log(v)) if b2 else 0.0)
        dev = np.abs(np.expm1(results.edges[at] - ln_model))
    rho = float(dev[1:].max())
    if not rho <= max(float(dev[0]), 1e-12):
        raise CriterionUndecidedError(
            f"the integrand's deviation from its leading term grows over the deep shells "
            f"(from {float(dev[0]):.3g} to {rho:.3g})"
        )
    return value, (rho + _GAMMA_ERROR) * value


def _integral_below(
    f: Nonlinearity,
    params: StructureParams,
    term: Optional[Term],
    ln_top: float,
    tol: Tolerance,
    shells: Sequence[_Shell] = (),
    q: Optional[float] = None,
) -> QuadratureResult:
    """The integral of f(zeta) * zeta**-(1+q) over (0, top], top = e**ln_top,
    with its error; ``q`` defaults to the critical exponent, and ``term``
    is f's leading term (:func:`~liouville._leading.leading_term`, walked
    by the caller), None where the walk gave up.

    Where f is exactly c * z**a (a ``Power``, or such an expression) it
    is the term's closed form from top.  Otherwise it is the
    ``_SHELL_COUNT`` log-valued dyadic shells below ``top``
    (:func:`_log_shells`; ``shells``, if already computed) plus the
    remainder below them: zero when the deeper half ends in vanished
    shells (:func:`_vanished_tail`), else :func:`_remainder`.
    ``converged`` says whether every shell converged and the error is
    within ``tol``.  A leading term that diverges raises
    :class:`DivergentIntegralError`, and one too close to call, or a
    refused remainder, :class:`CriterionUndecidedError`; an f without
    a term is not decided here (see :func:`criterion_value`).
    """
    q = critical_exponent(params) if q is None else q
    if term is not None:
        verdict, detail = _verdict(term, q)
        if verdict is Verdict.DIVERGES:
            raise DivergentIntegralError(f"the criterion integral diverges: {detail}")
        if verdict is Verdict.INCONCLUSIVE:
            raise CriterionUndecidedError(detail)
        if term.exact:
            d, v = term.a - q, -ln_top
            value = tail(math.log(term.c) - d * v, d, 0.0, 0.0, v)
            return QuadratureResult(value, 4e-16 * abs(value), 0, True)

    results = shells or _log_shells(f, params, ln_top, _SHELL_COUNT, tol, q=q)
    value, err, vanished = _totals(results)
    if not _vanished_tail(vanished[len(results) // 2 :]):
        rest, rest_err = _remainder(q, results, ln_top, term)
        value, err = value + rest, err + rest_err
    converged = all(r.converged for r in results) and err <= tol.bound(value)
    return QuadratureResult(value, err, sum(r.subdivisions for r in results), converged)


def criterion_value(
    f: Nonlinearity,
    params: StructureParams,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> QuadratureResult:
    """Numeric value of the criterion integral over (0, eps]:
    :func:`_integral_below` at eps, after the numeric classifier's gate
    where f has no leading term (on whose shells it then runs).  Raises
    :class:`DivergentIntegralError` for certifiably divergent input and
    :class:`CriterionUndecidedError` when convergence is not certified.
    The shells are log-values, so no eps is too small for them."""
    shells: List[_Shell] = []
    term = leading_term(f)
    if term is None:
        shells, verdict = _classify_numeric(f, params, tol)
        if verdict.verdict is Verdict.INCONCLUSIVE:
            raise CriterionUndecidedError(
                f"cannot certify convergence before valuing the integral: {verdict.detail}"
            )
    return _integral_below(f, params, term, math.log(params.eps), tol, shells)

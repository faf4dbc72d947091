"""Explicit radial supersolution in the convergent regime.

Given structure exponents n > p > 1 and a nonlinearity f whose
criterion integral converges, the construction is completely explicit.
With k = (n - p)/(p - 1), the candidate upper envelope is

    env(r) = eps * (1 + r/delta)**-k,

the inner source integral is

    I(z) = integral_0^z  xi**(n-1) * f(env(xi)) d xi,

and the profile itself is the outer integral

    w(r) = integral_r^inf  (I(zeta) / zeta**(n-1))**(1/(p-1)) d zeta.

By construction w is positive, decreasing, and satisfies the radial
divergence-form inequality with equality; it is a supersolution of the
original problem once it stays below the envelope, which the delta
search certifies.

Scaling in delta is exact: I_delta(z) = delta**n * I_1(z/delta) and
w_delta(r) = delta**(p/(p-1)) * w_1(r/delta).  So the cache is one
delta-free table in s = xi/delta, built at delta = 1 over sixteen
decades (eight on each side of s = 1) and on for 40 halvings of the
envelope, and a :class:`RadialProfile` is that table plus its delta.
Both the table and the outer cache are taken in x = ln s, on one node
set: one panel per knot interval on the 7-point Lobatto-Kronrod rule
K7, with the 4-point Lobatto rule L4 embedded in it as the error
estimate (Gander and Gautschi's pair; see :mod:`liouville.quadrature`),
whose end nodes are the knots.  The table integrates s * source(s) in x
and keeps it at all seven nodes of every panel, so I_1 anywhere inside
a panel is its left knot's sum plus the integral of the polynomial
through those seven values: a dot product with the cumulative Lagrange
weights C_m(u) of the nodes at the fraction u (:func:`_dense_basis`),
as a Runge-Kutta method's dense output reads its stages.  Filled on
first use: I_1(inf), and w_1 at the same knots, whose panels have their
interior nodes where the table's are, so they read I_1 there through
one fixed matrix of those weights.  Substituting zeta = env(xi) makes
the source mass beyond the last knot a * eps**q (a = 1/k) times the
criterion integral below env there, up to a weight within
(n-1)/(1 + s_end) of 1, so I_1(inf) needs no quadrature to infinity.
Each knot's value serves both intervals it bounds, and each interval
adds five interior nodes.  The panels of a fill go through
:func:`~liouville.quadrature._k7` in one call, node-major: the values at
the knots as the two end arrays and the interior values as five rows,
never stacked into one array per panel.  The table's
first panel [0, s_0], in s, takes a rule of the weight s**(n-1) on the
K7 nodes (:func:`_origin_panel`).  Panels that miss the tolerance are
halved together on K7 (:func:`~liouville.quadrature._bisect`), with the
source term taken afresh in the table and on the dense output in the
outer cache.  The table takes ln s and ln(1 + s) at the nodes of its
panels, in node-major blocks, from a geometry computed on first use:
once per process for the panels up to the last cache knot, once per
a = (p-1)/(n-p) for those past it (:func:`_table_fill`).
The outer cache keeps its integrand at all seven nodes of every panel
too, so w between knots is their dense output, as I_1 is the table's: a
profile value costs a dot product of seven values (one adaptive panel
in an interval whose panel the fill halved, a closed form off the
cache) instead of a nested double integral.  Below the first knot I
takes the first panel's rule on [0, s] itself.
:meth:`RadialProfile.rescaled` gives the profile at another delta on
the same table, and the delta search builds a single profile.

f is read one way, in logs (:meth:`Nonlinearity.log_value`): the source
term of the table and of every scale, and f at the profile's own values,
which go to 0, where f in double arithmetic can cancel or overflow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ._leading import leading_term
from .criterion import (
    ClassifyOptions,
    StructureParams,
    Verdict,
    _integral_below,
    classify,
    criterion_value,
    critical_exponent,
)
from .errors import (
    CriterionUndecidedError,
    DeltaSearchError,
    DivergentIntegralError,
    DomainError,
)
from .nonlinearity import _LOG_MAX, Nonlinearity, _exp_checked, _ln_f
from .quadrature import (
    _XA_K7,
    DEFAULT_TOLERANCE,
    PanelResults,
    QuadratureResult,
    Tolerance,
    _bisect,
    _finite,
    _k7,
    _nodes,
    integrate,
    integrate_intervals,
    integrate_to_infinity,
)

__all__ = [
    "RadialProfile",
    "envelope",
    "sup_profile",
    "change_of_variables_check",
    "decay_bound",
    "DeltaSearchOptions",
    "find_delta",
]


def envelope(params: StructureParams, delta: float) -> Callable[[float], float]:
    """Closure for env(r) = eps * (1 + r/delta)**-k with k = (n-p)/(p-1)."""
    critical_exponent(params)  # enforces n > p
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"delta must be finite and positive, got {delta!r}")
    k = (params.n - params.p) / (params.p - 1.0)
    eps = params.eps

    def env(r: float) -> float:
        if math.isnan(r) or r < 0.0:
            raise DomainError(f"radius must be >= 0, got {r!r}")
        return eps * math.exp(-k * math.log1p(r / delta))

    return env


# The inner-integral cache: log-spaced knots over [1/span, span] in s = xi/delta;
# the table continues it for _EXTRA_OCTAVES halvings of the envelope, at
# _HALVING_KNOTS knots a halving.
_CACHE_NODES = 2048
_CACHE_SPAN = 1e8
_EXTRA_OCTAVES = 40
_HALVING_KNOTS = 16
# Panels per pass of f's log evaluator in the table fill: enough to amortize
# numpy's call overhead, few enough that the evaluator keeps its temporaries
# (48 KiB each here) out of peak memory and under 128 KiB, past which malloc
# maps fresh pages for every array.
_BLOCK = 1024
_LN_TINY = math.log(np.finfo(float).tiny)  # ln of the smallest normal double
_NOT_CONVERGED = "the source integral does not converge to tolerance"


# The K7 nodes as fractions of their panel
_K7_U = 0.5 * (1.0 + _XA_K7)


@functools.cache
def _dense_basis() -> np.ndarray:
    # The cumulative Lagrange weights of the K7 nodes, C_m(u) = the integral
    # over [0, u] of node m's Lagrange basis polynomial, u the fraction of
    # the panel: row k the coefficients of v**k, v = 2u - 1, column m one
    # node, each from its roots, the other nodes.  C_m(1) is K7's weight of
    # node m over 2.  Read-only, as one copy serves all.
    x = _XA_K7.tolist()
    basis = np.zeros((len(x) + 1, len(x)))
    for m, xm in enumerate(x):
        c = np.ones(1)
        for r in x[:m] + x[m + 1 :]:
            c = np.convolve(c, [-r, 1.0]) / (xm - r)
        c = np.concatenate(([0.0], 0.5 * c / np.arange(1, len(x) + 1)))  # its integral in v, over 2
        c[0] = -c @ (-1.0) ** np.arange(c.size)  # from v = -1
        basis[:, m] = c
    basis.flags.writeable = False
    return basis


@functools.cache
def _interior_weights() -> np.ndarray:
    # C_m at the five interior K7 nodes, row m, column j: the one fixed
    # matrix through which the outer cache reads I_1 at its interior nodes,
    # which are the table's own.  Read-only, as one copy serves all.
    v = _XA_K7[1:-1]
    weights = sum(row[:, None] * v**k for k, row in enumerate(_dense_basis()))
    weights.flags.writeable = False
    return weights


def _dense(g, u) -> np.ndarray:
    # The integral over [0, u] of the polynomial through the values g[m]
    # at the seven K7 nodes of a panel, over the panel's width: the sum of
    # C_m(u) g[m] (:func:`_dense_basis`), g[m] and u broadcast together.
    # The polynomial's coefficients in v = 2u - 1 are summed node by node
    # and it is read by Horner's rule, all elementwise, so that a point's
    # bits do not depend on the others, nor on the shape of the call.
    basis = _dense_basis().reshape((8, 7) + (1,) * np.ndim(g[0]))
    coef = basis[:, 0] * g[0]
    for m in range(1, 7):
        coef += basis[:, m] * g[m]
    v = 2.0 * np.asarray(u) - 1.0
    out = coef[-1] * v
    for c in coef[-2:0:-1]:
        out += c
        out *= v
    out += coef[0]
    return out


def _ln_source(f: Nonlinearity, params: StructureParams, ln_s: np.ndarray, ln_1ps: np.ndarray, power) -> np.ndarray:
    # ln of s**power * f(env(s)) at delta = 1, for s > 0, from ln s and
    # ln(1 + s): the source term at power n - 1, the table's integrand in
    # ln s at power n; in logs throughout, because far out f(env) underflows
    # long before the source term does
    k = (params.n - params.p) / (params.p - 1.0)
    ln_z = math.log(params.eps) - k * ln_1ps
    return power * ln_s + _ln_f(f, ln_z, lambda: np.exp(ln_z))


def _exp_source(ln: np.ndarray, at) -> np.ndarray:
    # the source term from its log (at as in _exp_checked); a subnormal
    # value has too few digits to resolve, and cannot move a sum
    return _exp_checked(np.where(ln < _LN_TINY, -np.inf, ln), "source term", at)


def _source_term(f: Nonlinearity, params: StructureParams, xi: np.ndarray, delta: float = 1.0) -> np.ndarray:
    # the source term at scale delta, delta**(n-1) times its value at s = xi/delta
    s = xi / delta
    ln = _ln_source(f, params, np.log(s), np.log1p(s), params.n - 1)
    return _exp_source(ln + (params.n - 1) * math.log(delta), xi)


def _panel_nodes(x: np.ndarray) -> np.ndarray:
    # the K7 nodes but the left end of the panels between the knots x, one
    # panel per row: the five interior ones, then the panel's right end,
    # the knot itself
    nodes = _nodes(x[:-1], x[1:], _XA_K7[1:])
    nodes[:, -1] = x[1:]
    return nodes


def _node_logs(ln_s: np.ndarray) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
    # ln s and ln(1 + s) at the fill nodes, from their ln s (one panel per
    # row), in node-major blocks of _BLOCK panels: one contiguous
    # (6, panels) pair per block, each row one node.  Read-only, as one
    # copy serves all.
    blocks = []
    for c in range(0, ln_s.shape[0], _BLOCK):
        xb = np.ascontiguousarray(ln_s[c : c + _BLOCK].T)
        pair = (xb, np.log1p(np.exp(xb)))
        for a in pair:
            a.flags.writeable = False
        blocks.append(pair)
    return tuple(blocks)


@functools.cache
def _table_geometry() -> Tuple[np.ndarray, Tuple[Tuple[np.ndarray, np.ndarray], ...]]:
    # What every table shares, built on the first fill: the cache knots,
    # and the :func:`_node_logs` of the panels up to the last cache knot
    # (2048 panels, 0.2 MB): the panel [0, s_0] in s, then those in ln s.
    s = np.geomspace(1.0 / _CACHE_SPAN, _CACHE_SPAN, _CACHE_NODES)
    s.flags.writeable = False
    origin = _panel_nodes(np.array([0.0, s[0]]))
    return s, _node_logs(np.concatenate((np.log(origin), _panel_nodes(np.log(s)))))


@functools.lru_cache(maxsize=8)
def _tail_geometry(a: float) -> Tuple[np.ndarray, Tuple[Tuple[np.ndarray, np.ndarray], ...]]:
    # What every table at a = (p-1)/(n-p) shares: the knots past the cache
    # and the :func:`_node_logs` of their panels (640 panels, 0.06 MB).
    # There ln(1 + s) steps by a ln 2 / _HALVING_KNOTS: env =
    # eps * (1 + s)**(-1/a) halves every _HALVING_KNOTS knots.
    steps = np.arange(1, _HALVING_KNOTS * _EXTRA_OCTAVES + 1)
    ln_1ps = math.log1p(_CACHE_SPAN) + a * math.log(2.0) / _HALVING_KNOTS * steps
    s = np.expm1(ln_1ps[ln_1ps < _LOG_MAX])
    s.flags.writeable = False
    return s, _node_logs(_panel_nodes(np.log(np.concatenate((_table_geometry()[0][-1:], s)))))


@functools.cache
def _origin_rule(n: int) -> np.ndarray:
    # The panel [0, s_0] at the fractions u = s/s_0 of its K7 nodes but 0:
    # row 0 the weights of the rule interpolating g on all six nodes for the
    # integral over [0, 1] of u**(n-1) g(u), from the moments 1/(n + j) of
    # u**(n-1) in u**j, and row 1 those of the rule on the three L4 nodes
    # among them; both over u**n, so that they read u**n g, which is
    # s * source(s) over s_0**n.  Where u**-n overflows, u**n g underflows
    # first: weight 0.  Read-only, as one copy serves every table at this n.
    u = _K7_U[1:]
    rule = np.zeros((2, u.size))
    for row, at in zip(rule, (np.arange(u.size), np.array([1, 3, 5]))):
        j = np.arange(at.size)
        row[at] = np.linalg.solve(u[at] ** j[:, None], 1.0 / (n + j))
    with np.errstate(over="ignore", invalid="ignore"):
        rule *= np.exp(-n * np.log(u))
    rule = np.where(np.isfinite(rule), rule, 0.0)
    rule.flags.writeable = False
    return rule


def _origin_panel(src: np.ndarray, n: int) -> Tuple[float, float]:
    """The integral of the source term over [0, s_0] and its error, from
    s * source(s) ``src`` at that panel's K7 nodes but 0.

    There the source term is s**(n-1) g(s), with g = f(env) nearly
    constant (z**a varies by a k s_0 over it, 1e-7 at a = 0.81, k = 13),
    and s**(n-1) is past L4's degree 5 from n = 7 on, so L4 cannot
    confirm a K7 panel.  This rule integrates g against the weight
    u**(n-1), u = s/s_0, on the panel's own nodes (:func:`_origin_rule`),
    and its estimate is the difference from the rule on L4's nodes: both
    follow g up to its cubic term, some 1e-21 of it.
    """
    high, low = _origin_rule(n) @ src
    return high, max(abs(high - low), 50.0 * np.finfo(float).eps * abs(high))


def _table_fill(
    f: Nonlinearity, params: StructureParams, tol: Tolerance
) -> Tuple[np.ndarray, np.ndarray, PanelResults]:
    """The knots s of the table at delta = 1, the integrand s * source(s)
    in x = ln s at the seven K7 nodes of each panel between them (one row
    per node, one column per panel), and the integrals of the source term
    over the panels between 0 and them.

    The first panel, [0, s_0], is valued by :func:`_origin_panel` on its
    K7 nodes in s; the others, between the knots, are K7 panels in x with
    L4 as the error estimate (:func:`~liouville.quadrature._k7`, all in
    one call).  A panel's ends are knots, so the
    integrand is taken once at each knot and at five interior nodes per
    panel.  The node logs come in node-major blocks, those of the panels
    up to the last cache knot from :func:`_table_geometry` and those past
    it, which depend on a = (p-1)/(n-p), from :func:`_tail_geometry`.
    Per node the integrand is then one multiply-add, f's log evaluator
    and one exp, a block of ``_BLOCK`` panels at a time; each block is read
    through its transpose, so a NaN, an overflow or a negative f names the
    first spoiled node panel by panel.
    A panel whose estimate misses ``tol`` of both its own value and the
    rounding of the running sum it joins is halved to ``tol`` of its own
    value (:func:`~liouville.quadrature._bisect`, from the fill's value
    and estimate of it), its halves K7 panels with the integrand taken
    afresh at all seven nodes (0 at s = 0); its seven values are then
    scaled to that value, so that the dense output of the panel ends on
    the running sum.
    """
    n = params.n
    knots, fixed = _table_geometry()
    tail, past = _tail_geometry((params.p - 1.0) / (n - params.p))
    s = np.concatenate((knots, tail))
    x = np.log(s)
    at_nodes, row = np.empty((7, s.size)), 0
    for ln_s, ln_1ps in fixed + past:
        part = slice(row, row + ln_s.shape[1])
        at = lambda: np.exp(ln_s.T)  # noqa: E731  (where an error names s)
        at_nodes[1:, part] = _finite(_exp_source(_ln_source(f, params, ln_s.T, ln_1ps.T, n), at), at).T
        row = part.stop
    # each panel's left end is the right end of the one before, the first's s = 0
    at_nodes[0] = np.append(0.0, at_nodes[-1, :-1])
    values, errors = np.empty(s.size), np.empty(s.size)
    values[1:], errors[1:] = _k7(at_nodes[0, 1:], at_nodes[1:-1, 1:], at_nodes[-1, 1:], 0.5 * np.diff(x))
    values[0], errors[0] = _origin_panel(at_nodes[1:, 0], n)
    # below the rounding of the running sum, as where the source term nears
    # underflow, no panel's error can move the table, so none is chased there
    floor = np.finfo(float).eps * np.cumsum(values)
    miss = np.flatnonzero(~(errors <= np.maximum(tol.absolute, tol.rel * np.maximum(np.abs(values), floor))))

    def halves(own: np.ndarray, a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # the first panel's halves in s, with the source term; the others'
        # in x, with s * source(s)
        t = _nodes(a, b, _XA_K7)
        t[:, 0], t[:, -1] = a, b
        in_s = miss[own] == 0
        ln_s = t.copy()
        with np.errstate(divide="ignore"):
            ln_s[in_s] = np.log(t[in_s])  # -inf at s = 0, where the source term is 0
        ln = _ln_source(f, params, ln_s, np.log1p(np.exp(ln_s)), np.where(in_s, n - 1.0, n)[:, None])
        at = lambda: np.exp(ln_s)  # noqa: E731
        src = _finite(_exp_source(ln, at), at).T
        return _k7(src[0], src[1:-1], src[-1], 0.5 * (b - a))

    lo, hi = np.concatenate(([0.0], x[:-1])), np.concatenate((s[:1], x[1:]))
    guess = values[miss]
    values[miss], errors[miss], _, converged = _bisect(halves, lo[miss], hi[miss], tol, (guess, errors[miss]))
    ratio = np.divide(values[miss], guess, out=np.ones(miss.size), where=guess > 0.0)
    at_nodes[:, miss] *= ratio
    return s, at_nodes[:, 1:], PanelResults(values, errors, bool(converged.all()))


class _OuterFill(NamedTuple):
    """The outer cache at delta = 1 (:meth:`RadialProfile._fill_outer`):
    w_1 at the knots, whether every panel met its tolerance and their
    summed error, the integrand zeta |w_1'| in ln zeta at the knots
    (``ends``) and at the five interior K7 nodes of each knot interval
    (``inner``, one row per node), and which intervals were halved."""

    ws: np.ndarray
    converged: bool
    error: float
    ends: np.ndarray
    inner: np.ndarray
    halved: np.ndarray


class _UnitTable:
    """The inner integral at delta = 1, shared by every scale.

    I_delta(z) = delta**n * I_1(z/delta), so one table in s = xi/delta
    serves every delta.  Its panels are filled by :func:`_table_fill`,
    the fixed ones (up to the last cache knot) on the node logs that
    every table shares.  It holds the knots s (from the first one where
    I_1 > 0), ln s and the widths h of the knot intervals in it, I_1 and
    ln I_1 at the knots, and, for each knot interval, the integrand
    s * source(s) in ln s at the seven K7 nodes of its panel, as the fill
    took it (:meth:`inner`); I_1 at the last knot with the fill's summed
    error, whether every panel of the fill met its tolerance, the log of
    the envelope there, and f's leading term (walked once, for the source
    limit).  Filled on first use: I_1(inf) with its error, the outer
    cache (:class:`_OuterFill`: W_1, w at delta = 1 at the knots, with
    its fill's converged flag, summed error and integrand values), the
    criterion result, and
    w_1 and |w_1'| on one fixed set of radii (:meth:`RadialProfile._sample`).
    """

    def __init__(self, f: Nonlinearity, params: StructureParams, tol: Tolerance):
        s, at_nodes, fill = _table_fill(f, params, tol)
        cum = np.cumsum(fill.values)
        keep = cum > 0.0  # the sums never decrease, so this drops a prefix
        self.last, self.last_error = float(cum[-1]), float(fill.abs_errors.sum())
        self.converged = fill.converged
        a = (params.p - 1.0) / (params.n - params.p)
        self.ln_top = math.log(params.eps) - math.log1p(s[-1]) / a
        self.s = s[keep]
        self.ln_s = np.log(self.s)
        self.h = np.diff(self.ln_s)
        self.i = cum[keep]
        self.ln_i = np.log(self.i)
        self.at_nodes = at_nodes[:, s.size - self.s.size :]
        self.term = leading_term(f)
        self.limit: Optional[Tuple[float, float]] = None
        self.outer: Optional[_OuterFill] = None
        self.criterion: Optional[QuadratureResult] = None
        self.sample: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def inner(self, i: np.ndarray, u: np.ndarray) -> np.ndarray:
        """I_1 at the fractions u of the knot intervals i (broadcast
        together): the sum at the interval's left knot plus h times the
        integral over [0, u] of the polynomial through its panel's seven
        integrand values (:func:`_dense`)."""
        out = _dense(np.take(self.at_nodes, i, axis=1), u)
        out *= self.h[i]
        out += self.i[i]
        return out

    def interior(self) -> np.ndarray:
        """I_1 at the five interior K7 nodes of every knot interval, one
        row per node, through the fixed matrix :func:`_interior_weights`.
        The einsum sums each entry over the seven nodes in order, on its
        own: a span's bits do not depend on the other spans."""
        out = np.einsum("mj,mi->ji", _interior_weights(), self.at_nodes)
        out *= self.h
        out += self.i[:-1]
        return out

    def locate(self, ln_s: np.ndarray, i: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
        """The knot interval of each point ln s (``i`` where the caller has
        found it, else by a knot search, clamped to the intervals) and the
        point's fraction of it, clamped to [0, 1]."""
        if i is None:
            i = np.searchsorted(self.ln_s[1:-1], ln_s, side="right")
        return i, np.clip((ln_s - self.ln_s[i]) / self.h[i], 0.0, 1.0)


def _ln_mass(inner: np.ndarray) -> np.ndarray:
    # ln I_1 from the dense output; where its weights give I_1 <= 0, next to
    # the prefix where I_1 underflows, I_1 counts as 0
    return np.log(inner, out=np.full(np.shape(inner), -np.inf), where=inner > 0.0)


class RadialProfile:
    """The constructed profile for one (f, params, delta) triple.

    A profile is a :class:`_UnitTable` plus its delta.  Building one
    fills the table: I at delta = 1 at 2048 log-spaced knots spanning
    eight decades on each side of s = xi/delta = 1, then 640 knots over
    40 further halvings of the envelope (16 a halving), by cumulative
    K7 increments in ln s, with the integrand kept at all seven nodes of
    every panel.  Inside the cache I is the dense output of those panels
    (:meth:`_UnitTable.inner`); off it I follows its limiting behaviour:
    it grows like z**n below the cache (the envelope is flat there) and
    is taken as saturated at I(inf) above it, where the envelope is
    2**-40 of its value at the last cache knot.  The first profile value
    fills the outer cache, w at the same knots: one K7 panel in ln zeta
    per knot interval, on the table's own nodes, summed down from the
    closed form at the last knot.  Between the knots w is the dense
    output of those panels (:meth:`_on_grid`).
    :meth:`rescaled` gives the profile at any other delta on the same
    table, which it neither copies nor fills again.
    """

    def __init__(
        self,
        f: Nonlinearity,
        params: StructureParams,
        delta: float,
        tol: Tolerance = DEFAULT_TOLERANCE,
    ):
        self.f = f
        self.params = params
        self.delta = float(delta)
        self.tol = tol
        self.q = critical_exponent(params)
        self.decay = (params.n - params.p) / (params.p - 1.0)
        self._env = envelope(params, self.delta)  # validates delta
        self._seg_tol = Tolerance(rel=min(tol.rel, 1e-12), absolute=0.0)
        self._table = _UnitTable(f, params, self._seg_tol)

    def rescaled(self, delta: float) -> "RadialProfile":
        """The profile at scale ``delta``, on this one's table.

        Scaling is exact: I_delta(z) = delta**n * I_1(z/delta) and
        w_delta(r) = delta**(p/(p-1)) * w_1(r/delta).  The view shares
        the table, with everything filled in it so far, and copies
        nothing.  Returns ``self`` at this profile's own scale.
        """
        env = envelope(self.params, delta)  # validates delta
        if delta == self.delta:
            return self
        view = object.__new__(RadialProfile)
        view.__dict__.update(self.__dict__)
        view.delta = float(delta)
        view._env = env
        return view

    def __repr__(self) -> str:
        return (
            f"RadialProfile(f={self.f!r}, n={self.params.n}, p={self.params.p}, "
            f"eps={self.params.eps}, delta={self.delta})"
        )

    def _source(self, xi: np.ndarray) -> np.ndarray:
        # xi**(n-1) * f(env(xi)) elementwise for xi > 0, as the table reads it
        return _source_term(self.f, self.params, np.asarray(xi, dtype=float), self.delta)

    def _f_at(self, ln_z: np.ndarray) -> np.ndarray:
        # f at z = e**ln_z, elementwise; z = 0 (ln_z = -inf) gives f(0+) = 0,
        # the limit for every f whose criterion integral converges
        pos = ln_z > -np.inf
        ln_f = np.full(ln_z.shape, -np.inf)
        ln_f[pos] = _ln_f(self.f, ln_z[pos], lambda: np.exp(ln_z[pos]))
        return _exp_checked(ln_f, "f", lambda: np.exp(ln_z))

    # -- envelope ----------------------------------------------------------

    def envelope_value(self, r: float) -> float:
        return self._env(r)

    # -- inner integral ----------------------------------------------------

    def _unit_limit(self) -> Tuple[float, float]:
        # I_1(inf) and its error, once per table: the table's last sum plus the mass
        # beyond its last knot.  With zeta = env_1(s) that mass is
        # a * eps**q times the criterion integral below top = env_1(s_end),
        # weighted by (1 - x)**(n-1), x = (zeta/eps)**a <= w = 1/(1+s_end).
        # The weight lies within [1 - (n-1) w, 1]: take the midpoint.  Where
        # that half-width misses the tolerance (small a), subtract the
        # first-order term (n-1) x instead, one more integral below top
        # with exponent q - a; what is left lies within [0, C(n-1, 2) w**2].
        # Top is 1e-20 and less, where f's leading term is as a rule exact
        # to the tolerance: each integral is then that term's closed form,
        # with no shell integrated (_integral_below).
        t = self._table
        if t.limit is None:
            n, tol = self.params.n, self.tol
            scale = self.params.eps**self.q / self.decay
            # the remainder needs only the accuracy of its share of I_1(inf)
            floor = tol.rel * t.last / scale if scale > 0.0 else 0.0
            rest_tol = Tolerance(tol.rel, floor)
            weight = math.exp((t.ln_top - math.log(self.params.eps)) / self.decay)  # 1/(1+s_end)
            try:
                rest = _integral_below(self.f, self.params, t.term, t.ln_top, rest_tol)
                mass, error = scale * rest.value, t.last_error + scale * rest.abs_error
                half = 0.5 * (n - 1) * weight * mass
                value, converged = t.last + mass - half, rest.converged
                if converged and error + half > tol.bound(value):
                    a = 1.0 / self.decay
                    first = _integral_below(self.f, self.params, t.term, t.ln_top, rest_tol, q=self.q - a)
                    linear = (n - 1) * self.params.eps**-a * scale
                    half = 0.25 * (n - 1) * (n - 2) * weight**2 * mass
                    value = t.last + mass - linear * first.value + half
                    error += linear * first.abs_error
                    converged = first.converged
            except CriterionUndecidedError as exc:
                raise CriterionUndecidedError(f"{_NOT_CONVERGED}: {exc}") from None
            error += half
            if not (converged and error <= tol.bound(value)):
                raise CriterionUndecidedError(
                    f"{_NOT_CONVERGED}: I(inf) = {value!r} +- {error!r} at delta = 1, "
                    f"{mass!r} of it beyond the table"
                )
            t.limit = value, error
        return t.limit

    def inner_limit(self) -> float:
        """I(inf), the total source mass over the half line.  Raises
        :class:`CriterionUndecidedError` when it misses the tolerance."""
        return self.delta**self.params.n * self._unit_limit()[0]

    def inner_integral(self, z: float) -> float:
        """I(z): the table's dense output in range, below it the table's
        own rule of the first panel on [0, z] (:meth:`_origin_integral`),
        above it direct quadrature, and the full limit at z = inf."""
        if math.isnan(z):
            raise DomainError(f"z must be a real number, got {z!r}")
        if z <= 0.0:
            return 0.0
        if math.isinf(z):
            return self.inner_limit()
        t = self._table
        if not t.s.size:
            return 0.0
        s = z / self.delta
        if s < t.s[0]:
            return self._origin_integral(z)[0]
        if s <= t.s[-1]:
            return math.exp(self._ln_inner(np.float64(z)))
        above = integrate_intervals(self._source, [self.delta * t.s[-1]], [z], self.tol)
        return self.delta**self.params.n * t.last + float(above.values[0])

    def _origin_integral(self, z: float) -> Tuple[float, bool]:
        """I(z) for 0 < z <= delta * s_0, the table's first knot, and
        whether its error estimate meets the table's tolerance: delta**n
        times the table's rule of its first panel (:func:`_origin_panel`)
        on the six K7 nodes of [0, z/delta] but 0, as the fill takes it on
        [0, s_0]."""
        n = self.params.n
        ln_s = np.log(_panel_nodes(np.array([0.0, z / self.delta]))[0])
        at = lambda: np.exp(ln_s)  # noqa: E731  (where an error names s)
        src = _finite(_exp_source(_ln_source(self.f, self.params, ln_s, np.log1p(np.exp(ln_s)), n), at), at)
        value, error = _origin_panel(src, n)
        return self.delta**n * float(value), bool(error <= self._seg_tol.bound(value))

    def _ln_inner(self, z: np.ndarray) -> np.ndarray:
        # ln I(z) for z > 0: the dense output inside the cache, the
        # limiting power law z**n below it, saturation at I(inf) above it
        t, n = self._table, self.params.n
        s = z / self.delta
        ln_s = np.log(s)
        below = t.ln_i[0] + n * (ln_s - t.ln_s[0])
        out = np.where(s < t.s[0], below, _ln_mass(t.inner(*t.locate(ln_s))))
        if (s > t.s[-1]).any():
            out = np.where(s > t.s[-1], math.log(self._unit_limit()[0]), out)
        return out + n * math.log(self.delta)

    # -- the profile -------------------------------------------------------

    def _outer_array(self, zeta: np.ndarray) -> np.ndarray:
        # |w'(zeta)| = (I(zeta) / zeta**(n-1))**(1/(p-1)) for zeta > 0, in logs
        if not self._table.s.size:
            return np.zeros_like(zeta)
        n, p = self.params.n, self.params.p
        ln_w1 = (self._ln_inner(zeta) - (n - 1) * np.log(zeta)) / (p - 1.0)
        return _exp_checked(ln_w1, "outer integrand", zeta)

    # The outer cache W holds w at the cache knots.  Above the cache I is
    # saturated and below it a power of zeta, so w is closed form there.

    def _w_above(self, r: np.ndarray) -> np.ndarray:
        # w(r) for r at or above the cache: the integral of
        # (I(inf) / zeta**(n-1))**(1/(p-1))
        k = self.decay
        ln_w = math.log(self.inner_limit()) / (self.params.p - 1.0) - k * np.log(r)
        return _exp_checked(ln_w, "profile", r) / k

    def _w_below(self, r: np.ndarray) -> np.ndarray:
        # w(r) - w(z_lo) for r <= z_lo, where I(zeta) = I(z_lo) (zeta/z_lo)**n
        t, n, p = self._table, self.params.n, self.params.p
        z_lo = self.delta * t.s[0]
        beta = p / (p - 1.0)
        ln_scale = (n * math.log(self.delta) + t.ln_i[0] - (n - p) * math.log(z_lo)) / (p - 1.0)
        scale = _exp_checked(np.full(r.shape, ln_scale), "profile", r)
        return scale / beta * (1.0 - (r / z_lo) ** beta)

    def _outer_cache(self) -> Tuple[np.ndarray, bool, float]:
        """W at this profile's knots, whether its fill converged, and the
        summed error of its panels.

        The table's W_1, filled once, on first use, at delta = 1, and
        scaled, with its error, by delta**(p/(p-1)).
        """
        t = self._table
        if t.outer is None:
            t.outer = self.rescaled(1.0)._fill_outer()
        scale = self.delta ** (self.params.p / (self.params.p - 1.0))
        return scale * t.outer.ws, t.outer.converged, scale * t.outer.error

    def _fill_outer(self) -> _OuterFill:
        """The outer cache: one K7 panel per knot interval, with L4 as its
        error estimate, in x = ln zeta, where the integrand is exp(psi),
        psi = (ln I - (n-1) x)/(p-1) + x, summed down from the closed form
        at the last knot; that needs I(inf), so a divergent source raises
        before the panels.  W[0] sums every panel, so their summed error
        bounds that of every W.

        exp(psi) is taken once at each knot, from the table's sums, and at
        the five interior nodes of each interval, which are the table's
        own, on the weights fixed there (:meth:`_UnitTable.interior`), all
        panels in one :func:`~liouville.quadrature._k7` call on slices of
        those arrays.  Panels that miss the tolerance are halved on the
        table's dense output (:func:`~liouville.quadrature._bisect`, which
        starts from their values and estimates), with no new evaluation of
        f.  The integrand values are kept: w between the knots is their
        dense output (:meth:`_on_grid`), but in the intervals halved here.
        """
        t, tol = self._table, self._seg_tol
        tail = self._w_above(self.delta * t.s[-1:])
        ends = self._exp_psi(t.ln_s, t.ln_i)
        inner = self._exp_psi(t.ln_s[:-1] + t.h * _K7_U[1:-1, None], _ln_mass(t.interior()))
        values, errors = _k7(ends[:-1], inner, ends[1:], 0.5 * t.h)
        miss = np.flatnonzero(errors > np.maximum(tol.absolute, tol.rel * np.abs(values)))
        values[miss], errors[miss], _, ok = _bisect(
            self._span_rule(miss), np.zeros(miss.size), np.ones(miss.size), tol, (values[miss], errors[miss])
        )
        halved = np.zeros(values.size, dtype=bool)
        halved[miss] = True
        ws = np.cumsum(np.concatenate((tail, values[::-1])))[::-1]
        return _OuterFill(ws, bool(ok.all()), float(errors.sum()), ends, inner, halved)

    def _exp_psi(self, x: np.ndarray, ln_mass: np.ndarray) -> np.ndarray:
        # the outer integrand exp(psi) at x = ln zeta, one row per node, where
        # ln I_1 is ln_mass; an overflow names zeta at its node, span by span
        p = self.params.p
        psi = ln_mass / (p - 1.0) - self.decay * x + p / (p - 1.0) * math.log(self.delta)
        return _exp_checked(psi.T, "outer integrand", lambda: self.delta * np.exp(x).T).T

    def _span_rule(self, i: np.ndarray):
        # the panel rule of _bisect over the spans [a, b], as fractions, of
        # the knot intervals i: K7 on the table's dense output at all seven
        # nodes, node-major, with no knot search; a span's bits do not
        # depend on the other spans of the call
        t = self._table

        def spans(j, a, b):
            h = t.h[i[j]]
            u = a + (b - a) * _K7_U[:, None]
            fx = self._exp_psi(t.ln_s[i[j]] + h * u, _ln_mass(t.inner(i[j], u)))
            return _k7(fx[0], fx[1:-1], fx[-1], 0.5 * (b - a) * h)

        return spans

    def _outer_spans(self, i: np.ndarray, u0: np.ndarray) -> Tuple[np.ndarray, np.ndarray, bool]:
        """Integrals of |w'| over the spans [u0, 1] of the knot intervals
        i, one K7 panel each on the table's dense output, halved where it
        misses the tolerance (:func:`~liouville.quadrature._bisect`); the
        route of w inside the intervals that the outer fill halved.
        Returns the integrals, their errors and whether every span met the
        tolerance."""
        values, errors, _, ok = _bisect(self._span_rule(i), u0, np.ones(i.size), self._seg_tol)
        return values, errors, bool(ok.all())

    def outer_converged(self) -> bool:
        """Whether every panel that w rests on met its tolerance: those of
        the table fill and of the outer cache fill (which an identically
        zero profile does not need)."""
        t = self._table
        return t.converged and (not t.s.size or self._outer_cache()[1])

    def profile_value(self, r: float) -> float:
        """w(r) = integral_r^inf (I(zeta)/zeta**(n-1))**(1/(p-1)) d zeta,
        by :meth:`values_on_grid`."""
        if math.isnan(r) or r < 0.0:
            raise DomainError(f"radius must be >= 0, got {r!r}")
        return self.values_on_grid([r])[0]

    def values_on_grid(self, radii: Sequence[float]) -> List[float]:
        """Profile values on an increasing grid of radii.

        Inside the cache, w(r) is the outer cache's value at the first
        knot at or above r plus the integral from r to that knot, over the
        span of the knot interval below it: the dense output of the outer
        fill's own seven integrand values there (:meth:`_on_grid`), with
        no quadrature, but in an interval that the fill halved, where it
        is one adaptive panel.  Off the cache w is closed form.  After the
        one-time fill of the outer cache (one panel per knot interval,
        about 2700, shared with every rescaled view), m radii cost m dot
        products of seven values.
        """
        rs = np.array(radii, dtype=float)
        if not rs.size:
            return []
        if np.isnan(rs).any() or (rs < 0.0).any():
            raise DomainError("radii must be >= 0")
        if not (rs[1:] > rs[:-1]).all():
            raise ValueError("radii must be strictly increasing")
        if not self._table.s.size:
            return [0.0] * rs.size
        return self._on_grid(rs)[0].tolist()

    def _on_grid(self, rs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """w at the increasing radii rs >= 0 (for a table that is not
        empty), which of them lie inside the cache, and for those the knot
        interval of their ln s, as the table's knot search would find it.

        Inside the cache w(r) = W[j] + the integral of zeta |w'| in ln zeta
        over the span [u0, 1] of knot interval i = j - 1, j the first knot
        at or above r and u0 the fraction of r in it.  That integral is h
        times the sum of (C_m(1) - C_m(u0)) g_m over the interval's seven
        integrand values g_m, as the outer fill took them, scaled by
        delta**(p/(p-1)) like W.  K7's nodes are symmetric, so C_m(1) -
        C_m(u0) = C_(6-m)(1 - u0): it is :func:`_dense` on the values in
        reverse order at 1 - u0, the same sums that read I_1.  In an
        interval that the fill halved the span is one adaptive panel
        (:meth:`_outer_spans`) instead.  Every sum is elementwise, so a
        radius alone has the bits it has in a grid.
        """
        t = self._table
        ws = self._outer_cache()[0]
        fill = t.outer
        s = rs / self.delta
        out = np.empty_like(rs)
        below, above = s < t.s[0], s > t.s[-1]
        inside = ~(below | above)
        out[below] = ws[0] + self._w_below(rs[below])
        out[above] = self._w_above(rs[above])
        s = s[inside]
        j = np.searchsorted(t.s, s)
        # the gap [s, knot j] is the span [u0, 1] of knot interval j - 1,
        # empty where s is knot j (or rounds onto it in ln s)
        gap = np.flatnonzero(t.s[j] > s)
        i = j[gap] - 1
        u0 = np.maximum((np.log(s[gap]) - t.ln_s[i]) / t.h[i], 0.0)
        keep = u0 < 1.0
        gap, i, u0 = gap[keep], i[keep], u0[keep]
        interval = np.minimum(j, t.s.size - 2)
        interval[gap] = i
        gaps = np.zeros(s.size)
        redo = fill.halved[i]
        if redo.any():
            gaps[gap[redo]] = self._outer_spans(i[redo], u0[redo])[0]
            gap, i, u0 = gap[~redo], i[~redo], u0[~redo]
        span = _dense((fill.ends[i + 1], *fill.inner[::-1, i], fill.ends[i]), 1.0 - u0)
        span *= t.h[i]
        span *= self.delta ** (self.params.p / (self.params.p - 1.0))
        gaps[gap] = span
        out[inside] = ws[j] + gaps
        return out, inside, interval

    def _sample(self, unit_radii: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """w and |w'| at the radii delta * unit_radii (increasing, > 0).

        Read at delta = 1 once per table and scaled, as scaling is exact:
        w_delta(r) = delta**(p/(p-1)) * w_1(r/delta) and |w_delta'(r)| =
        delta**(1/(p-1)) * |w_1'(r/delta)|.  w is :meth:`_on_grid`, as
        :meth:`values_on_grid` reads it: inside the cache the dense output
        of the outer fill's own nodes, with no quadrature but in the
        intervals that the fill halved.  |w'| is (I/r**(n-1))**(1/(p-1))
        with I the dense output of the interval that :meth:`_on_grid`
        found, so no knot search, bit for bit what :meth:`_outer_array`
        gives; off the cache it is :meth:`_outer_array`.  The table keeps the sample of the last
        array passed, by identity, so callers pass one read-only array.
        """
        t, n, p = self._table, self.params.n, self.params.p
        if t.sample is None or t.sample[0] is not unit_radii:
            unit = self.rescaled(1.0)
            if not t.s.size:
                w = dw = np.zeros(unit_radii.size)
            else:
                w, inside, i = unit._on_grid(unit_radii)
                dw = np.empty_like(w)
                r = unit_radii[inside]
                x = np.log(r)
                ln_w1 = (_ln_mass(t.inner(*t.locate(x, i))) - (n - 1) * x) / (p - 1.0)
                dw[inside] = _exp_checked(ln_w1, "outer integrand", r)
                if not inside.all():
                    dw[~inside] = unit._outer_array(unit_radii[~inside])
            t.sample = unit_radii, w, dw
        _, w, dw = t.sample
        return self.delta ** (p / (p - 1.0)) * w, self.delta ** (1.0 / (p - 1.0)) * dw

    def _sup(self) -> Tuple[float, float]:
        # sup w = w(0), closed form below the cache's first knot, and the
        # summed error of the outer fill's panels, all of which it sums
        if not self._table.s.size:
            return 0.0, 0.0
        ws, _, error = self._outer_cache()
        return float(ws[0] + self._w_below(np.zeros(1))[0]), error

    def gradient_magnitude(self, r: float) -> float:
        """|w'(r)| = (I(r)/r**(n-1))**(1/(p-1)) for r > 0."""
        if math.isnan(r) or r <= 0.0:
            raise DomainError(f"radius must be > 0, got {r!r}")
        return float(self._outer_array(np.float64(r)))

    def criterion_result(self) -> QuadratureResult:
        """Cached numeric value of the criterion integral of f."""
        t = self._table
        if t.criterion is None:
            t.criterion = criterion_value(self.f, self.params, self.tol)
        return t.criterion


def sup_profile(profile: RadialProfile) -> float:
    """sup w = w(0), the profile's maximal value, in closed form off the
    outer cache."""
    return profile._sup()[0]


def change_of_variables_check(profile: RadialProfile) -> Tuple[QuadratureResult, QuadratureResult]:
    """Two computations of the same number that must agree.

    The source mass over the half line equals, after substituting the
    envelope value as the integration variable, a weighted integral of
    f over (0, eps] with an explicit algebraic weight.  Both sides are
    computed at the profile's tolerance and returned so callers can
    compare at their own.  Exercises the envelope, the source term, and
    the quadrature engine along two completely different routes.
    """
    tol = profile.tol
    params = profile.params
    n, eps = params.n, params.eps
    delta = profile.delta
    a = (params.p - 1.0) / (params.n - params.p)
    f = profile.f

    direct = integrate_to_infinity(profile._source, 0.0, tol)

    ln_eps = math.log(eps)

    def transformed_integrand(zeta: np.ndarray) -> np.ndarray:
        ln_zeta = np.log(zeta)
        t = a * (ln_eps - ln_zeta)
        with np.errstate(divide="ignore", invalid="ignore"):
            lex = np.where(t >= 700.0, t, np.log(np.expm1(np.minimum(t, 700.0))))
        out = (n - 1) * lex + (a + 1.0) / a * t + _ln_f(f, ln_zeta, zeta)
        return _exp_checked(np.where(t > 0.0, out, -np.inf), "transformed integrand", zeta)

    raw = integrate(transformed_integrand, 0.0, eps, tol)
    factor = a * delta**n / eps
    transformed = QuadratureResult(
        factor * raw.value, factor * raw.abs_error, raw.subdivisions, raw.converged
    )
    return direct, transformed


def decay_bound(profile: RadialProfile, r: float) -> float:
    """Closed-form upper bound C * r**-k for the profile at radius r.

    The constant is fully explicit,

        C = a * (a * delta**n * eps**q * K)**(1/(p-1)),
        a = (p-1)/(n-p),

    where K is the numeric value of the criterion integral of f plus its
    error estimate, so an unconverged value widens the bound; a divergent
    f raises before any bound is produced.  Where a power in it is past
    double range (r**-k of a steep profile), the bound is taken in logs,
    and it is inf only where it exceeds double range itself.
    """
    if math.isnan(r) or r <= 0.0:
        raise DomainError(f"radius must be > 0, got {r!r}")
    params = profile.params
    a = (params.p - 1.0) / (params.n - params.p)
    k = profile.criterion_result()
    mass = k.value + k.abs_error
    try:
        c = a * (a * profile.delta ** params.n * params.eps**profile.q * mass) ** (1.0 / (params.p - 1.0))
        return c * r**-profile.decay
    except OverflowError:  # as a rule r**-k, where C is small: ln C - k ln r
        ln_mass = math.log(a * mass) if mass > 0.0 else -math.inf
    ln_c = (ln_mass + params.n * math.log(profile.delta) + profile.q * math.log(params.eps)) / (params.p - 1.0)
    ln_bound = math.log(a) + ln_c - profile.decay * math.log(r)
    return math.inf if ln_bound > _LOG_MAX else math.exp(ln_bound)


# The delta search halves delta at most _MAX_HALVINGS times.
_MAX_HALVINGS = 60


@dataclass(frozen=True)
class DeltaSearchOptions:
    """Delta search controls: the first candidate ``delta0``, and
    ``assume_convergent``, which skips the classifier gate: for callers
    that have classified f already (the CLI does, with its own
    monotonicity setting), and for nonlinearities the classifier cannot
    decide but the caller trusts."""

    delta0: float = 1.0
    assume_convergent: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta0) and self.delta0 > 0.0):
            raise ValueError(f"delta0 must be finite and positive, got {self.delta0!r}")


def find_delta(
    f: Nonlinearity,
    params: StructureParams,
    opts: Optional[DeltaSearchOptions] = None,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> RadialProfile:
    """Profile at the smallest-effort admissible scale delta0 * 2**-j.

    A candidate is admissible when the envelope dominates the profile at
    every radius.  Two inequalities prove it, with k = (n-p)/(p-1) and
    a = 1/k:

    * sup w = w(0) <= env(delta) = eps * 2**-k.  For r <= delta, w(r) <=
      w(0) <= env(delta) <= env(r), as w and env both decrease.
    * a * I(inf)**(1/(p-1)) <= eps * 2**-k * delta**k.  For r >= delta,
      I(r) <= I(inf) bounds w(r) by a * I(inf)**(1/(p-1)) * r**-k, while
      env(r) >= eps * 2**-k * (delta/r)**k.

    Each is tested on the computed number plus its error: w(0) plus the
    summed error estimate of the outer cache fill's panels, which w(0)
    sums, and I(inf) plus its error (the table fill's summed error and
    that of the mass beyond the table).  So the certificate holds up to
    those two errors as estimated, with I between the table's knots
    taken as the dense output of its panels.  It uses the measured source limit
    I(inf), not the looser closed-form criterion constant, which can
    reject scales that are in fact admissible.

    One profile is built, at delta0: at delta = c * delta0 the profile
    is exactly c**(p/(p-1)) * w(r/c) and the source limit c**n * I(inf),
    and so are their errors, so every candidate is tested on scaled
    numbers: w(0), in closed form off the profile's outer cache, and
    I(inf) are read once, at delta0.  The accepted profile is returned
    (:meth:`RadialProfile.rescaled`); it shares that cache, so callers
    read the scale from its ``delta`` and neither build nor fill
    anything again.

    Unless ``opts.assume_convergent`` is set, f is first classified, for
    the verdict only (``ClassifyOptions(value=False)``: the search reads
    I(inf), not the criterion value).  Divergent f raises
    :class:`DivergentIntegralError`, and an undecided verdict
    :class:`CriterionUndecidedError`.
    """
    opts = opts or DeltaSearchOptions()

    if not opts.assume_convergent:
        verdict = classify(f, params, ClassifyOptions(value=False), tol)
        if verdict.verdict is Verdict.DIVERGES:
            raise DivergentIntegralError(
                "the criterion integral diverges: only the zero solution exists, "
                f"no scale can work ({verdict.detail})"
            )
        if verdict.verdict is Verdict.INCONCLUSIVE:
            raise CriterionUndecidedError(
                "cannot certify convergence of the criterion integral; "
                f"set assume_convergent to search anyway ({verdict.detail})"
            )

    n, p = params.n, params.p
    k = (n - p) / (p - 1.0)
    a = (p - 1.0) / (n - p)
    threshold = params.eps * 2.0**-k
    last_report = ""

    prof = RadialProfile(f, params, opts.delta0, tol)
    # w(0) and I(inf) at delta0, each plus its error
    sup_w0 = sum(prof._sup())
    limit = opts.delta0**n * sum(prof._unit_limit())

    for j in range(_MAX_HALVINGS + 1):
        c = 2.0**-j
        delta = opts.delta0 * c
        sup_w = c ** (p / (p - 1.0)) * sup_w0
        tail_coeff = a * (c**n * limit) ** (1.0 / (p - 1.0))
        if sup_w <= threshold and tail_coeff <= threshold * delta**k:
            return prof.rescaled(delta)
        last_report = (
            f"delta={delta!r}: sup w + error {sup_w:.6e} vs {threshold:.6e}, "
            f"tail coeff {tail_coeff:.6e} vs {threshold * delta**k:.6e}"
        )

    raise DeltaSearchError(
        f"no admissible scale within {_MAX_HALVINGS} halvings of "
        f"{opts.delta0!r}; last candidate: {last_report}"
    )

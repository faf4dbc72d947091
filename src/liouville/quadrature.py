"""Globally adaptive quadrature on a nested pair of open rules.

Three entry points: :func:`integrate` over one interval,
:func:`integrate_intervals` over many intervals at once, and
:func:`integrate_to_infinity` over a tail.

The workhorse is a 15-node interpolatory rule of Fejer's second kind
whose odd-indexed nodes form the embedded 7-node rule of the same
family.  Both rules are open (they never evaluate the endpoints), so
integrable endpoint singularities such as ``x**-0.5`` are handled by
bisection alone, without special-casing.

A second, closed pair serves callers that tile a smooth, non-negative
integrand with panels between fixed knots (the profile caches of
:mod:`liouville.construct`, the energy check of :mod:`liouville.verify`):
the 7-point Kronrod extension K7 of the 4-point Lobatto rule L4 (Gander
and Gautschi, BIT 40, 2000), whose end nodes are the panel's ends.  A
knot's value then serves both panels it bounds, so each panel costs five
new nodes, not fifteen.  These panels go through :func:`_k7`, on
node-major data: the end values of all panels as two arrays and their
interior values as five rows.  Its sums are fixed sequences of
elementwise operations over the mirrored node pairs, so they cost no
per-panel reduction and no copy of the block into one array.  Such
callers evaluate the ends only at knots where the integrand is smooth,
and hand a panel whose estimate misses to :func:`integrate_intervals`.

Error estimation follows the classic damping recipe: the raw
``|high - low|`` difference is tempered by the scale of the integrand's
oscillation on the panel, so smooth panels are not absurdly optimistic
and rough panels are not punished twice.

Subdivision is globally adaptive: the panel with the largest error
estimate is split first.  Panels that reach the depth cap (or that are
too narrow, in floating point, for their halves to have distinct nodes)
are moved to a locked pool; the loop stops when the combined error of
active and locked panels meets the tolerance, when nothing splittable
remains, or when the locked pool alone already exceeds the tolerance
and further work is pointless.  The ``converged`` flag reports honestly
which of these happened.

:func:`integrate_intervals` applies the same rule and the same damped
estimate to many fixed intervals at once, one panel each, as numpy
array operations over blocks of panels with one vectorized integrand
call per block.  Only the intervals whose estimate misses the tolerance
are redone, one by one, by the scalar adaptive :func:`integrate`.  The
Fejer rule's sums over a block are einsum reductions (:func:`_rule`),
which sum each row on its own; :func:`_k7` sums elementwise.  Either
way a panel's value does not depend on the panels that share its
block: a panel redone alone, or a dyadic shell next to other shells,
gets the same bits.  A BLAS product (``@``, ``np.dot``) is faster but,
under OpenBLAS, sums a row in an order that depends on the rest of the
block.
Dyadic shells (in :mod:`liouville.criterion`, in v = ln(1/zeta) and as
log-values) are refined together, level by level, each level one such
array pass (see :func:`_bisect`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .errors import QuadratureError

__all__ = [
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "QuadratureResult",
    "PanelResults",
    "integrate",
    "integrate_intervals",
    "integrate_to_infinity",
]

_EPS = sys.float_info.epsilon
_NARROW = 256 * _EPS


@dataclass(frozen=True, slots=True)
class Tolerance:
    """Requested accuracy: ``max(absolute, rel * |value|)``.

    Both knobs are explicit; the engine itself has no hidden accuracy
    defaults.  Module users who want the stock setting pass
    :data:`DEFAULT_TOLERANCE`.
    """

    rel: float = 1e-10
    absolute: float = 1e-14

    def __post_init__(self) -> None:
        for name in ("rel", "absolute"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be a finite non-negative number, got {v!r}")
        if self.rel == 0 and self.absolute == 0:
            raise ValueError("rel and absolute cannot both be zero")

    def bound(self, value: float) -> float:
        return max(self.absolute, self.rel * abs(value))


DEFAULT_TOLERANCE = Tolerance()


@dataclass(frozen=True, slots=True)
class QuadratureResult:
    """Value with an error estimate and an honest convergence flag.

    ``converged`` is False whenever the estimate could not be certified
    below tolerance, even if the value itself happens to be accurate.
    ``subdivisions`` counts evaluated panels.
    """

    value: float
    abs_error: float
    subdivisions: int
    converged: bool


def _fejer2(n: int) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    # Nodes cos(k pi / n), k = 1 .. n-1, with the standard closed-form
    # weights (Waldvogel's formula).  Endpoint abscissae are excluded.
    nodes: List[float] = []
    weights: List[float] = []
    for k in range(1, n):
        theta = k * math.pi / n
        s = 0.0
        for m in range(1, n // 2 + 1):
            s += math.sin((2 * m - 1) * theta) / (2 * m - 1)
        nodes.append(math.cos(theta))
        weights.append(4.0 / n * math.sin(theta) * s)
    return tuple(nodes), tuple(weights)


_X_HIGH, _W_HIGH = _fejer2(16)
_W_LOW = _fejer2(8)[1]
# odd-indexed high nodes coincide with the 7 low-rule nodes
_LOW_AT = (1, 3, 5, 7, 9, 11, 13)


def _panel(g: Callable[[float], float], a: float, b: float) -> Tuple[float, float]:
    """High-rule value and damped error estimate for one panel."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fx: List[float] = []
    for x in _X_HIGH:
        t = c + h * x
        v = g(t)
        if not math.isfinite(v):
            raise QuadratureError(f"integrand returned {v!r} at x={t!r}")
        fx.append(v)
    high = h * math.fsum(w * v for w, v in zip(_W_HIGH, fx))
    low = h * math.fsum(w * fx[i] for w, i in zip(_W_LOW, _LOW_AT))
    resabs = h * math.fsum(w * abs(v) for w, v in zip(_W_HIGH, fx))
    mean = high / (b - a)
    resasc = h * math.fsum(w * abs(v - mean) for w, v in zip(_W_HIGH, fx))
    err = abs(high - low)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * _EPS * resabs)
    return high, err


def integrate(
    g: Callable[[float], float],
    a: float,
    b: float,
    tol: Tolerance = DEFAULT_TOLERANCE,
    max_intervals: int = 1_000_000,
) -> QuadratureResult:
    """Adaptively integrate ``g`` over the finite interval ``[a, b]``.

    The endpoints themselves are never evaluated.  A NaN or infinity at
    any interior node raises :class:`QuadratureError` immediately.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integrate requires finite endpoints; use integrate_to_infinity")
    if b <= a:
        if b == a:
            return QuadratureResult(0.0, 0.0, 0, True)
        raise ValueError(f"empty interval: a={a!r} > b={b!r}")

    v0, e0 = _panel(g, a, b)
    # heap entries: (-err, serial, a, b, value, err, depth)
    active: list = [(-e0, 0, a, b, v0, e0, 0)]
    locked: List[Tuple[float, float]] = []
    act_v, act_e = v0, e0
    lok_v, lok_e = 0.0, 0.0
    count = 1
    serial = 1
    converged = False

    while True:
        total = act_v + lok_v
        eps_now = tol.bound(total)
        if act_e + lok_e <= eps_now:
            # The running sums drift once large panel errors are taken
            # out of them: accept only what exact sums confirm.
            act_v = math.fsum(item[4] for item in active)
            act_e = math.fsum(item[5] for item in active)
            lok_v = math.fsum(v for v, _ in locked)
            lok_e = math.fsum(e for _, e in locked)
            total = act_v + lok_v
            eps_now = tol.bound(total)
            if act_e + lok_e <= eps_now:
                converged = True
                break
        if not active or lok_e > eps_now or count + 2 > max_intervals:
            break
        _, _, pa, pb, pv, pe, depth = heappop(active)
        act_v -= pv
        act_e -= pe
        m = 0.5 * (pa + pb)
        # Halves narrower than about 128 ulps would evaluate coinciding
        # nodes, which may land on a point singularity.
        if depth >= _MAX_LEVEL or m <= pa or m >= pb or pb - pa <= _NARROW * max(abs(pa), abs(pb)):
            locked.append((pv, pe))
            lok_v += pv
            lok_e += pe
            continue
        v1, e1 = _panel(g, pa, m)
        v2, e2 = _panel(g, m, pb)
        count += 2
        heappush(active, (-e1, serial, pa, m, v1, e1, depth + 1))
        serial += 1
        heappush(active, (-e2, serial, m, pb, v2, e2, depth + 1))
        serial += 1
        act_v += v1 + v2
        act_e += e1 + e2

    value = math.fsum([item[4] for item in active] + [v for v, _ in locked])
    error = math.fsum([item[5] for item in active] + [e for _, e in locked])
    return QuadratureResult(value, error, count, converged)


@dataclass(frozen=True, slots=True)
class PanelResults:
    """Per-interval outcome of :func:`integrate_intervals`.

    ``values[i]`` and ``abs_errors[i]`` belong to the interval
    ``[lo[i], hi[i]]``.  ``fallbacks`` counts the intervals that
    the batched rule could not certify and the scalar :func:`integrate`
    redid; ``converged`` is False when any of those redone intervals did
    not converge either.
    """

    values: np.ndarray
    abs_errors: np.ndarray
    fallbacks: int
    converged: bool


_XA_HIGH = np.array(_X_HIGH)
# the high rule (row 0) and the embedded low rule (row 1) at the 15 nodes
_WA_PAIR = np.zeros((2, _XA_HIGH.size))
_WA_PAIR[0] = _W_HIGH
_WA_PAIR[1, list(_LOW_AT)] = _W_LOW
# Panels per array pass: large enough to amortize numpy call overhead,
# small enough that the temporaries stay in cache and out of peak memory.
_CHUNK = 256
# Bisection levels of the dyadic shells, the depth cap of integrate, and
# the most open panels of one pass; beyond either, integrate takes over.
_MAX_LEVEL = 60
_MAX_PANELS = 1 << 16


# The Lobatto-Kronrod pair of Gander and Gautschi, "Adaptive quadrature -
# revisited", BIT 40 (2000): the 7-point Kronrod extension K7 (degree 9)
# of the 4-point Lobatto rule L4 (degree 5).  Both are closed: their nodes
# +-1 are the panel's ends, shared with its neighbours.
_XA_K7 = np.array(
    [-1.0, -math.sqrt(2.0 / 3.0), -1.0 / math.sqrt(5.0), 0.0, 1.0 / math.sqrt(5.0), math.sqrt(2.0 / 3.0), 1.0]
)
_WA_K7L4 = np.array(
    [
        [11.0 / 210.0, 72.0 / 245.0, 125.0 / 294.0, 16.0 / 35.0, 125.0 / 294.0, 72.0 / 245.0, 11.0 / 210.0],
        [1.0 / 6.0, 0.0, 5.0 / 6.0, 0.0, 5.0 / 6.0, 0.0, 1.0 / 6.0],
    ]
)


def _nodes(a: np.ndarray, b: np.ndarray, x: np.ndarray = _XA_HIGH) -> np.ndarray:
    """The nodes ``x`` (on [-1, 1]; the 15 of the Fejer rule by default)
    of each panel ``[a[i], b[i]]``, one panel per row."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    return c[:, None] + h[:, None] * x


def _panels(
    g_vec: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Array form of :func:`_panel` for the panels ``[a[i], b[i]]``."""
    if a.size > _CHUNK:
        cut = range(_CHUNK, a.size, _CHUNK)
        parts = [_panels(g_vec, x, y) for x, y in zip(np.split(a, cut), np.split(b, cut))]
        return tuple(np.concatenate(x) for x in zip(*parts))
    x = _nodes(a, b)
    fx = np.asarray(g_vec(x), dtype=float)
    if fx.shape != x.shape:
        raise ValueError(f"g_vec returned shape {fx.shape}, expected {x.shape}")
    return _rule(_finite(fx, x), 0.5 * (b - a), b - a)


def _finite(fx: np.ndarray, at) -> np.ndarray:
    """``fx``, the integrand values at the abscissae ``at`` (or at what a
    callable ``at`` builds, for the message only); the first NaN or
    infinity raises :class:`QuadratureError`."""
    ok = np.isfinite(fx)
    if not ok.all():
        i = np.flatnonzero(~ok)[0]
        at = at() if callable(at) else at
        raise QuadratureError(f"integrand returned {float(fx.flat[i])!r} at x={float(at.flat[i])!r}")
    return fx


def _rule(fx: np.ndarray, h: np.ndarray, width: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """High-rule values and damped error estimates of the Fejer pair for
    panels of half-width ``h`` (and width ``width``) from their integrand
    values ``fx`` at the 15 nodes ``_XA_HIGH``, one panel per row.

    Each sum is an einsum, which reduces every row on its own: a panel's
    bits do not depend on the other rows of its block (see the module
    docstring)."""
    pair = np.einsum("ij,kj->ik", fx, _WA_PAIR)
    high = h * pair[:, 0]
    low = h * pair[:, 1]
    resabs = h * np.einsum("ij,j->i", np.abs(fx), _WA_PAIR[0])
    mean = high / width
    resasc = h * np.einsum("ij,j->i", np.abs(fx - mean[:, None]), _WA_PAIR[0])
    err = np.abs(high - low)
    damp = (resasc != 0.0) & (err != 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        damped = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.maximum(np.where(damp, damped, err), 50.0 * _EPS * resabs)
    return high, err


# K7's weights at the end pair, the pairs +-sqrt(2/3) and +-1/sqrt(5), and
# the centre; L4's at the end pair and at +-1/sqrt(5)
_K7_W = _WA_K7L4[0, :4].tolist()
_L4_W = _WA_K7L4[1, [0, 2]].tolist()


def _k7(f0: np.ndarray, inner: np.ndarray, f6: np.ndarray, h: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """K7 values and damped L4 error estimates of panels of half-width
    ``h``, from their integrand values: ``f0`` and ``f6`` at the left and
    right ends, ``inner`` (one row per node, one column per panel) at the
    five interior nodes ``_XA_K7[1:-1]``.

    The estimate is that of :func:`_rule` for the pair ``_WA_K7L4``, for
    an integrand that is not negative: the mean is the rule's sum over
    [-1, 1] halved, and the floor 50 eps times the value.  Every sum is a
    fixed sequence of elementwise operations over the mirrored node pairs,
    so a panel's bits do not depend on the other panels of its block."""
    w0, w1, w2, w3 = _K7_W
    l0, l2 = _L4_W
    ends, mid = f0 + f6, inner[1] + inner[3]
    s = w0 * ends + w1 * (inner[0] + inner[4]) + w2 * mid + w3 * inner[2]
    mean = 0.5 * s
    dev = np.abs(inner - mean)
    asc = w0 * (np.abs(f0 - mean) + np.abs(f6 - mean)) + w1 * (dev[0] + dev[4]) + w2 * (dev[1] + dev[3]) + w3 * dev[2]
    # r = min(1, 200 |K7 - L4| / asc), 0 where asc = 0: all seven values
    # are the mean there, and |K7 - L4|, a few ulps of it, is below the floor
    r = np.minimum(200.0 * np.abs(s - (l0 * ends + l2 * mid)), asc)
    np.divide(r, asc, out=r, where=asc > 0.0)
    return h * s, h * np.maximum(r * np.sqrt(r) * asc, 50.0 * _EPS * s)


def _bisect(
    g_vec: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    tol: Tolerance,
    levels: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Integrals over the intervals ``[lo[i], hi[i]]``, all at once.

    An interval is done once its summed error is within ``tol.bound`` of
    its summed value, as in :func:`integrate`.  Up to ``levels`` times,
    each panel of an open interval whose error exceeds an even share of
    that bound is halved, and all new panels are evaluated together.
    Intervals still open then (or when no panel can be halved, or more
    than ``_MAX_PANELS`` panels are open) are redone by the scalar
    :func:`integrate`.  An empty interval gives 0.  Returns per interval
    the value, error, panel count and convergence flag, and the number
    redone.
    """
    n = lo.size
    values, errors, converged = np.zeros(n), np.zeros(n), np.ones(n, dtype=bool)
    own = np.flatnonzero(hi > lo)
    a, b = lo[own], hi[own]
    v, e = _panels(g_vec, a, b) if own.size else (a, b)
    panels = np.bincount(own, minlength=n)
    for level in range(levels + 1):
        tv = np.bincount(own, weights=v, minlength=n)
        te = np.bincount(own, weights=e, minlength=n)
        bound = np.maximum(tol.absolute, tol.rel * np.abs(tv))
        ok = (te <= bound)[own]
        values[own[ok]], errors[own[ok]] = tv[own[ok]], te[own[ok]]
        a, b, own, v, e = a[~ok], b[~ok], own[~ok], v[~ok], e[~ok]
        m = 0.5 * (a + b)
        split = (e * np.bincount(own, minlength=n)[own] > bound[own]) & (m > a) & (m < b)
        if level == levels or not split.any() or own.size > _MAX_PANELS:
            break
        k, keep = own.size - int(split.sum()), ~split  # the halves go after the k kept panels
        a = np.concatenate((a[keep], a[split], m[split]))
        b = np.concatenate((b[keep], m[split], b[split]))
        own = np.concatenate((own[keep], own[split], own[split]))
        v, e = (np.concatenate((x[keep], y)) for x, y in zip((v, e), _panels(g_vec, a[k:], b[k:])))
        panels += np.bincount(own[k:], minlength=n)
    redo = np.flatnonzero(np.bincount(own, minlength=n))  # np.unique would import numpy.ma
    for i in redo:
        res = integrate(lambda t: float(g_vec(np.array([t]))[0]), float(lo[i]), float(hi[i]), tol)
        values[i], errors[i], converged[i] = res.value, res.abs_error, res.converged
        panels[i] += res.subdivisions
    return values, errors, panels, converged, int(redo.size)


def integrate_intervals(
    g_vec: Callable[[np.ndarray], np.ndarray],
    lo: Sequence[float],
    hi: Sequence[float],
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> PanelResults:
    """One panel over each interval ``[lo[i], hi[i]]``, all at once.

    ``g_vec`` maps an array of abscissae (of any shape) to the integrand
    values, elementwise.  Every interval gets the rule and the damped
    error estimate of a single :func:`integrate` step, computed with
    array operations over blocks of intervals; an interval whose
    estimate exceeds ``tol.bound`` of its value is redone by
    :func:`integrate` on a scalar view of ``g_vec``.  The intervals may
    overlap; one of zero width integrates to 0 without evaluating
    ``g_vec``.  The ends themselves are never evaluated.  A NaN or
    infinity at any node raises :class:`QuadratureError`.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError("lo and hi must be flat sequences of equal length")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("interval ends must be finite")
    if not np.all(hi >= lo):
        raise ValueError("intervals must have hi >= lo")
    values, errors, _, converged, redone = _bisect(g_vec, lo, hi, tol, levels=0)
    return PanelResults(values, errors, redone, bool(converged.all()))


def integrate_to_infinity(
    g: Callable[[float], float],
    a: float,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> QuadratureResult:
    """Integrate ``g`` over ``[a, infinity)``.

    Uses the rational substitution t = 1/(1 + x - a), which maps the
    tail onto (0, 1] and keeps polynomially decaying integrands tame.
    Divergent tails show up as ``converged=False`` with a large error
    estimate rather than as an exception, because the transform cannot
    tell slow convergence from divergence; callers that need a hard
    verdict should consult the classifier first.
    """
    if not math.isfinite(a):
        raise ValueError("lower limit must be finite")

    def h(t: float) -> float:
        x = a + 1.0 / t - 1.0
        gv = g(x)
        if gv == 0.0:
            return 0.0
        return gv / (t * t)

    return integrate(h, 0.0, 1.0, tol)


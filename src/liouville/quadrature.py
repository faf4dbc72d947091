"""Globally adaptive quadrature on a nested pair of open rules.

The workhorse is a 15-node interpolatory rule of Fejer's second kind
whose odd-indexed nodes form the embedded 7-node rule of the same
family.  Both rules are open (they never evaluate the endpoints), so
integrable endpoint singularities such as ``x**-0.5`` are handled by
bisection alone, without special-casing.

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

:func:`integrate_panels` applies the same rule and the same damped
estimate to many fixed panels at once, as numpy array operations over
blocks of panels with one vectorized integrand call per block.  Only
the panels whose estimate misses the tolerance are redone, one by one,
by the scalar adaptive :func:`integrate`.  :func:`integrate_segments`
builds on it: integrals over consecutive segments, each cut into
panels at given break points.  The dyadic shells are refined together,
level by level, each level one such array pass (see :func:`_bisect`).
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
    "integrate_panels",
    "integrate_segments",
    "integrate_to_infinity",
    "dyadic_shell_integrals",
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
    """Per-panel outcome of :func:`integrate_panels`.

    ``values[i]`` and ``abs_errors[i]`` belong to the panel
    ``[edges[i], edges[i + 1]]``.  ``fallbacks`` counts the panels that
    the batched rule could not certify and the scalar :func:`integrate`
    redid; ``converged`` is False when any of those redone panels did
    not converge either.
    """

    values: np.ndarray
    abs_errors: np.ndarray
    fallbacks: int
    converged: bool


_XA_HIGH = np.array(_X_HIGH)
_WA_HIGH = np.array(_W_HIGH)
_WA_LOW = np.array(_W_LOW)
_IA_LOW = np.array(_LOW_AT)
# Panels per array pass: large enough to amortize numpy call overhead,
# small enough that the temporaries stay in cache and out of peak memory.
_CHUNK = 256
# Bisection levels of the dyadic shells, the depth cap of integrate, and
# the most open panels of one pass; beyond either, integrate takes over.
_MAX_LEVEL = 60
_MAX_PANELS = 1 << 16


def _panels(
    g_vec: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Array form of :func:`_panel` for the panels ``[a[i], b[i]]``."""
    if a.size > _CHUNK:
        cut = range(_CHUNK, a.size, _CHUNK)
        parts = [_panels(g_vec, x, y) for x, y in zip(np.split(a, cut), np.split(b, cut))]
        return tuple(np.concatenate(x) for x in zip(*parts))
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = c[:, None] + h[:, None] * _XA_HIGH
    fx = np.asarray(g_vec(x), dtype=float)
    if fx.shape != x.shape:
        raise ValueError(f"g_vec returned shape {fx.shape}, expected {x.shape}")
    bad = np.flatnonzero(~np.isfinite(fx))
    if bad.size:
        i = bad[0]
        raise QuadratureError(f"integrand returned {float(fx.flat[i])!r} at x={float(x.flat[i])!r}")
    high = h * (fx * _WA_HIGH).sum(axis=1)
    low = h * (fx[:, _IA_LOW] * _WA_LOW).sum(axis=1)
    resabs = h * (np.abs(fx) * _WA_HIGH).sum(axis=1)
    mean = high / (b - a)
    resasc = h * (np.abs(fx - mean[:, None]) * _WA_HIGH).sum(axis=1)
    err = np.abs(high - low)
    damp = (resasc != 0.0) & (err != 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        damped = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.maximum(np.where(damp, damped, err), 50.0 * _EPS * resabs)
    return high, err


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


def integrate_panels(
    g_vec: Callable[[np.ndarray], np.ndarray],
    edges: Sequence[float],
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> PanelResults:
    """Integrate over each panel ``[edges[i], edges[i + 1]]`` at once.

    ``g_vec`` maps an array of abscissae (of any shape) to the integrand
    values, elementwise.  Every panel gets the rule and the damped error
    estimate of a single :func:`integrate` step, computed with array
    operations over blocks of panels; a panel whose estimate exceeds
    ``tol.bound`` of its value is redone by :func:`integrate` on a
    scalar view of ``g_vec``.  The edges themselves are never
    evaluated.  A NaN or infinity at any node raises
    :class:`QuadratureError`.
    """
    e = np.asarray(edges, dtype=float)
    if e.ndim != 1 or e.size < 2:
        raise ValueError("need a flat sequence of at least two edges")
    if not np.all(np.isfinite(e)):
        raise ValueError("panel edges must be finite")
    if not np.all(e[1:] > e[:-1]):
        raise ValueError("panel edges must be strictly increasing")
    values, errors, _, converged, redone = _bisect(g_vec, e[:-1], e[1:], tol, levels=0)
    return PanelResults(values, errors, redone, bool(converged.all()))


def integrate_segments(
    g_vec: Callable[[np.ndarray], np.ndarray],
    bounds: Sequence[float],
    breaks: Sequence[float],
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> Tuple[np.ndarray, PanelResults]:
    """Integrals of ``g_vec`` over ``[bounds[i], bounds[i + 1]]`` for each i.

    Every segment is cut at the ``breaks`` inside it (points where the
    integrand is not smooth), all pieces are integrated in one
    :func:`integrate_panels` pass, and the pieces are summed per
    segment.  ``bounds`` must be non-decreasing; a segment of zero
    width integrates to 0.  Returns the sums and the per-piece results.
    """
    bounds = np.asarray(bounds, dtype=float)
    breaks = np.asarray(breaks, dtype=float)
    inner = breaks[(breaks > bounds[0]) & (breaks < bounds[-1])]
    # sort and drop repeats by hand: np.union1d would import numpy.ma
    edges = np.sort(np.concatenate((bounds, inner)))
    edges = edges[np.concatenate(([True], edges[1:] > edges[:-1]))]
    pieces = integrate_panels(g_vec, edges, tol)
    segment = np.searchsorted(bounds, edges[:-1], side="right") - 1
    sums = np.bincount(segment, weights=pieces.values, minlength=bounds.size - 1)
    return sums, pieces


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


def _dyadic_shells(
    g_vec: Callable[[np.ndarray], np.ndarray],
    eps: float,
    count: int,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> List[QuadratureResult]:
    # the shells of dyadic_shell_integrals as QuadratureResults, one pass
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    hi = eps * 0.5 ** np.arange(count)
    shells = _bisect(g_vec, 0.5 * hi, hi, tol, _MAX_LEVEL)[:4]
    return [QuadratureResult(*r) for r in zip(*(x.tolist() for x in shells))]


def dyadic_shell_integrals(
    g: Callable[[float], float],
    eps: float,
    count: int,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> List[float]:
    """Integrals of ``g`` over the shells (eps/2^(k+1), eps/2^k].

    Returned outermost first, k = 0 .. count-1.  Together the shells
    cover (eps * 2**-count, eps]; summing them and adding a remainder
    over (0, eps * 2**-count] reproduces the integral over (0, eps].
    """
    return [r.value for r in _dyadic_shells(np.vectorize(g, otypes=[float]), eps, count, tol)]

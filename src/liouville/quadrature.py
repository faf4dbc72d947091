"""Adaptive quadrature: one halving engine on nested pairs of rules.

The workhorse is a 15-node interpolatory rule of Fejer's second kind
whose odd-indexed nodes form the embedded 7-node rule of the same
family.  Both rules are open (they never evaluate the endpoints), so
integrable endpoint singularities such as ``x**-0.5`` are handled by
bisection alone, without special-casing.

A second, closed pair serves callers that tile a smooth, non-negative
integrand with panels between fixed knots: the 7-point Kronrod
extension K7 of the 4-point Lobatto rule L4 (Gander and Gautschi, BIT
40, 2000), whose end nodes are the panel's ends.  A knot's value then
serves both panels it bounds, so each panel costs five new nodes, not
fifteen.  These panels go through :func:`_k7`, on node-major data: the
end values of all panels as two arrays and their interior values as
five rows.  Its sums are fixed sequences of elementwise operations over
the mirrored node pairs, so they cost no per-panel reduction and no
copy of the block into one array.  Such callers evaluate the ends only
at knots where the integrand is smooth.  Every such tiling (the
profile's table and outer cache, the energy check) is filled, and its
missed panels redone, by one routine, :func:`liouville.construct._k7_fill`;
the tiling and its dense output are described on the record that the
profile keeps, :class:`liouville.construct._Panels`.

A Fejer panel's error is read off the trailing Chebyshev coefficients
of the degree-14 polynomial through its 15 values (:func:`_rule`): where
they decay geometrically, in Berntsen and Espelid's form ("Error
estimation in automatic quadrature routines", ACM TOMS 17, 1991), from
the last pair and the rate of decay, so a smooth panel is judged by the
15-node rule whose value it keeps; where they do not, as on a singular
panel, by the classic damping recipe, the raw ``|high - low|`` difference
from the embedded 7-node rule tempered by the scale of the integrand's
oscillation on the panel.  A K7 panel is judged likewise by the Legendre
coefficients of the degree-6 polynomial through its seven values
(:func:`_k7`), and by the damped recipe on its Lobatto pair where they do
not decay.  Each Fejer node is placed from its nearer end of the panel
(:func:`_fejer_nodes`), so no rounding of a panel's centre shifts it.

One adaptive loop, :func:`_bisect`, serves every integral: it takes
many intervals at once, one panel each, on the caller's panel rule.
:func:`integrate` (one interval), :func:`integrate_intervals` (many,
such as the dyadic shells of :mod:`liouville.criterion`) and
:func:`integrate_to_infinity` (a tail, mapped onto (0, 1]) run it on
the Fejer pair, with one vectorized integrand call per block of panels;
the K7 tilings run it through :func:`liouville.construct._k7_fill`.
Level by level, the panels of an interval that misses its tolerance
are halved where their error exceeds an even share of it, all of them
in one call of the rule.  A panel no wider than 256 machine epsilons of its
position is not halved: its halves would evaluate coinciding nodes,
which may land on a point singularity and make a divergent panel look
exact.  Nor is a panel narrower than 2**24 machine epsilons of its
position whose last three halvings each left at least half its error in
its two halves: there the estimates are the rounding of the nodes, or a
singularity that halving does not shrink, and halving on would only
multiply panels.  An interval whose panels that cannot be halved
already carry more error than its bound can no longer converge, and
stops there; it comes back with the sums of its panels and
``converged`` False, as does one left open by the depth cap or by the
cap on open panels.  A caller that has valued every interval as one
panel already hands those values in as the first level, so none is
valued twice.

The Fejer rule's sums over a block are einsum reductions (:func:`_rule`),
which sum each row on its own; :func:`_k7` sums elementwise.  Either way
a panel's value does not depend on the panels that share its block: a
panel redone alone, or a dyadic shell next to other shells, gets the
same bits.  A BLAS product (``@``, ``np.dot``) is faster but, under
OpenBLAS, sums a row in an order that depends on the rest of the block.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ._record import Record, tuple_record
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
_ULP_MIN = math.ulp(0.0)  # the least subnormal
# _bisect halves no panel narrower than this, relative to its position
_NARROW = 256 * _EPS


class Tolerance(Record):
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
            if isinstance(v, bool) or not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be a finite non-negative number, got {v!r}")
        if self.rel == 0 and self.absolute == 0:
            raise ValueError("rel and absolute cannot both be zero")

    def bound(self, value: float) -> float:
        return max(self.absolute, self.rel * abs(value))


DEFAULT_TOLERANCE = Tolerance()


@tuple_record
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


@tuple_record
class PanelResults:
    """Per-interval outcome of :func:`integrate_intervals`.

    ``values[i]`` and ``abs_errors[i]`` belong to the interval
    ``[lo[i], hi[i]]``.  ``converged`` is False when any interval still
    missed its tolerance after the halvings of :func:`_bisect`.
    """

    values: np.ndarray
    abs_errors: np.ndarray
    converged: bool


_XA_HIGH = np.array(_X_HIGH)
# the high rule (row 0) and the embedded low rule (row 1) at the 15 nodes
_WA_PAIR = np.zeros((2, _XA_HIGH.size))
_WA_PAIR[0] = _W_HIGH
_WA_PAIR[1, list(_LOW_AT)] = _W_LOW
# K and r_crit of the coefficient estimate of _rule
_K, _R_CRIT = 10.0, 0.25
# Panels per array pass: large enough to amortize numpy call overhead,
# small enough that the temporaries stay in cache and out of peak memory.
_CHUNK = 256
# The depth cap of _bisect, and the most open panels of one _bisect pass;
# beyond either, an interval is left unconverged.
_MAX_LEVEL = 60
_MAX_PANELS = 1 << 16
# _bisect halves no panel whose last _STALLS halvings, each of a panel
# narrower than _RESOLVE of its position, left at least half its error in
# the two halves: such a panel spans fewer than 2**24 ulps, so that its
# nodes' offsets keep fewer than 24 bits, and its estimate is as a rule
# the rounding of its nodes, or a singularity that halving does not
# shrink.  No panel is that narrow before level _STALL_LEVEL in an
# interval wider than 2**8 _RESOLVE of its position, so the count starts
# there, and the common loop, a few levels deep, does not pay for it.
_RESOLVE = 2.0**24 * _EPS
_STALL_LEVEL = 8
_STALLS = 3


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


def _nodes(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The nodes ``x`` (on [-1, 1]) of each panel ``[a[i], b[i]]``, one
    panel per row."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    out = h[:, None] * x
    out += c[:, None]
    return out


# a Fejer node's offset from its nearer end of [-1, 1]
_LEFT = _XA_HIGH < 0.0
_OFFSET = np.where(_LEFT, 1.0 + _XA_HIGH, _XA_HIGH - 1.0)


def _fejer_nodes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 15 nodes of the Fejer rule on each panel ``[a[i], b[i]]``, one
    panel per row, each from its nearer end: a + h (1 + x) or b - h (1 - x),
    h the half-width.  Rounding then moves each node by at most half an
    ulp of its own, independently.  Taken from the centre, every node would
    also move by the rounding of the centre: the whole panel shifts, and
    its integral moves by that shift times the difference of the
    integrand's end values, 4.2e-13 of a panel of a deep criterion shell
    of z**30 at n=3, p=2 (its centre near 236, the integrand falling
    e**27-fold per unit)."""
    h = 0.5 * (b - a)
    return np.where(_LEFT, a[:, None], b[:, None]) + h[:, None] * _OFFSET


def _panels(
    g_vec: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """High-rule values and damped error estimates of the Fejer pair for
    the panels ``[a[i], b[i]]`` of the integrand ``g_vec``."""
    if a.size > _CHUNK:
        cut = range(_CHUNK, a.size, _CHUNK)
        parts = [_panels(g_vec, x, y) for x, y in zip(np.split(a, cut), np.split(b, cut))]
        return tuple(np.concatenate(x) for x in zip(*parts))
    x = _fejer_nodes(a, b)
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
    """High-rule values and their error estimates for panels of half-width
    ``h`` (and width ``width``) from their integrand values ``fx`` at the 15
    nodes ``_XA_HIGH``, one panel per row.

    The estimate reads the trailing Chebyshev coefficients c9 .. c14 of the
    panel's interpolant (:func:`_chebyshev`) in pairs, as Berntsen and
    Espelid (ACM TOMS 17, 1991) read pairs of null rules: E1 = |(c13, c14)|,
    E2 = |(c11, c12)| and E3 = |(c9, c10)|, a pair read as 0 where, times
    ``h``, it is within the floor below (there it is the values' rounding).
    Where r = max(E1 / E2, E2 / E3) is below r_crit = ``_R_CRIT`` they decay
    geometrically, and the error is their K r_crit**(1 - alpha) r**alpha h E1
    with alpha = 1 and K = ``_K``: K r h E1.  The rule's error is mostly
    that of T_16, which it integrates wrong by 1/8, and whose coefficient
    is about r E1.  (With alpha = 2, an outer criterion shell of
    ``(z^8.14925+z^9.14925)*exp(z)`` at n=5, p=3 passed at one panel, off by
    1.2e-14 of its value; halved once it is off by 5e-17.)  Where they do
    not decay, as on a singular panel, the estimate is the damped difference
    from the embedded 7-node rule: ``|high - low|`` tempered by the scale of
    the integrand's oscillation on the panel.  Either way it is at least
    the floor, 50 eps times the integral of ``|f|``.  The values are taken
    to be good to their rounding; noise above the floor is the caller's.

    Each sum is an einsum, which reduces every row on its own: a panel's
    bits do not depend on the other rows of its block (see the module
    docstring)."""
    sums = np.einsum("ij,kj->ki", fx, _rule_rows())
    high = h * sums[0]
    resabs = h * np.einsum("ij,j->i", np.abs(fx), _WA_PAIR[0])
    # the floor, 50 eps resabs, is at least 50 ulps of resabs: 50 times the
    # least subnormal, one ulp of any subnormal, where 50 eps resabs
    # underflows; an exact 0 keeps error 0
    floor = np.maximum(50.0 * _EPS * resabs, 50.0 * np.minimum(resabs, _ULP_MIN))
    e3, e2, e1 = e = np.hypot(sums[2::2], sums[3::2])
    e[h * e <= floor] = 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # r = max(E1 / E2, E2 / E3), where 0 / 0, two pairs at the
        # rounding, says nothing and x / 0 is no decay
        r = np.fmax(np.fmax(e1 / e2, e2 / e3), 0.0)
        decay = r < _R_CRIT
        err = _K * h * e1 * r
        if not decay.all():
            # the damped estimate, on the rows that do not decay only
            rows = ~decay if decay.any() else slice(None)
            h, top = h[rows], high[rows]
            resasc = h * np.einsum("ij,j->i", np.abs(fx[rows] - (top / width[rows])[:, None]), _WA_PAIR[0])
            raw = np.abs(top - h * sums[1][rows])
            damped = resasc * np.minimum(1.0, (200.0 * raw / resasc) ** 1.5)
            err[rows] = np.where((resasc != 0.0) & (raw != 0.0), damped, raw)
    return high, np.maximum(err, floor)


@functools.cache
def _rule_rows() -> np.ndarray:
    # the rows that _rule sums each panel's values with: the high and the
    # low rule, then the Chebyshev coefficients c9 .. c14
    rows = np.concatenate((_WA_PAIR, _chebyshev()[9:]))
    rows.flags.writeable = False
    return rows


def _chebyshev() -> np.ndarray:
    """The 15 x 15 matrix that maps a panel's values at the nodes
    ``_XA_HIGH``, x_k = cos(k pi / 16), k = 1 .. 15, to the Chebyshev
    coefficients c0 .. c14 of the polynomial of degree 14 through them
    (one row per coefficient).

    The nodes are the zeros of U_15, on which sin(t) sin((m + 1) t),
    x = cos(t), are orthogonal: the coefficient of U_m is
    b_m = sum_k sin(t_k) sin((m + 1) t_k) f_k / 8, and U_m = 2 (T_m +
    T_(m-2) + ...), its T_0 counted once.  Built in plain Python, once,
    by :func:`_rule_rows`."""
    t = [k * math.pi / 16 for k in range(1, 16)]
    u = [[math.sin(x) * math.sin((m + 1) * x) / 8.0 for x in t] for m in range(15)]
    rows = [[(1.0 if j == 0 else 2.0) * math.fsum(u[m][k] for m in range(j, 15, 2)) for k in range(15)] for j in range(15)]
    return np.array(rows)


# K7's weights at the end pair, the pairs +-sqrt(2/3) and +-1/sqrt(5), and
# the centre; L4's at the end pair and at +-1/sqrt(5)
_K7_W = _WA_K7L4[0, :4].tolist()
_L4_W = _WA_K7L4[1, [0, 2]].tolist()


@functools.cache
def _k7_legendre() -> Tuple[Tuple[float, ...], ...]:
    """The rows that map a K7 panel's values to the Legendre coefficients
    c2, c4 and c6 of the polynomial of degree 6 through them, each on the
    sums of the mirrored pairs of nodes, f0 + f6, f1 + f5 and f2 + f4, and
    on f3: P_k is even for even k.  Solved once, in doubles, from P_k at
    the nodes, by :func:`_k7` on first use."""
    x = _XA_K7.tolist()
    legendre = [[1.0, t] for t in x]
    for k in range(1, 6):
        for row, t in zip(legendre, x):
            row.append(((2 * k + 1) * t * row[k] - k * row[k - 1]) / (k + 1))
    rows = np.linalg.inv(np.array(legendre))
    return tuple(tuple(rows[k, :4].tolist()) for k in (2, 4, 6))


def _k7(
    f0: np.ndarray, inner: np.ndarray, f6: np.ndarray, h: np.ndarray, *, dense: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """K7 values and error estimates of panels of half-width ``h``, from
    their integrand values: ``f0`` and ``f6`` at the left and right ends,
    ``inner`` (one row per node, one column per panel) at the five
    interior nodes ``_XA_K7[1:-1]``.

    The estimate reads K7's own interpolant, as :func:`_rule` reads the
    Fejer rule's: the Legendre coefficients of the polynomial of degree 6
    through the seven values (:func:`_k7_legendre`).  K7 is symmetric, so
    it integrates the odd part of a panel's integrand exactly, as it does
    every odd P_k: its error is that of the even part, whose coefficients
    E3 = |c2|, E2 = |c4| and E1 = |c6| it reads, each as 0 where it is
    within 50 eps of the rule's sum (there it is the values' rounding).
    Where r = max(E1 / E2, E2 / E3) is below r_crit = ``_R_CRIT`` they
    decay geometrically, by r every two degrees, and the error is
    Berntsen and Espelid's K r**alpha h E1, with alpha = 2 and K = ``_K``:
    K7 is exact to degree 9, so its error is mostly that of P_10, which
    it integrates wrong by 0.11, and whose coefficient is about r**2 E1.
    Where they do not decay, the estimate is the damped difference from
    the embedded L4, on those panels only (:func:`_k7_damped`).  Either
    way it is at least the floor, 50 eps times the value, as every
    caller's integrand is not negative.

    With ``dense``, the estimate also covers the panel's dense output, the
    integral of the polynomial over part of the panel, where the odd terms
    no longer cancel: that is mostly off by the P_7 term, which the
    polynomial misses by at most 0.076 of its coefficient over any part,
    and whose coefficient is about sqrt(r) E1; the estimate is at least
    sqrt(r) h E1, 13 times that.

    Every sum is a fixed sequence of elementwise operations over the
    mirrored node pairs, so a panel's bits do not depend on the other
    panels of its block.  K7's sum runs in place, in the order of

        s = w0 (f0 + f6) + w1 (f1 + f5) + w2 (f2 + f4) + w3 f3,

    f1 .. f5 the rows of ``inner``, and each coefficient likewise on the
    same pair sums; IEEE sums and products commute, so this is that
    formula to the last bit."""
    # each pair sum, formed in one buffer, goes into K7's sum and the three
    # coefficients at once, so six buffers of one value per panel serve
    rows = (_K7_W, *_k7_legendre())
    pair, term = np.add(f0, f6), np.empty_like(f0)
    s, c2, c4, c6 = out = [np.multiply(pair, row[0]) for row in rows]
    for m, (j, k) in enumerate(((0, 4), (1, 3), (2, None)), start=1):
        x = inner[j] if k is None else np.add(inner[j], inner[k], out=pair)
        for acc, row in zip(out, rows):
            acc += np.multiply(x, row[m], out=term)
    floor = np.multiply(s, 50.0 * _EPS, out=pair)
    for c in (c2, c4, c6):
        np.abs(c, out=c)
        c[c <= floor] = 0.0
    e3, e2, e1 = c2, c4, c6
    with np.errstate(divide="ignore", invalid="ignore"):
        # r = max(E1 / E2, E2 / E3), where 0 / 0, two coefficients at the
        # rounding, says nothing and x / 0 is no decay
        r = np.divide(e2, e3, out=e3)
        r = np.fmax(np.divide(e1, e2, out=e2), r, out=r)
        np.fmax(r, 0.0, out=r)
        loose = np.flatnonzero(~(r < _R_CRIT))
        # K r**2 E1, or max(K r**2, sqrt(r)) E1 with dense; inf * 0 (no
        # decay) among the loose panels
        err = np.square(r, out=e2)
        err *= _K
        if dense:
            np.fmax(err, np.sqrt(r, out=r), out=err)
        err *= e1
    if loose.size:
        err[loose] = _k7_damped(f0[loose], inner[:, loose], f6[loose], s[loose])
    np.maximum(err, floor, out=err)
    err *= h
    s *= h
    return s, err


def _k7_damped(f0: np.ndarray, inner: np.ndarray, f6: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The damped L4 estimate of :func:`_k7` over [-1, 1], for the panels
    whose values are ``f0``, ``inner`` and ``f6`` and whose K7 sum is
    ``s``: asc min(1, 200 |K7 - L4| / asc)**1.5, asc the K7 sum of the
    deviations |f_m - mean|, a mirrored pair at a time, and 0 where asc =
    0: all seven values are the mean there, and |K7 - L4|, a few ulps of
    it, is below the floor.  x**1.5 is x sqrt(x)."""
    w0, w1, w2, w3 = _K7_W
    l0, l2 = _L4_W
    mean = np.multiply(s, 0.5)
    asc = np.subtract(f0, mean)
    np.abs(asc, out=asc)
    buf, dev = np.subtract(f6, mean), np.empty_like(mean)
    asc += np.abs(buf, out=buf)
    asc *= w0
    for w, (j, k) in ((w1, (0, 4)), (w2, (1, 3))):
        np.abs(np.subtract(inner[j], mean, out=buf), out=buf)
        buf += np.abs(np.subtract(inner[k], mean, out=dev), out=dev)
        buf *= w
        asc += buf
    np.abs(np.subtract(inner[2], mean, out=buf), out=buf)
    buf *= w3
    asc += buf
    l4 = np.add(f0, f6, out=buf)
    l4 *= l0
    l4 += np.multiply(np.add(inner[1], inner[3], out=dev), l2, out=dev)
    r = np.subtract(s, l4, out=l4)
    np.abs(r, out=r)
    r *= 200.0
    np.minimum(r, asc, out=r)
    np.divide(r, asc, out=r, where=asc > 0.0)
    err = np.sqrt(r, out=dev)
    err *= r
    err *= asc
    return err


def _bisect(
    rule: Callable[[np.ndarray, np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]],
    lo: np.ndarray,
    hi: np.ndarray,
    tol: Tolerance,
    first: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Integrals over the intervals ``[lo[i], hi[i]]``, all at once, on
    the panel rule ``rule(own, a, b)``: the values and error estimates of
    the panels ``[a[j], b[j]]`` of the intervals ``own[j]``.

    Each interval starts as one panel, valued by ``rule``, or, where the
    caller has valued every interval as one panel already, by ``first``,
    those values and errors.  An interval is done once its summed error
    is within ``tol.bound`` of its summed value.  Up to ``_MAX_LEVEL``
    times, each panel of an open interval whose error exceeds an even
    share of that bound is halved, all new panels in one call of
    ``rule``, unless it cannot be: it is narrower than ``_NARROW`` of its
    position, or its midpoint rounds onto an end, or its halving no longer
    pays: from level ``_STALL_LEVEL`` on, its last ``_STALLS`` halvings
    were each of a panel narrower than ``_RESOLVE`` of its position, and
    each left at least half that panel's error in its two halves.  An
    interval whose panels that cannot be halved carry more error than its
    bound can no longer converge, and comes back at once with the sums of
    its panels, not converged; so does an interval still open after the
    last level (or when no panel can be halved, or past ``_MAX_PANELS``
    open panels).  An empty interval gives 0.  Returns per interval the
    value, error, count of the panels ``rule`` valued, and convergence
    flag.
    """
    n = lo.size
    values, errors, converged = np.zeros(n), np.zeros(n), np.ones(n, dtype=bool)
    own = np.flatnonzero(hi > lo)
    a, b = lo[own], hi[own]
    if first is None:
        v, e = rule(own, a, b) if own.size else (a, b)
        panels = np.bincount(own, minlength=n)
    else:
        v, e = first[0][own], first[1][own]
        panels = np.zeros(n, dtype=np.int64)
    stalls = None  # from level _STALL_LEVEL on, per open panel: its halvings in a row that did not pay
    for level in range(_MAX_LEVEL + 1):
        tv = np.bincount(own, weights=v, minlength=n)
        te = np.bincount(own, weights=e, minlength=n)
        bound = np.maximum(tol.absolute, tol.rel * np.abs(tv))
        ok = (te <= bound)[own]
        done, todo = own[ok], ~ok
        values[done], errors[done] = tv[done], te[done]
        a, b, own, v, e = a[todo], b[todo], own[todo], v[todo], e[todo]
        if not own.size:
            return values, errors, panels, converged
        if stalls is not None:
            stalls = stalls[todo]
        elif level == _STALL_LEVEL:
            stalls = np.zeros(own.size, dtype=np.int64)
        m = 0.5 * (a + b)
        pos = np.maximum(np.abs(a), np.abs(b))
        wide = (b - a > _NARROW * pos) & (m > a) & (m < b)
        if stalls is not None:
            wide &= stalls < _STALLS
        if not wide.all():
            # the panels that cannot be halved keep their errors: past the
            # bound, the interval can no longer converge
            stuck = np.bincount(own, weights=np.where(wide, 0.0, e), minlength=n) > bound
            values[stuck], errors[stuck], converged[stuck] = tv[stuck], te[stuck], False
            go = ~stuck[own]
            a, b, own, v, e, m, pos, wide = a[go], b[go], own[go], v[go], e[go], m[go], pos[go], wide[go]
            if stalls is not None:
                stalls = stalls[go]
            if not own.size:
                return values, errors, panels, converged
        split = (e * np.bincount(own, minlength=n)[own] > bound[own]) & wide
        if level == _MAX_LEVEL or not split.any() or own.size > _MAX_PANELS:
            break
        k, keep = own.size - int(split.sum()), ~split  # the halves go after the k kept panels
        if stalls is not None:
            fine = (b - a < _RESOLVE * pos)[split]
            before, after, stalls = e[split], stalls[split] + 1, stalls[keep]
        a = np.concatenate((a[keep], a[split], m[split]))
        b = np.concatenate((b[keep], m[split], b[split]))
        own = np.concatenate((own[keep], own[split], own[split]))
        hv, he = rule(own[k:], a[k:], b[k:])
        if stalls is not None:
            # a halving pays where the two halves carry at most half the
            # error of their panel, and counts only where that panel was fine
            after[~fine | (he[: after.size] + he[after.size :] <= 0.5 * before)] = 0
            stalls = np.concatenate((stalls, after, after))
        v, e = np.concatenate((v[keep], hv)), np.concatenate((e[keep], he))
        panels += np.bincount(own[k:], minlength=n)
    left = np.flatnonzero(np.bincount(own, minlength=n))  # np.unique would import numpy.ma
    values[left], errors[left], converged[left] = tv[left], te[left], False
    return values, errors, panels, converged


def _fejer(
    g_vec: Callable[[np.ndarray], np.ndarray], lo: Sequence[float], hi: Sequence[float], tol: Tolerance
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_bisect` on the Fejer panels of ``g_vec`` over the checked
    intervals ``[lo[i], hi[i]]``."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError("lo and hi must be flat sequences of equal length")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("interval ends must be finite; integrate_to_infinity takes a tail")
    if not np.all(hi >= lo):
        raise ValueError("intervals must have hi >= lo")
    return _bisect(lambda own, a, b: _panels(g_vec, a, b), lo, hi, tol)


def integrate(
    g: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> QuadratureResult:
    """Adaptively integrate the vectorized ``g`` over the finite interval
    ``[a, b]``: :func:`integrate_intervals` on the one interval, with the
    same bits, and its panel count as ``subdivisions``."""
    values, errors, panels, converged = _fejer(g, [a], [b], tol)
    return QuadratureResult(float(values[0]), float(errors[0]), int(panels[0]), bool(converged[0]))


def integrate_intervals(
    g_vec: Callable[[np.ndarray], np.ndarray],
    lo: Sequence[float],
    hi: Sequence[float],
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> PanelResults:
    """The integrals over the intervals ``[lo[i], hi[i]]``, all at once.

    ``g_vec`` maps an array of abscissae (of any shape) to the integrand
    values, elementwise.  Every interval first gets one panel of the
    Fejer pair, computed with array operations over blocks of intervals;
    the panels of an interval whose estimate exceeds ``tol.bound`` of its
    value are halved on the same batch (:func:`_bisect`), to its depth
    cap and its narrow-panel stop.  The intervals may overlap; one of
    zero width integrates to 0 without evaluating ``g_vec``.  The ends
    themselves are never evaluated.  A NaN or infinity at any node
    raises :class:`QuadratureError`.
    """
    values, errors, _, converged = _fejer(g_vec, lo, hi, tol)
    return PanelResults(values, errors, bool(converged.all()))


def integrate_to_infinity(
    g: Callable[[np.ndarray], np.ndarray],
    a: float,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> QuadratureResult:
    """Integrate ``g`` over ``[a, infinity)``.

    Uses the rational substitution t = 1/(1 + x - a), which maps the
    tail onto (0, 1] and keeps polynomially decaying integrands tame;
    ``g`` is vectorized, as for :func:`integrate`.
    Divergent tails show up as ``converged=False`` with a large error
    estimate rather than as an exception, because the transform cannot
    tell slow convergence from divergence; callers that need a hard
    verdict should consult the classifier first.
    """
    if not math.isfinite(a):
        raise ValueError("lower limit must be finite")

    def h(t: np.ndarray) -> np.ndarray:
        # every node t is above 2**-67 (the depth cap), so t * t is a normal double
        return g(a + 1.0 / t - 1.0) / (t * t)

    return integrate(h, 0.0, 1.0, tol)


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

:class:`RadialProfile` freezes one (f, params, delta) triple and caches
I on a log-log monotone cubic spline over sixteen decades around delta
(eight on each side), and w itself at the same knots, so a profile
value costs one quadrature panel against a cheap interpolant (or a
closed form off the cache) instead of a nested double integral.  The
cache fills and the profile on a grid evaluate their quadrature panels
in batches (:func:`~liouville.quadrature.integrate_intervals`).
Scaling in delta is exact (I_delta(z) = delta**n * I_1(z/delta) and
w_delta(r) = delta**(p/(p-1)) * w_1(r/delta)), so one cache serves
every scale: :meth:`RadialProfile.rescaled` reads the profile at
another delta off it, and the delta search builds a single profile.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .criterion import (
    StructureParams,
    Verdict,
    classify,
    criterion_value,
    critical_exponent,
)
from .errors import (
    CriterionUndecidedError,
    DeltaSearchError,
    DivergentIntegralError,
    DomainError,
    EvalOverflow,
)
from .nonlinearity import _LOG_MAX, Nonlinearity, PowerLog
from .quadrature import (
    DEFAULT_TOLERANCE,
    QuadratureResult,
    Tolerance,
    integrate,
    integrate_intervals,
    integrate_panels,
    integrate_to_infinity,
)

__all__ = [
    "MonoCubic",
    "RadialProfile",
    "envelope",
    "sup_profile",
    "change_of_variables_check",
    "decay_bound",
    "DeltaSearchOptions",
    "find_delta",
]


class MonoCubic:
    """Monotone piecewise-cubic interpolant (Fritsch-Carlson).

    Given strictly increasing abscissae and monotone ordinates, the
    interpolant preserves monotonicity: no overshoot between knots.
    Derivatives at interior knots are weighted harmonic means of the
    neighbouring secant slopes, zeroed where the secants change sign;
    endpoint derivatives use a one-sided three-point formula clamped
    to at most three times the boundary secant.
    """

    __slots__ = ("xs", "ys", "ms", "_arrays")

    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        if len(xs) != len(ys):
            raise ValueError("xs and ys must have equal length")
        if len(xs) < 2:
            raise ValueError("need at least two knots")
        for a, b in zip(xs, xs[1:]):
            if not b > a:
                raise ValueError("abscissae must be strictly increasing")
        n = len(xs)
        h = [xs[i + 1] - xs[i] for i in range(n - 1)]
        d = [(ys[i + 1] - ys[i]) / h[i] for i in range(n - 1)]
        ms = [0.0] * n
        for i in range(1, n - 1):
            if d[i - 1] * d[i] <= 0.0:
                ms[i] = 0.0
            else:
                w1 = 2.0 * h[i] + h[i - 1]
                w2 = h[i] + 2.0 * h[i - 1]
                ms[i] = (w1 + w2) / (w1 / d[i - 1] + w2 / d[i])
        ms[0] = self._edge(h[0], h[1], d[0], d[1]) if n > 2 else d[0]
        ms[-1] = self._edge(h[-1], h[-2], d[-1], d[-2]) if n > 2 else d[-1]
        self.xs = list(map(float, xs))
        self.ys = list(map(float, ys))
        self.ms = ms
        self._arrays = (np.array(self.xs), np.array(self.ys), np.array(ms))

    @staticmethod
    def _edge(h0: float, h1: float, d0: float, d1: float) -> float:
        m = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
        if m * d0 <= 0.0:
            return 0.0
        if d0 * d1 <= 0.0 and abs(m) > 3.0 * abs(d0):
            return 3.0 * d0
        return m

    def __call__(self, x: float) -> float:
        xs = self.xs
        if x < xs[0] or x > xs[-1]:
            raise ValueError(f"{x!r} outside interpolation range [{xs[0]!r}, {xs[-1]!r}]")
        i = bisect_right(xs, x) - 1
        if i == len(xs) - 1:
            i -= 1
        h = xs[i + 1] - xs[i]
        t = (x - xs[i]) / h
        t2 = t * t
        t3 = t2 * t
        h00 = 2.0 * t3 - 3.0 * t2 + 1.0
        h10 = t3 - 2.0 * t2 + t
        h01 = -2.0 * t3 + 3.0 * t2
        h11 = t3 - t2
        return (
            h00 * self.ys[i]
            + h10 * h * self.ms[i]
            + h01 * self.ys[i + 1]
            + h11 * h * self.ms[i + 1]
        )

    def values(self, x: np.ndarray) -> np.ndarray:
        """Array form of calling the interpolant, elementwise, with the
        same arithmetic and the same out-of-range ``ValueError``."""
        xs, ys, ms = self._arrays
        x = np.asarray(x, dtype=float)
        bad = np.flatnonzero((x < xs[0]) | (x > xs[-1]))
        if bad.size:
            raise ValueError(
                f"{float(x.flat[bad[0]])!r} outside interpolation range "
                f"[{self.xs[0]!r}, {self.xs[-1]!r}]"
            )
        i = np.minimum(np.searchsorted(xs, x, side="right") - 1, len(xs) - 2)
        h = xs[i + 1] - xs[i]
        t = (x - xs[i]) / h
        t2 = t * t
        t3 = t2 * t
        h00 = 2.0 * t3 - 3.0 * t2 + 1.0
        h10 = t3 - 2.0 * t2 + t
        h01 = -2.0 * t3 + 3.0 * t2
        h11 = t3 - t2
        return h00 * ys[i] + h10 * h * ms[i] + h01 * ys[i + 1] + h11 * h * ms[i + 1]

    def shifted(self, dx: float, dy: float) -> "MonoCubic":
        """The interpolant through the knots (x + dx, y + dy).  A translate
        has the same slopes, so nothing is refitted."""
        xs, ys, ms = self._arrays
        out = object.__new__(MonoCubic)
        out._arrays = (xs + dx, ys + dy, ms)
        out.xs, out.ys, out.ms = out._arrays[0].tolist(), out._arrays[1].tolist(), self.ms
        return out


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


# The inner-integral cache: log-spaced nodes over [delta/span, delta*span].
_CACHE_NODES = 4096
_CACHE_SPAN = 1e8


def _exp_checked(x: np.ndarray, what: str, at: np.ndarray) -> np.ndarray:
    # exp of a log-domain array, refusing what would overflow a double
    over = np.flatnonzero(x > _LOG_MAX)
    if over.size:
        raise EvalOverflow(f"{what} exceeds double range at {float(at.flat[over[0]])!r}")
    return np.exp(x)


class RadialProfile:
    """The constructed profile for one (f, params, delta) triple.

    Building the object immediately fills the inner-integral cache:
    4096 log-spaced nodes spanning eight decades on each side of delta,
    cumulative quadrature increments between nodes, and a monotone
    cubic through (log z, log I).  Off-cache queries fall back to the
    exact limiting behaviour: I grows like z**n below the cache (the
    envelope is flat there) and saturates at the full-line limit above
    it.  The first profile value fills the outer cache, w at the same
    knots.  :meth:`rescaled` gives the profile at any other delta from
    the same caches, without a second fill.
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
        self._inner_limit: Optional[float] = None
        # shared with every rescaled view: the criterion does not depend on
        # delta, and the outer cache (the delta of its fill, w at the knots,
        # the fill's converged flag) scales exactly
        self._criterion: List[Optional[QuadratureResult]] = [None]
        self._outer: List[Optional[Tuple[float, np.ndarray, bool]]] = [None]
        self._seg_tol = Tolerance(rel=min(tol.rel, 1e-12), absolute=0.0)

        zs = np.geomspace(self.delta / _CACHE_SPAN, self.delta * _CACHE_SPAN, _CACHE_NODES)
        segments = integrate_panels(self._source_array, np.concatenate(([0.0], zs)), self._seg_tol)
        cum = np.cumsum(segments.values).tolist()
        zs = zs.tolist()
        self._zs = zs
        self._cum = cum

        first_pos = next((i for i, v in enumerate(cum) if v > 0.0), None)
        if first_pos is None:
            self._interp = None
            self._z_lo = self._z_hi = None
            self._knots = np.empty(0)
        else:
            xs = [math.log(z) for z in zs[first_pos:]]
            ys = [math.log(v) for v in cum[first_pos:]]
            self._interp = MonoCubic(xs, ys)
            self._z_lo = zs[first_pos]
            self._z_hi = zs[-1]
            self._knots = np.array(zs[first_pos:])

    def rescaled(self, delta: float) -> "RadialProfile":
        """The profile at scale ``delta``, read off this one's cache.

        Scaling is exact: with c = delta / self.delta, I_delta(z) =
        c**n * I(z/c).  So the cache knots scale by c, the sums and I(inf)
        (computed here once: at small delta its tail quadrature would
        meet the absolute tolerance floor) by c**n, and the log-log
        interpolant shifts by (ln c, n ln c).  The criterion cache and
        the outer cache (w scales by c**(p/(p-1))) are shared.  Returns
        ``self`` at this profile's own scale; raises what
        :meth:`inner_limit` raises.
        """
        env = envelope(self.params, delta)  # validates delta
        if delta == self.delta:
            return self
        c = delta / self.delta
        n = self.params.n
        view = object.__new__(RadialProfile)
        view.__dict__.update(self.__dict__)
        view.delta = float(delta)
        view._env = env
        view._zs = (c * np.array(self._zs)).tolist()
        view._cum = (c**n * np.array(self._cum)).tolist()
        view._knots = c * self._knots
        if self._interp is not None:
            view._interp = self._interp.shifted(math.log(c), n * math.log(c))
            view._z_lo, view._z_hi = c * self._z_lo, c * self._z_hi
        view._inner_limit = c**n * self.inner_limit()
        return view

    def __repr__(self) -> str:
        return (
            f"RadialProfile(f={self.f!r}, n={self.params.n}, p={self.params.p}, "
            f"eps={self.params.eps}, delta={self.delta})"
        )

    def _source(self, xi: float) -> float:
        # xi**(n-1) * f(env(xi)), in logs to survive large xi
        fv = self.f(self._env(xi))
        if fv == 0.0 or xi == 0.0:
            return 0.0
        out = (self.params.n - 1) * math.log(xi) + math.log(fv)
        if out > _LOG_MAX:
            raise EvalOverflow(f"source term exceeds double range at xi={xi!r}")
        return math.exp(out)

    def _source_array(self, xi: np.ndarray) -> np.ndarray:
        # array form of _source for xi > 0, in logs throughout: far out
        # f(env) underflows long before xi**(n-1) * f(env) does
        ln_env = math.log(self.params.eps) - self.decay * np.log1p(xi / self.delta)
        sign, ln_f = self.f.log_value(ln_env)
        neg = np.flatnonzero(sign < 0)
        if neg.size:
            raise DomainError(f"source term is negative at xi={float(xi.flat[neg[0]])!r}")
        out = _exp_checked((self.params.n - 1) * np.log(xi) + ln_f, "source term", xi)
        return np.where(sign > 0, out, 0.0)

    # -- envelope ----------------------------------------------------------

    def envelope_value(self, r: float) -> float:
        return self._env(r)

    # -- inner integral ----------------------------------------------------

    def _source_tail(self, z_from: float) -> QuadratureResult:
        """Source mass on [z_from, inf).

        Critically-powered log corrections get an exact change of
        variables (s = 1 + xi/delta, then u = ln s) because their raw
        tail decays like 1/(xi * ln(xi)**-mu), which interval bisection
        cannot resolve.  In the u variable the integrand is a plain
        power u**mu and the standard tail transform handles it.
        """
        f = self.f
        n, eps = self.params.n, self.params.eps
        k, delta = self.decay, self.delta
        if isinstance(f, PowerLog) and abs(f.power * k - n) <= 1e-12 * n:
            mu, ln_eps = f.mu, math.log(eps)

            def in_log_scale(u: float) -> float:
                if u <= 0.0:
                    return 0.0
                shrink = -math.expm1(-u)
                log_factor = k * u - ln_eps + math.log1p(math.e * eps * math.exp(-k * u))
                if log_factor <= 0.0:
                    return 0.0
                return shrink ** (n - 1) * log_factor**mu

            res = integrate_to_infinity(in_log_scale, math.log1p(z_from / delta), self.tol)
            scale = delta**n * eps**f.power
            return QuadratureResult(
                scale * res.value, scale * res.abs_error, res.subdivisions, res.converged
            )
        return integrate_to_infinity(self._source, z_from, self.tol)

    def inner_limit(self) -> float:
        """I(inf), the total source mass over the half line."""
        if self._inner_limit is None:
            res = self._source_tail(self._zs[-1])
            # A genuinely divergent source stalls at >= 22% relative
            # error even in the mildest (logarithmic) case, because the
            # endpoint panel of the tail transform never shrinks.  A
            # convergent source with a slow algebraic tail stalls too,
            # but at <= 0.6% once the decay rate clears the critical
            # one by 0.1 or so.  A 5% gate separates the two; sources
            # within ~0.1 of critical decay are rejected conservatively.
            stalled = res.abs_error > max(0.05 * abs(res.value), 1e3 * self.tol.absolute)
            if not res.converged and stalled:
                raise DivergentIntegralError(
                    "the source integral does not converge; the criterion integral "
                    "diverges for this nonlinearity (run classify first)"
                )
            self._inner_limit = self._cum[-1] + res.value
        return self._inner_limit

    def inner_integral(self, z: float) -> float:
        """I(z), computed exactly: cached in range, direct quadrature
        off range, and the full limit at z = inf."""
        if math.isnan(z):
            raise DomainError(f"z must be a real number, got {z!r}")
        if z <= 0.0:
            return 0.0
        if math.isinf(z):
            return self.inner_limit()
        if self._interp is None:
            return 0.0
        if z < self._z_lo:
            return integrate(self._source, 0.0, z, self.tol).value
        if z <= self._z_hi:
            return self._cached(z)
        return self._cum[-1] + integrate(self._source, self._z_hi, z, self.tol).value

    def _cached(self, z: float) -> float:
        # I(z) for z_lo <= z <= z_hi.  A rescaled view's knots are
        # shifted logs, so log z may fall an ulp outside them at the ends.
        xs = self._interp.xs
        return math.exp(self._interp(min(max(math.log(z), xs[0]), xs[-1])))

    def _inner_model(self, z: float) -> float:
        # I as the outer integrand sees it: the cached interpolant, the
        # limiting power model below the cache, saturation above it.
        if z <= 0.0 or self._interp is None:
            return 0.0
        if z < self._z_lo:
            return math.exp(self._interp.ys[0]) * (z / self._z_lo) ** self.params.n
        if z <= self._z_hi:
            return self._cached(z)
        return self.inner_limit()

    # -- the profile -------------------------------------------------------

    def _outer_integrand(self, zeta: float) -> float:
        iv = self._inner_model(zeta)
        if iv == 0.0:
            return 0.0
        out = (math.log(iv) - (self.params.n - 1) * math.log(zeta)) / (self.params.p - 1.0)
        if out > _LOG_MAX:
            raise EvalOverflow(f"outer integrand exceeds double range at zeta={zeta!r}")
        return math.exp(out)

    def _outer_array(self, zeta: np.ndarray) -> np.ndarray:
        # array form of _outer_integrand for z_lo <= zeta <= z_hi, in logs
        n, p = self.params.n, self.params.p
        ln_z = np.log(zeta)
        xs = self._interp.xs
        # np.log may put a knot one ulp past its math.log value
        ln_i = self._interp.values(np.clip(ln_z, xs[0], xs[-1]))
        return _exp_checked((ln_i - (n - 1) * ln_z) / (p - 1.0), "outer integrand", zeta)

    # The outer cache W holds w at the cache knots.  Above the cache I is
    # saturated and below it a power of zeta, so w is closed form there.

    def _w_above(self, r: np.ndarray) -> np.ndarray:
        # w(r) for r >= z_hi: integral of (I(inf) / zeta**(n-1))**(1/(p-1))
        k = self.decay
        ln_w = math.log(self.inner_limit()) / (self.params.p - 1.0) - k * np.log(r)
        return _exp_checked(ln_w, "profile", r) / k

    def _w_below(self, r: np.ndarray) -> np.ndarray:
        # w(r) - w(z_lo) for r <= z_lo, where I(zeta) = I(z_lo) (zeta/z_lo)**n
        n, p, z_lo = self.params.n, self.params.p, self._z_lo
        beta = p / (p - 1.0)
        ln_scale = (self._interp.ys[0] - (n - p) * math.log(z_lo)) / (p - 1.0)
        scale = _exp_checked(np.full(r.shape, ln_scale), "profile", r)
        return scale / beta * (1.0 - (r / z_lo) ** beta)

    def _outer_cache(self) -> Tuple[np.ndarray, bool]:
        """W at this profile's knots, and whether its fill converged.

        Filled once, on first use, by the profile or view that needs it
        first; the others read it scaled by c**(p/(p-1)), c = delta /
        delta of the fill.
        """
        if self._outer[0] is None:
            self._outer[0] = (self.delta,) + self._fill_outer()
        delta, ws, converged = self._outer[0]
        if delta != self.delta:
            p = self.params.p
            ws = (self.delta / delta) ** (p / (p - 1.0)) * ws
        return ws, converged

    def _fill_outer(self) -> Tuple[np.ndarray, bool]:
        # one panel per knot interval, summed down from the closed form at
        # z_hi; that needs I(inf), so a divergent source raises before the panels
        tail = self._w_above(self._knots[-1:])
        panels = integrate_panels(self._outer_array, self._knots, self._seg_tol)
        return np.cumsum(np.concatenate((tail, panels.values[::-1])))[::-1], panels.converged

    def outer_converged(self) -> bool:
        """Whether every panel of the outer cache fill met its tolerance
        (True for an identically zero profile, which needs no fill)."""
        return self._interp is None or self._outer_cache()[1]

    def profile_value(self, r: float) -> float:
        """w(r) = integral_r^inf (I(zeta)/zeta**(n-1))**(1/(p-1)) d zeta,
        by :meth:`values_on_grid`."""
        if math.isnan(r) or r < 0.0:
            raise DomainError(f"radius must be >= 0, got {r!r}")
        return self.values_on_grid([r])[0]

    def values_on_grid(self, radii: Sequence[float]) -> List[float]:
        """Profile values on an increasing grid of radii.

        Inside the cache, w(r) is the outer cache's value at the first
        knot at or above r plus the integral from r to that knot, one
        panel per radius, all in one batched :func:`integrate_intervals`
        pass.  Off the cache w is closed form.  After the one-time fill
        of the outer cache (about 4100 panels, shared with every
        rescaled view), 200 radii cost at most 200 panels.
        """
        rs = [float(r) for r in radii]
        if not rs:
            return []
        if any(math.isnan(r) or r < 0.0 for r in rs):
            raise DomainError("radii must be >= 0")
        for a, b in zip(rs, rs[1:]):
            if not b > a:
                raise ValueError("radii must be strictly increasing")
        if self._interp is None:
            return [0.0] * len(rs)
        ws, _ = self._outer_cache()
        rs = np.array(rs)
        out = np.empty_like(rs)
        below, above = rs < self._z_lo, rs > self._z_hi
        inside = ~(below | above)
        out[below] = ws[0] + self._w_below(rs[below])
        out[above] = self._w_above(rs[above])
        j = np.searchsorted(self._knots, rs[inside])
        gaps = integrate_intervals(self._outer_array, rs[inside], self._knots[j], self._seg_tol)
        out[inside] = ws[j] + gaps.values
        return out.tolist()

    def gradient_magnitude(self, r: float) -> float:
        """|w'(r)| = (I(r)/r**(n-1))**(1/(p-1)) for r > 0."""
        if math.isnan(r) or r <= 0.0:
            raise DomainError(f"radius must be > 0, got {r!r}")
        return self._outer_integrand(r)

    def criterion_result(self) -> QuadratureResult:
        """Cached numeric value of the criterion integral of f."""
        if self._criterion[0] is None:
            self._criterion[0] = criterion_value(self.f, self.params, self.tol)
        return self._criterion[0]


def sup_profile(profile: RadialProfile) -> float:
    """sup w = w(0), the profile's maximal value."""
    return profile.profile_value(0.0)


def change_of_variables_check(
    profile: RadialProfile,
    tol: Optional[Tolerance] = None,
) -> Tuple[QuadratureResult, QuadratureResult]:
    """Two computations of the same number that must agree.

    The source mass over the half line equals, after substituting the
    envelope value as the integration variable, a weighted integral of
    f over (0, eps] with an explicit algebraic weight.  Both sides are
    returned so callers can compare at their own tolerance.  Exercises
    the envelope, the source term, and the quadrature engine along two
    completely different routes.
    """
    tol = tol or profile.tol
    params = profile.params
    n, eps = params.n, params.eps
    delta = profile.delta
    a = (params.p - 1.0) / (params.n - params.p)
    f = profile.f

    direct = integrate_to_infinity(profile._source, 0.0, tol)

    ln_eps = math.log(eps)

    def transformed_integrand(zeta: float) -> float:
        fv = f(zeta)
        if fv == 0.0:
            return 0.0
        t = a * (ln_eps - math.log(zeta))
        if t <= 0.0:
            return 0.0
        lex = t if t >= 700.0 else math.log(math.expm1(t))
        out = (n - 1) * lex + (a + 1.0) / a * t + math.log(fv)
        if out > _LOG_MAX:
            raise EvalOverflow(f"transformed integrand exceeds double range at {zeta!r}")
        return math.exp(out)

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

    where K is the numeric value of the criterion integral of f; a
    divergent f therefore raises before any bound is produced.
    """
    if math.isnan(r) or r <= 0.0:
        raise DomainError(f"radius must be > 0, got {r!r}")
    params = profile.params
    a = (params.p - 1.0) / (params.n - params.p)
    kf = profile.criterion_result().value
    c = a * (a * profile.delta ** params.n * params.eps**profile.q * kf) ** (
        1.0 / (params.p - 1.0)
    )
    return c * r**-profile.decay


# The delta search halves delta at most _MAX_HALVINGS times and screens
# each candidate on a log grid of _GRID_POINTS radii spanning
# [_GRID_LO, _GRID_HI] * delta, with absolute comparison slack _SLACK.
_MAX_HALVINGS = 60
_GRID_LO = 1e-6
_GRID_HI = 1e6
_GRID_POINTS = 200
_SLACK = 1e-12


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

    A candidate is admissible when three certificates hold together:

    * the envelope dominates the profile on the screening grid,
    * sup w = w(0) is at most env(delta) = eps * 2**-k, which extends
      envelope domination to every radius below delta, and
    * a * I(inf)**(1/(p-1)) <= eps * 2**-k * delta**k, which extends it
      to every radius above delta, because w(r) is rigorously bounded
      by a * I(inf)**(1/(p-1)) * r**-k while the envelope is bounded
      below by eps * 2**-k * (delta/r)**k there.

    The certificate constant uses the measured source limit I(inf),
    not the looser closed-form criterion constant; the loose constant
    can reject scales that are in fact admissible.

    One profile is built, at delta0: at delta = c * delta0 the profile
    is exactly c**(p/(p-1)) * w(r/c) and the source limit c**n * I(inf),
    and the envelope on the grid (fixed in units of delta) does not
    change, so every candidate is tested on scaled numbers: the grid
    values and sup w are read once, at delta0, off the profile's outer
    cache.  The accepted profile is returned
    (:meth:`RadialProfile.rescaled`); it shares that cache, so callers
    read the scale from its ``delta`` and neither build nor fill
    anything again.

    Divergent f raises :class:`DivergentIntegralError`; an undecided
    classifier verdict raises :class:`CriterionUndecidedError` unless
    ``opts.assume_convergent`` is set.
    """
    opts = opts or DeltaSearchOptions()

    if not opts.assume_convergent:
        verdict = classify(f, params, tol=tol)
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
    radii = [float(r) for r in np.geomspace(_GRID_LO * opts.delta0, _GRID_HI * opts.delta0, _GRID_POINTS)]
    ws = np.array(prof.values_on_grid(radii))
    envs = np.array([prof.envelope_value(r) for r in radii])
    sup_w0 = prof.profile_value(0.0)
    limit = prof.inner_limit()

    for j in range(_MAX_HALVINGS + 1):
        c = 2.0**-j
        delta = opts.delta0 * c
        scale = c ** (p / (p - 1.0))
        worst_gap = float(np.min(envs - scale * ws))
        grid_ok = worst_gap >= -_SLACK

        sup_w = scale * sup_w0
        sup_ok = sup_w <= threshold + _SLACK

        tail_coeff = a * (c**n * limit) ** (1.0 / (p - 1.0))
        tail_ok = tail_coeff <= threshold * delta**k + _SLACK

        if grid_ok and sup_ok and tail_ok:
            return prof.rescaled(delta)
        last_report = (
            f"delta={delta!r}: grid gap {worst_gap:.3e}, sup w {sup_w:.6e} "
            f"vs {threshold:.6e}, tail coeff {tail_coeff:.6e} vs "
            f"{threshold * delta**k:.6e}"
        )

    raise DeltaSearchError(
        f"no admissible scale within {_MAX_HALVINGS} halvings of "
        f"{opts.delta0!r}; last candidate: {last_report}"
    )

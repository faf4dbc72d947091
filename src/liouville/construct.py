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
The table holds ln I_1 at the knots and its exact slopes
s * source(s) / I_1(s) (I' is the source term), so ln I between knots
is a cubic Hermite with no estimated slopes; and, filled on first use,
I_1(inf) and w_1 at the same knots.  Substituting zeta = env(xi) makes
the source mass beyond the last knot a * eps**q (a = 1/k) times the
criterion integral below env there, up to a weight within
(n-1)/(1 + s_end) of 1, so I_1(inf) needs no quadrature to infinity.
The inner table fills in batched panels
(:func:`~liouville.quadrature.integrate_panels`).  The outer integral
is taken in x = ln zeta, where the quadrature nodes sit at the same
fractions of every knot interval and ln I there is the interval's own
cubic: one fixed basis, no knot search (:meth:`RadialProfile._outer_spans`).
A profile value then costs one such panel (or a closed form off the
cache) instead of a nested double integral.
:meth:`RadialProfile.rescaled` gives the profile at another delta on
the same table, and the delta search builds a single profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .criterion import (
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
    EvalOverflow,
)
from .nonlinearity import _LOG_MAX, Nonlinearity
from .quadrature import (
    _CHUNK,
    _XA_HIGH,
    DEFAULT_TOLERANCE,
    QuadratureResult,
    Tolerance,
    _rule,
    integrate,
    integrate_intervals,
    integrate_panels,
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
# the table continues it for _EXTRA_OCTAVES halvings of the envelope.
_CACHE_NODES = 4096
_CACHE_SPAN = 1e8
_EXTRA_OCTAVES = 40
_LN_TINY = math.log(np.finfo(float).tiny)  # ln of the smallest normal double
_NOT_CONVERGED = "the source integral does not converge to tolerance"


def _exp_checked(x: np.ndarray, what: str, at: np.ndarray) -> np.ndarray:
    # exp of a log-domain array, refusing what would overflow a double
    if (x > _LOG_MAX).any():
        i = np.flatnonzero(x > _LOG_MAX)[0]
        raise EvalOverflow(f"{what} exceeds double range at {float(at.flat[i])!r}")
    return np.exp(x)


def _hermite(x: np.ndarray, xs: np.ndarray, ys: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """The cubic Hermite interpolant through (xs, ys) with slopes ms, at x.

    Each point takes the cubic of its knot interval.  The interval index
    is clamped, so a point outside [xs[0], xs[-1]] takes the end cubic.
    """
    i = np.searchsorted(xs[1:-1], x, side="right")
    h = xs[i + 1] - xs[i]
    u = (x - xs[i]) / h
    d = ys[i + 1] - ys[i]
    a, b = h * ms[i], h * ms[i + 1]
    return ys[i] + u * (a + u * (3.0 * d - 2.0 * a - b + u * (a + b - 2.0 * d)))


def _hermite_basis(u: np.ndarray) -> np.ndarray:
    # rows at the fractions u of a knot interval: the weights of y1 - y0,
    # h * m0 and h * m1 in the cubic Hermite of _hermite less its value y0
    # at u = 0, and u itself
    u2 = u * u
    return np.stack((u2 * (3.0 - 2.0 * u), u * (1.0 - u) ** 2, u2 * (u - 1.0), u))


# The quadrature nodes as fractions of their panel, and the Hermite basis there
_NODE_U = 0.5 * (1.0 + _XA_HIGH)
_NODE_BASIS = _hermite_basis(_NODE_U)


def _ln_source(f: Nonlinearity, params: StructureParams, s: np.ndarray) -> np.ndarray:
    # ln of the source term s**(n-1) * f(env(s)) at delta = 1, for s > 0
    # (-inf where f vanishes); in logs throughout, because far out f(env)
    # underflows long before the source term does
    k = (params.n - params.p) / (params.p - 1.0)
    sign, ln_f = f.log_value(math.log(params.eps) - k * np.log1p(s))
    neg = np.flatnonzero(sign < 0)
    if neg.size:
        raise DomainError(f"source term is negative at xi/delta={float(s.flat[neg[0]])!r}")
    return np.where(sign > 0, (params.n - 1) * np.log(s) + ln_f, -np.inf)


class _UnitTable:
    """The inner integral at delta = 1, shared by every scale.

    I_delta(z) = delta**n * I_1(z/delta), so one table in s = xi/delta
    serves every delta.  It holds the knots s (from the first one where
    I_1 > 0), ln s, ln I_1, the exact slopes d ln I_1 / d ln s =
    s * source(s) / I_1(s), I_1 at the last knot with the fill's summed
    error, and the log of the envelope there.  Filled on first use:
    I_1(inf), the outer cache W_1 (w at delta = 1 at the knots) with the
    converged flag of its fill, and the criterion result.
    """

    def __init__(self, f: Nonlinearity, params: StructureParams, tol: Tolerance):
        # past the cache ln(1 + s) steps by a ln 2 / 8: env = eps * (1 + s)**(-1/a)
        # halves every 8 knots
        a = (params.p - 1.0) / (params.n - params.p)
        ln_1ps = math.log1p(_CACHE_SPAN) + a * math.log(2.0) / 8.0 * np.arange(1, 8 * _EXTRA_OCTAVES + 1)
        extra = np.expm1(ln_1ps[ln_1ps < _LOG_MAX])
        s = np.concatenate((np.geomspace(1.0 / _CACHE_SPAN, _CACHE_SPAN, _CACHE_NODES), extra))

        def source(x: np.ndarray) -> np.ndarray:
            # a subnormal value has too few digits to resolve, and cannot move the sums
            ln = _ln_source(f, params, x)
            return _exp_checked(np.where(ln < _LN_TINY, -np.inf, ln), "source term", x)

        fill = integrate_panels(source, np.concatenate(([0.0], s)), tol)
        cum = np.cumsum(fill.values)
        keep = cum > 0.0  # the sums never decrease, so this drops a prefix
        self.last, self.last_error = float(cum[-1]), float(fill.abs_errors.sum())
        self.ln_top = math.log(params.eps) - math.log1p(s[-1]) / a
        self.s = s[keep]
        self.ln_s = np.log(self.s)
        self.ln_i = np.log(cum[keep])
        self.slopes = np.exp(self.ln_s + _ln_source(f, params, self.s) - self.ln_i)
        self.limit: Optional[float] = None
        self.outer: Optional[Tuple[np.ndarray, bool]] = None
        self.criterion: Optional[QuadratureResult] = None


class RadialProfile:
    """The constructed profile for one (f, params, delta) triple.

    A profile is a :class:`_UnitTable` plus its delta.  Building one
    fills the table: I at delta = 1 at 4096 log-spaced knots spanning
    eight decades on each side of s = xi/delta = 1, then 320 knots over
    40 further halvings of the envelope, by cumulative quadrature
    increments, with the exact slopes of ln I in ln s (I' is the source
    term).  Inside the cache ln I is the cubic Hermite through those
    values and slopes; off it I follows its limiting behaviour: it grows
    like z**n below the cache (the envelope is flat there) and is taken
    as saturated at I(inf) above it, where the envelope is 2**-40 of its
    value at the last cache knot.  The first profile value fills the
    outer cache, w at the same knots: one panel in ln zeta per knot
    interval, on that interval's cubic, summed down from the closed
    form at the last knot.
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
        # xi**(n-1) * f(env(xi)) elementwise, by the plain evaluator
        # f.values: a second route to the table's log-domain source term.
        # The product is taken in logs to survive large xi.
        xi = np.asarray(xi, dtype=float)
        with np.errstate(divide="ignore"):
            ln = (self.params.n - 1) * np.log(xi) + np.log(self.f.values(self._env_array(xi)))
        return _exp_checked(ln, "source term", xi)

    # -- envelope ----------------------------------------------------------

    def envelope_value(self, r: float) -> float:
        return self._env(r)

    def _env_array(self, r: np.ndarray) -> np.ndarray:
        # env(r) = eps * (1 + r/delta)**-k, elementwise
        return self.params.eps * np.exp(-self.decay * np.log1p(r / self.delta))

    # -- inner integral ----------------------------------------------------

    def _unit_limit(self) -> float:
        # I_1(inf), once per table: the table's last sum plus the mass
        # beyond its last knot.  With zeta = env_1(s) that mass is
        # a * eps**q times the criterion integral below top = env_1(s_end),
        # weighted by (1 - x)**(n-1), x = (zeta/eps)**a <= w = 1/(1+s_end).
        # The weight lies within [1 - (n-1) w, 1]: take the midpoint.  Where
        # that half-width misses the tolerance (small a), subtract the
        # first-order term (n-1) x instead, one more integral below top
        # with exponent q - a; what is left lies within [0, C(n-1, 2) w**2].
        t = self._table
        if t.limit is None:
            n, tol = self.params.n, self.tol
            scale = self.params.eps**self.q / self.decay
            # the remainder needs only the accuracy of its share of I_1(inf)
            floor = tol.rel * t.last / scale if scale > 0.0 else 0.0
            rest_tol = Tolerance(tol.rel, floor)
            weight = math.exp((t.ln_top - math.log(self.params.eps)) / self.decay)  # 1/(1+s_end)
            try:
                rest = _integral_below(self.f, self.params, t.ln_top, rest_tol)
                mass, error = scale * rest.value, t.last_error + scale * rest.abs_error
                half = 0.5 * (n - 1) * weight * mass
                value, converged = t.last + mass - half, rest.converged
                if converged and error + half > tol.bound(value):
                    a = 1.0 / self.decay
                    first = _integral_below(self.f, self.params, t.ln_top, rest_tol, q=self.q - a)
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
            t.limit = value
        return t.limit

    def inner_limit(self) -> float:
        """I(inf), the total source mass over the half line.  Raises
        :class:`CriterionUndecidedError` when it misses the tolerance."""
        return self.delta**self.params.n * self._unit_limit()

    def inner_integral(self, z: float) -> float:
        """I(z): the cache's Hermite in range, direct quadrature off
        range (one batched panel below it), and the full limit at z = inf."""
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
            return float(integrate_intervals(self._source, [0.0], [z], self.tol).values[0])
        if s <= t.s[-1]:
            return math.exp(self._ln_inner(np.float64(z)))
        edge = self.delta * t.s[-1]
        return self.delta**self.params.n * t.last + integrate(self._source, edge, z, self.tol).value

    def _ln_inner(self, z: np.ndarray) -> np.ndarray:
        # ln I(z) for z > 0: the Hermite inside the cache, the limiting
        # power law z**n below it, saturation at I(inf) above it
        t, n = self._table, self.params.n
        s = z / self.delta
        ln_s = np.log(s)
        below = t.ln_i[0] + n * (ln_s - t.ln_s[0])
        out = np.where(s < t.s[0], below, _hermite(ln_s, t.ln_s, t.ln_i, t.slopes))
        if (s > t.s[-1]).any():
            out = np.where(s > t.s[-1], math.log(self._unit_limit()), out)
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

    def _outer_cache(self) -> Tuple[np.ndarray, bool]:
        """W at this profile's knots, and whether its fill converged.

        The table's W_1, filled once, on first use, at delta = 1, and
        scaled by delta**(p/(p-1)).
        """
        t = self._table
        if t.outer is None:
            t.outer = self.rescaled(1.0)._fill_outer()
        ws, converged = t.outer
        p = self.params.p
        return self.delta ** (p / (p - 1.0)) * ws, converged

    def _fill_outer(self) -> Tuple[np.ndarray, bool]:
        # one panel per whole knot interval (u0 = 0, the fixed basis),
        # summed down from the closed form at the last knot; that needs
        # I(inf), so a divergent source raises before the panels
        t = self._table
        tail = self._w_above(self.delta * t.s[-1:])
        spans = t.s.size - 1
        panels, converged = self._outer_spans(np.arange(spans), np.zeros(spans))
        return np.cumsum(np.concatenate((tail, panels[::-1])))[::-1], converged

    def _outer_spans(self, i: np.ndarray, u0: np.ndarray) -> Tuple[np.ndarray, bool]:
        """Integrals of |w'| over the spans [u0, 1] of the knot intervals i.

        One panel per span, in x = ln zeta, where the integrand is
        exp(psi), psi = (ln I - (n-1) x)/(p-1) + x.  Between two knots ln I
        is exactly the Hermite of their interval, so psi is evaluated
        there with no knot search: on a basis fixed for whole intervals
        (u0 = 0), at the nodes' own fractions otherwise.  A span whose
        error estimate misses the tolerance is redone by :func:`integrate`
        on :meth:`_outer_array` over the same zeta interval.  Returns the
        integrals and whether every redo converged.
        """
        t, p, tol = self._table, self.params.p, self._seg_tol
        h = t.ln_s[i + 1] - t.ln_s[i]
        # psi = base + the Hermite's rise over its interval / (p-1) - k h u
        base = t.ln_i[i] / (p - 1.0) - self.decay * t.ln_s[i] + p / (p - 1.0) * math.log(self.delta)
        rise = np.stack((t.ln_i[i + 1] - t.ln_i[i], h * t.slopes[i], h * t.slopes[i + 1]), axis=1)
        coef = np.concatenate((rise / (p - 1.0), -self.decay * h[:, None]), axis=1)
        width = (1.0 - u0) * h
        values, errors = np.empty(i.size), np.empty(i.size)
        for c in range(0, i.size, _CHUNK):
            part = slice(c, c + _CHUNK)
            if u0[part].any():
                u = u0[part, None] + (1.0 - u0[part, None]) * _NODE_U
                psi = np.einsum("ik,kij->ij", coef[part], _hermite_basis(u))
            else:
                u = _NODE_U
                psi = coef[part] @ _NODE_BASIS
            psi += base[part, None]
            if (psi > _LOG_MAX).any():
                r, k = np.unravel_index(np.flatnonzero(psi > _LOG_MAX)[0], psi.shape)
                x = t.ln_s[i[c + r]] + h[c + r] * np.broadcast_to(u, psi.shape)[r, k]
                raise EvalOverflow(f"outer integrand exceeds double range at {self.delta * math.exp(x)!r}")
            values[part], errors[part] = _rule(np.exp(psi), 0.5 * width[part], width[part])

        def outer(zeta: float) -> float:
            return float(self._outer_array(np.array([zeta]))[0])

        converged = True
        for k in np.flatnonzero(errors > np.maximum(tol.absolute, tol.rel * np.abs(values))):
            lo, hi = (self.delta * t.s[i[k] : i[k] + 2]).tolist()
            res = integrate(outer, lo * math.exp(u0[k] * h[k]), hi, tol)
            values[k], converged = res.value, converged and res.converged
        return values, converged

    def outer_converged(self) -> bool:
        """Whether every panel of the outer cache fill met its tolerance
        (True for an identically zero profile, which needs no fill)."""
        return not self._table.s.size or self._outer_cache()[1]

    def profile_value(self, r: float) -> float:
        """w(r) = integral_r^inf (I(zeta)/zeta**(n-1))**(1/(p-1)) d zeta,
        by :meth:`values_on_grid`."""
        if math.isnan(r) or r < 0.0:
            raise DomainError(f"radius must be >= 0, got {r!r}")
        return self.values_on_grid([r])[0]

    def values_on_grid(self, radii: Sequence[float]) -> List[float]:
        """Profile values on an increasing grid of radii.

        Inside the cache, w(r) is the outer cache's value at the first
        knot at or above r plus the integral from r to that knot, which
        is a span of the knot interval below it: one panel per radius,
        all in one :meth:`_outer_spans` pass on the table's own cubics.
        Off the cache w is closed form.  After the one-time fill of the
        outer cache (one panel per knot interval, about 4400, shared
        with every rescaled view), 200 radii cost at most 200 panels.
        """
        rs = np.array(radii, dtype=float)
        if not rs.size:
            return []
        if np.isnan(rs).any() or (rs < 0.0).any():
            raise DomainError("radii must be >= 0")
        if not (rs[1:] > rs[:-1]).all():
            raise ValueError("radii must be strictly increasing")
        t = self._table
        if not t.s.size:
            return [0.0] * rs.size
        ws, _ = self._outer_cache()
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
        u0 = np.maximum((np.log(s[gap]) - t.ln_s[i]) / (t.ln_s[i + 1] - t.ln_s[i]), 0.0)
        keep = u0 < 1.0
        gaps = np.zeros(s.size)
        if keep.any():
            gaps[gap[keep]] = self._outer_spans(i[keep], u0[keep])[0]
        out[inside] = ws[j] + gaps
        return out.tolist()

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
    """sup w = w(0), the profile's maximal value."""
    return profile.profile_value(0.0)


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

    where K is the numeric value of the criterion integral of f plus its
    error estimate, so an unconverged value widens the bound; a divergent
    f raises before any bound is produced.
    """
    if math.isnan(r) or r <= 0.0:
        raise DomainError(f"radius must be > 0, got {r!r}")
    params = profile.params
    a = (params.p - 1.0) / (params.n - params.p)
    k = profile.criterion_result()
    c = a * (a * profile.delta ** params.n * params.eps**profile.q * (k.value + k.abs_error)) ** (
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

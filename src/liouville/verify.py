"""Numerical certificates for a constructed radial profile.

Every check here re-derives a property of the profile through a route
different from the one used to build it, reports the worst residual it
saw, and says pass or fail against an explicit threshold.  Nothing is
asserted; callers (CLI, tests) decide what a failure means.  Grids and
thresholds are fixed module constants, with radii in units of delta.

The five profile checks:

* flux identity: on 13 log-spaced radii over [1e-2, 1e2] * delta, the
  increment of the radial flux r**(n-1) |w'(r)|**(p-1) across the
  window [r - h, r + h] must match a fresh quadrature of the source
  term over the same window, the best of h = 1e-2, 1e-3, 1e-4 and 1e-5
  times r within a relative defect of 1e-6.  The flux reads the cached
  inner integral, the dense output of the table's panels between its
  sums; the quadrature integrates the source term afresh over the
  window.
* supersolution: on 200 log-spaced radii over [1e-6, 1e6] * delta the
  envelope must dominate the profile to within 1e-12 and, through
  monotonicity of f, f(env) - f(w) must stay above -1e-10.
* gradient decay: |w'| along the 41 radii delta * 2**-j, j = 0 .. 40,
  must peak by level 20, then decrease monotonically and end at most
  1e-6; the source integral at the smallest radius must be at most
  1e-6 too.  |w'| reads the table's dense output, and that integral,
  below the table, its rule of the first panel on [0, r]: no
  quadrature.
* normalization: on 64 log-spaced radii over [1e-6, 1e6] * delta, w
  must be non-increasing and at most 1e-3 at the far end.
* energy: at 64 log-spaced radii over [1, 1e3] * delta, the
  ball-averaged source energy must grow monotonically and its natural
  normalization must stay within a factor 1e3 of its median.  The
  energy density is integrated one K7 panel per interval of a 568-knot
  log grid, with shared ends: the density is taken once at each knot,
  and at five interior nodes per panel on a fixed Hermite basis.  Where
  w underflows to 0 on the grid, only the radii up to its last positive
  knot are reported.

The supersolution, normalization and energy checks read w (and the
energy check |w'|) off one sample per profile table, taken at delta = 1
on the union of their grids in one pass and scaled to the profile's
delta (:func:`_sampled`).

A check appends "quadrature did not converge" to its detail when a
quadrature it rests on did not converge: the flux check its source-side
quadratures, the energy check its halved panels, the gradient check
the rule of its source integral, and the three checks
that read w on a grid (supersolution, normalization, energy) the
profile's table and outer cache fills, which those values rest on.

:func:`delta_limit_check` is a family-level check (it builds its own
profile, once, at delta = 1, and reads the other scales off it): sup w
must decrease strictly under ``j_count`` halvings of delta and fall to
at most 1e-3, witnessing that small data force small supersolutions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .construct import _K7_U, RadialProfile, sup_profile
from .criterion import StructureParams
from .nonlinearity import Nonlinearity, _ln_f
from .quadrature import DEFAULT_TOLERANCE, Tolerance, _bisect, _finite, _k7, integrate_intervals
from .quadrature import integrate  # noqa: F401  (patched by perfbench/tracing.py)

__all__ = [
    "CheckResult",
    "VerificationReport",
    "flux_identity_check",
    "supersolution_check",
    "gradient_decay_check",
    "normalization_check",
    "EnergyDiagnostic",
    "energy_diagnostic",
    "DeltaLimitReport",
    "delta_limit_check",
    "verify_profile",
]


@dataclass(frozen=True)
class CheckResult:
    """One verification outcome.

    ``worst_residual`` is the extreme value the check compared against
    its threshold; its meaning is check-specific and spelled out in
    ``detail``.
    """

    name: str
    grid_size: int
    worst_residual: float
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: Tuple[CheckResult, ...]
    overall: bool


def _unconverged_note(converged: bool) -> str:
    return "" if converged else "; quadrature did not converge"


# The checks' fixed grids, with radii in units of delta, and thresholds,
# as the module docstring gives them.
_FLUX_RADII = 13
_FLUX_H_FACTORS = (1e-2, 1e-3, 1e-4, 1e-5)
_FLUX_TARGET = 1e-6
_SUPER_RADII = 200
_ENVELOPE_SLACK = 1e-12
_SUPER_SLACK = 1e-10
_DECAY_LEVELS = 40
_DECAY_TOL = 1e-6
_NORM_POINTS = 64
_NORM_TOL = 1e-3
_ENERGY_RADII = 64
# w's knots for the energy check: 63 a decade from 1e-6 * delta, so that
# the radii are every 3rd knot from the 378th (delta) on
_ENERGY_STRIDE = 3
_ENERGY_BELOW = 378
_ENERGY_BOUND = 1e3
_DELTA0 = 1.0
_DELTA_THRESHOLD = 1e-3


# ---------------------------------------------------------------------------
# flux identity


def _flux(profile: RadialProfile, r: np.ndarray) -> np.ndarray:
    # the radial flux r**(n-1) |w'(r)|**(p-1), in logs
    n, p = profile.params.n, profile.params.p
    with np.errstate(divide="ignore"):
        return np.exp((n - 1) * np.log(r) + (p - 1.0) * np.log(profile._outer_array(r)))


def _flux_defects(
    profile: RadialProfile, r: np.ndarray, h: np.ndarray
) -> Tuple[np.ndarray, bool]:
    # the relative defect of the flux identity over each window
    # [r[i] - h[i], r[i] + h[i]]: the flux increment across it against a
    # fresh quadrature of the source term, normalized by the larger of the
    # two, all windows in one batched pass; and whether every source
    # quadrature converged.  Second order in h for smooth integrands,
    # until quadrature noise takes over.
    bad = np.flatnonzero(~((0.0 < h) & (h < r)))
    if bad.size:
        i = bad[0]
        raise ValueError(f"need 0 < h < r, got h={float(h[i])!r}, r={float(r[i])!r}")
    up, down = np.split(_flux(profile, np.concatenate((r + h, r - h))), 2)
    lhs = up - down
    rhs = integrate_intervals(profile._source, r - h, r + h, Tolerance(rel=1e-13, absolute=0.0))
    den = np.maximum(np.abs(lhs), np.abs(rhs.values))
    with np.errstate(invalid="ignore"):
        defects = np.where(den == 0.0, 0.0, np.abs(lhs - rhs.values) / den)
    return defects, rhs.converged


def flux_identity_check(profile: RadialProfile) -> CheckResult:
    """Windowed flux-balance check at each radius.

    The window half-width adapts: each factor of ``_FLUX_H_FACTORS``
    times r is tried and the smallest residual kept, so the check is not
    fooled by windows too wide (curvature) or too narrow (cancellation).
    ``detail`` says so when a source quadrature did not converge.
    """
    radii = np.geomspace(0.01 * profile.delta, 100.0 * profile.delta, _FLUX_RADII)
    rs = np.repeat(radii, len(_FLUX_H_FACTORS))
    defects, converged = _flux_defects(profile, rs, rs * np.tile(_FLUX_H_FACTORS, _FLUX_RADII))
    best = defects.reshape(_FLUX_RADII, len(_FLUX_H_FACTORS)).min(axis=1)
    i = int(np.argmax(best))
    worst, worst_r = (float(best[i]), float(radii[i])) if best[i] > 0.0 else (0.0, None)
    return CheckResult(
        name="flux_identity",
        grid_size=_FLUX_RADII,
        worst_residual=worst,
        passed=worst <= _FLUX_TARGET,
        detail=f"worst relative flux defect {worst:.3e} at r={worst_r!r}"
        + _unconverged_note(converged),
    )


# ---------------------------------------------------------------------------
# the sample of w that the grid checks read


@functools.cache
def _unit_sample() -> Tuple[np.ndarray, ...]:
    # the radii at delta = 1 where the grid checks read w, in one sorted
    # array: the union of the supersolution grid, the normalization grid
    # and the energy knots, about 800 radii; then the positions of those
    # three grids in it.  Read-only, as one copy serves all.  Sorted in
    # Python: numpy's sort maps about 1 MB of code pages on first use.
    grids = (
        np.geomspace(1e-6, 1e6, _SUPER_RADII),
        np.geomspace(1e-6, 1e6, _NORM_POINTS),
        _unit_energy_grid(),
    )
    radii = np.array(sorted(set(np.concatenate(grids).tolist())))
    out = (radii, *(np.searchsorted(radii, g) for g in grids))
    for a in out:
        a.flags.writeable = False
    return out


_SUPER, _NORM, _ENERGY = range(3)


def _sampled(profile: RadialProfile, grid: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    # one check's radii at the profile's delta, and w and |w'| there: its
    # slice of the profile's sample, which is read once per table
    # (:meth:`~liouville.construct.RadialProfile._sample`) for all three
    radii, *at = _unit_sample()
    w, dw = profile._sample(radii)
    i = at[grid]
    return profile.delta * radii[i], w[i], dw[i]


# ---------------------------------------------------------------------------
# supersolution


def supersolution_check(profile: RadialProfile) -> CheckResult:
    """Pointwise certificate that the profile is a supersolution.

    Two facts are verified on the grid, with f evaluated in logs, in one
    pass over the envelope and profile arrays: env(r) >= w(r) up to
    ``_ENVELOPE_SLACK``, and f(env(r)) - f(w(r)) >= -``_SUPER_SLACK``.
    The second is the quantity the differential inequality actually
    needs; it is reported as the worst residual.  w on the grid is its
    slice of the profile's one sample of w (:func:`_sampled`).
    """
    rs, ws, _ = _sampled(profile, _SUPER)
    ln_env = math.log(profile.params.eps) - profile.decay * np.log1p(rs / profile.delta)
    dominated = not (np.exp(ln_env) - ws < -_ENVELOPE_SLACK).any()
    with np.errstate(divide="ignore"):
        ln_w = np.log(ws)
    f_env, f_w = profile._f_at(np.stack((ln_env, ln_w)))
    res = f_env - f_w
    i = int(np.argmin(res))
    worst, worst_r = float(res[i]), float(rs[i])
    passed = dominated and worst >= -_SUPER_SLACK
    note = "" if dominated else "; envelope fails to dominate the profile"
    note += _unconverged_note(profile.outer_converged())
    return CheckResult(
        name="supersolution",
        grid_size=_SUPER_RADII,
        worst_residual=worst,
        passed=passed,
        detail=f"min of f(env)-f(w) is {worst:.3e} at r={worst_r!r}{note}",
    )


# ---------------------------------------------------------------------------
# gradient decay


def gradient_decay_check(profile: RadialProfile) -> CheckResult:
    """|w'| along the halving radii delta * 2**-j, j = 0 .. _DECAY_LEVELS.

    The magnitude may rise at first (it typically peaks near delta/2)
    but must peak within the first half of the levels, decrease
    monotonically afterwards, and end below ``_DECAY_TOL``; the inner
    integral at the smallest radius must be below ``_DECAY_TOL`` too.
    That radius lies below the profile's table, where the integral is
    the table's rule of its first panel, taken on [0, r]
    (:meth:`~liouville.construct.RadialProfile._origin_integral`);
    ``detail`` says so when its estimate misses the table's tolerance.
    """
    rs = [profile.delta * 2.0**-j for j in range(_DECAY_LEVELS + 1)]
    vs = profile._outer_array(np.array(rs)).tolist()
    peak = max(range(len(vs)), key=lambda i: vs[i])
    monotone = all(
        vs[i + 1] <= vs[i] * (1.0 + 1e-12) + 1e-300 for i in range(peak, len(vs) - 1)
    )
    source_end, converged = profile._origin_integral(rs[-1])
    passed = (peak <= _DECAY_LEVELS // 2 and monotone
              and vs[-1] <= _DECAY_TOL and source_end <= _DECAY_TOL)
    return CheckResult(
        name="gradient_decay",
        grid_size=_DECAY_LEVELS + 1,
        worst_residual=vs[-1],
        passed=passed,
        detail=(
            f"peak at level {peak}, terminal gradient {vs[-1]:.3e}, "
            f"terminal source integral {source_end:.3e}"
            + _unconverged_note(converged)
        ),
    )


# ---------------------------------------------------------------------------
# normalization


def normalization_check(profile: RadialProfile) -> CheckResult:
    """w must be non-increasing and fall below ``_NORM_TOL`` by 1e6 * delta.

    w on the grid is its slice of the profile's one sample of w
    (:func:`_sampled`)."""
    rs, ws, _ = _sampled(profile, _NORM)
    non_increasing = bool((ws[1:] <= ws[:-1] * (1.0 + 1e-12) + 1e-300).all())
    end = float(ws[-1])
    passed = non_increasing and end <= _NORM_TOL
    note = "" if non_increasing else "; profile fails to be non-increasing"
    note += _unconverged_note(profile.outer_converged())
    return CheckResult(
        name="normalization",
        grid_size=_NORM_POINTS,
        worst_residual=end,
        passed=passed,
        detail=f"w({rs[-1]:.6g}) = {end:.6e}{note}",
    )


# ---------------------------------------------------------------------------
# energy growth


def _hermite(
    x: np.ndarray, xs: np.ndarray, ys: np.ndarray, ms: np.ndarray, i: Optional[np.ndarray] = None
) -> np.ndarray:
    """The cubic Hermite interpolant through (xs, ys) with slopes ms, at x.

    Each point takes the cubic of its knot interval, ``i`` where the
    caller has found it, else by a knot search.  The interval index is
    clamped, so a point outside [xs[0], xs[-1]] takes the end cubic.
    """
    if i is None:
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


# the Hermite basis at the five interior K7 nodes
_K7_BASIS = _hermite_basis(_K7_U[1:-1])


def _k7_on_cubic(g: Callable, y0: np.ndarray, coef: np.ndarray, h: np.ndarray, i, a, b) -> Tuple[np.ndarray, np.ndarray]:
    """K7 values and L4 error estimates (:func:`~liouville.quadrature._k7`)
    over the spans [a, b], as fractions, of the knot intervals i of width
    h, of an integrand read off each interval's own cubic: y0 at its left
    knot plus the rows ``coef`` (one column per interval) on
    :func:`_hermite_basis`.  ``g(i, u, y)`` is the integrand at the nodes'
    fractions u, where the cubic is y, one row per node and one column
    per span.  No knot search, and every sum is elementwise, so a span's
    bits do not depend on the others."""
    u = a + (b - a) * _K7_U[:, None]
    fx = g(i, u, sum(c * x for c, x in zip(coef[:, i], _hermite_basis(u))) + y0[i])
    return _k7(fx[0], fx[1:-1], fx[-1], 0.5 * (b - a) * h[i])


@dataclass(frozen=True)
class EnergyDiagnostic:
    """Cumulative source energy over balls and its scale-free ratios.

    ``energies[i]`` is the integral of f(w) over the ball of radius
    ``radii[i]`` restricted to the region where w < eps, computed in
    polar form.  ``ratios[i]`` normalizes by r**(n-p) * u(r)**(p-1)
    with u = min(w, eps); boundedness of the ratios across radii is the
    quantitative signature that the profile carries finite energy at
    every scale.
    """

    radii: Tuple[float, ...]
    energies: Tuple[float, ...]
    ratios: Tuple[float, ...]
    nondecreasing: bool
    spread: float
    passed: bool
    detail: str = ""

    def as_check(self) -> CheckResult:
        return CheckResult(
            name="energy",
            grid_size=len(self.radii),
            worst_residual=self.spread,
            passed=self.passed,
            detail=self.detail,
        )


@functools.cache
def _unit_energy_grid() -> np.ndarray:
    # the energy check's knots at delta = 1, which every scale multiplies:
    # 63 a decade from 1e-6, with the 64 radii, log-spaced over [1, 1e3], as
    # every 3rd knot from the 378th; read-only, as one copy serves all
    rs = np.geomspace(1.0, 1e3, _ENERGY_RADII)
    grid = np.geomspace(1e-6, rs[-1], _ENERGY_BELOW + _ENERGY_STRIDE * (rs.size - 1) + 1)
    grid[_ENERGY_BELOW::_ENERGY_STRIDE] = rs
    grid.flags.writeable = False
    return grid


def energy_diagnostic(profile: RadialProfile) -> EnergyDiagnostic:
    """Energies and ratios of :class:`EnergyDiagnostic` at the radii.

    w is read on a log grid of 63 knots a decade over [1e-6, 1e3] *
    delta, whose every 3rd knot from delta on is a radius, and
    interpolated log-log by the cubic Hermite with the exact slopes
    d ln w / d ln r = -r |w'(r)| / w(r), held constant below the sampled
    range.  w and |w'| at the knots are the check's slice of the
    profile's one sample (:func:`_sampled`), which takes both from one
    pass.  The energy density rho**n f(w~) in
    x = ln rho reads f at the interpolant's logs; it is integrated one
    K7 panel per knot interval, with L4 as the error estimate
    (:func:`~liouville.quadrature._k7`, one call for all panels), so no
    panel straddles a knot, where the interpolant is only C1, and below
    the first knot in closed form.  The panels' end nodes are the knots:
    the density is taken once at each knot, where w~ is w itself, and
    serves both panels that meet there.  At the five interior nodes of a
    panel ln w~ is its interval's own cubic on a basis fixed for all
    intervals, so there is no knot search, and f's log evaluator reads
    the nodes where w~ < eps, at most 3403, in one call.  Each ratio
    reads w at its radius's own knot.  A panel whose estimate misses
    both 1e-10 of its own value and 1e-10 of the smallest positive
    energy at the radii, shared evenly among the grid's 567 panels, is
    halved, with the others that miss, on its interval's cubic
    (:func:`~liouville.quadrature._bisect`, from its K7 value and
    estimate).  So every energy is held to about 2e-10, also where the
    density underflows and no panel can meet 1e-10 of its own value.
    Where w underflows to 0 inside the grid (w does not
    increase, so its positive knots are a prefix), w~ ends at the last
    positive knot: only the radii up to it are reported, with energies
    that do not depend on where w underflows, and ``detail`` says where
    it does and how many radii are dropped; with no radius left there
    is no ratio to bound, and the check fails.  If a halved panel does
    not converge, or the profile's table or outer cache fill did not,
    ``detail`` says so too.
    """
    params = profile.params
    n, p, eps = params.n, params.p, params.eps
    omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)

    at_r = slice(_ENERGY_BELOW, None, _ENERGY_STRIDE)
    grid, ws, gradients = _sampled(profile, _ENERGY)
    rs = grid[at_r]

    if ws[0] == 0.0:
        # identically zero profile: zero energy at every radius
        zeros = tuple(0.0 for _ in rs)
        return EnergyDiagnostic(
            radii=tuple(rs.tolist()),
            energies=zeros,
            ratios=zeros,
            nondecreasing=True,
            spread=1.0,
            passed=True,
            detail="profile vanishes identically; energy is zero at every radius",
        )

    # log-log Hermite of w over the positive knots, a prefix of the grid (w
    # does not increase), with the exact slopes d ln w / d ln r = -r |w'| / w;
    # the radii kept are those up to the last positive knot
    pos = ws > 0.0
    m = ws.size if pos.all() else int(pos.argmin())
    rs = rs[: max(0, (m - 1 - _ENERGY_BELOW) // _ENERGY_STRIDE + 1)]
    knots, w_k = grid[:m], ws[:m]
    ln_r, ln_w = np.log(knots), np.log(w_k)
    slopes = -knots * gradients[:m] / w_k
    ln_eps = math.log(eps)

    def density_at(x: np.ndarray, ln_wv: np.ndarray) -> np.ndarray:
        # rho**n f(w~) at rho = e**x, from ln w~, where w~ < eps, else 0
        small = ln_wv < ln_eps
        ln_d = np.full(x.shape, -np.inf)
        ln_d[small] = n * x[small] + _ln_f(profile.f, ln_wv[small], lambda: np.exp(ln_wv[small]))
        return np.exp(ln_d)

    # ln w~ at the knots, then at the interior K7 nodes of each interval,
    # one row per node: its left knot's value plus its cubic's rise,
    # (Delta ln w, h m0, h m1) on the fixed basis, summed elementwise
    h = np.diff(ln_r)
    rise = np.stack((np.diff(ln_w), h * slopes[:-1], h * slopes[1:]))
    basis = _K7_BASIS[:3, :, None]
    nodes = np.concatenate((ln_r, (ln_r[:-1] + h * _K7_U[1:-1, None]).ravel()))
    ln_wv = np.concatenate((ln_w, (ln_w[:-1] + (basis[0] * rise[0] + basis[1] * rise[1] + basis[2] * rise[2])).ravel()))
    at_nodes = _finite(density_at(nodes, ln_wv), nodes)
    ends, inner = at_nodes[:m], at_nodes[m:].reshape(_K7_BASIS.shape[1], -1)

    # below the first knot w~ = w_k[0]: the integral of rho**(n-1) f(w_k[0])
    head = ends[0] / n

    def at_radii(panels: np.ndarray) -> np.ndarray:
        # the integrals up to the radii, whose knots end panels 377, 380, ...
        return (head + np.cumsum(panels))[_ENERGY_BELOW - 1 :: _ENERGY_STRIDE]

    values, errors = _k7(ends[:-1], inner, ends[1:], 0.5 * h)
    sums = at_radii(values)
    smallest = sums[sums > 0.0][:1].sum()  # the first positive sum, or 0
    tol = Tolerance(rel=1e-10, absolute=1e-10 * smallest / (grid.size - 1))
    miss = np.flatnonzero(~(errors <= np.maximum(tol.absolute, tol.rel * np.abs(values))))

    def density_on(k, u, ln_wv):  # at the fractions u of the intervals k; a NaN names ln rho
        x = (ln_r[k] + h[k] * u).T
        return _finite(density_at(x, ln_wv.T), x).T

    halves = lambda j, a, b: _k7_on_cubic(density_on, ln_w, rise, h, miss[j], a, b)  # noqa: E731
    values[miss], _, _, converged = _bisect(
        halves, np.zeros(miss.size), np.ones(miss.size), tol, (values[miss], errors[miss])
    )
    en = omega * at_radii(values)
    ratios = (en * rs ** (p - n) / np.minimum(ws[at_r][: rs.size], eps) ** (p - 1.0)).tolist()

    nondecreasing = bool((en[1:] >= en[:-1] * (1.0 - 1e-12) - 1e-300).all())
    positive = [x for x in ratios if x > 0.0]
    if not ratios:  # w underflows before the first radius: no ratio to bound
        med = 0.0
        spread = math.inf
    elif len(positive) == len(ratios):
        med = sorted(ratios)[len(ratios) // 2]
        spread = max(max(ratios) / med, med / min(ratios))
    elif not positive:
        med = 0.0
        spread = 1.0
    else:
        med = 0.0
        spread = math.inf
    passed = nondecreasing and spread <= _ENERGY_BOUND
    dropped = ""
    if m < grid.size:
        dropped = (
            f"; w underflows to 0 past r={float(grid[m - 1]):.6g}, "
            f"so {_ENERGY_RADII - rs.size} of {_ENERGY_RADII} radii are dropped"
        )
    return EnergyDiagnostic(
        radii=tuple(rs.tolist()),
        energies=tuple(en.tolist()),
        ratios=tuple(ratios),
        nondecreasing=nondecreasing,
        spread=spread,
        passed=passed,
        detail=(
            f"energy ratios span a factor {spread:.3g} around the median "
            f"{med:.6g}; monotone growth: {nondecreasing}"
            + dropped
            + _unconverged_note(converged.all() and profile.outer_converged())
        ),
    )


# ---------------------------------------------------------------------------
# behaviour under delta halving


@dataclass(frozen=True)
class DeltaLimitReport:
    """sup w under successive halvings of the scale parameter."""

    deltas: Tuple[float, ...]
    sups: Tuple[float, ...]
    strictly_decreasing: bool
    final: float
    passed: bool
    detail: str = ""

    def as_check(self) -> CheckResult:
        return CheckResult(
            name="delta_limit",
            grid_size=len(self.deltas),
            worst_residual=self.final,
            passed=self.passed,
            detail=self.detail,
        )


def delta_limit_check(f: Nonlinearity, params: StructureParams, j_count: int = 10) -> DeltaLimitReport:
    """Track sup w at delta = 2**-j for j = 0 .. j_count.  The sups must
    decrease strictly and end at most ``_DELTA_THRESHOLD`` (an
    identically zero profile passes trivially).  One profile is built,
    at delta = 1; the other scales are its rescaled views
    (:meth:`~liouville.construct.RadialProfile.rescaled`).  All of them
    read sup w = w(0) off one shared outer cache, filled once, in
    closed form below the cache, so the sups cost no further
    quadrature."""
    if j_count < 1:
        raise ValueError(f"j_count must be >= 1, got {j_count!r}")
    deltas = tuple(_DELTA0 * 2.0**-j for j in range(j_count + 1))
    base = RadialProfile(f, params, _DELTA0, DEFAULT_TOLERANCE)
    sups = tuple(sup_profile(base.rescaled(d)) for d in deltas)
    if all(s == 0.0 for s in sups):
        return DeltaLimitReport(
            deltas=deltas,
            sups=sups,
            strictly_decreasing=False,
            final=0.0,
            passed=True,
            detail="profile vanishes identically at every scale",
        )
    strictly = all(b < a for a, b in zip(sups, sups[1:]))
    final = sups[-1]
    passed = strictly and final <= _DELTA_THRESHOLD
    return DeltaLimitReport(
        deltas=deltas,
        sups=sups,
        strictly_decreasing=strictly,
        final=final,
        passed=passed,
        detail=(
            f"sup w falls from {sups[0]:.6e} to {final:.6e} over "
            f"{j_count} halvings; strict decrease: {strictly}"
        ),
    )


# ---------------------------------------------------------------------------
# the full profile report


def verify_profile(profile: RadialProfile) -> VerificationReport:
    """Run the five profile checks, each on its fixed grid against its
    fixed threshold, and fold them into one report."""
    checks = (
        flux_identity_check(profile),
        supersolution_check(profile),
        gradient_decay_check(profile),
        normalization_check(profile),
        energy_diagnostic(profile).as_check(),
    )
    return VerificationReport(checks=checks, overall=all(c.passed for c in checks))

"""Numerical certificates for a constructed radial profile.

Every check here re-derives a property of the profile through a route
different from the one used to build it, reports the worst residual it
saw, and says pass or fail against an explicit threshold.  Nothing is
asserted; callers (CLI, tests) decide what a failure means.  Grids and
thresholds are fixed module constants, with radii in units of delta.

The five profile checks:

* flux identity: on 13 log-spaced radii over [1e-2, 1e2] * delta, the
  increment of the radial flux r**(n-1) |w'(r)|**(p-1) across the
  window [r - h, r + h], h = 1e-3 r, must match a fresh quadrature of
  the source term over the same window within a relative defect of
  1e-6.  The flux is I by construction, so its increment is read off
  the profile's table as the table's own integral over the window: the
  dense output of its panels, with no running sum between the window's
  ends where it crosses one knot or none; the quadrature integrates the
  source term afresh over the window.
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
  energy density is integrated one K7 panel per knot interval of the
  profile's table over [1e-6, 1e3] * delta, with w at the panels' nodes
  read off the outer cache's record: the density is taken once at each
  knot, and at five interior nodes per panel.  Where w underflows to 0
  in that range, only the radii up to its last positive knot are
  reported.

The supersolution, normalization and energy checks read w at their
radii off one sample per profile table, taken at delta = 1 on the union
of their grids in one pass and scaled to the profile's delta
(:func:`_sampled`).

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
from typing import Tuple

import numpy as np

from ._record import tuple_record
from .construct import _K7_U, RadialProfile, _k7_fill, _Panels, sup_profile
from .criterion import StructureParams
from .nonlinearity import Nonlinearity, _ln_f
from .quadrature import DEFAULT_TOLERANCE, Tolerance, _finite, _k7, integrate_intervals
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


@tuple_record
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


@tuple_record
class VerificationReport:
    checks: Tuple[CheckResult, ...]
    overall: bool


def _unconverged_note(converged: bool) -> str:
    return "" if converged else "; quadrature did not converge"


# The checks' fixed grids, with radii in units of delta, and thresholds,
# as the module docstring gives them.
_FLUX_RADII = 13
_FLUX_H = 1e-3
_FLUX_TARGET = 1e-6
_SUPER_RADII = 200
_ENVELOPE_SLACK = 1e-12
_SUPER_SLACK = 1e-10
_DECAY_LEVELS = 40
_DECAY_TOL = 1e-6
_NORM_POINTS = 64
_NORM_TOL = 1e-3
_ENERGY_RADII = 64
# the energy check's radii lie over [1, _ENERGY_TO], and its integral runs
# from _ENERGY_FROM
_ENERGY_FROM, _ENERGY_TO = 1e-6, 1e3
_ENERGY_BOUND = 1e3
_DELTA0 = 1.0
_DELTA_THRESHOLD = 1e-3


# ---------------------------------------------------------------------------
# flux identity


def _flux_defects(
    profile: RadialProfile, r: np.ndarray, h: np.ndarray
) -> Tuple[np.ndarray, bool]:
    # the relative defect of the flux identity over each window
    # [r[i] - h[i], r[i] + h[i]]: the flux increment across it, which is
    # I's, read off the profile's table as its own integral over the window
    # (its part on the table), against a fresh quadrature of the source
    # term, normalized by the larger of the two, all windows in one
    # batched pass; and whether every source quadrature converged
    bad = np.flatnonzero(~((0.0 < h) & (h < r)))
    if bad.size:
        i = bad[0]
        raise ValueError(f"need 0 < h < r, got h={float(h[i])!r}, r={float(r[i])!r}")
    ln_delta = math.log(profile.delta)
    unit = profile._table.increment(np.log(r - h) - ln_delta, np.log(r + h) - ln_delta)
    lhs = profile._delta_power(profile.params.n) * unit
    rhs = integrate_intervals(profile._source, r - h, r + h, Tolerance(rel=1e-13, absolute=0.0))
    den = np.maximum(np.abs(lhs), np.abs(rhs.values))
    with np.errstate(invalid="ignore"):
        defects = np.where(den == 0.0, 0.0, np.abs(lhs - rhs.values) / den)
    return defects, rhs.converged


def flux_identity_check(profile: RadialProfile) -> CheckResult:
    """Windowed flux-balance check at each radius.

    By construction r**(n-1) |w'|**(p-1) = I(r), so the flux increment
    across the window [r - h, r + h], h = ``_FLUX_H`` times r, is I's:
    the table's own integral over the window
    (:meth:`~liouville.construct._UnitTable.increment`), which must match
    a fresh quadrature of the source term.  A window this narrow crosses
    at most one knot, so no difference of running sums enters it.
    ``detail`` says so when a source quadrature did not converge.
    """
    radii = np.geomspace(0.01 * profile.delta, 100.0 * profile.delta, _FLUX_RADII)
    defects, converged = _flux_defects(profile, radii, _FLUX_H * radii)
    i = int(np.argmax(defects))
    worst, worst_r = (float(defects[i]), float(radii[i])) if defects[i] > 0.0 else (0.0, None)
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
    # and the energy radii, about 320 radii; then the positions of those
    # three grids in it.  Read-only, as one copy serves all.  Sorted in
    # Python: numpy's sort maps about 1 MB of code pages on first use.
    grids = (
        np.geomspace(1e-6, 1e6, _SUPER_RADII),
        np.geomspace(1e-6, 1e6, _NORM_POINTS),
        np.geomspace(1.0, _ENERGY_TO, _ENERGY_RADII),
    )
    radii = np.array(sorted(set(np.concatenate(grids).tolist())))
    out = (radii, *(np.searchsorted(radii, g) for g in grids))
    for a in out:
        a.flags.writeable = False
    return out


_SUPER, _NORM, _ENERGY = range(3)


def _sampled(profile: RadialProfile, grid: int) -> Tuple[np.ndarray, np.ndarray]:
    # one check's radii at the profile's delta, and w there: its slice of
    # the profile's sample, which is read once per table
    # (:meth:`~liouville.construct.RadialProfile._sample`) for all three
    radii, *at = _unit_sample()
    i = at[grid]
    return profile.delta * radii[i], profile._sample(radii)[i]


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
    rs, ws = _sampled(profile, _SUPER)
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
    rs, ws = _sampled(profile, _NORM)
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


@tuple_record
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


def energy_diagnostic(profile: RadialProfile) -> EnergyDiagnostic:
    """Energies and ratios of :class:`EnergyDiagnostic` at the radii.

    The energy density rho**n f(w) in x = ln rho is integrated one K7
    panel per knot interval of the profile's table over [1e-6, 1e3] *
    delta (about 1150 intervals, 128 a decade), with L4 as the error
    estimate (:func:`~liouville.construct._k7_fill`, one call for all
    panels), and below the first knot as rho**(n-1) f(w) with w held at
    its value there.  The table's knots are fixed in s = rho/delta, so
    they serve every delta, and w at their K7 nodes is read at delta = 1
    and scaled (:meth:`~liouville.construct.RadialProfile._node_sample`):
    at the knots it is the outer cache W, and at the five interior nodes
    of an interval the outer record's dense output, so f's log
    evaluator reads all the nodes, at most 6919, in one call (at eps
    where w >= eps, whose density is 0), and the density goes straight
    into the node stack of the check's record, with no concatenated
    copies of the nodes.
    A panel whose estimate misses both 1e-10 of its own value and 1e-10
    of the smallest positive energy at the radii, shared evenly among
    the panels, is halved, with the others that miss, with w read at the
    halves' nodes as :meth:`~liouville.construct.RadialProfile.values_on_grid`
    reads it.  So each energy is held to about 2e-10 of the integral of
    f of w, also where the density underflows and no panel can meet
    1e-10 of its own value.  The energy at a radius is the running sum
    of the panels up to the knot below it plus the dense output of the
    density in its interval (:meth:`~liouville.construct._Panels.span`),
    and each ratio reads w at its radius from the profile's one sample
    (:func:`_sampled`).  Where w underflows to 0 inside the range (w
    does not increase, so its positive knots are a prefix), the panels
    end at the last positive knot: only the radii up to it are
    reported, with energies that do not depend on where w underflows,
    and ``detail`` says where it does and how many radii are dropped.
    With no radius left, or a zero energy at one (as where w >= eps up
    to it), there is no ratio to bound, and the check fails.  If a
    halved panel does not converge, or the profile's table
    or outer cache fill did not, ``detail`` says so too.
    """
    params = profile.params
    n, p, eps = params.n, params.p, params.eps
    omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    rs, w_r = _sampled(profile, _ENERGY)
    t = profile._table
    if t.s.size:
        part, w, w_inner = profile._node_sample(_ENERGY_FROM, _ENERGY_TO)

    if not t.s.size or w[0] == 0.0:
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

    # the panels end at the last positive knot, and the radii kept are
    # those up to it
    pos = w > 0.0
    m = w.size if pos.all() else int(pos.argmin())
    x = t.ln_s[part.start : part.start + m] + math.log(profile.delta)
    h = t.h[part][: m - 1]
    ln_r = np.log(rs)
    kept = int(np.searchsorted(ln_r, x[-1], side="right"))
    rs = rs[:kept]

    def density(x: np.ndarray, w: np.ndarray, at) -> np.ndarray:
        # rho**n f(w) at rho = e**x, where 0 < w < eps, else 0 (with f read
        # at eps there), written over x, the log of the nodes' rho; w is
        # overwritten with where f is read (at as in _finite)
        small = (w > 0.0) & (w < eps)
        np.copyto(w, eps, where=~small)
        ln_f = _ln_f(profile.f, np.log(w), w)
        x *= n
        x += ln_f
        np.copyto(x, -np.inf, where=~small)
        return _finite(np.exp(x, out=x), at)

    # the density at the knots, then at the interior K7 nodes of each
    # interval, in one pass over the node stack with one more value in
    # front: its first m + 5 (m - 1) entries take the knots (knot 0 in
    # front, the others in row 0) and the interior nodes (rows 1 to 5);
    # then row 6 takes the knots after the first, and row 0 those before
    # the last, one entry along
    flat = np.empty(7 * (m - 1) + 1)
    nodes = flat[1:].reshape(7, m - 1)
    ln_rho, w_at = flat[: 6 * m - 5], np.empty(6 * m - 5)
    ln_rho[:m], w_at[:m] = x, w[:m]
    w_at[m:].reshape(5, m - 1)[:] = w_inner[:, : m - 1]
    del w_inner  # copied: f's pass needs only w_at
    for row, u in zip(nodes[1:-1], _K7_U[1:-1]):
        np.multiply(h, u, out=row)
        row += x[:-1]
    density(ln_rho, w_at, lambda: np.concatenate((x, (x[:-1] + h * _K7_U[1:-1, None]).ravel())))
    del w_at
    nodes[-1] = nodes[0]
    flat[1:m] = flat[: m - 1]

    # below the first knot w is held at its value there: the integral of
    # rho**(n-1) f(w)
    head = flat[0] / n
    # the knot interval of each radius kept, as the record's knot search finds it
    i = np.searchsorted(x[1:-1], ln_r[:kept], side="right")

    def knot_sums(values: np.ndarray) -> np.ndarray:
        return np.concatenate(([head], head + np.cumsum(values)))

    def tolerance(values: np.ndarray) -> Tolerance:
        # 1e-10 of a panel's value, or of the smallest positive energy at the
        # radii, which the sums at the knots below them bound (the first
        # positive one, or 0), shared evenly among the range's panels
        below = knot_sums(values)[i]
        return Tolerance(rel=1e-10, absolute=1e-10 * below[below > 0.0][:1].sum() / (w.size - 1))

    def halves(j: np.ndarray, a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # K7 values and L4 estimates over the spans [a, b], as fractions, of
        # the knot intervals j, with w at their nodes as values_on_grid reads it
        ln_rho = lambda: x[j] + h[j] * (a + (b - a) * _K7_U[:, None])  # noqa: E731
        xs = ln_rho()
        fx = density(xs, profile._on_grid(np.exp(xs).ravel()).reshape(xs.shape), ln_rho)
        return _k7(fx[0], fx[1:-1], fx[-1], 0.5 * (b - a) * h[j])

    values, errors, _, converged = _k7_fill(nodes, 0.5 * h, tolerance, halves)
    record = _Panels(x, h, nodes, knot_sums(values), converged, float(errors.sum()))
    en = omega * (record.sums[i] + record.span(*record.locate(ln_r[:kept], i)))
    ratios = (en * rs ** (p - n) / np.minimum(w_r[:kept], eps) ** (p - 1.0)).tolist()

    nondecreasing = bool((en[1:] >= en[:-1] * (1.0 - 1e-12) - 1e-300).all())
    if ratios and min(ratios) > 0.0:
        med = sorted(ratios)[len(ratios) // 2]
        spread = max(max(ratios) / med, med / min(ratios))
    else:  # no radius kept, or a zero energy: no ratio to bound
        med = 0.0
        spread = math.inf
    passed = nondecreasing and spread <= _ENERGY_BOUND
    dropped = ""
    if m < w.size:
        dropped = (
            f"; w underflows to 0 past r={profile.delta * float(t.s[part.start + m - 1]):.6g}, "
            f"so {_ENERGY_RADII - kept} of {_ENERGY_RADII} radii are dropped"
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
            + _unconverged_note(converged and profile.outer_converged())
        ),
    )


# ---------------------------------------------------------------------------
# behaviour under delta halving


@tuple_record
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

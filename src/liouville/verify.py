"""Numerical certificates for a constructed radial profile.

Every check here re-derives a property of the profile through a route
different from the one used to build it, reports the worst residual it
saw, and says pass or fail against an explicit threshold.  Nothing is
asserted; callers (CLI, tests) decide what a failure means.

The five profile checks:

* flux identity: the windowed increment of the radial flux
  r**(n-1) |w'(r)|**(p-1) must match a fresh quadrature of the source
  term over the same window.  This confronts the cached inner integral
  with direct integration.
* supersolution: the envelope must dominate the profile and, through
  monotonicity of f, the source f(env) must dominate f(w) pointwise.
* gradient decay: |w'| along radii delta * 2**-j must peak early, then
  decrease monotonically below tolerance; the source integral at the
  smallest radius must be negligible too.
* normalization: w must be non-increasing and small at the far end of
  the grid.
* energy: the ball-averaged source energy must grow monotonically and
  its natural normalization must stay within a bounded factor of its
  median across two decades of radii.

The three checks that read w on a grid (supersolution, normalization,
energy) append "quadrature did not converge" to their detail when the
profile's outer cache fill, which those values rest on, did not
converge.

:func:`delta_limit_check` is a family-level check (it builds its own
profile, once, and reads the other scales off it): sup w must decrease
strictly under halvings of delta and fall below a threshold, witnessing
that small data force small supersolutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .construct import MonoCubic, RadialProfile, sup_profile
from .criterion import StructureParams
from .nonlinearity import Nonlinearity
from .quadrature import DEFAULT_TOLERANCE, Tolerance, integrate, integrate_segments

__all__ = [
    "CheckResult",
    "VerificationReport",
    "flux_residual_at",
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


def _geom(lo: float, hi: float, num: int) -> List[float]:
    return [float(x) for x in np.geomspace(lo, hi, num)]


def _unconverged_note(profile: RadialProfile, converged: bool = True) -> str:
    # the profile's grid values rest on its outer cache fill
    if converged and profile.outer_converged():
        return ""
    return "; quadrature did not converge"


# ---------------------------------------------------------------------------
# flux identity


def _flux(profile: RadialProfile, r: float) -> float:
    gm = profile.gradient_magnitude(r)
    if gm == 0.0:
        return 0.0
    n, p = profile.params.n, profile.params.p
    return math.exp((n - 1) * math.log(r) + (p - 1.0) * math.log(gm))


def flux_residual_at(profile: RadialProfile, r: float, h: float) -> float:
    """Relative defect of the flux identity over the window [r-h, r+h].

    The increment of the flux across the window is compared with a
    fresh quadrature of the source term; the defect is normalized by
    the larger of the two.  Second-order accurate in h for smooth
    integrands, so halving h should shrink it about fourfold until
    quadrature noise takes over.
    """
    if not 0.0 < h < r:
        raise ValueError(f"need 0 < h < r, got h={h!r}, r={r!r}")
    lhs = _flux(profile, r + h) - _flux(profile, r - h)
    rhs = integrate(
        profile._source, r - h, r + h, Tolerance(rel=1e-13, absolute=0.0)
    ).value
    den = max(abs(lhs), abs(rhs))
    if den == 0.0:
        return 0.0
    return abs(lhs - rhs) / den


def flux_identity_check(
    profile: RadialProfile,
    radii: Optional[Sequence[float]] = None,
    target: float = 1e-6,
    h_factors: Sequence[float] = (1e-2, 1e-3, 1e-4, 1e-5),
) -> CheckResult:
    """Windowed flux-balance check at each radius.

    The window half-width adapts: each factor of ``h_factors`` times r
    is tried and the smallest residual kept, so the check is not fooled
    by windows too wide (curvature) or too narrow (cancellation).
    """
    if radii is None:
        radii = _geom(0.01 * profile.delta, 100.0 * profile.delta, 13)
    worst = 0.0
    worst_r = None
    for r in radii:
        best = math.inf
        for fac in h_factors:
            res = flux_residual_at(profile, r, fac * r)
            if res < best:
                best = res
        if best > worst:
            worst = best
            worst_r = r
    return CheckResult(
        name="flux_identity",
        grid_size=len(list(radii)),
        worst_residual=worst,
        passed=worst <= target,
        detail=f"worst relative flux defect {worst:.3e} at r={worst_r!r}",
    )


# ---------------------------------------------------------------------------
# supersolution


def supersolution_check(
    profile: RadialProfile,
    radii: Optional[Sequence[float]] = None,
    slack: float = 1e-10,
    envelope_slack: float = 1e-12,
) -> CheckResult:
    """Pointwise certificate that the profile is a supersolution.

    Two facts are verified on the grid: env(r) >= w(r) up to
    ``envelope_slack``, and f(env(r)) - f(w(r)) >= -``slack``.  The
    second is the quantity the differential inequality actually needs;
    it is reported as the worst residual.
    """
    if radii is None:
        radii = _geom(1e-6 * profile.delta, 1e6 * profile.delta, 200)
    rs = list(radii)
    ws = profile.values_on_grid(rs)
    f = profile.f
    worst = math.inf
    worst_r = None
    dominated = True
    for r, w in zip(rs, ws):
        env = profile.envelope_value(r)
        if env - w < -envelope_slack:
            dominated = False
        res = f(env) - f(w)
        if res < worst:
            worst = res
            worst_r = r
    passed = dominated and worst >= -slack
    note = "" if dominated else "; envelope fails to dominate the profile"
    note += _unconverged_note(profile)
    return CheckResult(
        name="supersolution",
        grid_size=len(rs),
        worst_residual=worst,
        passed=passed,
        detail=f"min of f(env)-f(w) is {worst:.3e} at r={worst_r!r}{note}",
    )


# ---------------------------------------------------------------------------
# gradient decay


def gradient_decay_check(
    profile: RadialProfile,
    levels: int = 40,
    tol_value: float = 1e-6,
) -> CheckResult:
    """|w'| along the halving radii delta * 2**-j, j = 0 .. levels.

    The magnitude may rise at first (it typically peaks near delta/2)
    but must peak within the first half of the levels, decrease
    monotonically afterwards, and end below ``tol_value``; the inner
    integral at the smallest radius must be below ``tol_value`` too.
    """
    if levels < 4:
        raise ValueError(f"levels must be >= 4, got {levels!r}")
    rs = [profile.delta * 2.0**-j for j in range(levels + 1)]
    vs = [profile.gradient_magnitude(r) for r in rs]
    peak = max(range(len(vs)), key=lambda i: vs[i])
    monotone = all(
        vs[i + 1] <= vs[i] * (1.0 + 1e-12) + 1e-300 for i in range(peak, len(vs) - 1)
    )
    source_end = profile.inner_integral(rs[-1])
    passed = (
        peak <= levels // 2
        and monotone
        and vs[-1] <= tol_value
        and source_end <= tol_value
    )
    return CheckResult(
        name="gradient_decay",
        grid_size=levels + 1,
        worst_residual=vs[-1],
        passed=passed,
        detail=(
            f"peak at level {peak}, terminal gradient {vs[-1]:.3e}, "
            f"terminal source integral {source_end:.3e}"
        ),
    )


# ---------------------------------------------------------------------------
# normalization


def normalization_check(
    profile: RadialProfile,
    r_max: Optional[float] = None,
    tol_value: float = 1e-3,
    points: int = 64,
) -> CheckResult:
    """w must be non-increasing and fall below ``tol_value`` by r_max."""
    if r_max is None:
        r_max = 1e6 * profile.delta
    rs = _geom(1e-6 * profile.delta, r_max, points)
    ws = profile.values_on_grid(rs)
    non_increasing = all(
        ws[i + 1] <= ws[i] * (1.0 + 1e-12) + 1e-300 for i in range(len(ws) - 1)
    )
    passed = non_increasing and ws[-1] <= tol_value
    note = "" if non_increasing else "; profile fails to be non-increasing"
    note += _unconverged_note(profile)
    return CheckResult(
        name="normalization",
        grid_size=points,
        worst_residual=ws[-1],
        passed=passed,
        detail=f"w({rs[-1]:.6g}) = {ws[-1]:.6e}{note}",
    )


# ---------------------------------------------------------------------------
# energy growth


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


def energy_diagnostic(
    profile: RadialProfile,
    radii: Optional[Sequence[float]] = None,
    bound_factor: float = 1e3,
) -> EnergyDiagnostic:
    """Energies and ratios of :class:`EnergyDiagnostic` at ``radii``.

    w is sampled on a 512-point log grid by ``values_on_grid`` and
    interpolated log-log by a monotone cubic, held constant below and
    above the sampled range.  The interpolant is only C1 at its knots,
    so the energy integral is cut into panels at every knot inside
    (0, radii[-1]) as well as at the radii, and all panels are
    integrated in one batch
    (:func:`~liouville.quadrature.integrate_segments`).  If a panel the
    batched rule could not certify also fails to converge on its scalar
    redo, or the profile's outer cache fill did not converge, ``detail``
    says so.
    """
    if radii is None:
        radii = _geom(profile.delta, 1e3 * profile.delta, 64)
    rs = list(radii)
    if any(b < a for a, b in zip(rs, rs[1:])):
        raise ValueError("radii must be non-decreasing")
    params = profile.params
    n, p, eps = params.n, params.p, params.eps
    omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    f = profile.f

    grid = _geom(1e-6 * rs[0], rs[-1], 512)
    ws = profile.values_on_grid(grid)

    if ws[0] == 0.0:
        # identically zero profile: zero energy at every radius
        zeros = tuple(0.0 for _ in rs)
        return EnergyDiagnostic(
            radii=tuple(rs),
            energies=zeros,
            ratios=zeros,
            nondecreasing=True,
            spread=1.0,
            passed=True,
            detail="profile vanishes identically; energy is zero at every radius",
        )

    # log-log interpolant of w over the positive part of the grid
    pos = [(g, w) for g, w in zip(grid, ws) if w > 0.0]
    interp = MonoCubic([math.log(g) for g, _ in pos], [math.log(w) for _, w in pos])
    knots = np.array([g for g, _ in pos])
    w_lo, w_hi = pos[0][1], pos[-1][1]

    def w_tilde(rho: np.ndarray) -> np.ndarray:
        # np.log may put a knot one ulp past its math.log value
        inside = np.exp(interp.values(np.clip(np.log(rho), interp.xs[0], interp.xs[-1])))
        return np.where(rho <= knots[0], w_lo, np.where(rho >= knots[-1], w_hi, inside))

    def e_density(rho: np.ndarray) -> np.ndarray:
        wv = w_tilde(rho)
        small = wv < eps
        out = np.zeros_like(rho)
        out[small] = rho[small] ** (n - 1) * f.values(wv[small])
        return out

    shells, pieces = integrate_segments(
        e_density, [0.0] + rs, knots, Tolerance(rel=1e-10, absolute=0.0)
    )
    energies = (omega * np.cumsum(shells)).tolist()

    ratios: List[float] = []
    for r, en, w in zip(rs, energies, w_tilde(np.array(rs)).tolist()):
        u = min(w, eps)
        ratios.append(en * r ** (p - n) / u ** (p - 1.0))

    nondecreasing = all(
        energies[i + 1] >= energies[i] * (1.0 - 1e-12) - 1e-300
        for i in range(len(energies) - 1)
    )
    positive = [x for x in ratios if x > 0.0]
    if len(positive) == len(ratios):
        med = sorted(ratios)[len(ratios) // 2]
        spread = max(max(ratios) / med, med / min(ratios))
    elif not positive:
        med = 0.0
        spread = 1.0
    else:
        med = 0.0
        spread = math.inf
    passed = nondecreasing and spread <= bound_factor
    return EnergyDiagnostic(
        radii=tuple(rs),
        energies=tuple(energies),
        ratios=tuple(ratios),
        nondecreasing=nondecreasing,
        spread=spread,
        passed=passed,
        detail=(
            f"energy ratios span a factor {spread:.3g} around the median "
            f"{med:.6g}; monotone growth: {nondecreasing}"
            + _unconverged_note(profile, pieces.converged)
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


def delta_limit_check(
    f: Nonlinearity,
    params: StructureParams,
    j_count: int = 10,
    threshold: float = 1e-3,
    delta0: float = 1.0,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> DeltaLimitReport:
    """Track sup w at delta0 * 2**-j for j = 0 .. j_count.  The sups
    must decrease strictly and end below ``threshold`` (an identically
    zero profile passes trivially).  One profile is built, at delta0;
    the other scales are its rescaled views
    (:meth:`~liouville.construct.RadialProfile.rescaled`).  All of them
    read sup w = w(0) off one shared outer cache, filled once, in
    closed form below the cache, so the sups cost no further
    quadrature."""
    if j_count < 1:
        raise ValueError(f"j_count must be >= 1, got {j_count!r}")
    deltas = tuple(delta0 * 2.0**-j for j in range(j_count + 1))
    base = RadialProfile(f, params, delta0, tol)
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
    passed = strictly and final <= threshold
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
    """Run the five profile checks, each at its own default threshold,
    and fold them into one report."""
    checks = (
        flux_identity_check(profile),
        supersolution_check(profile),
        gradient_decay_check(profile),
        normalization_check(profile),
        energy_diagnostic(profile).as_check(),
    )
    return VerificationReport(checks=checks, overall=all(c.passed for c in checks))

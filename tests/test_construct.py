"""Radial profile construction against the closed-form instance.

For n=3, p=2, f=z^4, eps=delta=1 everything is elementary:

    I(z)  = z^3 / (3 (1+z)^3)
    w(r)  = (1+2r) / (6 (1+r)^2)

and in general scaling is exact: I_delta(z) = delta^3 I_1(z/delta),
w_delta(r) = delta^2 w_1(r/delta) for this p.
"""

import bisect
import math
import re
import time
import tracemalloc
import warnings
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville import (
    CriterionUndecidedError,
    DeltaSearchError,
    DeltaSearchOptions,
    DivergentIntegralError,
    DomainError,
    EvalOverflow,
    Power,
    PowerLog,
    QuadratureError,
    RadialProfile,
    StructureParams,
    Tolerance,
    change_of_variables_check,
    critical_exponent,
    decay_bound,
    envelope,
    find_delta,
    integrate_intervals,
    parse_nonlinearity,
    sup_profile,
)
import liouville.construct as construct_module
import liouville.quadrature as quadrature_module
import liouville.verify as verify_module
from liouville.verify import delta_limit_check, energy_diagnostic

from conftest import (
    deadline,
    fresh_interpreter,
    grad_exact,
    inner_exact,
    math_twin,
    partial_span_passes,
    quad_ref,
    source_limit,
    transient_bytes,
    w_exact,
)


# ---------------------------------------------------------------------------
# envelope


def test_envelope_closed_form(params32):
    env = envelope(params32, 1.0)
    assert env(0.0) == 1.0
    assert env(1.0) == 0.5
    assert env(9.0) == pytest.approx(0.1, rel=1e-15)


def test_envelope_decay_exponent(params42):
    # k = (n-p)/(p-1) = 2
    env = envelope(params42, 1.0)
    assert env(999.0) == pytest.approx(1e-6, rel=1e-12)


def test_envelope_rejects_negative_radius(params32):
    env = envelope(params32, 1.0)
    with pytest.raises(DomainError):
        env(-1e-9)


def test_envelope_scale_matches_profile(instance_profile):
    env = envelope(StructureParams(3, 2.0), 1.0)
    for r in (0.0, 0.5, 3.0, 1e4):
        assert instance_profile.envelope_value(r) == env(r)


# ---------------------------------------------------------------------------
# inner integral


class TestInnerIntegral:
    def test_instance_values(self, instance_profile):
        assert instance_profile.inner_integral(1.0) == pytest.approx(1.0 / 24.0, abs=1e-9)
        assert instance_profile.inner_integral(0.1) == pytest.approx(
            inner_exact(0.1), rel=1e-8
        )

    def test_limit(self, instance_profile):
        assert instance_profile.inner_limit() == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert instance_profile.inner_integral(math.inf) == instance_profile.inner_limit()

    def test_below_cache_is_direct_quadrature(self, instance_profile):
        z = 1e-10  # cache starts at 1e-8
        assert instance_profile.inner_integral(z) == pytest.approx(z**3 / 3.0, rel=1e-9)

    def test_above_cache_extends_exactly(self, instance_profile):
        z = 5e8  # cache ends at 1e8
        assert instance_profile.inner_integral(z) == pytest.approx(
            inner_exact(z), rel=1e-7
        )

    def test_zero_and_negative(self, instance_profile):
        assert instance_profile.inner_integral(0.0) == 0.0
        assert instance_profile.inner_integral(-3.0) == 0.0

    def test_monotone_in_z(self, instance_profile):
        zs = np.geomspace(1e-6, 1e6, 200)
        vals = [instance_profile.inner_integral(float(z)) for z in zs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_scaling_in_delta(self, params32):
        prof2 = RadialProfile(Power(4.0), params32, 2.0)
        # I_delta(z) = delta^3 I_1(z/delta)
        for z in (0.5, 1.0, 4.0, 40.0):
            assert prof2.inner_integral(z) == pytest.approx(
                8.0 * inner_exact(z / 2.0), rel=1e-7
            )


# ---------------------------------------------------------------------------
# profile values


class TestProfile:
    def test_center_and_unit_values(self, instance_profile):
        assert instance_profile.profile_value(0.0) == pytest.approx(1.0 / 6.0, abs=1e-7)
        assert instance_profile.profile_value(1.0) == pytest.approx(1.0 / 8.0, abs=1e-7)

    def test_far_field_value(self, instance_profile):
        assert instance_profile.profile_value(1000.0) == pytest.approx(
            w_exact(1000.0), rel=1e-8
        )

    def test_infinity_is_zero(self, instance_profile):
        assert instance_profile.profile_value(math.inf) == 0.0

    def test_negative_radius_raises(self, instance_profile):
        with pytest.raises(DomainError):
            instance_profile.profile_value(-0.5)

    def test_grid_matches_pointwise(self, instance_profile):
        radii = [0.0, 0.125, 1.0, 7.3, 250.0]
        ws = instance_profile.values_on_grid(radii)
        # both routes are exact up to the cache interpolant's resolution
        for r, w in zip(radii, ws):
            assert w == pytest.approx(instance_profile.profile_value(r), rel=1e-8, abs=1e-13)

    def test_grid_requires_ascending_radii(self, instance_profile):
        with pytest.raises(ValueError):
            instance_profile.values_on_grid([1.0, 0.5])

    def test_grid_against_closed_form(self, instance_profile):
        radii = list(np.geomspace(1e-6, 1e6, 120))
        ws = instance_profile.values_on_grid(radii)
        for r, w in zip(radii, ws):
            assert w == pytest.approx(w_exact(r), rel=1e-7)

    def test_gradient_magnitude(self, instance_profile):
        assert instance_profile.gradient_magnitude(0.1) == pytest.approx(
            grad_exact(0.1), rel=1e-8
        )
        assert instance_profile.gradient_magnitude(10.0) == pytest.approx(
            grad_exact(10.0), rel=1e-8
        )

    def test_sup_is_center_value(self, instance_profile):
        assert sup_profile(instance_profile) == instance_profile.profile_value(0.0)

    def test_sup_scaling_in_delta(self, params32):
        # w_delta(0) = delta^2 / 6 for this instance
        for delta in (0.5, 2.0):
            prof = RadialProfile(Power(4.0), params32, delta)
            assert sup_profile(prof) == pytest.approx(delta**2 / 6.0, rel=1e-7)

    def test_zero_nonlinearity_gives_zero_profile(self, params32):
        prof = RadialProfile(parse_nonlinearity("0"), params32, 1.0)
        assert prof.inner_limit() == 0.0
        assert prof.profile_value(0.0) == 0.0
        assert prof.profile_value(3.0) == 0.0

    def test_rejects_bad_delta(self, params32):
        with pytest.raises(ValueError):
            RadialProfile(Power(4.0), params32, 0.0)

    def test_requires_n_above_p(self):
        with pytest.raises(Exception):
            RadialProfile(Power(4.0), StructureParams(2, 2.0), 1.0)


# ---------------------------------------------------------------------------
# batched panels against the scalar quadrature they replace

_SEG_TOL = Tolerance(rel=1e-12, absolute=0.0)
# (f, params, delta of the build, delta of a rescaled view or None)
_BATCHED_CASES = [
    (Power(4.0), StructureParams(3, 2.0), 1.0, None),
    (PowerLog(-2.0, 3.0), StructureParams(3, 2.0), 0.5, None),
    (parse_nonlinearity("z^3*log(e+1/z)^-2"), StructureParams(4, 2.0), 1.0, None),
    # the critical log form again, read through a view of a filled cache
    (PowerLog(-2.0, 3.0), StructureParams(3, 2.0), 0.5, 2.0**-6),
]


@pytest.fixture(
    scope="module",
    params=_BATCHED_CASES,
    ids=lambda c: repr(c[0]) + ("" if c[3] is None else f"-view{c[3]}"),
)
def batched_profile(request):
    f, params, delta, view_delta = request.param
    prof = RadialProfile(f, params, delta)
    if view_delta is None:
        return prof
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof.profile_value(0.0)  # fill the outer cache at the build's scale
    return prof.rescaled(view_delta)


def test_cache_fill_matches_scalar_segments(batched_profile):
    prof = batched_profile
    table = prof._table
    zs = (prof.delta * table.s).tolist()
    env, n, f = prof.envelope_value, prof.params.n, math_twin(prof.f)

    def source(xi):
        # the source term by a closed form of f, the scalar reference
        return xi ** (n - 1) * f(env(xi))

    acc = quad_ref(source, 0.0, zs[0])[0]
    ref = [acc]
    for a, b in zip(zs, zs[1:]):
        acc += quad_ref(source, a, b)[0]
        ref.append(acc)
    cached = prof.delta**prof.params.n * np.exp(table.ln_i)
    assert cached.tolist() == pytest.approx(ref, rel=1e-10, abs=0.0)


# The K7 table fill against batched Fejer panels over the same intervals
_FILL_CASES = [
    (Power(4.0), StructureParams(3, 2.0)),
    (PowerLog(-2.0, 3.0), StructureParams(3, 2.0)),
    (parse_nonlinearity("z^3*log(e+1/z)^-2"), StructureParams(4, 2.0)),
    # small a: all 1280 panels past the cache
    (Power(0.81), StructureParams(8, 1.5)),
]
_FILL_IDS = [f"n{p.n}-p{p.p}-{f!r}" for f, p in _FILL_CASES]


def _fill_by_panels(f, params, s, tol):
    # integrate_intervals of the source term over [0, s[0]] in s, and of
    # s * source(s) over the panels between the knots in x = ln s, as the
    # fill takes them: the knots' ln s are rounded, and each panel in x is
    # the integral between those rounded ends, which telescope in the sums
    x = np.log(s)
    first = integrate_intervals(lambda xi: construct_module._source_term(f, params, xi), [0.0], s[:1], tol)
    rest = integrate_intervals(
        lambda y: np.exp(y) * construct_module._source_term(f, params, np.exp(y)), x[:-1], x[1:], tol
    )
    return rest._replace(
        values=np.concatenate((first.values, rest.values)),
        abs_errors=np.concatenate((first.abs_errors, rest.abs_errors)),
        converged=first.converged and rest.converged,
    )


def _assert_fill_is_panels(f, params, tol):
    # the K7 fill agrees with the open 15-node panels to tolerance level,
    # panel by panel and in the cumulative sums that the table holds; it
    # has one panel per knot: 2048 in the cache and 640 past it
    s, _, fill = construct_module._table_fill(f, params, tol)
    ref = _fill_by_panels(f, params, s, tol)
    assert fill.values.size == s.size == 2048 + 640
    assert fill.converged and ref.converged
    assert np.all(np.abs(fill.values - ref.values) <= 1e-13 * ref.values)
    cum, ref_cum = np.cumsum(fill.values), np.cumsum(ref.values)
    assert np.all(np.abs(cum - ref_cum) <= 1e-14 * ref_cum)
    return fill


@pytest.mark.parametrize("f, params", _FILL_CASES, ids=_FILL_IDS)
def test_table_fill_is_integrate_intervals_bit_for_bit(f, params):
    # the K7 fill matches the Fejer panels to tolerance level, not bit for bit
    _assert_fill_is_panels(f, params, _SEG_TOL)


def test_table_fill_redoes_missed_panels_as_integrate_panels_does(monkeypatch):
    # a bump of width 1e-3 in f at z = 1/2 (s = 1) fits inside a knot
    # interval, so the one-panel rule misses there, and the missed panels
    # are halved
    f = parse_nonlinearity("z^4*(1+exp(-1e6*(z-0.5)^2))")
    redone = _record(monkeypatch, "_bisect")
    _assert_fill_is_panels(f, StructureParams(3, 2.0), _SEG_TOL)
    assert redone and all(0.4 < math.exp(lo) < math.exp(hi) < 1.6 for lo, hi in redone)


def _record(monkeypatch, name):
    # the intervals handed to construct's integrate, integrate_intervals or
    # _bisect (the table fill's in x = ln s but [0, s_0], in s)
    route, seen = getattr(construct_module, name), []

    def recorded(g, lo, hi, tol, *first):
        seen.extend(zip(np.atleast_1d(lo).tolist(), np.atleast_1d(hi).tolist()))
        return route(g, lo, hi, tol, *first)

    monkeypatch.setattr(construct_module, name, recorded)
    return seen


@pytest.mark.parametrize("f, params", _FILL_CASES, ids=_FILL_IDS)
def test_table_fill_redoes_no_panel(monkeypatch, f, params):
    # L4's estimate meets the tolerance on every panel, and from n = 7 on,
    # where s**(n-1) is past its degree 5, the rule in u**(n-1) meets it on
    # [0, s_0]
    redone = _record(monkeypatch, "_bisect")
    construct_module._table_fill(f, params, _SEG_TOL)
    assert redone == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [3, 6, 8])
def test_table_fill_takes_the_origin_rule_at_every_n(monkeypatch, n):
    # p=1.2 z^0.5: f(env) varies by k e s_0 (1.8e-7 at n=6) over [0, s_0],
    # so s**(n-1) g(s) is past L4's degree there from n = 6 on; the rule of
    # the weight s**(n-1) meets the tolerance at every n, and agrees with
    # the integral of s**(n-1) (1+s)**(-k/2) over [0, s_0], the incomplete
    # beta function B(s_0/(1+s_0); n, k/2 - n)
    params = StructureParams(n, 1.2)
    redone = _record(monkeypatch, "_bisect")
    s, _, fill = construct_module._table_fill(Power(0.5), params, _SEG_TOL)
    assert redone == [] and fill.converged
    with mpmath.workdps(30):
        s0 = mpmath.mpf(s[0])
        ref = float(mpmath.betainc(n, 0.5 * (n - 1.2) / 0.2 - n, 0, s0 / (1 + s0)))
    assert fill.values[0] == pytest.approx(ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("lam, n, p", [(40.0, 3, 2.0), (12.8, 4, 1.5), (6.8, 4, 1.5)])
def test_table_fill_chases_no_panel_below_the_rounding_of_its_sum(monkeypatch, lam, n, p):
    # a fast-decaying source term falls far below the rounding of the running
    # sum, and then nears underflow, where the panels' own tolerance would
    # halve them to the depth cap; only the steep panels where I still grows
    # are halved (below s = 4.5: at z^6.8, n=4 p=1.5, s * source(s) falls
    # like e**(-30 ln s), by 0.58 over a knot interval, and L4 misses up to
    # s = 4.41, where the panels reach 1e-18 of I)
    redone = _record(monkeypatch, "_bisect")
    s, _, fill = construct_module._table_fill(Power(lam), StructureParams(n, p), _SEG_TOL)
    assert fill.converged
    assert 0 < len(redone) <= 100 and max(math.exp(hi) for _, hi in redone) < 4.5


def _count_points(monkeypatch, name, arg):
    # the sizes of the arrays passed to construct's function `name` as its
    # argument number `arg`
    route, sizes = getattr(construct_module, name), []

    def counted(*args):
        sizes.append(np.size(args[arg]))
        return route(*args)

    monkeypatch.setattr(construct_module, name, counted)
    return sizes


def test_work_per_build_and_outer_fill(monkeypatch, params32):
    # n=3 p=2: 2048 cache knots and 640 past it, 2688 panels, each the
    # integrand at its right end and five interior nodes
    points = _count_points(monkeypatch, "_ln_source", 2)
    prof = RadialProfile(Power(4.0), params32, 1.0)
    assert prof._table.s.size == 2048 + 640
    assert sum(points) == 6 * 2688
    # the outer fill: the closed form at the last knot, exp(psi) once per
    # knot and at five interior nodes of each of the 2687 intervals
    exps = _count_points(monkeypatch, "_exp_checked", 0)
    prof._outer_cache()
    assert sum(exps) == 1 + 2688 + 5 * 2687


@pytest.mark.parametrize("lam, missed, valued", [(3.5, 91, 182), (3.8, 95, 190)])
def test_table_redo_values_only_the_halves(monkeypatch, lam, missed, valued):
    # n=4 p=1.5: L4 misses some panels of the fill; the halving starts from
    # the fill's values of them, so it values their halves and no more
    # (from the bare intervals it would value each missed panel once again:
    # 273 and 285 panels)
    bisect, seen = construct_module._bisect, []

    def counted(rule, lo, hi, tol, *first):
        seen.append(lo.size)
        return bisect(lambda own, a, b: seen.append(a.size) or rule(own, a, b), lo, hi, tol, *first)

    monkeypatch.setattr(construct_module, "_bisect", counted)
    _, _, fill = construct_module._table_fill(Power(lam), StructureParams(4, 1.5), _SEG_TOL)
    assert fill.converged
    assert seen[0] == missed and sum(seen[1:]) == valued


class _Spoiled(Power):
    # z**exponent, with ln f replaced by `bad` where ln z < cut
    bad: float = math.nan
    cut: float = -10.0

    def _log_value(self, ln_z, checks):
        sign, ln_f = super()._log_value(ln_z, checks)
        return sign, np.where(ln_z < self.cut, self.bad, ln_f)


# at n=3, p=2 the envelope is 1/(1+s): ln z = -10 inside the cache, -30 past it
@pytest.mark.parametrize("cut", [-10.0, -30.0])
@pytest.mark.parametrize(
    "bad, error, text",
    [
        (math.nan, QuadratureError, "integrand returned nan at x="),
        (800.0, EvalOverflow, "source term exceeds double range at "),
    ],
)
def test_table_fill_refuses_what_the_panels_refuse(params32, cut, bad, error, text):
    f = _Spoiled(4.0, bad, cut)
    s, _, _ = construct_module._table_fill(Power(4.0), params32, _SEG_TOL)
    with pytest.raises(error, match=text):
        _fill_by_panels(f, params32, s, _SEG_TOL)
    with pytest.raises(error, match=text) as ours:
        construct_module._table_fill(f, params32, _SEG_TOL)
    # the fill names the first spoiled node in its own order: panel by
    # panel, the five interior nodes and then the right end, [0, s_0] in s
    # and the others in ln s, at s = e**(ln s)
    origin = construct_module._panel_nodes(np.array([0.0, s[0]]))
    ln_s = np.concatenate((np.log(origin), construct_module._panel_nodes(np.log(s)))).ravel()
    assert str(ours.value) == text + repr(float(np.exp(ln_s[-np.log1p(np.exp(ln_s)) < cut][0])))


def test_importing_the_cli_builds_no_table_geometry():
    # the geometry is built on the first table fill, not at import, whose
    # cost every command pays
    code = "import liouville.cli, liouville.construct as c; print(c._table_geometry.cache_info().currsize)"
    assert fresh_interpreter(code) == "0"


def test_importing_the_cli_imports_no_dataclasses():
    # the records are built without dataclasses, whose per-class code
    # generation was most of the cost of an import
    code = "import sys, liouville, liouville.cli; liouville.cli.build_parser(); print('dataclasses' in sys.modules)"
    assert fresh_interpreter(code) == "False"


_KNOT_INTEGRALS = {}


def _dense_reference(prof):
    """I_1 inside the cache as a function of ln s, by an independent route
    to the table's dense output: the knot interval by bisect on the knot
    list, and the integral of the degree-6 polynomial that numpy fits
    through the panel's seven integrand values, in v in [-1, 1], once per
    interval."""
    t = prof._table
    ln_s, sums, h = t.ln_s.tolist(), t.sums.tolist(), t.h.tolist()
    P, v_k7 = np.polynomial.polynomial, quadrature_module._XA_K7
    integrals = {}

    def inner(x):
        i = min(max(bisect.bisect_right(ln_s, x) - 1, 0), len(ln_s) - 2)
        if i not in integrals:
            integrals[i] = P.polyint(P.polyfit(v_k7, t.nodes[:, i], 6), lbnd=-1.0)
        v = 2.0 * (x - ln_s[i]) / h[i] - 1.0
        return sums[i] + 0.5 * h[i] * float(P.polyval(v, integrals[i]))

    return inner


def _scalar_gradient(prof):
    """|w'| inside the cache as a function of one float, in math only but
    for the dense reference of I_1 (:func:`_dense_reference`)."""
    inner = _dense_reference(prof)
    n, p, ln_delta = prof.params.n, prof.params.p, math.log(prof.delta)

    def gradient(zeta):
        x = math.log(zeta)
        ln_inner = math.log(inner(x - ln_delta))
        return math.exp((ln_inner + n * ln_delta - (n - 1) * x) / (p - 1.0))

    return gradient


def _knot_split_integral(prof, a, b):
    """Scalar quadrature of |w'| over [a, b] within the cache, split at
    the cache knots: |w'| is only C1 there, and an unsplit adaptive
    quadrature can claim an accuracy it lacks.  Whole knot intervals are
    integrated once per profile."""
    knots = prof.delta * prof._table.s
    gm, whole = _KNOT_INTEGRALS.setdefault(prof, (_scalar_gradient(prof), {}))
    lo, hi = np.searchsorted(knots, a, side="right"), np.searchsorted(knots, b, side="left")
    if lo >= hi:  # no knot inside (a, b)
        return quad_ref(gm, a, b)[0]
    parts = [quad_ref(gm, a, knots[lo])[0]]
    for i in range(lo, hi - 1):
        if i not in whole:
            whole[i] = quad_ref(gm, knots[i], knots[i + 1])[0]
        parts.append(whole[i])
    parts.append(quad_ref(gm, knots[hi - 1], b)[0])
    return math.fsum(parts)


@pytest.mark.parametrize(
    "radii",
    [
        list(np.geomspace(1e-6, 1e6, 200)),
        [0.0] + list(np.geomspace(1e-10, 1e10, 40)),  # past both cache ends
        [0.3, 7.0],
    ],
    ids=["default-grid", "beyond-cache", "one-segment"],
)
@pytest.mark.filterwarnings("error")
def test_values_on_grid_matches_scalar_segments(batched_profile, radii):
    # the scalar route the cached one replaces: a tail quadrature at the
    # outermost radius, then segment integrals down to the innermost,
    # split at the cache ends and, inside the cache, at its knots
    prof = batched_profile
    gm = prof.gradient_magnitude
    z_lo, z_hi = (prof.delta * prof._table.s[[0, -1]]).tolist()

    def segment(a, b):
        cuts = [a] + [z for z in (z_lo, z_hi) if a < z < b] + [b]
        return math.fsum(
            _knot_split_integral(prof, x, y)
            if z_lo <= x and y <= z_hi
            else quad_ref(gm, x, y)[0]
            for x, y in zip(cuts, cuts[1:])
        )

    rs = [float(r) * prof.delta for r in radii]
    top = max(rs[-1], z_hi)
    ref = [0.0] * len(rs)
    # the tail in x = top * u, for a tail that starts near 1e20
    ref[-1] = segment(rs[-1], top) + top * quad_ref(lambda u: gm(top * u), 1.0, math.inf)[0]
    for i in range(len(rs) - 2, -1, -1):
        ref[i] = ref[i + 1] + segment(rs[i], rs[i + 1])
    assert prof.values_on_grid(rs) == pytest.approx(ref, rel=1e-10, abs=0.0)


def test_far_field_has_no_absolute_floor():
    # w at large r is far below the stock tolerance's absolute floor; the
    # stock build must still agree with a build that has no floor
    radii = [float(r) for r in np.geomspace(1e-6, 1e6, 200)]
    cases = ((Power(2.6), StructureParams(4, 2.0)), (Power(1.5), StructureParams(4, 1.5)))
    for f, params in cases:
        stock = RadialProfile(f, params, 1.0).values_on_grid(radii)
        exact = RadialProfile(f, params, 1.0, _NO_FLOOR).values_on_grid(radii)
        assert stock == pytest.approx(exact, rel=1e-10, abs=0.0)


def test_source_far_below_underflow_builds():
    # n=6, p=1.5, f = z^(q+4): f(env) underflows inside the cache, where
    # the source term xi^5 f(env) is still resolvable in logs, and the
    # table's extension reaches the subnormal range of the source term,
    # where no panel can be resolved and none may be chased;
    # I(inf) = delta^n eps^lambda B(n, k lambda - n)
    params = StructureParams(6, 1.5)
    lam = 4.666667
    t0 = time.perf_counter()
    prof = RadialProfile(Power(lam), params, 1.0)
    kl = prof.decay * lam
    exact = math.gamma(6) * math.gamma(kl - 6.0) / math.gamma(kl)
    assert prof.inner_limit() == pytest.approx(exact, rel=1e-10, abs=0.0)
    assert time.perf_counter() - t0 < 1.0


# The certify-power inputs of the inner-limit-stall class in
# perfbench/NOTES.md, and a slowly converging power
_LIMIT_CASES = [
    (4, 2.0, PowerLog(-1.02905, 2.0)),
    (4, 2.0, Power(2.00103)),
    (3, 2.0, Power(3.00104)),
    (3, 2.0, Power(3.02893)),
    (5, 3.0, PowerLog(-1.02896, 5.0)),
    (4, 2.0, Power(2.03092)),
    (8, 3.0, Power(3.20101)),
    (4, 2.0, PowerLog(-1.00099, 2.0)),
    (3, 2.0, Power(3.02943)),
    (3, 2.0, PowerLog(-1.00102, 3.0)),
    (3, 2.0, Power(3.2)),
]


@pytest.mark.parametrize("n, p, f", _LIMIT_CASES, ids=[f"n{n}-p{p:g}-{f!r}" for n, p, f in _LIMIT_CASES])
def test_inner_limit_matches_beta_or_mpmath(n, p, f):
    prof = RadialProfile(f, StructureParams(n, p), 1.0)
    assert prof.inner_limit() == pytest.approx(source_limit(n, p, f), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("lam", [3.00104, 3.2])
def test_far_field_matches_incomplete_beta(lam):
    # n=3, p=2, eps = delta = 1: w(r) = I(r)/r + the integral of I'(xi)/xi
    # over (r, inf), with I(r) = B(r/(1+r); 3, lam - 3) and I'(xi) =
    # xi^2 (1+xi)^-lam
    prof = RadialProfile(Power(lam), StructureParams(3, 2.0), 1.0)
    rs = [1e4, 1e6, 1e9]
    with mpmath.workdps(30):
        lm = mpmath.mpf(lam)
        ref = [
            float(
                mpmath.betainc(3, lm - 3, 0, r / (1 + r)) / r
                + (1 + r) ** (2 - lm) / (lm - 2)
                - (1 + r) ** (1 - lm) / (lm - 1)
            )
            for r in map(mpmath.mpf, rs)
        ]
    assert prof.values_on_grid(rs) == pytest.approx(ref, rel=1e-9, abs=0.0)


def test_negative_source_is_refused(params32):
    # z^4 - z^3 < 0 on (0, 1), where the envelope lives
    with pytest.raises(DomainError, match="negative"):
        RadialProfile(parse_nonlinearity("z^4-z^3"), params32, 1.0)


# (n, p, lambda): at eps = delta = 1, I(z) = B(z/(1+z); n, k lambda - n)
_BETA_CASES = [(3, 2.0, 4.0), (3, 2.0, 5.96543), (8, 3.0, 4.35671), (8, 3.0, 6.29058)]


@pytest.fixture(scope="module", params=_BETA_CASES, ids=lambda c: f"n{c[0]}-p{c[1]:g}-z^{c[2]}")
def beta_profile(request):
    n, p, lam = request.param
    return RadialProfile(Power(lam), StructureParams(n, p), 1.0)


def test_inner_integral_between_knots_matches_incomplete_beta(beta_profile):
    prof = beta_profile
    n, b = prof.params.n, prof.decay * prof.f.exponent - prof.params.n
    ln_s = prof._table.ln_s
    # the quarter and mid points of every 23rd knot interval, in ln s, and
    # the knots themselves; mpmath's arbitrary-precision context, as its
    # double-precision one is itself only good to about 3e-12 here
    at = ln_s[:-1:23, None] + np.diff(ln_s)[::23, None] * [0.0, 0.25, 0.5]
    zs = np.exp(at).ravel().tolist()
    ours = np.array([prof.inner_integral(z) for z in zs])
    with mpmath.workdps(30):
        exact = np.array([float(mpmath.betainc(n, b, 0, mpmath.mpf(z) / (1 + mpmath.mpf(z)))) for z in zs])
    assert np.max(np.abs(ours / exact - 1.0)) <= 1e-12


_ORIGIN_CASES = [
    (Power(4.0), StructureParams(3, 2.0)),
    (Power(5.5), StructureParams(5, 3.0)),
    (Power(0.81), StructureParams(8, 1.5)),
]


@pytest.mark.parametrize("f, params", _ORIGIN_CASES, ids=[f"n{p.n}-p{p.p}-{f!r}" for f, p in _ORIGIN_CASES])
@pytest.mark.filterwarnings("error")
def test_inner_integral_below_the_table_takes_its_origin_rule(monkeypatch, f, params):
    # below the first knot I is the table's rule of its first panel, on
    # [0, z]: no quadrature, and within 1e-13 of mpmath's, at delta = 1 and
    # at a view; at the first knot it is the table's first sum, bit for bit.
    # mpmath integrates in u = xi/z, where the source term over z**(n-1) is
    # near 1, as its absolute error floor would end it early on I itself
    prof = RadialProfile(f, params, 1.0)
    t, n = prof._table, params.n
    assert prof._origin_integral(t.s[0]) == (t.sums[0], True)
    quadratures = _record(monkeypatch, "integrate_intervals")
    for view in (prof, prof.rescaled(2.0**-5)):
        z0 = view.delta * t.s[0]
        for z in (0.9 * z0, 1e-3 * z0, view.delta * 2.0**-40):
            scaled = quad_ref(lambda u: float(view._source(np.array([z * u]))[0] / z ** (n - 1)), 0.0, 1.0, exact=True)
            assert view.inner_integral(z) == pytest.approx(z**n * scaled[0], rel=1e-13, abs=0.0)
    assert quadratures == []


def test_dense_inner_is_nonnegative_and_nondecreasing(beta_profile):
    # I_1 on a fine grid in ln s, off the dense output of the table's panels
    table = beta_profile._table
    x = np.linspace(table.ln_s[0], table.ln_s[-1], 200_001)
    y = table.inner(*table.locate(x))
    # rounding aside, a few ulps of I
    assert np.all(y >= 0.0)
    assert np.all(np.diff(y) >= -4.0 * np.spacing(y[1:]))


def test_centre_value_of_the_closed_form_instance(params32):
    # n=3 p=2 z^4: w(0) = 1/6, to 1e-14, and within the error that the
    # delta search carries for it, the outer fill's summed error
    w0, error = RadialProfile(Power(4.0), params32, 1.0)._sup()
    assert abs(w0 - 1.0 / 6.0) <= 1e-14
    assert abs(w0 - 1.0 / 6.0) <= error


# ---------------------------------------------------------------------------
# the outer cache: work counts


def _count_fills(monkeypatch):
    fills = []
    fill = RadialProfile._fill_outer

    def counted(self):
        fills.append(self.delta)
        return fill(self)

    monkeypatch.setattr(RadialProfile, "_fill_outer", counted)
    return fills


def _count_spans(monkeypatch):
    # the panels of every outer-cache span pass, per call
    spans = []
    route = RadialProfile._outer_spans

    def counted(self, i, u0=None):
        spans.append(i.size)
        return route(self, i, u0)

    monkeypatch.setattr(RadialProfile, "_outer_spans", counted)
    return spans


def test_values_on_grid_values_no_panel(monkeypatch, params32):
    # w between knots is the dense output of the outer fill's own nodes:
    # after the one fill, no span pass, no K7 panel and no halving
    prof = RadialProfile(Power(4.0), params32, 1.0)
    fills, spans = _count_fills(monkeypatch), _count_spans(monkeypatch)
    points = []
    outer = prof._outer_array
    monkeypatch.setattr(
        prof, "_outer_array", lambda zeta: points.append(np.size(zeta)) or outer(zeta)
    )
    prof.profile_value(0.0)  # below the cache: closed form, after the fill
    assert fills == [1.0] and not prof._table.outer.halved.any()
    built, halved = _count_k7(monkeypatch, construct_module), _record(monkeypatch, "_bisect")
    prof.values_on_grid(np.geomspace(1e-6, 1e6, 200))  # all inside the cache
    assert spans == [] and built == [] and halved == []
    # a view reads the same fill, scaled; off the cache w is closed form
    view = prof.rescaled(0.25)
    assert sup_profile(view) == pytest.approx(0.25**2 * prof.profile_value(0.0), rel=1e-14)
    # w(r) = I(inf) / r above the cache, I(inf) = delta^3 / 3
    assert view.profile_value(1e20) == pytest.approx(0.25**3 / 3e20, rel=1e-9, abs=0.0)
    assert fills == [1.0] and spans == [] and built == [] and points == []


def test_delta_limit_check_fills_the_outer_cache_once(monkeypatch, params32):
    fills = _count_fills(monkeypatch)
    rep = delta_limit_check(Power(4.0), params32, j_count=10)
    assert rep.passed
    assert fills == [1.0]


def test_closed_forms_off_the_cache_match_quadrature(batched_profile):
    # below the cache w(r) - w(z_lo) is far below the rounding of w itself,
    # so the closed form is checked on its own
    prof = batched_profile
    gm = prof.gradient_magnitude
    z_lo, z_hi = (prof.delta * prof._table.s[[0, -1]]).tolist()
    rs = [0.0, 1e-3 * z_lo, 0.5 * z_lo]
    ref = [quad_ref(gm, r, z_lo)[0] for r in rs]
    assert prof._w_below(np.array(rs)).tolist() == pytest.approx(ref, rel=1e-12, abs=0.0)
    # above it, in x = z_hi * u, for a tail that starts near 1e20
    rs = [z_hi, 3.0 * z_hi]
    ref = [z_hi * quad_ref(lambda u: gm(z_hi * u), r / z_hi, math.inf)[0] for r in rs]
    assert prof._w_above(np.array(rs)).tolist() == pytest.approx(ref, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# the outer cache on the table's dense output against the panels in zeta it replaces

_OUTER_CASES = [
    (Power(4.0), StructureParams(3, 2.0)),
    (Power(3.2), StructureParams(3, 2.0)),
    (Power(40.0), StructureParams(3, 2.0)),
    (Power(5.5), StructureParams(5, 3.0)),
    (parse_nonlinearity("(z^5.5+z^6.5)*exp(z)"), StructureParams(5, 3.0)),
    (PowerLog(-1.6, critical_exponent(StructureParams(4, 1.5))), StructureParams(4, 1.5)),
    (parse_nonlinearity("z^3*log(e+1/z)^-2"), StructureParams(4, 2.0)),
    # small a: a long run of extra knots
    (Power(0.81), StructureParams(8, 1.5)),
]


@pytest.mark.parametrize("f, params", _OUTER_CASES, ids=[f"n{p.n}-p{p.p}-{f!r}" for f, p in _OUTER_CASES])
@pytest.mark.filterwarnings("error")
def test_outer_fill_matches_panels_in_zeta(f, params):
    # one batched panel in zeta per knot interval on the array interpolant,
    # summed down from the closed form at the last knot
    prof = RadialProfile(f, params, 1.0)
    ws, converged, _ = prof._outer_cache()
    knots = prof.delta * prof._table.s
    panels = integrate_intervals(prof._outer_array, knots[:-1], knots[1:], prof._seg_tol)
    ref = np.cumsum(np.concatenate((prof._w_above(knots[-1:]), panels.values[::-1])))[::-1]
    assert converged and panels.converged
    assert ws.tolist() == pytest.approx(ref.tolist(), rel=1e-13, abs=0.0)


@pytest.mark.filterwarnings("error")
def test_values_on_grid_matches_intervals_in_zeta():
    # a view of a filled cache: the cache value at the first knot at or
    # above r plus one batched panel in zeta over [r, that knot]
    prof = RadialProfile(PowerLog(-2.0, 3.0), StructureParams(3, 2.0), 0.5)
    prof.profile_value(0.0)
    view = prof.rescaled(2.0**-6)
    knots = view.delta * view._table.s  # exact: the scale is a power of two
    on = knots[[0, 1, 700, 1024, 2047, -2, -1]]
    between = np.sqrt(knots[[0, 3, 1500, 2046, -3]] * knots[[1, 4, 1501, 2047, -2]])
    rs = np.sort(np.concatenate((on, between, knots[2000] * (1.0 + np.geomspace(1e-15, 1e-4, 5)))))
    j = np.searchsorted(knots, rs)
    gaps = integrate_intervals(view._outer_array, rs, np.maximum(knots[j], rs), view._seg_tol)
    ref = view._outer_cache()[0][j] + gaps.values
    assert gaps.converged
    assert view.values_on_grid(rs) == pytest.approx(ref.tolist(), rel=1e-13, abs=0.0)
    assert view.values_on_grid(on) == view._outer_cache()[0][[0, 1, 700, 1024, 2047, -2, -1]].tolist()


def _forced_misses(monkeypatch, converged=True):
    # construct's _k7 with the first two panels of every call missing their
    # bound, but for the calls of construct's _bisect, which halves them; the
    # (lo, hi) of every _bisect call, and its flags replaced by `converged`
    kernel, bisect, halving, calls = construct_module._k7, construct_module._bisect, [], []

    def missing(f0, inner, f6, h):
        values, errors = kernel(f0, inner, f6, h)
        if not halving:
            errors[:2] = np.inf
        return values, errors

    def halved(rule, lo, hi, tol, *first):
        calls.append((lo.tolist(), hi.tolist()))
        halving.append(True)
        try:
            values, errors, panels, ok = bisect(rule, lo, hi, tol, *first)
        finally:
            halving.pop()
        return values, errors, panels, np.full(ok.shape, converged)

    monkeypatch.setattr(construct_module, "_k7", missing)
    monkeypatch.setattr(construct_module, "_bisect", halved)
    return calls


def _scalar_outer(prof, lo, hi):
    # mpmath's quadrature of |w'| over [e**lo, e**hi], inside one knot
    # interval, in x = ln zeta as the fill takes it: in zeta the knots, e**x
    # rounded, move a span's ends by ulps, some 1e-13 of its width
    return quad_ref(lambda x: math.exp(x) * float(prof._outer_array(np.exp([x]))[0]), lo, hi, exact=True)[0]


def test_outer_fill_redoes_missed_panels_by_halving(monkeypatch, params32):
    # the first two spans of the fill miss: they are halved on the dense
    # output of their intervals, in one _bisect call, and agree with
    # mpmath's quadrature of _outer_array over the same knot interval
    honest = RadialProfile(Power(4.0), params32, 1.0)._outer_cache()[0]
    prof = RadialProfile(Power(4.0), params32, 1.0)  # the table fill is not forced to miss
    calls = _forced_misses(monkeypatch)
    ws, converged, _ = prof._outer_cache()
    knots = prof._table.s
    firsts = [0, 1]  # the first two of the fill's one _k7 call
    assert calls == [([0.0] * len(firsts), [1.0] * len(firsts))] and converged
    assert np.flatnonzero(prof._table.outer.halved).tolist() == firsts
    assert ws.tolist() == pytest.approx(honest.tolist(), rel=1e-13, abs=0.0)
    # the same spans in a pass of their own, where they are forced to miss again
    spans = prof._outer_spans(np.array(firsts), np.zeros(len(firsts)))[0]
    # w between knots: an adaptive span, the first two of the pass forced to
    # miss, in the two intervals that the fill halved, and the dense output
    # of the fill's nodes, with no panel, in the others
    intervals = [0, 1, 10, 1000, 2500]
    rs = np.sqrt(knots[intervals] * knots[np.add(intervals, 1)])
    between = prof.values_on_grid(rs)
    assert [len(lo) for lo, _ in calls] == [2, 2, 2]
    monkeypatch.undo()
    x = prof._table.ln_s
    ref = [_scalar_outer(prof, x[i], x[i + 1]) for i in firsts]
    assert spans.tolist() == pytest.approx(ref, rel=1e-13, abs=0.0)
    ref = [ws[i + 1] + _scalar_outer(prof, math.log(r), x[i + 1]) for r, i in zip(rs, intervals)]
    assert between == pytest.approx(ref, rel=1e-13, abs=0.0)
    # an unconverged halving marks the fill unconverged
    prof = RadialProfile(Power(4.0), params32, 1.0)
    _forced_misses(monkeypatch, converged=False)
    assert not prof.outer_converged()


def _count_k7(monkeypatch, module):
    # the panels of every _k7 call from module
    sizes, kernel = [], module._k7

    def counted(f0, inner, f6, h):
        sizes.append(f0.size)
        return kernel(f0, inner, f6, h)

    monkeypatch.setattr(module, "_k7", counted)
    return sizes


def test_k7_work_per_stage(monkeypatch, params32):
    # every closed K7 panel goes through _k7: the build's 2048 + 640 panels
    # in one call, but [0, s_0], which takes the rule of its weight; the
    # outer fill's as many, in one call too; none for values_on_grid or
    # for the sample the grid checks read, which are the dense output of
    # the outer fill's nodes, and one call for the energy check's 1153
    # panels, through construct's fill-and-redo routine; none through the
    # Fejer pair's _rule
    built, checked, ruled = _count_k7(monkeypatch, construct_module), _count_k7(monkeypatch, verify_module), []
    rule = quadrature_module._rule
    monkeypatch.setattr(quadrature_module, "_rule", lambda fx, *args: ruled.append(fx.shape[0]) or rule(fx, *args))
    prof = RadialProfile(Power(4.0), params32, 1.0)
    assert (len(built), sum(built)) == (1, 2687)
    built.clear()
    prof._outer_cache()
    assert (len(built), sum(built)) == (1, 2687)
    built.clear()
    for radii in ([0.5], np.geomspace(1e-3, 1e3, 200)):
        prof.values_on_grid(radii)
    prof._sample(verify_module._unit_sample()[0])
    assert built == []
    energy_diagnostic(prof)
    assert (built, checked) == ([1153], [])
    assert ruled == []


@pytest.mark.parametrize("f, params", _OUTER_CASES, ids=[f"n{p.n}-p{p.p}-{f!r}" for f, p in _OUTER_CASES])
@pytest.mark.filterwarnings("error")
def test_sample_is_values_on_grid_and_outer_array(f, params):
    # at delta = 1 bit for bit the w of values_on_grid, by the same spans.
    # At delta = 2**-j the sample is the one at delta = 1 scaled
    radii = verify_module._unit_sample()[0]
    prof = RadialProfile(f, params, 1.0)
    assert prof._sample(radii).tolist() == prof.values_on_grid(radii)
    for j in (1, 5, 20):
        view = prof.rescaled(2.0**-j)
        w = view._sample(radii)
        assert w.tolist() == pytest.approx(view.values_on_grid(view.delta * radii), rel=1e-14, abs=0.0)


_VANISHING = [
    (parse_nonlinearity("0.0"), StructureParams(3, 2.0)),
    (Power(4.0), StructureParams(3, 2.0, 1e-300)),
    (parse_nonlinearity("z^3*log(e+1/z)^-2"), StructureParams(4, 2.0, 1e-300)),
]


@pytest.mark.parametrize("f, params", _VANISHING, ids=["zero", "power-eps1e-300", "log-eps1e-300"])
@pytest.mark.filterwarnings("error")
def test_sample_of_a_vanishing_profile(f, params):
    # f(env) underflows everywhere, so the table is empty: w is 0 at every
    # scale, with no floating-point warning
    radii = verify_module._unit_sample()[0]
    prof = RadialProfile(f, params, 1.0)
    for view in (prof, prof.rescaled(2.0**-7)):
        assert not view._sample(radii).any()


@pytest.mark.parametrize("f, params, halved", [(Power(4.0), StructureParams(3, 2.0), 0),
                                               (Power(0.81), StructureParams(8, 1.5), 323)],
                         ids=["n3-p2-z^4", "n8-p1.5-z^0.81"])
def test_node_sample_is_w_at_the_nodes(f, params, halved):
    # w at the K7 nodes of the 1153 knot intervals over [1e-6, 1e3]: at the
    # knots and, in the intervals that the outer fill halved, the bits of
    # values_on_grid; elsewhere the outer record's reverse sums through the
    # reordered matrix, within 1e-13 of it.  At delta = 2**-5 it is the
    # sample at delta = 1 scaled by delta**(p/(p-1))
    prof = RadialProfile(f, params, 1.0)
    part, w, inner = prof._node_sample(1e-6, 1e3)
    t = prof._table
    assert part.stop - part.start == 1153 and t.s[part.start] <= 1e-6 < t.s[part.start + 1]
    assert t.s[part.stop - 1] < 1e3 <= t.s[part.stop]
    assert w.tolist() == prof.values_on_grid(t.s[part.start : part.stop + 1])
    i = np.arange(part.start, part.stop)
    s = np.exp(t.ln_s[i] + t.h[i] * construct_module._K7_U[1:-1, None])
    ref = np.array(prof.values_on_grid(s.T.ravel())).reshape(s.T.shape).T
    cut = t.outer.halved[i]
    assert cut.sum() == halved
    assert inner[:, cut].tolist() == ref[:, cut].tolist()
    assert inner.ravel().tolist() == pytest.approx(ref.ravel().tolist(), rel=1e-13, abs=0.0)
    view = prof.rescaled(2.0**-5)
    scale = (2.0**-5) ** (params.p / (params.p - 1.0))
    assert [x.tolist() for x in view._node_sample(1e-6, 1e3)[1:]] == [(scale * w).tolist(), (scale * inner).tolist()]


def test_values_on_grid_at_one_radius_is_its_entry_in_a_grid(params32):
    # bit for bit: each span is summed elementwise, so a radius alone gets
    # the bits of its entry among the grid checks' 322 radii
    prof = RadialProfile(Power(4.0), params32, 1.0)
    grid = verify_module._unit_sample()[0]
    ws = prof.values_on_grid(grid)
    assert [prof.values_on_grid([r])[0] for r in grid.tolist()] == ws


_RECORD_CASES = [(Power(4.0), StructureParams(3, 2.0), 0), (Power(0.81), StructureParams(8, 1.5), 962)]


@pytest.mark.parametrize("f, params, halved", _RECORD_CASES, ids=["n3-p2-z^4", "n8-p1.5-z^0.81"])
def test_panel_records_read_both_directions(f, params, halved):
    # the table and the outer cache are one record read both ways: over
    # [0, u] and over [u, 1] of a panel, the second on its values in
    # reverse at 1 - u, which add up to the panel within 32 ulps (the
    # polynomial's coefficients in v, summed by Horner's rule, reach some
    # 17 times the panel's value); a point alone has the bits it has in a
    # batch; and the outer record's reverse sums are W at delta = 1, bit
    # for bit.  The second case halves 962 outer spans, whose node values
    # the fill scaled to their new values
    prof = RadialProfile(f, params, 1.0)
    ws = prof._outer_cache()[0]
    table, outer = prof._table, prof._table.outer
    assert outer.halved.sum() == halved and table.halved is None
    assert outer.sums.tolist() == ws.tolist()
    i = np.repeat(np.arange(table.h.size), 3)
    u = np.tile([0.1, 0.5, 0.93], table.h.size)
    for record in (table, outer):
        whole = record.span(i, 1.0)
        assert np.all(np.abs(record.span(i, u) + record.rest(i, u) - whole) <= 32.0 * np.spacing(whole))
        for read in (record.span, record.rest):
            batch = read(i, u)
            for k in range(0, i.size, 997):
                assert read(i[k : k + 1], u[k : k + 1])[0] == batch[k] == float(read(i[k], u[k]))


_STACK_CASES = [(Power(4.0), StructureParams(3, 2.0), 2688), (Power(60.0), StructureParams(3, 2.0, eps=1e-5), 1987)]


@pytest.mark.parametrize("f, params, knots", _STACK_CASES, ids=["n3-p2-z^4", "n3-p2-eps1e-5-z^60"])
def test_records_keep_contiguous_stacks_of_their_own(f, params, knots):
    # each record keeps its node values in one C-contiguous 7 x N array
    # with nothing wider behind it, also where the table drops the prefix
    # of knots where I_1 underflows to 0 (the second case: 701 knots)
    prof = RadialProfile(f, params, 1.0)
    prof.profile_value(0.0)  # the outer record
    table = prof._table
    assert table.s.size == knots
    for record in (table, table.outer):
        assert record.nodes.shape == (7, knots - 1)
        assert record.nodes.flags.c_contiguous and record.nodes.base is None


def test_reads_allocate_only_their_result(instance_profile):
    # a read of either record gathers the columns it needs: span, rest, the
    # table's increment and inner_integral allocate less than a tenth of a
    # node stack (150 KB) beyond what they return, about 2-3 KB.  Reading a
    # strided view of the stack, or its rows reversed before the columns,
    # first copies the whole stack: 151 KB a call
    prof = instance_profile
    prof.profile_value(0.0)  # the outer record
    table, outer = prof._table, prof._table.outer
    i, u = np.array([100, 1500]), np.array([0.3, 0.7])
    a, b = np.log([1.0, 2.0]), np.log([1.001, 2.5])
    reads = [
        lambda: table.span(i, u),
        lambda: table.rest(i, u),
        lambda: outer.span(i, u),
        lambda: outer.rest(i, u),
        lambda: table.increment(a, b),
        lambda: prof.inner_integral(1.5),
    ]
    for read in reads:
        assert transient_bytes(read) < table.nodes.nbytes / 10


def test_outer_fill_allocates_little_beyond_its_record(instance_profile):
    # the outer fill writes ln I_1, psi and exp(psi) into the rows of the
    # stack it keeps: beyond the record it returns it allocates 109 KB
    # (buffers of one value per knot interval, five of them _k7's), under
    # the bound of one node stack, 150 KB.  Stacking exp(psi) from (5, N)
    # temporaries, reading the table's stack through copies of it, took
    # 408 KB
    table = instance_profile._table
    assert transient_bytes(instance_profile._fill_outer) < table.nodes.nbytes


def test_k7_fill_scales_a_redone_panel_to_its_new_value():
    # e**(40 x) over [0, 1] in four panels: L4 misses the steep ones, which
    # the rule halves by their panel indices; the columns of the stack are
    # then scaled so that each panel's dense output ends on its new value
    x = np.linspace(0.0, 1.0, 5)
    width = np.diff(x)

    def values_at(i, u):
        return np.exp(40.0 * (x[i] + width[i] * u))

    def rule(i, a, b):
        fx = values_at(i, a + (b - a) * construct_module._K7_U[:, None])
        return construct_module._k7(fx[0], fx[1:-1], fx[-1], 0.5 * (b - a) * width[i])

    tol, panels = Tolerance(rel=1e-12, absolute=0.0), np.arange(4)
    stack = values_at(panels, construct_module._K7_U[:, None])
    values, _, miss, converged = construct_module._k7_fill(stack, 0.5 * width, tol, rule)
    exact = (np.exp(40.0 * x[1:]) - np.exp(40.0 * x[:-1])) / 40.0
    assert converged and miss.size and values == pytest.approx(exact, rel=1e-12, abs=0.0)
    record = construct_module._Panels(x, width, stack, None, converged, 0.0)
    assert np.all(np.abs(record.span(panels, 1.0) - values) <= 32.0 * np.spacing(values))


@pytest.mark.parametrize("f, params", _OUTER_CASES, ids=[f"n{p.n}-p{p.p}-{f!r}" for f, p in _OUTER_CASES])
def test_outer_fill_redoes_no_panel(monkeypatch, f, params):
    # but at n=8 p=1.5 z^0.81, where |w'| falls like zeta**-13 past the
    # source's saturation, by a factor 1.26 over a knot interval: L4 misses
    # 962 of its 2687 spans there, all halved together
    prof = RadialProfile(f, params, 1.0)
    redone = _record(monkeypatch, "_bisect")
    assert prof._outer_cache()[1]
    assert len(redone) == (962 if (params.n, params.p) == (8, 1.5) else 0)


@pytest.mark.parametrize("eps", [1e-10, 1e-3, 1.0, 10.0])
def test_steep_profile_builds_and_fills_promptly(monkeypatch, eps):
    # n=3 p=1.05, f = z**(q+1): k = 39, so |w'| falls like zeta**-40 and L4
    # misses hundreds of outer spans, all halved on their dense output together
    params = StructureParams(3, 1.05, eps)
    redone = _record(monkeypatch, "_bisect")
    with deadline(5):
        prof = RadialProfile(Power(critical_exponent(params) + 1.0), params, 1.0)
        assert prof.outer_converged()
    assert redone


def test_outer_integrand_overflow_raises():
    # n=3 p=1.05 eps=1e20: (I / zeta**2)**20 exceeds the double range near 0
    params = StructureParams(3, 1.05, 1e20)
    prof = RadialProfile(Power(critical_exponent(params) + 1.0), params, 1.0)
    with pytest.raises(EvalOverflow, match="outer integrand exceeds double range at "):
        prof.profile_value(0.0)


# ---------------------------------------------------------------------------
# rescaled views against fresh builds

# No absolute floor, so that fresh builds at small delta stay accurate.
_NO_FLOOR = Tolerance(rel=1e-10, absolute=0.0)


@pytest.fixture(
    scope="module",
    params=[
        (Power(5.5), StructureParams(5, 3.0)),
        (parse_nonlinearity("z^3*log(e+1/z)^-2"), StructureParams(4, 2.0)),
        (Power(3.5), StructureParams(8, 3.0)),
    ],
    ids=lambda c: f"{c[0]!r}-n{c[1].n}",
)
def unit_profile(request):
    f, params = request.param
    return RadialProfile(f, params, 1.0, _NO_FLOOR)


@pytest.mark.parametrize("j", [1, 6, 13, 20])
def test_rescaled_view_matches_fresh_build(unit_profile, j):
    delta = 2.0**-j
    view = unit_profile.rescaled(delta)
    fresh = RadialProfile(unit_profile.f, unit_profile.params, delta, _NO_FLOOR)
    assert view.delta == delta
    radii = [float(r) for r in np.geomspace(1e-6 * delta, 1e6 * delta, 200)]
    assert view.values_on_grid(radii) == pytest.approx(
        fresh.values_on_grid(radii), rel=1e-11, abs=0.0
    )
    assert view.inner_limit() == pytest.approx(fresh.inner_limit(), rel=1e-9)
    # below the cache, inside it, and above it
    for z in (1e-10 * delta, 3.0 * delta, 1e10 * delta):
        assert view.inner_integral(z) == pytest.approx(fresh.inner_integral(z), rel=1e-9)
    assert view.envelope_value(delta) == fresh.envelope_value(delta)
    assert view.gradient_magnitude(delta) == pytest.approx(
        fresh.gradient_magnitude(delta), rel=1e-11
    )


def test_rescaled_view_shares_and_frees(params32):
    base = RadialProfile(Power(4.0), params32, 1.0)
    assert base.rescaled(1.0) is base
    tracemalloc.start()
    view = base.rescaled(0.25)
    allocated = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # the view shares the table and copies none of its 4096-knot arrays
    assert view._table is base._table
    assert allocated < 8192
    assert view.f is base.f and view.tol is base.tol
    assert view.criterion_result() is base.criterion_result()
    assert sup_profile(view) == pytest.approx(0.25**2 / 6.0, rel=1e-9)
    # neither holds a reference cycle: each is freed as soon as it is dropped
    gone = [weakref.ref(base), weakref.ref(view)]
    del base, view
    assert [r() for r in gone] == [None, None]
    with pytest.raises(ValueError):
        RadialProfile(Power(4.0), params32, 1.0).rescaled(0.0)


# ---------------------------------------------------------------------------
# change of variables identity


def test_change_of_variables_closed_instance(instance_profile):
    direct, transformed = change_of_variables_check(instance_profile)
    assert direct.value == pytest.approx(1.0 / 3.0, rel=1e-9)
    assert transformed.value == pytest.approx(1.0 / 3.0, rel=1e-9)
    assert direct.value == pytest.approx(transformed.value, rel=1e-8)


def test_change_of_variables_beta_instance(params42):
    # n=4, p=2, lambda=3: both sides reduce to Beta(4, 2) = 1/20
    prof = RadialProfile(Power(3.0), params42, 1.0)
    direct, transformed = change_of_variables_check(prof)
    assert direct.value == pytest.approx(0.05, rel=1e-9)
    assert transformed.value == pytest.approx(0.05, rel=1e-9)


def test_change_of_variables_zero_function(params32):
    prof = RadialProfile(parse_nonlinearity("0"), params32, 1.0)
    direct, transformed = change_of_variables_check(prof)
    assert direct.value == 0.0
    assert transformed.value == 0.0


# ---------------------------------------------------------------------------
# decay bound


class TestDecayBound:
    def test_instance_constant(self, instance_profile):
        # a * (a * delta^n * eps^q * K_f)^(1/(p-1)) * r^-k with all
        # factors equal to one except K_f = 1
        assert decay_bound(instance_profile, 1.0) == pytest.approx(1.0, rel=1e-9)

    def test_bounds_profile_on_grid(self, instance_profile):
        for r in np.geomspace(1e-4, 1e5, 60):
            assert instance_profile.profile_value(float(r)) <= decay_bound(
                instance_profile, float(r)
            )

    def test_decay_exponent(self, instance_profile):
        # bound(r) ~ r^-k with k = 1 here
        b1 = decay_bound(instance_profile, 10.0)
        b2 = decay_bound(instance_profile, 1000.0)
        assert b1 / b2 == pytest.approx(100.0, rel=1e-12)

    def test_rejects_nonpositive_radius(self, instance_profile):
        with pytest.raises(DomainError):
            decay_bound(instance_profile, 0.0)

    def test_unconverged_constant_widens_the_bound(self, params42):
        # a convergent Bertrand form: its remainder below the shells carries
        # an error of about 1e-2; the bound takes K + abs_error,
        # C = a (a K)^(1/(p-1)) = K / 4 at n=4, p=2, eps = delta = 1
        f = parse_nonlinearity("z^2*log(e+1/z)^-1*log(log(e+1/z)+e)^-2")
        prof = RadialProfile(f, params42, 1.0)
        res = prof.criterion_result()
        assert not res.converged and res.abs_error > 1e-5
        assert decay_bound(prof, 2.0) == pytest.approx((res.value + res.abs_error) / 16.0, rel=1e-15)


# ---------------------------------------------------------------------------
# delta search


class TestFindDelta:
    def test_closed_instance_first_candidate(self, params32):
        assert find_delta(Power(4.0), params32).delta == 1.0

    def test_divergent_input_refused(self, params32):
        with pytest.raises(DivergentIntegralError):
            find_delta(Power(2.0), params32)

    def test_inconclusive_input_refused(self, params42):
        with pytest.raises(CriterionUndecidedError):
            find_delta(parse_nonlinearity("exp(z) - 1"), params42)

    def test_powerlog_constructs(self, params32):
        prof = find_delta(PowerLog(-2.0, 3.0), params32)
        d = prof.delta
        assert d > 0.0
        env = envelope(params32, d)
        for r in np.geomspace(d * 1e-5, d * 1e5, 64):
            assert prof.profile_value(float(r)) <= env(float(r)) + 1e-12

    @pytest.mark.parametrize(
        "n,p,lam",
        [(3, 2.0, 4.0), (4, 2.0, 3.0), (5, 3.0, 5.5)],
    )
    def test_certificate_survives_halving(self, n, p, lam):
        """If delta certifies, any smaller delta0 still certifies: the
        search from delta0 = found/2 must succeed as well."""
        params = StructureParams(n, p)
        d = find_delta(Power(lam), params).delta
        d_half = find_delta(Power(lam), params, DeltaSearchOptions(delta0=d / 2.0)).delta
        assert d_half == pytest.approx(d / 2.0)

    @pytest.mark.parametrize(
        "f, n, p, delta0, expected",
        [
            (Power(3.5), 3, 2.0, 1.0, 0.5),
            (Power(2.5), 4, 2.0, 1.0, 1.0),
            (Power(3.0), 4, 2.0, 1.0, 1.0),
            (Power(5.5), 5, 3.0, 1.0, 0.5),
            (Power(2.5), 5, 2.0, 1.0, 1.0),
            (PowerLog(-2.0, 3.0), 3, 2.0, 1.0, 0.5),
            (Power(4.0), 3, 2.0, 0.5, 0.5),
            (Power(3.0), 4, 2.0, 0.5, 0.5),
            (Power(5.5), 5, 3.0, 0.25, 0.25),
        ],
    )
    def test_delta_unchanged_by_batched_panels(self, f, n, p, delta0, expected):
        # the scales the scalar quadrature found for the suite's cases
        d = find_delta(f, StructureParams(n, p), DeltaSearchOptions(delta0=delta0)).delta
        assert d == expected

    def test_search_reads_no_grid(self, monkeypatch, params32):
        # the certificate is the sup test and the tail test alone: w(0) in
        # closed form off the outer cache, and no w or envelope on a grid
        def refuse(self, r):
            raise AssertionError("the search reads a grid")

        monkeypatch.setattr(RadialProfile, "envelope_value", refuse)
        monkeypatch.setattr(RadialProfile, "values_on_grid", refuse)
        passes = partial_span_passes(monkeypatch)
        assert find_delta(Power(3.5), params32).delta == 0.5
        assert passes == []

    def test_sup_test_counts_the_outer_fill_error(self, monkeypatch, params32):
        # w(0) = 1/6 passes eps 2**-k = 1/2 at delta = 1; with an error of
        # 1/2 it does not, and at delta = 1/2, with a quarter of both, it does
        sup = RadialProfile._sup
        monkeypatch.setattr(RadialProfile, "_sup", lambda self: (sup(self)[0], 0.5))
        assert find_delta(Power(4.0), params32).delta == 0.5

    def test_tail_test_counts_the_source_limit_error(self, monkeypatch, params32):
        # a I(inf)**(1/(p-1)) = 1/3 passes eps 2**-k delta**k = 1/2 at
        # delta = 1 (a = 1, p = 2); with an error of 1/3 it does not, and at
        # delta = 1/2, 2/3 / 8 against 1/4, it does
        limit = RadialProfile._unit_limit
        monkeypatch.setattr(RadialProfile, "_unit_limit", lambda self: (limit(self)[0], 1.0 / 3.0))
        assert find_delta(Power(4.0), params32).delta == 0.5

    @pytest.mark.parametrize("n, p, e", [(3, 2.0, 4.0), (4, 2.0, 3.0), (5, 3.0, 5.5), (4, 1.5, 2.0), (8, 3.0, 6.2)])
    def test_certificate_errors(self, n, p, e):
        # both are carried and small; I(inf)'s encloses the Beta function's value
        prof = RadialProfile(Power(e), StructureParams(n, p), 1.0)
        (w0, w0_error), (limit, limit_error) = prof._sup(), prof._unit_limit()
        assert 0.0 < w0_error <= 1e-13 * w0
        assert 0.0 < limit_error <= 1e-13 * limit
        assert abs(limit - source_limit(n, p, Power(e))) <= limit_error

    def test_no_admissible_scale_reports_both_tests(self, monkeypatch, params32):
        monkeypatch.setattr(RadialProfile, "_sup", lambda self: (0.0, math.inf))
        with pytest.raises(DeltaSearchError) as exc:
            find_delta(Power(4.0), params32)
        # the last candidate, delta = 2**-60, with both sides of both tests
        assert str(exc.value).endswith(
            "delta=8.673617379884035e-19: sup w + error inf vs 5.000000e-01, "
            "tail coeff 2.175101e-55 vs 4.336809e-19"
        )

    def test_custom_delta0(self, params32):
        d = find_delta(Power(4.0), params32, DeltaSearchOptions(delta0=0.125)).delta
        assert d == 0.125

    def test_options_validation(self):
        with pytest.raises(ValueError):
            DeltaSearchOptions(delta0=0.0)


# ---------------------------------------------------------------------------
# profile misc


def test_criterion_result_cached(instance_profile):
    r1 = instance_profile.criterion_result()
    r2 = instance_profile.criterion_result()
    assert r1 is r2
    assert r1.value == pytest.approx(1.0, abs=1e-12)


def test_repr_mentions_family(instance_profile):
    text = repr(instance_profile)
    assert "delta=1.0" in text


def test_inner_integral_above_the_table_raises_when_its_quadrature_misses(instance_profile, monkeypatch):
    z = 2.0 * instance_profile.delta * float(instance_profile._table.s[-1])
    honest = instance_profile.inner_integral(z)
    assert honest == pytest.approx(inner_exact(z), rel=1e-9)
    batched = construct_module.integrate_intervals
    monkeypatch.setattr(
        construct_module, "integrate_intervals", lambda *args, **kw: batched(*args, **kw)._replace(converged=False)
    )
    with pytest.raises(QuadratureError, match=re.escape(f"at z = {z!r} did not converge")):
        instance_profile.inner_integral(z)


@given(delta=st.floats(min_value=0.2, max_value=5.0))
@settings(max_examples=10, deadline=None)
def test_inner_scaling_property(delta):
    params = StructureParams(3, 2.0)
    prof = RadialProfile(Power(4.0), params, delta)
    z = 1.7 * delta
    assert prof.inner_integral(z) == pytest.approx(
        delta**3 * inner_exact(z / delta), rel=1e-7
    )

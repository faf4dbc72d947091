"""Adaptive quadrature engine tests.

Closed forms used below:
    int_0^1 z^2 dz                = 1/3
    int_0^1 z^(-1/2) dz           = 2        (integrable endpoint singularity)
    int_0^1 (1-t)^2 dt            = 1/3
    int_0^inf x^2 (1+x)^(-4) dx   = 1/3      (Beta(3, 1) form)
    int_1^inf z^(-2) dz           = 1
    int over [1/2, 1] of z^(-3/2) = 2(sqrt 2 - 1)
    int over [1/4, 1/2]           = 2(2 - sqrt 2)
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import liouville.construct as construct_module
from liouville import (
    DEFAULT_TOLERANCE,
    Power,
    PowerLog,
    QuadratureError,
    StructureParams,
    Tolerance,
    integrate,
    integrate_intervals,
    integrate_to_infinity,
)
from liouville.quadrature import (
    _EPS,
    _LOW_AT,
    _MAX_LEVEL,
    _NARROW,
    _RESOLVE,
    _STALLS,
    _W_HIGH,
    _W_LOW,
    _WA_K7L4,
    _WA_PAIR,
    _XA_HIGH,
    _XA_K7,
    _bisect,
    _chebyshev,
    _K,
    _R_CRIT,
    _k7,
    _k7_legendre,
    _nodes,
    _panels,
    _rule,
)

from conftest import quad_ref

TOL = Tolerance(rel=1e-10, absolute=1e-14)


class TestTolerance:
    def test_bound_is_max_of_abs_and_rel(self):
        t = Tolerance(rel=1e-6, absolute=1e-10)
        assert t.bound(1.0) == 1e-6
        assert t.bound(0.0) == 1e-10
        assert t.bound(-2.0) == 2e-6

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Tolerance(rel=-1e-10, absolute=1e-14)

    def test_rejects_both_zero(self):
        with pytest.raises(ValueError):
            Tolerance(rel=0.0, absolute=0.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DEFAULT_TOLERANCE.rel = 1.0


class TestIntegrate:
    """One interval of :func:`_bisect`, on array-aware integrands."""

    def test_polynomial(self):
        res = integrate(lambda z: z * z, 0.0, 1.0, TOL)
        assert abs(res.value - 1.0 / 3.0) <= TOL.bound(1.0 / 3.0)
        assert res.converged

    def test_beta_form(self):
        res = integrate(lambda t: (1.0 - t) ** 2, 0.0, 1.0, TOL)
        assert abs(res.value - 1.0 / 3.0) <= TOL.bound(1.0 / 3.0)
        assert res.converged

    def test_endpoint_singularity(self):
        # The rule is open, so z=0 is never evaluated.  Bisection against
        # an algebraic singularity stalls slightly above the requested
        # error estimate (converged stays False, honestly), but the value
        # itself lands within the requested tolerance.
        res = integrate(lambda z: z**-0.5, 0.0, 1.0, TOL)
        assert abs(res.value - 2.0) <= TOL.bound(2.0)
        assert not res.converged
        assert res.abs_error < 1e-8

    def test_converged_error_within_requested_bound(self):
        res = integrate(np.sin, 0.0, math.pi, TOL)
        assert res.converged
        assert res.abs_error <= TOL.bound(res.value)
        assert abs(res.value - 2.0) <= TOL.bound(2.0)

    def test_interior_singularity_is_not_reported_converged(self):
        # the panels by 0.7 stop halving at _NARROW: narrower, a node can
        # land on 0.7 itself, where the integrand is 1e150, and every node of
        # a panel can round to one double, so that the panel looks exact
        # (2.2e134, converged, without the stop)
        tol = Tolerance(rel=1e-12, absolute=0.0)
        exact = 2.0 * (math.sqrt(0.2) + math.sqrt(0.3))
        res = integrate(lambda t: (abs(t - 0.7) + 1e-300) ** -0.5, 0.5, 1.0, tol)
        batched = integrate_intervals(lambda t: (abs(t - 0.7) + 1e-300) ** -0.5, [0.5], [1.0], tol)
        assert (res.value, res.abs_error, res.converged) == (*batched.values, *batched.abs_errors, batched.converged)
        assert not res.converged or res.abs_error <= tol.bound(res.value)
        assert abs(res.value - exact) <= res.abs_error < 1e-6
        # a log singularity at the edge cannot converge at all
        res = integrate(lambda t: ((t - 0.5) ** 2 + 1e-300) ** -0.5, 0.25, 0.5, tol)
        assert not res.converged

    def test_interval_that_cannot_converge_stops_when_its_panel_cannot_be_halved(self):
        # 1/|t - 1/2| is not integrable at 1/2: the panel by it keeps an error
        # near 6.5 at every level, against a bound of 3.6e-11.  From level 27
        # it is narrower than _RESOLVE, and after three halvings there that
        # leave its error where it was, it is not halved again: the interval
        # comes back unconverged at level 31, with 337 panels, before the
        # levels where the nodes by 1/2 round to a few bits and the panels'
        # estimates become noise that the even-share rule would chase.
        tol = Tolerance(rel=1e-12, absolute=0.0)
        res = integrate(lambda t: ((t - 0.5) ** 2 + 1e-300) ** -0.5, 0.25, 0.5, tol)
        assert not res.converged and res.abs_error > 1.0 > 1e10 * tol.bound(res.value)
        assert res.subdivisions < 400

    def test_is_one_interval_of_integrate_intervals(self):
        # the same engine, the same bits, and the panel count of the interval
        def g(x):
            return np.exp(np.sin(8.0 * x)) * x**-0.5

        tol = Tolerance(rel=1e-12, absolute=0.0)
        res = integrate(g, 0.0, 3.0, tol)
        batched = integrate_intervals(g, [0.0], [3.0], tol)
        assert (res.value, res.abs_error, res.converged) == (*batched.values, *batched.abs_errors, batched.converged)
        panels = _bisect(lambda own, a, b: _panels(g, a, b), np.zeros(1), np.full(1, 3.0), tol)[2]
        assert res.subdivisions == panels[0] > 1

    def test_endpoints_never_evaluated(self):
        def g(z):
            if np.isin(z, (0.0, 1.0)).any():
                raise AssertionError("closed endpoint evaluated")
            return np.ones_like(z)

        assert abs(integrate(g, 0.0, 1.0, TOL).value - 1.0) < 1e-12

    def test_nan_aborts_with_diagnostic(self):
        with pytest.raises(QuadratureError):
            integrate(lambda z: z * math.nan, 0.0, 1.0, TOL)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda z: z, 1.0, 0.0, TOL)

    @given(c=st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=50, deadline=None)
    def test_additivity(self, c):
        g = lambda z: np.exp(-z) * (1.0 + z * z)  # noqa: E731
        whole = integrate(g, 0.0, 1.0, TOL)
        left = integrate(g, 0.0, c, TOL)
        right = integrate(g, c, 1.0, TOL)
        budget = whole.abs_error + left.abs_error + right.abs_error + 1e-13
        assert abs(left.value + right.value - whole.value) <= budget

    @given(
        a=st.floats(min_value=-3, max_value=3),
        b=st.floats(min_value=-3, max_value=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, a, b):
        g = lambda z: z * z  # noqa: E731
        h = np.cos
        combined = integrate(lambda z: a * g(z) + b * h(z), 0.0, 2.0, TOL)
        parts = a * integrate(g, 0.0, 2.0, TOL).value + b * integrate(h, 0.0, 2.0, TOL).value
        assert abs(combined.value - parts) <= 1e-9 * (1.0 + abs(parts))


def _consecutive(g_vec, edges, tol):
    # integrate_intervals on the panels between consecutive edges
    return integrate_intervals(g_vec, edges[:-1], edges[1:], tol)


class TestIntegratePanels:
    """The batched kernel on consecutive panels against QUADPACK."""

    @given(
        amp=st.floats(min_value=-5.0, max_value=5.0),
        rate=st.floats(min_value=-2.0, max_value=2.0),
        freq=st.floats(min_value=0.0, max_value=6.0),
        phase=st.floats(min_value=0.0, max_value=3.0),
        quad=st.floats(min_value=-1.0, max_value=1.0),
        points=st.lists(
            st.floats(min_value=-3.0, max_value=3.0), min_size=2, max_size=12, unique=True
        ),
    )
    @settings(max_examples=60, deadline=None)
    # a subnormal integral: its error is floored at ulps of its size, as
    # 50 eps of it underflows to 0, and QUADPACK's value is 2 ulps away
    @example(amp=0.0, rate=0.0, freq=0.0, phase=0.0, quad=2.225073858507e-311, points=[0.0, 1.0])
    # a one-ulp interval: QUADPACK's nodes round onto its ends, and its value
    # is 5.5e-31 off while it claims 6.0e-32; the reference allows for that
    @example(amp=1.0, rate=0.0, freq=5.625, phase=2.75, quad=0.0, points=[-3.0, -2.9999999999999996])
    def test_agrees_with_scalar_within_reported_error(
        self, amp, rate, freq, phase, quad, points
    ):
        def g(x):
            return amp * np.exp(rate * x) * np.cos(freq * x + phase) + quad * x * x

        edges = sorted(points)
        batched = _consecutive(g, edges, TOL)
        for i, (a, b) in enumerate(zip(edges, edges[1:])):
            ref, ref_error = quad_ref(g, a, b, TOL.rel)
            assert abs(batched.values[i] - ref) <= batched.abs_errors[i] + ref_error

    def test_error_floor_holds_for_subnormal_and_zero_integrals(self):
        # 50 eps of a subnormal integral underflows, so its error is floored
        # at 50 ulps instead; an exact 0 keeps error 0, and converges
        # without halving at a purely relative tolerance
        tol = Tolerance(rel=1e-10, absolute=0.0)
        tiny = _consecutive(lambda x: 2.225073858507e-311 * x * x, [0.0, 1.0], tol)
        assert tiny.abs_errors[0] == 50 * math.ulp(0.0) and tiny.converged
        zero = integrate(lambda x: 0.0 * x, 0.0, 1.0, tol)
        assert (zero.value, zero.abs_error, zero.subdivisions, zero.converged) == (0.0, 0.0, 1, True)

    def test_endpoint_singularity_is_halved_on_the_batch(self):
        # the open rule never evaluates x = 0; the panels by it are halved on
        # the batch.  Each halving takes a factor sqrt(2) off the error by 0,
        # so 1e-10 is out of reach within the depth cap
        res = _consecutive(lambda x: x**-0.5, [0.0, 1.0, 1.25], TOL)
        ref, ref_error = quad_ref(lambda z: z**-0.5, 0.0, 1.0, TOL.rel)
        assert not res.converged
        assert abs(res.values[0] - 2.0) <= res.abs_errors[0] < 1e-8
        assert abs(res.values[0] - ref) <= res.abs_errors[0] + ref_error
        assert res.values[1] == pytest.approx(2.0 * (math.sqrt(1.25) - 1.0), rel=1e-13)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_integrand_raises(self, bad):
        def g_vec(x):
            return np.where(x > 1.5, bad, x)

        with pytest.raises(QuadratureError):
            _consecutive(g_vec, [0.0, 1.0, 2.0], TOL)


def _random_rows(seed, sign_changing):
    # 256 panels [a, b] and integrand values at their 15 nodes
    rng = np.random.default_rng(seed)
    fx = rng.lognormal(size=(256, 15))
    if sign_changing:
        fx *= rng.choice([-1.0, 1.0], size=fx.shape)
    a = rng.uniform(-2.0, 2.0, 256)
    return fx, a, a + rng.lognormal(size=256)


def _smooth_rows(seed, sign_changing):
    # 256 panels of +-exp(beta x + gamma), or cos(beta x + gamma), on
    # [-1, 1] scaled to [a, b]: smooth rows, some resolved at one panel,
    # some not; the exponentials negative in part where sign_changing
    rng = np.random.default_rng(seed)
    beta = rng.uniform(-40.0, 40.0, (256, 1))
    gamma = rng.uniform(-2.0, 2.0, (256, 1))
    sign = rng.choice([-1.0, 1.0], size=(256, 1)) if sign_changing else 1.0
    fx = np.where(rng.random((256, 1)) < 0.5, sign * np.exp(beta * _XA_HIGH + gamma), np.cos(0.5 * beta * _XA_HIGH + gamma))
    a = rng.uniform(-2.0, 2.0, 256)
    return fx, a, a + rng.lognormal(size=256)


def _fsum_panel(row, h, width):
    # the Fejer pair and its damped estimate on one panel's 15 values, with
    # every sum exact (math.fsum)
    high = h * math.fsum(w * v for w, v in zip(_W_HIGH, row))
    low = h * math.fsum(w * row[i] for w, i in zip(_W_LOW, _LOW_AT))
    resabs = h * math.fsum(w * abs(v) for w, v in zip(_W_HIGH, row))
    resasc = h * math.fsum(w * abs(v - high / width) for w, v in zip(_W_HIGH, row))
    err = abs(high - low)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return high, max(err, 50.0 * _EPS * resabs)


class TestRule:
    """The array rule of a block of panels against exact sums panel by panel."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("sign_changing", [False, True])
    def test_matches_the_scalar_panel(self, seed, sign_changing):
        # random values show no decay of their coefficients: the estimate
        # is the damped one of every row
        fx, a, b = _random_rows(seed, sign_changing)
        high, err = _rule(fx, 0.5 * (b - a), b - a)
        for i, row in enumerate(fx.tolist()):
            h = 0.5 * float(b[i] - a[i])
            ref_high, ref_err = _fsum_panel(row, h, float(b[i] - a[i]))
            # a sum is good to a few ulps of the sum of its terms' sizes, and
            # the estimate to a few ulps of its own sums, propagated through
            # |high - low| and the damping's power 1.5
            scale = h * math.fsum(w * abs(v) for w, v in zip(_W_HIGH, row))
            raw = abs(ref_high - h * math.fsum(w * row[j] for w, j in zip(_W_LOW, _LOW_AT)))
            assert abs(high[i] - ref_high) <= 4.0 * _EPS * scale
            assert abs(err[i] - ref_err) <= 4.0 * _EPS * ref_err * (1.0 + 1.5 * scale / raw)

    def test_rows_do_not_depend_on_their_block(self):
        # bit for bit: a panel's value is the same whatever shares its block
        # (a BLAS product, for one, sums a row differently in different blocks)
        fx, a, b = _random_rows(2, True)
        h, width = 0.5 * (b - a), b - a
        block = _rule(fx, h, width)
        rows = [_rule(fx[i : i + 1].copy(), h[i : i + 1], width[i : i + 1]) for i in range(fx.shape[0])]
        assert block[0].tolist() == [float(v[0]) for v, _ in rows]
        assert block[1].tolist() == [float(e[0]) for _, e in rows]

    @pytest.mark.parametrize("sign_changing", [False, True])
    def test_fejer_default_is_the_fixed_rule(self, sign_changing):
        # the bits of the rule written out: the pair's own einsums, a
        # separate copy of the high weights, the trailing Chebyshev pairs
        # with those within the floor read as 0, and Berntsen and Espelid's
        # estimate where they decay, the damped difference elsewhere; on
        # random rows, then smooth ones
        rows = zip(_random_rows(3, sign_changing), _smooth_rows(3, sign_changing))
        fx, a, b = (np.concatenate(x) for x in rows)
        h, width = 0.5 * (b - a), b - a
        pair = np.einsum("ij,kj->ik", fx, _WA_PAIR)
        high, low, w = h * pair[:, 0], h * pair[:, 1], np.array(_W_HIGH)
        resabs = h * np.einsum("ij,j->i", np.abs(fx), w)
        resasc = h * np.einsum("ij,j->i", np.abs(fx - (high / width)[:, None]), w)
        err = np.abs(high - low)
        damped = np.where((resasc != 0.0) & (err != 0.0), resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5), err)
        floor = 50.0 * _EPS * resabs
        c = np.einsum("ij,kj->ik", fx, _chebyshev()[9:])
        pairs = np.hypot(c[:, [0, 2, 4]], c[:, [1, 3, 5]])  # E3, E2, E1
        pairs[h[:, None] * pairs <= floor[:, None]] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.nan_to_num(np.fmax(pairs[:, 2] / pairs[:, 1], pairs[:, 1] / pairs[:, 0]), nan=0.0, posinf=np.inf)
        decay = r < 0.25
        est = 10.0 * h * pairs[:, 2] * np.where(decay, r, 0.0)
        value, estimate = _rule(fx, h, width)
        assert value.tolist() == high.tolist()
        assert estimate.tolist() == np.maximum(np.where(decay, est, damped), floor).tolist()
        # random rows show no decay; the smooth ones take either branch
        assert not decay[:256].any() and decay[256:].any() and not decay[256:].all()

    def test_chebyshev_matrix_is_the_interpolant(self):
        # c = M f are the coefficients of the degree-14 polynomial through
        # the 15 values: T_k at the nodes maps to the unit vector e_k
        m = _chebyshev()
        t = np.cos(np.arange(15)[:, None] * np.arccos(_XA_HIGH))
        assert np.abs(m @ t.T - np.eye(15)).max() <= 1e-14
        fx = np.random.default_rng(5).normal(size=15)
        assert m @ fx == pytest.approx(np.polynomial.chebyshev.chebfit(_XA_HIGH, fx, 14), abs=1e-13)


def _battery():
    # one panel on [-1, 1] each, with the integrand, its mpmath twin and its
    # kinks: smooth integrands that one panel does not resolve, and
    # near-singular ones (a singularity or a kink just outside or inside the
    # panel, a steep front); every kink lies within the nodes' span, as one
    # past the outermost node (0.981) is seen by no rule
    smooth = [(f"exp({a} x)", lambda x, a=a: np.exp(a * x), lambda t, a=a: mpmath.exp(a * t), ())
              for a in (1.5, 2, 3, 4, 6, 8, 12, 20, 30, 60)]
    smooth += [(f"exp(-{a} x)", lambda x, a=a: np.exp(-a * x), lambda t, a=a: mpmath.exp(-a * t), ()) for a in (2, 8, 25)]
    smooth += [(f"1 / (1 + {a} x^2)", lambda x, a=a: 1.0 / (1.0 + a * x * x), lambda t, a=a: 1 / (1 + a * t * t), (0.0,))
               for a in (0.5, 1, 2, 5, 25, 100, 1000)]
    smooth += [(f"cos({a} x + 1)", lambda x, a=a: np.cos(a * x + 1.0), lambda t, a=a: mpmath.cos(a * t + 1), ())
               for a in (2, 3, 4, 6, 8, 10, 14, 20, 30)]
    smooth += [(f"(x + 1)^{k}", lambda x, k=k: (x + 1.0) ** k, lambda t, k=k: (t + 1) ** k, ()) for k in (15, 16, 20, 30, 60, 100)]
    near = []
    for a in (1e-6, 1e-3, 1e-2, 0.05, 0.3):
        near += [
            (f"sqrt(x + 1 + {a})", lambda x, a=a: np.sqrt(x + 1.0 + a), lambda t, a=a: mpmath.sqrt(t + 1 + a), ()),
            (f"(x + 1 + {a})^-1/2", lambda x, a=a: (x + 1.0 + a) ** -0.5, lambda t, a=a: (t + 1 + a) ** -0.5, ()),
            (f"log(x + 1 + {a})", lambda x, a=a: np.log(x + 1.0 + a), lambda t, a=a: mpmath.log(t + 1 + a), ()),
        ]
    near += [(f"|x - {a}|", lambda x, a=a: np.abs(x - a), lambda t, a=a: abs(t - a), (a,)) for a in (0.0, 0.1, 0.33, 0.5, 0.9)]
    near += [(f"tanh({a} (x - 0.2))", lambda x, a=a: np.tanh(a * (x - 0.2)), lambda t, a=a: mpmath.tanh(a * (t - 0.2)), (0.2,))
             for a in (2, 5, 20, 200)]
    return smooth + near


_BATTERY = _battery()


class TestEstimate:
    """The error estimate of one Fejer panel against mpmath."""

    @pytest.mark.parametrize("name, g, g_mp, kinks", _BATTERY, ids=[b[0] for b in _BATTERY])
    def test_covers_the_error_of_one_panel(self, name, g, g_mp, kinks):
        with mpmath.workdps(30):
            ref = float(mpmath.quad(g_mp, [-1, *kinks, 1]))
        value, estimate = _panels(g, np.array([-1.0]), np.array([1.0]))
        error = abs(float(value[0]) - ref)
        if error > 1e-15 * abs(ref):
            assert estimate[0] >= error

    def test_battery_takes_both_branches_and_rows_do_not_depend_on_their_block(self):
        # the smooth panels that decay are judged by their coefficients, at
        # far less than the damped difference would say; the block's bits
        # are those of each panel alone
        fx = np.array([g(_XA_HIGH) for _, g, _, _ in _BATTERY])
        one = np.ones(len(_BATTERY))
        value, estimate = _rule(fx, one, 2.0 * one)
        alone = [_rule(row[None, :].copy(), one[:1], 2.0 * one[:1]) for row in fx]
        assert value.tolist() == [float(v[0]) for v, _ in alone]
        assert estimate.tolist() == [float(e[0]) for _, e in alone]
        damped = [_fsum_panel(row, 1.0, 2.0)[1] for row in fx.tolist()]
        tighter = [e < 1e-3 * d for e, d in zip(estimate.tolist(), damped)]
        assert 10 <= sum(tighter) < len(_BATTERY)


class TestLobattoKronrod:
    """The pair of Gander and Gautschi: K7 of degree 9, its Lobatto L4 of degree 5."""

    @pytest.mark.parametrize("row, degree", [(0, 9), (1, 5)])
    def test_degree(self, row, degree):
        # the rule on [-1, 1] against the integral of x**d: 2/(d+1), or 0
        def moment_error(d):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            return abs(math.fsum(w * x**d for w, x in zip(_WA_K7L4[row], _XA_K7)) - exact)

        assert all(moment_error(d) <= 4.0 * _EPS for d in range(degree + 1))
        assert moment_error(degree + 1) > 1e-4

    def test_ends_are_nodes_and_the_low_rule_is_embedded(self):
        assert (_XA_K7[0], _XA_K7[-1]) == (-1.0, 1.0)
        assert np.flatnonzero(_WA_K7L4[1]).tolist() == [0, 2, 4, 6]
        assert _XA_K7[[2, 4]].tolist() == pytest.approx([-1.0 / math.sqrt(5.0), 1.0 / math.sqrt(5.0)], abs=0.0)
        # _k7 takes the ends as f0 and f6 and reads L4 off the nodes 0, 2, 4
        # and 6: on x**4 + 1 both rules are exact, so the estimate is at its
        # floor; on (x**2 - 1/5)**2 (1 - x**2), 0 at L4's nodes, it is not
        x = _XA_K7[:, None]
        exact = _k7(*_node_major(x**4 + 1.0), np.ones(1))
        assert exact[0].tolist() == pytest.approx([2.4], rel=1e-15)
        assert exact[1].tolist() == [50.0 * _EPS * exact[0][0]]
        rough = _k7(*_node_major((x**2 - 0.2) ** 2 * (1.0 - x**2)), np.ones(1))
        assert rough[1][0] > 1e-3 * rough[0][0]

    def test_smooth_panels_meet_tight_tolerances(self):
        # exp over panels of width 1/64: K7 within 1e-15 of the closed form,
        # and the damped L4 estimate within 1e-12 of the value
        a = np.linspace(-4.0, 4.0, 513)[:-1]
        b = a + 1.0 / 64.0
        value, estimate = _k7(*_node_major(np.exp(_nodes(a, b, _XA_K7).T)), 0.5 * (b - a))
        exact = np.exp(a) * np.expm1(b - a)
        assert np.all(np.abs(value - exact) <= 1e-15 * exact)
        assert np.all(estimate <= 1e-12 * value)


def _node_major(fx):
    # the end values and the interior rows of K7 values fx, one node per row
    return fx[0], fx[1:-1], fx[-1]


def _k7_reference(fx, h):
    # _k7 by another route, on panel-major values fx (one panel per row, its
    # 7 nodes in order): the rules' sums by einsum, the Legendre
    # coefficients by numpy's fit of degree 6 through the seven values, and
    # the damped L4 estimate with the damping's power 1.5
    pair = np.einsum("ij,kj->ik", fx, _WA_K7L4)
    high, low = h * pair[:, 0], h * pair[:, 1]
    floor = 50.0 * _EPS * h * pair[:, 0]
    e3, e2, e1 = h * np.abs(np.polynomial.legendre.legfit(_XA_K7, fx.T, 6)[[2, 4, 6]])
    e3, e2, e1 = (np.where(e <= floor, 0.0, e) for e in (e3, e2, e1))
    resasc = h * np.einsum("ij,j->i", np.abs(fx - (high / (2.0 * h))[:, None]), _WA_K7L4[0])
    err = np.abs(high - low)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = np.fmax(np.fmax(e1 / e2, e2 / e3), 0.0)
        damped = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
        damped = np.where((resasc != 0.0) & (err != 0.0), damped, err)
        est = np.where(r < _R_CRIT, _K * r**2 * e1, damped)
    return high, np.maximum(est, floor)


# the K7 panels of these tables (all but [0, s_0]) against the reference,
# and their count: 1024 + 320 - 1 on level-1 knots, 2048 + 640 - 1 on level 0
_K7_TABLES = [
    (Power(4.0), StructureParams(3, 2.0), 1343),
    (Power(40.0), StructureParams(3, 2.0), 2687),
    (PowerLog(-1.2, 2.0), StructureParams(4, 2.0), 1343),
    (Power(4.5), StructureParams(8, 3.0), 1343),
    (Power(1.38), StructureParams(4, 1.5), 1343),
]


def _k7_formula(f0, inner, f6, h):
    # _k7 written as one expression per sum, with a fresh array for every
    # term: the kernel's in-place sums must give these bits
    (w0, w1, w2, w3), (l0, l2) = _WA_K7L4[0, :4].tolist(), _WA_K7L4[1, [0, 2]].tolist()
    ends, outer, mid = f0 + f6, inner[0] + inner[4], inner[1] + inner[3]
    s = w0 * ends + w1 * outer + w2 * mid + w3 * inner[2]
    floor = 50.0 * _EPS * s
    c = [a0 * ends + a1 * outer + a2 * mid + a3 * inner[2] for a0, a1, a2, a3 in _k7_legendre()]
    e3, e2, e1 = (np.where(np.abs(x) <= floor, 0.0, np.abs(x)) for x in c)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = np.fmax(np.fmax(e1 / e2, e2 / e3), 0.0)
        decayed = r * r * _K * e1
    mean = 0.5 * s
    dev = np.abs(inner - mean)
    asc = w0 * (np.abs(f0 - mean) + np.abs(f6 - mean)) + w1 * (dev[0] + dev[4]) + w2 * (dev[1] + dev[3]) + w3 * dev[2]
    q = np.minimum(200.0 * np.abs(s - (l0 * ends + l2 * mid)), asc)
    np.divide(q, asc, out=q, where=asc > 0.0)
    err = np.where(r < _R_CRIT, decayed, q * np.sqrt(q) * asc)
    return h * s, h * np.maximum(err, floor)


def _k7_panels(rng, size):
    # node values of `size` panels, one node per row: random ones, some with
    # zeros, constant ones (asc = 0), zero ones, and smooth ones, e**(beta x)
    # with beta up to 3, whose coefficients decay; then their half-widths
    fx = rng.lognormal(size=(7, size)) * (rng.random((7, size)) > 0.1)
    fx[:, :40] = rng.lognormal(size=40)
    fx[:, 40:50] = 0.0
    fx[:, size // 2 :] = np.exp(3.0 * rng.random(size - size // 2) * _XA_K7[:, None])
    return fx, rng.lognormal(size=size)


class TestK7:
    """The node-major kernel of the closed pair against the einsum reference."""

    def test_in_place_sums_are_the_formula_bit_for_bit(self):
        fx, h = _k7_panels(np.random.default_rng(11), 1024)
        before = fx.copy()
        ours, ref = _k7(*_node_major(fx), h), _k7_formula(*_node_major(fx), h)
        assert ours[0].tolist() == ref[0].tolist() and ours[1].tolist() == ref[1].tolist()
        assert np.array_equal(fx, before)  # the inputs are not written
        # both estimates are taken: the coefficients' and the damped L4's
        assert 100 < np.count_nonzero(ours[1] > 50.0 * _EPS * ours[0]) < 1000

    def test_panels_do_not_depend_on_their_block(self):
        # bit for bit: a panel alone gets the bits of its column in a block
        # of 2687 panels, as many as a table on level-0 knots has
        fx, h = _k7_panels(np.random.default_rng(4), 2687)
        block = _k7(*_node_major(fx), h)
        for i in range(2687):
            one = _k7(*_node_major(fx[:, i : i + 1].copy()), h[i : i + 1])
            assert (one[0][0], one[1][0]) == (block[0][i], block[1][i])

    def test_estimate_reads_the_even_coefficients(self):
        # K7 integrates an odd polynomial exactly: x**7 adds nothing to the
        # estimate of e**x, which it reads off c2, c4 and c6; a polynomial
        # of degree 4 is at its floor.  Where the coefficients do not decay,
        # as on x**6 (degree 6, but no terms below), the damped L4 estimate
        # takes over
        x = _XA_K7[:, None]
        smooth = _k7(*_node_major(np.exp(x)), np.ones(1))
        odd = _k7(*_node_major(np.exp(x) + x**7), np.ones(1))
        assert odd[1][0] == pytest.approx(smooth[1][0], rel=1e-6)
        assert abs(smooth[0][0] - 2.0 * math.sinh(1.0)) <= smooth[1][0] < 1e-6 * smooth[0][0]
        quartic = _k7(*_node_major(x**4 - x**2 + 2.0), np.ones(1))
        assert quartic[1][0] == 50.0 * _EPS * quartic[0][0]
        high = _k7(*_node_major(x**6 + 1e-3), np.ones(1))
        assert high[1][0] > 1e-3 * high[0][0]

    @pytest.mark.parametrize("f, params, panels", _K7_TABLES, ids=[f"n{p.n}-p{p.p}-{f!r}" for f, p, _ in _K7_TABLES])
    def test_table_blocks_match_the_einsum_rule(self, monkeypatch, f, params, panels):
        blocks, kernel = [], construct_module._k7

        def recorded(f0, inner, f6, h, **dense):
            blocks.append((np.column_stack((f0, inner.T, f6)), h.copy(), kernel(f0, inner, f6, h, **dense)))
            return blocks[-1][2]

        monkeypatch.setattr(construct_module, "_k7", recorded)
        construct_module._table_fill(f, params, Tolerance(rel=1e-12, absolute=0.0))
        assert blocks[0][0].shape[0] == panels
        for fx, h, (value, estimate) in blocks[:1]:
            ref_value, ref_estimate = _k7_reference(fx, h)
            # the values agree to rounding; the estimates, products of small
            # coefficients or differences of nearly equal sums, to a few
            # digits where they are not noise, above twice the floor
            assert np.all(np.abs(value - ref_value) <= 1e-15 * ref_value)
            read = ref_estimate > 2e-14 * ref_value
            assert np.all(np.abs(estimate - ref_estimate)[read] <= 1e-3 * ref_estimate[read])
            assert ((estimate > 1e-12 * value) == (ref_estimate > 1e-12 * ref_value)).all()


class TestIntegrateIntervals:
    def test_overlapping_and_empty_intervals(self):
        # int_a^b x^2 = (b^3 - a^3) / 3; the empty interval is never evaluated
        calls = []

        def g_vec(x):
            calls.append(x.shape[0])
            return x * x

        lo, hi = [0.0, 0.5, 2.0, 0.25], [1.0, 2.0, 2.0, 0.75]
        res = integrate_intervals(g_vec, lo, hi, TOL)
        exact = [(b**3 - a**3) / 3.0 for a, b in zip(lo, hi)]
        assert res.values.tolist() == pytest.approx(exact, rel=1e-14, abs=0.0)
        assert res.abs_errors[2] == 0.0
        assert res.converged
        assert calls == [3]

    def test_panels_are_the_consecutive_case(self):
        # consecutive panels in one pass get the bits of each panel alone
        edges = [0.0, 0.3, 1.0, 4.0]
        panels = _consecutive(np.exp, edges, TOL)
        alone = [integrate_intervals(np.exp, [a], [b], TOL) for a, b in zip(edges, edges[1:])]
        assert panels.values.tolist() == [float(x.values[0]) for x in alone]
        assert panels.abs_errors.tolist() == [float(x.abs_errors[0]) for x in alone]

    @pytest.mark.parametrize(
        "lo, hi",
        [([0.0, 1.0], [1.0]), ([1.0], [0.5]), ([0.0], [math.inf]), ([math.nan], [1.0]),
         ([[0.0]], [[1.0]])],
    )
    def test_bad_intervals_rejected(self, lo, hi):
        with pytest.raises(ValueError):
            integrate_intervals(lambda x: x, lo, hi, TOL)


class TestInfiniteTail:
    def test_beta_tail(self):
        res = integrate_to_infinity(lambda x: x * x * (1.0 + x) ** -4.0, 0.0, TOL)
        assert abs(res.value - 1.0 / 3.0) <= TOL.bound(1.0 / 3.0)
        assert res.converged

    def test_power_tail(self):
        res = integrate_to_infinity(lambda z: z**-2.0, 1.0, TOL)
        assert abs(res.value - 1.0) <= TOL.bound(1.0)
        assert res.converged

    def test_logarithmic_divergence_flagged(self):
        res = integrate_to_infinity(lambda x: x * x * (1.0 + x) ** -3.0, 0.0, TOL)
        assert not res.converged
        # the stall is gross, not marginal: that gap is what divergence
        # detection in the construction relies on
        assert res.abs_error > 0.05 * abs(res.value)

    def test_zero_tail_shortcut(self):
        res = integrate_to_infinity(lambda z: 0.0, 5.0, TOL)
        assert res.value == 0.0
        assert res.converged


def _fejer(g):
    # the open 15-node panels of g as a panel rule of _bisect
    return lambda own, a, b: _panels(g, a, b)


def _shells(g, eps, count, tol):
    # the dyadic shells (eps/2^(k+1), eps/2^k] in one batched pass
    hi = eps * 0.5 ** np.arange(count)
    return _bisect(_fejer(g), 0.5 * hi, hi, tol)


class TestDyadicShells:
    def test_scale_invariant_integrand(self):
        shells = _shells(lambda z: 1.0 / z, 1.0, 3, TOL)[0]
        assert len(shells) == 3
        for s in shells:
            assert abs(s - math.log(2.0)) < 1e-12

    def test_constant_integrand_interval_lengths(self):
        # entry k covers (eps/2^(k+1), eps/2^k], outermost first
        shells = _shells(np.ones_like, 1.0, 2, TOL)[0]
        assert abs(shells[0] - 0.5) < 1e-13
        assert abs(shells[1] - 0.25) < 1e-13

    def test_inverse_power_antiderivative(self):
        # antiderivative of z^(-3/2) is -2 z^(-1/2)
        shells = _shells(lambda z: z**-1.5, 1.0, 2, TOL)[0]
        assert abs(shells[0] - 2.0 * (math.sqrt(2.0) - 1.0)) < 1e-10
        assert abs(shells[1] - 2.0 * (2.0 - math.sqrt(2.0))) < 1e-10

    @given(k=st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_shells_sum_to_whole(self, k):
        shells = _shells(lambda z: z**-0.25, 1.0, k, TOL)[0]
        whole = integrate(lambda z: z**-0.25, 2.0**-k, 1.0, TOL)
        assert abs(math.fsum(shells) - whole.value) <= 1e-9


class TestBatchedShells:
    def test_agrees_with_integrate_per_shell(self):
        def g(z):
            return z**-1.5 * np.exp(np.sin(8.0 * z))

        values, errors, _, converged = _shells(g, 3.0, 12, TOL)
        hi = 3.0
        for value, error, ok in zip(values, errors, converged):
            ref, ref_error = quad_ref(g, 0.5 * hi, hi, TOL.rel)
            assert ok
            assert abs(value - ref) <= error + ref_error
            assert error <= TOL.bound(value)
            hi *= 0.5

    def test_shells_do_not_depend_on_their_neighbours(self):
        # the outermost shells of a long pass are those of a short one, and
        # the rest are those of a pass that starts where the short one ends
        def g(z):
            return z**2 * np.log1p(1.0 / z) ** -2

        tol = Tolerance(rel=1e-12, absolute=0.0)
        long = [x.tolist() for x in _shells(g, 1.0, 100, tol)[:4]]
        assert [x.tolist() for x in _shells(g, 1.0, 30, tol)[:4]] == [x[:30] for x in long]
        assert [x.tolist() for x in _shells(g, 2.0**-30, 70, tol)[:4]] == [x[30:] for x in long]

    def test_zero_width_shells_integrate_to_zero(self):
        values, _, _, converged = _shells(lambda z: np.ones_like(z), 1e-323, 4, TOL)
        assert values[2:].tolist() == [0.0, 0.0]
        assert converged.all()

    def test_open_intervals_are_halved_on_the_batch(self):
        # intervals the one-panel rule cannot resolve to 1e-12 are halved
        # on the batch, and agree with QUADPACK
        def g(z):
            return z**-1.5 * np.exp(np.sin(8.0 * z))

        tol = Tolerance(rel=1e-12, absolute=0.0)
        hi = 0.5 ** np.arange(8)
        values, errors, panels, converged = _bisect(_fejer(g), 0.5 * hi, hi, tol)
        assert (panels > 1).any() and converged.all()
        for k in range(8):
            ref, ref_error = quad_ref(g, 0.5 * hi[k], hi[k], tol.rel)
            assert abs(values[k] - ref) <= errors[k] + ref_error

    def test_unconverged_redo_is_flagged(self):
        # 1/x is not integrable at 0, which the open rule never evaluates:
        # the panel by 0 misses at every level, to the depth cap, and the
        # interval comes back with the sums of its panels as they stand
        tol = Tolerance(rel=1e-12, absolute=0.0)
        rule, calls = _fejer(lambda x: 1.0 / x), []
        values, errors, panels, converged = _bisect(
            lambda own, a, b: calls.append(own.tolist()) or rule(own, a, b),
            np.array([0.0, 1.0]), np.array([1.0, 2.0]), tol,
        )
        assert converged.tolist() == [False, True]
        assert len(calls) == _MAX_LEVEL + 1 and calls[0] == [0, 1] and calls[-1] == [0] * len(calls[-1])
        assert math.isfinite(values[0]) and errors[0] > tol.bound(values[0])
        assert values[1] == pytest.approx(math.log(2.0), rel=1e-12)

    def test_narrow_panels_are_not_halved(self):
        # a panel narrower than _NARROW of its position stays whole, however
        # large its error, and its interval comes back unconverged; a wider
        # one next to it is halved
        calls = []

        def rule(own, a, b):
            calls.append((b - a).tolist())
            return np.ones(a.size), np.full(a.size, np.inf)

        lo = np.array([1.0, 1.0])
        hi = lo + np.array([0.5, 4.0]) * _NARROW
        values, errors, panels, converged = _bisect(rule, lo, hi, TOL)
        assert not converged.any() and panels.tolist() == [1, 1 + 2 + 4]
        assert calls == [[0.5 * _NARROW, 4.0 * _NARROW], [2.0 * _NARROW] * 2, [_NARROW] * 4]

    def test_a_panel_whose_halving_does_not_pay_is_not_halved(self):
        # the panel by one end keeps an error of 1 through every halving.  By
        # 1 + 2**-16 it is narrower than _RESOLVE (2**-28 of its position)
        # from width 2**-28 on, and after _STALLS halvings there it is not
        # halved again: the last rule call takes panels of width 2**-31.  By
        # 0 no panel is narrow against its position, and it is halved to the
        # depth cap
        assert _RESOLVE == 2.0**-28 and _STALLS == 3
        for lo, hi, edge, levels in ((1.0, 1.0 + 2.0**-16, 1.0 + 2.0**-16, 16), (0.0, 2.0**-16, 0.0, _MAX_LEVEL + 1)):
            widths = []

            def rule(own, a, b):
                widths.append(float((b - a).min()))
                return b - a, np.where((a == edge) | (b == edge), 1.0, 0.0)

            values, errors, panels, converged = _bisect(rule, np.array([lo]), np.array([hi]), TOL)
            assert not converged[0] and errors[0] == 1.0 and values[0] == pytest.approx(hi - lo, rel=1e-15)
            assert len(widths) == levels and panels[0] == 2 * levels - 1
            assert widths == [2.0 ** (-16 - k) for k in range(levels)]

    def test_a_stuck_interval_stops_alone(self):
        # the interval by the singularity at 1/2 stops once its panel there
        # cannot be halved; the one beside it in the batch gets the bits it
        # gets alone, and the stuck one those of integrate
        tol = Tolerance(rel=1e-12, absolute=0.0)
        rule = _fejer(lambda t: ((t - 0.5) ** 2 + 1e-300) ** -0.5)
        both = _bisect(rule, np.array([0.25, 1.0]), np.array([0.5, 2.0]), tol)
        alone = [_bisect(rule, np.array([lo]), np.array([hi]), tol) for lo, hi in ((0.25, 0.5), (1.0, 2.0))]
        assert [x.tolist() for x in both] == [np.concatenate(x).tolist() for x in zip(*alone)]
        assert both[3].tolist() == [False, True] and both[2][0] < 400

    def test_first_level_from_the_caller(self):
        # a caller that has valued every interval as one panel passes those
        # values as level 0: the same bits, and the rule values only halves
        def g(z):
            return z**-1.5 * np.exp(np.sin(8.0 * z))

        tol = Tolerance(rel=1e-12, absolute=0.0)
        hi = 0.5 ** np.arange(8)
        calls = []
        rule = lambda own, a, b: calls.append((b - a).tolist()) or _panels(g, a, b)  # noqa: E731
        fresh = _bisect(rule, 0.5 * hi, hi, tol)
        first = _panels(g, 0.5 * hi, hi)
        calls.clear()
        given = _bisect(rule, 0.5 * hi, hi, tol, first)
        assert [x.tolist() for x in given[:2]] == [x.tolist() for x in fresh[:2]]
        assert given[2].tolist() == (fresh[2] - 1).tolist() and given[3].all()
        assert calls and set(calls[0]) <= set((0.25 * hi).tolist())  # halves, no whole interval

    def test_only_the_panels_over_their_share_are_halved(self):
        # a kink is resolved by halving the panels next to it, level by
        # level, with few panels
        tol = Tolerance(rel=1e-12, absolute=0.0)
        values, errors, panels, converged = _bisect(
            _fejer(lambda x: np.abs(x - 0.3)), np.array([0.0, 1.0]), np.array([1.0, 2.0]), tol
        )
        assert converged.all()
        assert abs(values[0] - 0.29) <= errors[0] <= tol.bound(0.29)
        assert values[1] == pytest.approx(1.2, rel=1e-15) and panels[1] == 1
        assert panels[0] < 100

    def test_any_panel_rule(self):
        # the rule gets only the new halves, each with its interval: here
        # K7 on x**8 (exact, but for rounding) with a made-up error, the
        # square of the width, so that an interval is done once its panels
        # are narrow
        seen = []

        def rule(own, a, b):
            seen.append((own.tolist(), (b - a).tolist()))
            f = lambda x: x**8  # noqa: E731
            x = _nodes(a, b, _XA_K7).T
            values, _ = _k7(f(x[0]), f(x[1:-1]), f(x[-1]), 0.5 * (b - a))
            return values, (b - a) ** 2

        tol = Tolerance(rel=0.0, absolute=0.3)
        values, errors, panels, converged = _bisect(rule, np.array([0.0, 2.0, 5.0]), np.array([1.0, 2.0, 5.5]), tol)
        assert seen == [([0, 2], [1.0, 0.5]), ([0, 0], [0.5, 0.5]), ([0, 0, 0, 0], [0.25] * 4)]
        assert converged.all() and panels.tolist() == [1 + 2 + 4, 0, 1]
        assert errors.tolist() == [0.25, 0.0, 0.25]
        assert values.tolist() == pytest.approx([1.0 / 9.0, 0.0, (5.5**9 - 5.0**9) / 9.0], rel=1e-14)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(QuadratureError):
            _shells(lambda z: np.where(z < 0.3, math.nan, 1.0), 1.0, 3, TOL)

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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville import (
    DEFAULT_TOLERANCE,
    QuadratureError,
    Tolerance,
    dyadic_shell_integrals,
    integrate,
    integrate_intervals,
    integrate_panels,
    integrate_segments,
    integrate_to_infinity,
)
from liouville.quadrature import _MAX_LEVEL, _bisect

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
        res = integrate(math.sin, 0.0, math.pi, TOL)
        assert res.converged
        assert res.abs_error <= TOL.bound(res.value)
        assert abs(res.value - 2.0) <= TOL.bound(2.0)

    def test_interior_singularity_is_not_reported_converged(self):
        # Taking large panel errors out of the running error sum leaves
        # it drifting; convergence must not be accepted from the drift.
        tol = Tolerance(rel=1e-12, absolute=0.0)
        res = integrate(lambda t: (abs(t - 0.7) + 1e-300) ** -0.5, 0.5, 1.0, tol)
        assert not res.converged or res.abs_error <= tol.bound(res.value)
        exact = 2.0 * (math.sqrt(0.2) + math.sqrt(0.3))
        assert abs(res.value - exact) <= res.abs_error
        # a log singularity at the edge cannot converge at all
        res = integrate(lambda t: ((t - 0.5) ** 2 + 1e-300) ** -0.5, 0.25, 0.5, tol)
        assert not res.converged

    def test_endpoints_never_evaluated(self):
        def g(z):
            if z in (0.0, 1.0):
                raise AssertionError("closed endpoint evaluated")
            return 1.0

        assert abs(integrate(g, 0.0, 1.0, TOL).value - 1.0) < 1e-12

    def test_nan_aborts_with_diagnostic(self):
        with pytest.raises(QuadratureError):
            integrate(lambda z: float("nan"), 0.0, 1.0, TOL)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate(lambda z: z, 1.0, 0.0, TOL)

    def test_interval_cap_respected(self):
        res = integrate(lambda z: z**-0.5, 0.0, 1.0, TOL, max_intervals=32)
        assert res.subdivisions <= 32
        assert not res.converged

    @given(c=st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=50, deadline=None)
    def test_additivity(self, c):
        g = lambda z: math.exp(-z) * (1.0 + z * z)  # noqa: E731
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
        h = lambda z: math.cos(z)  # noqa: E731
        combined = integrate(lambda z: a * g(z) + b * h(z), 0.0, 2.0, TOL)
        parts = a * integrate(g, 0.0, 2.0, TOL).value + b * integrate(h, 0.0, 2.0, TOL).value
        assert abs(combined.value - parts) <= 1e-9 * (1.0 + abs(parts))


class TestIntegratePanels:
    """The batched kernel against the scalar engine it stands in for."""

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
    def test_agrees_with_scalar_within_reported_error(
        self, amp, rate, freq, phase, quad, points
    ):
        def g(x):
            return amp * math.exp(rate * x) * math.cos(freq * x + phase) + quad * x * x

        def g_vec(x):
            return amp * np.exp(rate * x) * np.cos(freq * x + phase) + quad * x * x

        edges = sorted(points)
        batched = integrate_panels(g_vec, edges, TOL)
        for i, (a, b) in enumerate(zip(edges, edges[1:])):
            scalar = integrate(g, a, b, TOL)
            budget = batched.abs_errors[i] + scalar.abs_error
            assert abs(batched.values[i] - scalar.value) <= budget

    def test_endpoint_singularity_falls_back_to_scalar(self):
        res = integrate_panels(lambda x: x**-0.5, [0.0, 1.0, 1.25], TOL)
        assert res.fallbacks == 1
        scalar = integrate(lambda z: z**-0.5, 0.0, 1.0, TOL)
        assert res.values[0] == pytest.approx(scalar.value, rel=1e-14)
        assert res.abs_errors[0] == pytest.approx(scalar.abs_error, rel=1e-6)
        assert res.converged == scalar.converged
        assert res.values[1] == pytest.approx(2.0 * (math.sqrt(1.25) - 1.0), rel=1e-13)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_integrand_raises(self, bad):
        def g_vec(x):
            return np.where(x > 1.5, bad, x)

        with pytest.raises(QuadratureError):
            integrate_panels(g_vec, [0.0, 1.0, 2.0], TOL)

    @pytest.mark.parametrize("edges", [[0.0], [0.0, 0.0], [1.0, 0.0], [0.0, math.inf]])
    def test_bad_edges_rejected(self, edges):
        with pytest.raises(ValueError):
            integrate_panels(lambda x: x, edges, TOL)


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
        assert (res.fallbacks, res.converged) == (0, True)
        assert calls == [3]

    def test_panels_are_the_consecutive_case(self):
        edges = [0.0, 0.3, 1.0, 4.0]
        panels = integrate_panels(np.exp, edges, TOL)
        intervals = integrate_intervals(np.exp, edges[:-1], edges[1:], TOL)
        assert panels.values.tolist() == intervals.values.tolist()
        assert panels.abs_errors.tolist() == intervals.abs_errors.tolist()

    @pytest.mark.parametrize(
        "lo, hi",
        [([0.0, 1.0], [1.0]), ([1.0], [0.5]), ([0.0], [math.inf]), ([math.nan], [1.0]),
         ([[0.0]], [[1.0]])],
    )
    def test_bad_intervals_rejected(self, lo, hi):
        with pytest.raises(ValueError):
            integrate_intervals(lambda x: x, lo, hi, TOL)


def test_segments_split_at_breaks_and_sum_per_segment():
    # |x - 0.3| has a kink at the break; outside breaks are ignored and
    # the repeated bound makes an empty segment
    sums, pieces = integrate_segments(
        lambda x: np.abs(x - 0.3), [0.0, 0.5, 0.5, 1.0], [0.3, 2.0], TOL
    )
    assert sums.tolist() == pytest.approx([0.065, 0.0, 0.225], rel=1e-13)
    assert pieces.values.size == 3
    assert pieces.fallbacks == 0


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


class TestDyadicShells:
    def test_scale_invariant_integrand(self):
        shells = dyadic_shell_integrals(lambda z: 1.0 / z, 1.0, 3, TOL)
        assert len(shells) == 3
        for s in shells:
            assert abs(s - math.log(2.0)) < 1e-12

    def test_constant_integrand_interval_lengths(self):
        # entry k covers (eps/2^(k+1), eps/2^k], outermost first
        shells = dyadic_shell_integrals(lambda z: 1.0, 1.0, 2, TOL)
        assert abs(shells[0] - 0.5) < 1e-13
        assert abs(shells[1] - 0.25) < 1e-13

    def test_inverse_power_antiderivative(self):
        # antiderivative of z^(-3/2) is -2 z^(-1/2)
        shells = dyadic_shell_integrals(lambda z: z**-1.5, 1.0, 2, TOL)
        assert abs(shells[0] - 2.0 * (math.sqrt(2.0) - 1.0)) < 1e-10
        assert abs(shells[1] - 2.0 * (2.0 - math.sqrt(2.0))) < 1e-10

    @given(k=st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_shells_sum_to_whole(self, k):
        g = lambda z: z**-0.25  # noqa: E731
        shells = dyadic_shell_integrals(g, 1.0, k, TOL)
        whole = integrate(g, 2.0**-k, 1.0, TOL)
        assert abs(math.fsum(shells) - whole.value) <= 1e-9

    def test_requires_positive_eps(self):
        with pytest.raises(ValueError):
            dyadic_shell_integrals(lambda z: z, 0.0, 2, TOL)


def _shells(g, eps, count, tol):
    # the dyadic shells (eps/2^(k+1), eps/2^k] in one batched pass
    hi = eps * 0.5 ** np.arange(count)
    return _bisect(g, 0.5 * hi, hi, tol, _MAX_LEVEL)


class TestBatchedShells:
    def test_agrees_with_integrate_per_shell(self):
        def g(z):
            return z**-1.5 * np.exp(np.sin(8.0 * z))

        values, errors, _, converged, _ = _shells(g, 3.0, 12, TOL)
        hi = 3.0
        for value, error, ok in zip(values, errors, converged):
            ref = integrate(lambda t: t**-1.5 * math.exp(math.sin(8.0 * t)), 0.5 * hi, hi, TOL)
            assert ok and ref.converged
            assert abs(value - ref.value) <= error + ref.abs_error
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
        values, _, _, converged, _ = _shells(lambda z: np.ones_like(z), 1e-323, 4, TOL)
        assert values[2:].tolist() == [0.0, 0.0]
        assert converged.all()
        assert dyadic_shell_integrals(lambda z: 1.0, 1e-323, 4, TOL)[2:] == [0.0, 0.0]

    def test_open_intervals_are_redone_by_integrate(self):
        # without bisection levels, intervals the one-panel rule cannot
        # resolve to 1e-12 go to the scalar integrate, panels counted
        def g(z):
            return z**-1.5 * np.exp(np.sin(8.0 * z))

        tol = Tolerance(rel=1e-12, absolute=0.0)
        hi = 0.5 ** np.arange(8)
        values, errors, panels, converged, redone = _bisect(g, 0.5 * hi, hi, tol, levels=0)
        assert redone > 0 and converged.all()
        for k in range(8):
            ref = integrate(lambda t: float(g(np.array([t]))[0]), 0.5 * hi[k], hi[k], tol)
            if panels[k] == 1:
                assert abs(values[k] - ref.value) <= errors[k] + ref.abs_error
            else:
                assert (values[k], errors[k], panels[k]) == (ref.value, ref.abs_error, ref.subdivisions + 1)

    def test_unconverged_redo_is_flagged(self):
        # 1/x is not integrable at 0, which the open rule never evaluates:
        # the bisection levels and then integrate give up at their depth caps
        tol = Tolerance(rel=1e-12, absolute=0.0)
        values, _, panels, converged, redone = _bisect(
            lambda x: 1.0 / x, np.array([0.0, 1.0]), np.array([1.0, 2.0]), tol, levels=2
        )
        ref = integrate(lambda x: 1.0 / x, 0.0, 1.0, tol)
        assert not ref.converged and redone == 1
        assert converged.tolist() == [False, True]
        assert values[0] == ref.value and panels[0] > ref.subdivisions
        assert values[1] == pytest.approx(math.log(2.0), rel=1e-12)

    def test_only_the_panels_over_their_share_are_halved(self):
        # a kink is resolved by halving the panels next to it, level by
        # level, without the scalar integrate and with few panels
        tol = Tolerance(rel=1e-12, absolute=0.0)
        values, errors, panels, converged, redone = _bisect(
            lambda x: np.abs(x - 0.3), np.array([0.0, 1.0]), np.array([1.0, 2.0]), tol, levels=60
        )
        assert redone == 0 and converged.all()
        assert abs(values[0] - 0.29) <= errors[0] <= tol.bound(0.29)
        assert values[1] == pytest.approx(1.2, rel=1e-15) and panels[1] == 1
        assert panels[0] < 100

    def test_non_finite_integrand_raises(self):
        with pytest.raises(QuadratureError):
            dyadic_shell_integrals(lambda z: math.nan if z < 0.3 else 1.0, 1.0, 3, TOL)

    def test_validation(self):
        with pytest.raises(ValueError):
            dyadic_shell_integrals(lambda z: z, 1.0, 0, TOL)
        with pytest.raises(ValueError):
            dyadic_shell_integrals(lambda z: z, math.inf, 2, TOL)

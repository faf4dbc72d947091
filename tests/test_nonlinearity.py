"""Expression grammar, evaluation, and the nonlinearity families."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville import (
    DomainError,
    EvalOverflow,
    Expression,
    Floored,
    ParseError,
    Power,
    PowerLog,
    Shifted,
    StructureParams,
    check_monotone,
    floor_by_power,
    parse_nonlinearity,
    shift,
)
from liouville.nonlinearity import (
    _LOG_MAX,
    Bin,
    Call,
    Euler,
    Neg,
    Num,
    Var,
    parse_expression,
    signed_log_eval,
    to_source,
)


# ---------------------------------------------------------------------------
# parsing


def test_parse_power_tree():
    assert parse_expression("z^3") == Bin("^", Var(), Num(3.0))


def test_parse_respects_precedence():
    # 1 + 2*z^3 groups as 1 + (2*(z^3))
    tree = parse_expression("1 + 2*z^3")
    assert tree == Bin("+", Num(1.0), Bin("*", Num(2.0), Bin("^", Var(), Num(3.0))))


def test_power_is_right_associative():
    assert parse_expression("z^2^3") == Bin("^", Var(), Bin("^", Num(2.0), Num(3.0)))


def test_unary_minus_in_exponent():
    assert parse_expression("z^-2") == Bin("^", Var(), Neg(Num(2.0)))


def test_parse_log_and_euler():
    tree = parse_expression("log(e + 1/z)")
    assert tree == Call("log", Bin("+", Euler(), Bin("/", Num(1.0), Var())))


def test_scientific_notation():
    assert parse_expression("1.5e-3") == Num(1.5e-3)
    assert parse_expression(".5") == Num(0.5)


@pytest.mark.parametrize(
    "text,offset",
    [
        ("z^^2", 2),
        ("z +", 3),
        ("(z", 2),
        ("z)", 1),
        ("log", 3),
        ("2 $ 3", 2),
        ("", 0),
    ],
)
def test_parse_errors_carry_offset(text, offset):
    with pytest.raises(ParseError) as exc_info:
        parse_expression(text)
    assert exc_info.value.position == offset
    assert f"offset {offset}" in str(exc_info.value)


def test_unknown_identifier_rejected():
    with pytest.raises(ParseError):
        parse_expression("sin(z)")
    with pytest.raises(ParseError):
        parse_expression("x + 1")


# ---------------------------------------------------------------------------
# printing


@pytest.mark.parametrize(
    "text,printed",
    [
        ("z^3", "z^3.0"),
        ("z ^ 3", "z^3.0"),
        ("(z+1)*(z+2)", "(z+1.0)*(z+2.0)"),
        ("z - (1 - z)", "z-(1.0-z)"),
        ("z^(1+1)", "z^(1.0+1.0)"),
        ("-z^2", "-z^2.0"),
        ("log(e + 1/z)^-2", "log(e+1.0/z)^-2.0"),
    ],
)
def test_print_forms(text, printed):
    assert to_source(parse_expression(text)) == printed


_leaf = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
    st.just(Var()),
    st.just(Euler()),
)


def _extend(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Call, st.sampled_from(["log", "exp"]), children),
        st.builds(Bin, st.sampled_from(["+", "-", "*", "/", "^"]), children, children),
    )


_trees = st.recursive(_leaf, _extend, max_leaves=12)


@given(tree=_trees)
@settings(max_examples=150, deadline=None)
def test_print_parse_round_trip(tree):
    """Printing a tree and parsing the output must reproduce the tree."""
    assert parse_expression(to_source(tree)) == tree


# ---------------------------------------------------------------------------
# plain evaluation


def test_eval_power_expression():
    f = parse_nonlinearity("z^3 * log(e + 1/z)^(-2)")
    z = 0.25
    expected = z**3 * math.log(math.e + 4.0) ** -2
    assert f(z) == pytest.approx(expected, rel=1e-15)


def test_eval_division_by_zero():
    f = parse_nonlinearity("z / (z - z)")
    with pytest.raises(DomainError):
        f(1.0)


def test_eval_log_of_nonpositive():
    f = parse_nonlinearity("log(z - 2)")
    with pytest.raises(DomainError):
        f(1.0)


def test_eval_overflow_is_typed():
    f = parse_nonlinearity("exp(exp(z))")
    with pytest.raises(EvalOverflow):
        f(10.0)


def test_negative_result_rejected():
    # nonlinearities must be non-negative on the domain we ever probe
    f = parse_nonlinearity("z - 10")
    with pytest.raises(DomainError):
        f(1.0)


def test_negative_argument_rejected():
    with pytest.raises(DomainError):
        Power(2.0)(-1.0)


def test_bool_argument_rejected():
    with pytest.raises(TypeError):
        Power(2.0)(True)


# ---------------------------------------------------------------------------
# signed-log evaluation agrees with plain evaluation where both work


@pytest.mark.parametrize(
    "text",
    [
        "z^4",
        "z^3 * log(e + 1/z)^(-2)",
        "z^2 + z^5",
        "exp(-z) * z^3",
        "z^(3/2)",
        "(z + z^2)^2",
    ],
)
@pytest.mark.parametrize("z", [1e-8, 1e-3, 0.1, 0.5, 1.0, 2.0])
def test_signed_log_matches_plain(text, z):
    root = parse_expression(text)
    sign, mag = signed_log_eval(root, math.log(z))
    plain = Expression(root)(z)
    assert sign >= 0
    recovered = 0.0 if sign == 0 else sign * math.exp(mag)
    assert recovered == pytest.approx(plain, rel=1e-12, abs=1e-300)


def test_signed_log_survives_underflow():
    # z^4 at z = 1e-100 underflows to 0 in plain arithmetic only after
    # the log-magnitude form has already captured it exactly
    sign, mag = signed_log_eval(parse_expression("z^4"), math.log(1e-100))
    assert sign == 1
    assert mag == pytest.approx(4.0 * math.log(1e-100), rel=1e-14)


def test_signed_log_exact_cancellation():
    sign, mag = signed_log_eval(parse_expression("z - z"), 0.0)
    assert sign == 0
    assert mag == -math.inf


# ---------------------------------------------------------------------------
# families


def test_power_log_vanishes_at_zero():
    f = PowerLog(-2.0, 3.0)
    assert f(0.0) == 0.0


def test_power_log_continuous_at_zero():
    f = PowerLog(-2.0, 3.0)
    assert f(1e-200) < 1e-300 or f(1e-200) > 0.0
    assert f(1e-12) == pytest.approx(1e-36 * math.log(math.e + 1e12) ** -2, rel=1e-12)


def test_power_log_huge_argument_factor():
    # log1p form keeps the factor finite where e + 1/z would be exact junk
    f = PowerLog(2.0, 1.0)
    v = f(1e-300)
    assert v == pytest.approx(1e-300 * math.log(1e300) ** 2, rel=1e-10)


# ---------------------------------------------------------------------------
# the array form of a call

_ARRAY_CASES = [
    (Power(4.0), 0.0),
    (Power(0.0), 0.0),
    (Power(-1.5), 1e-100),
    (Power(5.86), 0.0),
    (PowerLog(-2.0, 3.0), 0.0),
    (PowerLog(1.5, 0.8), 0.0),
    (parse_nonlinearity("z^3 * log(e + 1/z)^(-2)"), 1e-300),
    (shift(Power(2.0), 0.5), 0.0),
    (Floored(parse_nonlinearity("0"), 4.0), 0.0),
    # each rule the array evaluator checks, on points where it holds
    (parse_nonlinearity("1/z"), 1e-300),
    (parse_nonlinearity("log(z + 1)"), 0.0),
    (parse_nonlinearity("(z + 1)^0.5"), 0.0),
    (parse_nonlinearity("z^-1"), 1e-300),
    (parse_nonlinearity("z * 1e270"), 0.0),
    (parse_nonlinearity("z^10"), 0.0),
    (parse_nonlinearity("2"), 0.0),
]


@pytest.mark.parametrize("f, z_min", _ARRAY_CASES, ids=repr)
def test_array_values_match_calls(f, z_min):
    zs = np.concatenate(([z_min], np.geomspace(1e-200, 1e30, 97), [1.0]))
    got = f.values(zs.reshape(3, -1))
    assert got.shape == (3, 33)
    got = got.ravel()
    want = [f(float(z)) for z in zs]
    # numpy's power and log may differ from libm's in the last bits
    assert got.tolist() == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize(
    "f, z, error",
    [
        (Power(2.0), -1.0, DomainError),
        (PowerLog(-2.0, 3.0), math.nan, DomainError),
        (Power(-1.0), 0.0, DomainError),
        (Power(2.0), 1e200, EvalOverflow),
        (PowerLog(1.0, 2.0), 1e200, EvalOverflow),
        (parse_nonlinearity("z - 10"), 1.0, DomainError),
        (parse_nonlinearity("exp(exp(z))"), 10.0, EvalOverflow),
        (Floored(Power(2.0), -1.0), 0.0, DomainError),
        (parse_nonlinearity("1/z"), 0.0, DomainError),
        (parse_nonlinearity("log(z - 1)"), 0.5, DomainError),
        (parse_nonlinearity("(z - 1)^0.5"), 0.5, DomainError),
        (parse_nonlinearity("z^-1"), 0.0, DomainError),
        (parse_nonlinearity("z * 1e300"), 1e10, EvalOverflow),
        (parse_nonlinearity("z^400"), 1e10, EvalOverflow),
    ],
    ids=repr,
)
def test_array_values_raise_like_calls(f, z, error):
    zs = [3.0, z]
    with pytest.raises(error) as by_call:
        for x in zs:
            f(x)
    with pytest.raises(error) as by_array:
        f.values(np.array(zs))
    if isinstance(f, Expression):
        # an expression redoes rejected points by calls: same message
        assert str(by_array.value) == str(by_call.value)


# numpy's exp, log and power differ from libm's by one ulp on about 5% of
# arguments.  Where a tree amplifies that, for instance log(exp(z)) - z,
# the array and the plain evaluator may differ beyond 1e-12, or land on
# different sides of a domain check.  _spread carries a first-order bound
# on the difference through the tree, along the plain evaluation, and
# raises _Unstable at points where either could happen.

_ULP_DIFF = 2  # ulps between the two evaluators per exp, log or power


class _Unstable(Exception):
    pass


class _Rejected(Exception):
    pass


def _decided(x, e):
    if e > 0.0 and abs(x) <= 4.0 * e:
        raise _Unstable


def _no_overflow_flip(ln_mag, e):
    if abs(ln_mag - _LOG_MAX) <= 4.0 * e + 1e-12:
        raise _Unstable


def _spread(node, z):
    """(value, bound on |array - plain|) of ``node`` at z."""
    if isinstance(node, Num):
        return node.value, 0.0
    if isinstance(node, Var):
        return z, 0.0
    if isinstance(node, Euler):
        return math.e, 0.0
    if isinstance(node, Neg):
        v, e = _spread(node.arg, z)
        return -v, e
    if isinstance(node, Call):
        a, ea = _spread(node.arg, z)
        if node.fn == "log":
            _decided(a, ea)
            if a <= 0.0:
                raise _Rejected
            v = math.log(a)
            return v, ea / a + _ULP_DIFF * math.ulp(v)
        _no_overflow_flip(a, ea)
        if a > _LOG_MAX:
            raise _Rejected
        v = math.exp(a)
        return v, v * ea + _ULP_DIFF * math.ulp(v)
    a, ea = _spread(node.left, z)
    b, eb = _spread(node.right, z)
    op = node.op
    if op == "^":
        _decided(a, ea)
        if a == 0.0:
            _decided(b, eb)
            if b < 0.0:
                raise _Rejected
            return math.pow(a, b), 0.0
        if a < 0.0:
            if eb > 0.0 and abs(b - round(b)) <= 4.0 * eb:
                raise _Unstable
            if b != math.floor(b):
                raise _Rejected
        ln_a = math.log(abs(a))
        rel = abs(b) * ea / abs(a) + abs(ln_a) * eb
        _no_overflow_flip(b * ln_a, rel)
        if b * ln_a > _LOG_MAX:
            raise _Rejected
        v = math.pow(a, b)
        return v, abs(v) * rel + _ULP_DIFF * math.ulp(v)
    if op == "/":
        _decided(b, eb)
        if b == 0.0:
            raise _Rejected
        v = a / b
        e = (ea + abs(v) * eb) / abs(b)
    elif op == "*":
        v = a * b
        e = abs(b) * ea + abs(a) * eb
    else:
        v = a + b if op == "+" else a - b
        e = ea + eb
    if e > 0.0 and not abs(v) < 1e300:
        # near or past overflow, on inputs that may differ
        if op in "*/":
            ln_mag = math.log(abs(a)) + (1.0 if op == "*" else -1.0) * math.log(abs(b))
            _no_overflow_flip(ln_mag, ea / abs(a) + eb / abs(b))
        else:
            half = 0.5 * a + (0.5 * b if op == "+" else -0.5 * b)
            _no_overflow_flip(math.log(2.0 * abs(half)), e / abs(2.0 * half))
    if not math.isfinite(v):
        raise _Rejected
    return v, e + (math.ulp(v) if e > 0.0 else 0.0)


def _stable(node, z):
    """False where the two evaluators may legitimately disagree at z."""
    try:
        v, e = _spread(node, z)
    except _Rejected:
        return True
    except _Unstable:
        return False
    if e > 0.0 and abs(v) <= 4.0 * e:
        return False  # the sign check of a call
    return e <= 1e-13 * abs(v) + 1e-300


def _trees_upto(depth):
    leaf = st.one_of(
        st.builds(Num, st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]) | st.floats(0.0, 50.0)),
        st.just(Var()),
        st.just(Euler()),
    )
    if depth == 0:
        return leaf
    sub = _trees_upto(depth - 1)
    return st.one_of(
        leaf,
        st.builds(Neg, sub),
        st.builds(Call, st.sampled_from(["log", "exp"]), sub),
        st.builds(Bin, st.sampled_from(["+", "-", "*", "/", "^"]), sub, sub),
    )


_ZS = st.lists(st.floats(0.0, 1e30), max_size=8).flatmap(
    lambda zs: st.permutations(zs + [0.0, 1e-300, 1e30])
)


@given(tree=_trees_upto(4), zs=_ZS)
@settings(max_examples=300, deadline=None)
def test_array_values_property(tree, zs):
    """The array evaluator gives what calls give, point by point: the
    values to 1e-12, or the first call's error, type and message."""
    f = Expression(tree)
    zs = [z for z in zs if _stable(tree, z)]
    want = []
    try:
        for z in zs:
            want.append(f(z))
    except (DomainError, EvalOverflow) as exc:
        with pytest.raises(type(exc)) as by_array:
            f.values(np.array(zs))
        assert str(by_array.value) == str(exc)
    else:
        got = f.values(np.array(zs))
        assert got.tolist() == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_shift_identity():
    f = Power(3.0)
    g = shift(f, 0.0)
    for z in (0.0, 0.3, 2.0):
        assert g(z) == f(z)


def test_shift_translates_argument():
    g = shift(Power(2.0), 1.5)
    assert g(0.5) == pytest.approx(4.0)


def test_shift_rejects_negative_alpha():
    with pytest.raises(ValueError):
        shift(Power(2.0), -0.1)


def test_floor_makes_zero_function_positive(params32):
    f = floor_by_power(Power(9.0), params32)  # z^9 is ~0 near 0; floor is z^4
    assert isinstance(f, Floored)
    assert f.exponent == 4.0
    assert f(0.5) == 0.5**4
    assert f(2.0) == 2.0**9


def test_floored_at_least_base():
    f = Floored(Power(6.0), 3.0)
    for z in (1e-4, 0.1, 0.9, 1.0, 3.0):
        assert f(z) >= Power(6.0)(z)
        assert f(z) >= z**3


def test_expression_repr_is_source():
    f = parse_nonlinearity("z^2")
    assert repr(f) == "Expression('z^2.0')"
    assert f.source == "z^2.0"


# ---------------------------------------------------------------------------
# monotonicity probe


def test_monotone_power_passes():
    rep = check_monotone(Power(2.5), 1.0)
    assert rep.monotone


def test_monotone_powerlog_negative_mu_passes():
    rep = check_monotone(PowerLog(-2.0, 3.0), 1.0)
    assert rep.monotone


def test_decreasing_function_fails_with_witness():
    rep = check_monotone(parse_nonlinearity("1/(1+z)"), 1.0)
    assert not rep.monotone
    assert rep.zeta_lo < rep.zeta_hi
    assert rep.value_lo > rep.value_hi


def test_powerlog_large_positive_mu_not_monotone():
    # the log factor decays fast enough to beat the critical power for
    # a stretch of moderate z when mu is large
    rep = check_monotone(PowerLog(10.0, 3.0), 1.0)
    assert not rep.monotone

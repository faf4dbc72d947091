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
    ParseError,
    Power,
    PowerLog,
    check_monotone,
    parse_nonlinearity,
)
from liouville.nonlinearity import (
    _LOG_MAX,
    _MONOTONE_GRID,
    _MONOTONE_SLACK,
    _log_decreases,
    MonotonicityReport,
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


@pytest.mark.parametrize("exponent", [3.0, 30.0, 3.001, 6.5, -2.0])
def test_literal_exponent_is_exact_in_logs(exponent):
    # exp(log(3.0)) != 3.0: a literal exponent must not take that round
    # trip, or z^a as an expression is an ulp of a ln z off the power
    ln_zs = [-700.0, -5.0, 0.0, 1.5]
    f = parse_nonlinearity(f"z^{exponent!r}")
    sign, mag = f.log_value(np.array(ln_zs))
    assert mag.tolist() == Power(exponent).log_value(np.array(ln_zs))[1].tolist()
    assert [signed_log_eval(f.root, x) for x in ln_zs] == [(1, exponent * x) for x in ln_zs]


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


# ---------------------------------------------------------------------------
# the log-domain array primitive


_LN_ZS = [-700.0, -230.0, -5.0, 0.0, 1.5, 69.0]


@pytest.mark.parametrize("f", [Power(4.0), Power(0.0), Power(-1.5), Power(30.0)], ids=repr)
def test_power_log_value(f):
    sign, mag = f.log_value(np.array(_LN_ZS))
    assert sign.tolist() == [1.0] * len(_LN_ZS)
    assert mag.tolist() == [f.exponent * x for x in _LN_ZS]


@pytest.mark.parametrize("f", [PowerLog(-2.0, 3.0), PowerLog(1.5, 0.8), PowerLog(-1.0, 2.0)], ids=repr)
def test_powerlog_log_value(f):
    sign, mag = f.log_value(np.array(_LN_ZS).reshape(2, 3))
    assert sign.shape == mag.shape == (2, 3)
    assert sign.ravel().tolist() == [1.0] * len(_LN_ZS)
    want = [f.power * x + f.mu * math.log(math.log1p(math.e * math.exp(x)) - x) for x in _LN_ZS]
    assert mag.ravel().tolist() == pytest.approx(want, rel=1e-14)
    # where f itself is a normal double, the pair is its logarithm
    assert mag[0, 2] == pytest.approx(math.log(f(math.exp(-5.0))), rel=1e-14)


def test_constant_expression_log_value_has_input_shape():
    sign, mag = parse_nonlinearity("2").log_value(np.zeros((2, 3)))
    assert sign.shape == mag.shape == (2, 3)
    assert np.all(sign == 1.0) and np.all(mag == math.log(2.0))


def test_log_value_survives_underflow():
    # z^4 at z = e^-700 is far below the double range; its logarithm is not
    sign, mag = parse_nonlinearity("z^4 * log(e + 1/z)^-2").log_value(np.array([-700.0]))
    assert sign[0] == 1.0
    assert mag[0] == pytest.approx(-2800.0 - 2.0 * math.log(700.0 + math.log1p(math.e ** -699)), rel=1e-14)


@pytest.mark.parametrize(
    "text, ln_z, error",
    [
        ("log(z - 1)", 0.0, DomainError),
        ("1/(z - z)", 0.0, DomainError),
        ("(z - 2)^0.5", 0.0, DomainError),
        ("(z - z)^-1", 0.0, DomainError),
        ("exp(exp(z))", 7.0, EvalOverflow),
        ("z^exp(1000)", 0.0, EvalOverflow),
    ],
)
def test_log_value_raises_like_signed_log_eval(text, ln_z, error):
    root = parse_expression(text)
    lns = [-1.0, ln_z, 2.0]
    with pytest.raises(error) as by_scalar:
        for x in lns:
            signed_log_eval(root, x)
    with pytest.raises(error) as by_array:
        Expression(root).log_value(np.array(lns))
    assert str(by_array.value) == str(by_scalar.value)


def test_log_value_redoes_negative_overflow_of_exp():
    # exp of a huge negative value is the pair (1, -inf) in the scalar
    # evaluator; the array form marks it and takes the scalar result
    root = parse_expression("exp(-exp(z)) + z")
    sign, mag = Expression(root).log_value(np.array([7.0, 0.0]))
    assert signed_log_eval(root, 7.0) == (1, 7.0)
    assert sign.tolist() == [1.0, 1.0]
    assert mag.tolist() == pytest.approx([7.0, signed_log_eval(root, 0.0)[1]], rel=1e-15)


# The array signed-log form uses numpy's exp, log, log1p and expm1, whose
# results may differ from libm's by an ulp.  _log_spread carries a
# first-order bound on the resulting difference of the log-magnitude
# through the tree, along the scalar evaluation, and raises _Unstable
# where a comparison (a cancellation, a sign, an integer exponent, an
# overflow) could come out differently.  Points where a scalar rule raises
# or a pair leaves the finite range are redone by the scalar evaluator,
# so they agree exactly (_Redone).


class _Redone(Exception):
    pass


def _log_spread(node, x):
    """(sign, log-magnitude, bound on |array - scalar| of it) at ln z = x."""
    if isinstance(node, Num):
        if node.value == 0.0:
            return 0, -math.inf, 0.0
        return (1 if node.value > 0 else -1), math.log(abs(node.value)), 0.0
    if isinstance(node, Var):
        return 1, x, 0.0
    if isinstance(node, Euler):
        return 1, 1.0, 0.0
    if isinstance(node, Neg):
        s, m, e = _log_spread(node.arg, x)
        return -s, m, e
    if isinstance(node, Call):
        s, m, e = _log_spread(node.arg, x)
        if node.fn == "log":
            if s <= 0:
                raise _Redone
            _decided(m, e)
            if m == 0.0:
                return 0, -math.inf, 0.0
            v = math.log(abs(m))
            return (1 if m > 0 else -1), v, e / abs(m) + _ULP_DIFF * math.ulp(v)
        if s == 0:
            return 1, 0.0, 0.0
        _no_overflow_flip(m, e)
        if m > _LOG_MAX:
            raise _Redone
        v = s * math.exp(m)
        return _checked(1, v, abs(v) * e + _ULP_DIFF * math.ulp(v))
    s1, m1, e1 = _log_spread(node.left, x)
    s2, m2, e2 = _log_spread(node.right, x)
    op = node.op
    if op == "^":
        if s2 != 0:
            _no_overflow_flip(m2, e2)
            if m2 > _LOG_MAX:
                raise _Redone
        p = s2 * math.exp(m2) if s2 != 0 else 0.0
        ep = abs(p) * e2 + _ULP_DIFF * math.ulp(p) if s2 != 0 else 0.0
        if s1 == 0:
            if p < 0.0:
                raise _Redone
            return (0, -math.inf, 0.0) if p > 0.0 else (1, 0.0, 0.0)
        sign = 1
        if s1 < 0:
            if ep > 0.0 and abs(p - round(p)) <= 4.0 * ep:
                raise _Unstable
            if p != math.floor(p):
                raise _Redone
            sign = 1 if int(p) % 2 == 0 else -1
        v = m1 * p
        e = abs(p) * e1 + abs(m1) * ep
        return _checked(sign, v, e + (math.ulp(v) if e > 0.0 else 0.0))
    if op in "*/":
        if op == "/" and s2 == 0:
            raise _Redone
        if s1 == 0 or s2 == 0:
            return 0, -math.inf, 0.0
        v = m1 + m2 if op == "*" else m1 - m2
        e = e1 + e2
        return _checked(s1 * s2, v, e + (math.ulp(v) if e > 0.0 else 0.0))
    if op == "-":
        s2 = -s2
    if s1 == 0:
        return s2, m2, e2
    if s2 == 0:
        return s1, m1, e1
    e = e1 + e2
    if s1 != s2:
        if e > 0.0 and abs(m1 - m2) <= 4.0 * e:
            raise _Unstable
        if m1 == m2:
            return 0, -math.inf, 0.0
    bs, bm, d = (s1, m1, m2 - m1) if m1 >= m2 else (s2, m2, m1 - m2)
    if s1 == s2:
        t = math.log1p(math.exp(d))
        gain = 1.0
    else:
        t = math.log(-math.expm1(d))
        gain = math.exp(d) / -math.expm1(d)
    v = bm + t
    e = e * (1.0 + gain) + _ULP_DIFF * (math.ulp(t) + gain * math.ulp(1.0))
    return _checked(bs, v, e + math.ulp(v))


def _checked(s, m, e):
    if not math.isfinite(m) or abs(m) > 1e300:
        raise _Redone
    return s, m, e


def _log_stable(node, x):
    """False where the array and the scalar signed-log form may
    legitimately disagree at ln z = x."""
    try:
        s, m, e = _log_spread(node, x)
    except _Redone:
        return True
    except _Unstable:
        return False
    return s == 0 or e <= 1e-13 * max(1.0, abs(m))


_LN_ZS_ST = st.lists(st.floats(-700.0, 70.0), max_size=8).flatmap(
    lambda xs: st.permutations(xs + [-700.0, 0.0, 69.0])
)


@given(tree=_trees_upto(4), lns=_LN_ZS_ST)
@settings(max_examples=300, deadline=None)
def test_log_value_property(tree, lns):
    """The array signed-log form gives what signed_log_eval gives, point
    by point: the same signs and log-magnitudes to 1e-12, or the first
    failing point's error, type and message."""
    f = Expression(tree)
    lns = [x for x in lns if _log_stable(tree, x)]
    want = []
    try:
        for x in lns:
            want.append(signed_log_eval(tree, x))
    except (DomainError, EvalOverflow) as exc:
        with pytest.raises(type(exc)) as by_array:
            f.log_value(np.array(lns))
        assert str(by_array.value) == str(exc)
    else:
        sign, mag = f.log_value(np.array(lns))
        assert sign.tolist() == [s for s, _ in want]
        assert mag.tolist() == pytest.approx([m for _, m in want], rel=1e-12, abs=1e-12, nan_ok=True)


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


def _check_monotone_by_calls(f, eps, samples=256, rel_slack=1e-12):
    # the probe as a loop of calls: the reference for the array form
    prev_z = eps * 1e-12
    prev_v = f(prev_z)
    for i in range(1, samples):
        z = eps * 10.0 ** (-12.0 * (1.0 - i / (samples - 1)))
        v = f(z)
        if v < prev_v - rel_slack * max(abs(prev_v), abs(v), 1.0):
            return MonotonicityReport(False, prev_z, z, prev_v, v)
        prev_z, prev_v = z, v
    return MonotonicityReport(True)


@pytest.mark.parametrize(
    "f, eps",
    [
        (parse_nonlinearity("z^3 * log(e + 1/z)^(-2)"), 1.0),
        (parse_nonlinearity("1"), 1.0),
        (PowerLog(10.0, 3.0), 1.0),
        (parse_nonlinearity("z^5*exp(-10*z)"), 1.0),
        (parse_nonlinearity("z^5*exp(-10*z)"), 0.3),
        (parse_nonlinearity("1/(1+z)"), 2.0),
        # decreases at small z, then fails to evaluate past z = 0.5
        (parse_nonlinearity("exp(-z) + 0*log(0.5 - z)"), 1.0),
    ],
    ids=repr,
)
def test_check_monotone_matches_loop_of_calls(f, eps):
    assert check_monotone(f, eps) == _check_monotone_by_calls(f, eps)


@pytest.mark.parametrize(
    "text",
    ["1", "1/(1+z)", "z^5*exp(-10*z)", "(z - 0.3)^2", "z^3*log(e+1/z)^10", "exp(-1/z)", "3 - z"],
)
def test_log_decreases_is_the_plain_test(text):
    # the probe's test on logs flags the pairs the plain test does
    f, grid = parse_nonlinearity(text), 2.0 * _MONOTONE_GRID
    v = f.values(grid).tolist()
    plain = [i for i in range(1, len(v)) if v[i] < v[i - 1] - _MONOTONE_SLACK * max(abs(v[i - 1]), abs(v[i]), 1.0)]
    sign, mag = f.log_value(np.log(grid))
    assert _log_decreases(np.where(sign > 0, mag, -np.inf)).tolist() == plain


def test_check_monotone_compares_logs_past_the_double_range():
    # at eps = 1e-300 the samples reach 1e-312, where 1/z overflows
    f = parse_nonlinearity("z^3*log(e+1/z)^-2")
    with pytest.raises(EvalOverflow):
        f.values(1e-300 * _MONOTONE_GRID)
    assert check_monotone(f, 1e-300).monotone
    # log(1/z) decreases from 718 to 691 there
    rep = check_monotone(parse_nonlinearity("log(1/z)"), 1e-300)
    assert not rep.monotone and rep.zeta_lo < rep.zeta_hi
    assert rep.value_lo == pytest.approx(-math.log(rep.zeta_lo), rel=1e-14)
    assert rep.value_hi == pytest.approx(-math.log(rep.zeta_hi), rel=1e-14)
    # a sample where f itself is past the double range raises as its call does
    with pytest.raises(EvalOverflow):
        check_monotone(parse_nonlinearity("1/z"), 1e-300)


@pytest.mark.parametrize("text", ["log(z - 0.5)", "z^3 + 0*log(0.5 - z)", "exp(1000*z)"])
def test_check_monotone_raises_like_loop_of_calls(text):
    f = parse_nonlinearity(text)
    with pytest.raises((DomainError, EvalOverflow)) as by_calls:
        _check_monotone_by_calls(f, 1.0)
    with pytest.raises(type(by_calls.value)) as by_array:
        check_monotone(f, 1.0)
    assert str(by_array.value) == str(by_calls.value)

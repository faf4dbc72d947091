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
]


@pytest.mark.parametrize("f, z_min", _ARRAY_CASES, ids=repr)
def test_array_values_match_calls(f, z_min):
    zs = np.concatenate(([z_min], np.geomspace(1e-200, 1e30, 97), [1.0]))
    got = f.values(zs.reshape(3, -1)).ravel()
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
    ],
    ids=repr,
)
def test_array_values_raise_like_calls(f, z, error):
    with pytest.raises(error):
        f(z)
    with pytest.raises(error):
        f.values(np.array([0.5, z]))


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

"""Nonlinear right-hand sides f defined on the half line [0, inf).

Three concrete families are provided:

* :class:`Power` -- pure power ``z**exponent``.
* :class:`PowerLog` -- ``z**power * log(e + 1/z)**mu``, extended by 0
  at z = 0 (the limit value whenever ``power > 0``).
* :class:`Expression` -- an arbitrary closed-form expression in one
  variable ``z``, built from the small grammar below.

Expression grammar (whitespace is insignificant)::

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right associative
    atom    := NUMBER | 'z' | 'e' | 'log' '(' expr ')'
             | 'exp' '(' expr ')' | '(' expr ')'

``e`` denotes Euler's number.  Numbers accept scientific notation
(``2.5e-3``).  ``^`` binds tighter than unary minus on the left, so
``-z^2`` is ``-(z^2)`` while ``z^-2`` is a valid power.

f is evaluated in signed logs: (sign, log-magnitude) pairs from ln z,
which keep deep power/log compositions meaningful far below the double
underflow threshold, where the classifier probes shells.  An expression
takes one pass over its tree on a whole array, which gives each point
its pair or its first error in tree order; ln z = -inf is z = 0.  Calls,
:meth:`Nonlinearity.values` and the log evaluator of the shells and
fills raise by one rule: the first point in order that fails a check
raises, with the first check of a call that fails there (the argument,
f's own rules, f >= 0, the double range), and a message that names z;
:meth:`Nonlinearity.log_value`, given only ln z, names none.  A call
f(z) is exp of the pair, exact to about |ln f(z)| ulps:
``Power(2.0)(3.0)`` is 9.000000000000002.
"""

from __future__ import annotations

import math
import re
import sys
from typing import List, Optional, Tuple

import numpy as np

from ._record import Record, tuple_record
from .errors import DomainError, EvalOverflow, EvaluationError, ParseError

__all__ = [
    "ExprNode",
    "Num",
    "Var",
    "Euler",
    "Neg",
    "Bin",
    "Call",
    "parse_expression",
    "to_source",
    "signed_log_eval",
    "Nonlinearity",
    "Power",
    "PowerLog",
    "Expression",
    "parse_nonlinearity",
    "MonotonicityReport",
    "check_monotone",
]

_LOG_MAX = math.log(sys.float_info.max)
_NEG_INF = -math.inf


# ---------------------------------------------------------------------------
# abstract syntax tree


class ExprNode:
    """Base class for expression tree nodes."""

    __slots__ = ()


class Num(ExprNode, Record):
    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"numeric literal must be finite, got {self.value!r}")


class Var(ExprNode, Record):
    pass


class Euler(ExprNode, Record):
    pass


class Neg(ExprNode, Record):
    arg: ExprNode


class Bin(ExprNode, Record):
    op: str
    left: ExprNode
    right: ExprNode

    def __post_init__(self) -> None:
        if self.op not in ("+", "-", "*", "/", "^"):
            raise ValueError(f"unknown operator {self.op!r}")


class Call(ExprNode, Record):
    fn: str
    arg: ExprNode

    def __post_init__(self) -> None:
        if self.fn not in ("log", "exp"):
            raise ValueError(f"unknown function {self.fn!r}")


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"""(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^()])""",
    re.VERBOSE,
)

_Token = Tuple[str, str, int]  # kind, text, offset


def _tokenize(text: str) -> List[_Token]:
    out: List[_Token] = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        out.append((m.lastgroup, m.group(), pos))  # type: ignore[arg-type]
        pos = m.end()
    out.append(("end", "", n))
    return out


class _Parser:
    def __init__(self, tokens: List[_Token]):
        self.toks = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def take(self) -> _Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, op: str) -> None:
        kind, text, pos = self.take()
        if kind != "op" or text != op:
            what = repr(text) if text else "end of input"
            raise ParseError(f"expected {op!r}, got {what}", pos)

    def parse(self) -> ExprNode:
        node = self.sum_()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return node

    def sum_(self) -> ExprNode:
        node = self.product()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in ("+", "-"):
                self.take()
                node = Bin(text, node, self.product())
            else:
                return node

    def product(self) -> ExprNode:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in ("*", "/"):
                self.take()
                node = Bin(text, node, self.unary())
            else:
                return node

    def unary(self) -> ExprNode:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.take()
            return Neg(self.unary())
        return self.power()

    def power(self) -> ExprNode:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.take()
            return Bin("^", base, self.unary())
        return base

    def atom(self) -> ExprNode:
        kind, text, pos = self.take()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            if text == "z":
                return Var()
            if text == "e":
                return Euler()
            if text in ("log", "exp"):
                self.expect("(")
                arg = self.sum_()
                self.expect(")")
                return Call(text, arg)
            raise ParseError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            node = self.sum_()
            self.expect(")")
            return node
        what = repr(text) if text else "end of input"
        raise ParseError(f"expected a value, got {what}", pos)


def parse_expression(text: str) -> ExprNode:
    """Parse expression text into a tree, or raise :class:`ParseError`
    carrying the character offset of the problem."""
    return _Parser(_tokenize(text)).parse()


# ---------------------------------------------------------------------------
# printer

_BIN_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def _prec(node: ExprNode) -> float:
    if isinstance(node, Bin):
        return _BIN_PREC[node.op]
    if isinstance(node, Neg):
        return 2.5
    if isinstance(node, Num) and node.value < 0:
        # a negative literal prints with a leading '-', same as Neg
        return 2.5
    return 4.0


def to_source(node: ExprNode) -> str:
    """Render a tree back to grammar text.

    For trees produced by :func:`parse_expression` (which never contain
    negative literals) the result reparses to an identical tree.
    """
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return "z"
    if isinstance(node, Euler):
        return "e"
    if isinstance(node, Call):
        return f"{node.fn}({to_source(node.arg)})"
    if isinstance(node, Neg):
        inner = to_source(node.arg)
        if _prec(node.arg) <= 2:
            inner = f"({inner})"
        return "-" + inner
    if isinstance(node, Bin):
        op = node.op
        ls = to_source(node.left)
        rs = to_source(node.right)
        if op in ("+", "-"):
            if _prec(node.right) == 1:
                rs = f"({rs})"
        elif op in ("*", "/"):
            if _prec(node.left) < 2:
                ls = f"({ls})"
            if _prec(node.right) <= 2:
                rs = f"({rs})"
        else:  # '^', right associative
            if _prec(node.left) <= 3:
                ls = f"({ls})"
            if _prec(node.right) < 2.5:
                rs = f"({rs})"
        return f"{ls}{op}{rs}"
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# signed-log evaluation

_Signed = Tuple[int, float]  # sign in {-1, 0, 1}; value = sign * exp(mag)
# a check that fails at some points: where (a mask, or one bool for all of
# them), the error's class and its message, or a function of a point's
# flat index that builds it
_Check = Tuple[np.ndarray, type, object]


def _signed_of(x: float) -> _Signed:
    if x == 0.0:
        return (0, _NEG_INF)
    return ((1 if x > 0 else -1), math.log(abs(x)))


def _literal(node: ExprNode) -> Optional[float]:
    # a (negated) number, exact: from its signed log, exp(log(3.0)) != 3.0
    if isinstance(node, Neg):
        return None if (x := _literal(node.arg)) is None else -x
    return node.value if isinstance(node, Num) else None


def _point(x, i: int) -> float:
    # element i of x flattened, or x where it is one number; x may be a
    # function that builds it
    x = np.ravel(x() if callable(x) else x)
    return float(x[i] if x.size > 1 else x[0])


def _fail(checks: List[_Check], where, error: type, message) -> None:
    # record a check where it fails at some point
    if where.any():
        checks.append((where, error, message))


def _first_failure(checks: List[_Check], shape) -> Optional[Tuple[int, EvaluationError]]:
    # the flat index of the first point of the given shape where a check
    # fails, and the error of the first check that fails there; None if none
    fails = [np.broadcast_to(where, shape).ravel() for where, _, _ in checks]
    first = np.flatnonzero(np.logical_or.reduce(fails))
    if not first.size:
        return None
    i = int(first[0])
    _, error, message = next(check for fail, check in zip(fails, checks) if fail[i])
    return i, error(message(i) if callable(message) else message)


def _raise_first(checks: List[_Check], shape) -> None:
    if checks and (failure := _first_failure(checks, shape)):
        raise failure[1]


def _positive(s) -> bool:
    # a sign that is 1 at every point, kept as a numpy scalar
    return not isinstance(s, np.ndarray) and s > 0


def _signed_log_array(node: ExprNode, ln_z: np.ndarray, z_sign, checks: List[_Check]):
    """Sign and log-magnitude of the tree at z = exp(ln_z), elementwise, in
    one pass over the tree; ``z_sign`` is 0 where ln z = -inf (z = 0) and
    1 elsewhere.

    Each point gets its value by the rules of a call: ``(0, -inf)`` is an
    exact zero, also from equal magnitudes of opposite sign, a power with
    exponent 0 is 1 (0 * inf read as 0), and exp of a negative value past
    the double range is ``(1, -inf)``.  Or it gets its first error in tree
    order: the nodes that can fail append their checks to ``checks`` as
    they go, the log, exp, ^ and / rules, and * and / where the magnitude
    inf - inf is undetermined, an overflow.  Constant subtrees stay numpy
    scalars, and so does a sign that is 1 at every point: a log of values
    above 1, and a power with a literal exponent or a sum of such positive
    operands, which then skip the sign bookkeeping.
    """
    if isinstance(node, Num):
        s, m = _signed_of(node.value)
        return np.float64(s), np.float64(m)
    if isinstance(node, Var):
        return z_sign, ln_z
    if isinstance(node, Euler):
        return np.float64(1.0), np.float64(1.0)
    if isinstance(node, Neg):
        s, m = _signed_log_array(node.arg, ln_z, z_sign, checks)
        return -s, m
    if isinstance(node, Call):
        s, m = _signed_log_array(node.arg, ln_z, z_sign, checks)
        if node.fn == "log":  # the argument's log-magnitude is the value of log itself
            _fail(checks, s <= 0, DomainError, "log of a non-positive value")
            if (m > 0.0).all():
                return np.float64(1.0), np.log(m)
            return np.sign(m), np.log(np.abs(m))
        # exp: the new log-magnitude is the argument's value, which fails
        # where it is +inf, whether the argument is finite or not
        x = s * np.exp(m)
        _fail(checks, x == np.inf, EvalOverflow, "exp argument too large")
        return np.float64(1.0), x
    if not isinstance(node, Bin):
        raise TypeError(f"not an expression node: {node!r}")
    s1, m1 = _signed_log_array(node.left, ln_z, z_sign, checks)
    s2, m2 = _signed_log_array(node.right, ln_z, z_sign, checks)
    op = node.op
    if op == "^":
        e = _literal(node.right)
        if e is None:
            big = lambda i: f"value of magnitude exp({_point(m2, i):.6g}) exceeds double range"  # noqa: E731
            _fail(checks, m2 > _LOG_MAX, EvalOverflow, big)
            e = s2 * np.exp(m2)
        elif _positive(s1):
            return s1, (m1 * e if e else np.zeros_like(m1))
        zero = s1 == 0
        _fail(checks, zero & (e < 0), DomainError, "zero raised to a negative power")
        _fail(checks, (s1 < 0) & (e != np.floor(e)), DomainError, "negative base with fractional power")
        odd = (s1 < 0) & (np.fmod(e, 2.0) != 0.0)
        s = np.where(zero & (e > 0), 0.0, np.where(odd, -1.0, 1.0))
        return s, np.where(e == 0, 0.0, np.where(zero, _NEG_INF, m1 * e))
    # a sum adds the smaller magnitude to the larger, bm, in logs; fmax
    # keeps bm where the two are the same infinity, whose difference is NaN
    if op == "+" and _positive(s1) and _positive(s2):
        bm = np.maximum(m1, m2)
        return s1, np.fmax(bm + np.log1p(np.exp(np.minimum(m1, m2) - bm)), bm)
    if op in "+-":
        s2 = s2 if op == "+" else -s2
        same, bm = s1 == s2, np.maximum(m1, m2)
        d = np.minimum(m1, m2) - bm  # <= 0
        s = np.where(same | (m1 != m2), np.where(m1 >= m2, s1, s2), 0.0)
        s = np.where(s1 == 0, s2, np.where(s2 == 0, s1, s))
        m = np.where(same, np.fmax(bm + np.log1p(np.exp(d)), bm), bm + np.log(-np.expm1(d)))
        return s, np.where(s == 0, _NEG_INF, np.where(s1 == 0, m2, np.where(s2 == 0, m1, m)))
    if op == "/":
        _fail(checks, s2 == 0, DomainError, "division by zero")
    s, m = s1 * s2, (m1 + m2 if op == "*" else m1 - m2)
    undetermined = np.isnan(m)
    if undetermined.any():  # a zero operand makes 0; else inf - inf is an overflow
        _fail(checks, undetermined & (s != 0), EvalOverflow, "value of magnitude exp(nan) exceeds double range")
        m = np.where(s == 0, _NEG_INF, m)
    return s, m


def signed_log_eval(node: ExprNode, ln_z: float) -> _Signed:
    """(sign, log of magnitude) of the tree at z = exp(ln_z): the array pass
    at one point, raising its error."""
    sign, mag = Expression(node).log_value(np.array([ln_z]))
    return int(sign[0]), float(mag[0])


# ---------------------------------------------------------------------------
# nonlinearity families


def _overflow(checks: List[_Check], x: np.ndarray, what: str, at) -> None:
    # the check that exp(x) is in the double range; at is where x was taken,
    # or a function that builds it for the message
    _fail(checks, x > _LOG_MAX, EvalOverflow, lambda i: f"{what} exceeds double range at {_point(at, i)!r}")


def _exp_checked(x: np.ndarray, what: str, at, out: Optional[np.ndarray] = None) -> np.ndarray:
    # exp of a log-domain array, refusing what would overflow a double (at
    # as in _overflow), in out if given (which may be x itself)
    checks: List[_Check] = []
    _overflow(checks, x, what, at)
    _raise_first(checks, np.shape(x))
    return np.exp(x, out=out)


# a proof of monotonicity asks ln f(eps), a sum of terms in scalar math, to
# be below _LOG_MAX by this much of the terms' size and 1: numpy's log may
# differ from libm's in the last bit, and near the range the probe decides
_PROOF_MARGIN = 1e-9


def _well_in_range(*terms: float) -> bool:
    # False where the terms are infinite, or of opposite infinities (NaN)
    return sum(terms) < _LOG_MAX - _PROOF_MARGIN * (1.0 + sum(map(abs, terms)))


def _at_point(message, at):
    # a check's message (as in _Check) followed by the point where it fails
    return lambda i: f"{message(i) if callable(message) else message} at z={_point(at, i)!r}"


def _ln_f(f: "Nonlinearity", ln_z: np.ndarray, at, checks: Optional[List[_Check]] = None) -> np.ndarray:
    # ln f at z = e**ln_z by the log-domain evaluator, -inf where f vanishes
    # (at as in _overflow).  f's checks at each point, their messages naming
    # it, then f >= 0, are appended to checks; without checks, the first
    # point that fails raises
    own = [] if checks is None else checks
    start = len(own)
    with np.errstate(all="ignore"):
        sign, ln_f = f._log_value(np.asarray(ln_z, dtype=float), own)
    for k in range(start, len(own)):
        where, error, message = own[k]
        own[k] = (where, error, _at_point(message, at))
    if not _positive(sign):
        negative = lambda i: f"f is negative at z={_point(at, i)!r}; right-hand sides must be >= 0"  # noqa: E731
        _fail(own, sign < 0, DomainError, negative)
    if checks is None:
        _raise_first(own, np.shape(ln_z))
    return ln_f


class Nonlinearity:
    """A function on [0, inf) with checked evaluation.

    A family supplies ``_log_value(ln_z, checks)``, :meth:`log_value`
    except that a sign equal at every point may be a numpy scalar and that
    the points where its rules fail are appended to ``checks`` in the
    order a call checks them.  Calls and :meth:`values` are exp of it; an
    argument below 0, a negative value or one past the double range raises
    a package error instead of letting NaN or inf leak into quadrature.
    """

    __slots__ = ()

    def __call__(self, z: float) -> float:
        if isinstance(z, bool) or not isinstance(z, (int, float)):
            raise TypeError(f"argument must be a real number, got {type(z).__name__}")
        return float(self.values(float(z)))

    def values(self, z: np.ndarray) -> np.ndarray:
        """Array form of calling f: elementwise values of f at ``z``.

        The first point, in order, where a check fails raises, with the
        error of the first check that fails there in a call's order: the
        argument, f's own rules, f >= 0, the double range.
        """
        z = np.asarray(z, dtype=float)
        checks: List[_Check] = []
        _fail(checks, np.isnan(z) | (z < 0.0), DomainError, lambda i: f"argument must be >= 0, got {_point(z, i)!r}")
        with np.errstate(divide="ignore", invalid="ignore"):
            ln_z = np.log(z)
        ln_f = _ln_f(self, ln_z, z, checks)
        _overflow(checks, ln_f, "f", z)
        _raise_first(checks, z.shape)
        return np.exp(ln_f)

    def log_value(self, ln_z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Sign (-1, 0 or 1) and log|f| at z = exp(ln_z), elementwise.

        ``ln_z`` is finite, or -inf for z = 0; both arrays have its
        shape.  log|f| is -inf where f vanishes and stays exact far below
        the double underflow threshold of f itself.  The first point where
        f's rules fail raises.
        """
        checks: List[_Check] = []
        with np.errstate(all="ignore"):
            sign, mag = self._log_value(np.asarray(ln_z, dtype=float), checks)
        _raise_first(checks, mag.shape)
        return (np.full(mag.shape, sign) if np.ndim(sign) == 0 else sign), mag

    def _proven_monotone(self, eps: float) -> bool:
        """True where f is proven non-decreasing on (0, eps], with ln f(eps)
        well inside the double range, from the family's parameters alone;
        :func:`check_monotone` then samples nothing.  The base class proves
        nothing."""
        return False


class Power(Nonlinearity, Record):
    """f(z) = z**exponent."""

    exponent: float

    def __post_init__(self) -> None:
        if isinstance(self.exponent, bool):
            raise ValueError(f"exponent must be a real number, got {self.exponent!r}")
        if not math.isfinite(self.exponent):
            raise ValueError(f"exponent must be finite, got {self.exponent!r}")

    def _log_value(self, ln_z: np.ndarray, checks: List[_Check]) -> Tuple[np.ndarray, np.ndarray]:
        mag = self.exponent * ln_z
        if self.exponent <= 0.0 and (ln_z == _NEG_INF).any():  # 0**exponent
            if self.exponent < 0.0:
                _fail(checks, ln_z == _NEG_INF, DomainError, f"0 cannot be raised to the power {self.exponent!r}")
            mag = np.where(ln_z == _NEG_INF, 0.0, mag)
        return np.float64(1.0), mag

    def _proven_monotone(self, eps: float) -> bool:
        # z**a is non-decreasing for a >= 0
        return self.exponent >= 0.0 and _well_in_range(self.exponent * math.log(eps))


class PowerLog(Nonlinearity, Record):
    """f(z) = z**power * log(e + 1/z)**mu for z > 0, and f(0) = 0.

    The logarithmic factor L is computed as log1p(e*z) - log(z) up to
    z = 1, which is exact where the naive form e + 1/z would overflow or
    lose all precision, and above it, where those two terms cancel, as
    1 + log1p(1/(e*z)), whose log is log1p of the second term.  L is
    always >= 1, so any real ``mu`` is safe.
    """

    mu: float
    power: float

    def __post_init__(self) -> None:
        for name in ("mu", "power"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a real number, got {getattr(self, name)!r}")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        if not math.isfinite(self.power):
            raise ValueError(f"power must be finite, got {self.power!r}")

    def _log_value(self, ln_z: np.ndarray, checks: List[_Check]) -> Tuple[np.ndarray, np.ndarray]:
        ln_factor = np.log(np.log1p(math.e * np.exp(ln_z)) - ln_z)
        if (above := ln_z > 0.0).any():
            ln_factor = np.where(above, np.log1p(np.log1p(np.exp(-1.0 - ln_z))), ln_factor)
        mag = self.power * ln_z + self.mu * ln_factor
        return np.float64(1.0), np.where(ln_z > _NEG_INF, mag, _NEG_INF)  # f(0) = 0

    def _proven_monotone(self, eps: float) -> bool:
        # d ln f / d ln z = power - mu / ((e z + 1) L), whose factor
        # 1 / ((e z + 1) L) lies in (0, 1]: at least power - mu where mu > 0,
        # and power where mu <= 0; f(0) = 0 is below the rest.  ln f(eps) is
        # at most power ln eps + max(mu, 0) ln L, as ln L >= 0
        if self.power < max(self.mu, 0.0):
            return False
        ln_eps = math.log(eps)
        ln_factor = math.log(math.log1p(math.e * eps) - ln_eps) if self.mu > 0.0 else 0.0
        return _well_in_range(self.power * ln_eps, self.mu * ln_factor)


class Expression(Nonlinearity, Record):
    """f given by a closed-form expression tree in the variable z."""

    root: ExprNode

    @property
    def source(self) -> str:
        return to_source(self.root)

    def __repr__(self) -> str:  # the tree form is unreadable in test output
        return f"Expression({self.source!r})"

    def _log_value(self, ln_z: np.ndarray, checks: List[_Check]) -> Tuple[np.ndarray, np.ndarray]:
        zero = ln_z == _NEG_INF
        z_sign = np.where(zero, 0.0, 1.0) if zero.any() else np.float64(1.0)
        s, m = _signed_log_array(self.root, ln_z, z_sign, checks)
        if np.ndim(m) == 0 or m is ln_z:  # a constant, or z itself
            m = np.full(ln_z.shape, m)
        return s, m


def parse_nonlinearity(text: str) -> Expression:
    """Parse grammar text into an :class:`Expression` nonlinearity."""
    return Expression(parse_expression(text))


# ---------------------------------------------------------------------------
# monotonicity probe


@tuple_record
class MonotonicityReport:
    """Outcome of a sampled non-decrease check.

    When ``monotone`` is False the four remaining fields identify the
    first offending pair of sample points.
    """

    monotone: bool
    zeta_lo: Optional[float] = None
    zeta_hi: Optional[float] = None
    value_lo: Optional[float] = None
    value_hi: Optional[float] = None


# check_monotone's grid size and relative slack, and its grid at eps = 1
_MONOTONE_SAMPLES = 256
_MONOTONE_SLACK = 1e-12
_MONOTONE_GRID = np.array(
    [10.0 ** (-12.0 * (1.0 - i / (_MONOTONE_SAMPLES - 1))) for i in range(_MONOTONE_SAMPLES)]
)


def _log_decreases(mag: np.ndarray) -> np.ndarray:
    # indices i of the pairs (i-1, i) of samples exp(mag) (mag = -inf where
    # f vanishes) with hi < lo - slack * max(lo, hi, 1), the test of
    # check_monotone, in logs
    m0, m1 = mag[:-1], mag[1:]
    with np.errstate(all="ignore"):
        fall = m0 + np.log(-np.expm1(m1 - m0))  # ln(lo - hi)
    return np.flatnonzero((m0 > m1) & (fall > math.log(_MONOTONE_SLACK) + np.maximum(m0, 0.0))) + 1


def check_monotone(f: Nonlinearity, eps: float) -> MonotonicityReport:
    """Check f for non-decrease on (0, eps].

    A family whose parameters prove it (``Power`` with exponent >= 0,
    ``PowerLog`` with power >= max(mu, 0), each with ln f(eps) well
    inside the double range) passes without a sample.  Everything else is
    probed on a log grid covering twelve decades below eps.  A decrease
    smaller than ``_MONOTONE_SLACK`` relative to the local magnitude is
    tolerated so that constant functions pass despite rounding.  The
    probe's outcome, values reported and errors raised are those of a
    loop of calls: one pass compares the samples' logs before the first
    sample where a call fails, then raises that sample's error.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    if f._proven_monotone(eps):
        return MonotonicityReport(True)
    grid = eps * _MONOTONE_GRID
    checks: List[_Check] = []
    mag = _ln_f(f, np.log(grid), grid, checks)
    _overflow(checks, mag, "f", grid)
    end, error = (checks and _first_failure(checks, grid.shape)) or (_MONOTONE_SAMPLES, None)
    mag = mag[:end]
    if (mag[1:] < mag[:-1]).any():
        falls = _log_decreases(mag)
        if falls.size:
            i = int(falls[0])
            lo, hi = np.exp(mag[i - 1 : i + 1]).tolist()
            return MonotonicityReport(False, float(grid[i - 1]), float(grid[i]), lo, hi)
    if error is not None:
        raise error
    return MonotonicityReport(True)

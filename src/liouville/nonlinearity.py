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

Three evaluators are provided.  The plain one computes f(z) directly
in doubles.  The signed-log one propagates (sign, log-magnitude) pairs
through the tree, which keeps deep power/log compositions meaningful
far below the double underflow threshold; the integral classifier
relies on it when probing shells at z around 1e-100 and smaller.  Each
has an array form, one pass over the tree on a whole numpy array, that
marks every point the scalar rules reject (or where a value overflows)
and redoes those points with the scalar form, so it raises exactly
what the scalar form raises.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

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


@dataclass(frozen=True, slots=True)
class Num(ExprNode):
    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"numeric literal must be finite, got {self.value!r}")


@dataclass(frozen=True, slots=True)
class Var(ExprNode):
    pass


@dataclass(frozen=True, slots=True)
class Euler(ExprNode):
    pass


@dataclass(frozen=True, slots=True)
class Neg(ExprNode):
    arg: ExprNode


@dataclass(frozen=True, slots=True)
class Bin(ExprNode):
    op: str
    left: ExprNode
    right: ExprNode

    def __post_init__(self) -> None:
        if self.op not in ("+", "-", "*", "/", "^"):
            raise ValueError(f"unknown operator {self.op!r}")


@dataclass(frozen=True, slots=True)
class Call(ExprNode):
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
# plain evaluation


def _eval_plain(node: ExprNode, z: float) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return z
    if isinstance(node, Euler):
        return math.e
    if isinstance(node, Neg):
        return -_eval_plain(node.arg, z)
    if isinstance(node, Call):
        a = _eval_plain(node.arg, z)
        if node.fn == "log":
            if a <= 0.0:
                raise DomainError(f"log of non-positive value {a!r}")
            return math.log(a)
        try:
            return math.exp(a)
        except OverflowError:
            raise EvalOverflow(f"exp({a!r}) exceeds double range") from None
    if isinstance(node, Bin):
        a = _eval_plain(node.left, z)
        b = _eval_plain(node.right, z)
        op = node.op
        if op == "^":
            try:
                v = math.pow(a, b)
            except ValueError:
                raise DomainError(f"cannot raise {a!r} to the power {b!r}") from None
            except OverflowError:
                raise EvalOverflow(f"{a!r}^{b!r} exceeds double range") from None
        elif op == "/":
            if b == 0.0:
                raise DomainError("division by zero")
            v = a / b
        elif op == "+":
            v = a + b
        elif op == "-":
            v = a - b
        else:
            v = a * b
        if not math.isfinite(v):
            raise EvalOverflow(f"intermediate value {v!r} in {op!r}")
        return v
    raise TypeError(f"not an expression node: {node!r}")


def _eval_array(node: ExprNode, z: np.ndarray, bad: np.ndarray):
    """Array form of :func:`_eval_plain`, one pass over the whole array.

    Sets ``bad`` wherever a log, an exp or a binary operation comes out
    non-finite.  That covers every element the scalar evaluator
    rejects: a log of 0 or of a negative value (-inf, NaN), a division
    by 0 (inf, NaN), 0**negative (inf), a negative base with a
    fractional power (NaN) and overflow (inf).  Constant subtrees stay
    numpy scalars.
    """
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Var):
        return z
    if isinstance(node, Euler):
        return np.float64(math.e)
    if isinstance(node, Neg):
        return -_eval_array(node.arg, z, bad)
    if isinstance(node, Call):
        a = _eval_array(node.arg, z, bad)
        v = np.log(a) if node.fn == "log" else np.exp(a)
    elif isinstance(node, Bin):
        a = _eval_array(node.left, z, bad)
        b = _eval_array(node.right, z, bad)
        op = node.op
        if op == "^":
            v = np.power(a, b)
        elif op == "/":
            v = np.divide(a, b)
        elif op == "+":
            v = a + b
        elif op == "-":
            v = a - b
        else:
            v = a * b
    else:
        raise TypeError(f"not an expression node: {node!r}")
    bad |= ~np.isfinite(v)
    return v


# ---------------------------------------------------------------------------
# signed-log evaluation

_Signed = Tuple[int, float]  # sign in {-1, 0, 1}; value = sign * exp(mag)


def _signed_of(x: float) -> _Signed:
    if x == 0.0:
        return (0, _NEG_INF)
    return ((1 if x > 0 else -1), math.log(abs(x)))


def _signed_to_float(s: int, m: float) -> float:
    if s == 0:
        return 0.0
    if m > _LOG_MAX:
        raise EvalOverflow(f"value of magnitude exp({m:.6g}) exceeds double range")
    return s * math.exp(m)


def _literal(node: ExprNode) -> Optional[float]:
    # a (negated) number, exact: from its signed log, exp(log(3.0)) != 3.0
    if isinstance(node, Neg):
        return None if (x := _literal(node.arg)) is None else -x
    return node.value if isinstance(node, Num) else None


def _signed_add(s1: int, m1: float, s2: int, m2: float) -> _Signed:
    if s1 == 0:
        return (s2, m2)
    if s2 == 0:
        return (s1, m1)
    if m1 == m2 and s1 != s2:
        return (0, _NEG_INF)
    if m1 >= m2:
        bs, bm, sm = s1, m1, m2
    else:
        bs, bm, sm = s2, m2, m1
    d = sm - bm  # <= 0
    if s1 == s2:
        return (s1, bm + math.log1p(math.exp(d)))
    return (bs, bm + math.log(-math.expm1(d)))


def signed_log_eval(node: ExprNode, ln_z: float) -> _Signed:
    """Evaluate at z = exp(ln_z), returning (sign, log of magnitude).

    ``ln_z`` must be finite, so z is strictly positive.  The pair
    ``(0, -inf)`` denotes an exact zero.  Magnitudes are unrestricted;
    only converting back to a double can overflow.
    """
    if isinstance(node, Num):
        return _signed_of(node.value)
    if isinstance(node, Var):
        return (1, ln_z)
    if isinstance(node, Euler):
        return (1, 1.0)
    if isinstance(node, Neg):
        s, m = signed_log_eval(node.arg, ln_z)
        return (-s, m)
    if isinstance(node, Call):
        s, m = signed_log_eval(node.arg, ln_z)
        if node.fn == "log":
            if s <= 0:
                raise DomainError("log of a non-positive value")
            # the argument's log-magnitude is the value of log itself
            return _signed_of(m)
        # exp: the new log-magnitude is the argument's value
        if s == 0:
            return (1, 0.0)
        try:
            x = s * math.exp(m)
        except OverflowError:
            if s > 0:
                raise EvalOverflow("exp argument too large") from None
            return (1, _NEG_INF)
        return (1, x)
    if isinstance(node, Bin):
        op = node.op
        if op == "^":
            s, m = signed_log_eval(node.left, ln_z)
            es, em = signed_log_eval(node.right, ln_z)
            e = _literal(node.right)
            e = _signed_to_float(es, em) if e is None else e
            if s == 0:
                if e > 0:
                    return (0, _NEG_INF)
                if e == 0:
                    return (1, 0.0)
                raise DomainError("zero raised to a negative power")
            if s < 0:
                if e != math.floor(e):
                    raise DomainError("negative base with fractional power")
                sign = 1 if int(e) % 2 == 0 else -1
            else:
                sign = 1
            mag = m * e
            if math.isnan(mag):  # 0 * inf: base magnitude 1 or exponent 0
                mag = 0.0
            return (sign, mag)
        s1, m1 = signed_log_eval(node.left, ln_z)
        s2, m2 = signed_log_eval(node.right, ln_z)
        if op == "+":
            return _signed_add(s1, m1, s2, m2)
        if op == "-":
            return _signed_add(s1, m1, -s2, m2)
        if op == "*":
            if s1 == 0 or s2 == 0:
                return (0, _NEG_INF)
            return (s1 * s2, m1 + m2)
        # division
        if s2 == 0:
            raise DomainError("division by zero")
        if s1 == 0:
            return (0, _NEG_INF)
        return (s1 * s2, m1 - m2)
    raise TypeError(f"not an expression node: {node!r}")


def _positive(s) -> bool:
    # a sign that is 1 at every point, kept as a numpy scalar
    return not isinstance(s, np.ndarray) and s > 0


def _signed_log_array(node: ExprNode, ln_z: np.ndarray, bad: np.ndarray):
    """Array form of :func:`signed_log_eval`, one pass over the tree.

    Sets ``bad`` wherever a scalar rule raises or a pair is neither an
    exact zero ``(0, -inf)`` nor a nonzero sign with a finite magnitude
    (an overflow); elsewhere the scalar rules reduce to the arithmetic
    below.  Constant subtrees stay numpy scalars, and so does a sign that
    is 1 at every point: a log of values above 1, and a power with a
    literal exponent or a sum of such positive operands, which then skip
    the sign bookkeeping.
    """
    if isinstance(node, Num):
        return tuple(np.float64(x) for x in _signed_of(node.value))
    if isinstance(node, Var):
        return np.float64(1.0), ln_z
    if isinstance(node, Euler):
        return np.float64(1.0), np.float64(1.0)
    if isinstance(node, Neg):
        s, m = _signed_log_array(node.arg, ln_z, bad)
        return -s, m
    if isinstance(node, Call):
        s, m = _signed_log_array(node.arg, ln_z, bad)
        if node.fn == "log":
            bad |= s <= 0
            if (m > 0.0).all():
                s, m = np.float64(1.0), np.log(m)
            else:
                s, m = np.sign(m), np.log(np.abs(m))
        else:
            s, m = np.float64(1.0), s * np.exp(m)
    elif isinstance(node, Bin):
        s1, m1 = _signed_log_array(node.left, ln_z, bad)
        s2, m2 = _signed_log_array(node.right, ln_z, bad)
        op = node.op
        if op == "^":
            e = _literal(node.right)
            if e is not None and _positive(s1):
                s, m = s1, m1 * e
            else:
                e = s2 * np.exp(m2) if e is None else e
                zero = s1 == 0
                bad |= (m2 > _LOG_MAX) | (zero & (e < 0)) | ((s1 < 0) & (e != np.floor(e)))
                odd = (s1 < 0) & (np.fmod(e, 2.0) != 0.0)
                s = np.where(zero & (e > 0), 0.0, np.where(odd, -1.0, 1.0))
                m = np.where(zero, np.where(e > 0, _NEG_INF, 0.0), m1 * e)
        elif op == "+" and _positive(s1) and _positive(s2):  # as _signed_add
            bm = np.maximum(m1, m2)
            s, m = s1, bm + np.log1p(np.exp(np.minimum(m1, m2) - bm))
        elif op in "+-":  # as _signed_add
            s2 = s2 if op == "+" else -s2
            bm = np.maximum(m1, m2)
            d = np.minimum(m1, m2) - bm  # <= 0
            s = np.where((s1 == s2) | (m1 != m2), np.where(m1 >= m2, s1, s2), 0.0)
            m = bm + np.where(s1 == s2, np.log1p(np.exp(d)), np.log(-np.expm1(d)))
            s = np.where(s1 == 0, s2, np.where(s2 == 0, s1, s))
            m = np.where(s1 == 0, m2, np.where(s2 == 0, m1, m))
        else:  # a zero divisor leaves (0, +inf) or (0, NaN), marked below
            s, m = s1 * s2, (m1 + m2 if op == "*" else m1 - m2)
    else:
        raise TypeError(f"not an expression node: {node!r}")
    bad |= ~np.isfinite(m) if _positive(s) else ~np.where(s == 0, m == _NEG_INF, np.isfinite(m))
    return s, m


# ---------------------------------------------------------------------------
# nonlinearity families


class Nonlinearity:
    """A function on [0, inf) with checked evaluation.

    Calling an instance validates the argument, evaluates the family
    rule, and rejects non-finite or negative results with a package
    error instead of letting NaN or inf leak into quadrature.  A family
    supplies the rules behind a call, :meth:`values` and :meth:`log_value`.
    """

    __slots__ = ()

    def _value(self, z: float) -> float:
        raise NotImplementedError

    def __call__(self, z: float) -> float:
        if isinstance(z, bool) or not isinstance(z, (int, float)):
            raise TypeError(f"argument must be a real number, got {type(z).__name__}")
        z = float(z)
        if math.isnan(z) or z < 0.0:
            raise DomainError(f"argument must be >= 0, got {z!r}")
        v = self._value(z)
        if math.isnan(v) or math.isinf(v):
            raise EvalOverflow(f"value at z={z!r} is {v!r}")
        if v < 0.0:
            raise DomainError(f"negative value {v!r} at z={z!r}; right-hand sides must be >= 0")
        return v

    def values(self, z: np.ndarray) -> np.ndarray:
        """Array form of calling f: elementwise values of f at ``z``.

        Applies the checks of a call to every element and raises the
        same package errors.
        """
        z = np.asarray(z, dtype=float)
        bad = np.flatnonzero(np.isnan(z) | (z < 0.0))
        if bad.size:
            raise DomainError(f"argument must be >= 0, got {float(z.flat[bad[0]])!r}")
        with np.errstate(all="ignore"):
            v = self._values(z)
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            i = bad[0]
            raise EvalOverflow(f"value at z={float(z.flat[i])!r} is {float(v.flat[i])!r}")
        bad = np.flatnonzero(v < 0.0)
        if bad.size:
            i = bad[0]
            raise DomainError(
                f"negative value {float(v.flat[i])!r} at z={float(z.flat[i])!r}; "
                "right-hand sides must be >= 0"
            )
        return v

    def log_value(self, ln_z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Sign (-1, 0 or 1) and log|f| at z = exp(ln_z), elementwise.

        ``ln_z`` must be finite; both arrays have its shape.  log|f| is
        -inf where f vanishes and stays exact far below the double
        underflow threshold of f itself.
        """
        with np.errstate(all="ignore"):
            return self._log_value(np.asarray(ln_z, dtype=float))


@dataclass(frozen=True)
class Power(Nonlinearity):
    """f(z) = z**exponent."""

    exponent: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.exponent):
            raise ValueError(f"exponent must be finite, got {self.exponent!r}")

    def _value(self, z: float) -> float:
        try:
            return math.pow(z, self.exponent)
        except ValueError:
            raise DomainError(f"0 cannot be raised to the power {self.exponent!r}") from None
        except OverflowError:
            raise EvalOverflow(f"{z!r}^{self.exponent!r} exceeds double range") from None

    def _values(self, z: np.ndarray) -> np.ndarray:
        if self.exponent < 0.0 and np.any(z == 0.0):
            raise DomainError(f"0 cannot be raised to the power {self.exponent!r}")
        return np.power(z, self.exponent)

    def _log_value(self, ln_z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return np.ones(ln_z.shape), self.exponent * ln_z


@dataclass(frozen=True)
class PowerLog(Nonlinearity):
    """f(z) = z**power * log(e + 1/z)**mu for z > 0, and f(0) = 0.

    The logarithmic factor is computed as log1p(e*z) - log(z), which
    is exact where the naive form e + 1/z would overflow or lose all
    precision.  The factor is always >= 1, so any real ``mu`` is safe.
    """

    mu: float
    power: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu!r}")
        if not math.isfinite(self.power):
            raise ValueError(f"power must be finite, got {self.power!r}")

    def _value(self, z: float) -> float:
        if z == 0.0:
            return 0.0
        log_factor = math.log1p(math.e * z) - math.log(z)
        try:
            return math.pow(z, self.power) * math.pow(log_factor, self.mu)
        except OverflowError:
            raise EvalOverflow(f"value at z={z!r} exceeds double range") from None

    def _values(self, z: np.ndarray) -> np.ndarray:
        pos = z > 0.0
        zp = np.where(pos, z, 1.0)
        log_factor = np.log1p(math.e * zp) - np.log(zp)
        return np.where(pos, np.power(zp, self.power) * np.power(log_factor, self.mu), 0.0)

    def _log_value(self, ln_z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        log_factor = np.log1p(math.e * np.exp(ln_z)) - ln_z
        return np.ones(ln_z.shape), self.power * ln_z + self.mu * np.log(log_factor)


@dataclass(frozen=True)
class Expression(Nonlinearity):
    """f given by a closed-form expression tree in the variable z."""

    root: ExprNode

    @property
    def source(self) -> str:
        return to_source(self.root)

    def __repr__(self) -> str:  # the tree form is unreadable in test output
        return f"Expression({self.source!r})"

    def _value(self, z: float) -> float:
        return _eval_plain(self.root, z)

    def _values(self, z: np.ndarray) -> np.ndarray:
        bad = np.zeros(z.shape, dtype=bool)
        v = np.full(z.shape, _eval_array(self.root, z, bad))
        bad |= v < 0.0
        # redo the marked points by calls, in order: the first one the
        # scalar rules reject raises there, as a loop of calls would
        for i in np.flatnonzero(bad):
            v.flat[i] = self(float(z.flat[i]))
        return v

    def _log_value(self, ln_z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        bad = np.zeros(ln_z.shape, dtype=bool)
        pair = _signed_log_array(self.root, ln_z, bad)
        s, m = (np.array(np.broadcast_to(x, ln_z.shape)) for x in pair)
        for i in np.flatnonzero(bad):  # in order, as in _values
            s.flat[i], m.flat[i] = signed_log_eval(self.root, float(ln_z.flat[i]))
        return s, m


def parse_nonlinearity(text: str) -> Expression:
    """Parse grammar text into an :class:`Expression` nonlinearity."""
    return Expression(parse_expression(text))


# ---------------------------------------------------------------------------
# monotonicity probe


@dataclass(frozen=True, slots=True)
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
    """Probe f for non-decrease on a log grid spanning (0, eps].

    The grid covers twelve decades below eps.  A decrease smaller than
    ``_MONOTONE_SLACK`` relative to the local magnitude is tolerated so
    that constant functions pass despite rounding.  The samples are
    evaluated in one array call; the pairs it flags (every pair, if it
    raises) are checked by calls, so the outcome is that of a loop of
    calls, and evaluation errors propagate to the caller untouched.  The
    one exception is an intermediate value past the double range, as
    1/z at a tiny eps: then the same test runs on the samples' signed
    logs (:meth:`Nonlinearity.log_value`), up to the first sample where
    f itself is negative or past that range, whose call raises as in
    the loop.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    grid = eps * _MONOTONE_GRID
    zs = grid.tolist()
    try:
        v = f.values(grid)
    except EvalOverflow:
        sign, mag = f.log_value(np.log(grid))
        bad = np.flatnonzero((sign < 0) | (mag > _LOG_MAX))
        end = int(bad[0]) if bad.size else mag.size
        mag = np.where(sign > 0, mag, -np.inf)[:end]
        falls = _log_decreases(mag)
        if falls.size:
            i = int(falls[0])
            lo, hi = (math.exp(m) for m in mag[i - 1 : i + 1].tolist())
            return MonotonicityReport(False, zs[i - 1], zs[i], lo, hi)
        if end < len(zs):
            f(zs[end])  # raises
        return MonotonicityReport(True)
    except EvaluationError:
        pairs = range(1, _MONOTONE_SAMPLES)
    else:
        # array values differ from calls by a few ulps, far inside half the slack
        slack = 0.5 * _MONOTONE_SLACK * np.maximum(np.maximum(np.abs(v[:-1]), np.abs(v[1:])), 1.0)
        pairs = (np.flatnonzero(v[1:] < v[:-1] - slack) + 1).tolist()
    for i in pairs:
        lo, hi = f(zs[i - 1]), f(zs[i])
        if hi < lo - _MONOTONE_SLACK * max(abs(lo), abs(hi), 1.0):
            return MonotonicityReport(False, zs[i - 1], zs[i], lo, hi)
    return MonotonicityReport(True)

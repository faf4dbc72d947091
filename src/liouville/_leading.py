"""Leading term of a nonlinearity as z -> 0+, and the remainder it implies.

Every f of the expression grammar is an exp-log function, so it lies in
a Hardy field (G. H. Hardy, *Orders of Infinity*, 1910): as z -> 0+ it
has a leading term

    c * z**a * L1**b1 * L2**b2,    L1 = ln(1/z),  L2 = ln L1,

or it lies beyond every power, vanishing like exp(-1/z) (a = +inf) or
growing like exp(1/z) (a = -inf).  :func:`leading_term` finds that term
in one walk over the tree, the first step of Gruntz's algorithm
(D. Gruntz, *On Computing Limits in a Symbolic Manipulation System*,
ETH thesis, 1996):

* a product or quotient combines the terms exactly;
* a sum keeps its dominant term, and gives up where the leading
  coefficients cancel (``exp(z) - 1``);
* log(c z**a L1**b1 L2**b2) is -a L1, else b1 L2, else ln c, and gives
  up where that would need ln L2 or where ln c cancels (``log(1 + z)``);
* exp of a vanishing argument is 1, of a constant c is e**c, and of an
  argument that diverges like a power it lies beyond every power; any
  other exp gives up;
* a power with a constant exponent scales the term; any other power is
  exp(exponent * log(base)).

The walk gives up (returns None) in those cases and where f is not
positive near 0.  ``Power`` is z**lambda and ``PowerLog`` is
z**power * L1**mu by definition.

:func:`tail` integrates the term's own integrand in u = ln(1/zeta) past
a point, in closed form through the upper incomplete gamma
function :func:`ln_scaled_gamma`.
"""

from __future__ import annotations

import math
from typing import Optional

from ._record import tuple_record
from .nonlinearity import Bin, Call, Euler, Expression, Neg, Nonlinearity, Num, Power, PowerLog, Var

__all__ = ["Term", "leading_term", "ln_scaled_gamma", "tail"]


@tuple_record
class Term:
    """c * z**a * L1**b1 * L2**b2; a = +-inf with c = +-1 lies beyond
    every power.  ``exact`` when f is exactly c * z**a."""

    c: float
    a: float
    b1: float = 0.0
    b2: float = 0.0
    exact: bool = False


class _GiveUp(Exception):
    pass


_ONE = Term(1.0, 0.0, exact=True)
_ZERO = Term(0.0, 0.0, exact=True)
# leading coefficients within this of cancelling leave the term to the next order
_CANCEL = 1e-12


def leading_term(f: Nonlinearity) -> Optional[Term]:
    """The leading term of f as z -> 0+, with c > 0; None where the walk
    gives up or f is not positive near 0."""
    if isinstance(f, Power):
        return Term(1.0, f.exponent, exact=True)
    if isinstance(f, PowerLog):
        return Term(1.0, f.power, f.mu)
    if not isinstance(f, Expression):
        return None
    try:
        t = _walk(f.root)
    except (_GiveUp, ArithmeticError, ValueError):
        return None
    return t if t.c > 0.0 else None


def _checked(c: float, a: float, b1: float, b2: float, exact: bool) -> Term:
    if math.isinf(a):  # beyond every power: only the sign of c counts
        return Term(math.copysign(1.0, c), a)
    if not (math.isfinite(c) and c != 0.0 and math.isfinite(a + b1 + b2)):
        raise _GiveUp
    return Term(c, a, b1, b2, exact)


def _constant(t: Term) -> bool:
    return t.exact and t.a == 0.0


def _mul(s: Term, t: Term, sign: int = 1) -> Term:
    # s * t**sign, sign = +-1
    if _constant(s) and _constant(t):
        return Term(s.c * t.c if sign > 0 else s.c / t.c, 0.0, exact=True)
    if s.c == 0.0 or t.c == 0.0:
        if t.c == 0.0 and sign < 0 or math.isinf(s.a) or math.isinf(t.a):
            raise _GiveUp
        return _ZERO
    c = s.c * t.c if sign > 0 else s.c / t.c
    return _checked(c, s.a + sign * t.a, s.b1 + sign * t.b1, s.b2 + sign * t.b2, s.exact and t.exact)


def _add(s: Term, t: Term) -> Term:
    if _constant(s) and _constant(t):
        return Term(s.c + t.c, 0.0, exact=True)
    if s.c == 0.0 or t.c == 0.0:
        return t if s.c == 0.0 else s
    ks, kt = (-s.a, s.b1, s.b2), (-t.a, t.b1, t.b2)  # larger is larger near 0
    if ks != kt:
        return (s if ks > kt else t)._replace(exact=False)
    c = s.c + t.c
    if math.isinf(s.a) and s.c != t.c or abs(c) <= _CANCEL * max(abs(s.c), abs(t.c)):
        raise _GiveUp
    return _checked(c, s.a, s.b1, s.b2, s.exact and t.exact)


def _pow(t: Term, k: float) -> Term:
    # t**k for a constant k
    if k == 0.0:
        return _ONE
    if t.c == 0.0:
        if k < 0.0:
            raise _GiveUp
        return _ZERO
    if _constant(t):
        return Term(math.pow(t.c, k), 0.0, exact=True)
    return _checked(math.pow(t.c, k), t.a * k, t.b1 * k, t.b2 * k, t.exact)


def _log(t: Term) -> Term:
    if t.c <= 0.0 or math.isinf(t.a):
        raise _GiveUp
    if _constant(t):
        return Term(math.log(t.c), 0.0, exact=True)
    if t.a != 0.0:
        return Term(-t.a, 0.0, 1.0)
    if t.b1 != 0.0:
        return Term(t.b1, 0.0, 0.0, 1.0)
    if t.b2 != 0.0 or abs(math.log(t.c)) <= _CANCEL:
        raise _GiveUp
    return Term(math.log(t.c), 0.0)


def _exp(t: Term) -> Term:
    if _constant(t):
        return Term(math.exp(t.c), 0.0, exact=True)
    if t.a > 0.0 or t.a == 0.0 and (t.b1, t.b2) < (0.0, 0.0):
        return Term(1.0, 0.0)  # a vanishing argument
    if t.a < 0.0:  # diverges like a power: beyond every power
        return Term(1.0, -math.copysign(math.inf, t.c))
    if (t.b1, t.b2) == (0.0, 0.0):
        return _checked(math.exp(t.c), 0.0, 0.0, 0.0, False)
    raise _GiveUp  # diverges like a power of L1 or L2


def _walk(node) -> Term:
    if isinstance(node, Num):
        return Term(node.value, 0.0, exact=True)
    if isinstance(node, Var):
        return Term(1.0, 1.0, exact=True)
    if isinstance(node, Euler):
        return Term(math.e, 0.0, exact=True)
    if isinstance(node, Neg):
        t = _walk(node.arg)
        return t._replace(c=-t.c)
    if isinstance(node, Call):
        t = _walk(node.arg)
        return _log(t) if node.fn == "log" else _exp(t)
    if not isinstance(node, Bin):
        raise _GiveUp
    s, t = _walk(node.left), _walk(node.right)
    if node.op == "+":
        return _add(s, t)
    if node.op == "-":
        return _add(s, t._replace(c=-t.c))
    if node.op in "*/":
        return _mul(s, t, 1 if node.op == "*" else -1)
    if _constant(t):
        if s.c < 0.0 and t.c != math.floor(t.c):
            raise _GiveUp
        return _pow(s, t.c)
    if s.c <= 0.0:
        raise _GiveUp
    return _exp(_mul(t, _log(s)))


# ---------------------------------------------------------------------------
# the remainder of the term's own integral


def ln_scaled_gamma(s: float, x: float) -> float:
    """ln(e**x * Gamma(s, x)), the scaled upper incomplete gamma function,
    for real s and x > 0 (any real x at s = 1, where it is exactly 0).

    Legendre's continued fraction (DLMF 8.9.2), by the modified Lentz
    method, at X = max(x, s, 1), where it converges in at most a few
    hundred steps; below X the integral of t**(s-1) e**-t over (x, X] is
    added term by term from the series of e**-t, each term
    X**sigma (1 - (x/X)**sigma) / sigma taken by expm1, so no term
    cancels near a pole of Gamma(s).
    """
    if s == 1.0:
        return 0.0
    big = max(x, s, 1.0)
    b = big + 1.0 - s
    c, d = 1e300, 1.0 / b
    h, i = d, 0
    while True:
        i += 1
        an = -i * (i - s)
        b += 2.0
        d = 1.0 / (an * d + b or 1e-300)
        c = b + an / c or 1e-300
        h *= c * d
        if abs(c * d - 1.0) <= 2.5e-16 or i >= 1000:
            break
    if x >= big:
        return s * math.log(x) + math.log(h)
    ln_ratio, ln_big = math.log(x / big), math.log(big)
    total, term, k, fact = 0.0, math.inf, 0, 1.0
    while abs(term) > 1e-17 * abs(total):
        sigma = s + k
        j = -ln_ratio if sigma == 0.0 else -math.exp(sigma * ln_big) * math.expm1(sigma * ln_ratio) / sigma
        term = (j if k % 2 == 0 else -j) / fact
        total += term
        k += 1
        fact *= k
    return x + math.log(math.exp(s * ln_big - big) * h + total)


def tail(ln_m: float, d: float, b1: float, b2: float, v: float) -> Optional[float]:
    """The integral over u > v of m(u) = C e**(-d u) u**b1 (ln u)**b2,
    scaled so that m(v) = e**ln_m, where it has a closed form (None
    elsewhere):

    * d > 0, b2 = 0: C d**-(b1+1) Gamma(b1+1, d v);
    * d = 0, b1 < -1: in t = ln u the integrand is C e**(-g t) t**b2,
      g = -b1-1, so C g**-(b2+1) Gamma(b2+1, g ln v);
    * d = 0, b1 = -1, b2 < -1: C (ln v)**(b2+1) / (-b2-1).

    At d > 0 with b1 = b2 = 0 it is exp(ln_m) / d, for any real v.
    """
    if d > 0.0 and b2 == 0.0:
        s = b1 + 1.0
        return math.exp(ln_m + ln_scaled_gamma(s, d * v) - (b1 * math.log(v) if b1 else 0.0)) / d**s
    if d == 0.0 and b1 < -1.0:
        g, lv = -b1 - 1.0, math.log(v)
        ln_ratio = ln_scaled_gamma(b2 + 1.0, g * lv) - (b2 * math.log(lv) if b2 else 0.0)
        return math.exp(ln_m + ln_ratio) * v / g ** (b2 + 1.0)
    if d == 0.0 and b1 == -1.0 and b2 < -1.0:
        return math.exp(ln_m) * v * math.log(v) / (-b2 - 1.0)
    return None

"""Seeded operation streams for the three benchmark workloads.

A workload is an endless sequence of rounds.  The *templates* of a
round (which command, which (n, p), which family, which gap stratum)
are fixed for every seed, in a fixed order; the seed only draws the
exact exponent inside each stratum.  Two runs with different seeds
therefore do the same mix of work on different inputs, which keeps
the run-to-run spread of the medians small while every input still
comes from the seed.

Every generated input has a known analytic truth: a power z^a is
convergent exactly when a > q, the critical log form
z^q * log(e + 1/z)^mu exactly when mu < -1, and the mixed and
log-decorated forms inherit the truth of their leading power.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

# (n, p) pairs and their critical exponents q = n (p - 1) / (n - p):
# 3, 2, 5, 0.8 and 3.2.
PAIRS: Tuple[Tuple[int, float], ...] = ((3, 2.0), (4, 2.0), (5, 3.0), (4, 1.5), (8, 3.0))

# Centres of the exponent-gap strata; each drawn gap is the centre
# times exp(U(-JITTER, JITTER)).  Verdicts need the near-critical end
# densely, so classify-mix spaces them on a log scale from 1e-3 to 3.
# Certificates below a gap of about 0.1 are refused by a known defect
# (see oracles.py), so the certify workloads keep two strata there and
# spend the rest on gaps where a profile gets built.
VERDICT_GAPS: Tuple[float, ...] = tuple(10.0 ** (-3.0 + k * (math.log10(3.0) + 3.0) / 5) for k in range(6))
CERTIFY_GAPS: Tuple[float, ...] = (1e-3, 0.03, 0.2, 0.6, 1.2, 3.0)
JITTER = math.log(1.05)

# Forms of a classify-mix input; six of eight run the numeric route.
# The fast forms (analytic, plain power) make up three eighths, so the
# median classify falls inside the slower numeric cluster rather than
# on the step between the two, where it would swing with the seed.
CLASSIFY_FORMS = ("expr-pow", "expr-log", "expr-mixed", "power", "expr-logpow", "powerlog", "expr-log", "expr-mixed")
# Forms of a certify-expr input.
EXPR_FORMS = ("expr-pow", "expr-logpow", "expr-mixed", "expr-log")

DIVERGES = "diverges"
CONVERGES = "converges"


def critical(n: int, p: float) -> float:
    return n * (p - 1.0) / (n - p)


def num(x: float) -> str:
    """Six significant digits, the text a user would type."""
    return format(x, ".6g")


@dataclass(frozen=True)
class Case:
    """One nonlinearity at one (n, p) with its analytic truth."""

    n: int
    p: float
    form: str
    family_args: Tuple[str, ...]  # --power X | --powerlog X | --expr TEXT
    truth: str
    route: str  # "analytic" or "numeric"
    gap: float  # distance to the critical threshold (exponent or mu)
    exponent: Optional[float] = None  # leading power, when the form has one

    @property
    def label(self) -> str:
        return f"n={self.n} p={num(self.p)} {' '.join(self.family_args)}"


@dataclass
class Op:
    """One closed-loop operation and what its oracles need to know."""

    kind: str  # classify | verify | construct | sweep | scale-study
    case: Optional[Case] = None
    argv: List[str] = field(default_factory=list)
    sweep: Optional[Tuple[str, float, List[float]]] = None  # family, q, parameter values
    closed_form: bool = False  # n=3, p=2, z^4 at delta = 1
    power_twin: Optional[str] = None  # --power spelling of a "z^a" expression
    j_count: int = 10  # scale-study halvings
    fixed: bool = False

    @property
    def label(self) -> str:
        if self.kind == "sweep":
            return " ".join(self.argv)
        if self.kind == "scale-study":
            return f"scale-study {self.case.label} j={self.j_count}"
        return f"{self.kind} {self.case.label}"


def make_case(n: int, p: float, form: str, side: int, gap: float) -> Case:
    """Input of ``form`` at distance ``gap`` above (side=+1, convergent)
    or below (side=-1, divergent) the critical threshold."""
    q = critical(n, p)
    if form in ("powerlog", "expr-log"):
        mu = float(num(-1.0 - side * gap))
        truth = CONVERGES if mu < -1.0 else DIVERGES
        if form == "powerlog":
            return Case(n, p, form, ("--powerlog", num(mu)), truth, "analytic", abs(mu + 1.0))
        text = f"z^{q!r}*log(e+1/z)^{num(mu)}"
        return Case(n, p, form, ("--expr", text), truth, "numeric", abs(mu + 1.0), q)
    # power-led forms; below critical the exponent stays positive: a gap
    # past 0.9 q shrinks it in proportion rather than to a fixed floor,
    # so that every seed draws a different input there too
    if side > 0:
        a = q + gap
    else:
        a = q - gap if gap < 0.9 * q else 0.09 * q * q / gap
    a = float(num(a))
    truth = CONVERGES if a > q else DIVERGES
    if form == "power":
        return Case(n, p, form, ("--power", num(a)), truth, "analytic", abs(a - q), a)
    text = {
        "expr-pow": f"z^{num(a)}",
        "expr-logpow": f"z^{num(a)}*log(e+1/z)^-2",
        "expr-mixed": f"(z^{num(a)}+z^{num(a + 1.0)})*exp(z)",
    }[form]
    return Case(n, p, form, ("--expr", text), truth, "numeric", abs(a - q), a)


def fixed_case(n: int, p: float, args: Tuple[str, ...], exponent: float) -> Case:
    """A fixed, convergent input of the baseline table."""
    route = "numeric" if args[0] == "--expr" else "analytic"
    return Case(n, p, "fixed", args, CONVERGES, route, exponent - critical(n, p), exponent)


INSTANCE = fixed_case(3, 2.0, ("--power", "4"), 4.0)
POWER_55 = fixed_case(5, 3.0, ("--power", "5.5"), 5.5)
EXPR_55 = fixed_case(5, 3.0, ("--expr", "z^5.5"), 5.5)
EXPR_LOG = fixed_case(4, 2.0, ("--expr", "z^3*log(e+1/z)^-2"), 3.0)


def _struct(case: Case) -> List[str]:
    return ["--n", str(case.n), "--p", num(case.p)]


def cli_op(kind: str, case: Case, fixed: bool = False, **extra) -> Op:
    argv = [kind] + _struct(case) + list(case.family_args)
    if kind == "verify":
        argv += ["--format", "json"]
    op = Op(kind, case, argv, fixed=fixed, **extra)
    if kind == "construct" and case.family_args[1] == f"z^{num(case.exponent or 0.0)}":
        op.power_twin = num(case.exponent)
    return op


def sweep_op(n: int, p: float, family: str, start: float, stop: float, step: float) -> Op:
    q = critical(n, p)
    values: List[float] = []
    i = 0
    while True:  # the CLI's own enumeration of the range
        v = round(start + i * step, 12)
        if v > stop + 1e-12:
            break
        values.append(v)
        i += 1
    argv = ["sweep", "--n", str(n), "--p", num(p), "--family", family,
            "--start", repr(start), "--stop", repr(stop), "--step", repr(step), "--format", "csv"]
    return Op("sweep", argv=argv, sweep=(family, q, values))


class Workload:
    name = ""
    gaps = CERTIFY_GAPS
    # Wall seconds one round takes on a busy, shared 2-core x86 machine with
    # Python 3.11: sizes an untraced run from --seconds, so that the
    # operation mix of a run is the same on every seed.
    round_seconds = 20.0
    trace_rounds = 1

    def __init__(self, seed: int, tiny: bool = False):
        self.rng = random.Random(seed)
        self.tiny = tiny
        self.pairs = PAIRS[:1] if tiny else PAIRS

    def gap(self, k: int) -> float:
        return self.gaps[k] * math.exp(self.rng.uniform(-JITTER, JITTER))

    def slots(self, count: int, r: int) -> Iterator[Tuple[int, int]]:
        """``count`` (pair index, gap stratum) slots, cycling through
        the pairs and the strata."""
        for j in range(1 if self.tiny else count):
            yield j % len(self.pairs), (j + r) % 6

    def round(self, r: int) -> List[Op]:
        raise NotImplementedError

    def ops(self, rounds: int) -> List[Op]:
        out: List[Op] = []
        for r in range(rounds):
            ops = self.round(r)
            random.Random(r).shuffle(ops)  # seed-independent order
            out += ops
        return out

    def rounds_for(self, seconds: float) -> int:
        return 1 if self.tiny else max(1, round(seconds / self.round_seconds))


class ClassifyMix(Workload):
    """Verdicts on a mostly-expression stream; certify commands only on
    Liouville-regime inputs, so no profile is built (the bypass)."""

    name = "classify-mix"
    gaps = VERDICT_GAPS
    round_seconds = 3.0
    trace_rounds = 6

    def round(self, r: int) -> List[Op]:
        ops: List[Op] = []
        strata = range(0, 6, 2) if self.tiny else range(6)
        for i, (n, p) in enumerate(self.pairs):
            for k in strata:
                for s, side in enumerate((+1, -1)):
                    form = CLASSIFY_FORMS[(i + k + 3 * s) % len(CLASSIFY_FORMS)]
                    ops.append(cli_op("classify", make_case(n, p, form, side, self.gap(k))))
            # Certify commands on Liouville-regime inputs stop at the gate,
            # unless the numeric gate errs (then a profile gets built).
            for m in range(2):
                k = (i + r + 3 * m) % 6
                ops.append(cli_op("verify", make_case(n, p, EXPR_FORMS[(i + r + m) % 4], -1, self.gap(k))))
                form = CLASSIFY_FORMS[(i + r + 4 * m + 3) % 8]
                ops.append(cli_op("construct", make_case(n, p, form, -1, self.gap(k))))
        for n, p in (self.pairs[r % len(self.pairs)], self.pairs[(r + 2) % len(self.pairs)]):
            q = critical(n, p)
            lo, hi = max(q - 1.5, 0.1 * q), q - self.gap(0)
            ops.append(sweep_op(n, p, "power", float(num(lo)), float(num(hi)), float(num((hi - lo) / 47))))
        return ops


class CertifyPower(Workload):
    """Certificates for Power/PowerLog: analytic gate, profile-bound."""

    name = "certify-power"

    def round(self, r: int) -> List[Op]:
        ops: List[Op] = []
        for j, (i, k) in enumerate(self.slots(12, r)):
            n, p = self.pairs[i]
            ops.append(cli_op("verify", make_case(n, p, ("power", "powerlog")[j % 2], +1, self.gap(k))))
            # Millisecond ops are noisy: many samples.  A convergent PowerLog
            # takes ~4x as long as the rest; one PowerLog to two Power inputs
            # keeps the median well inside the faster range.
            for m in range(3 if self.tiny else 12):
                kc = (k + m) % 6
                form = ("power", "powerlog", "power")[m % 3]
                ops.append(cli_op("classify", make_case(n, p, form, (+1, -1)[(j + m) % 2], self.gap(kc))))
        for m in range(1 if self.tiny else 3):
            n, p = self.pairs[(3 * r + m) % len(self.pairs)]
            form = ("power", "powerlog")[(r + m) % 2]
            ops.append(cli_op("construct", make_case(n, p, form, +1, self.gap((3 * r + 2 * m + 1) % 6))))
        ops.append(cli_op("verify", INSTANCE, fixed=True))
        ops.append(cli_op("construct", INSTANCE, fixed=True, closed_form=True))
        if not self.tiny:
            ops.append(cli_op("verify", POWER_55, fixed=True))
        if r % 2 == 0:
            ops.append(Op("scale-study", INSTANCE, fixed=True, j_count=4 if self.tiny else 10))
        n, p = self.pairs[r % len(self.pairs)]
        start = float(num(critical(n, p) - 0.5 * self.gap(4)))
        ops.append(sweep_op(n, p, "power", start, float(num(start + 2.0)), 1.0))
        n, p = self.pairs[(r + 2) % len(self.pairs)]
        start = float(num(-2.0 - self.gap(3)))
        ops.append(sweep_op(n, p, "powerlog", start, float(num(start + 2.0)), 1.0))
        return ops


class CertifyExpr(Workload):
    """Certificates for expression spellings: numeric gate, tree evaluation."""

    name = "certify-expr"

    def round(self, r: int) -> List[Op]:
        ops: List[Op] = []
        for j, (i, k) in enumerate(self.slots(10, r)):
            n, p = self.pairs[i]
            ops.append(cli_op("verify", make_case(n, p, EXPR_FORMS[j % 4], +1, self.gap(k))))
            for m in range(6):
                kc, side = (k + m) % 6, (+1, -1)[m % 2]
                ops.append(cli_op("classify", make_case(n, p, EXPR_FORMS[(j + m) % 4], side, self.gap(kc))))
        for m in range(1 if self.tiny else 2):
            n, p = self.pairs[(2 * r + m + 1) % len(self.pairs)]
            form = EXPR_FORMS[(r + 2 * m) % 4]
            ops.append(cli_op("construct", make_case(n, p, form, +1, self.gap((3 * r + 2 * m + 1) % 6))))
        ops.append(cli_op("classify", EXPR_LOG, fixed=True))
        ops.append(cli_op("verify", EXPR_55, fixed=True))
        ops.append(cli_op("construct", EXPR_55, fixed=True))
        if r % 2 == 0 and not self.tiny:
            ops.append(cli_op("verify", EXPR_LOG, fixed=True))
        n, p = self.pairs[r % len(self.pairs)]
        start = float(num(-2.5 - self.gap(3)))
        ops.append(sweep_op(n, p, "powerlog", start, float(num(start + 1.0)), 1.0))
        return ops


WORKLOADS = {w.name: w for w in (ClassifyMix, CertifyPower, CertifyExpr)}

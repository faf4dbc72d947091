"""Output oracles: every operation's result is checked before the next.

An oracle returns the list of problems it found (empty when the output
is right).  A problem is *known* when it matches one of the defect
classes below, which the program has at the commit that introduced the
benchmark, on the inputs where they were seen; such problems still
count as failed operations, but they do not make the run incorrect.
Any other problem does.

Known defect classes:

* ``numeric-verdict`` -- the numeric classifier decides the wrong side
  of an input within ``NUMERIC_BLUR`` of critical (its docstring
  documents the blur; the CLI prints the verdict unflagged).
* ``verify-check:flux_identity`` -- ``verify`` on a convergent input
  fails the flux check and exits 1.  A failure of any other check is
  not known.
* ``tail-fit-domain`` -- ``construct --expr`` on a power at least
  ``FAST_DECAY`` above critical exits 13 with "math domain error": the
  400-shell criterion value behind the decay bound takes the log of a
  shell that underflowed to zero.
* ``inner-limit-stall`` -- ``construct``/``verify``/``sweep`` reject a
  convergent input within ``NEAR_CRITICAL`` of critical, or a critical
  power with a log factor (``z^q*log(e+1/z)^mu``, any mu < -1), with
  "the source integral does not converge": ``RadialProfile.inner_limit``
  calls a source divergent when its tail quadrature stalls above 5%
  relative error.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from workloads import CONVERGES, DIVERGES, Op

LIOUVILLE_MESSAGE = "Liouville regime: every non-negative solution is identically zero\n"
EXIT_VERDICT = {0: DIVERGES, 1: CONVERGES, 2: "inconclusive"}
STALL = "the source integral does not converge"

# Slack of the program's own certificates: find_delta accepts a scale
# when env - w >= -1e-12 and sup w <= eps 2^-k + 1e-12.
CERT_SLACK = 1e-12
# The decay bound is a closed-form majorant; allow quadrature noise.
BOUND_REL = 1e-9
# The closed-form instance is computed at rel tolerance 1e-10 per
# quadrature and accumulated over 200 segments.
CLOSED_FORM_REL = 1e-8
# Expression "z^a" and Power(a) evaluate the same doubles.
TWIN_REL = 1e-12

# Where the known defects were seen (gap = distance to the critical
# threshold): wrong numeric verdicts up to a gap of 0.032, stalls up to
# 0.032 (and on the critical log form at any mu), domain errors from a
# gap of 2.86 on.
NUMERIC_BLUR = 0.05
NEAR_CRITICAL = 0.05
FAST_DECAY = 2.0


@dataclass
class Outcome:
    # (description, known defect class or None)
    problems: List[Tuple[str, Optional[str]]] = field(default_factory=list)
    classified: int = 0
    inconclusive: int = 0
    rows: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def hard(self) -> bool:
        """A problem outside the known defect classes."""
        return any(known is None for _, known in self.problems)

    def problem(self, text: str, known: Optional[str] = None) -> None:
        self.problems.append((text, known))


def _wrong_verdict(out: Outcome, op: Op, got: str) -> None:
    case = op.case
    text = f"verdict {got}, truth {case.truth} (gap {case.gap:.3g})"
    blurred = case.route == "numeric" and case.gap <= NUMERIC_BLUR
    out.problem(text, "numeric-verdict" if blurred else None)


def check_classify(op: Op, rc: int, stdout: str, out: Outcome) -> None:
    out.classified += 1
    if rc not in EXIT_VERDICT:
        out.problem(f"exit {rc}")
        return
    fields = dict(line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)
    verdict, method = fields.get("verdict"), fields.get("method")
    if verdict != EXIT_VERDICT[rc]:
        out.problem(f"printed verdict {verdict!r} disagrees with exit {rc}")
    if method != op.case.route:
        out.problem(f"method {method!r}, expected {op.case.route}")
    if verdict == "inconclusive":
        out.inconclusive += 1
        if op.case.route == "analytic":
            out.problem("analytic route came back inconclusive")
    elif verdict != op.case.truth:
        _wrong_verdict(out, op, verdict)


def _gate(op: Op, rc: int, stdout: str, stderr: str, out: Outcome) -> bool:
    """Check the classify gate of construct/verify; True if a profile
    output follows and needs checking."""
    out.classified += 1
    case = op.case
    if rc == 2 and stdout.startswith("Inconclusive"):
        out.inconclusive += 1
        if case.route == "analytic":
            out.problem("analytic gate came back inconclusive")
        return False
    if rc == 1 and stdout == LIOUVILLE_MESSAGE:
        if case.truth != DIVERGES:
            _wrong_verdict(out, op, DIVERGES)
        return False
    if rc == 1 and not stdout and STALL in stderr and case.truth == CONVERGES:
        stalls = case.gap <= NEAR_CRITICAL or case.form == "expr-log"
        out.problem("exit 1: " + stderr.strip(), "inner-limit-stall" if stalls else None)
        return False
    if rc == 13 and op.kind == "construct" and case.route == "numeric" and "math domain error" in stderr:
        out.problem("exit 13: " + stderr.strip(), "tail-fit-domain" if case.gap >= FAST_DECAY else None)
        return False
    if rc not in (0, 1):
        out.problem(f"exit {rc}: {stderr.strip()}")
        return False
    if case.truth != CONVERGES:  # the gate passed a divergent input
        _wrong_verdict(out, op, CONVERGES)
        return False  # what follows is a consequence of the wrong verdict
    return True


def check_verify(op: Op, rc: int, stdout: str, stderr: str, out: Outcome) -> None:
    if not _gate(op, rc, stdout, stderr, out):
        return
    try:
        report = json.loads(stdout)
    except ValueError:
        out.problem("verify output is not JSON")
        return
    if report.get("schema") != "verify-report/v1":
        out.problem(f"schema {report.get('schema')!r}")
    checks = report.get("checks", [])
    failing = [c["name"] for c in checks if not c["passed"]]
    if len(checks) != 5 or report.get("overall") != (not failing):
        out.problem("overall flag disagrees with the checks")
    if rc != (1 if failing else 0):
        out.problem(f"exit {rc} with failing checks {failing}")
    for c in checks:
        if not c["passed"]:
            known = "verify-check:flux_identity" if c["name"] == "flux_identity" else None
            out.problem(f"{c['name']} FAIL: {c['detail']}", known)


def parse_construct(stdout: str):
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("delta = "):
        raise ValueError("no delta line")
    delta = float(lines[0][len("delta = "):])
    table = list(csv.reader(lines[1:]))
    if table[0] != ["r", "w", "envelope", "bound"]:
        raise ValueError(f"header {table[0]}")
    return delta, [[float(x) for x in row] for row in table[1:]]


def closed_form_w(r: float) -> float:
    """n=3, p=2, f=z^4, delta=1: w(r) = (1 + 2r) / (6 (1 + r)^2)."""
    return (1.0 + 2.0 * r) / (6.0 * (1.0 + r) ** 2)


def check_construct(op: Op, rc: int, stdout: str, stderr: str, out: Outcome,
                    reference: Callable[[List[str]], str]) -> None:
    if not _gate(op, rc, stdout, stderr, out):
        return
    if rc != 0:
        out.problem(f"exit {rc} on a constructed profile")
        return
    try:
        delta, rows = parse_construct(stdout)
    except (ValueError, IndexError) as exc:
        out.problem(f"unreadable construct output: {exc}")
        return
    if len(rows) != 200:
        out.problem(f"{len(rows)} rows, expected 200")
    prev = math.inf
    for r, w, env, bound in rows:
        if not all(math.isfinite(x) for x in (r, w, env, bound)) or w < 0.0:
            out.problem(f"non-finite or negative row at r={r!r}")
            break
        if w > env + CERT_SLACK:
            out.problem(f"w={w!r} above the envelope {env!r} at r={r!r}")
            break
        if w > bound * (1.0 + BOUND_REL):
            out.problem(f"w={w!r} above the decay bound {bound!r} at r={r!r}")
            break
        if w > prev:
            out.problem(f"w increases at r={r!r}")
            break
        prev = w
    if op.closed_form:
        if delta != 1.0:
            out.problem(f"instance delta {delta!r}, expected 1")
        worst = max(abs(w - closed_form_w(r)) / closed_form_w(r) for r, w, _, _ in rows)
        if worst > CLOSED_FORM_REL:
            out.problem(f"instance w off the closed form by {worst:.3e} relative")
    if op.power_twin is not None:
        i = op.argv.index("--expr")
        twin = op.argv[:i] + ["--power", op.power_twin] + op.argv[i + 2:]
        t_delta, t_rows = parse_construct(reference(twin))
        if t_delta != delta:
            out.problem(f"delta {delta!r} differs from the Power spelling's {t_delta!r}")
        elif any(abs(a[1] - b[1]) > TWIN_REL * b[1] for a, b in zip(rows, t_rows)):
            out.problem("w column differs from the Power spelling's")


def check_sweep(op: Op, rc: int, stdout: str, stderr: str, out: Outcome) -> None:
    family, q, values = op.sweep
    n, p = int(op.argv[op.argv.index("--n") + 1]), float(op.argv[op.argv.index("--p") + 1])
    threshold = 2.0 ** (-(n - p) / (p - 1.0))  # eps * 2^-k with eps = 1
    if rc != 0:
        out.problem(f"exit {rc}: {stderr.strip()}")
        return
    table = list(csv.reader(stdout.splitlines()))
    if table[:1] != [["param", "verdict", "value", "sup_w", "error"]] or len(table) - 1 != len(values):
        out.problem(f"sweep table has {len(table) - 1} rows, expected {len(values)}")
        return
    for v, (param, verdict, value, sup_w, error) in zip(values, table[1:]):
        out.rows += 1
        out.classified += 1
        truth = CONVERGES if (v > q if family == "power" else v < -1.0) else DIVERGES
        gap = abs(v - q) if family == "power" else abs(v + 1.0)
        if float(param) != v:
            out.problem(f"row {param}: expected parameter {v!r}")
        elif error:
            stalled = STALL in error and verdict == "error" and truth == CONVERGES and gap <= NEAR_CRITICAL
            out.problem(f"row {param}: error {error!r}", "inner-limit-stall" if stalled else None)
        elif verdict != truth:
            out.problem(f"row {param}: verdict {verdict}, truth {truth}")
        elif truth == CONVERGES and not (float(value) > 0.0 and 0.0 < float(sup_w) <= threshold + CERT_SLACK):
            out.problem(f"row {param}: value {value}, sup_w {sup_w} outside (0, {threshold!r}]")
        elif truth == DIVERGES and (value or sup_w):
            out.problem(f"row {param}: divergent row carries value {value!r}")


def check_scale_study(op: Op, report, out: Outcome) -> None:
    if len(report.deltas) != op.j_count + 1 or len(report.sups) != op.j_count + 1:
        out.problem("scale study has the wrong number of scales")
    elif not report.passed:
        out.problem(f"delta_limit FAIL: {report.detail}")
    elif not all(b < a for a, b in zip(report.sups, report.sups[1:])):
        out.problem("sup w does not fall strictly under halving")


def check(op: Op, rc: int, stdout: str, stderr: str, reference: Callable[[List[str]], str]) -> Outcome:
    out = Outcome()
    if op.kind == "classify":
        check_classify(op, rc, stdout, out)
    elif op.kind == "verify":
        check_verify(op, rc, stdout, stderr, out)
    elif op.kind == "construct":
        check_construct(op, rc, stdout, stderr, out, reference)
    elif op.kind == "sweep":
        check_sweep(op, rc, stdout, stderr, out)
    return out

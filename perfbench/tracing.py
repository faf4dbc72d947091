"""Spans around the package's public entry points, from outside.

:meth:`Tracer.install` rebinds each traced name where the calling
module looks it up (``integrate`` in ``quadrature``, ``construct`` and
``verify``; ``classify`` in ``cli``, ``construct`` and ``criterion``;
and so on) with a wrapper that records a span: name, start, end,
parent span and operation id.  Spans stay in memory and are written out
when the run ends.  :meth:`Tracer.uninstall` restores every binding.

Nonlinearity evaluations are far too many for one span each (a certify
operation makes about 135k), so ``Nonlinearity.__call__`` and the
criterion's ``signed_log_eval`` only add a call count and their time
to the innermost open span.
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

# span record fields
NAME, START, END, PARENT, OP, NL_CALLS, NL_TIME, SL_CALLS, RESULT = range(9)

CHECKS = ("flux_identity", "supersolution", "gradient_decay", "normalization", "energy", "delta_limit")
COMMANDS = ("classify", "construct", "verify", "sweep")
LAYERS = ("quadrature", "nonlinearity", "criterion", "construct", "verify", "cli")


def _integrate_result(res) -> tuple:
    return (res.subdivisions, res.converged)


def _passed(res) -> bool:
    return res.passed


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.op = -1
        self.op_kinds: List[str] = []
        self.loose = [None, 0.0, 0.0, -1, -1, 0, 0.0, 0, None]  # calls outside any span
        self._in_nl = False
        self._restore: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, 0, 0.0, 0, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self.stack.pop()

    def begin_op(self, kind: str) -> list:
        self.op = len(self.op_kinds)
        self.op_kinds.append(kind)
        return self.open("op." + kind)

    def _current(self) -> list:
        return self.spans[self.stack[-1]] if self.stack else self.loose

    def _wrap(self, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if after is not None:
                rec[RESULT] = after(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, after))

    def install(self, lv) -> None:
        """Wrap the entry points of the ``liouville`` package ``lv``."""
        quadrature, criterion, construct, verify, cli = (
            lv.quadrature, lv.criterion, lv.construct, lv.verify, lv.cli)
        for mod in (quadrature, construct, verify):
            self.patch(mod, "integrate", "quadrature.integrate", _integrate_result)
        for mod in (cli, construct, criterion):
            self.patch(mod, "classify", "criterion.classify")
        self.patch(criterion, "_classify_numeric", "criterion.classify_numeric")
        for mod in (construct, criterion):
            self.patch(mod, "criterion_value", "criterion.criterion_value")
        self.patch(construct.RadialProfile, "__init__", "construct.profile_build")
        self.patch(construct.RadialProfile, "values_on_grid", "construct.values_on_grid")
        self.patch(cli, "find_delta", "construct.find_delta")
        self.patch(cli, "decay_bound", "construct.decay_bound")
        self.patch(cli, "verify_profile", "verify.verify_profile")
        for check, fn in (("flux_identity", "flux_identity_check"), ("supersolution", "supersolution_check"),
                          ("gradient_decay", "gradient_decay_check"), ("normalization", "normalization_check"),
                          ("energy", "energy_diagnostic"), ("delta_limit", "delta_limit_check")):
            self.patch(verify, fn, "verify." + check, _passed)
        self.patch(cli, "main", "cli.main")
        for command in COMMANDS:
            self._restore.append((cli._DISPATCH, command, cli._DISPATCH[command]))
            cli._DISPATCH[command] = self._wrap("cli." + command, cli._DISPATCH[command], None)
        self._count_nonlinearity(lv.nonlinearity.Nonlinearity, criterion)

    def _count_nonlinearity(self, base, criterion) -> None:
        tracer = self
        call = base.__call__
        signed_log = criterion.signed_log_eval

        def counted_call(f, z):
            if tracer._in_nl:  # Shifted/Floored evaluate their base
                return call(f, z)
            tracer._in_nl = True
            t0 = perf_counter()
            try:
                return call(f, z)
            finally:
                rec = tracer._current()
                rec[NL_CALLS] += 1
                rec[NL_TIME] += perf_counter() - t0
                tracer._in_nl = False

        def counted_signed_log(node, ln_z):
            t0 = perf_counter()
            try:
                return signed_log(node, ln_z)
            finally:
                rec = tracer._current()
                rec[SL_CALLS] += 1
                rec[NL_TIME] += perf_counter() - t0

        self._restore.append((base, "__call__", call))
        base.__call__ = counted_call
        self._restore.append((criterion, "signed_log_eval", signed_log))
        criterion.signed_log_eval = counted_signed_log

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        """All spans as gzipped JSON lines:
        [name, start_s, end_s, parent, op, nl_calls, nl_s, signed_log_calls, result]."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# aggregation


def _self_times(spans: List[list]) -> List[float]:
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c - rec[NL_TIME] for rec, c in zip(spans, child)]


def _in_find_delta(spans: List[list], i: int) -> bool:
    i = spans[i][PARENT]
    while i >= 0:
        if spans[i][NAME] == "construct.find_delta":
            return True
        i = spans[i][PARENT]
    return False


def per_op_counts(tracer: Tracer) -> List[Dict[str, int]]:
    """Deterministic work counts of each traced operation."""
    counts = [defaultdict(int) for _ in tracer.op_kinds]
    for i, rec in enumerate(tracer.spans):
        c = counts[rec[OP]]
        c["nonlinearity.calls"] += rec[NL_CALLS]
        c["nonlinearity.signed_log_calls"] += rec[SL_CALLS]
        name = rec[NAME]
        if name == "quadrature.integrate":
            c["quadrature.calls"] += 1
            c["quadrature.panels"] += rec[RESULT][0] if rec[RESULT] else 0
        elif name == "construct.profile_build":
            c["construct.profile_builds"] += 1
            c["construct.delta_candidates"] += _in_find_delta(tracer.spans, i)
        elif name in ("criterion.classify", "criterion.classify_numeric", "criterion.criterion_value"):
            c[name + ".calls"] += 1
    return [dict(c) for c in counts]


def layer_metrics(tracer: Tracer, n_ops: int) -> Dict[str, float]:
    """Per-layer metrics over one traced pass of ``n_ops`` operations.

    ``<name>.s`` is the mean wall time per call of that entry point
    (0 when it was not called); ``<layer>.self_s`` is the layer's self
    time per operation, where a span's self time is its duration minus
    its child spans and the nonlinearity time counted inside it.
    """
    spans = tracer.spans
    selfs = _self_times(spans)
    calls: Dict[str, int] = defaultdict(int)
    total: Dict[str, float] = defaultdict(float)
    failed: Dict[str, int] = defaultdict(int)
    layer_self: Dict[str, float] = defaultdict(float)
    panels = unconverged = nl_calls = sl_calls = 0
    nl_time = 0.0
    builds_in_search = 0
    cli_by_command: Dict[str, List[float]] = defaultdict(list)
    for i, rec in enumerate(spans):
        name = rec[NAME]
        dur = rec[END] - rec[START]
        calls[name] += 1
        total[name] += dur
        layer_self[name.split(".", 1)[0]] += selfs[i]
        nl_calls += rec[NL_CALLS]
        sl_calls += rec[SL_CALLS]
        nl_time += rec[NL_TIME]
        if name == "quadrature.integrate" and rec[RESULT] is not None:
            panels += rec[RESULT][0]
            unconverged += not rec[RESULT][1]
        elif name.startswith("verify.") and rec[RESULT] is False:
            failed[name] += 1
        elif name == "construct.profile_build":
            builds_in_search += _in_find_delta(spans, i)
        elif name.startswith("cli.") and name[4:] in COMMANDS:
            cli_by_command[name[4:]].append(spans[rec[PARENT]][END] - spans[rec[PARENT]][START])
    nl_time += tracer.loose[NL_TIME]
    layer_self["nonlinearity"] = nl_time

    def mean(name: str) -> float:
        return total[name] / calls[name] if calls[name] else 0.0

    q_calls = calls["quadrature.integrate"]
    m: Dict[str, float] = {
        "quadrature.calls": q_calls,
        "quadrature.panels": panels,
        "quadrature.evals": 15 * panels,
        "quadrature.panels_per_call": panels / q_calls if q_calls else 0.0,
        "quadrature.unconverged": unconverged,
        "nonlinearity.calls": nl_calls,
        "nonlinearity.signed_log_calls": sl_calls,
        "nonlinearity.us_per_call": 1e6 * nl_time / (nl_calls + sl_calls) if nl_calls + sl_calls else 0.0,
        "criterion.classify.calls": calls["criterion.classify"],
        "criterion.classify.s": mean("criterion.classify"),
        "criterion.classify_numeric.calls": calls["criterion.classify_numeric"],
        "criterion.criterion_value.calls": calls["criterion.criterion_value"],
        "criterion.criterion_value.s": mean("criterion.criterion_value"),
        "construct.profile_builds": calls["construct.profile_build"],
        "construct.delta_candidates": builds_in_search,
        "construct.profile_build.s": mean("construct.profile_build"),
        "construct.find_delta.s": mean("construct.find_delta"),
        "construct.values_on_grid.s": mean("construct.values_on_grid"),
        "construct.decay_bound.s": mean("construct.decay_bound"),
        "verify.verify_profile.s": mean("verify.verify_profile"),
    }
    for check in CHECKS:
        m[f"verify.{check}.s"] = mean("verify." + check)
        m[f"verify.{check}.failed"] = failed["verify." + check]
    for command in COMMANDS:
        runs = cli_by_command[command]
        m[f"cli.{command}.s"] = sum(runs) / len(runs) if runs else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] / n_ops if n_ops else 0.0
    return m

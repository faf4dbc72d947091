"""Benchmark of the liouville package: one closed-loop client.

    python3 perfbench/run.py --workload certify-power --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  Operations call ``liouville.cli.main(argv)``
in-process with stdout captured (and ``delta_limit_check`` directly for
the scale study), one after another, each checked by an oracle before
the next starts.  Workloads, metrics and oracles are described in
``perfbench/NOTES.md``.

``--trace 0`` runs the number of seeded rounds that take about
``--seconds`` on a busy 2-core machine (at least one), always to the
end, and prints the end-to-end metrics.  ``--trace 1`` runs a fixed
number of rounds twice, untraced and then traced, and prints the
per-layer metrics; its work counts depend only on the seed.
``--tiny`` shrinks every round to a few operations, for the
benchmark's own tests.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import importlib
import io
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "classify_ms.p50": "ms",
    "classify_ms.tail": "ms",
    "certify_s.p50": "s",
    "certify_s.tail": "s",
    "construct_s.p50": "s",
    "sweep_rows_per_s": "1/s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {name: "count" for name in (
    "quadrature.calls", "quadrature.panels", "quadrature.unconverged",
    "nonlinearity.calls", "nonlinearity.signed_log_calls",
    "criterion.classify.calls", "criterion.classify_numeric.calls", "criterion.criterion_value.calls",
    "construct.profile_builds", "construct.delta_candidates",
    *(f"verify.{c}.failed" for c in tracing.CHECKS))}
PER_LAYER.update({name: "s" for name in (
    "criterion.classify.s", "criterion.criterion_value.s",
    "construct.profile_build.s", "construct.find_delta.s", "construct.values_on_grid.s",
    "construct.decay_bound.s", "verify.verify_profile.s",
    *(f"verify.{c}.s" for c in tracing.CHECKS),
    *(f"cli.{c}.s" for c in tracing.COMMANDS),
    *(f"{layer}.self_s" for layer in tracing.LAYERS))})
PER_LAYER.update({
    "quadrature.evals": "count-computed",
    "quadrature.panels_per_call": "ratio",
    "nonlinearity.us_per_call": "us",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
    "inconclusive_frac": "ratio",
})

SETUP_PROBES = 7
SAMPLE_EVERY = 0.02  # seconds between speed samples
WINDOW = 0.05  # seconds around an operation whose samples scale it
KERNEL_REF = 0.0005  # seconds speed_kernel takes at reference speed


def load_package():
    """Import ``liouville`` from this checkout's ``src``, or exit."""
    if not (SRC / "liouville" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package source at {SRC}/liouville\n")
        sys.exit(3)
    sys.path.insert(0, str(SRC))
    lv = importlib.import_module("liouville")
    if not Path(lv.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"perfbench: imported liouville from {lv.__file__}, not {SRC}\n")
        sys.exit(3)
    importlib.import_module("liouville.cli")
    return lv


def speed_kernel() -> None:
    """A fixed pure-Python workload that touches no package code; it
    takes ``KERNEL_REF`` seconds at reference speed."""
    acc, values = 0.0, []
    for i in range(1, 2_000):
        x = i * 1e-3
        v = math.exp(-x) * math.log1p(x) / (1.0 + x * x)
        values.append(v)
        acc += abs(v - acc * 1e-3)
    math.fsum(values)


SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import liouville, liouville.cli; liouville.cli.build_parser(); "
    "sys.exit(0 if liouville.__file__.startswith(sys.argv[1]) else 3)"
)
# A set-up probe is scaled by a reference probe of the same kind run just
# before it: a fresh interpreter that imports numpy (three quarters of
# the package's import).  The kernel above is no guide here: load slows
# process start-up by other means, and less, than it slows Python code.
REFERENCE_CODE = "import numpy"
REFERENCE_S = 0.15  # the reference probe's time at reference speed


def _fresh_interpreter(code: str) -> float:
    t0 = perf_counter()
    # no timeout: with one, the wait polls and rounds the time up to 50 ms
    subprocess.run([sys.executable, "-c", code, str(SRC)], check=True)
    return perf_counter() - t0


def setup_time() -> Tuple[float, float]:
    """Wall times of a fresh interpreter that imports the package and
    builds the CLI parser, and of the reference probe run just before."""
    reference = _fresh_interpreter(REFERENCE_CODE)
    return _fresh_interpreter(SETUP_CODE), reference


class Speed:
    """How slowly the machine runs, relative to reference speed.

    A shared machine runs this code up to twice as slowly, in spells
    that last from a fraction of a second to several seconds.  While
    :meth:`sampling` is active, a timer signal runs :func:`speed_kernel`
    every ``SAMPLE_EVERY`` seconds and records how long it took.
    :meth:`scaled` turns an operation's wall time, less the samples
    taken inside it, into seconds at reference speed: it divides by the
    mean slowdown of the samples within ``WINDOW`` of the operation.
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self.durations: List[float] = []

    def sample(self, *_signal) -> None:
        t0 = perf_counter()
        speed_kernel()
        self.times.append(t0)
        self.durations.append(perf_counter() - t0)

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @contextlib.contextmanager
    def paused(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)

    def slowdown(self) -> float:
        return statistics.median(self.durations) / KERNEL_REF

    def scaled(self, entry: dict) -> float:
        start, end = entry["start"], entry["start"] + entry["seconds"]
        i, j = bisect.bisect_left(self.times, start), bisect.bisect_left(self.times, end)
        lo, hi = bisect.bisect_left(self.times, start - WINDOW), bisect.bisect_left(self.times, end + WINDOW)
        around = self.durations[lo:hi] or self.durations
        return (entry["seconds"] - math.fsum(self.durations[i:j])) * KERNEL_REF / statistics.fmean(around)


class Client:
    """Runs operations one after another and checks each result."""

    def __init__(self, lv):
        self.lv = lv
        self.first_output: Dict[Tuple[str, ...], Tuple[int, str]] = {}
        self.references: Dict[Tuple[str, ...], str] = {}
        self.log: List[dict] = []  # one entry per operation

    def _cli(self, argv: List[str]) -> Tuple[float, int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            rc = self.lv.cli.main(list(argv))
            seconds = perf_counter() - t0
        return seconds, rc, out.getvalue(), err.getvalue()

    def reference(self, argv: List[str]) -> str:
        """Output of an oracle's reference command, untimed and cached."""
        key = tuple(argv)
        if key not in self.references:
            self.references[key] = self._cli(argv)[2]
        return self.references[key]

    def _scale_study(self, op: Op) -> Tuple[float, object]:
        lv, case = self.lv, op.case
        params = lv.StructureParams(case.n, case.p)
        flag, text = case.family_args
        f = (lv.Power(float(text)) if flag == "--power"
             else lv.PowerLog(float(text), lv.critical_exponent(params)) if flag == "--powerlog"
             else lv.parse_nonlinearity(text))
        t0 = perf_counter()
        report = lv.verify.delta_limit_check(f, params, j_count=op.j_count)
        return perf_counter() - t0, report

    def run(self, op: Op) -> dict:
        entry = {"kind": op.kind, "label": op.label, "fixed": op.fixed, "start": perf_counter()}
        try:
            if op.kind == "scale-study":
                seconds, report = self._scale_study(op)
                outcome = oracles.Outcome()
                oracles.check_scale_study(op, report, outcome)
            else:
                seconds, rc, stdout, stderr = self._cli(op.argv)
                outcome = oracles.check(op, rc, stdout, stderr, self.reference)
                digest = (rc, hashlib.sha256(stdout.encode()).hexdigest())
                first = self.first_output.setdefault(tuple(op.argv), digest)
                if first != digest:
                    outcome.problem("output differs from the first run of the same command")
        except Exception:  # the loop must go on; the traceback is the report
            seconds = perf_counter() - entry["start"]
            outcome = oracles.Outcome()
            outcome.problem("raised: " + traceback.format_exc(limit=3).strip().replace("\n", " | "))
        entry["seconds"], entry["outcome"] = seconds, outcome
        self.log.append(entry)
        return entry


# ---------------------------------------------------------------------------
# statistics


def tail(values: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it: the 11th largest sample.  With ten samples or
    fewer there is no such percentile and the largest is returned as
    p100."""
    xs = sorted(values)
    if len(xs) <= 10:
        return xs[-1], 100.0
    i = len(xs) - 11
    return xs[i], 100.0 * (i + 1) / len(xs)


def summary(log: List[dict]) -> Tuple[bool, int, int, float, float]:
    attempted = len(log)
    failed = sum(e["outcome"].failed for e in log)
    correct = not any(e["outcome"].hard for e in log)
    classified = sum(e["outcome"].classified for e in log)
    inconclusive = sum(e["outcome"].inconclusive for e in log)
    return (correct, attempted, failed, failed / attempted if attempted else 0.0,
            inconclusive / classified if classified else 0.0)


def failure_lines(log: List[dict], limit: int = 60) -> List[str]:
    lines, by_class = [], {}
    for e in log:
        for text, known in e["outcome"].problems:
            cls = known or "UNEXPECTED"
            by_class[cls] = by_class.get(cls, 0) + 1
            if len(lines) < limit:
                lines.append(f"  [{cls}] {e['label']}: {text}")
    head = [f"failed checks by class: {json.dumps(by_class, sort_keys=True)}"] if by_class else []
    return head + lines


# ---------------------------------------------------------------------------
# the two kinds of run


def write_ops(log: List[dict], speed: Speed, tag: str) -> None:
    """Every operation of the run, for a closer look."""
    OUT.mkdir(exist_ok=True)
    records = [{"label": e["label"], "kind": e["kind"], "seconds": e["seconds"],
                "scaled_s": speed.scaled(e), "problems": e["outcome"].problems}
               for e in log]
    (OUT / f"ops-{tag}.json").write_text(json.dumps(records, indent=1) + "\n")


def run_untraced(client: Client, workload, seconds: float, tag: str) -> Tuple[Dict[str, float], List[str]]:
    """The seeded rounds sized to ``seconds``, run to the end whatever
    they take, each latency scaled to reference speed (see
    :class:`Speed`); set-up probes are spread over the run."""
    ops = workload.ops(workload.rounds_for(seconds))
    probes = {len(ops) * k // SETUP_PROBES for k in range(SETUP_PROBES)}
    speed = Speed()
    setup_runs: List[Tuple[float, float]] = []  # (seconds, reference probe seconds)
    with speed.sampling():
        for i, op in enumerate(ops):
            if i in probes:
                with speed.paused():
                    setup_runs.append(setup_time())
            client.run(op)
    speed.sample()  # at least one sample, however short the run
    setup = [seconds * REFERENCE_S / reference for seconds, reference in setup_runs]
    lat: Dict[str, List[float]] = {}
    raw: Dict[str, List[float]] = {}
    for e in client.log:
        lat.setdefault(e["kind"], []).append(speed.scaled(e))
        raw.setdefault(e["kind"], []).append(e["seconds"])
    rows = sum(e["outcome"].rows for e in client.log)
    everything = [x for values in lat.values() for x in values]
    write_ops(client.log, speed, tag)
    classify_tail, classify_pct = tail(lat["classify"])
    certify_tail, certify_pct = tail(lat["verify"])
    metrics = {
        "setup_s": statistics.median(setup),
        "classify_ms.p50": 1e3 * statistics.median(lat["classify"]),
        "classify_ms.tail": 1e3 * classify_tail,
        "certify_s.p50": statistics.median(lat["verify"]),
        "certify_s.tail": certify_tail,
        "construct_s.p50": statistics.median(lat["construct"]),
        "sweep_rows_per_s": rows / sum(lat["sweep"]),
        "ops_per_s": len(everything) / sum(everything),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters; raw {statistics.median(s for s, _ in setup_runs):.4f}, "
                   f"reference probe {statistics.median(r for _, r in setup_runs):.4f}",
        "classify_ms.tail": f"p{classify_pct:.1f} of {len(lat['classify'])}",
        "certify_s.tail": f"p{certify_pct:.1f} of {len(lat['verify'])}",
        "sweep_rows_per_s": f"{rows} rows in {len(lat['sweep'])} sweeps",
        "ops_per_s": f"{len(everything)} ops: " + json.dumps({k: len(v) for k, v in sorted(lat.items())}),
    }
    for name, kind in (("classify_ms.p50", "classify"), ("certify_s.p50", "verify"), ("construct_s.p50", "construct")):
        notes[name] = f"median of {len(lat[kind])}; raw median of all {statistics.median(raw[kind]):.5g} s"
    lines = [f"{name:20s} {metrics[name]!r:>24} {unit:6s} {notes.get(name, '')}" for name, unit in END_TO_END.items()]
    lines.append(f"speed: {len(speed.durations)} samples, median slowdown {speed.slowdown():.3f}")
    return metrics, lines


def _count_table(tracer: tracing.Tracer, client_log: List[dict]) -> Tuple[List[str], List[dict]]:
    counts = tracing.per_op_counts(tracer)
    keys = {"integrate": "quadrature.calls", "panels": "quadrature.panels", "builds": "construct.profile_builds",
            "classify": "criterion.classify.calls", "f_calls": "nonlinearity.calls",
            "slog_calls": "nonlinearity.signed_log_calls"}
    groups: Dict[str, List[Tuple[dict, float]]] = {}
    for c, e in zip(counts, client_log):
        name = e["label"] if e["fixed"] else e["kind"] + " (seeded)"
        groups.setdefault(name, []).append((c, e["seconds"]))
    lines = [f"{'operation':54s} {'ops':>4s} {'wall_s':>8s} " + " ".join(f"{k:>10s}" for k in keys)]
    for name, members in sorted(groups.items()):
        wall = statistics.mean(s for _, s in members)
        per_op = [sum(c.get(k, 0) for c, _ in members) / len(members) for k in keys.values()]
        lines.append(f"{name[:54]:54s} {len(members):4d} {wall:8.3f} " + " ".join(f"{v:10.1f}" for v in per_op))
    records = [{"label": e["label"], "kind": e["kind"], "traced_s": e["seconds"], **c} for c, e in zip(counts, client_log)]
    return lines, records


# The ROADMAP's baseline stages: (stage, operation label, span name).
BASELINE = (
    ("RadialProfile build, n=3 p=2 z^4", "construct n=3 p=2 --power 4", "construct.profile_build"),
    ("find_delta, n=5 p=3 z^5.5", "verify n=5 p=3 --power 5.5", "construct.find_delta"),
    ("verify_profile, n=3 p=2 z^4", "verify n=3 p=2 --power 4", "verify.verify_profile"),
    ("delta_limit_check (11 scales), n=3 p=2 z^4", "scale-study n=3 p=2 --power 4 j=10", "verify.delta_limit"),
    ("CLI verify --power 4, n=3 p=2", "verify n=3 p=2 --power 4", "cli.main"),
    ("CLI classify z^3*log(e+1/z)^-2, numeric, n=4 p=2", "classify n=4 p=2 --expr z^3*log(e+1/z)^-2", "cli.main"),
)


def _baseline_table(tracer: tracing.Tracer, client_log: List[dict]) -> List[str]:
    lines = []
    for stage, label, span in BASELINE:
        ops = {i for i, e in enumerate(client_log) if e["label"] == label}
        spans = [rec for rec in tracer.spans if rec[tracing.OP] in ops and rec[tracing.NAME] == span]
        if spans:
            mean = statistics.mean(rec[tracing.END] - rec[tracing.START] for rec in spans)
            lines.append(f"  {stage:50s} {1e3 * mean:9.1f} ms  ({len(spans)} spans in {len(ops)} ops)")
    return lines


def run_traced(client: Client, workload, tiny: bool, tag: str) -> Tuple[Dict[str, float], List[str]]:
    ops = workload.ops(1 if tiny else workload.trace_rounds)
    for op in ops:
        client.run(op)
    tracer = tracing.Tracer()
    tracer.install(client.lv)
    try:
        for op in ops:
            rec = tracer.begin_op(op.kind)
            try:
                client.run(op)
            finally:
                tracer.close(rec)
    finally:
        tracer.uninstall()
    untraced_log, traced_log = client.log[:len(ops)], client.log[len(ops):]
    metrics = tracing.layer_metrics(tracer, len(ops))
    metrics["trace.overhead_frac"] = (sum(e["seconds"] for e in traced_log)
                                      / sum(e["seconds"] for e in untraced_log) - 1.0)
    _, _, _, metrics["failed_frac"], metrics["inconclusive_frac"] = summary(traced_log)
    table, records = _count_table(tracer, traced_log)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{tag}.jsonl.gz")
    (OUT / f"counts-{tag}.json").write_text(json.dumps(records, indent=1) + "\n")
    lines = [f"{name:36s} {metrics[name]!r:>24} {unit}" for name, unit in PER_LAYER.items()]
    lines += ["", "per-operation work counts and traced wall time (mean per op):"] + table
    baseline = _baseline_table(tracer, traced_log)
    if baseline:
        lines += ["", "baseline stages, traced wall time:"] + baseline
    return metrics, lines


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="a few operations per round (self-test size)")
    args = ap.parse_args(argv)

    lv = load_package()
    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    client = Client(lv)
    tag = f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    t0 = time.monotonic()
    if args.trace:
        metrics, lines = run_traced(client, workload, args.tiny, tag)
        units = PER_LAYER
    else:
        metrics, lines = run_untraced(client, workload, args.seconds, tag)
        units = END_TO_END
    correct, attempted, failed, failed_frac, inconclusive_frac = summary(client.log)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} wall={time.monotonic() - t0:.1f}s")
    print(*lines, sep="\n")
    print(f"attempted {attempted}, failed {failed} ({failed_frac:.4f}), "
          f"inconclusive {inconclusive_frac:.4f} of classifications, correct {correct}")
    print(*failure_lines(client.log), sep="\n")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One line per CLI operation of the benchmark's workloads: its argv, its
exit code and a SHA-1 of its stdout and stderr.

    python3 tools/output_digest.py ROOT --seeds 11 12 > digest.txt

ROOT is a source checkout.  The package is imported from ROOT/src and
the operations are read from ROOT/perfbench/workloads.py: every CLI
operation of the three workloads, at each seed, for as many rounds as a
run of BENCHMARK.json's ``run_seconds`` takes, then a fixed list of
steep inputs (:data:`STEEP`), whose fills halve many panels, then
``verify`` where w crosses eps or underflows inside the energy check's
range (:data:`ENERGY`), then ``verify`` where the flux check's windows lie
where I saturates (:data:`FLUX`), then ``classify`` and ``verify`` on
expressions that f's evaluation refuses (:data:`EVALUATION`), one for
each error of the tree evaluator, a negative f and an overflow, then
``classify`` and ``sweep`` on families whose monotonicity the gate
proves from their parameters, probes, or refuses (:data:`GATE`), then a
fixed list of command lines that argparse reads (:data:`ARGPARSE`):
help, and those that the option table of ``liouville.cli`` leaves to it.
Each runs in-process through ``liouville.cli.main``.  Two checkouts
whose digests ``diff`` equal print the same bytes and exit codes on all
of them.

``--values`` prints each operation's output itself instead of its
SHA-1, and ``--compare`` reads two such listings of the same operations
and lists every output line that differs, field by field, with the
largest relative change of a number in it:

    python3 tools/output_digest.py OLD --seeds 11 --values > old.txt
    python3 tools/output_digest.py NEW --seeds 11 --values > new.txt
    python3 tools/output_digest.py --compare old.txt new.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import re
import sys
import warnings
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# verify --format json and construct --format csv where the outer fill
# halves many spans, or the table fill halves steep panels; then verify
# alone where a check saturates or w underflows inside its grids
_HALVING = (
    ["--n", "8", "--p", "1.5", "--power", "0.81"],
    ["--n", "5", "--p", "1.1", "--power", "0.5"],
    ["--n", "4", "--p", "1.05", "--power", "1.1"],
    ["--n", "3", "--p", "2", "--power", "3.2"],
)
STEEP = [
    [command, *args, "--format", fmt]
    for args in _HALVING
    for command, fmt in (("verify", "json"), ("construct", "csv"))
] + [
    ["verify", *args, "--format", "json"]
    for args in (
        ["--n", "4", "--p", "1.05", "--eps", "1e-10", "--power", "1.0677966101694916"],
        ["--n", "3", "--p", "2", "--power", "40"],
        ["--n", "10", "--p", "3.5", "--power", "20"],
    )
]
# verify where w exceeds eps on all of the energy check's range (a large
# forced delta) and on part of it, and where w underflows inside it (STEEP
# holds the n=4 case of that)
ENERGY = [
    ["verify", "--n", "3", "--p", "2", "--power", "4", "--delta", delta, "--format", "json"] for delta in ("1e6", "10")
] + [["verify", "--n", "3", "--p", "1.05", "--eps", "1e-10", "--power", "1.076923076923077", "--format", "json"]]
# verify where the flux check's windows lie where I saturates, or where
# the source falls steeply across a panel (STEEP and ENERGY hold the other
# such inputs); the last input's flux fails there
_SATURATING = (
    ["--n", "4", "--p", "1.5", "--power", "2"],
    ["--n", "4", "--p", "1.5", "--expr", "(exp(z)-1)*z^1.0"],
    ["--n", "4", "--p", "1.5", "--expr", "log(1+z)*z^1"],
    ["--n", "6", "--p", "1.2", "--power", "0.5"],
    ["--n", "8", "--p", "3", "--power", "6.31689"],
    ["--n", "8", "--p", "3", "--expr", "z^6.18633"],
    ["--n", "5", "--p", "1.1", "--power", "3.18"],
)
FLUX = [["verify", *args, "--format", "json"] for args in _SATURATING]
# classify and verify where f's evaluation fails: on the monotonicity
# gate's grid in (0, 1], at its first sample or past z = 0.5 or 0.71 with
# the samples before compared, by each rule of the tree evaluator in turn
# (log, 0 to a negative power, a negative base to a fractional power,
# division, exp, a power's exponent past the double range), then where f
# is negative, and where two equal infinite log-magnitudes add past z = 1
_FAILING = (
    ["--expr", "z^3 + 0*log(0.5 - z)"],
    ["--expr", "(z - z)^-1"],
    ["--expr", "z^3 + 0*(0.5 - z)^0.5"],
    ["--expr", "1/(z - z)"],
    ["--expr", "z^3 + 0*exp(exp(1000*z))"],
    ["--expr", "z^3 + 0*z^exp(1000*z)"],
    ["--expr", "z - 2"],
    ["--eps", "10", "--expr", "z^1e308+z^1e308"],
)
EVALUATION = [[command, "--n", "3", "--p", "2", *args] for args in _FAILING for command in ("classify", "verify")]
# the monotonicity gate on the two families at n=3 p=2 (q = 3): proven at
# exponent 0 and 1e-300, probed and refused at -0.5, probed where f(eps)
# is past the double range, proven at a tiny eps, probed and refused where
# mu = 10 exceeds the power; then sweeps of proven rows, and of one row
# each proven, at the edge (mu = power) and probed
_GATING = (
    ["--power", "0"],
    ["--power", "1e-300"],
    ["--power", "-0.5"],
    ["--eps", "1e300", "--power", "3"],
    ["--eps", "1e-300", "--powerlog", "-2"],
    ["--powerlog", "10"],
)
_SWEEPS = (
    ["--family", "power", "--start", "0", "--stop", "1", "--step", "0.25"],
    ["--family", "powerlog", "--start", "2", "--stop", "4", "--step", "1"],
)
GATE = [["classify", "--n", "3", "--p", "2", *args] for args in _GATING] + [
    ["sweep", "--n", "3", "--p", "2", *args] for args in _SWEEPS
]
# no command, help, an unknown command, an abbreviation, an = form, a
# value that does not convert, one that is not a choice, a negative value
# that argparse takes for an option, a missing required option, an extra
# argument and a missing value
_CLASSIFY = ["classify", "--n", "4", "--p", "2"]
ARGPARSE = [
    [],
    ["--help"],
    *([command, "--help"] for command in ("classify", "construct", "verify", "sweep")),
    ["bogus", "--n", "4", "--p", "2", "--power", "2"],
    [*_CLASSIFY, "--pow", "2"],
    ["classify", "--n=4", "--p", "2", "--power", "2"],
    ["classify", "--n", "4.0", "--p", "2", "--power", "2"],
    [*_CLASSIFY, "--power", "2", "--format", "xml"],
    [*_CLASSIFY, "--powerlog", "-2.5e0"],
    ["classify", "--n", "4", "--power", "2"],
    [*_CLASSIFY, "--power", "2", "extra"],
    [*_CLASSIFY, "--expr"],
]


def load(root: Path):
    """``liouville.cli`` from ROOT/src and the ``workloads`` module of
    ROOT/perfbench."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    cli = importlib.import_module("liouville.cli")
    if not Path(cli.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"imported liouville from {cli.__file__}, not from {root / 'src'}")
    return cli, importlib.import_module("workloads")


def operations(workloads, seeds: Iterable[int], seconds: float) -> List[List[str]]:
    """The argv of every CLI operation of each workload at each seed, in
    run order (the scale study calls no CLI and is left out), then
    :data:`STEEP`, :data:`ENERGY`, :data:`FLUX`, :data:`EVALUATION`,
    :data:`GATE` and :data:`ARGPARSE`."""
    out = []
    for seed in seeds:
        for make in workloads.WORKLOADS.values():
            workload = make(seed)
            out += [op.argv for op in workload.ops(workload.rounds_for(seconds)) if op.kind != "scale-study"]
    return out + STEEP + ENERGY + FLUX + EVALUATION + GATE + ARGPARSE


def _run(main: Callable[[List[str]], int], argv: List[str]) -> Tuple[object, str, str]:
    """Exit code, stdout and stderr of one operation.  Warnings show as in
    a fresh process, once per place that raises them.  Help ends in
    ``SystemExit``, whose code is the operation's."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(main: Callable[[List[str]], int], argv: List[str]) -> str:
    """The line of one operation: argv, exit code and the SHA-1 of its
    stdout, a NUL byte and its stderr."""
    code, out, err = _run(main, argv)
    text = out + "\0" + err
    return f"{' '.join(argv)}\t{code}\t{hashlib.sha1(text.encode()).hexdigest()}"


def values(main: Callable[[List[str]], int], argv: List[str]) -> List[str]:
    """The lines of one operation for ``--values``: ``$ argv`` and its exit
    code, then each line of its stdout after ``out``, and of its stderr
    after ``err``, tab-separated."""
    code, out, err = _run(main, argv)
    head = [f"$ {' '.join(argv)}\t{code}"]
    return head + [f"out\t{x}" for x in out.splitlines()] + [f"err\t{x}" for x in err.splitlines()]


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")
_KEY = re.compile(r'\s*"?(\w+)"?\s*[:=]')


def _operations(lines: Iterable[str]) -> List[Tuple[str, List[str]]]:
    # a --values listing as (head, output lines) per operation
    ops: List[Tuple[str, List[str]]] = []
    for line in lines:
        if line.startswith("$ "):
            ops.append((line[2:], []))
        elif ops:
            ops[-1][1].append(line)
    return ops


def _relative(old: str, new: str) -> float:
    # the largest relative change of a number between two texts,
    # |new - old| / max(|old|, |new|); inf where the text around the
    # numbers differs, or a number turns non-finite
    if _NUMBER.sub("#", old) != _NUMBER.sub("#", new):
        return math.inf
    worst = 0.0
    for x, y in zip(map(float, _NUMBER.findall(old)), map(float, _NUMBER.findall(new))):
        if x != y and not (math.isnan(x) and math.isnan(y)):
            worst = max(worst, abs(y - x) / max(abs(x), abs(y)) if math.isfinite(x + y) else math.inf)
    return worst


def _changes(old: str, new: str, header: Optional[List[str]]) -> List[Tuple[str, float]]:
    """The fields of two versions of an output line that differ, each with
    the largest relative change of a number in it: the columns of a CSV
    row under ``header``, else the key of a ``key = value`` line or of a
    JSON member, else the line."""
    a, b = old.split("\t", 1)[1], new.split("\t", 1)[1]
    if header and a.count(",") == b.count(",") == len(header) - 1:
        return [(name, _relative(x, y)) for name, x, y in zip(header, a.split(","), b.split(",")) if x != y]
    key = _KEY.match(a)
    return [(key.group(1) if key else "line", _relative(a, b))]


def compare(old: List[str], new: List[str]) -> List[str]:
    """The changes between two ``--values`` listings of the same
    operations: one line per changed field of an output line (the
    operation, the stream, the field and the largest relative change of a
    number in it), then per command, stream and field the count of
    changes and the largest."""
    out: List[str] = []
    summary: Dict[Tuple[str, str, str], List[float]] = {}
    for (head_a, lines_a), (head_b, lines_b) in zip(_operations(old), _operations(new)):
        command = head_a.split(" ", 1)[0]
        if head_a != head_b or len(lines_a) != len(lines_b):
            out.append(f"{head_a}\t->\t{head_b}\t{len(lines_a)} output lines -> {len(lines_b)}")
            summary.setdefault((command, "-", "operation"), []).append(math.inf)
            continue
        # a CSV table's header is its output's first line; a JSON member
        # with a comma and no number is not one
        first = lines_a[0] if lines_a else ""
        header = None
        if first.startswith("out\t") and "," in first and not _NUMBER.search(first):
            header = first.split("\t", 1)[1].split(",")
        for a, b in zip(lines_a, lines_b):
            if a != b:
                stream = a.split("\t", 1)[0]
                for field, rel in _changes(a, b, header):
                    out.append(f"{head_a}\t{stream}\t{field}\t{rel:.3g}")
                    summary.setdefault((command, stream, field), []).append(rel)
    out += [f"{c}\t{s}\t{f}\t{len(r)} changes\tlargest {max(r):.3g}" for (c, s, f), r in sorted(summary.items())]
    return out


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", type=Path, nargs="?", help="a source checkout of the package")
    ap.add_argument("--seeds", type=int, nargs="+")
    ap.add_argument("--values", action="store_true", help="print each operation's output, not its SHA-1")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"), help="compare two --values listings")
    args = ap.parse_args(argv)
    if args.compare:
        if args.root or args.seeds or args.values:
            ap.error("--compare takes no checkout, seeds or --values")
        old, new = (path.read_text().splitlines() for path in args.compare)
        print("\n".join(compare(old, new)))
        return 0
    if args.root is None or not args.seeds:
        ap.error("a checkout and --seeds are required")
    root = args.root.resolve()
    cli, workloads = load(root)
    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    for ops in operations(workloads, args.seeds, seconds):
        print("\n".join(values(cli.main, ops)) if args.values else digest(cli.main, ops))
    return 0


if __name__ == "__main__":
    sys.exit(main())

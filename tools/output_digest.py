"""One line per CLI operation of the benchmark's workloads: its argv, its
exit code and a SHA-1 of its stdout and stderr.

    python3 tools/output_digest.py ROOT --seeds 11 12 > digest.txt

ROOT is a source checkout.  The package is imported from ROOT/src and
the operations are read from ROOT/perfbench/workloads.py: every CLI
operation of the three workloads, at each seed, for as many rounds as a
run of BENCHMARK.json's ``run_seconds`` takes, then a fixed list of
steep inputs (:data:`STEEP`), whose fills halve many panels, then a
fixed list of command lines that argparse reads (:data:`ARGPARSE`):
help, and those that the option table of ``liouville.cli`` leaves to it.
Each runs in-process through ``liouville.cli.main``.  Two checkouts
whose digests ``diff`` equal print the same bytes and exit codes on all
of them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import sys
import warnings
from pathlib import Path
from typing import Callable, Iterable, List, Optional

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
    :data:`STEEP` and :data:`ARGPARSE`."""
    out = []
    for seed in seeds:
        for make in workloads.WORKLOADS.values():
            workload = make(seed)
            out += [op.argv for op in workload.ops(workload.rounds_for(seconds)) if op.kind != "scale-study"]
    return out + STEEP + ARGPARSE


def digest(main: Callable[[List[str]], int], argv: List[str]) -> str:
    """The line of one operation: argv, exit code and the SHA-1 of its
    stdout, a NUL byte and its stderr.  Warnings show as in a fresh
    process, once per place that raises them.  Help ends in
    ``SystemExit``, whose code is the line's."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    text = out.getvalue() + "\0" + err.getvalue()
    return f"{' '.join(argv)}\t{code}\t{hashlib.sha1(text.encode()).hexdigest()}"


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", type=Path, help="a source checkout of the package")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    root = args.root.resolve()
    cli, workloads = load(root)
    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    for ops in operations(workloads, args.seeds, seconds):
        print(digest(cli.main, ops))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""tools/output_digest.py on a few operations: its lines repeat, its
command lines take the route of the CLI that each is there for, and its
--values listings compare field by field."""

import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("output_digest", ROOT / "tools" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_lines_repeat(monkeypatch):
    # one operation of each command of a certify-power round at seed 11,
    # and a steep construct, each digested twice in one process
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = _tool()
    cli, workloads = tool.load(ROOT)
    ops = tool.operations(workloads, [11], 40.0)
    fixed = tool.STEEP + tool.ENERGY + tool.FLUX + tool.EVALUATION + tool.GATE + tool.ARGPARSE
    assert ops[-len(fixed) :] == fixed
    picked = [next(argv for argv in ops if argv[0] == kind) for kind in ("classify", "verify", "construct", "sweep")]
    picked.append(["construct", "--n", "3", "--p", "2", "--power", "3.2", "--format", "csv"])
    first, second = ([tool.digest(cli.main, argv) for argv in picked] for _ in range(2))
    assert first == second
    for argv, line in zip(picked, first):
        assert re.fullmatch(re.escape(" ".join(argv)) + r"\t\d+\t[0-9a-f]{40}", line)


def test_argparse_lines_repeat_with_their_exit_codes(monkeypatch):
    # help exits 0 through SystemExit; the rest are usage errors but the
    # = form, which argparse reads
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = _tool()
    cli, _ = tool.load(ROOT)
    first, second = ([tool.digest(cli.main, argv) for argv in tool.ARGPARSE] for _ in range(2))
    assert first == second
    codes = [int(line.split("\t")[1]) for line in first]
    assert codes == [0 if argv[-1:] == ["--help"] or "--n=4" in argv else 13 for argv in tool.ARGPARSE]


def test_workload_lines_take_the_option_table_and_the_rest_argparse(monkeypatch):
    # every command line of the three workloads at seeds 11-12, the steep,
    # energy and flux inputs, those that f's evaluation refuses and those of the
    # gate, is read from the table with no fallback, into what argparse
    # reads; the fixed argparse lines are left to argparse
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = _tool()
    cli, workloads = tool.load(ROOT)
    ops = tool.operations(workloads, [11, 12], 40.0)
    table, rest = ops[: -len(tool.ARGPARSE)], ops[-len(tool.ARGPARSE) :]
    assert len(table) > 1000
    for argv in table:
        read = cli._read(argv)
        assert read is not None, argv
        assert read == vars(cli._parser().parse_args(argv)), argv
    assert all(cli._read(argv) is None for argv in rest)


def test_values_list_each_operation_and_compare_reads_them_field_by_field(monkeypatch):
    # --values: the exit code and every output line; --compare: each field
    # that differs between two listings, with its largest relative change
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = _tool()
    cli, _ = tool.load(ROOT)
    argv = ["construct", "--n", "3", "--p", "2", "--power", "4", "--format", "csv"]
    lines = tool.values(cli.main, argv)
    assert lines[0] == "$ " + " ".join(argv) + "\t0"
    assert lines[1] == "out\tr,w,envelope,bound" and len(lines) == 202
    row = lines[2].split("\t")[1].split(",")
    bumped = ",".join(row[:3] + [repr(float(row[3]) * (1.0 + 2.0**-50))])
    new = lines[:2] + ["out\t" + bumped] + lines[3:]
    x, y = float(row[3]), float(bumped.split(",")[3])
    rel = (y - x) / y
    assert tool.compare(lines, lines) == []
    assert tool.compare(lines, new) == [
        "construct --n 3 --p 2 --power 4 --format csv\t0\tout\tbound\t" + format(rel, ".3g"),
        "construct\tout\tbound\t1 changes\tlargest " + format(rel, ".3g"),
    ]
    old = ["$ classify x\t5", "out\tvalue = 2.0", "out\tdetail = ratio 0.5", "err\tnote"]
    new = ["$ classify x\t5", "out\tvalue = 2.5", "out\tdetail = ratio 0.5 at most", "err\tnote"]
    assert tool.compare(old, new)[:2] == ["classify x\t5\tout\tvalue\t0.2", "classify x\t5\tout\tdetail\tinf"]
    # a JSON member with a comma and no number is no CSV header: the
    # member after it keeps its own key
    old = ["$ verify x\t1", "out\t{", 'out\t  "name": "flux_identity",', 'out\t  "worst_residual": 2.0,']
    new = old[:3] + ['out\t  "worst_residual": 2.5,']
    assert tool.compare(old, new)[0] == "verify x\t1\tout\tworst_residual\t0.2"

"""tools/output_digest.py on a few operations: its lines repeat."""

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
    assert ops[-len(tool.STEEP) :] == tool.STEEP
    picked = [next(argv for argv in ops if argv[0] == kind) for kind in ("classify", "verify", "construct", "sweep")]
    picked.append(["construct", "--n", "3", "--p", "2", "--power", "3.2", "--format", "csv"])
    first, second = ([tool.digest(cli.main, argv) for argv in picked] for _ in range(2))
    assert first == second
    for argv, line in zip(picked, first):
        assert re.fullmatch(re.escape(" ".join(argv)) + r"\t\d+\t[0-9a-f]{40}", line)

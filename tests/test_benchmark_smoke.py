"""The benchmark's smallest run passes its own oracles.

``perfbench/run.py`` checks every operation of a run against an oracle
and reports whether any answer was wrong (``correct``) and how many
operations failed.  Its tiny classify-mix run takes a few seconds, so a
change that the benchmark's oracles would refuse fails the default test
run too.
"""

import json
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def test_tiny_classify_mix_run_passes_its_oracles():
    argv = ["perfbench/run.py", "--workload", "classify-mix", "--seed", "3", "--seconds", "1", "--tiny", "--trace", "0"]
    out = subprocess.run([sys.executable, *argv], cwd=_ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0

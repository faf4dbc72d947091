"""The benchmark's smallest runs pass their own oracles.

``perfbench/run.py`` checks every operation of a run against an oracle
and reports whether any answer was wrong (``correct``) and how many
operations failed.  Its tiny classify-mix and certify-expr runs take a
few seconds each, so a change that the benchmark's oracles would refuse
(a wrong verdict, or a failed check of a certificate) fails the default
test run too.
"""

import json
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def _assert_tiny_run_passes(workload):
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1", "--tiny", "--trace", "0"]
    out = subprocess.run([sys.executable, *argv], cwd=_ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_tiny_classify_mix_run_passes_its_oracles():
    _assert_tiny_run_passes("classify-mix")


def test_tiny_certify_expr_run_passes_its_oracles():
    # verify and construct on --expr spellings: a failed check fails here
    _assert_tiny_run_passes("certify-expr")

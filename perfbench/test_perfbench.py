"""Self-tests of the benchmark, at tiny size.

    python3 -m pytest perfbench -q

They run ``perfbench/run.py --tiny`` in subprocesses (about half a
minute in total) and the oracles in-process.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import INSTANCE, WORKLOADS, cli_op, make_case  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    result = result_line(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(math.isfinite(v["value"]) and v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_emits_every_layer_metric_and_repeats_its_counts():
    args = ("--workload", "classify-mix", "--seed", "5", "--seconds", "1", "--trace", "1", "--tiny")
    first, second = result_line(bench(*args)), result_line(bench(*args))
    assert {k: v["unit"] for k, v in first["metrics"].items()} == run.PER_LAYER
    for name in ("quadrature.panels", "construct.profile_builds", "criterion.classify.calls", "nonlinearity.calls"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]
    assert first["metrics"]["quadrature.panels"]["value"] > 0


def test_setup_is_measured_in_fresh_interpreters(monkeypatch):
    run.load_package()  # already imported here, so only a new process pays for it

    calls = []
    real = subprocess.run

    def spy(argv, **kwargs):
        calls.append(argv)
        return real(argv, **kwargs)

    monkeypatch.setattr(run.subprocess, "run", spy)
    seconds, reference = run.setup_time()
    assert seconds > 0 and reference > 0
    [ref_argv, argv] = calls
    assert ref_argv[:3] == [sys.executable, "-c", "import numpy"]
    assert argv[:2] == [sys.executable, "-c"] and "build_parser()" in argv[2]


def test_a_directory_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "classify-mix", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_speed_scaling_removes_samples_and_slowdown():
    speed = run.Speed()
    speed.times = [0.98, 1.05, 1.12, 5.0]
    speed.durations = [2 * run.KERNEL_REF] * 3 + [run.KERNEL_REF]  # twice as slow around the op
    scaled = speed.scaled({"start": 1.0, "seconds": 0.1})
    assert scaled == pytest.approx((0.1 - 2 * run.KERNEL_REF) / 2)


def test_tail_is_the_eleventh_largest():
    assert run.tail([float(x) for x in range(1, 21)]) == (10.0, 50.0)
    assert run.tail([2.0, 1.0]) == (2.0, 100.0)


class Tampering:
    """Rewrites the stdout of one command before the oracles see it."""

    def __init__(self, client, edit):
        self.real, self.edit = client._cli, edit

    def __call__(self, argv):
        seconds, rc, stdout, stderr = self.real(argv)
        return (seconds, *self.edit(rc, stdout), stderr)


def _client_with(edit):
    client = run.Client(run.load_package())
    client._cli = Tampering(client, edit)
    return client


def test_a_flipped_verdict_counts_as_failed():
    op = cli_op("classify", make_case(4, 2.0, "power", +1, 0.5))
    honest = run.Client(run.load_package())
    assert not honest.run(op)["outcome"].failed

    client = _client_with(lambda rc, out: (0, out.replace("verdict = converges", "verdict = diverges")))
    entry = client.run(op)
    assert entry["outcome"].failed and entry["outcome"].hard
    correct, attempted, failed, failed_frac, _ = run.summary(client.log)
    assert (correct, attempted, failed, failed_frac) == (False, 1, 1, 1.0)


def test_a_wrong_numeric_verdict_is_known_only_near_critical():
    near = run.Client(run.load_package()).run(cli_op("classify", make_case(3, 2.0, "expr-pow", +1, 0.001)))
    assert near["outcome"].failed and not near["outcome"].hard  # the program's documented blur

    client = _client_with(lambda rc, out: (0, out.replace("verdict = converges", "verdict = diverges")))
    far = client.run(cli_op("classify", make_case(3, 2.0, "expr-pow", +1, 3.0)))
    assert far["outcome"].failed and far["outcome"].hard


@pytest.mark.parametrize("check", ["supersolution", "flux_identity"])
def test_a_failed_verify_check_is_known_only_for_the_flux_identity(check):
    def fail_check(rc, out):
        report = json.loads(out)
        assert report["overall"] and rc == 0
        for c in report["checks"]:
            if c["name"] == check:
                c["passed"] = False
        report["overall"] = False
        return 1, json.dumps(report)

    client = _client_with(fail_check)
    outcome = client.run(cli_op("verify", INSTANCE))["outcome"]
    assert outcome.failed
    assert outcome.hard == (check != "flux_identity")
    assert run.summary(client.log)[0] == (check == "flux_identity")


def test_an_altered_w_row_counts_as_failed():
    def bump_row(rc, out):
        lines = out.splitlines(keepends=True)
        r, w, env, bound = lines[50].split(",")
        lines[50] = ",".join([r, repr(float(w) * (1 + 1e-6)), env, bound])
        return rc, "".join(lines)

    client = _client_with(bump_row)
    client.run(cli_op("construct", INSTANCE, closed_form=True))
    assert run.summary(client.log)[3] == 1.0


def test_a_changed_repeat_counts_as_failed():
    outputs = iter(["verdict = diverges\nmethod = analytic\n", "verdict = diverges\nmethod = analytic\nextra\n"])
    client = _client_with(lambda rc, out: (0, next(outputs)))
    op = cli_op("classify", make_case(4, 2.0, "power", -1, 0.5))
    assert not client.run(op)["outcome"].failed
    assert client.run(op)["outcome"].failed

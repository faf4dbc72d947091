"""The benchmark's tracer finds every entry point it wraps.

``perfbench/tracing.py`` rebinds names where the package looks them up
(``verify.integrate``, ``construct.criterion_value``,
``cli.decay_bound`` and so on).  Installing it here makes a refactor
that drops one of those names fail these tests, not only a traced
benchmark run.
"""

import importlib.util
from pathlib import Path

import liouville
from liouville import cli, construct, criterion

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _bound(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def test_tracer_installs_runs_and_uninstalls(capsys):
    tracer = _tracer()
    tracer.install(liouville)
    patched = list(tracer._restore)
    try:
        assert all(_bound(owner, attr) is not original for owner, attr, original in patched)
        assert cli.main(["verify", "--n", "3", "--p", "2", "--power", "4"]) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert all(_bound(owner, attr) is original for owner, attr, original in patched)
    names = {rec[0] for rec in tracer.spans}
    assert {"cli.main", "cli.verify", "criterion.classify", "construct.find_delta",
            "verify.verify_profile", "verify.flux_identity", "verify.energy"} <= names


def test_tracer_sees_the_gate_and_the_one_valuation(capsys):
    # construct's gate classifies without valuing, and its decay bound
    # values the criterion integral once
    tracer = _tracer()
    tracer.install(liouville)
    try:
        assert cli.main(["construct", "--n", "4", "--p", "2", "--powerlog", "-1.6"]) == cli.EXIT_OK
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = [rec[0] for rec in tracer.spans]
    assert "criterion.classify" in names and names.count("criterion.criterion_value") == 1


def test_construct_takes_its_bounds_in_one_call(capsys, monkeypatch):
    # one decay-bound call and one envelope call for the whole table, and
    # one valuation of the criterion integral
    calls = []

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(cli, "decay_bound")
    counted(construct.RadialProfile, "envelope_value")
    counted(construct, "criterion_value")
    counted(criterion, "criterion_value")
    assert cli.main(["construct", "--n", "4", "--p", "2", "--powerlog", "-1.6"]) == cli.EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 202
    assert sorted(calls) == ["criterion_value", "decay_bound", "envelope_value"]

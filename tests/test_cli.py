"""End-to-end command line tests, driven through ``main(argv)``."""

import argparse
import contextlib
import csv
import io
import json
import math
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville import RadialProfile, cli, construct, criterion
from liouville.errors import CliConfigError
from liouville.cli import (
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_CONVERGES,
    EXIT_DIVERGES,
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_REGIME,
    main,
)

from conftest import deadline, fresh_interpreter, work_ledger

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "verify_report.schema.json"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# classify


class TestClassify:
    @pytest.mark.parametrize(
        "power, expected",
        [("2.0", EXIT_DIVERGES), ("1.5", EXIT_DIVERGES), ("2.5", EXIT_CONVERGES)],
    )
    def test_power_exit_codes(self, capsys, power, expected):
        code, out, _ = run(capsys, ["classify", "--n", "4", "--p", "2", "--power", power])
        assert code == expected

    def test_inconclusive_exit(self, capsys):
        # exp(z) - 1 has no leading term for the walk, and its growing
        # shells certify nothing
        code, out, _ = run(
            capsys, ["classify", "--n", "4", "--p", "2", "--expr", "exp(z) - 1"]
        )
        assert code == EXIT_INCONCLUSIVE
        assert "Inconclusive" in out

    def test_text_output_mentions_verdict(self, capsys):
        code, out, _ = run(capsys, ["classify", "--n", "4", "--p", "2", "--power", "2"])
        assert "verdict = diverges" in out
        assert "critical_exponent = 2.0" in out

    def test_json_deterministic(self, capsys):
        argv = ["classify", "--n", "4", "--p", "2", "--power", "2.5", "--format", "json"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["schema"] == "classify-report/v1"
        assert payload["verdict"] == "converges"
        assert payload["critical_exponent"] == 2.0

    def test_powerlog_family(self, capsys):
        code, _, _ = run(
            capsys, ["classify", "--n", "3", "--p", "2", "--powerlog", "-2"]
        )
        assert code == EXIT_CONVERGES
        code, _, _ = run(
            capsys, ["classify", "--n", "3", "--p", "2", "--powerlog", "-1"]
        )
        assert code == EXIT_DIVERGES


# ---------------------------------------------------------------------------
# error exits


class TestErrorExits:
    def test_unsupported_regime(self, capsys):
        code, _, err = run(capsys, ["classify", "--n", "2", "--p", "3", "--power", "2"])
        assert code == EXIT_REGIME
        assert "constant" in err

    def test_parse_error_carries_offset(self, capsys):
        code, _, err = run(capsys, ["classify", "--n", "4", "--p", "2", "--expr", "z^^2"])
        assert code == EXIT_PARSE
        assert "offset 2" in err

    def test_missing_family(self, capsys):
        code, _, err = run(capsys, ["classify", "--n", "4", "--p", "2"])
        assert code == EXIT_CONFIG
        assert "exactly one of" in err

    def test_conflicting_families(self, capsys):
        code, _, err = run(
            capsys,
            ["classify", "--n", "4", "--p", "2", "--power", "2", "--powerlog", "0"],
        )
        assert code == EXIT_CONFIG

    def test_unknown_flag(self, capsys):
        code, _, err = run(
            capsys, ["classify", "--n", "4", "--p", "2", "--power", "2", "--bogus"]
        )
        assert code == EXIT_CONFIG
        assert "unrecognized" in err

    def test_bad_step(self, capsys):
        code, _, _ = run(
            capsys,
            ["sweep", "--n", "4", "--p", "2", "--family", "power",
             "--start", "1", "--stop", "2", "--step", "0"],
        )
        assert code == EXIT_CONFIG

    def test_sum_of_overflowing_powers_fails_as_one_does(self, capsys):
        # z^1e308 + z^1e308 adds two infinite log-magnitudes past z = 1: an
        # overflow there, the monotonicity gate's error for z^1e308 alone
        base = ["classify", "--n", "3", "--p", "2", "--eps", "10", "--expr"]
        want = (EXIT_CONFIG, "", "error: f exceeds double range at 1.027459485446179\n")
        assert run(capsys, base + ["z^1e308"]) == want
        assert run(capsys, base + ["z^1e308+z^1e308"]) == want

    # each ran until killed before it was refused: a nan start never
    # passes the stop, and the other two ranges have astronomically many rows
    @pytest.mark.parametrize(
        "start, stop, step, message",
        [
            ("nan", "3", "0.5", "must be finite"),
            ("1", "inf", "0.5", "must be finite"),
            ("1", "3", "1e-300", "more than 10000 rows"),
        ],
    )
    def test_endless_sweep_is_refused(self, capsys, start, stop, step, message):
        argv = ["sweep", "--n", "4", "--p", "2", "--family", "power",
                "--start", start, "--stop", stop, "--step", step]
        with deadline(1.0):
            code, out, err = run(capsys, argv)
        assert (code, out) == (EXIT_CONFIG, "")
        assert message in err

    def test_infinite_grid_bound_is_refused_without_a_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["construct", "--n", "3", "--p", "2", "--power", "4", "--grid-max", "inf"])
        assert (code, out, err) == (EXIT_CONFIG, "", "usage error: --grid-max must be finite\n")

    def test_grid_end_past_double_range_is_refused_without_a_warning(self, capsys):
        # --grid-max is finite, but times the delta it overflows; numpy's
        # geomspace warned before the radii were refused
        argv = ["construct", "--n", "3", "--p", "2", "--power", "4", "--delta", "10", "--grid-max", "1e308"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv)
        want = "error: the grid's end, --grid-max 1e+308 times delta = 10.0, exceeds double range\n"
        assert (code, out, err) == (EXIT_CONFIG, "", want)

    @pytest.mark.parametrize("command", ["construct", "verify"])
    def test_delta_past_double_range_is_an_error_not_a_traceback(self, capsys, command):
        # w scales by delta**(p/(p-1)) = 1e600, and I by delta**n = 1e900
        argv = [command, "--n", "3", "--p", "2", "--power", "4", "--delta", "1e300"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv)
        want = {
            "construct": (EXIT_CONFIG, "", "error: delta**2 exceeds double range at delta = 1e+300\n"),
            "verify": (EXIT_CHECK, "", "verification check failed to evaluate: delta**3 exceeds double range at delta = 1e+300\n"),
        }
        assert (code, out, err) == want[command]


# ---------------------------------------------------------------------------
# construct


class TestConstruct:
    def test_csv_layout(self, capsys):
        code, out, _ = run(
            capsys,
            ["construct", "--n", "3", "--p", "2", "--power", "4",
             "--format", "csv", "--grid-points", "12"],
        )
        assert code == EXIT_OK
        assert "\r" not in out
        lines = out.strip().split("\n")
        assert lines[0] == "r,w,envelope,bound"
        assert len(lines) == 13
        for row in csv.DictReader(io.StringIO(out)):
            r, w = float(row["r"]), float(row["w"])
            assert w >= 0.0
            assert float(row["bound"]) >= w
            assert float(row["envelope"]) > 0.0

    def test_delta_override_respected(self, capsys):
        code, out, _ = run(
            capsys,
            ["construct", "--n", "3", "--p", "2", "--power", "4",
             "--delta", "0.25", "--grid-points", "5"],
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "delta = 0.25"

    def test_divergent_input(self, capsys):
        code, out, err = run(capsys, ["construct", "--n", "4", "--p", "2", "--power", "2"])
        assert code == EXIT_FAIL
        assert "identically zero" in out
        assert "classify:" in err

    def test_inconclusive_input(self, capsys):
        code, out, _ = run(
            capsys, ["construct", "--n", "4", "--p", "2", "--expr", "exp(z) - 1"]
        )
        assert code == EXIT_INCONCLUSIVE

    def test_fast_decaying_expression_matches_power(self, capsys):
        # z^5.86 is exactly its leading term, so its criterion value is
        # the power's closed form
        argv = ["construct", "--n", "3", "--p", "2", "--format", "json", "--grid-points", "12"]
        code, out, err = run(capsys, argv + ["--expr", "z^5.86"])
        assert code == EXIT_OK, err
        code_ref, out_ref, _ = run(capsys, argv + ["--power", "5.86"])
        assert code_ref == EXIT_OK
        got, ref = json.loads(out), json.loads(out_ref)
        assert got["delta"] == pytest.approx(ref["delta"], rel=1e-12)
        assert [row["w"] for row in got["rows"]] == pytest.approx(
            [row["w"] for row in ref["rows"]], rel=1e-12
        )

    def test_far_field_below_the_absolute_floor(self, capsys):
        # w(5e5) is about 7e-17, below the stock 1e-14 absolute tolerance;
        # a build with no absolute floor gives 7.2191844602e-17
        code, out, err = run(
            capsys, ["construct", "--n", "8", "--p", "3", "--power", "3.5", "--format", "json"]
        )
        assert code == EXIT_OK, err
        report = json.loads(out)
        assert report["delta"] == 0.5
        last = report["rows"][-1]
        assert last["r"] == pytest.approx(5e5, rel=1e-12)
        assert last["w"] == pytest.approx(7.2191844602e-17, rel=1e-9, abs=0.0)

    def test_allow_nonmonotone_reaches_the_delta_search(self, capsys):
        # z^5 exp(-10z) peaks at z = 1/2, inside (0, eps]
        argv = ["construct", "--n", "3", "--p", "2", "--expr", "z^5*exp(-10*z)",
                "--grid-points", "4"]
        code, _, err = run(capsys, argv + ["--allow-nonmonotone"])
        assert code == EXIT_OK, err
        code, _, err = run(capsys, argv)
        assert code == EXIT_CONFIG
        assert "f decreases on (0, eps]" in err

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys,
            ["construct", "--n", "3", "--p", "2", "--power", "4", "--format", "csv",
             "--grid-points", "4", "--out", str(target)],
        )
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text().startswith("r,w,envelope,bound\n")

    def test_json_deterministic(self, capsys):
        argv = ["construct", "--n", "3", "--p", "2", "--power", "4",
                "--format", "json", "--grid-points", "8"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["schema"] == "construct-report/v1"
        assert payload["delta"] == 1.0
        assert len(payload["rows"]) == 8


# ---------------------------------------------------------------------------
# verify


class TestVerify:
    def test_instance_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "--n", "3", "--p", "2", "--power", "4"])
        assert code == EXIT_OK
        assert "overall: PASS" in out
        for name in ("flux_identity", "supersolution", "gradient_decay",
                     "normalization", "energy"):
            assert f"{name}: PASS" in out

    def test_json_byte_identical_and_valid(self, capsys):
        argv = ["verify", "--n", "3", "--p", "2", "--power", "4", "--format", "json"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2
        payload = json.loads(out1)
        schema = json.loads(SCHEMA_PATH.read_text())
        jsonschema.validate(payload, schema)
        assert payload["overall"] is True
        assert [c["name"] for c in payload["checks"]] == [
            "flux_identity", "supersolution", "gradient_decay",
            "normalization", "energy",
        ]

    def test_json_is_strict_where_a_residual_is_infinite(self, capsys):
        # w underflows to 0 before the energy check's first radius, so its
        # spread is infinite: the report writes null there, not Infinity
        argv = ["verify", "--n", "4", "--p", "1.05", "--eps", "1e-10",
                "--power", "1.0677966101694916", "--format", "json"]
        code, out, _ = run(capsys, argv)

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads(out, parse_constant=refuse)
        jsonschema.validate(payload, json.loads(SCHEMA_PATH.read_text()))
        energy = payload["checks"][-1]
        assert (energy["name"], energy["worst_residual"], energy["passed"]) == ("energy", None, False)
        assert code == EXIT_FAIL

    def test_json_text_refuses_non_finite_numbers(self):
        with pytest.raises(ValueError):
            cli._json_text({"value": float("nan")})

    def test_forced_bad_delta_fails(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "--n", "3", "--p", "2", "--power", "4", "--delta", "1e6"]
        )
        assert code == EXIT_FAIL
        assert "overall: FAIL" in out
        assert "supersolution: FAIL" in out

    def test_uncomputable_check_exits_12(self, capsys):
        # exp(z) at the far grid radii overflows any double
        code, _, err = run(
            capsys,
            ["verify", "--n", "3", "--p", "2", "--expr", "z^4 * exp(z)",
             "--delta", "1e6", "--allow-nonmonotone"],
        )
        assert code == EXIT_CHECK
        assert "failed to evaluate" in err

    def test_divergent_input(self, capsys):
        code, _, _ = run(capsys, ["verify", "--n", "4", "--p", "2", "--power", "2"])
        assert code == EXIT_FAIL


_ONE_BUILD_COMMANDS = [
    ["verify", "--n", "3", "--p", "2", "--power", "4"],
    ["construct", "--n", "3", "--p", "2", "--power", "4", "--delta", "0.5",
     "--grid-points", "4"],
    ["sweep", "--n", "4", "--p", "2", "--family", "power",
     "--start", "2.5", "--stop", "2.5", "--step", "1"],
    # these accept delta = 0.25 and 0.5, below delta0
    pytest.param(["verify", "--n", "3", "--p", "2", "--power", "3.2"], id="verify-halving"),
    pytest.param(["construct", "--n", "3", "--p", "2", "--power", "3.2", "--grid-points", "4"],
                 id="construct-halving"),
    pytest.param(["sweep", "--n", "4", "--p", "2", "--family", "power",
                  "--start", "2.2", "--stop", "2.2", "--step", "1"], id="sweep-halving"),
]


@pytest.mark.parametrize("argv", _ONE_BUILD_COMMANDS, ids=lambda argv: argv[0])
def test_one_profile_build_per_command(capsys, monkeypatch, argv):
    # the delta search builds one profile, at delta0, and hands on that
    # profile or a rescaled view of it; nothing builds it again
    builds = []
    init = RadialProfile.__init__

    def counted(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RadialProfile, "__init__", counted)
    code, _, err = run(capsys, argv)
    assert code == EXIT_OK, err
    assert len(builds) == 1


@pytest.mark.parametrize("argv", _ONE_BUILD_COMMANDS, ids=lambda argv: argv[0])
def test_one_outer_fill_per_command(capsys, monkeypatch, argv):
    # the profile and its views share one outer cache: the delta search
    # fills it, and the grids, sups and checks after it only read it
    fills = []
    fill = RadialProfile._fill_outer

    def counted(self):
        fills.append(self.delta)
        return fill(self)

    monkeypatch.setattr(RadialProfile, "_fill_outer", counted)
    code, _, err = run(capsys, argv)
    assert code == EXIT_OK, err
    assert len(fills) == 1


# The work of one command, kernel by kernel (conftest.work_ledger).  verify:
# _k7 on the table's 1024 + 320 panels but [0, s_0], on the outer fill's as
# many, and on the energy check's 577; _bisect on the flux check's 13
# windows, its one integrate_intervals call, and on no fill, since none
# misses a panel here; _ln_f on no monotonicity grid, since the gate proves
# z^4 non-decreasing from its exponent, then on the table's two node
# blocks, the flux windows' 13 x 15 nodes, the supersolution check's 200
# envelope and 200 profile values, the gradient check's six origin nodes
# and the energy check's 578 + 5 x 577 nodes.  w on the grids and the
# terminal source integral take no panel.  construct: the same build, then
# its 200 rows.  construct at z^40: the table's node blocks on level 1,
# whose panels are too steep, then its 2048 + 640 panels on level 0.
_LEDGERS = [
    (
        ["verify", "--n", "3", "--p", "2", "--power", "4"],
        {
            "_k7": [1343, 1343, 577],
            "_bisect": [13],
            "integrate_intervals": [13],
            "_ln_f": [6144, 1920, 195, 400, 6, 3463],
        },
    ),
    (
        ["construct", "--n", "3", "--p", "2", "--power", "4"],
        {"_k7": [1343, 1343], "_bisect": [], "integrate_intervals": [], "_ln_f": [6144, 1920]},
    ),
    (
        ["construct", "--n", "3", "--p", "2", "--power", "40"],
        {"_k7": [2687, 2687], "_bisect": [], "integrate_intervals": [], "_ln_f": [6144, 1920, 6144, 6144, 3840]},
    ),
]


@pytest.mark.parametrize("argv, work", _LEDGERS, ids=["verify", "construct", "construct-level0"])
def test_work_ledger_per_command(capsys, monkeypatch, argv, work):
    ledger = work_ledger(monkeypatch)
    code, _, err = run(capsys, argv)
    assert code == EXIT_OK, err
    assert ledger == work


def test_parser_is_built_once(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        argv = ["classify", "--n", "4", "--p", "2", "--expr", "z^3*log(e+1/z)^-2"]
        first, second = run(capsys, argv), run(capsys, argv)
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert first == second and first[0] == EXIT_CONVERGES


# ---------------------------------------------------------------------------
# the command line: the option table against argparse


def test_option_table_is_built_by_the_first_command():
    # not by the import or build_parser(), whose cost every start pays
    code = "\n".join([
        "import contextlib, io, liouville.cli as cli",
        "cli.build_parser()",
        "print(cli._tables.cache_info().currsize)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    cli.main(['classify', '--n', '4', '--p', '2', '--power', '2.5'])",
        "print(cli._tables.cache_info().currsize)",
    ])
    assert fresh_interpreter(code).split() == ["0", "1"]


_SUBPARSERS = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
# negative decimals, scientific notation, a lone dash, the empty string,
# nan, words, every choice, and values that argparse takes for options
_VALUES = ["4", "3", "2", "0", "1.5", "-1.6", "-2", "-.5", "1e-3", "-2.5e0", "2.5E1", "-", "", "nan", "-inf",
           "z^4", "z ^ 4", "-z ^ 2", "text", "json", "csv", "xml", "power", "powerlog", "--", "-h", "--n"]


def _fitting(option, action):
    # the option with a value of the kind it takes, so that many lines
    # are well formed
    if action.nargs == 0:
        return st.just([option])
    if action.choices is not None:
        values = list(action.choices)
    else:
        values = {int: ["3", "4", "-2"], float: ["2", "-1.6", "1e-3", ".5"]}.get(action.type, ["z^4", "out.txt"])
    return st.sampled_from(values).map(lambda v: [option, v])


@st.composite
def _command_lines(draw):
    command = draw(st.sampled_from([*_SUBPARSERS] * 3 + ["bogus", "-h", "--help", "--n"]))  # mostly a subcommand
    sp = _SUBPARSERS.get(command, _SUBPARSERS["verify"])
    actions = sp._option_string_actions
    option = st.sampled_from(sorted(actions))
    value = st.sampled_from(_VALUES)
    stored = sorted(s for s, a in actions.items() if not isinstance(a, argparse._HelpAction))
    fitting = lambda s: _fitting(s, actions[s])  # noqa: E731
    other = st.one_of(
        st.tuples(option, value).map(list),
        option.map(lambda s: [s]),
        st.tuples(option, st.integers(2, 6), value).map(lambda t: [t[0][: t[1]], t[2]]),
        st.tuples(option, value).map(lambda t: [f"{t[0]}={t[1]}"]),
        value.map(lambda v: [v]),
    )
    pieces = draw(st.lists(st.sampled_from(stored).flatmap(fitting), max_size=6)) + draw(st.lists(other, max_size=2))
    if draw(st.integers(0, 3)):  # mostly with every required option
        pieces += [draw(fitting(a.option_strings[0])) for a in sp._actions if a.required]
    return [command, *(token for p in draw(st.permutations(pieces)) for token in p)]


def _bits(namespace):
    # repr per value: nan equals nan, and 1 differs from 1.0
    return {k: repr(v) for k, v in namespace.items()}


@settings(max_examples=300, deadline=None)
@given(_command_lines())
def test_option_table_reads_what_argparse_reads(argv):
    table = cli._read(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            parsed = vars(cli._parser().parse_args(argv))
    except (CliConfigError, SystemExit):
        assert table is None
    else:
        assert table is None or _bits(table) == _bits(parsed)


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--n", "4", "--p", "2", "--powerlog", "-2.2"],
        ["sweep", "--n", "3", "--p", "2", "--family", "powerlog", "--start", "-2", "--stop", "-.5", "--step", "0.5"],
        ["verify", "--n", "3", "--p", "2", "--expr", "", "--allow-nonmonotone", "--format", "csv", "--out", "x"],
        ["construct", "--p", "2", "--n", "3", "--n", "4", "--power", "nan"],
    ],
    ids=["negative", "negative-range", "flag-and-empty", "repeated"],
)
def test_option_table_takes_well_formed_lines(argv):
    assert _bits(cli._read(argv)) == _bits(vars(cli._parser().parse_args(argv)))


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["classify", "--n", "4", "--p", "2", "--powerlog", "-2.5e0"],
        ["classify", "--n", "4", "--p", "2", "--expr", "-"],
        ["classify", "--n", "4", "--p", "2", "--pow", "2"],
        ["classify", "--n=4", "--p", "2", "--power", "2"],
        ["classify", "--n", "4", "--p", "2", "--", "--power", "2"],
    ],
    ids=["empty", "exponent", "dash", "abbreviation", "equals", "double-dash"],
)
def test_option_table_leaves_the_rest_to_argparse(argv):
    assert cli._read(argv) is None


@pytest.mark.parametrize("n, p", [("3", "2"), ("8", "3")])
def test_tiny_eps_builds(capsys, n, p):
    # at eps = 1e-300 the source integral's remainder starts below
    # eps * 1e-8 * 2^-40 (ln top = -765 at n=8 p=3, under the smallest
    # double); its shells are log-values, so the expression builds as the
    # power does, with no warning
    argv = ["construct", "--n", n, "--p", p, "--eps", "1e-300", "--grid-points", "3", "--format", "json"]
    rows = []
    for spelling in (["--expr", "z^4"], ["--power", "4"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv + spelling)
        assert code == EXIT_OK, err
        rows.append([row["w"] for row in json.loads(out)["rows"]])
    assert rows[0] == rows[1]


def test_tiny_eps_log_form_classifies(capsys):
    # at eps = 1e-300 the monotonicity probe's samples reach 1e-312, where
    # 1/z overflows the plain evaluator; the probe then compares the
    # samples' signed logs
    argv = ["classify", "--n", "4", "--p", "2", "--expr", "z^3*log(e+1/z)^-2", "--eps", "1e-300"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv)
        waived = run(capsys, argv + ["--allow-nonmonotone"])
    assert code == EXIT_CONVERGES, err
    assert "verdict = converges" in out
    assert (code, out) == waived[:2]


# certify-power inputs of the inner-limit-stall class in perfbench/NOTES.md
_STALLED_POWERS = [
    ["--n", "4", "--p", "2", "--powerlog", "-1.02905"],
    ["--n", "3", "--p", "2", "--power", "3.00104"],
    ["--n", "8", "--p", "3", "--power", "3.20101"],
]


@pytest.mark.parametrize("args", _STALLED_POWERS, ids=" ".join)
def test_near_critical_family_inputs_verify(capsys, args):
    code, out, err = run(capsys, ["verify"] + args)
    assert code == EXIT_OK, err
    assert out.count(": PASS") == 6  # five checks and the overall line


# the certify-expr inputs of that class: critical and near-critical log
# forms spelled as expressions, which the leading term's closed-form
# remainder now certifies
_LOG_EXPRESSIONS = [
    ["--n", "4", "--p", "1.5", "--expr", "z^0.8*log(e+1/z)^-1.58652"],
    ["--n", "5", "--p", "3", "--expr", "z^5.0*log(e+1/z)^-1.03081"],
    ["--n", "4", "--p", "1.5", "--expr", "z^0.8*log(e+1/z)^-2.22664"],
    ["--n", "3", "--p", "2", "--expr", "z^3.00097*log(e+1/z)^-2"],
    ["--n", "5", "--p", "3", "--expr", "z^5.0*log(e+1/z)^-1.19054"],
]


# inputs whose checks evaluate f at the profile's own values, where the
# plain evaluator cancels (exp(z) - 1 and log(1 + z) at z near 1e-17) or
# overflows (1/z below the envelope of eps = 1e-300); the checks read f
# in logs, as the table does
_LOG_DOMAIN_INPUTS = [
    ["--n", "4", "--p", "2", "--expr", "(exp(z)-1)*z^2.2"],
    ["--n", "4", "--p", "2", "--expr", "log(1+z)*z^2.2"],
    ["--n", "8", "--p", "3", "--expr", "(exp(z)-1)*z^3.4"],
    ["--n", "4", "--p", "2", "--expr", "z^3*log(e+1/z)^-2", "--eps", "1e-300"],
]


@pytest.mark.parametrize("args", _LOG_EXPRESSIONS + _LOG_DOMAIN_INPUTS, ids=" ".join)
def test_log_expressions_verify(capsys, args):
    with deadline(10.0), warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["verify"] + args)
    assert code == EXIT_OK, err
    assert out.count(": PASS") == 6


# convergent Bertrand forms: the log-log factor's deviation from its
# leading term decays only like 1/(u ln u), so the remainder below the
# table cannot reach the source limit's tolerance
_UNCERTIFIED_EXPRESSIONS = [
    ["--n", "3", "--p", "2", "--expr", "z^3*log(e+1/z)^-1*log(log(e+1/z)+e)^-2"],
    ["--n", "4", "--p", "2", "--expr", "z^2*log(e+1/z)^-1*log(log(e+1/z)+e)^-1.5"],
]


@pytest.mark.parametrize("args", _UNCERTIFIED_EXPRESSIONS, ids=" ".join)
def test_uncertified_source_limit_exits_1(capsys, args):
    code, out, err = run(capsys, ["verify"] + args)
    assert code == EXIT_FAIL
    assert out == ""
    assert err.startswith("error: the source integral does not converge to tolerance: ")


def test_cancelling_form_passes_every_check(capsys):
    # n=4 p=1.5 (exp(z)-1)*z^1.0 finishes, and its flux passes at r = 100
    # delta too, where I saturates: the increment is the table's own
    # integral over the window, with no difference of two values of I
    argv = ["verify", "--n", "4", "--p", "1.5", "--expr", "(exp(z)-1)*z^1.0"]
    with deadline(10.0), warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv)
    assert code == EXIT_OK, err
    assert out.count(": PASS") == 6 and "overall: PASS" in out


_STEEP = [
    ["--n", "4", "--p", "1.05", "--power", "1.1"],
    ["--n", "8", "--p", "1.1", "--power", "0.5"],
    ["--n", "3", "--p", "1.02", "--power", "1.05"],
    ["--n", "4", "--p", "1.05", "--eps", "1e-10", "--power", "1.0677966101694916"],
]


@pytest.mark.parametrize("args", _STEEP, ids=" ".join)
def test_steep_profile_constructs(capsys, args):
    # k = (n-p)/(p-1) is 59, 69, 49 and 59: r**-k is past double range at
    # the grid's first radii, so the decay bound C r**-k is taken in logs.
    # It is inf in text and CSV, and null in JSON, only where it exceeds
    # double range itself; the three formats carry the same rows
    argv = ["construct", *args, "--grid-points", "12", "--format"]
    tables = {}
    for fmt in ("text", "csv", "json"):
        code, out, err = run(capsys, argv + [fmt])
        assert code == EXIT_OK, err
        if fmt == "json":
            rows = [[row[key] for key in ("r", "w", "envelope", "bound")] for row in json.loads(out)["rows"]]
            tables[fmt] = [[math.inf if v is None else v for v in row] for row in rows]
        else:
            body = out.split("\n", 1)[1] if fmt == "text" else out
            tables[fmt] = [[float(v) for v in row] for row in list(csv.reader(io.StringIO(body)))[1:]]
    assert tables["text"] == tables["csv"] == tables["json"]
    rows = tables["text"]
    bounds = [b for _, _, _, b in rows]
    assert len(rows) == 12 and all(w <= b for _, w, _, b in rows)
    assert bounds == sorted(bounds, reverse=True) and math.isfinite(bounds[-1])


@pytest.mark.parametrize("n, p", [("5", "1.1"), ("6", "1.2")])
def test_steep_profile_verifies_promptly(capsys, n, p):
    # k = 39 and 24: the outer fill misses thousands of spans, and the table
    # fill its panel [0, s_0] at n = 6; all are halved on the batch.  Every
    # check passes, the flux too where I saturates
    argv = ["verify", "--n", n, "--p", p, "--power", "0.5"]
    with deadline(5), warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv)
    assert code == EXIT_OK, err
    assert "did not converge" not in out
    assert out.count(": PASS") == 6 and "overall: PASS" in out


@pytest.mark.parametrize("command, walks", [("classify", 1), ("verify", 2), ("construct", 3)])
def test_leading_term_walks_per_command(capsys, monkeypatch, command, walks):
    # the gate walks the tree once, the profile's table once (for the
    # source limit), and construct's decay bound once (for the criterion)
    calls = []
    walk = criterion.leading_term

    def counted(f):
        calls.append(f)
        return walk(f)

    monkeypatch.setattr(criterion, "leading_term", counted)
    monkeypatch.setattr(construct, "leading_term", counted)
    argv = [command, "--n", "4", "--p", "2", "--expr", "z^3*log(e+1/z)^-2"]
    code, _, err = run(capsys, argv + (["--grid-points", "4"] if command == "construct" else []))
    assert code == (EXIT_CONVERGES if command == "classify" else EXIT_OK), err
    assert len(calls) == walks


_POWERLOG = ["--n", "4", "--p", "2", "--powerlog", "-1.6"]
_SWEEP = ["sweep", "--n", "4", "--p", "2", "--family", "powerlog", "--start", "-2", "--stop", "-1", "--step", "0.5"]


@pytest.mark.parametrize(
    "argv, passes, code",
    [
        (["verify", *_POWERLOG], 0, EXIT_OK),
        (["construct", *_POWERLOG, "--grid-points", "4"], 1, EXIT_OK),
        (_SWEEP, 2, EXIT_OK),
        (["verify", *_UNCERTIFIED_EXPRESSIONS[0]], 1, EXIT_FAIL),
    ],
    ids=["verify", "construct", "sweep", "bertrand"],
)
def test_shell_passes_per_command(capsys, monkeypatch, argv, passes, code):
    # the gates value nothing, and the source limit below the table is the
    # leading term's closed form where that term matches f to tolerance:
    # the shell passes left are construct's criterion value (the decay
    # bound's), the sweep's printed values (mu = -2 and -1.5 converge), and
    # the Bertrand form's source limit, whose log-log factor deviates from
    # its term by 1e-2 there
    calls = []
    shells = criterion._log_shells

    def counted(*args, **kwargs):
        calls.append(args[2])
        return shells(*args, **kwargs)

    monkeypatch.setattr(criterion, "_log_shells", counted)
    got, _, err = run(capsys, argv)
    assert got == code, err
    assert len(calls) == passes
    if code == EXIT_FAIL:
        assert err.startswith("error: the source integral does not converge to tolerance: ")


def test_instance_w_column_matches_closed_form(capsys):
    code, out, err = run(capsys, ["construct", "--n", "3", "--p", "2", "--power", "4", "--format", "csv"])
    assert code == EXIT_OK, err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 200
    for row in rows:
        r = float(row["r"])
        assert float(row["w"]) == pytest.approx((1.0 + 2.0 * r) / (6.0 * (1.0 + r) ** 2), rel=1e-11, abs=0.0)


# construct's table against the scalar route it replaced: the closed-form
# instance, a form whose leading term is not f itself, and the steep
# inputs, whose bounds take the log route (inf, and null in JSON, where
# they exceed double range)
_TABLE_INPUTS = [["--n", "3", "--p", "2", "--power", "4"], ["--n", "4", "--p", "2", "--powerlog", "-1.6"], *_STEEP]


def _table_profile(args):
    # the profile and the grid radii of construct's table
    cfg = cli._config(vars(cli._parser().parse_args(["construct", *args])))
    profile, _ = cli._setup_profile(cfg)
    return profile, np.geomspace(cfg.grid_lo * profile.delta, cfg.grid_hi * profile.delta, cfg.grid_points).tolist()


def _bits(values):
    return [repr(v) for v in values]


@pytest.mark.parametrize("args", _TABLE_INPUTS, ids=" ".join)
def test_table_columns_match_the_scalar_route(args):
    profile, radii = _table_profile(args)
    bounds = construct.decay_bound(profile, radii)
    assert _bits(bounds) == _bits([construct.decay_bound(profile, r) for r in radii])
    assert _bits(profile.envelope_value(radii)) == _bits([profile.envelope_value(r) for r in radii])
    # r**-k is past double range at the first radius of a steep input only,
    # and so is the bound, but where eps = 1e-10 scales it down
    steep = args in _STEEP
    assert (-profile.decay * math.log(radii[0]) > math.log(np.finfo(float).max)) == steep
    assert (math.inf in bounds) == (steep and "--eps" not in args)


@pytest.mark.parametrize("args", _TABLE_INPUTS, ids=" ".join)
def test_table_text_matches_the_general_writer(capsys, args):
    profile, radii = _table_profile(args)
    rows = [
        [r, w, profile.envelope_value(r), construct.decay_bound(profile, r)]
        for r, w in zip(radii, profile.values_on_grid(radii))
    ]
    table = cli._csv_text(["r", "w", "envelope", "bound"], rows)
    argv = ["construct", *args, "--format"]
    assert run(capsys, argv + ["csv"]) == (EXIT_OK, table, "")
    assert run(capsys, argv + ["text"]) == (EXIT_OK, f"delta = {profile.delta!r}\n" + table, "")
    code, out, err = run(capsys, argv + ["json"])
    assert code == EXIT_OK, err
    bounds = [row["bound"] for row in json.loads(out)["rows"]]
    assert bounds == [b if math.isfinite(b) else None for *_, b in rows]


# ---------------------------------------------------------------------------
# sweep


class TestSweep:
    def test_power_family_flips_at_critical(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--n", "4", "--p", "2", "--family", "power",
             "--start", "1.5", "--stop", "3.5", "--step", "0.25"],
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        verdicts = {float(r["param"]): r["verdict"] for r in rows}
        assert len(rows) == 9
        assert verdicts[2.0] == "diverges"
        assert verdicts[2.25] == "converges"
        # convergent rows carry the integral value and the profile sup
        row = next(r for r in rows if float(r["param"]) == 2.5)
        assert float(row["value"]) == pytest.approx(2.0, rel=1e-9)
        assert float(row["sup_w"]) == pytest.approx(1.0 / 24.0, rel=1e-6)
        # divergent rows leave them blank
        row = next(r for r in rows if float(r["param"]) == 2.0)
        assert row["value"] == "" and row["sup_w"] == ""

    def test_powerlog_family_flips_at_minus_one(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--n", "3", "--p", "2", "--family", "powerlog",
             "--start", "-2", "--stop", "0", "--step", "0.5"],
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        verdicts = {float(r["param"]): r["verdict"] for r in rows}
        assert verdicts[-1.5] == "converges"
        assert verdicts[-1.0] == "diverges"
        assert verdicts[0.0] == "diverges"
        row = next(r for r in rows if float(r["param"]) == -2.0)
        assert float(row["value"]) == pytest.approx(1.1898839703443498, rel=1e-9)

    def test_error_rows_are_reported_not_raised(self, capsys):
        # PowerLog(10, q) dips near zero, so the monotonicity gate
        # trips; the row records the message (comma-safe via quoting)
        code, out, _ = run(
            capsys,
            ["sweep", "--n", "3", "--p", "2", "--family", "powerlog",
             "--start", "10", "--stop", "10", "--step", "1"],
        )
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert rows[0]["verdict"] == "error"
        assert "check_monotonicity" in rows[0]["error"]

    def test_empty_range_yields_header_only(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--n", "4", "--p", "2", "--family", "power",
             "--start", "3", "--stop", "2", "--step", "0.5"],
        )
        assert code == EXIT_OK
        assert out == "param,verdict,value,sup_w,error\n"

    def test_json_schema_tag(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--n", "4", "--p", "2", "--family", "power",
             "--start", "2.5", "--stop", "2.5", "--step", "1", "--format", "json"],
        )
        payload = json.loads(out)
        assert payload["schema"] == "sweep-report/v1"
        assert payload["rows"][0]["verdict"] == "converges"

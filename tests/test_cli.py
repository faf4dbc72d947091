"""End-to-end command line tests, driven through ``main(argv)``."""

import csv
import io
import json
import math
import warnings
from pathlib import Path

import jsonschema
import pytest

from liouville import RadialProfile, cli, construct, criterion
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

from conftest import deadline, work_ledger

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
# _k7 on the table's 2048 + 640 panels but [0, s_0], on the outer fill's as
# many, and on the energy check's 567; _bisect on the table's, the outer
# fill's and the energy check's missed panels (none here) and on the flux
# check's 52 windows, its one integrate_intervals call; _ln_f on the gate's
# 256-point monotonicity grid, the table's three node blocks, the flux
# windows' 52 x 15 nodes, the supersolution check's 200 envelope and 200
# profile values, the gradient check's six origin nodes and the energy
# check's 568 + 5 x 567 nodes.  w on the grids and the terminal source
# integral take no panel.  construct: the same build, then its 200 rows.
_LEDGERS = [
    (
        ["verify", "--n", "3", "--p", "2", "--power", "4"],
        {
            "_k7": [2687, 2687, 567],
            "_bisect": [0, 0, 52, 0],
            "integrate_intervals": [52],
            "_ln_f": [256, 6144, 6144, 3840, 780, 400, 6, 3403],
        },
    ),
    (
        ["construct", "--n", "3", "--p", "2", "--power", "4"],
        {"_k7": [2687, 2687], "_bisect": [0, 0], "integrate_intervals": [], "_ln_f": [256, 6144, 6144, 3840]},
    ),
]


@pytest.mark.parametrize("argv, work", _LEDGERS, ids=["verify", "construct"])
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


def test_cancelling_form_fails_only_the_flux(capsys):
    # n=4 p=1.5 (exp(z)-1)*z^1.0 finishes; its flux defect at r = 100
    # delta, 3.4e-4, is the saturated-flux class that --power 2 shows too
    argv = ["verify", "--n", "4", "--p", "1.5", "--expr", "(exp(z)-1)*z^1.0"]
    with deadline(10.0), warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv)
    assert code == EXIT_FAIL, err
    assert "flux_identity: FAIL" in out
    assert out.count(": PASS") == 4 and "overall: FAIL" in out


@pytest.mark.parametrize(
    "args",
    [
        ["--n", "4", "--p", "1.05", "--power", "1.1"],
        ["--n", "8", "--p", "1.1", "--power", "0.5"],
        ["--n", "3", "--p", "1.02", "--power", "1.05"],
        ["--n", "4", "--p", "1.05", "--eps", "1e-10", "--power", "1.0677966101694916"],
    ],
    ids=" ".join,
)
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
    # fill its panel [0, s_0] at n = 6; all are halved on the batch.  Only
    # the flux fails, where I saturates
    argv = ["verify", "--n", n, "--p", p, "--power", "0.5"]
    with deadline(5), warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv)
    assert code == EXIT_FAIL, err
    assert "flux_identity: FAIL" in out and "did not converge" not in out
    assert out.count(": PASS") == 4 and "overall: FAIL" in out


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

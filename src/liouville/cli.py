"""Command line front end.

Four subcommands::

    liouville classify  --n 4 --p 2 --power 2.5
    liouville construct --n 3 --p 2 --power 4 --format csv
    liouville verify    --n 3 --p 2 --power 4 --format json
    liouville sweep     --n 4 --p 2 --family power --start 1.5 --stop 3.5 --step 0.25

Exit codes.  ``classify`` maps its verdict directly: 0 diverges,
1 converges, 2 inconclusive.  ``construct`` and ``verify`` return 0 on
success, 1 for divergent input or a failed verification, 2 for an
undecided classifier.  Errors use dedicated codes: 10 unsupported
regime (n <= p), 11 expression parse error, 12 a verification check
crashed while evaluating, 13 bad command line or other configuration
problems.  Argparse's own complaints are routed to 13 as well so code
2 stays unambiguous.

All output is deterministic: no timestamps, floats rendered with
``repr``, JSON keys sorted, LF line endings.  Reports carry a schema
tag (``verify-report/v1`` and friends); the JSON Schema for the verify
report ships in ``docs/verify_report.schema.json``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .construct import (
    DeltaSearchOptions,
    RadialProfile,
    decay_bound,
    find_delta,
    sup_profile,
)
from .criterion import (
    ClassifyOptions,
    CriterionVerdict,
    StructureParams,
    Verdict,
    classify,
    critical_exponent,
)
from .errors import (
    CliConfigError,
    CriterionUndecidedError,
    DivergentIntegralError,
    EvaluationError,
    LiouvilleError,
    ParseError,
    QuadratureError,
    UnsupportedRegimeError,
)
from .nonlinearity import Nonlinearity, Power, PowerLog, parse_nonlinearity
from .quadrature import DEFAULT_TOLERANCE, Tolerance
from .verify import verify_profile

__all__ = ["main", "build_parser"]

EXIT_DIVERGES = 0
EXIT_CONVERGES = 1
EXIT_INCONCLUSIVE = 2
EXIT_OK = 0
EXIT_FAIL = 1
EXIT_REGIME = 10
EXIT_PARSE = 11
EXIT_CHECK = 12
EXIT_CONFIG = 13

# construct's table: 200 log-spaced radii over [1e-6, 1e6] * delta
_GRID_LO = 1e-6
_GRID_HI = 1e6
_GRID_POINTS = 200

_MESSAGES = {
    Verdict.DIVERGES: "Liouville regime: every non-negative solution is identically zero",
    Verdict.CONVERGES: "Existence regime: a positive radial supersolution is constructible",
    Verdict.INCONCLUSIVE: "Inconclusive: could not certify either regime at this resolution",
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which would collide
    # with the inconclusive verdict; raise instead and let main() map
    # the problem to the configuration exit code.
    def error(self, message: str):  # noqa: D102
        raise CliConfigError(message)


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs, validated and immutable.  Its
    defaults are the command line's: options left unset are None in the
    parsed namespace and take them here."""

    command: str
    n: int
    p: float
    eps: float = StructureParams.eps
    power: Optional[float] = None
    powerlog: Optional[float] = None
    expr: Optional[str] = None
    allow_nonmonotone: bool = False
    delta0: float = DeltaSearchOptions.delta0
    delta: Optional[float] = None
    grid_lo: float = _GRID_LO
    grid_hi: float = _GRID_HI
    grid_points: int = _GRID_POINTS
    rel_tol: float = DEFAULT_TOLERANCE.rel
    abs_tol: float = DEFAULT_TOLERANCE.absolute
    fmt: str = "text"
    out: Optional[str] = None
    family: Optional[str] = None
    start: Optional[float] = None
    stop: Optional[float] = None
    step: Optional[float] = None


def _add_structure(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--n", type=int, required=True, help="space dimension")
    sp.add_argument("--p", type=float, required=True, help="operator exponent, p > 1")
    sp.add_argument("--eps", type=float, help=f"criterion endpoint (default {RunConfig.eps:g})")
    sp.add_argument("--rel-tol", type=float, help="relative tolerance")
    sp.add_argument("--abs-tol", type=float, help="absolute tolerance floor")


def _add_family(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--power", type=float, default=None, metavar="LAMBDA",
                    help="pure power z**LAMBDA")
    sp.add_argument("--powerlog", type=float, default=None, metavar="MU",
                    help="critical power times log(e + 1/z)**MU")
    sp.add_argument("--expr", type=str, default=None, metavar="TEXT",
                    help="expression in z, e.g. 'z^3 * log(e + 1/z)^(-2)'")
    sp.add_argument("--allow-nonmonotone", action="store_true",
                    help="waive the monotonicity probe")


def _add_output(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", dest="fmt", choices=("text", "json", "csv"),
                    help=f"output format (default {RunConfig.fmt})")
    sp.add_argument("--out", type=str, default=None,
                    help="write output to this file instead of stdout")


def _add_grid(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--delta0", type=float,
                    help=f"starting scale for the halving search (default {RunConfig.delta0:g})")
    sp.add_argument("--delta", type=float, default=None,
                    help="skip the search and use this scale directly")
    sp.add_argument("--grid-min", dest="grid_lo", type=float,
                    help=f"grid start, in units of delta (default {RunConfig.grid_lo:g})")
    sp.add_argument("--grid-max", dest="grid_hi", type=float,
                    help=f"grid end, in units of delta (default {RunConfig.grid_hi:g})")
    sp.add_argument("--grid-points", type=int,
                    help=f"number of grid radii (default {RunConfig.grid_points})")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="liouville",
                     description="Dichotomy test and explicit radial supersolutions.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", parents=[], help="decide the dichotomy")
    _add_structure(sp)
    _add_family(sp)
    _add_output(sp)

    sp = sub.add_parser("construct", help="build the profile and tabulate it")
    _add_structure(sp)
    _add_family(sp)
    _add_grid(sp)
    _add_output(sp)

    sp = sub.add_parser("verify", help="run the verification checks")
    _add_structure(sp)
    _add_family(sp)
    _add_grid(sp)
    _add_output(sp)

    sp = sub.add_parser("sweep", help="classify a family over a parameter range")
    _add_structure(sp)
    sp.add_argument("--family", choices=("power", "powerlog"), required=True)
    sp.add_argument("--start", type=float, required=True)
    sp.add_argument("--stop", type=float, required=True)
    sp.add_argument("--step", type=float, required=True)
    sp.add_argument("--delta0", type=float)
    _add_output(sp)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # one per process: building it costs more than a numeric classify
    return build_parser()


def _config(ns: argparse.Namespace) -> RunConfig:
    kwargs = {k: v for k, v in vars(ns).items() if v is not None or k in ("out",)}
    cfg = RunConfig(**{k: v for k, v in kwargs.items() if k in RunConfig.__dataclass_fields__})
    if cfg.command in ("classify", "construct", "verify"):
        chosen = sum(x is not None for x in (cfg.power, cfg.powerlog, cfg.expr))
        if chosen != 1:
            raise CliConfigError("exactly one of --power, --powerlog, --expr is required")
    if cfg.command == "sweep":
        if cfg.step is None or cfg.step <= 0:
            raise CliConfigError("--step must be positive")
    if cfg.command in ("construct", "verify"):
        if not 0.0 < cfg.grid_lo < cfg.grid_hi:
            raise CliConfigError("need 0 < --grid-min < --grid-max")
        if cfg.grid_points < 2:
            raise CliConfigError("--grid-points must be at least 2")
        if cfg.delta is not None and cfg.delta <= 0:
            raise CliConfigError("--delta must be positive")
    return cfg


def _tolerance(cfg: RunConfig) -> Tolerance:
    try:
        return Tolerance(rel=cfg.rel_tol, absolute=cfg.abs_tol)
    except ValueError as exc:
        raise CliConfigError(str(exc)) from None


def _make_f(cfg: RunConfig, q: float) -> Nonlinearity:
    if cfg.power is not None:
        return Power(cfg.power)
    if cfg.powerlog is not None:
        return PowerLog(mu=cfg.powerlog, power=q)
    assert cfg.expr is not None
    return parse_nonlinearity(cfg.expr)


def _describe_f(f: Nonlinearity) -> Dict[str, object]:
    if isinstance(f, Power):
        return {"kind": "power", "exponent": f.exponent}
    if isinstance(f, PowerLog):
        return {"kind": "power_log", "mu": f.mu, "power": f.power}
    return {"kind": "expression", "source": getattr(f, "source", repr(f))}


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _json_text(payload: dict) -> str:
    # strict JSON (RFC 8259): a non-finite float raises ValueError here
    # instead of writing NaN or Infinity, which no strict parser reads
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv_text(header: List[str], rows: List[List[object]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else (repr(v) if isinstance(v, float) else v) for v in row])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# classify


def _gate(f: Nonlinearity, params: StructureParams, cfg: RunConfig, tol: Tolerance) -> CriterionVerdict:
    # classify f with this command's monotonicity setting
    opts = ClassifyOptions(check_monotonicity=not cfg.allow_nonmonotone)
    return classify(f, params, opts, tol)


def cmd_classify(cfg: RunConfig) -> int:
    params = StructureParams(cfg.n, cfg.p, cfg.eps)
    q = critical_exponent(params)
    f = _make_f(cfg, q)
    verdict = _gate(f, params, cfg, _tolerance(cfg))

    payload = {
        "schema": "classify-report/v1",
        "command": "classify",
        "params": {"n": cfg.n, "p": cfg.p, "eps": cfg.eps},
        "nonlinearity": _describe_f(f),
        "critical_exponent": q,
        "verdict": verdict.verdict.value,
        "method": verdict.method,
        "value": verdict.value,
        "abs_error": verdict.abs_error,
        "slope": None,  # classify-report/v1 keeps the key; no slope is fitted
        "detail": verdict.detail,
        "message": _MESSAGES[verdict.verdict],
    }

    if cfg.fmt == "json":
        text = _json_text(payload)
    elif cfg.fmt == "csv":
        text = _csv_text(
            ["verdict", "method", "value", "abs_error"],
            [[verdict.verdict.value, verdict.method, verdict.value, verdict.abs_error]],
        )
    else:
        lines = [
            f"critical_exponent = {q!r}",
            f"verdict = {verdict.verdict.value}",
            f"method = {verdict.method}",
        ]
        if verdict.value is not None:
            lines.append(f"value = {verdict.value!r}")
        if verdict.abs_error is not None:
            lines.append(f"abs_error = {verdict.abs_error!r}")
        if verdict.detail:
            lines.append(f"detail = {verdict.detail}")
        lines.append(_MESSAGES[verdict.verdict])
        text = "\n".join(lines) + "\n"
    _emit(text, cfg.out)

    return {
        Verdict.DIVERGES: EXIT_DIVERGES,
        Verdict.CONVERGES: EXIT_CONVERGES,
        Verdict.INCONCLUSIVE: EXIT_INCONCLUSIVE,
    }[verdict.verdict]


# ---------------------------------------------------------------------------
# construct / verify share the setup


def _setup_profile(cfg: RunConfig) -> Tuple[Optional[RadialProfile], CriterionVerdict]:
    # the gate's verdict, and the profile (with its f, q, delta, tol) if f converges
    params = StructureParams(cfg.n, cfg.p, cfg.eps)
    f = _make_f(cfg, critical_exponent(params))
    tol = _tolerance(cfg)
    verdict = _gate(f, params, cfg, tol)
    if verdict.verdict is not Verdict.CONVERGES:
        return None, verdict
    if cfg.delta is not None:
        return RadialProfile(f, params, cfg.delta, tol), verdict
    # the gate above has classified f, with this command's monotonicity setting
    opts = DeltaSearchOptions(delta0=cfg.delta0, assume_convergent=True)
    return find_delta(f, params, opts, tol), verdict


def _refused(cfg: RunConfig, verdict: CriterionVerdict) -> int:
    # the early exit of construct and verify when the gate does not converge
    _emit(_MESSAGES[verdict.verdict] + "\n", cfg.out)
    sys.stderr.write(f"classify: {verdict.detail}\n")
    return EXIT_FAIL if verdict.verdict is Verdict.DIVERGES else EXIT_INCONCLUSIVE


def cmd_construct(cfg: RunConfig) -> int:
    profile, verdict = _setup_profile(cfg)
    if profile is None:
        return _refused(cfg, verdict)

    delta = profile.delta
    radii = [float(r) for r in np.geomspace(cfg.grid_lo * delta, cfg.grid_hi * delta, cfg.grid_points)]
    ws = profile.values_on_grid(radii)
    rows = [
        [r, w, profile.envelope_value(r), decay_bound(profile, r)]
        for r, w in zip(radii, ws)
    ]

    if cfg.fmt == "json":
        payload = {
            "schema": "construct-report/v1",
            "command": "construct",
            "params": {"n": cfg.n, "p": cfg.p, "eps": cfg.eps},
            "nonlinearity": _describe_f(profile.f),
            "critical_exponent": profile.q,
            "delta": delta,
            "rows": [
                {"r": r, "w": w, "envelope": e, "bound": b} for r, w, e, b in rows
            ],
        }
        text = _json_text(payload)
    elif cfg.fmt == "csv":
        text = _csv_text(["r", "w", "envelope", "bound"], rows)
    else:
        text = f"delta = {delta!r}\n" + _csv_text(["r", "w", "envelope", "bound"], rows)
    _emit(text, cfg.out)
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    profile, verdict = _setup_profile(cfg)
    if profile is None:
        return _refused(cfg, verdict)

    try:
        report = verify_profile(profile)
    except (QuadratureError, EvaluationError) as exc:
        sys.stderr.write(f"verification check failed to evaluate: {exc}\n")
        return EXIT_CHECK

    payload = {
        "schema": "verify-report/v1",
        "command": "verify",
        "params": {"n": cfg.n, "p": cfg.p, "eps": cfg.eps},
        "nonlinearity": _describe_f(profile.f),
        "critical_exponent": profile.q,
        "delta": profile.delta,
        "tolerance": {"rel": profile.tol.rel, "absolute": profile.tol.absolute},
        "checks": [
            {
                "name": c.name,
                "grid_size": c.grid_size,
                # null where the residual is not finite (an infinite spread)
                "worst_residual": c.worst_residual if math.isfinite(c.worst_residual) else None,
                "passed": c.passed,
                "detail": c.detail,
            }
            for c in report.checks
        ],
        "overall": report.overall,
    }

    if cfg.fmt == "json":
        text = _json_text(payload)
    elif cfg.fmt == "csv":
        text = _csv_text(
            ["name", "grid_size", "worst_residual", "passed"],
            [[c.name, c.grid_size, c.worst_residual, c.passed] for c in report.checks],
        )
    else:
        lines = [f"delta = {profile.delta!r}"]
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{c.name}: {status} (grid {c.grid_size}, worst {c.worst_residual!r})")
            lines.append(f"  {c.detail}")
        lines.append(f"overall: {'PASS' if report.overall else 'FAIL'}")
        text = "\n".join(lines) + "\n"
    _emit(text, cfg.out)
    return EXIT_OK if report.overall else EXIT_FAIL


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(cfg: RunConfig) -> int:
    params = StructureParams(cfg.n, cfg.p, cfg.eps)
    q = critical_exponent(params)
    tol = _tolerance(cfg)

    values: List[float] = []
    i = 0
    while True:
        v = round(cfg.start + i * cfg.step, 12)
        if v > cfg.stop + 1e-12:
            break
        values.append(v)
        i += 1

    rows: List[Dict[str, object]] = []
    for v in values:
        f: Nonlinearity = Power(v) if cfg.family == "power" else PowerLog(v, q)
        row: Dict[str, object] = {
            "param": v, "verdict": "", "value": None, "sup_w": None, "error": "",
        }
        try:
            verdict = classify(f, params, tol=tol)
            row["verdict"] = verdict.verdict.value
            if verdict.verdict is Verdict.CONVERGES:
                row["value"] = verdict.value
                opts = DeltaSearchOptions(delta0=cfg.delta0, assume_convergent=True)
                row["sup_w"] = sup_profile(find_delta(f, params, opts, tol))
        except LiouvilleError as exc:
            row["verdict"] = "error"
            row["error"] = str(exc)
        rows.append(row)

    if cfg.fmt == "json":
        payload = {
            "schema": "sweep-report/v1",
            "command": "sweep",
            "params": {"n": cfg.n, "p": cfg.p, "eps": cfg.eps},
            "family": cfg.family,
            "critical_exponent": q,
            "rows": rows,
        }
        text = _json_text(payload)
    else:
        # csv and text share the tabular form
        text = _csv_text(
            ["param", "verdict", "value", "sup_w", "error"],
            [[r["param"], r["verdict"], r["value"], r["sup_w"], r["error"]] for r in rows],
        )
    _emit(text, cfg.out)
    return EXIT_OK


_DISPATCH: Dict[str, Callable[[RunConfig], int]] = {
    "classify": cmd_classify,
    "construct": cmd_construct,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def main(argv: Optional[List[str]] = None) -> int:
    try:
        ns = _parser().parse_args(argv)
        cfg = _config(ns)
        return _DISPATCH[cfg.command](cfg)
    except UnsupportedRegimeError as exc:
        sys.stderr.write(f"unsupported regime: {exc}\n")
        return EXIT_REGIME
    except ParseError as exc:
        sys.stderr.write(f"expression error: {exc}\n")
        return EXIT_PARSE
    except CliConfigError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_CONFIG
    except (DivergentIntegralError, CriterionUndecidedError) as exc:
        # raised past the gates, e.g. by a forced --delta on divergent input
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL
    except (ValueError, LiouvilleError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

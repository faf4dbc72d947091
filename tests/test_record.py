"""The package's frozen records, a :class:`liouville._record.Record` or a
``NamedTuple``: each keeps the behaviour of the frozen dataclass it
replaced, and the numeric fields refuse a bool."""

import copy
import pickle

import numpy as np
import pytest

from liouville.cli import RunConfig
from liouville.construct import DeltaSearchOptions
from liouville.criterion import ClassifyOptions, CriterionVerdict, StructureParams, Verdict
from liouville.nonlinearity import (
    Bin,
    Call,
    Euler,
    Expression,
    MonotonicityReport,
    Neg,
    Num,
    Power,
    PowerLog,
    Var,
    parse_expression,
)
from liouville.quadrature import PanelResults, QuadratureResult, Tolerance
from liouville.verify import CheckResult, DeltaLimitReport, EnergyDiagnostic, VerificationReport

_CHECK = CheckResult("flux_identity", 13, 2.5e-09, True, "max relative residual")

# every record type: positional arguments, and its repr as the frozen
# dataclass wrote it
RECORDS = [
    (
        CheckResult,
        ("flux_identity", 13, 2.5e-09, True, "max relative residual"),
        "CheckResult(name='flux_identity', grid_size=13, worst_residual=2.5e-09, passed=True, "
        "detail='max relative residual')",
    ),
    (
        VerificationReport,
        ((_CHECK,), True),
        "VerificationReport(checks=(CheckResult(name='flux_identity', grid_size=13, worst_residual=2.5e-09, "
        "passed=True, detail='max relative residual'),), overall=True)",
    ),
    (
        EnergyDiagnostic,
        ((1.0, 2.0), (0.5, 1.5), (0.75, 0.8), True, 0.0625, True, "ratios within 7%"),
        "EnergyDiagnostic(radii=(1.0, 2.0), energies=(0.5, 1.5), ratios=(0.75, 0.8), nondecreasing=True, "
        "spread=0.0625, passed=True, detail='ratios within 7%')",
    ),
    (
        DeltaLimitReport,
        ((1.0, 0.5), (0.25, 0.0625), True, 0.0625, True, ""),
        "DeltaLimitReport(deltas=(1.0, 0.5), sups=(0.25, 0.0625), strictly_decreasing=True, final=0.0625, "
        "passed=True, detail='')",
    ),
    (
        QuadratureResult,
        (0.5, 1e-15, 3, True),
        "QuadratureResult(value=0.5, abs_error=1e-15, subdivisions=3, converged=True)",
    ),
    (
        PanelResults,
        (np.array([0.5, 0.25]), np.array([1e-16, 2e-16]), False),
        "PanelResults(values=array([0.5 , 0.25]), abs_errors=array([1.e-16, 2.e-16]), converged=False)",
    ),
    (Tolerance, (1e-09, 1e-13), "Tolerance(rel=1e-09, absolute=1e-13)"),
    (StructureParams, (3, 2.0, 0.5), "StructureParams(n=3, p=2.0, eps=0.5)"),
    (
        CriterionVerdict,
        (Verdict.CONVERGES, "analytic", 0.25, 1e-15, (-1.5, -3.0), "power exponent 4.0 > critical exponent 3.0"),
        "CriterionVerdict(verdict=<Verdict.CONVERGES: 'converges'>, method='analytic', value=0.25, "
        "abs_error=1e-15, shells=(-1.5, -3.0), detail='power exponent 4.0 > critical exponent 3.0')",
    ),
    (ClassifyOptions, (False, True), "ClassifyOptions(check_monotonicity=False, value=True)"),
    (DeltaSearchOptions, (0.5, True), "DeltaSearchOptions(delta0=0.5, assume_convergent=True)"),
    (
        MonotonicityReport,
        (False, 0.125, 0.25, 2.0, 1.5),
        "MonotonicityReport(monotone=False, zeta_lo=0.125, zeta_hi=0.25, value_lo=2.0, value_hi=1.5)",
    ),
    (
        RunConfig,
        ("classify", 3, 2.0, 1.0, 4.0),
        "RunConfig(command='classify', n=3, p=2.0, eps=1.0, power=4.0, powerlog=None, expr=None, "
        "allow_nonmonotone=False, delta0=1.0, delta=None, grid_lo=1e-06, grid_hi=1000000.0, grid_points=200, "
        "rel_tol=1e-10, abs_tol=1e-14, fmt='text', out=None, family=None, start=None, stop=None, step=None)",
    ),
    (Power, (4.0,), "Power(exponent=4.0)"),
    (PowerLog, (-2.0, 3.0), "PowerLog(mu=-2.0, power=3.0)"),
    (Expression, (parse_expression("z^3*log(e+1/z)^-2"),), "Expression('z^3.0*log(e+1.0/z)^-2.0')"),
    (Num, (2.5,), "Num(value=2.5)"),
    (Var, (), "Var()"),
    (Euler, (), "Euler()"),
    (Neg, (Var(),), "Neg(arg=Var())"),
    (Bin, ("+", Var(), Num(1.0)), "Bin(op='+', left=Var(), right=Num(value=1.0))"),
    (Call, ("log", Var()), "Call(fn='log', arg=Var())"),
]


def _same(a, b):
    # equal records, with array fields compared by value
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip((getattr(a, f) for f in a._fields), (getattr(b, f) for f in b._fields))
    )


@pytest.mark.parametrize("cls, args, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_behaves_as_its_frozen_dataclass(cls, args, text):
    fields, defaults = cls._fields, cls._field_defaults
    required = [f for f in fields if f not in defaults]
    x = cls(*args)
    assert repr(x) == text
    # by position, by keyword, both, and by default
    assert [getattr(x, f) for f in fields[: len(args)]] == list(args)
    assert _same(cls(**dict(zip(fields, args))), x)
    assert _same(cls(*args[:1], **dict(zip(fields[1:], args[1:]))), x)
    least = cls(*args[: len(required)])
    assert all(getattr(least, f) == d for f, d in defaults.items())
    # a missing, unknown, repeated or surplus argument
    if required:
        with pytest.raises(TypeError, match="missing"):
            cls(*args[: len(required) - 1])
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*args, bogus=1)
    if fields:
        with pytest.raises(TypeError, match="multiple values"):
            cls(*args, **{fields[0]: args[0]})
    with pytest.raises(TypeError, match="positional arguments"):
        cls(*args, *[None] * (len(fields) - len(args) + 1))
    # frozen
    for name in fields + ("undeclared",):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    # == only within the type, and hash
    y = cls(*args)
    assert x == y and not x != y
    assert x != tuple(args) and x != type(cls)("Sub", (cls,), {})(*args)
    if cls is PanelResults:
        with pytest.raises(TypeError, match="unhashable"):
            hash(x)
    else:
        assert hash(x) == hash(y)
    # a copy with changes, built and validated as a new record
    assert x._replace() == x and _same(x._replace(**dict(zip(fields, args))), x)
    with pytest.raises((TypeError, ValueError)):  # a NamedTuple's _replace raises ValueError
        x._replace(bogus=1)
    for copied in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert _same(copied, x)


def test_defaults_stay_class_attributes_where_the_cli_reads_them():
    for cls in (StructureParams, DeltaSearchOptions, RunConfig):
        assert all(getattr(cls, f) is d for f, d in cls._field_defaults.items())
    assert (StructureParams.eps, DeltaSearchOptions.delta0, RunConfig.grid_points) == (1.0, 1.0, 200)


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: StructureParams(True, 2.0), "n"),
        (lambda: StructureParams(3, True), "p"),
        (lambda: StructureParams(3, 2.0, eps=True), "eps"),
        (lambda: Tolerance(rel=True, absolute=1e-14), "rel"),
        (lambda: Tolerance(rel=1e-10, absolute=False), "absolute"),
        (lambda: Tolerance()._replace(rel=True), "rel"),
        (lambda: Power(True), "exponent"),
        (lambda: Power(False), "exponent"),
        (lambda: PowerLog(True, 3.0), "mu"),
        (lambda: PowerLog(-2.0, True), "power"),
        (lambda: DeltaSearchOptions(delta0=True), "delta0"),
    ],
)
def test_numeric_fields_reject_bool(make, name):
    with pytest.raises(ValueError, match=rf"^{name} must be .*, got (True|False)$"):
        make()


"""Liouville dichotomy tests and explicit radial supersolutions.

The package answers one question about the inequality
``-div(|grad u|**(p-2) grad u) >= f(u)`` on all of n-space with n > p:
does a small-argument integral condition on ``f`` force every
non-negative solution to vanish, or does it admit a positive radial
supersolution?  :func:`classify` decides, :class:`RadialProfile`
builds the witness in the second case, and :mod:`liouville.verify`
checks the witness numerically.
"""

from .construct import (
    DeltaSearchOptions,
    RadialProfile,
    change_of_variables_check,
    decay_bound,
    envelope,
    find_delta,
    sup_profile,
)
from .criterion import (
    ClassifyOptions,
    CriterionVerdict,
    StructureParams,
    Verdict,
    classify,
    criterion_integrand,
    criterion_value,
    critical_exponent,
)
from .errors import (
    CliConfigError,
    CriterionUndecidedError,
    DeltaSearchError,
    DivergentIntegralError,
    DomainError,
    EvalOverflow,
    EvaluationError,
    LiouvilleError,
    MonotonicityError,
    ParseError,
    QuadratureError,
    UnsupportedRegimeError,
)
from .nonlinearity import (
    Expression,
    MonotonicityReport,
    Nonlinearity,
    Power,
    PowerLog,
    check_monotone,
    parse_nonlinearity,
)
from .quadrature import (
    DEFAULT_TOLERANCE,
    PanelResults,
    QuadratureResult,
    Tolerance,
    integrate,
    integrate_intervals,
    integrate_to_infinity,
)
from .verify import (
    CheckResult,
    DeltaLimitReport,
    EnergyDiagnostic,
    VerificationReport,
    delta_limit_check,
    energy_diagnostic,
    flux_identity_check,
    gradient_decay_check,
    normalization_check,
    supersolution_check,
    verify_profile,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "LiouvilleError", "ParseError", "EvaluationError", "DomainError",
    "EvalOverflow", "MonotonicityError", "UnsupportedRegimeError",
    "QuadratureError", "DivergentIntegralError", "CriterionUndecidedError",
    "DeltaSearchError", "CliConfigError",
    # quadrature
    "Tolerance", "DEFAULT_TOLERANCE", "QuadratureResult", "PanelResults",
    "integrate", "integrate_intervals", "integrate_to_infinity",
    # nonlinearities
    "Nonlinearity", "Power", "PowerLog", "Expression", "parse_nonlinearity",
    "check_monotone", "MonotonicityReport",
    # criterion
    "StructureParams", "critical_exponent", "Verdict", "CriterionVerdict",
    "ClassifyOptions", "classify", "criterion_value", "criterion_integrand",
    # construction
    "envelope", "RadialProfile", "sup_profile",
    "change_of_variables_check", "decay_bound",
    "DeltaSearchOptions", "find_delta",
    # verification
    "CheckResult", "VerificationReport", "verify_profile",
    "flux_identity_check", "supersolution_check",
    "gradient_decay_check", "normalization_check",
    "EnergyDiagnostic", "energy_diagnostic",
    "DeltaLimitReport", "delta_limit_check",
]

"""Closed-form Laplace transforms of 2F2/3F3 hypergeometric integrands,
with extended summation theorems and independent numerical verification."""

from .errors import (DegenerateParameterError, DivergentSeriesError, HyperLapError,
                     IndeterminateError, InvalidBinding, NotSpecializable, PoleError,
                     SamplerExhausted, SeriesPoleError, SlowDecayError, ValidityError)
from .gammafn import GammaRatioSpec, gamma, gamma_ratio, ln_gamma, pochhammer
from .laplace import (LaplaceCase, LaplaceId, LaplaceIntegrand, SpecializationRule,
                      closed_form, closed_form_direct, lhs_integrand,
                      specialization_target, transform_rhs_series)
from .quadrature import IntegralResult, TailMethod, gamma_integral_check, laplace_numeric
from .reporting import CheckReport
from .series import (Convergence, ConvergenceClass, HyperSeriesSpec, SeriesResult,
                     classify, derivative_shift, eval_series)
from .summation import (ClosedFormBreakdown, DixonVariant, SummationId, check,
                        lhs_spec, rhs_closed_form, validity)
from .verifier import (ALL_IDENTITY_IDS, SamplerConfig, SuiteResult,
                       resolve_dixon_variant, run_suite, sample_valid)

__version__ = "0.1.0"

__all__ = [
    "ALL_IDENTITY_IDS", "CheckReport", "ClosedFormBreakdown", "Convergence",
    "ConvergenceClass", "DegenerateParameterError", "DivergentSeriesError",
    "DixonVariant", "GammaRatioSpec", "HyperLapError", "HyperSeriesSpec",
    "IndeterminateError", "IntegralResult", "InvalidBinding", "LaplaceCase",
    "LaplaceId", "LaplaceIntegrand", "NotSpecializable", "PoleError",
    "SamplerConfig", "SamplerExhausted", "SeriesPoleError", "SeriesResult", "SlowDecayError",
    "SpecializationRule", "SuiteResult", "SummationId", "TailMethod",
    "ValidityError", "check", "classify", "closed_form", "closed_form_direct",
    "derivative_shift", "eval_series", "gamma", "gamma_integral_check",
    "gamma_ratio", "laplace_numeric", "lhs_integrand", "lhs_spec", "ln_gamma",
    "pochhammer", "resolve_dixon_variant", "rhs_closed_form", "run_suite",
    "sample_valid", "specialization_target", "transform_rhs_series", "validity",
]

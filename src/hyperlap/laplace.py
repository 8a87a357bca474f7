"""Laplace-transform catalog for hypergeometric integrands.

Covers three layers:

* the general series-transform law
      integral_0^inf e^(-st) t^(v-1) pFq(wt) dt
          = Gamma(v) s^(-v) (p+1)Fq(v, a...; b...; w/s),
  valid for p <= q under the half-plane clauses of require_integral_exists;
* six classical closed-form transforms of 1F1 and 2F2 integrands;
* seven new closed-form transforms of 2F2 and 3F3 integrands carrying the
  extra d+1 / d parameter pair.

Every new entry equals Gamma(v) s^(-v) times the matching extended
summation theorem; that compositional route is canonical here, and an
independent verbatim transcription of each printed right-hand side is
kept alongside as a self-test (closed_form_direct).
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import InvalidBinding, NotSpecializable, ValidityError
from .gammafn import gamma, gamma_ratio, GammaRatioSpec
from .series import HyperSeriesSpec, _validated_order, eval_series, parametric_excess
from .summation import (ARGUMENT, REQUIRED_SYMBOLS, ClosedFormBreakdown, DixonVariant,
                        SummationId, _EVALUATE, _build, _complex_binding, _cpow,
                        _exclusion_clauses, _gamma_arguments, _Gammas, _raise_first_failing,
                        _series_parameters)

__all__ = [
    "LaplaceCase",
    "LaplaceId",
    "LaplaceIntegrand",
    "REQUIRED_LAPLACE_SYMBOLS",
    "SpecializationRule",
    "closed_form",
    "closed_form_direct",
    "lhs_integrand",
    "require_integral_exists",
    "specialization_target",
    "transform_rhs_series",
]

_CONSTRAINT_TOL = 1e-12


class LaplaceId(str, enum.Enum):
    # series-transform law entries (no gamma closed form)
    GENERAL = "general"
    LAP_1F1 = "lap_1f1"
    LAP_2F2 = "lap_2f2"
    LAP_3F3 = "lap_3f3"
    # classical closed forms
    GAUSS2_L = "gauss2"
    BAILEY_L = "bailey"
    KUMMER_L = "kummer"
    WATSON_L = "watson"
    DIXON_L = "dixon"
    WHIPPLE_L = "whipple"
    # new closed forms (extended d+1/d family)
    GAUSS2X_L = "gauss2x"
    BAILEYX_L = "baileyx"
    KUMMERX_L = "kummerx"
    WATSON1X_L = "watson1x"
    WATSON2X_L = "watson2x"
    DIXONX_L = "dixonx"
    WHIPPLEX_L = "whipplex"


CLASSICAL_IDS = (LaplaceId.GAUSS2_L, LaplaceId.BAILEY_L, LaplaceId.KUMMER_L,
                 LaplaceId.WATSON_L, LaplaceId.DIXON_L, LaplaceId.WHIPPLE_L)
NEW_IDS = (LaplaceId.GAUSS2X_L, LaplaceId.BAILEYX_L, LaplaceId.KUMMERX_L,
           LaplaceId.WATSON1X_L, LaplaceId.WATSON2X_L, LaplaceId.DIXONX_L,
           LaplaceId.WHIPPLEX_L)

# each new Laplace transform rides on the extended summation theorem of
# the same name
SUMMATION_OF: dict[LaplaceId, SummationId] = {
    lid: SummationId(lid.value) for lid in NEW_IDS}

REQUIRED_LAPLACE_SYMBOLS: dict[LaplaceId, tuple[str, ...]] = {
    LaplaceId.GAUSS2_L: ("a", "b"),
    LaplaceId.BAILEY_L: ("a", "c"),
    LaplaceId.KUMMER_L: ("a", "b"),
    LaplaceId.WATSON_L: ("a", "b", "c"),
    LaplaceId.DIXON_L: ("a", "b", "c"),
    LaplaceId.WHIPPLE_L: ("a", "b", "c", "d", "e"),
    **{lid: REQUIRED_SYMBOLS[sid] for lid, sid in SUMMATION_OF.items()},
}

# w as a multiple of s: the integrand argument is (w/s)*(st)
W_FACTOR: dict[LaplaceId, float] = {
    LaplaceId.GAUSS2_L: 0.5, LaplaceId.BAILEY_L: 0.5, LaplaceId.KUMMER_L: -1.0,
    LaplaceId.WATSON_L: 1.0, LaplaceId.DIXON_L: 1.0, LaplaceId.WHIPPLE_L: 1.0,
    **{lid: ARGUMENT[sid] for lid, sid in SUMMATION_OF.items()},
}

# the exponent v of the t^(v-1) factor, under the label that its
# Re(v)<=0 condition prints; entries not listed take v = c
_POWERS: dict[str, Callable[[dict], complex]] = {
    "b": lambda p: p["b"], "1-a": lambda p: 1 - p["a"], "c": lambda p: p["c"]}
_POWER_LABEL: dict[LaplaceId, str] = {
    LaplaceId.GAUSS2_L: "b", LaplaceId.GAUSS2X_L: "b",
    LaplaceId.KUMMER_L: "b", LaplaceId.KUMMERX_L: "b",
    LaplaceId.BAILEY_L: "1-a", LaplaceId.BAILEYX_L: "1-a",
}


@dataclass(frozen=True)
class LaplaceCase:
    """One cataloged transform at a concrete parameter binding and s."""

    id: LaplaceId
    params: dict
    s: complex

    def __post_init__(self):
        if self.id not in REQUIRED_LAPLACE_SYMBOLS:
            raise InvalidBinding(f"{self.id.value} is not a cataloged closed form")
        object.__setattr__(self, "params", _complex_binding(
            self.id.value, self.params, REQUIRED_LAPLACE_SYMBOLS[self.id]))
        s = complex(self.s)
        if not cmath.isfinite(s):
            raise InvalidBinding(f"{self.id.value}: s = {s} is not finite")
        object.__setattr__(self, "s", s)

    @functools.cached_property
    def power(self) -> complex:
        """Exponent v in the t^(v-1) factor, fixed by the identity."""
        return _power(self.id, self.params)

    @property
    def w(self) -> complex:
        return W_FACTOR[self.id] * self.s


@dataclass(frozen=True)
class LaplaceIntegrand:
    power: complex
    spec: HyperSeriesSpec  # argument field is a placeholder; integrand is spec at w*t
    w: complex


def _power(id: LaplaceId, p: dict) -> complex:
    """The exponent v of an entry; p holds a binding or columns of them."""
    return _POWERS[_POWER_LABEL.get(id, "c")](p)


def require_integral_exists(v: complex, s: complex, w: complex,
                            spec: HyperSeriesSpec) -> None:
    """Raise ValidityError unless integral_0^inf e^(-st) t^(v-1) pFq(wt) dt
    exists: (i) p <= q, Re(v) > 0 and Re(s) > 0; (ii) p = q, w != 0 also
    needs Re(s) > Re(w), or at s = w, Re(sum(b) - sum(a) - v) > 0.

    Both oracles, the series route and the quadrature, check these first."""
    _integral_exists(complex(v), complex(s), complex(w), spec.numerator, spec.denominator)


def _integral_exists(v: complex, s: complex, w: complex, numerator: Sequence[complex],
                     denominator: Sequence[complex]) -> None:
    """require_integral_exists on the series' parameters."""
    for name, x in (("v", v), ("s", s), ("w", w)):
        if not cmath.isfinite(x):
            raise ValidityError(f"{name} is not finite")
    p, q = len(numerator), len(denominator)
    if p > q:
        raise ValidityError("transform law requires p <= q")
    if v.real <= 0.0:
        raise ValidityError("Re(v)<=0")
    if s.real <= 0.0:
        raise ValidityError("Re(s)<=0")
    if p == q and w != 0.0:
        if abs(s - w) <= 1e-14 * abs(s):
            if (parametric_excess(numerator, denominator) - v).real <= 0.0:
                raise ValidityError("Re(sum(b)-sum(a)-v)<=0 at s=w")
        elif s.real <= w.real:
            raise ValidityError("Re(s)<=Re(w)")


def transform_rhs_series(v: complex, s: complex, w: complex,
                         spec: HyperSeriesSpec, tol: float = 1e-12) -> complex:
    """Gamma(v) s^(-v) (p+1)Fq(v, a...; b...; w/s) -- the series route,
    where the integral exists (require_integral_exists)."""
    return _transform_series(complex(v), complex(s), complex(w), spec.numerator,
                             spec.denominator, tol)


def _transform_series(v: complex, s: complex, w: complex, numerator: Sequence[complex],
                      denominator: Sequence[complex], tol: float) -> complex:
    """transform_rhs_series on the integrand series' parameters."""
    _integral_exists(v, s, w, numerator, denominator)
    value = eval_series(HyperSeriesSpec((v, *numerator), denominator, w / s), tol=tol)
    return gamma(v) * _cpow(s, -v) * value.value


def _case_series(case: LaplaceCase, tol: float) -> complex:
    """transform_rhs_series of lhs_integrand(case), whose parameters are screened
    as its series would be; only the summed series is built."""
    num, den = _integrand_parameters(case.id, case.params)
    _validated_order(num, den)
    return _transform_series(case.power, case.s, case.w, num, den, tol)


def lhs_integrand(case: LaplaceCase) -> LaplaceIntegrand:
    """t-power, inner series and w for the integral side of the identity.

    A new transform's inner series is the series of its sum (lhs_spec)
    with the numerator parameter v taken out, the other parameters kept
    in order; the transform law puts v back."""
    num, den = _integrand_parameters(case.id, case.params)
    return LaplaceIntegrand(case.power, HyperSeriesSpec(num, den, 1.0), case.w)


def _integrand_parameters(id: LaplaceId, p: dict) -> tuple[list, list]:
    """Numerator and denominator parameters of the integrand's series; p
    holds a binding or, for a classical entry, columns of them."""
    if id in SUMMATION_OF:
        num, den = _series_parameters(SUMMATION_OF[id], p)
        # the last match: v stands right before d+1, and a parameter equal
        # to v further left must keep its place
        del num[len(num) - 1 - num[::-1].index(_power(id, p))]
        return num, den
    return _CLASSICAL_PARAMETERS[id](*map(p.get, "abcde"))


_CLASSICAL_PARAMETERS: dict[LaplaceId, Callable[..., tuple[list, list]]] = {
    LaplaceId.GAUSS2_L: lambda a, b, c, d, e: ([a], [(a + b + 1) / 2]),
    LaplaceId.BAILEY_L: lambda a, b, c, d, e: ([a], [c]),
    LaplaceId.KUMMER_L: lambda a, b, c, d, e: ([a], [1 + a - b]),
    LaplaceId.WATSON_L: lambda a, b, c, d, e: ([a, b], [(a + b + 1) / 2, 2 * c]),
    LaplaceId.DIXON_L: lambda a, b, c, d, e: ([a, b], [1 + a - b, 1 + a - c]),
    LaplaceId.WHIPPLE_L: lambda a, b, c, d, e: ([a, b], [d, e]),
}


def _case_clauses(id: LaplaceId, p: dict, s: complex):
    """(error type, reason, violated) for each stated condition and inherited
    exclusion of an entry, in the order they are checked; violated is a bool
    for a binding and a row mask for columns of them."""
    yield ValidityError, "Re(s)<=0", s.real <= 0.0
    yield ValidityError, f"Re({_POWER_LABEL.get(id, 'c')})<=0", _power(id, p).real <= 0.0
    yield from _exclusion_clauses(id, p, degenerate=False)
    if id is LaplaceId.WHIPPLE_L:
        yield (ValidityError, "constraint a+b=1 violated",
               abs(p["a"] + p["b"] - 1.0) > _CONSTRAINT_TOL)
        yield (ValidityError, "constraint d+e=1+2c violated",
               abs(p["d"] + p["e"] - 1.0 - 2 * p["c"]) > _CONSTRAINT_TOL)
    yield from _exclusion_clauses(id, p, degenerate=True)


def _check_case_validity(case: LaplaceCase) -> None:
    """Raise on any violated stated condition or inherited exclusion."""
    _raise_first_failing(_case_clauses(case.id, case.params, case.s))


def _classical_term(id: LaplaceId, p: dict, gr: _Gammas) -> complex:
    """The printed gamma block of a classical entry, without Gamma(v) s^(-v);
    every gamma ratio and power goes through the evaluator gr."""
    a, b, c, d, e = map(p.get, "abcde")
    R = gr.ratio
    if id is LaplaceId.GAUSS2_L:
        return R([0.5, (a + b + 1) / 2], [(a + 1) / 2, (b + 1) / 2])
    if id is LaplaceId.BAILEY_L:
        return R([c / 2, (c + 1) / 2], [(a + c) / 2, (c - a + 1) / 2])
    if id is LaplaceId.KUMMER_L:
        return gr.power(2.0, -a) * R([0.5, 1 + a - b], [(a + 1) / 2, 1 + a / 2 - b])
    if id is LaplaceId.WATSON_L:
        return R([0.5, c + 0.5, (a + b + 1) / 2, c - (a + b - 1) / 2],
                 [(a + 1) / 2, (b + 1) / 2, c - (a - 1) / 2, c - (b - 1) / 2])
    if id is LaplaceId.DIXON_L:
        return R([1 + a / 2, 1 + a - b, 1 + a - c, 1 + a / 2 - b - c],
                 [1 + a, 1 + a / 2 - b, 1 + a / 2 - c, 1 + a - b - c])
    if id is LaplaceId.WHIPPLE_L:
        return math.pi * gr.power(2.0, 1 - 2 * c) * R(
            [d, e], [(a + d) / 2, (a + e) / 2, (b + d) / 2, (b + e) / 2])
    raise InvalidBinding(f"{id.value} has no classical transcription")


def closed_form(case: LaplaceCase,
                dixon_variant: DixonVariant = DixonVariant.HALF_A_MINUS_B,
                ) -> ClosedFormBreakdown:
    """Closed-form value of the transform.

    New entries go through the compositional route
    Gamma(v) s^(-v) * extended-summation closed form; classical entries
    are transcribed directly.
    """
    _check_case_validity(case)
    front = gamma(case.power) * _cpow(case.s, -case.power)
    if case.id in SUMMATION_OF:
        # the sum's closed form, already screened by _check_case_validity
        pre, t1, t2, alpha, beta = _build(SUMMATION_OF[case.id], case.params, _EVALUATE,
                                          dixon_variant)
        return ClosedFormBreakdown(front * pre, t1, t2, alpha, beta, front * (pre * (t1 + t2)))
    term = _classical_term(case.id, case.params, _EVALUATE)
    return ClosedFormBreakdown(front, term, complex(0.0), complex(0.0), complex(0.0),
                               front * term)


def closed_form_direct(case: LaplaceCase,
                       dixon_variant: DixonVariant = DixonVariant.HALF_A_MINUS_B,
                       ) -> ClosedFormBreakdown:
    """Verbatim transcription of the printed right-hand sides of the seven
    new transforms; self-test partner of the compositional route."""
    if case.id not in SUMMATION_OF:
        return closed_form(case, dixon_variant)
    _check_case_validity(case)
    p = case.params
    a, b, c, d, e = map(p.get, "abcde")
    s = case.s
    R = lambda num, den: gamma_ratio(GammaRatioSpec(num, den))
    alpha = beta = complex(0.0)
    if case.id is LaplaceId.GAUSS2X_L:
        pre = _cpow(s, -b) * R(
            [0.5, b, (a + b + 3) / 2, (a - b - 1) / 2], [(a - b + 3) / 2])
        t1 = ((a + b - 1) / 2 - a * b / d) * R([], [(a + 1) / 2, (b + 1) / 2])
        t2 = ((a + b + 1) / d - 2) * R([], [a / 2, b / 2])
    elif case.id is LaplaceId.BAILEYX_L:
        pre = _cpow(s, a - 1) * _cpow(2.0, -c) * R(
            [0.5, 1 - a, c + 1], [])
        t1 = (2 / d) * R([], [(a + c) / 2, (c - a + 1) / 2])
        t2 = (1 - c / d) * R([], [(a + c + 1) / 2, (c - a) / 2 + 1])
    elif case.id is LaplaceId.KUMMERX_L:
        pre = _cpow(s, -b) * R([0.5, b, 2 + a - b], []) \
            / (_cpow(2.0, a) * (1 - b))
        t1 = ((1 + a - b) / d - 1) * R([], [a / 2, a / 2 - b + 1.5])
        t2 = (1 - a / d) * R([], [(a + 1) / 2, 1 + a / 2 - b])
    elif case.id is LaplaceId.WATSON1X_L:
        pre = _cpow(s, -c) * _cpow(2.0, a + b - 2) * R(
            [c, c + 0.5, (a + b + 1) / 2, c - (a + b - 1) / 2], [0.5, a, b])
        t1 = R([a / 2, b / 2], [c - (a - 1) / 2, c - (b - 1) / 2])
        t2 = ((2 * c - d) / d) * R([(a + 1) / 2, (b + 1) / 2],
                                   [c - a / 2 + 1, c - b / 2 + 1])
    elif case.id is LaplaceId.WATSON2X_L:
        alpha = (a * (2 * c - a) + b * (2 * c - b) - 2 * c + 1
                 - (a * b / d) * (4 * c - a - b - 1))
        beta = 8 * ((a + b + 1) / (2 * d) - 1)
        pre = _cpow(s, -c) * _cpow(2.0, a + b - 2) * R(
            [c, c + 0.5, (a + b + 3) / 2, c - (a + b + 1) / 2], [0.5, a, b]) \
            / ((a - b - 1) * (a - b + 1))
        t1 = alpha * R([a / 2, b / 2], [c - (a - 1) / 2, c - (b - 1) / 2])
        t2 = beta * R([(a + 1) / 2, (b + 1) / 2], [c - a / 2, c - b / 2])
    elif case.id is LaplaceId.DIXONX_L:
        alpha = 1 - (1 + a - b) / d
        beta = ((1 + a - b) / (1 + a - b - c)
                * ((a / d) * (1 + a - b - 2 * c) - 2 * (1 + a / 2 - b - c)))
        pre = _cpow(s, -c) * _cpow(2.0, -a) * R([0.5, c], []) \
            / (b - 1)
        t1 = alpha * R([2 + a - b, 1 + a - c, a / 2 - b - c + 1.5],
                       [a / 2, 2 + a - b - c, a / 2 - c + 0.5, a / 2 - b + 1.5])
        second = (1 + a / 2 - b if dixon_variant is DixonVariant.HALF_A_MINUS_B
                  else 1 + a / 2 - c)
        t2 = (beta / 2) * R([1 + a - b, 1 + a - c, 1 + a / 2 - b - c],
                            [(a + 1) / 2, 1 + a - b - c, second, 1 + a / 2 - c])
    elif case.id is LaplaceId.WHIPPLEX_L:
        pre = _cpow(s, -c) * _cpow(2.0, -2 * a) * R(
            [c, e + 1, e - c, 2 * c - e + 1],
            [e - a + 1, e - c + 1, 2 * c - a - e + 1])
        t1 = (1 - (2 * c - e) / d) * R([(e - a) / 2 + 1, c - (a + e) / 2 + 0.5],
                                       [(a + e) / 2, c - (e - a) / 2 + 0.5])
        t2 = (e / d - 1) * R([(e - a + 1) / 2, c - (a + e) / 2 + 1],
                             [(a + e + 1) / 2, c - (e - a) / 2])
    else:
        raise InvalidBinding(f"unknown id {case.id}")
    return ClosedFormBreakdown(pre, t1, t2, alpha, beta, pre * (t1 + t2))


def case_gamma_arguments(case: LaplaceCase,
                         dixon_variant: DixonVariant = DixonVariant.HALF_A_MINUS_B,
                         ) -> tuple[list[complex], list[complex]]:
    """Every gamma argument in the closed form, split numerator/denominator,
    as recorded while building it: Gamma(v) first, then the gamma block.

    The sampler screens them for pole proximity (_case_gamma_arguments)."""
    num, den = _case_gamma_arguments(case.id, case.params, dixon_variant)
    return [complex(z) for z in num], [complex(z) for z in den]


def _case_gamma_arguments(id: LaplaceId, p: dict,
                          dixon_variant: DixonVariant = DixonVariant.HALF_A_MINUS_B,
                          ) -> tuple[list, list]:
    """case_gamma_arguments for a binding or for columns of them."""
    if id in SUMMATION_OF:
        num, den = _gamma_arguments(SUMMATION_OF[id], p, dixon_variant)
    else:
        gr = _Gammas(collect_only=True)
        _classical_term(id, p, gr)
        num, den = gr.numerator_args, gr.denominator_args
    return [_power(id, p)] + num, den


@dataclass(frozen=True)
class SpecializationRule:
    """The d substitution under which a new transform collapses to a
    classical one, plus the classical binding it then matches."""

    classical_id: LaplaceId
    # each takes parameters as complex values, or as columns of them
    d_value: Callable[[dict], complex]
    classical_params: Callable[[dict], dict]


_SPECIALIZATIONS: dict[LaplaceId, SpecializationRule] = {
    LaplaceId.GAUSS2X_L: SpecializationRule(
        LaplaceId.GAUSS2_L,
        lambda p: (p["a"] + p["b"] + 1) / 2,
        lambda p: {"a": p["a"], "b": p["b"]}),
    LaplaceId.BAILEYX_L: SpecializationRule(
        LaplaceId.BAILEY_L,
        lambda p: p["c"],
        lambda p: {"a": p["a"], "c": p["c"]}),
    LaplaceId.KUMMERX_L: SpecializationRule(
        LaplaceId.KUMMER_L,
        lambda p: 1 + p["a"] - p["b"],
        lambda p: {"a": p["a"], "b": p["b"]}),
    LaplaceId.WATSON1X_L: SpecializationRule(
        LaplaceId.WATSON_L,
        lambda p: 2 * p["c"],
        lambda p: {"a": p["a"], "b": p["b"], "c": p["c"]}),
    LaplaceId.WATSON2X_L: SpecializationRule(
        LaplaceId.WATSON_L,
        lambda p: (p["a"] + p["b"] + 1) / 2,
        lambda p: {"a": p["a"], "b": p["b"], "c": p["c"]}),
    LaplaceId.DIXONX_L: SpecializationRule(
        LaplaceId.DIXON_L,
        lambda p: 1 + p["a"] - p["b"],
        lambda p: {"a": p["a"], "b": p["b"], "c": p["c"]}),
    LaplaceId.WHIPPLEX_L: SpecializationRule(
        LaplaceId.WHIPPLE_L,
        lambda p: p["e"],
        lambda p: {"a": p["a"], "b": 1 - p["a"], "c": p["c"],
                   "d": 2 * p["c"] - p["e"] + 1, "e": p["e"]}),
}


def specialization_target(id: LaplaceId) -> SpecializationRule:
    """The classical entry a new transform reduces to, and at which d."""
    rule = _SPECIALIZATIONS.get(id)
    if rule is None:
        raise NotSpecializable(f"{id.value} is not one of the extended transforms")
    return rule

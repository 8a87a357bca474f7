"""Laplace-transform catalog for hypergeometric integrands.

Covers three layers:

* the general series-transform law
      integral_0^inf e^(-st) t^(v-1) pFq(wt) dt
          = Gamma(v) s^(-v) (p+1)Fq(v, a...; b...; w/s),
  valid for p <= q under the stated half-plane clauses;
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
import math
from dataclasses import dataclass
from typing import Callable

from .errors import InvalidBinding, NotSpecializable, ValidityError
from .gammafn import gamma, gamma_ratio, GammaRatioSpec
from .series import HyperSeriesSpec, eval_series
from .summation import (ARGUMENT, REQUIRED_SYMBOLS, ClosedFormBreakdown, DixonVariant,
                        SummationId, _build, _Gammas, lhs_spec, require_no_exclusion,
                        rhs_gamma_arguments)

__all__ = [
    "LaplaceCase",
    "LaplaceId",
    "LaplaceIntegrand",
    "REQUIRED_LAPLACE_SYMBOLS",
    "SpecializationRule",
    "closed_form",
    "closed_form_direct",
    "lhs_integrand",
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
        want = set(REQUIRED_LAPLACE_SYMBOLS[self.id])
        got = set(self.params)
        if got != want:
            raise InvalidBinding(
                f"{self.id.value} needs exactly symbols {sorted(want)}, got {sorted(got)}")
        object.__setattr__(self, "params",
                           {k: complex(v) for k, v in self.params.items()})
        object.__setattr__(self, "s", complex(self.s))

    @property
    def power_label(self) -> str:
        return _POWER_LABEL.get(self.id, "c")

    @property
    def power(self) -> complex:
        """Exponent v in the t^(v-1) factor, fixed by the identity."""
        return _POWERS[self.power_label](self.params)

    @property
    def w(self) -> complex:
        return W_FACTOR[self.id] * self.s


@dataclass(frozen=True)
class LaplaceIntegrand:
    power: complex
    spec: HyperSeriesSpec  # argument field is a placeholder; integrand is spec at w*t
    w: complex


def _principal_power(base: complex, expo: complex) -> complex:
    return cmath.exp(complex(expo) * cmath.log(complex(base)))


def transform_rhs_series(v: complex, s: complex, w: complex,
                         spec: HyperSeriesSpec, tol: float = 1e-12) -> complex:
    """Gamma(v) s^(-v) (p+1)Fq(v, a...; b...; w/s) -- the series route.

    Validity clauses: (i) p < q needs Re(v) > 0, Re(s) > 0, any w;
    (ii) p = q needs Re(s) > max(Re(w), 0); (iii) p = q with s = w needs
    Re(s) > 0 and Re(sum(b) - sum(a) - v) > 0.
    """
    v, s, w = complex(v), complex(s), complex(w)
    if spec.p > spec.q:
        raise ValidityError("transform law requires p <= q")
    if v.real <= 0.0:
        raise ValidityError("Re(v)<=0")
    if s.real <= 0.0:
        raise ValidityError("Re(s)<=0")
    if spec.p == spec.q and w != 0.0:
        if abs(s - w) <= 1e-14 * abs(s):
            excess = spec.excess() - v
            if excess.real <= 0.0:
                raise ValidityError("Re(sum(b)-sum(a)-v)<=0 at s=w")
        elif s.real <= w.real:
            raise ValidityError("Re(s)<=Re(w)")
    augmented = HyperSeriesSpec((v,) + spec.numerator, spec.denominator, w / s)
    value = eval_series(augmented, tol=tol)
    return gamma(v) * _principal_power(s, -v) * value.value


def lhs_integrand(case: LaplaceCase) -> LaplaceIntegrand:
    """t-power, inner series and w for the integral side of the identity.

    A new transform's inner series is the series of its sum (lhs_spec)
    with the numerator parameter v taken out, the other parameters kept
    in order; the transform law puts v back."""
    if case.id in SUMMATION_OF:
        series = lhs_spec(SUMMATION_OF[case.id], case.params)
        num = list(series.numerator)
        # the last match: v stands right before d+1, and a parameter equal
        # to v further left must keep its place
        del num[len(num) - 1 - num[::-1].index(case.power)]
        return LaplaceIntegrand(case.power, HyperSeriesSpec(num, series.denominator, 1.0),
                                case.w)
    p = case.params
    a = p.get("a")
    b = p.get("b")
    c = p.get("c")
    d = p.get("d")
    e = p.get("e")
    table: dict[LaplaceId, Callable[[], tuple]] = {
        LaplaceId.GAUSS2_L: lambda: ([a], [(a + b + 1) / 2]),
        LaplaceId.BAILEY_L: lambda: ([a], [c]),
        LaplaceId.KUMMER_L: lambda: ([a], [1 + a - b]),
        LaplaceId.WATSON_L: lambda: ([a, b], [(a + b + 1) / 2, 2 * c]),
        LaplaceId.DIXON_L: lambda: ([a, b], [1 + a - b, 1 + a - c]),
        LaplaceId.WHIPPLE_L: lambda: ([a, b], [d, e]),
    }
    num, den = table[case.id]()
    return LaplaceIntegrand(case.power, HyperSeriesSpec(num, den, 1.0), case.w)


def _check_case_validity(case: LaplaceCase) -> None:
    """Raise on any violated stated condition or inherited exclusion."""
    p = case.params
    if case.s.real <= 0.0:
        raise ValidityError("Re(s)<=0")
    if case.power.real <= 0.0:
        raise ValidityError(f"Re({case.power_label})<=0")
    require_no_exclusion(case.id, p, degenerate=False)
    if case.id is LaplaceId.WHIPPLE_L:
        if abs(p["a"] + p["b"] - 1.0) > _CONSTRAINT_TOL:
            raise ValidityError("constraint a+b=1 violated")
        if abs(p["d"] + p["e"] - 1.0 - 2 * p["c"]) > _CONSTRAINT_TOL:
            raise ValidityError("constraint d+e=1+2c violated")
    require_no_exclusion(case.id, p, degenerate=True)


def _classical_term(case: LaplaceCase, gr: _Gammas) -> complex:
    """The printed gamma block of a classical entry, without Gamma(v) s^(-v);
    every gamma ratio goes through the recording evaluator gr."""
    p = case.params
    a = p.get("a")
    b = p.get("b")
    c = p.get("c")
    d = p.get("d")
    e = p.get("e")
    R = gr.ratio
    if case.id is LaplaceId.GAUSS2_L:
        return R([0.5, (a + b + 1) / 2], [(a + 1) / 2, (b + 1) / 2])
    if case.id is LaplaceId.BAILEY_L:
        return R([c / 2, (c + 1) / 2], [(a + c) / 2, (c - a + 1) / 2])
    if case.id is LaplaceId.KUMMER_L:
        return _principal_power(2.0, -a) * R([0.5, 1 + a - b], [(a + 1) / 2, 1 + a / 2 - b])
    if case.id is LaplaceId.WATSON_L:
        return R([0.5, c + 0.5, (a + b + 1) / 2, c - (a + b - 1) / 2],
                 [(a + 1) / 2, (b + 1) / 2, c - (a - 1) / 2, c - (b - 1) / 2])
    if case.id is LaplaceId.DIXON_L:
        return R([1 + a / 2, 1 + a - b, 1 + a - c, 1 + a / 2 - b - c],
                 [1 + a, 1 + a / 2 - b, 1 + a / 2 - c, 1 + a - b - c])
    if case.id is LaplaceId.WHIPPLE_L:
        return math.pi * _principal_power(2.0, 1 - 2 * c) * R(
            [d, e], [(a + d) / 2, (a + e) / 2, (b + d) / 2, (b + e) / 2])
    raise InvalidBinding(f"{case.id.value} has no classical transcription")


def closed_form(case: LaplaceCase,
                dixon_variant: DixonVariant = DixonVariant.HALF_A_MINUS_B,
                ) -> ClosedFormBreakdown:
    """Closed-form value of the transform.

    New entries go through the compositional route
    Gamma(v) s^(-v) * extended-summation closed form; classical entries
    are transcribed directly.
    """
    _check_case_validity(case)
    front = gamma(case.power) * _principal_power(case.s, -case.power)
    if case.id in SUMMATION_OF:
        # the sum's closed form, already screened by _check_case_validity
        pre, t1, t2, alpha, beta = _build(SUMMATION_OF[case.id], case.params, _Gammas(),
                                          dixon_variant)
        return ClosedFormBreakdown(front * pre, t1, t2, alpha, beta, front * (pre * (t1 + t2)))
    term = _classical_term(case, _Gammas())
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
    a = p.get("a")
    b = p.get("b")
    c = p.get("c")
    d = p.get("d")
    e = p.get("e")
    s = case.s
    R = lambda num, den: gamma_ratio(GammaRatioSpec(num, den))
    zero = complex(0.0)

    if case.id is LaplaceId.GAUSS2X_L:
        pre = _principal_power(s, -b) * R(
            [0.5, b, (a + b + 3) / 2, (a - b - 1) / 2], [(a - b + 3) / 2])
        t1 = ((a + b - 1) / 2 - a * b / d) * R([], [(a + 1) / 2, (b + 1) / 2])
        t2 = ((a + b + 1) / d - 2) * R([], [a / 2, b / 2])
        return ClosedFormBreakdown(pre, t1, t2, zero, zero, pre * (t1 + t2))

    if case.id is LaplaceId.BAILEYX_L:
        pre = _principal_power(s, a - 1) * _principal_power(2.0, -c) * R(
            [0.5, 1 - a, c + 1], [])
        t1 = (2 / d) * R([], [(a + c) / 2, (c - a + 1) / 2])
        t2 = (1 - c / d) * R([], [(a + c + 1) / 2, (c - a) / 2 + 1])
        return ClosedFormBreakdown(pre, t1, t2, zero, zero, pre * (t1 + t2))

    if case.id is LaplaceId.KUMMERX_L:
        pre = _principal_power(s, -b) * R([0.5, b, 2 + a - b], []) \
            / (_principal_power(2.0, a) * (1 - b))
        t1 = ((1 + a - b) / d - 1) * R([], [a / 2, a / 2 - b + 1.5])
        t2 = (1 - a / d) * R([], [(a + 1) / 2, 1 + a / 2 - b])
        return ClosedFormBreakdown(pre, t1, t2, zero, zero, pre * (t1 + t2))

    if case.id is LaplaceId.WATSON1X_L:
        pre = _principal_power(s, -c) * _principal_power(2.0, a + b - 2) * R(
            [c, c + 0.5, (a + b + 1) / 2, c - (a + b - 1) / 2], [0.5, a, b])
        t1 = R([a / 2, b / 2], [c - (a - 1) / 2, c - (b - 1) / 2])
        t2 = ((2 * c - d) / d) * R([(a + 1) / 2, (b + 1) / 2],
                                   [c - a / 2 + 1, c - b / 2 + 1])
        return ClosedFormBreakdown(pre, t1, t2, zero, zero, pre * (t1 + t2))

    if case.id is LaplaceId.WATSON2X_L:
        alpha = (a * (2 * c - a) + b * (2 * c - b) - 2 * c + 1
                 - (a * b / d) * (4 * c - a - b - 1))
        beta = 8 * ((a + b + 1) / (2 * d) - 1)
        pre = _principal_power(s, -c) * _principal_power(2.0, a + b - 2) * R(
            [c, c + 0.5, (a + b + 3) / 2, c - (a + b + 1) / 2], [0.5, a, b]) \
            / ((a - b - 1) * (a - b + 1))
        t1 = alpha * R([a / 2, b / 2], [c - (a - 1) / 2, c - (b - 1) / 2])
        t2 = beta * R([(a + 1) / 2, (b + 1) / 2], [c - a / 2, c - b / 2])
        return ClosedFormBreakdown(pre, t1, t2, alpha, beta, pre * (t1 + t2))

    if case.id is LaplaceId.DIXONX_L:
        alpha = 1 - (1 + a - b) / d
        beta = ((1 + a - b) / (1 + a - b - c)
                * ((a / d) * (1 + a - b - 2 * c) - 2 * (1 + a / 2 - b - c)))
        pre = _principal_power(s, -c) * _principal_power(2.0, -a) * R([0.5, c], []) \
            / (b - 1)
        t1 = alpha * R([2 + a - b, 1 + a - c, a / 2 - b - c + 1.5],
                       [a / 2, 2 + a - b - c, a / 2 - c + 0.5, a / 2 - b + 1.5])
        second = (1 + a / 2 - b if dixon_variant is DixonVariant.HALF_A_MINUS_B
                  else 1 + a / 2 - c)
        t2 = (beta / 2) * R([1 + a - b, 1 + a - c, 1 + a / 2 - b - c],
                            [(a + 1) / 2, 1 + a - b - c, second, 1 + a / 2 - c])
        return ClosedFormBreakdown(pre, t1, t2, alpha, beta, pre * (t1 + t2))

    if case.id is LaplaceId.WHIPPLEX_L:
        pre = _principal_power(s, -c) * _principal_power(2.0, -2 * a) * R(
            [c, e + 1, e - c, 2 * c - e + 1],
            [e - a + 1, e - c + 1, 2 * c - a - e + 1])
        t1 = (1 - (2 * c - e) / d) * R([(e - a) / 2 + 1, c - (a + e) / 2 + 0.5],
                                       [(a + e) / 2, c - (e - a) / 2 + 0.5])
        t2 = (e / d - 1) * R([(e - a + 1) / 2, c - (a + e) / 2 + 1],
                             [(a + e + 1) / 2, c - (e - a) / 2])
        return ClosedFormBreakdown(pre, t1, t2, zero, zero, pre * (t1 + t2))

    raise InvalidBinding(f"unknown id {case.id}")


def case_gamma_arguments(case: LaplaceCase,
                         dixon_variant: DixonVariant = DixonVariant.HALF_A_MINUS_B,
                         ) -> tuple[list[complex], list[complex]]:
    """Every gamma argument in the closed form, split numerator/denominator,
    as recorded while building it: Gamma(v) first, then the gamma block.

    Used by the sampler to keep drawn bindings away from gamma poles."""
    if case.id in SUMMATION_OF:
        num, den = rhs_gamma_arguments(SUMMATION_OF[case.id], case.params, dixon_variant)
    else:
        gr = _Gammas(collect_only=True)
        _classical_term(case, gr)
        num, den = gr.numerator_args, gr.denominator_args
    return [case.power] + num, den


@dataclass(frozen=True)
class SpecializationRule:
    """The d substitution under which a new transform collapses to a
    classical one, plus the classical binding it then matches."""

    classical_id: LaplaceId
    d_formula: str
    _d_value: Callable[[dict], complex]
    _classical_params: Callable[[dict], dict]

    def d_value(self, params: dict) -> complex:
        return self._d_value({k: complex(v) for k, v in params.items()})

    def classical_params(self, params: dict) -> dict:
        return self._classical_params({k: complex(v) for k, v in params.items()})


_SPECIALIZATIONS: dict[LaplaceId, SpecializationRule] = {
    LaplaceId.GAUSS2X_L: SpecializationRule(
        LaplaceId.GAUSS2_L, "(a+b+1)/2",
        lambda p: (p["a"] + p["b"] + 1) / 2,
        lambda p: {"a": p["a"], "b": p["b"]}),
    LaplaceId.BAILEYX_L: SpecializationRule(
        LaplaceId.BAILEY_L, "c",
        lambda p: p["c"],
        lambda p: {"a": p["a"], "c": p["c"]}),
    LaplaceId.KUMMERX_L: SpecializationRule(
        LaplaceId.KUMMER_L, "1+a-b",
        lambda p: 1 + p["a"] - p["b"],
        lambda p: {"a": p["a"], "b": p["b"]}),
    LaplaceId.WATSON1X_L: SpecializationRule(
        LaplaceId.WATSON_L, "2c",
        lambda p: 2 * p["c"],
        lambda p: {"a": p["a"], "b": p["b"], "c": p["c"]}),
    LaplaceId.WATSON2X_L: SpecializationRule(
        LaplaceId.WATSON_L, "(a+b+1)/2",
        lambda p: (p["a"] + p["b"] + 1) / 2,
        lambda p: {"a": p["a"], "b": p["b"], "c": p["c"]}),
    LaplaceId.DIXONX_L: SpecializationRule(
        LaplaceId.DIXON_L, "1+a-b",
        lambda p: 1 + p["a"] - p["b"],
        lambda p: {"a": p["a"], "b": p["b"], "c": p["c"]}),
    LaplaceId.WHIPPLEX_L: SpecializationRule(
        LaplaceId.WHIPPLE_L, "e",
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

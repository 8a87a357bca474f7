"""Extended summation theorems: series builders and gamma closed forms.

Seven two-term closed forms for 3F2(1/2), 3F2(-1) and 4F3(1) carrying an
extra numerator parameter d+1 over a denominator parameter d.  Each right
hand side is a prefactor times a brace of two gamma-ratio terms, some with
rational coefficients alpha and beta; every one reduces to a classical
summation theorem at a distinguished value of d.

The closed forms are transcribed term by term; rhs_closed_form evaluates
them, validity() screens parameter bindings against the stated conditions
and degenerate exclusions (the EXCLUSIONS table, shared with the Laplace
catalog), pole proximity and series convergence, and check() compares a
closed form against the direct series oracle.  The screen's rules also run
on columns of bindings (_screen_rows), for the sampler's candidate blocks.
"""

from __future__ import annotations

import cmath
import enum
import functools
from dataclasses import dataclass
from itertools import chain
from typing import Callable

import numpy as np

from .errors import DegenerateParameterError, InvalidBinding, SeriesPoleError, ValidityError
from .gammafn import POLE_TOL, gamma_ratio, GammaRatioSpec, nearest_pole_distance
from .reporting import CheckReport, Sides, compare, series_tolerance
from .series import HyperSeriesSpec, classify, converges, eval_series, parametric_excess

__all__ = [
    "ARGUMENT",
    "EXCLUSIONS",
    "ClosedFormBreakdown",
    "DixonVariant",
    "Exclusion",
    "REQUIRED_SYMBOLS",
    "SummationId",
    "check",
    "lhs_spec",
    "require_no_exclusion",
    "rhs_closed_form",
    "rhs_gamma_arguments",
    "validity",
]

# exact-degeneracy detection; sampler margins are much wider
_DEGENERATE_TOL = 1e-12


class SummationId(str, enum.Enum):
    GAUSS2X = "gauss2x"
    BAILEYX = "baileyx"
    KUMMERX = "kummerx"
    WATSON1X = "watson1x"
    WATSON2X = "watson2x"
    DIXONX = "dixonx"
    WHIPPLEX = "whipplex"


class DixonVariant(str, enum.Enum):
    """The two printed readings of the second-term denominator in the
    dixonx closed form; they differ in a single gamma factor.

    HALF_A_MINUS_B carries Gamma(1 + a/2 - b) Gamma(1 + a/2 - c);
    HALF_A_MINUS_C_TWICE carries Gamma(1 + a/2 - c) twice.  Which one is
    consistent is settled numerically by verifier.resolve_dixon_variant.
    """

    HALF_A_MINUS_B = "half_a_minus_b"
    HALF_A_MINUS_C_TWICE = "half_a_minus_c_twice"


REQUIRED_SYMBOLS: dict[SummationId, tuple[str, ...]] = {
    SummationId.GAUSS2X: ("a", "b", "d"),
    SummationId.BAILEYX: ("a", "c", "d"),
    SummationId.KUMMERX: ("a", "b", "d"),
    SummationId.WATSON1X: ("a", "b", "c", "d"),
    SummationId.WATSON2X: ("a", "b", "c", "d"),
    SummationId.DIXONX: ("a", "b", "c", "d"),
    SummationId.WHIPPLEX: ("a", "c", "d", "e"),
}

# the argument z of each sum's series; a Laplace entry built on the sum
# takes w = z * s
ARGUMENT: dict[SummationId, float] = {
    SummationId.GAUSS2X: 0.5,
    SummationId.BAILEYX: 0.5,
    SummationId.KUMMERX: -1.0,
    SummationId.WATSON1X: 1.0,
    SummationId.WATSON2X: 1.0,
    SummationId.DIXONX: 1.0,
    SummationId.WHIPPLEX: 1.0,
}


@dataclass(frozen=True)
class Exclusion:
    """One excluded region of the parameter space.

    ``ids`` are identity values: SummationId and LaplaceId are str enums,
    and a Laplace entry built on a sum carries the sum's value, so one row
    covers both.  A degeneracy (``bound`` None) excludes |expression| <= tol,
    a stated condition excludes Re(expression) <= bound.
    """

    ids: tuple[str, ...]
    expression: Callable[[dict], complex]  # on a binding, or on columns of them
    reason: str
    bound: float | None = None

    def excludes(self, p: dict, tol: float) -> bool:
        value = self.expression(p)
        if self.bound is None:
            return abs(value) <= tol
        return value.real <= self.bound


EXCLUSIONS: tuple[Exclusion, ...] = (
    Exclusion(("kummerx", "dixonx"), lambda p: p["b"] - 1.0, "degenerate b=1"),
    Exclusion(("dixonx",), lambda p: 1 + p["a"] - p["b"] - p["c"],
              "degenerate 1+a-b-c=0"),
    Exclusion(("watson2x",), lambda p: p["a"] - p["b"] - 1.0, "degenerate a-b=1"),
    Exclusion(("watson2x",), lambda p: p["a"] - p["b"] + 1.0, "degenerate a-b=-1"),
    Exclusion(tuple(sid.value for sid in SummationId), lambda p: p["d"],
              "Re(d)<=0", 0.0),
    Exclusion(("watson1x", "watson2x", "watson"),
              lambda p: 2 * p["c"] - p["a"] - p["b"], "Re(2c-a-b)<=-1", -1.0),
    Exclusion(("dixonx", "dixon"), lambda p: p["a"] - 2 * p["b"] - 2 * p["c"],
              "Re(a-2b-2c)<=-2", -2.0),
    Exclusion(("whipplex",), lambda p: p["c"], "Re(c)<=0", 0.0),
)


@dataclass(frozen=True)
class ClosedFormBreakdown:
    """prefactor * (term1 + term2), with the rational alpha/beta exposed
    for the two identities that use them (0 elsewhere)."""

    prefactor: complex
    term1: complex
    term2: complex
    alpha: complex
    beta: complex
    value: complex


def _complex_binding(name: str, params: dict, symbols: tuple[str, ...]) -> dict[str, complex]:
    """params as complex numbers; InvalidBinding unless they bind exactly
    the symbols, each to a finite value."""
    if params.keys() != set(symbols):
        raise InvalidBinding(f"{name} needs exactly symbols {sorted(symbols)}, "
                             f"got {sorted(params)}")
    p = {k: complex(v) for k, v in params.items()}
    for sym, value in p.items():
        if not cmath.isfinite(value):
            raise InvalidBinding(f"{name}: {sym} = {value} is not finite")
    return p


def _binding(id: SummationId, params: dict) -> dict[str, complex]:
    return _complex_binding(id.value, params, REQUIRED_SYMBOLS[id])


def lhs_spec(id: SummationId, params: dict) -> HyperSeriesSpec:
    """The exact series whose sum the closed form claims."""
    num, den = _series_parameters(id, _binding(id, params))
    return HyperSeriesSpec(num, den, ARGUMENT[id])


def _series_parameters(id: SummationId, p: dict) -> tuple[list, list]:
    """Numerator and denominator parameters of the sum's series; p holds a
    binding or columns of bindings."""
    return _SERIES_PARAMETERS[id](*map(p.get, "abcde"))


_SERIES_PARAMETERS: dict[SummationId, Callable[..., tuple[list, list]]] = {
    SummationId.GAUSS2X: lambda a, b, c, d, e: ([a, b, d + 1], [(a + b + 3) / 2, d]),
    SummationId.BAILEYX: lambda a, b, c, d, e: ([a, 1 - a, d + 1], [c + 1, d]),
    SummationId.KUMMERX: lambda a, b, c, d, e: ([a, b, d + 1], [2 + a - b, d]),
    SummationId.WATSON1X: lambda a, b, c, d, e: ([a, b, c, d + 1],
                                                 [(a + b + 1) / 2, 2 * c + 1, d]),
    SummationId.WATSON2X: lambda a, b, c, d, e: ([a, b, c, d + 1], [(a + b + 3) / 2, 2 * c, d]),
    SummationId.DIXONX: lambda a, b, c, d, e: ([a, b, c, d + 1], [2 + a - b, 1 + a - c, d]),
    SummationId.WHIPPLEX: lambda a, b, c, d, e: ([a, 1 - a, c, d + 1],
                                                 [e + 1, 2 * c - e + 1, d]),
}


class _Gammas:
    """Gamma-ratio evaluator of the closed forms.

    ``collect_only`` evaluates nothing, neither the gamma ratios nor the
    2^x prefactors, and records every gamma argument it is handed:
    validity() screens the arguments for pole proximity without tripping
    PoleError first, and the sampler collects them from columns of
    bindings.
    """

    def __init__(self, collect_only: bool = False):
        self.collect_only = collect_only
        self.numerator_args: list = []
        self.denominator_args: list = []

    def ratio(self, num, den) -> complex:
        if not self.collect_only:
            return gamma_ratio(GammaRatioSpec(num, den))
        self.numerator_args.extend(num)
        self.denominator_args.extend(den)
        return complex(1.0)

    def power(self, base, expo) -> complex:
        """The principal-branch power of a prefactor."""
        if self.collect_only:
            return complex(1.0)
        return _cpow(base, expo)


# the closed forms' evaluator: it records nothing, so one serves every call
_EVALUATE = _Gammas()


def _cpow(base: complex, expo: complex) -> complex:
    """Principal-branch power base**expo."""
    return cmath.exp(complex(expo) * cmath.log(complex(base)))


@functools.lru_cache(maxsize=None)
def _exclusion_rows(ident: str, degenerate: bool) -> tuple[Exclusion, ...]:
    """The EXCLUSIONS rows of one kind that name ident, in table order."""
    return tuple(row for row in EXCLUSIONS
                 if ident in row.ids and (row.bound is None) == degenerate)


def _exclusion_clauses(ident: str, p: dict, degenerate: bool, margin: float | None = None):
    """(error type, reason, excluded) for each EXCLUSIONS row of the given
    kind (degeneracy or stated condition) that names ident, in table order;
    excluded is a bool for a binding p and a row mask for columns of them.
    A degeneracy is exact within _DEGENERATE_TOL; with a margin the
    degeneracies follow once more, widened to it and marked " (margin)"."""
    error = DegenerateParameterError if degenerate else ValidityError
    rows = _exclusion_rows(ident, degenerate)
    for row in rows:
        yield error, row.reason, row.excludes(p, _DEGENERATE_TOL)
    if degenerate and margin is not None:
        for row in rows:
            yield error, row.reason + " (margin)", row.excludes(p, margin)


def _first_failing(clauses) -> tuple[type, str] | None:
    """(error type, reason) of the first clause that excludes a binding."""
    for error, reason, excluded in clauses:
        if excluded:
            return error, reason
    return None


def _raise_first_failing(clauses) -> None:
    """Raise the error of the first clause that excludes a binding."""
    failing = _first_failing(clauses)
    if failing is not None:
        raise failing[0](failing[1])


def _clauses_hold(clauses):
    """Row mask of the columns of bindings that no clause excludes."""
    ok = True
    for _error, _reason, excluded in clauses:
        ok = ok & np.logical_not(excluded)
    return ok


def require_no_exclusion(ident: str, p: dict, degenerate: bool) -> None:
    """Raise DegenerateParameterError or ValidityError for the first row of
    the given kind that excludes p."""
    _raise_first_failing(_exclusion_clauses(ident, p, degenerate))


def _build(id: SummationId, p: dict[str, complex], gr: _Gammas,
           dixon_variant: DixonVariant) -> tuple[complex, complex, complex, complex, complex]:
    """prefactor, term1, term2, alpha, beta for the requested identity."""
    a, b, c, d, e = map(p.get, "abcde")
    alpha = beta = complex(0.0)
    if id is SummationId.GAUSS2X:
        pre = gr.ratio([0.5, (a + b + 3) / 2, (a - b - 1) / 2], [(a - b + 3) / 2])
        t1 = ((a + b - 1) / 2 - a * b / d) * gr.ratio([], [(a + 1) / 2, (b + 1) / 2])
        t2 = ((a + b + 1) / d - 2) * gr.ratio([], [a / 2, b / 2])
    elif id is SummationId.BAILEYX:
        pre = gr.power(2.0, -c) * gr.ratio([0.5, c + 1], [])
        t1 = (2 / d) * gr.ratio([], [(a + c) / 2, (c - a + 1) / 2])
        t2 = (1 - c / d) * gr.ratio([], [(a + c + 1) / 2, (c - a) / 2 + 1])
    elif id is SummationId.KUMMERX:
        pre = gr.ratio([0.5, 2 + a - b], []) / (gr.power(2.0, a) * (1 - b))
        t1 = ((1 + a - b) / d - 1) * gr.ratio([], [a / 2, a / 2 - b + 1.5])
        t2 = (1 - a / d) * gr.ratio([], [(a + 1) / 2, 1 + a / 2 - b])
    elif id is SummationId.WATSON1X:
        pre = gr.power(2.0, a + b - 2) * gr.ratio(
            [c + 0.5, (a + b + 1) / 2, c - (a + b - 1) / 2], [0.5, a, b])
        t1 = gr.ratio([a / 2, b / 2], [c - (a - 1) / 2, c - (b - 1) / 2])
        t2 = ((2 * c - d) / d) * gr.ratio(
            [(a + 1) / 2, (b + 1) / 2], [c - a / 2 + 1, c - b / 2 + 1])
    elif id is SummationId.WATSON2X:
        alpha = (a * (2 * c - a) + b * (2 * c - b) - 2 * c + 1
                 - (a * b / d) * (4 * c - a - b - 1))
        beta = 8 * ((a + b + 1) / (2 * d) - 1)
        pre = gr.power(2.0, a + b - 2) * gr.ratio(
            [c + 0.5, (a + b + 3) / 2, c - (a + b + 1) / 2], [0.5, a, b]) \
            / ((a - b - 1) * (a - b + 1))
        t1 = alpha * gr.ratio([a / 2, b / 2], [c - (a - 1) / 2, c - (b - 1) / 2])
        t2 = beta * gr.ratio([(a + 1) / 2, (b + 1) / 2], [c - a / 2, c - b / 2])
    elif id is SummationId.DIXONX:
        alpha = 1 - (1 + a - b) / d
        beta = ((1 + a - b) / (1 + a - b - c)
                * ((a / d) * (1 + a - b - 2 * c) - 2 * (1 + a / 2 - b - c)))
        pre = gr.power(2.0, -a) * gr.ratio([0.5], []) / (b - 1)
        t1 = alpha * gr.ratio(
            [2 + a - b, 1 + a - c, a / 2 - b - c + 1.5],
            [a / 2, 2 + a - b - c, a / 2 - c + 0.5, a / 2 - b + 1.5])
        second = (1 + a / 2 - b if dixon_variant is DixonVariant.HALF_A_MINUS_B
                  else 1 + a / 2 - c)
        t2 = (beta / 2) * gr.ratio(
            [1 + a - b, 1 + a - c, 1 + a / 2 - b - c],
            [(a + 1) / 2, 1 + a - b - c, second, 1 + a / 2 - c])
    elif id is SummationId.WHIPPLEX:
        pre = gr.power(2.0, -2 * a) * gr.ratio(
            [e + 1, e - c, 2 * c - e + 1], [e - a + 1, e - c + 1, 2 * c - a - e + 1])
        t1 = (1 - (2 * c - e) / d) * gr.ratio(
            [(e - a) / 2 + 1, c - (a + e) / 2 + 0.5],
            [(a + e) / 2, c - (e - a) / 2 + 0.5])
        t2 = (e / d - 1) * gr.ratio(
            [(e - a + 1) / 2, c - (a + e) / 2 + 1],
            [(a + e + 1) / 2, c + (a - e) / 2])
    else:
        raise InvalidBinding(f"unknown identity {id}")
    return pre, t1, t2, alpha, beta


def rhs_closed_form(id: SummationId, params: dict,
                    dixon_variant: DixonVariant = DixonVariant.HALF_A_MINUS_B,
                    ) -> ClosedFormBreakdown:
    """Evaluate the printed closed form.

    Raises DegenerateParameterError at the explicit exclusions,
    ValidityError when a stated condition fails, PoleError when a
    numerator gamma argument sits on a pole.  Degenerate parameters never
    get silent limits: the printed expression is evaluated as printed.
    """
    p = _binding(id, params)
    require_no_exclusion(id, p, degenerate=True)
    require_no_exclusion(id, p, degenerate=False)
    pre, t1, t2, alpha, beta = _build(id, p, _EVALUATE, dixon_variant)
    return ClosedFormBreakdown(pre, t1, t2, alpha, beta, pre * (t1 + t2))


def rhs_gamma_arguments(id: SummationId, params: dict,
                        dixon_variant: DixonVariant = DixonVariant.HALF_A_MINUS_B,
                        ) -> tuple[list[complex], list[complex]]:
    """All gamma arguments of the closed form (numerator, denominator)."""
    num, den = _gamma_arguments(id, _binding(id, params), dixon_variant)
    return [complex(z) for z in num], [complex(z) for z in den]


def _gamma_arguments(id: SummationId, p: dict, dixon_variant: DixonVariant,
                    ) -> tuple[list, list]:
    """The arguments _build hands a collecting _Gammas; p holds a binding or
    columns of them.  The coefficients it also forms on excluded rows may
    divide by zero; they are thrown away."""
    gr = _Gammas(collect_only=True)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _build(id, p, gr, dixon_variant)
    return gr.numerator_args, gr.denominator_args


def _near_pole(z, margin: float, denominator: bool):
    """The pole screen on one gamma argument: within margin of a pole, where
    an exact denominator pole (an exact zero of the closed form) is well
    defined.  An array z gives a row mask."""
    dist = nearest_pole_distance(z)
    if denominator:
        return (dist > POLE_TOL) & (dist <= margin)
    return dist <= margin


def _poles_clear(num_args, den_args, margin: float):
    """Row mask of _near_pole over columns of gamma arguments."""
    near = False
    for z in num_args:
        near = near | _near_pole(z, margin, denominator=False)
    for z in den_args:
        near = near | _near_pole(z, margin, denominator=True)
    return np.logical_not(near)


def _pole_proximity_reason(num_args, den_args, margin: float) -> str | None:
    for z in num_args:
        if _near_pole(z, margin, denominator=False):
            return f"numerator gamma argument {z:.6g} within {margin:g} of pole"
    for z in den_args:
        if _near_pole(z, margin, denominator=True):
            return f"denominator gamma argument {z:.6g} within {margin:g} of pole"
    return None


def _screen_clauses(id: SummationId, p: dict, margin: float):
    return chain(_exclusion_clauses(id, p, degenerate=True, margin=margin),
                 _exclusion_clauses(id, p, degenerate=False))


def _screen(id: SummationId, params: dict, margin: float,
            dixon_variant: DixonVariant = DixonVariant.HALF_A_MINUS_B,
            ) -> tuple[HyperSeriesSpec | None, str]:
    """validity() as (the series, built once, or None on failure; reason)."""
    try:
        p = _binding(id, params)
    except InvalidBinding as exc:
        return None, str(exc)
    failing = _first_failing(_screen_clauses(id, p, margin))
    if failing is not None:
        return None, failing[1]
    try:
        spec = lhs_spec(id, p)
    except SeriesPoleError as exc:
        return None, str(exc)
    if not classify(spec).summable:
        return None, "series divergent"
    num_args, den_args = rhs_gamma_arguments(id, p, dixon_variant)
    reason = _pole_proximity_reason(num_args, den_args, margin)
    if reason is not None:
        return None, reason
    return spec, "ok"


def _screen_rows(id: SummationId, p: dict, margin: float,
                dixon_variant: DixonVariant = DixonVariant.HALF_A_MINUS_B):
    """_screen over columns of bindings (symbol -> complex array): the row
    mask of the bindings validity() accepts, and each row's series excess.
    A row with a series parameter on a nonpositive integer, where the
    series terminates or is undefined, takes _screen itself."""
    num, den = _series_parameters(id, p)
    excess = parametric_excess(num, den)
    ok = (_clauses_hold(_screen_clauses(id, p, margin))
          & converges(len(num), len(den), ARGUMENT[id], excess)
          & _poles_clear(*_gamma_arguments(id, p, dixon_variant), margin))
    on_integer = np.logical_or.reduce([nearest_pole_distance(x) <= POLE_TOL
                                       for x in num + den])
    for i in np.flatnonzero(on_integer):
        row = {sym: col[i] for sym, col in p.items()}
        ok[i] = _screen(id, row, margin, dixon_variant)[0] is not None
    return ok, excess


def validity(id: SummationId, params: dict, margin: float = 1e-3,
             dixon_variant: DixonVariant = DixonVariant.HALF_A_MINUS_B,
             ) -> tuple[bool, str]:
    """Stated conditions + degenerate exclusions (exact, then widened to
    the margin) + pole margins + series convergence, reported as
    (ok, machine-readable reason)."""
    spec, reason = _screen(id, params, margin, dixon_variant)
    return spec is not None, reason


def check(id: SummationId, params: dict, tol: float,
          dixon_variant: DixonVariant = DixonVariant.HALF_A_MINUS_B,
          ) -> CheckReport:
    """Series oracle vs closed form at one parameter point, the series
    summed to reporting.series_tolerance(tol).

    Errors never propagate: reporting.compare returns them as a failed
    report.
    """
    def sides() -> Sides:
        lhs = eval_series(lhs_spec(id, params), tol=series_tolerance(tol))
        rhs = rhs_closed_form(id, params, dixon_variant)
        return Sides(lhs.value, rhs.value, "" if lhs.converged else "series not converged")
    return compare(f"sum.{id.value}", params, "series", tol, sides)

"""Shared report records produced by identity checks and suite runs."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

NEAR_ZERO_RHS = 1e-12
_FLOOR = 1e-300


@dataclass(frozen=True)
class CheckReport:
    """One identity checked against one oracle at one parameter point."""

    identity_id: str
    params: dict
    lhs: complex
    rhs: complex
    abs_residual: float
    rel_residual: float
    oracle: str
    passed: bool
    diagnostics: str = ""

    @property
    def near_zero_rhs(self) -> bool:
        return abs(self.rhs) < NEAR_ZERO_RHS


def make_report(identity_id: str, params: dict, lhs: complex, rhs: complex,
                oracle: str, tol: float, diagnostics: str = "") -> CheckReport:
    lhs, rhs = complex(lhs), complex(rhs)
    abs_res = float(abs(lhs - rhs))
    rel_res = float(abs_res / max(abs(rhs), _FLOOR))
    near_zero = abs(rhs) < NEAR_ZERO_RHS
    # near-zero right-hand sides make relative residuals meaningless;
    # flag them and judge on the absolute residual instead
    passed = bool(abs_res < tol) if near_zero else bool(rel_res < tol)
    if near_zero:
        diagnostics = (diagnostics + " " if diagnostics else "") + "NearZeroRHS"
    return CheckReport(identity_id, dict(params), lhs, rhs,
                       abs_res, rel_res, oracle, passed, diagnostics)


def failed_report(identity_id: str, params: dict, oracle: str,
                  diagnostics: str) -> CheckReport:
    """Error-path report: the check could not produce a numeric comparison."""
    nan = complex(float("nan"), 0.0)
    return CheckReport(identity_id, dict(params), nan, nan,
                       float("inf"), float("inf"), oracle, False, diagnostics)


def json_value(v):
    """v as a report holds it: a complex as {"re", "im"}, a list item by item."""
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, list):
        return [json_value(x) for x in v]
    return v


def series_tolerance(tol: float) -> float:
    """The tolerance the series oracle sums to, for a check at tol: two
    digits tighter, so the oracle's own error stays out of the residual."""
    return max(tol * 1e-2, 1e-13)


class Sides(NamedTuple):
    """The two evaluated sides of a check.  params, when set, replaces the
    binding in the report of a successful comparison."""

    lhs: complex
    rhs: complex
    diagnostics: str = ""
    params: dict | None = None


def compare(identity_id: str, params: dict, oracle: str, tol: float,
            sides: Callable[[], Sides]) -> CheckReport:
    """The comparison step of every oracle check: evaluate sides() and
    judge it with make_report.  An exception never propagates: it comes
    back as a failed report on params."""
    try:
        got = sides()
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        return failed_report(identity_id, params, oracle, f"{type(exc).__name__}: {exc}")
    return make_report(identity_id, params if got.params is None else got.params,
                       got.lhs, got.rhs, oracle, tol, got.diagnostics)


@dataclass
class IdentityAggregate:
    identity_id: str
    n_checked: int = 0
    n_passed: int = 0
    max_residual: float = 0.0
    residuals: list = field(default_factory=list)

    def add(self, report: CheckReport) -> None:
        self.n_checked += 1
        if report.passed:
            self.n_passed += 1
        res = report.abs_residual if report.near_zero_rhs else report.rel_residual
        self.residuals.append(res)
        self.max_residual = max(self.max_residual, res)

    @property
    def median_residual(self) -> float:
        return statistics.median(self.residuals) if self.residuals else 0.0


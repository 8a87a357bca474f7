"""Cases of the eval-regimes workload and their mpmath references.

Each case is one direct library call in the form the CLI's ``eval``
subcommands make (``eval pfq``: tol 1e-12, max_terms 100000, a
non-converged result is refused; ``eval laplace-numeric``: tol 1e-7),
plus ``gamma_ratio``.  The draws come from the workload seed.  Three
probes keep known defects in view:

* ``quad.edge_ws_0.99``: quadrature as w/s -> 1, off by about 1e-4
  relative while it reports an estimate near 1e-6;
* ``term.cancel``: a heavily cancelling terminating series that reports a
  zero tail estimate;
* the ``unit.margin.*`` draws, unit-argument series whose excess sits
  just above the sampler's 0.05 margin.

References are computed in mpmath at 30 digits, outside the timed region.
Unit-argument references use the classical Gauss and Dixon theorems,
which mpmath evaluates in milliseconds where its generic 3F2(1)
summation takes seconds or gives up near the convergence boundary.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# the accuracy claimed for gamma_ratio, which reports no error estimate:
# the acceptance suite's gamma-identity tolerance
GAMMA_RATIO_REL_TOL = 1e-11
# a double cannot hold the exact value, so every estimate is granted this
# many units of rounding (relative to the reference) on top
ROUNDING_ULPS = 4.0
_EPS = 2.220446049250313e-16

# draws per regime: the cheap regimes get many, so the failure share and the
# latency percentiles do not hinge on a few draws; quadrature and the
# unit-argument tails cost 10-200 ms a call and get fewer
DRAWS = {
    "term": 48, "half": 24, "alt": 24, "dd": 24, "complex": 24, "levin": 12,
    "unit.gauss": 6, "unit.dixon": 6, "unit.margin": 12,
    "quad.pos": 6, "quad.neg": 12, "quad.power": 6, "quad.complex": 6,
    "gamma.real": 24, "gamma.complex": 24,
}


@dataclass
class Case:
    name: str
    layer: str            # "series", "quadrature" or "gammafn"
    call: Callable        # () -> result; the timed operation
    reference: Callable   # () -> mpmath number


@dataclass
class Outcome:
    """What one call returned, reduced to what the checks need."""

    value: complex | None
    estimate: float       # absolute error estimate the program reported
    error: str = ""       # exception type, or a refusal reason

    def key(self) -> tuple:
        return (repr(self.value), repr(self.estimate), self.error)


class _Draws:
    """Case makers, one per regime, drawing from one seeded stream."""

    def __init__(self, hl, mp, seed: int):
        self.hl, self.mp = hl, mp
        self.rng = np.random.default_rng(seed)

    def u(self, lo=0.3, hi=3.0) -> float:
        return float(self.rng.uniform(lo, hi))

    def us(self, k, lo=0.3, hi=3.0) -> list[float]:
        return [self.u(lo, hi) for _ in range(k)]

    def cs(self, k, im) -> list[complex]:
        return [complex(x, self.u(-im, im)) for x in self.us(k)]

    # -- series: eval_series -------------------------------------------------
    def series(self, name, num, den, z, ref=None) -> Case:
        spec = self.hl.HyperSeriesSpec(num, den, z)
        mp = self.mp
        ref = ref or (lambda: mp.hyper(num, den, z))
        return Case(name, "series", lambda: self.hl.series.eval_series(spec), ref)

    def gauss_1(self, a, b, c):
        """2F1(a, b; c; 1) by Gauss's theorem."""
        return lambda: self.mp.gammaprod([c, c - a - b], [c - a, c - b])

    def term(self, name):  # 2F1(-m, a; b; z), a polynomial of degree m
        m = int(self.rng.integers(4, 13))
        a, b = self.us(2)
        return self.series(name, [-m, a], [b], self.u(0.2, 0.9))

    def half(self, name):
        return self.series(name, self.us(3), self.us(2), 0.5)

    def unit_gauss(self, name):
        a, b = self.us(2)
        c = a + b + self.u(0.3, 2.0)
        return self.series(name, [a, b], [c], 1.0, self.gauss_1(a, b, c))

    def unit_dixon(self, name):  # Dixon's 3F2(1); the draw fixes the excess
        b, c = self.us(2, 0.3, 1.5)
        a = 2.0 * b + 2.0 * c + self.u(0.3, 1.5) - 2.0
        if a < 0.3:
            a += 2.0
        return self.series(name, [a, b, c], [1 + a - b, 1 + a - c], 1.0,
                           lambda: self.mp.gammaprod(
                               [1 + a / 2, 1 + a - b, 1 + a - c, 1 + a / 2 - b - c],
                               [1 + a, 1 + a / 2 - b, 1 + a / 2 - c, 1 + a - b - c]))

    def unit_margin(self, name):  # excess just above the sampler's 0.05 margin
        a, b = self.us(2)
        c = a + b + self.u(0.05, 0.1)
        return self.series(name, [a, b], [c], 1.0, self.gauss_1(a, b, c))

    def alt(self, name):  # power tail at z = -1
        num, den = self.us(3), self.us(2)
        den[0] += max(0.0, sum(num) - sum(den) + self.u(0.1, 1.5))
        return self.series(name, num, den, -1.0)

    def dd(self, name):  # p = q at large negative z: double-double
        return self.series(name, self.us(2), self.us(2), -self.u(20.0, 40.0))

    def levin(self, name):  # Levin-u on the complex unit circle
        num, den = self.us(3), self.us(2)
        den[0] += max(0.0, sum(num) - sum(den) + self.u(0.2, 1.0))
        return self.series(name, num, den, cmath.exp(1j * self.u(0.4, 2.7)))

    def complex(self, name):
        return self.series(name, self.cs(3, 0.5), self.cs(2, 0.5), 0.5)

    # -- quadrature: laplace_numeric -------------------------------------------
    def laplace(self, name, v, s, w, num, den, ref=None) -> Case:
        spec = self.hl.HyperSeriesSpec(num, den, 1.0)
        mp = self.mp
        ref = ref or (lambda: mp.gamma(v) * mp.power(s, -v) * mp.hyper([v] + num, den, w / s))
        return Case(name, "quadrature",
                    lambda: self.hl.quadrature.laplace_numeric(v, s, w, spec, tol=1e-7),
                    ref)

    def quad_pos(self, name):  # exponential tail, real float integrand
        v, s = self.u(0.5, 2.5), self.u(0.5, 4.0)
        return self.laplace(name, v, s, s * self.u(0.2, 0.6), self.us(2), self.us(2))

    def quad_neg(self, name):  # w/s = -1: the double-double vector integrand
        v, s = self.u(0.5, 2.5), self.u(0.5, 4.0)
        return self.laplace(name, v, s, -s, self.us(2), self.us(2))

    def quad_power(self, name):  # w = s, 1F1 integrand: power-law tail
        v, s, a = self.u(0.5, 2.0), self.u(0.5, 4.0), self.u(0.3, 2.0)
        b = a + v + self.u(0.3, 1.5)
        return self.laplace(name, v, s, s, [a], [b],
                            lambda: self.mp.power(s, -v) * self.mp.gammaprod(
                                [v, b, b - a - v], [b - a, b - v]))

    def quad_complex(self, name):
        v, s = self.u(0.5, 2.5), self.u(0.5, 4.0)
        return self.laplace(name, v, s, s * self.u(0.2, 0.6), self.cs(2, 0.5), self.cs(2, 0.5))

    # -- gammafn: gamma_ratio --------------------------------------------------
    def gamma(self, name, num, den) -> Case:
        spec = self.hl.GammaRatioSpec(num, den)
        return Case(name, "gammafn", lambda: self.hl.gammafn.gamma_ratio(spec),
                    lambda: self.mp.gammaprod(num, den))

    def gamma_real(self, name):  # one argument negative, off the poles
        neg = -self.u(0.1, 0.9) - int(self.rng.integers(0, 3))
        return self.gamma(name, self.us(3, 0.3, 6.0) + [neg], self.us(3, 0.3, 6.0))

    def gamma_complex(self, name):
        num = [complex(x, self.u(-2.0, 2.0)) for x in self.us(3, 0.3, 6.0)]
        den = [complex(x, self.u(-2.0, 2.0)) for x in self.us(3, 0.3, 6.0)]
        return self.gamma(name, num, den)


def build_cases(hl, mp, seed: int) -> list[Case]:
    """Draw the cases; ``hl`` is the hyperlap package, ``mp`` is mpmath."""
    draws = _Draws(hl, mp, seed)
    cases = [getattr(draws, regime.replace(".", "_"))(f"{regime}.{i}")
             for regime, count in DRAWS.items() for i in range(count)]
    # fixed known-defect probes
    cases.append(draws.laplace("quad.edge_ws_0.99", 1.5, 1.0, 0.99, [1.2], [2.5]))
    cases.append(draws.series("term.cancel", [-20, 1.5], [2.5], 0.7))
    return cases


def run_case(case: Case) -> Outcome:
    """The timed call, reduced to value and estimate; any exception, typed
    refusal included, becomes an error outcome."""
    try:
        result = case.call()
    except Exception as exc:  # noqa: BLE001 - a refusal is an outcome, not a crash
        return Outcome(None, math.inf, type(exc).__name__)
    if case.layer == "series":
        if not result.converged:
            return Outcome(complex(result.value), result.tail_estimate, "not converged")
        return Outcome(complex(result.value), result.tail_estimate)
    if case.layer == "quadrature":
        return Outcome(complex(result.value), result.abs_err_est)
    value = complex(result)
    return Outcome(value, GAMMA_RATIO_REL_TOL * abs(value))


def coverage(outcome: Outcome, ref: complex) -> float:
    """|error| over the reported estimate plus rounding; above 1 means the
    result is not within its own error estimate."""
    if outcome.value is None:
        return math.inf
    err = abs(outcome.value - ref)
    allowed = outcome.estimate + ROUNDING_ULPS * _EPS * abs(ref)
    if not math.isfinite(err):
        return math.inf
    return err / allowed if allowed > 0.0 else (0.0 if err == 0.0 else math.inf)


def failure(outcome: Outcome, ref: complex) -> str:
    """Empty when the call succeeded; else why it counts as failed."""
    if outcome.error:
        return outcome.error
    if not (cmath.isfinite(outcome.value) and math.isfinite(outcome.estimate)):
        return "non-finite"
    if coverage(outcome, ref) > 1.0:
        return "under-covered"
    return ""

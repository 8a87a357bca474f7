"""Direct evaluation of the generalized hypergeometric series pFq.

The series  sum_n  prod_i (a_i)_n / prod_j (b_j)_n * z^n / n!  has the
term ratio  t_{n+1} / t_n = r_n * z,  r_n = prod_i (a_i + n) / prod_j
(b_j + n) / (n + 1).  The float and complex regimes form the terms from
a TermRatios table (_terms) and return their correctly rounded sum:

* terminating series (a nonpositive-integer numerator parameter) are
  summed exactly to the last nonzero term;
* other series off the unit circle are summed until three consecutive
  terms are below tol relative to the partial sum;
* |z| = 1 with p = q + 1 converges only algebraically; terms behave like
  n^(-1-delta) with delta the parametric excess, so the tail beyond the
  summed prefix is reconstructed from a fitted power-law model through
  Hurwitz zeta values (a Levin u-transformation, with its own per-term
  Kahan loop, is the fallback on the rest of the unit circle);
* p = q with large negative real z suffers exponential cancellation and
  is summed term by term in double-double precision.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import ddouble as dd
from .errors import DivergentSeriesError
from .gammafn import is_nonpositive_integer

__all__ = [
    "Convergence",
    "ConvergenceClass",
    "HyperSeriesSpec",
    "SeriesResult",
    "TermRatios",
    "classify",
    "derivative_shift",
    "eval_series",
    "levin_u",
    "series_values",
    "series_values_real",
]

_ABS_FLOOR = 1e-300
# predicted cancellation above which the double-double path engages
_DD_CANCEL_THRESHOLD = 1e6
_EPS = 2.220446049250313e-16


@dataclass(frozen=True)
class HyperSeriesSpec:
    """Parameters and argument of a pFq series.

    Construction rejects a nonpositive-integer denominator parameter
    unless a numerator parameter is a nonpositive integer of strictly
    smaller magnitude (the series then terminates before the zero
    denominator factor is reached).
    """

    numerator: tuple[complex, ...]
    denominator: tuple[complex, ...]
    argument: complex

    def __init__(self, numerator: Sequence[complex], denominator: Sequence[complex],
                 argument: complex):
        object.__setattr__(self, "numerator", tuple(complex(x) for x in numerator))
        object.__setattr__(self, "denominator", tuple(complex(x) for x in denominator))
        object.__setattr__(self, "argument", complex(argument))
        self._validate()

    def _validate(self) -> None:
        term_order = self.termination_order()
        for b in self.denominator:
            if is_nonpositive_integer(b):
                mag = round(-b.real)
                if term_order is None or term_order >= mag:
                    raise ValueError(
                        f"denominator parameter {b} is a nonpositive integer and the "
                        "series does not terminate before the zero factor"
                    )

    def termination_order(self) -> int | None:
        """Smallest m with some numerator parameter equal to -m, else None."""
        orders = [round(-a.real) for a in self.numerator if is_nonpositive_integer(a)]
        return min(orders) if orders else None

    @property
    def p(self) -> int:
        return len(self.numerator)

    @property
    def q(self) -> int:
        return len(self.denominator)

    def with_argument(self, z: complex) -> "HyperSeriesSpec":
        return replace(self, argument=complex(z))

    def excess(self) -> complex:
        """Parametric excess sum(b_j) - sum(a_i) (unit-circle convergence)."""
        return sum(self.denominator, complex(0.0)) - sum(self.numerator, complex(0.0))


class Convergence(enum.Enum):
    TERMINATING = "terminating"
    ALL_Z = "all_z"
    INSIDE_UNIT_DISK = "inside_unit_disk"
    UNIT_CIRCLE_ABSOLUTE = "unit_circle_absolute"
    UNIT_CIRCLE_CONDITIONAL = "unit_circle_conditional"
    DIVERGENT = "divergent"


@dataclass(frozen=True)
class ConvergenceClass:
    kind: Convergence
    delta: complex  # parametric excess, meaningful for the unit-circle rules

    @property
    def summable(self) -> bool:
        return self.kind is not Convergence.DIVERGENT


@dataclass(frozen=True)
class SeriesResult:
    value: complex
    terms_used: int
    tail_estimate: float
    cancellation_ratio: float
    converged: bool
    method: str = "direct"


def classify(spec: HyperSeriesSpec) -> ConvergenceClass:
    """Convergence class of the series.

    Terminating takes precedence over everything.  z = 0 is classified as
    terminating too: only the n = 0 term survives.
    """
    delta = spec.excess()
    if spec.termination_order() is not None or spec.argument == 0.0:
        return ConvergenceClass(Convergence.TERMINATING, delta)
    p, q = spec.p, spec.q
    if p <= q:
        return ConvergenceClass(Convergence.ALL_Z, delta)
    if p == q + 1:
        r = abs(spec.argument)
        if r < 1.0 - 1e-14:
            return ConvergenceClass(Convergence.INSIDE_UNIT_DISK, delta)
        if abs(r - 1.0) <= 1e-14:
            if delta.real > 0.0:
                return ConvergenceClass(Convergence.UNIT_CIRCLE_ABSOLUTE, delta)
            if -1.0 < delta.real <= 0.0 and abs(spec.argument - 1.0) > 1e-14:
                return ConvergenceClass(Convergence.UNIT_CIRCLE_CONDITIONAL, delta)
    return ConvergenceClass(Convergence.DIVERGENT, delta)


def derivative_shift(spec: HyperSeriesSpec) -> tuple[complex, HyperSeriesSpec]:
    """Coefficient and shifted spec with d/dz pFq = coeff * pFq(all params + 1)."""
    coeff = complex(1.0)
    for a in spec.numerator:
        coeff *= a
    for b in spec.denominator:
        if b == 0.0:
            raise ValueError("derivative_shift requires nonzero denominator parameters")
        coeff /= b
    shifted = HyperSeriesSpec(
        [a + 1 for a in spec.numerator],
        [b + 1 for b in spec.denominator],
        spec.argument,
    )
    return coeff, shifted


def _predicted_cancellation(p: int, q: int, z: complex) -> float:
    """Rough size of the largest term of a pFq series at z relative to
    O(1), for real z < 0.

    For p = q the terms peak near exp(|z|); each extra denominator
    parameter tames the factorial growth to exp(k |z|^(1/k))."""
    if z.real >= 0.0 or z.imag != 0.0:
        return 1.0
    k = q - p + 1
    if k <= 0:
        return math.inf
    expo = k * abs(z.real) ** (1.0 / k)
    return math.exp(min(expo, 700.0))


def _term_ratio(spec: HyperSeriesSpec, n: int) -> complex:
    r = spec.argument / (n + 1)
    for a in spec.numerator:
        r *= a + n
    for b in spec.denominator:
        r /= b + n
    return r


def _sum_terminating(spec: HyperSeriesSpec, order: int) -> SeriesResult:
    table = TermRatios(spec.numerator, spec.denominator)
    z = spec.argument if spec.argument.imag else spec.argument.real
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.concatenate([np.ones(1), _terms(table, z, 1.0, 0, order)])
        partial = terms.cumsum()
    if not np.isfinite(partial[-1]):  # a non-finite partial sum stays non-finite
        raise OverflowError(f"terminating pFq series overflowed within {order + 1} terms")
    total = _fsum(terms)
    max_abs = float(np.abs(partial).max())
    cancel = max_abs / max(abs(total), _ABS_FLOOR)
    tail = (order + 1) * _EPS * max_abs  # a-priori rounding bound
    return SeriesResult(total, order + 1, tail, max(cancel, 1.0), True, "terminating")


def _sum_direct(spec: HyperSeriesSpec, tol: float, max_terms: int) -> SeriesResult:
    """Sum until three consecutive |t_(k+1)| <= tol |partial sum through
    t_k|, forming the terms in doubling segments."""
    table = TermRatios(spec.numerator, spec.denominator)
    z = spec.argument if spec.argument.imag else spec.argument.real
    terms = np.ones(1)
    stop = 0
    # overflow is detected below, on the terms summed
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            start, stop = stop, min(max(2 * stop, 2 * _CHUNK), max_terms)
            terms = np.concatenate([terms, _terms(table, z, terms[-1], start, stop)])
            mags = np.abs(terms)  # t_0 .. t_stop
            sums = np.abs(terms.cumsum())
            small = mags[1:] <= tol * np.maximum(sums[:-1], _ABS_FLOOR)
            hits = np.flatnonzero(small[:-2] & small[1:-1] & small[2:])
            if hits.size or stop == max_terms or not math.isfinite(mags[-1]):
                break
    n = int(hits[0]) + 3 if hits.size else stop  # terms summed: t_0 .. t_(n-1)
    if not (math.isfinite(sums[n - 1]) and math.isfinite(mags[n])):
        raise OverflowError(f"pFq series term overflowed within {n + 1} terms "
                            f"(|z| = {abs(spec.argument):.6g})")
    total = _fsum(terms[:n])
    nxt, prev = float(mags[n]), float(mags[n - 1])
    ratio = min(nxt / prev if prev > 0.0 else 0.0, 0.95)
    cancel = max(float(sums[:n].max()) / max(abs(total), _ABS_FLOOR), 1.0)
    tail = max(nxt / (1.0 - ratio), cancel * _EPS * abs(total))
    # each step of the term recurrence rounds p+q+3 factors
    tail += (spec.p + spec.q + 3) * _EPS * float(np.arange(n) @ mags[:n])
    return SeriesResult(total, n, tail, cancel, hits.size > 0, "direct")


def _sum_direct_dd(spec: HyperSeriesSpec, tol: float, max_terms: int) -> SeriesResult:
    """Double-double summation for real parameters and real argument."""
    num = [a.real for a in spec.numerator]
    den = [b.real for b in spec.denominator]
    z = spec.argument.real
    thi, tlo = 1.0, 0.0
    shi, slo = 0.0, 0.0
    max_abs = 0.0
    consec = 0
    n = 0
    while n < max_terms:
        shi, slo = dd.dd_add(shi, slo, thi, tlo)
        max_abs = max(max_abs, abs(shi))
        # a + n is not exactly representable in one double; keep the factor
        # as an error-free two_sum pair so term accuracy stays at dd level
        for a in num:
            fhi, flo = dd.two_sum(a, float(n))
            thi, tlo = dd.dd_mul(thi, tlo, fhi, flo)
        for b in den:
            fhi, flo = dd.two_sum(b, float(n))
            thi, tlo = dd.dd_div(thi, tlo, fhi, flo)
        thi, tlo = dd.dd_mul_d(thi, tlo, z)
        thi, tlo = dd.dd_div_d(thi, tlo, n + 1.0)
        n += 1
        if abs(thi) <= tol * max(abs(shi), _ABS_FLOOR):
            consec += 1
            if consec >= 3:
                break
        else:
            consec = 0
    value = dd.dd_to_float(shi, slo)
    cancel = max(max_abs / max(abs(value), _ABS_FLOOR), 1.0)
    tail = abs(thi) / (1.0 - min(abs(z) / (n + 1), 0.95))
    tail = max(tail, cancel * dd.DD_EPS * abs(value))
    converged = consec >= 3
    return SeriesResult(complex(value, 0.0), n, tail, cancel, converged, "double-double")


# Bernoulli numbers B_2, B_4, ..., B_12 for the Euler-Maclaurin zeta tail
_BERNOULLI = (1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730)


def hurwitz_zeta(s: complex, a: float) -> complex:
    """Hurwitz zeta sum_{n>=0} (a+n)^(-s) by Euler-Maclaurin.

    Needs a >= ~20 for full double accuracy; that is guaranteed by the
    callers, which only ask about tails of long prefix sums.
    """
    s = complex(s)
    out = a ** (1.0 - s) / (s - 1.0) + 0.5 * a ** (-s)
    poch = s
    fact = 1.0
    for k, b2k in enumerate(_BERNOULLI, start=1):
        fact *= (2.0 * k) * (2.0 * k - 1.0)
        out += b2k / fact * poch * a ** (-s - (2 * k - 1))
        poch *= (s + 2 * k - 1) * (s + 2 * k)
    return out


def _pow_diff_over(w: complex, a1: float, a2: float) -> complex:
    """(a1^w - a2^w) / (-w), stable through the removable point w = 0."""
    l1, l2 = math.log(a1), math.log(a2)
    u = w * (l1 - l2)
    if abs(u) < 1e-4:
        em1_over_u = 1.0 + u / 2.0 + u * u / 6.0  # expm1(u)/u
    else:
        em1_over_u = (cmath.exp(u) - 1.0) / u
    return -cmath.exp(w * l2) * em1_over_u * (l1 - l2)


def _alternating_zeta_tail(s: complex, m: int) -> complex:
    """sum_{n>=m} (-1)^n n^(-s), via the even/odd Hurwitz split.

    The two Hurwitz zetas are combined analytically so the expression
    stays finite through s = 1 (their individual poles cancel; s = 1
    arises for conditionally convergent z = -1 series with zero excess).
    """
    s = complex(s)
    a1, a2 = m / 2.0, (m + 1) / 2.0
    out = _pow_diff_over(1.0 - s, a1, a2)  # (a1^(1-s) - a2^(1-s)) / (s-1)
    out += 0.5 * (a1 ** (-s) - a2 ** (-s))
    poch = s
    fact = 1.0
    for k, b2k in enumerate(_BERNOULLI, start=1):
        fact *= (2.0 * k) * (2.0 * k - 1.0)
        out += b2k / fact * poch * (a1 ** (-s - (2 * k - 1)) - a2 ** (-s - (2 * k - 1)))
        poch *= (s + 2 * k - 1) * (s + 2 * k)
    sign = 1.0 if m % 2 == 0 else -1.0
    return sign * 2.0 ** (-s) * out


def _fsum(x: np.ndarray) -> complex:
    """Correctly rounded sum of x, real and imaginary parts apart."""
    if np.iscomplexobj(x):
        return complex(math.fsum(x.real.tolist()), math.fsum(x.imag.tolist()))
    return complex(math.fsum(x.tolist()))


def _sum_unit_power_tail(spec: HyperSeriesSpec, tol: float, max_terms: int,
                         sign: int) -> SeriesResult | None:
    """Direct summation at z = +-1 with a fitted power-law tail.

    The term magnitudes follow c(n) = n^(-1-delta) (C0 + C1/n + C2/n^2 +
    C3/n^3 + ...); the C_k are fitted from four computed terms near the
    truncation point and the tail is summed exactly under that model with
    (alternating) Hurwitz zeta values.  The error estimate is the
    difference between the 3- and 4-coefficient models, which observed
    runs put one to two orders above the true error.

    The truncation points are the checkpoints 192, 384, 768, ... up to
    min(max_terms, 24576); the terms up to the next one are one segment
    from _terms.  Raises OverflowError when a term, a partial sum or the
    fitted data t_i i^(1+delta) is no longer finite.

    When no checkpoint converges, the one with the smallest estimate comes
    back with converged=False; its estimate is infinite when the last
    summed term is larger than the term at that checkpoint, or that term
    larger than the first one its fit read.
    """
    s0 = 1.0 + spec.excess()  # tail exponent, exact from the parameters
    table = TermRatios(spec.numerator, spec.denominator)
    terms = np.ones(1, dtype=table.dtype)  # signed terms t_n (z^n included)
    total = complex(1.0)
    max_abs = 1.0
    best: tuple[float, complex, int] | None = None
    checkpoint = 192
    limit = min(max_terms, 24576)
    while True:
        if checkpoint <= limit:
            n = checkpoint
        elif best is None and 32 < limit and len(terms) <= limit:
            n = limit  # no fit yet: one at the cap
        else:
            break
        # overflow is detected below, on the segment as a whole
        with np.errstate(over="ignore", invalid="ignore"):
            segment = _terms(table, sign, terms[-1], len(terms) - 1, n)  # t_len(terms) .. t_n
            partial = total + np.cumsum(segment)
        if not (np.all(np.isfinite(segment)) and np.all(np.isfinite(partial))):
            raise OverflowError(
                f"pFq series term at z = {sign} overflowed within {n + 1} terms")
        max_abs = max(max_abs, float(np.max(np.abs(partial))))
        terms = np.concatenate([terms, segment])
        total = _fsum(terms)
        m = n // 8
        idx = np.array([n - 3 * m, n - 2 * m, n - m, n])
        xs = idx.astype(float)
        # strip z^n to expose the smooth coefficient c(i) = t_i / z^i
        cs = terms[idx].astype(complex)
        if sign < 0:
            cs[idx % 2 == 1] *= -1.0
        u = (n + 1.0) / xs  # scaled fit variable, conditioning
        A = np.vander(u, 4, increasing=True)
        with np.errstate(over="ignore", invalid="ignore"):
            g = cs * xs ** s0
        if not np.all(np.isfinite(g)):
            raise OverflowError(
                f"power-tail fit of the pFq series at z = {sign} overflowed at {n + 1} terms")
        try:
            d4 = np.linalg.solve(A, g)
            d3 = np.linalg.solve(A[1:, :3], g[1:])
        except np.linalg.LinAlgError:
            d4 = d3 = None
        if d4 is not None:
            mm = n + 1
            scale = [(n + 1.0) ** k for k in range(4)]
            if sign > 0:
                zk = [hurwitz_zeta(s0 + k, mm) for k in range(4)]
            else:
                zk = [_alternating_zeta_tail(s0 + k, mm) for k in range(4)]
            t4 = complex(sum(d4[k] * scale[k] * zk[k] for k in range(4)))
            t3 = complex(sum(d3[k] * scale[k] * zk[k] for k in range(3)))
            value = total + t4
            err = float(abs(t4 - t3) + 8.0 * _EPS * max_abs)
            if best is None or err < best[0]:
                best = (err, value, n + 1)
            if err <= tol * max(abs(value), _ABS_FLOOR):
                cancel = max(max_abs / max(abs(value), _ABS_FLOOR), 1.0)
                return SeriesResult(value, n + 1, err, cancel, True, "direct+power-tail")
        checkpoint *= 2
    if best is None:
        return None
    err, value, used = best
    n = used - 1
    if abs(terms[-1]) > abs(terms[n]) or abs(terms[n]) > abs(terms[n - 3 * (n // 8)]):
        # the terms grew after the best fit, or across its own window: they
        # have not reached the power-law decay the fit assumes, so its
        # estimate bounds nothing
        err = math.inf
    cancel = max(max_abs / max(abs(value), _ABS_FLOOR), 1.0)
    return SeriesResult(value, used, err, cancel,
                        err <= tol * max(abs(value), _ABS_FLOOR), "direct+power-tail")


class levin_u:
    """Streaming Levin u-transformation.

    Feed partial sums and terms one at a time; ``estimate`` holds the
    current extrapolation and ``last_delta`` its change on the latest
    step, which serves as the tail estimate.
    """

    def __init__(self, beta: float = 1.0):
        self.beta = beta
        self.n = 0
        self._num: list[complex] = []
        self._den: list[complex] = []
        self.estimate: complex = complex(0.0)
        self.last_delta: float = math.inf

    def step(self, partial_sum: complex, term: complex) -> complex:
        b = self.beta
        n = self.n
        omega = (b + n) * term
        if omega == 0.0:
            # terminating input; the partial sum is already exact
            self.estimate = partial_sum
            self.last_delta = 0.0
            return self.estimate
        self._num.append(partial_sum / omega)
        self._den.append(1.0 / omega)
        for j in range(n - 1, -1, -1):
            k = n - j - 1
            x = b + j + k
            c = (b + j) / x * (x / (x + 1.0)) ** k
            self._num[j] = self._num[j + 1] - c * self._num[j]
            self._den[j] = self._den[j + 1] - c * self._den[j]
        self.n += 1
        if self._den[0] != 0.0:
            new = self._num[0] / self._den[0]
            self.last_delta = abs(new - self.estimate)
            self.estimate = new
        return self.estimate


def _sum_levin(spec: HyperSeriesSpec, tol: float, max_terms: int) -> SeriesResult:
    accel = levin_u()
    total = complex(0.0)
    comp = complex(0.0)
    term = complex(1.0)
    max_abs = 0.0
    hits = 0
    best_delta = math.inf
    best_est = complex(0.0)
    stall = 0
    limit = min(max_terms, 400)
    n = 0
    while n < limit:
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        max_abs = max(max_abs, abs(total))
        est = accel.step(total, term)
        delta = accel.last_delta
        if n >= 4:
            if delta < best_delta:
                best_delta, best_est, stall = delta, est, 0
            else:
                stall += 1
            if delta <= 0.25 * tol * max(abs(est), _ABS_FLOOR):
                hits += 1
                if hits >= 2:
                    cancel = max(max_abs / max(abs(est), _ABS_FLOOR), 1.0)
                    tail = max(4.0 * delta, cancel * _EPS * abs(est))
                    return SeriesResult(est, n + 1, tail, cancel, True, "levin-u")
            else:
                hits = 0
            # numerical floor reached: deltas no longer improving
            if stall >= 10 and best_delta < 1e-10 * max(abs(best_est), _ABS_FLOOR):
                cancel = max(max_abs / max(abs(best_est), _ABS_FLOOR), 1.0)
                tail = 4.0 * best_delta
                ok = tail <= tol * max(abs(best_est), _ABS_FLOOR)
                return SeriesResult(best_est, n + 1, tail, cancel, ok, "levin-u")
        term *= _term_ratio(spec, n)
        n += 1
    cancel = max(max_abs / max(abs(best_est), _ABS_FLOOR), 1.0)
    tail = 4.0 * best_delta if math.isfinite(best_delta) else math.inf
    ok = tail <= tol * max(abs(best_est), _ABS_FLOOR)
    return SeriesResult(best_est, n, tail, cancel, ok, "levin-u")


def eval_series(spec: HyperSeriesSpec, tol: float = 1e-12,
                max_terms: int = 100_000) -> SeriesResult:
    """Sum the series to relative tolerance tol.

    Raises DivergentSeriesError outside the convergence domain.  Hitting
    max_terms is not an exception: the best estimate comes back with
    converged=False.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    cls = classify(spec)
    if not cls.summable:
        raise DivergentSeriesError(
            f"series p={spec.p}, q={spec.q} at z={spec.argument} diverges"
        )
    if cls.kind is Convergence.TERMINATING:
        order = spec.termination_order()
        if order is None or spec.argument == 0.0:
            order = 0
        return _sum_terminating(spec, order)
    if cls.kind in (Convergence.UNIT_CIRCLE_ABSOLUTE, Convergence.UNIT_CIRCLE_CONDITIONAL):
        z = spec.argument
        res = None
        if abs(z - 1.0) <= 1e-14:
            res = _sum_unit_power_tail(spec, tol, max_terms, +1)
        elif abs(z + 1.0) <= 1e-14:
            res = _sum_unit_power_tail(spec, tol, max_terms, -1)
        if res is not None:
            return res
        return _sum_levin(spec, tol, max_terms)
    if (_predicted_cancellation(spec.p, spec.q, spec.argument) > _DD_CANCEL_THRESHOLD
            and spec.argument.imag == 0.0
            and all(a.imag == 0.0 for a in spec.numerator)
            and all(b.imag == 0.0 for b in spec.denominator)):
        return _sum_direct_dd(spec, tol, max_terms)
    return _sum_direct(spec, tol, max_terms)


# ---------------------------------------------------------------------------
# Vectorized evaluation over many arguments (the quadrature integrand)
#
# The quadrature oracle sums the same series at a few hundred nodes per
# integral, a few dozen nodes per call.  One TermRatios table per integral
# holds the term ratios r_n, so a call does no per-term parameter work.
# Both kernels form a chunk of _CHUNK rows of terms for every node at once
# and share one chunk loop (_sum_chunks): the float/complex kernel with a
# cumulative product and a cumulative sum down the rows of r_n * z, the
# double-double kernel with log-depth scans under dd_mul and dd_add over
# the same rows.
# ---------------------------------------------------------------------------

# rows of terms formed per step of the vector kernels; the ratio table
# grows in whole multiples of it
_CHUNK = 32


class TermRatios:
    """Term ratios r_n = prod(a_i + n) / prod(b_j + n) / (n + 1) of one
    parameter set, tabled for n = 0, 1, ... in whole chunks of _CHUNK.

    A request past the end grows the table in one step over an arange of
    n, so an entry depends on n and the parameters alone, never on what
    the table was asked before.
    Real parameters give a float table, complex ones a complex table; the
    double-double pairs (real parameters only) are built on first use."""

    def __init__(self, numerator: Sequence[complex], denominator: Sequence[complex]):
        params = [complex(x) for x in (*numerator, *denominator)]
        self.real = all(x.imag == 0.0 for x in params)
        conv = (lambda x: complex(x).real) if self.real else complex
        self.numerator = tuple(conv(a) for a in numerator)
        self.denominator = tuple(conv(b) for b in denominator)
        self._r = np.empty(0, dtype=float if self.real else complex)
        self._hi = np.empty(0)
        self._lo = np.empty(0)

    @property
    def dtype(self) -> np.dtype:
        return self._r.dtype

    @staticmethod
    def _missing(start: int, stop: int) -> np.ndarray:
        """The indices start .. that grow a table of start entries to hold
        stop, rounded up to whole chunks."""
        return np.arange(start, -(-stop // _CHUNK) * _CHUNK, dtype=float)

    def ratios(self, stop: int) -> np.ndarray:
        """The table, holding at least r_0 .. r_(stop-1)."""
        if len(self._r) < stop:
            n = self._missing(len(self._r), stop)
            r = 1.0 / (n + 1.0)
            # rows past a terminating order may divide by 0; none is read
            with np.errstate(divide="ignore", invalid="ignore"):
                for a in self.numerator:
                    r = r * (a + n)
                for b in self.denominator:
                    r = r / (b + n)
            self._r = np.concatenate([self._r, r])
        return self._r

    def dd_ratios(self, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """The table as double-double (hi, lo) pairs, at least up to stop
        (real parameters)."""
        if len(self._hi) < stop:
            n = self._missing(len(self._hi), stop)
            hi, lo = dd.dd_ones(n.shape)
            # a + n is not exactly representable in one double; keep each
            # factor as an error-free two_sum pair
            for a in self.numerator:
                fhi, flo = dd.two_sum(a, n)
                hi, lo = dd.dd_mul(hi, lo, fhi, flo)
            for b in self.denominator:
                fhi, flo = dd.two_sum(b, n)
                hi, lo = dd.dd_div(hi, lo, fhi, flo)
            hi, lo = dd.dd_div_d(hi, lo, n + 1.0)
            self._hi = np.concatenate([self._hi, hi])
            self._lo = np.concatenate([self._lo, lo])
        return self._hi, self._lo


def _terms(table: TermRatios, z, term, start: int, stop: int) -> np.ndarray:
    """t_(start+1) .. t_stop from t_start = term, one cumulative product of
    the tabled r_n * z; z is a scalar, or a vector of nodes (one column
    each).  Overflow is the caller's to detect."""
    steps = np.multiply.outer(table.ratios(stop)[start:stop], z)
    steps[:1] *= term
    return steps.cumprod(axis=0)


def _sum_chunks(rows, tol: float, max_terms: int) -> None:
    """The chunk loop of the vector kernels.

    rows.form(n, m) forms rows n .. n+m-1 at every node and returns the
    terms t_(n+1) .. t_(n+m) and the partial sums through t_n ..
    t_(n+m-1) (the leading parts, for double-double); rows.keep(k) makes
    the first k rows part of the running sum.  Stops once three
    consecutive terms are <= tol * |partial sum| at every node, at that
    row; raises OverflowError when a summed row's term or partial sum is
    no longer finite, since the sum of the remaining terms is then
    unknown."""
    consec = 0
    n = 0
    # overflow is detected below, on the rows actually summed
    with np.errstate(over="ignore", invalid="ignore"):
        while n < max_terms:
            m = min(_CHUNK, max_terms - n)
            nxt, partial = rows.form(n, m)
            small = (np.abs(nxt) <= tol * np.maximum(np.abs(partial), _ABS_FLOOR)).all(axis=1)
            kept = m
            for k, ok in enumerate(small.tolist()):
                consec = consec + 1 if ok else 0
                if consec >= 3:
                    kept = k + 1
                    break
            if not (np.isfinite(nxt[:kept]).all() and np.isfinite(partial[:kept]).all()):
                raise OverflowError(
                    f"pFq series term overflowed after {n + kept} terms "
                    f"(|z| up to {float(np.abs(rows.z).max()):.6g})")
            rows.keep(kept)
            if consec >= 3:
                return
            n += m


class _Rows:
    """Chunks of the float/complex kernel: one cumulative product down the
    rows of r_n * z forms the terms, one cumulative sum the partial sums;
    the running sum is compensated across chunks."""

    def __init__(self, ratios: TermRatios, z: np.ndarray):
        self.ratios = ratios
        self.z = z
        dtype = np.result_type(z.dtype, ratios.dtype)
        self.term = np.ones(z.shape, dtype)    # first term not yet summed
        self.total = np.zeros(z.shape, dtype)
        self.comp = np.zeros(z.shape, dtype)   # compensation across chunks

    def form(self, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        self.nxt = _terms(self.ratios, self.z, self.term, n, n + m)        # t_(n+1) .. t_(n+m)
        self.added = np.concatenate([self.term[None, :], self.nxt[:-1]])  # t_n .. t_(n+m-1)
        return self.nxt, self.total + self.added.cumsum(axis=0)

    def keep(self, k: int) -> None:
        y = self.added[:k].sum(axis=0) - self.comp
        t = self.total + y
        self.comp = (t - self.total) - y
        self.total = t
        self.term = self.nxt[-1]


def _dd_scan(op, hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive scan of the (hi, lo) rows under the double-double
    operation op, in place: ceil(log2(rows)) whole-array steps
    (Hillis-Steele)."""
    shift = 1
    while shift < len(hi):
        hi[shift:], lo[shift:] = op(hi[shift:], lo[shift:], hi[:-shift], lo[:-shift])
        shift *= 2
    return hi, lo


class _DDRows:
    """Chunks of the double-double kernel: the steps r_n * z as (hi, lo)
    pairs with the carried term folded into row 0, scanned under dd_mul
    for the terms; the terms with the running sum folded into row 0,
    scanned under dd_add for the partial sums."""

    def __init__(self, ratios: TermRatios, z: np.ndarray):
        self.ratios = ratios
        self.z = z
        self.term = dd.dd_ones(z.shape)    # first term not yet summed
        self.total = dd.dd_zeros(z.shape)

    def form(self, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        rhi, rlo = self.ratios.dd_ratios(n + m)
        shi, slo = dd.dd_mul_d(rhi[n:n + m, None], rlo[n:n + m, None], self.z)
        thi, tlo = self.term
        shi[0], slo[0] = dd.dd_mul(shi[0], slo[0], thi, tlo)
        self.nxt = _dd_scan(dd.dd_mul, shi, slo)                  # t_(n+1) .. t_(n+m)
        ahi = np.concatenate([thi[None, :], self.nxt[0][:-1]])  # t_n .. t_(n+m-1)
        alo = np.concatenate([tlo[None, :], self.nxt[1][:-1]])
        ahi[0], alo[0] = dd.dd_add(*self.total, thi, tlo)
        self.partial = _dd_scan(dd.dd_add, ahi, alo)
        return self.nxt[0], self.partial[0]

    def keep(self, k: int) -> None:
        self.total = (self.partial[0][k - 1], self.partial[1][k - 1])
        self.term = (self.nxt[0][-1], self.nxt[1][-1])


def series_values(ratios: TermRatios, z: np.ndarray, tol: float = 1e-14,
                  max_terms: int = 100_000) -> np.ndarray:
    """pFq at each entry of the argument vector z (float or complex) by
    direct summation.

    Stops once three consecutive terms are <= tol * |partial sum| at every
    node; raises OverflowError when a term or a partial sum is no longer
    finite, since the sum of the remaining terms is then unknown."""
    z = np.asarray(z)
    rows = _Rows(ratios, z)
    _sum_chunks(rows, tol, max_terms)
    return rows.total


def _series_vector_dd(ratios: TermRatios, z: np.ndarray, tol: float,
                      max_terms: int) -> np.ndarray:
    """series_values for real z in double-double.  The stopping rule is that
    of a term-by-term loop; only the order in which the terms and partial
    sums are rounded differs."""
    rows = _DDRows(ratios, z)
    _sum_chunks(rows, tol, max_terms)
    return rows.total[0] + rows.total[1]


def series_values_real(spec: HyperSeriesSpec, z: np.ndarray, tol: float = 1e-14,
                       max_terms: int = 100_000,
                       ratios: TermRatios | None = None) -> np.ndarray:
    """pFq(params; z_i) for a vector of real arguments, real parameters.

    ratios is the parameters' term-ratio table; a caller that sums the
    same series many times (the quadrature integrand) passes one table to
    every call.  Switches to double-double term recurrences as soon as the
    predicted alternating-sum cancellation exceeds the double-precision
    budget.  Raises OverflowError when a term or partial sum overflows.
    """
    if ratios is None:
        ratios = TermRatios([a.real for a in spec.numerator],
                            [b.real for b in spec.denominator])
    z = np.asarray(z, dtype=float)
    if _predicted_cancellation(spec.p, spec.q, float(z.min())) > _DD_CANCEL_THRESHOLD:
        return _series_vector_dd(ratios, z, tol, max_terms)
    return series_values(ratios, z, tol, max_terms)

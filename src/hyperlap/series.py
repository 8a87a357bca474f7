"""Direct evaluation of the generalized hypergeometric series pFq.

The series  sum_n  prod_i (a_i)_n / prod_j (b_j)_n * z^n / n!  has the
term ratio  t_{n+1} / t_n = r_n * z,  r_n = prod_i (a_i + n) / prod_j
(b_j + n) / (n + 1).  The float and complex regimes form the terms from
a TermRatios table (_terms) and return their correctly rounded sum:

* terminating series (a nonpositive-integer numerator parameter) are
  summed exactly to the last nonzero term;
* other series off the unit circle are summed until three consecutive
  terms are below tol relative to the partial sum, and the rest is
  bounded by a geometric tail with a ratio bound valid for every later
  step;
* |z| = 1 with p = q + 1 converges only algebraically; terms behave like
  C z^n n^(-1-delta) sum_k e_k n^-k with delta the parametric excess.
  The remainder past the summed prefix is its exact asymptotic expansion,
  the e_k from the term ratio alone and C from the computed term t_N; its
  sums sum_j z^j (1 + j/N)^(-1-delta-k) expand in the power sums
  sum_j j^l z^j, read as zeta(-l) at z = 1 and as the Abel sums
  Li_(-l)(z), polynomials in 1/(1-z), on the rest of the circle;
* p = q with large negative real z suffers exponential cancellation and
  is summed term by term in double-double precision.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass, field, replace
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
    "converges",
    "derivative_shift",
    "eval_series",
    "parametric_excess",
    "series_values_real",
]

_ABS_FLOOR = 1e-300
# predicted cancellation above which eval_series sums in double-double
_DD_CANCEL_THRESHOLD = 1e6
_EPS = 2.220446049250313e-16


def parametric_excess(numerator, denominator) -> complex:
    """sum(b_j) - sum(a_i), which decides convergence on the unit circle;
    parameters given as arrays give the excess of each row."""
    return sum(denominator, complex(0.0)) - sum(numerator, complex(0.0))


def converges(p: int, q: int, argument: complex, delta):
    """Whether a pFq series that does not terminate converges at argument:
    every z for p <= q, |z| < 1 for p = q + 1, and on |z| = 1 an excess
    delta with Re(delta) > 0, or Re(delta) > -1 away from z = 1.  An array
    delta gives a row mask."""
    if p <= q:
        return True
    if p == q + 1:
        r = abs(argument)
        if r < 1.0 - 1e-14:
            return True
        if abs(r - 1.0) <= 1e-14:
            if abs(argument - 1.0) <= 1e-14:
                return delta.real > 0.0
            return delta.real > -1.0
    return False


def _termination_order(numerator: Sequence[complex]) -> int | None:
    """Smallest m with some numerator parameter equal to -m, else None."""
    orders = [round(-complex(a).real) for a in numerator if is_nonpositive_integer(a)]
    return min(orders) if orders else None


@dataclass(frozen=True)
class HyperSeriesSpec:
    """Parameters and argument of a pFq series.

    Construction rejects a nonpositive-integer denominator parameter
    unless a numerator parameter is a nonpositive integer of strictly
    smaller magnitude (the series then terminates before the zero
    denominator factor is reached).  order, the termination order, is
    found once here.
    """

    numerator: tuple[complex, ...]
    denominator: tuple[complex, ...]
    argument: complex
    order: int | None = field(init=False, repr=False, compare=False)

    def __init__(self, numerator: Sequence[complex], denominator: Sequence[complex],
                 argument: complex):
        object.__setattr__(self, "numerator", tuple(complex(x) for x in numerator))
        object.__setattr__(self, "denominator", tuple(complex(x) for x in denominator))
        object.__setattr__(self, "argument", complex(argument))
        object.__setattr__(self, "order", _termination_order(self.numerator))
        self._validate()

    def _validate(self) -> None:
        for b in self.denominator:
            if is_nonpositive_integer(b):
                mag = round(-b.real)
                if self.order is None or self.order >= mag:
                    raise ValueError(
                        f"denominator parameter {b} is a nonpositive integer and the "
                        "series does not terminate before the zero factor"
                    )

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
        return parametric_excess(self.numerator, self.denominator)


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
    if spec.order is not None or spec.argument == 0.0:
        return ConvergenceClass(Convergence.TERMINATING, delta)
    p, q = spec.p, spec.q
    if p <= q:
        return ConvergenceClass(Convergence.ALL_Z, delta)
    if not converges(p, q, spec.argument, delta):
        return ConvergenceClass(Convergence.DIVERGENT, delta)
    if abs(spec.argument) < 1.0 - 1e-14:
        return ConvergenceClass(Convergence.INSIDE_UNIT_DISK, delta)
    if delta.real > 0.0:
        return ConvergenceClass(Convergence.UNIT_CIRCLE_ABSOLUTE, delta)
    return ConvergenceClass(Convergence.UNIT_CIRCLE_CONDITIONAL, delta)


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


def _ratio_bound(spec: HyperSeriesSpec, n: int) -> float:
    """An upper bound on sup_{m >= n} |r_m z|, p <= q + 1.

    r_m pairs each numerator factor a + m with a denominator factor d + m
    (the b_j, then the m + 1 of the factorial).  With x = Re d + n > 0 and
    a - d = alpha + i beta, every m >= n has
      |a + m| / |d + m| <= max(1, |1 + alpha / x|) + |beta| / x
    (the bound of the real part is monotone in m, with limit 1), and an
    unpaired denominator factor has 1 / |d + m| <= 1 / x.  The product
    tends to the true limit |z| (p = q + 1) or 0 as n grows; it is
    infinite when some x <= 0 or a numerator factor is unpaired."""
    denominators = (*spec.denominator, complex(1.0))
    if spec.p > len(denominators):
        return math.inf
    bound = abs(spec.argument)
    for i, d in enumerate(denominators):
        x = d.real + n
        if x <= 0.0:
            return math.inf
        if i < spec.p:
            diff = spec.numerator[i] - d
            bound *= max(1.0, abs(1.0 + diff.real / x)) + abs(diff.imag) / x
        else:
            bound /= x
    return bound


def _recurrence_charge(spec: HyperSeriesSpec, value: complex, partial: np.ndarray) -> float:
    """The rounding the term recurrence can carry into a sum with partial
    sums S_m: a rounding eta_m in step m moves every later term by eta_m,
    value - S_m in all, and each step rounds p+q+3 factors.  For terms of
    one sign this is (p+q+3) eps sum n |t_n|; alternating terms charge far
    less."""
    return (spec.p + spec.q + 3) * _EPS * float(np.abs(value - partial).sum())


def _sum_direct(spec: HyperSeriesSpec, tol: float, max_terms: int) -> SeriesResult:
    """Sum until three consecutive |t_(k+1)| <= tol |partial sum through
    t_k|, forming the terms in doubling segments.  The rest of the series
    after t_0 .. t_(n-1) is bounded by |t_n| / (1 - rho), rho from
    _ratio_bound; the estimate adds the term recurrence's rounding
    (_recurrence_charge)."""
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
            partial = terms.cumsum()
            sums = np.abs(partial)
            small = mags[1:] <= tol * np.maximum(sums[:-1], _ABS_FLOOR)
            hits = np.flatnonzero(small[:-2] & small[1:-1] & small[2:])
            if hits.size or stop == max_terms or not math.isfinite(mags[-1]):
                break
    n = int(hits[0]) + 3 if hits.size else stop  # terms summed: t_0 .. t_(n-1)
    if not (math.isfinite(sums[n - 1]) and math.isfinite(mags[n])):
        raise OverflowError(f"pFq series term overflowed within {n + 1} terms "
                            f"(|z| = {abs(spec.argument):.6g})")
    total = _fsum(terms[:n])
    nxt = float(mags[n])
    rho = _ratio_bound(spec, n)  # |t_(m+1)| <= rho |t_m| for every m >= n
    cancel = max(float(sums[:n].max()) / max(abs(total), _ABS_FLOOR), 1.0)
    tail = max(nxt / (1.0 - rho) if rho < 1.0 else math.inf, cancel * _EPS * abs(total))
    tail += _recurrence_charge(spec, total, partial[:n])
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


# orders l of the power sums L_l(z) = sum_{j>=0} j^l z^j kept in the
# remainder; the next two are part of its estimate
_POWER_ORDERS = 12


def _abel_polynomials(orders: int) -> np.ndarray:
    """Integer coefficients c[l, m], l < orders, of the Abel sums
    L_l(z) = Li_(-l)(z) = sum_m c[l, m] w^m, w = 1/(1-z) (L_0 = w, the
    Eulerian polynomials of DLMF 25.12.iii).  z d/dz = (w^2 - w) d/dw
    gives c[l, m] = (m-1) c[l-1, m-1] - m c[l-1, m]."""
    m = np.arange(orders + 1.0)
    c = np.zeros((orders, orders + 1))
    c[0, 1] = 1.0
    for l in range(1, orders):
        c[l, 1:] = (m[1:] - 1.0) * c[l - 1, :-1]
        c[l] -= m * c[l - 1]
    return c


_ABEL_POLYNOMIALS = _abel_polynomials(_POWER_ORDERS + 2)
_POWERS = np.arange(_POWER_ORDERS + 3.0)  # exponents of w; l - 1 and l below
# the weights L_l at z = -1 are Boole's; at z = 1 they are zeta(-l), and
# 1 + zeta(0) = 1/2 at l = 0 (the Euler-Maclaurin constants; the integral
# term is apart): L_l(-1) = (2^(l+1) - 1) zeta(-l) for l >= 1, and
# L_0(-1) = 1/2 = (1 + zeta(0)) / (2^1 - 1)
_ALTERNATING_WEIGHTS = _ABEL_POLYNOMIALS @ 0.5 ** _POWERS
_ZETA_WEIGHTS = _ALTERNATING_WEIGHTS / (2.0 ** _POWERS[1:] - 1.0)


def _abel_weights(z: complex) -> np.ndarray:
    """L_0(z) .. L_13(z) for |z| = 1; real and tabled at z = +-1."""
    if z == 1.0:
        return _ZETA_WEIGHTS
    if z == -1.0:
        return _ALTERNATING_WEIGHTS
    return _ABEL_POLYNOMIALS @ (1.0 / (1.0 - z)) ** _POWERS


def _binomial_powers(s: np.ndarray, a: float) -> np.ndarray:
    """binom(-s, l) a^-l, l = 1 .. 13, one row per entry of the vector s.

    With weights w = _abel_weights(z), sum_{j>=0} z^j (1 + j/a)^(-s) is
    w_0 + sum_l binom(-s, l) a^-l w_l, expanding in powers of j/a (Abel
    summed at z != 1; at z = 1 the Euler-Maclaurin formula adds the
    integral a/(s-1)).  Double accuracy needs a >= ~20 (~40 at z = -1),
    |s| well below a, and a |1-z| well above |s| + 13, as
    L_l ~ l! / (1-z)^(l+1) near z = 1."""
    return np.cumprod((s[:, None] + _POWERS[:-2]) / (-a * _POWERS[1:-1]), axis=1)


def _fsum(x: np.ndarray) -> complex:
    """Correctly rounded sum of x, real and imaginary parts apart."""
    if np.iscomplexobj(x):
        return complex(math.fsum(x.real.tolist()), math.fsum(x.imag.tolist()))
    return complex(math.fsum(x.tolist()))


# orders of the remainder expansion summed past the cut; the next one is
# the estimate of the truncation error
_TAIL_ORDERS = 8
# the omitted orders are multiplied by this, as the expansions are only
# asymptotic
_TAIL_SAFETY = 10.0
# cuts N tried on |z| = 1, shortest first
_UNIT_RUNGS = (64, 128, 192, 384, 768, 1536, 3072, 6144, 12288, 24576)


def _remainder_coefficients(numerator: Sequence[complex], denominator: Sequence[complex],
                            orders: int) -> list:
    """e_0 = 1, e_1, ..., e_orders of the smooth part c(n) = t_n / z^n of the
    terms, c(n) ~ C n^-(1+delta) (1 + e_1/n + e_2/n^2 + ...), p = q + 1.

    With x = 1/n the ratio c(n+1)/c(n) = r_n gives phi(x/(1+x)) = Q(x)
    phi(x) for phi(x) = sum e_k x^k and Q(x) = prod(1 + a_i x) /
    prod(1 + b_j x) (1+x)^delta.  Q has no x^1 term, so the equation at
    order k+1 fixes e_k:
      k e_k = sum_{j<k} e_j (binom(-j, k+1-j) - Q_(k+1-j)).
    O(orders^2) operations, in float arithmetic for real parameters."""
    if all(x.imag == 0.0 for x in (*numerator, *denominator)):
        numerator = [x.real for x in numerator]
        denominator = [x.real for x in denominator]
    delta = sum(denominator) - sum(numerator)
    size = orders + 2
    q = [1.0] * size  # (1+x)^delta, then times each numerator and denominator factor
    for m in range(1, size):
        q[m] = q[m - 1] * (delta - m + 1) / m
    for a in numerator:
        for m in range(size - 1, 0, -1):
            q[m] += a * q[m - 1]
    for b in denominator:
        for m in range(1, size):
            q[m] -= b * q[m - 1]
    e = [1.0]
    for k in range(1, orders + 1):
        acc = -q[k + 1]
        for j in range(1, k):
            m = k + 1 - j  # binom(-j, m) = (-1)^m binom(j+m-1, m) = (-1)^m binom(k, m)
            binom = math.comb(k, m)
            acc += e[j] * ((binom if m % 2 == 0 else -binom) - q[m])
        e.append(acc / k)
    return e


def _sum_unit_power_tail(spec: HyperSeriesSpec, tol: float, max_terms: int) -> SeriesResult:
    """Direct summation on |z| = 1 (p = q + 1) with the exact remainder
    expansion.

    The prefix t_0 .. t_(N-1) is one _terms segment per cut, summed with
    _fsum at the cut taken.  With t_n = C z^n n^-s phi(1/n), s = 1 + delta,
    phi(x) = sum_k e_k x^k from the parameters alone
    (_remainder_coefficients) and C read from the computed t_N, never from
    a closed form, the remainder is
      t_N / phi(1/N) sum_{k<=8} e_k N^-k sum_{j>=0} z^j (1 + j/N)^(-s-k),
    each inner sum taken through the power sums L_l(z), l < 12
    (_binomial_powers).  z within 1e-14 of +-1 is taken as +-1, whose
    terms stay real.

    The truncation charge is _TAIL_SAFETY (the expansions are only
    asymptotic) times the first omitted order e_9 plus the l = 12, 13
    columns.  N is the first rung of _UNIT_RUNGS up to min(max_terms,
    24576), or max_terms below the first rung, at which the terms decay
    across [N/2, N] and that charge is below tol |value|.  The expansion
    needs N |1-z| well above |s| + 13, as L_l ~ l! / (1-z)^(l+1): where
    24576 |1-z| < 4 (|s| + 13) (z close to 1, but not 1) the rungs go on
    doubling up to max_terms.  Otherwise the
    last cut comes back with converged=False, its estimate infinite when
    the terms still rise there.  The estimate adds the recurrence's
    rounding (_recurrence_charge, the remainder in the value) and
    eps max|S_m| for the prefix; they do not decide convergence.  Raises
    OverflowError when a term, a partial sum or the remainder is no longer
    finite.
    """
    z = spec.argument
    if abs(z - 1.0) <= 1e-14:
        z = 1.0
    elif abs(z + 1.0) <= 1e-14:
        z = -1.0
    weights = _abel_weights(z)
    s = 1.0 + spec.excess()
    s = s if s.imag else s.real  # real arrays for real parameters
    rungs = list(_UNIT_RUNGS)
    if z != 1.0 and rungs[-1] * abs(1.0 - z) < 4.0 * (abs(s) + 13.0):
        while rungs[-1] < max_terms:
            rungs.append(2 * rungs[-1])
    limit = min(max_terms, rungs[-1])
    orders = np.arange(_TAIL_ORDERS + 2)
    exponents = s + orders
    integral = 1.0 / (exponents - 1.0) if z == 1.0 else 0.0
    coeffs = np.array(_remainder_coefficients(spec.numerator, spec.denominator,
                                              _TAIL_ORDERS + 1))
    table = TermRatios(spec.numerator, spec.denominator)
    terms = np.ones(1, dtype=table.dtype)  # signed terms t_0 .. t_n (z^n included)
    for n in [n for n in rungs if n < limit] + [limit]:
        # overflow is detected below: a non-finite term or partial sum leaves
        # the last partial sum non-finite
        with np.errstate(over="ignore", invalid="ignore"):
            terms = np.concatenate([terms, _terms(table, z, terms[-1], len(terms) - 1, n)])
            partial = np.cumsum(terms[:n])  # S_0 .. S_(n-1)
        if not cmath.isfinite(partial[-1]):
            raise OverflowError(
                f"pFq series term at z = {z} overflowed within {n + 1} terms")
        decaying = float(np.abs(table.ratios(n)[n // 2:n]).max()) <= 1.0
        if not (decaying or n == limit):
            continue
        # the remainder over t_n: sum_k e_k n^-k sum_j z^j (1 + j/n)^(-s-k) / phi(1/n)
        scaled = coeffs / float(n) ** orders
        powers = _binomial_powers(exponents, float(n))
        omitted = powers[:, _POWER_ORDERS - 1:] @ weights[_POWER_ORDERS:]  # l = 12, 13
        kept = weights[0] + n * integral + powers @ weights[1:] - omitted  # l < 12
        phi, kept_sum = complex(scaled[:-1].sum()), complex(scaled[:-1] @ kept[:-1])
        t_n = complex(terms[n])
        tail = t_n * kept_sum / phi
        nxt = t_n * (kept_sum + complex(scaled[-1] * kept[-1])) / (phi + complex(scaled[-1]))
        if not cmath.isfinite(tail):
            raise OverflowError(
                f"remainder of the pFq series at z = {z} overflowed at {n} terms")
        value = complex(partial[-1]) + tail  # the accepted cut's prefix is fsum'd below
        budget = tol * max(abs(value), _ABS_FLOOR)
        max_abs = float(np.abs(partial).max())
        rounding = _recurrence_charge(spec, value, partial) + _EPS * max_abs
        truncation = (_TAIL_SAFETY * (abs(nxt - tail)
                                      + abs(t_n * complex(scaled[:-1] @ omitted[:-1]) / phi))
                      if decaying else math.inf)
        if truncation <= budget:
            break
    value = _fsum(terms[:n]) + tail
    cancel = max(max_abs / max(abs(value), _ABS_FLOOR), 1.0)
    return SeriesResult(value, n, truncation + rounding, cancel, truncation <= budget,
                        "direct+power-tail")


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
        order = spec.order
        if order is None or spec.argument == 0.0:
            order = 0
        return _sum_terminating(spec, order)
    if cls.kind in (Convergence.UNIT_CIRCLE_ABSOLUTE, Convergence.UNIT_CIRCLE_CONDITIONAL):
        return _sum_unit_power_tail(spec, tol, max_terms)
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
# Both kernels form a block of rows of terms for every node at once and
# share one block loop (_sum_chunks): the float/complex kernel with a
# cumulative product and a cumulative sum down the rows of r_n * z, the
# double-double kernel with log-depth scans under dd_mul and dd_add over
# the same rows.  Every block costs the same fixed numpy overhead, so the
# float/complex kernel sizes its first block to the stop row predicted
# from the term magnitudes (_predicted_rows) and forms it at once; the
# double-double kernel keeps blocks of _CHUNK rows, since its scans round
# more the deeper a block is.  The loop also measures each node's rounding
# (its charge), so a caller picks the precision from the rounding it can
# afford.
# ---------------------------------------------------------------------------

# rows of terms formed per block past the predicted stop, and in every
# double-double block; the ratio table grows in whole multiples of it
_CHUNK = 32
# most entries (rows x nodes) of a block longer than _CHUNK rows, so a
# large predicted block costs little memory
_BLOCK_ENTRIES = 1 << 16


class TermRatios:
    """Term ratios r_n = prod(a_i + n) / prod(b_j + n) / (n + 1) of one
    parameter set, tabled for n = 0, 1, ... in whole chunks of _CHUNK.

    A request past the end grows the table in one step over an arange of
    n, so an entry depends on n and the parameters alone, never on what
    the table was asked before.
    Real parameters give a float table, complex ones a complex table; the
    double-double pairs (real parameters only) are built on first use.
    order, the series' termination order (None if it does not end), is
    found on first use: only the vector kernels read it."""

    def __init__(self, numerator: Sequence[complex], denominator: Sequence[complex]):
        params = [complex(x) for x in (*numerator, *denominator)]
        self.real = all(x.imag == 0.0 for x in params)
        conv = (lambda x: complex(x).real) if self.real else complex
        self.numerator = tuple(conv(a) for a in numerator)
        self.denominator = tuple(conv(b) for b in denominator)
        self._r = np.empty(0, dtype=float if self.real else complex)
        self._log_walk = np.empty(0)
        self._hi = np.empty(0)
        self._lo = np.empty(0)

    @functools.cached_property
    def order(self) -> int | None:
        return _termination_order(self.numerator)

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

    def log_walk(self, stop: int) -> np.ndarray:
        """sum_(k<=n) log|r_k|, at least for every n < stop, kept beside the
        table and extended as one running sum, so an entry depends on n and
        the parameters alone.  Past a terminating order
        (log|r_order| = -inf) the entries are -inf or NaN."""
        r = self.ratios(stop)
        done = len(self._log_walk)
        if done < len(r):
            # r_order = 0, and past it the rows may divide by 0
            with np.errstate(divide="ignore", invalid="ignore"):
                logs = np.log(np.abs(r[done:]))
                if done:
                    logs[0] += self._log_walk[-1]
                self._log_walk = np.concatenate([self._log_walk, np.cumsum(logs)])
        return self._log_walk

    def dd_ratios(self, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """The table as double-double (hi, lo) pairs, at least up to stop
        (real parameters)."""
        if len(self._hi) < stop:
            n = self._missing(len(self._hi), stop)
            hi, lo = dd.dd_ones(n.shape)
            # a + n is not exactly representable in one double; keep each
            # factor as an error-free two_sum pair; rows past a terminating
            # order may divide by 0, none is read
            with np.errstate(divide="ignore", invalid="ignore"):
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


def _predicted_rows(ratios: TermRatios, z_max: float, tol: float, max_terms: int) -> int:
    """Rows of the float/complex kernel's first block: the stop row
    predicted from the term magnitudes alone, at the call's largest |z|.

    A float walk of log|t_n| = sum_(k<n) log|r_k| + n log z_max (the walk
    that picks a working precision in mpmath's hypsum and in Johansson,
    ACM TOMS 45, 2019) finds the first n past the running peak with |t_n|
    below tol times the peak, and adds the three rows the stopping rule
    needs.  The sums of log|r_k| are the table's own (TermRatios.log_walk),
    so a call adds only n log z_max.  The terms fall like z^n / n!^k,
    k = q - p + 1, so a first window of 2 z_max^(1/k) + 2 _CHUNK rows holds
    that n unless the parameters are large; a longer walk doubles the
    window.  The walk reads the table from row 0, so its answer depends on
    the parameters, z_max and tol alone.  The prediction falls short where the partial sums lie
    far below the peak term (cancelling sums); the loop then goes on in
    blocks of _CHUNK rows."""
    if not math.isfinite(z_max):
        return 0  # no walk: the loop refuses the rows that are not finite
    log_z = math.log(z_max) if z_max > 0.0 else -math.inf
    k = len(ratios.denominator) - len(ratios.numerator) + 1
    stop = 2 * _CHUNK + (int(2.0 * z_max ** (1.0 / k)) if k > 0 else 0)
    while True:
        stop = min(stop, max_terms)
        # r_order = 0 ends a terminating series: log -inf, and no later row
        # is read
        walk = ratios.log_walk(stop)[:stop] + np.arange(1.0, stop + 1.0) * log_z
        peak = np.maximum.accumulate(np.maximum(walk, 0.0))  # log |t_0| = 0
        below = np.flatnonzero(walk < peak + math.log(tol))  # |t_(k+1)| vs peak
        if below.size:
            return min(int(below[0]) + 4, max_terms)
        if stop == max_terms:
            return max_terms
        stop *= 2


def _sum_chunks(rows, tol: float, max_terms: int) -> np.ndarray:
    """The block loop of the vector kernels; returns each node's rounding charge.

    rows.form(n, m) forms rows n .. n+m-1 at every node and returns the
    terms t_(n+1) .. t_(n+m) and the partial sums through t_n ..
    t_(n+m-1) (the leading parts, for double-double); rows.keep(k) makes
    the first k rows part of the running sum.  The blocks run through row
    rows.predicted(tol, max_terms) (0 for double-double), each capped at
    _BLOCK_ENTRIES entries but never under _CHUNK rows; past that row
    every block has _CHUNK rows.  Stops once three consecutive terms are
    <= tol * |partial sum| at every node, at that row, or after t_order of
    a terminating series (later rows may divide by a zero denominator
    factor).  Rows formed past the stop are never read.  Raises
    OverflowError once the last summed row's term or partial sum is no
    longer finite (a non-finite term or partial sum stays so), since the
    sum of the remaining terms is then unknown; it does so where a loop of
    _CHUNK-row blocks would, with the same row count.

    The charge is _recurrence_charge's (p+q+3) unit sum_m |value - S_m|
    over the N summed rows, bounded by the triangle inequality as
    (p+q+3) unit (sum_m |S_m| + N |value|), unit the kernel's rounding
    unit (rows.unit); sum_m |S_m| reuses the stopping test's |S_m|.  N
    is the call's row count, the same at every node: a node is charged
    for the rows its call summed."""
    if rows.ratios.order is not None:
        max_terms = min(max_terms, rows.ratios.order + 1)
    predicted = rows.predicted(tol, max_terms)
    cap = max(_CHUNK, _BLOCK_ENTRIES // max(rows.z.size, 1))
    consec = 0
    n = 0
    abs_sum = 0.0
    bad = None  # the first row whose term or partial sum is not finite
    # overflow is detected below, on the rows actually summed
    with np.errstate(over="ignore", invalid="ignore"):
        while n < max_terms:
            m = min(max(predicted - n, _CHUNK), cap, max_terms - n)
            nxt, partial = rows.form(n, m)
            sums = np.abs(partial)
            passed = np.abs(nxt) <= tol * np.maximum(sums, _ABS_FLOOR)
            small = passed.all(axis=1)
            kept = m
            for k, ok in enumerate(small.tolist()):
                consec = consec + 1 if ok else 0
                if consec >= 3:
                    kept = k + 1
                    break
            if bad is None and not (np.isfinite(nxt[kept - 1]).all()
                                    and np.isfinite(partial[kept - 1]).all()):
                bad = n + int(np.argmin(np.isfinite(nxt).all(axis=1)
                                        & np.isfinite(partial).all(axis=1)))
            if bad is not None:
                # refused where a loop over chunks of _CHUNK rows refuses,
                # with its row count, whatever the block sizes: at the stop
                # row, or at the end of the chunk that holds row bad
                end = min((bad // _CHUNK + 1) * _CHUNK, max_terms)
                if consec >= 3 or n + kept >= end:
                    raise OverflowError(
                        f"pFq series term overflowed after {min(n + kept, end)} terms "
                        f"(|z| up to {float(np.abs(rows.z).max()):.6g})")
            rows.keep(kept)
            abs_sum = abs_sum + sums[:kept].sum(axis=0)
            n += kept
            if consec >= 3:
                break
        # inside the errstate block: near the largest double the charge
        # overflows to inf, which the caller refuses
        factors = len(rows.ratios.numerator) + len(rows.ratios.denominator) + 3
        return factors * rows.unit * (abs_sum + n * sums[kept - 1])


class _Rows:
    """Blocks of the float/complex kernel: one cumulative product down the
    rows of r_n * z, started from the carried term in row 0, forms the
    terms, one cumulative sum the partial sums; the running sum is
    compensated across blocks."""

    unit = _EPS

    def __init__(self, ratios: TermRatios, z: np.ndarray):
        self.ratios = ratios
        self.z = z
        dtype = np.result_type(z.dtype, ratios.dtype)
        self.term = np.ones(z.shape, dtype)    # first term not yet summed
        self.total = np.zeros(z.shape, dtype)
        self.comp = np.zeros(z.shape, dtype)   # compensation across blocks

    def predicted(self, tol: float, max_terms: int) -> int:
        # at Re z < 0 the terms cancel: the partial sums lie far below the
        # peak term, and their rounding noise, which the block layout
        # changes, sets the stop row
        if (self.z.real < 0.0).any():
            return 0
        return _predicted_rows(self.ratios, float(np.abs(self.z).max(initial=0.0)),
                               tol, max_terms)

    def form(self, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        self.terms = np.empty((m + 1, *self.z.shape), self.term.dtype)  # t_n .. t_(n+m)
        self.terms[0] = self.term
        steps = self.terms[1:]
        np.multiply.outer(self.ratios.ratios(n + m)[n:n + m], self.z, out=steps)
        steps[0] *= self.term  # (r_n z) t_n, the product order of _terms
        steps.cumprod(axis=0, out=steps)
        self.sums = self.terms[:-1].cumsum(axis=0)  # t_n + .. + t_(n+k)
        return steps, self.total + self.sums

    def keep(self, k: int) -> None:
        y = self.sums[k - 1] - self.comp
        t = self.total + y
        self.comp = (t - self.total) - y
        self.total = t
        self.term = self.terms[-1]


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
    """Blocks of the double-double kernel: the steps r_n * z as (hi, lo)
    pairs with the carried term folded into row 0, scanned under dd_mul
    for the terms; the terms with the running sum folded into row 0,
    scanned under dd_add for the partial sums.  Every block has _CHUNK
    rows: the scans' rounding grows with their depth, and the kernel's
    64 DD_EPS sum |t_n| bound is for that depth."""

    unit = dd.DD_EPS

    def __init__(self, ratios: TermRatios, z: np.ndarray):
        self.ratios = ratios
        self.z = z
        self.term = dd.dd_ones(z.shape)    # first term not yet summed
        self.total = dd.dd_zeros(z.shape)

    def predicted(self, tol: float, max_terms: int) -> int:
        return 0

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


def _series_vector(ratios: TermRatios, z: np.ndarray, tol: float,
                   max_terms: int = 100_000) -> tuple[np.ndarray, np.ndarray]:
    """pFq at each entry of the argument vector z (1-D, float or complex)
    by direct summation, and each node's rounding charge (_sum_chunks).

    Stops once three consecutive terms are <= tol * |partial sum| at every
    node; raises OverflowError when a term or a partial sum is no longer
    finite, since the sum of the remaining terms is then unknown."""
    rows = _Rows(ratios, z)
    charge = _sum_chunks(rows, tol, max_terms)
    return rows.total, charge


def _series_vector_dd(ratios: TermRatios, z: np.ndarray, tol: float,
                      max_terms: int = 100_000) -> tuple[np.ndarray, np.ndarray]:
    """_series_vector for real z in double-double.  The stopping rule is
    that of a term-by-term loop; only the order in which the terms and
    partial sums are rounded differs."""
    rows = _DDRows(ratios, z)
    charge = _sum_chunks(rows, tol, max_terms)
    return rows.total[0] + rows.total[1], charge


def series_values_real(spec: HyperSeriesSpec, z: np.ndarray, tol: float = 1e-14,
                       max_terms: int = 100_000,
                       ratios: TermRatios | None = None) -> np.ndarray:
    """pFq(params; z_i) for a vector of real arguments, real parameters.

    ratios is the parameters' term-ratio table; a caller that sums the
    same series many times passes one table to every call.  Sums in float
    and measures the rounding: when some node's charge (_sum_chunks)
    exceeds tol * |value|, the vector is summed again in double-double.
    Raises OverflowError when a term or partial sum overflows.
    """
    if ratios is None:
        ratios = TermRatios([a.real for a in spec.numerator],
                            [b.real for b in spec.denominator])
    z = np.asarray(z, dtype=float)
    values, charge = _series_vector(ratios, z, tol, max_terms)
    if (charge > tol * np.abs(values)).any():
        values = _series_vector_dd(ratios, z, tol, max_terms)[0]
    return values

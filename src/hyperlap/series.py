"""Direct evaluation of the generalized hypergeometric series pFq.

The series  sum_n  prod_i (a_i)_n / prod_j (b_j)_n * z^n / n!  has the
term ratio  t_{n+1} / t_n = r_n * z,  r_n = prod_i (a_i + n) / prod_j
(b_j + n) / (n + 1).  The float and complex regimes form the terms from
rows of r_n (_grown_ratios, a TermRatios table) by one cumulative product
(_terms) and return their correctly rounded sum:

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
* a terminating or direct sum whose estimate, its rounding included,
  exceeds tol |value| (p = q at large negative z: the terms cancel
  exponentially) is summed again exactly (_sum_exact): the recurrence
  runs on the parameters' exact dyadic values in fixed-point integers,
  with a running bound of its rounding beside it.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# unused by the kernels; perfbench's tracer proxies series.dd, and perfbench
# changes only with its benchmark
from . import ddouble as dd  # noqa: F401
from .errors import DivergentSeriesError, SeriesPoleError
from .gammafn import POLE_TOL, complex_tuple, is_nonpositive_integer

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
    orders = [round(-a.real) for a in numerator
              if not a.real > POLE_TOL and is_nonpositive_integer(a)]
    return min(orders) if orders else None


def _validated_order(numerator: Sequence[complex], denominator: Sequence[complex]) -> int | None:
    """The termination order of a series with these parameters; SeriesPoleError
    at a nonpositive-integer denominator parameter the series reaches."""
    order = _termination_order(numerator)
    for b in denominator:
        if not b.real > POLE_TOL and is_nonpositive_integer(b):
            if order is None or order >= round(-b.real):
                raise SeriesPoleError(
                    f"denominator parameter {b} is a nonpositive integer and the "
                    "series does not terminate before the zero factor"
                )
    return order


@dataclass(frozen=True)
class HyperSeriesSpec:
    """Parameters and argument of a pFq series.

    Construction rejects (SeriesPoleError) a nonpositive-integer
    denominator parameter unless a numerator parameter is a nonpositive
    integer of strictly smaller magnitude (the series then terminates
    before the zero denominator factor is reached).  order, the termination order, is
    found once here; a parameter with Re > POLE_TOL is no pole.
    """

    numerator: tuple[complex, ...]
    denominator: tuple[complex, ...]
    argument: complex
    order: int | None = field(init=False, repr=False, compare=False)

    def __init__(self, numerator: Sequence[complex], denominator: Sequence[complex],
                 argument: complex):
        object.__setattr__(self, "numerator", complex_tuple(numerator, "series parameter"))
        object.__setattr__(self, "denominator", complex_tuple(denominator, "series parameter"))
        object.__setattr__(self, "argument", complex_tuple((argument,), "series argument")[0])
        object.__setattr__(self, "order", _validated_order(self.numerator, self.denominator))

    @property
    def p(self) -> int:
        return len(self.numerator)

    @property
    def q(self) -> int:
        return len(self.denominator)

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


def _sum_terminating(spec: HyperSeriesSpec, order: int,
                     table: "TermRatios | None" = None) -> SeriesResult:
    table = table or TermRatios(spec.numerator, spec.denominator)
    z = spec.argument if spec.argument.imag else spec.argument.real
    # t_0 .. t_order
    terms = np.empty(order + 1, complex if isinstance(z, complex) else table.dtype)
    terms[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        _terms(table.ratios(order), z, terms[0], 0, order, out=terms[1:])
        partial = np.add.accumulate(terms)
    if not np.isfinite(partial[-1]):  # a non-finite partial sum stays non-finite
        raise OverflowError(f"terminating pFq series overflowed within {order + 1} terms")
    total = _fsum(terms)
    max_abs = float(np.abs(partial).max())
    cancel = max_abs / max(abs(total), _ABS_FLOOR)
    tail = (order + 1) * _EPS * max_abs  # a-priori rounding bound
    return SeriesResult(total, order + 1, tail, max(cancel, 1.0), True, "terminating")


def _ratio_bound(table: "TermRatios", z: complex, n: int) -> float:
    """An upper bound on sup_{m >= n} |r_m z|, p <= q + 1, for the
    parameters of the table.

    r_m pairs each numerator factor a + m with a denominator factor d + m
    (the b_j, then the m + 1 of the factorial).  With x = Re d + n > 0 and
    a - d = alpha + i beta, every m >= n has
      |a + m| / |d + m| <= max(1, |1 + alpha / x|) + |beta| / x
    (the bound of the real part is monotone in m, with limit 1), and an
    unpaired denominator factor has 1 / |d + m| <= 1 / x.  The product
    tends to the true limit |z| (p = q + 1) or 0 as n grows; it is
    infinite when some x <= 0 or a numerator factor is unpaired."""
    p, denominators = len(table.numerator), (*table.denominator, 1.0)
    if p > len(denominators):
        return math.inf
    bound = abs(z)
    for i, d in enumerate(denominators):
        x = d.real + n
        if x <= 0.0:
            return math.inf
        if i < p:
            diff = table.numerator[i] - d
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
    return (spec.p + spec.q + 3) * _EPS * float(np.add.reduce(np.abs(value - partial)))


# bits of the exact kernel's fixed point past the peak term and tol
_GUARD_BITS = 64
# a float product of nonnegative factors, raised by this, bounds the exact one
_UP = 1.0 + 4.0 * _EPS


def _dyadic(x) -> tuple[int, int, int]:
    """(re, im, e) with x = (re + i im) / 2^e exactly, x a float or a
    complex: a double is a dyadic rational."""
    (rn, rd), (im, idn) = x.real.as_integer_ratio(), x.imag.as_integer_ratio()
    d = max(rd, idn)
    return rn * (d // rd), im * (d // idn), d.bit_length() - 1


def _sum_exact(table: "TermRatios", z: complex, tol: float, max_terms: int,
               scale: float) -> SeriesResult:
    """pFq at z from the parameters of the table, the term recurrence run
    exactly in fixed point (the technique of mpmath's hypsum and of
    Johansson, ACM TOMS 45, 2019).

    The parameters and z are dyadic rationals, so each ratio r_n z is an
    exact quotient of Gaussian integers (of integers, when the parameters
    and z are real).  A term t_n is held as the two integers of t_n 2^P,
    and each step floors its one division.  P is the bits of the peak
    term plus log2(1/tol) plus _GUARD_BITS; scale is the largest partial
    sum the caller's float sum measured, or a bound of it, and twice it
    bounds the peak term.  Beside the recurrence runs a bound E_n of the
    error of t_n 2^P: E_(n+1) = |r_n z| E_n plus one unit per part that
    did not divide exactly, and the sum rounds by sum E_n / 2^P.  A
    terminating series is summed through t_order, the rest being exactly
    0; another stops at the first n with |t_n| far below |S_n| and a tail
    bound (|t_n| + E_n / 2^P) / (1 - rho), rho = _ratio_bound, within
    tol |S_n| / 2, or at max_terms.  While the rounding passes
    tol |value| / 4 (a value far below the peak term, or a scale that
    understates it) the sum runs again with the bits it lacked, three runs
    at most.  The estimate is the tail bound, the rounding and half an ulp
    of the returned value; converged when it is within tol |value|.
    cancellation_ratio is the largest |S_m| over |value|, to a factor of 2.
    """
    z = complex(z)
    order = table.order
    limit = max_terms if order is None else order + 1
    bits = max(math.frexp(scale)[1] + 1, 0) + math.ceil(-math.log2(tol)) + _GUARD_BITS
    num = [_dyadic(a) for a in table.numerator]
    den = [_dyadic(b) for b in table.denominator]
    zr, zi, ez = _dyadic(z)
    shift = sum(e for *_, e in den) - sum(e for *_, e in num) - ez
    up, down = max(shift, 0), max(-shift, 0)  # the power of 2 in every ratio
    small = math.ceil(-math.log2(tol)) + 4  # bits by which |t_n| < tol |S_n| / 5
    real = not (zi or any(i for _, i, _ in num + den))
    for _ in range(3):
        one = 1 << bits
        tr, ti, sr, si = one, 0, 0, 0
        err = rounding = 0.0
        top = 0
        # the factors a + n, b + n times 2^e as [re, im, 2^e]
        fnum = [[r, i, 1 << e] for r, i, e in num]
        fden = [[r, i, 1 << e] for r, i, e in den]
        tail = 0.0  # a terminating series ends exactly
        n = 0
        while n < limit:
            n += 1
            sr += tr
            si += ti
            rounding += err
            size = sr.bit_length() if real else max(sr.bit_length(), si.bit_length())
            # t_n = t_(n-1) r_(n-1) z = t_(n-1) N / D, with complex
            # parameters as N conj(D) / |D|^2; real ones skip the
            # imaginary parts, all 0
            if real:
                nr, d = zr, n
                for f in fnum:
                    nr *= f[0]
                    f[0] += f[2]
                for f in fden:
                    d *= f[0]
                    f[0] += f[2]
                nr, d = nr << up, d << down
                tr, rx = divmod(tr * nr, d)
                err = err * abs(nr / d) * _UP + (rx != 0)
                tsize = tr.bit_length()
            else:
                nr, ni, d, di = zr, zi, n, 0
                for f in fnum:
                    nr, ni = nr * f[0] - ni * f[1], nr * f[1] + ni * f[0]
                    f[0] += f[2]
                for f in fden:
                    d, di = d * f[0] - di * f[1], d * f[1] + di * f[0]
                    f[0] += f[2]
                nr, ni = (nr * d + ni * di) << up, (ni * d - nr * di) << up
                d = (d * d + di * di) << down
                (tr, rx), (ti, ry) = divmod(tr * nr - ti * ni, d), divmod(tr * ni + ti * nr, d)
                err = err * math.hypot(nr / d, ni / d) * _UP + (rx != 0) + (ry != 0)
                tsize = max(tr.bit_length(), ti.bit_length())
            if size > top:
                top = size
            if order is None and (tsize + small <= size or n == limit):
                rho = _ratio_bound(table, z, n)
                tail = ((math.hypot(tr / one, ti / one) + math.ldexp(err, -bits)) / (1.0 - rho)
                        if rho < 1.0 else math.inf)
                if tail <= 0.5 * tol * math.hypot(sr / one, si / one):
                    break
        value = complex(sr / one, si / one)
        rounding = math.ldexp(rounding * _UP, -bits)
        lacking = rounding / (0.25 * tol * abs(value)) if value else math.inf
        if lacking <= 1.0 or rounding == 0.0:
            break
        bits += min(math.ceil(math.log2(lacking)), 1024) + 4
    estimate = tail + rounding + 0.5 * _EPS * abs(value)
    cancel = max(math.ldexp(1.0, top - bits) / max(abs(value), _ABS_FLOOR), 1.0)
    return SeriesResult(value, n, estimate, cancel, estimate <= tol * abs(value), "exact")


def _sum_direct(spec: HyperSeriesSpec, tol: float, max_terms: int,
                table: "TermRatios | None" = None) -> SeriesResult:
    """Sum until three consecutive |t_(k+1)| <= tol |partial sum through
    t_k|, forming the terms in doubling segments.  The rest of the series
    after t_0 .. t_(n-1) is bounded by |t_n| / (1 - rho), rho from
    _ratio_bound; the estimate adds the term recurrence's rounding
    (_recurrence_charge)."""
    table = table or TermRatios(spec.numerator, spec.denominator)
    z = spec.argument if spec.argument.imag else spec.argument.real
    # t_0 .. t_stop, with room for the first segment
    terms = np.empty(min(2 * _CHUNK, max_terms) + 1,
                     complex if isinstance(z, complex) else table.dtype)
    terms[0] = 1.0
    stop = 0
    # overflow is detected below, on the terms summed
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            start, stop = stop, min(max(2 * stop, 2 * _CHUNK), max_terms)
            terms = _room(terms, stop)
            _terms(table.ratios(stop), z, terms[start], start, stop,
                   out=terms[start + 1:stop + 1])
            mags = np.abs(terms)  # t_0 .. t_stop
            partial = np.add.accumulate(terms)
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
    rho = _ratio_bound(table, z, n)  # |t_(m+1)| <= rho |t_m| for every m >= n
    cancel = max(float(np.maximum.reduce(sums[:n])) / max(abs(total), _ABS_FLOOR), 1.0)
    tail = max(nxt / (1.0 - rho) if rho < 1.0 else math.inf, cancel * _EPS * abs(total))
    tail += _recurrence_charge(spec, total, partial[:n])
    return SeriesResult(total, n, tail, cancel, hits.size > 0, "direct")


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


def _binomial_powers(s: np.ndarray, n: int) -> np.ndarray:
    """binom(-s, l) a^-l, l = 1 .. 13, one row per entry of the vector s,
    at a = n, the cut (its divisors -a l from _cut_scales).

    With weights w = _abel_weights(z), sum_{j>=0} z^j (1 + j/a)^(-s) is
    w_0 + sum_l binom(-s, l) a^-l w_l, expanding in powers of j/a (Abel
    summed at z != 1; at z = 1 the Euler-Maclaurin formula adds the
    integral a/(s-1)).  Double accuracy needs a >= ~20 (~40 at z = -1),
    |s| well below a, and a |1-z| well above |s| + 13, as
    L_l ~ l! / (1-z)^(l+1) near z = 1."""
    return np.multiply.accumulate((s[:, None] + _POWERS[:-2]) / _cut_scales(n)[1], axis=1)


def _fsum(x: np.ndarray) -> complex:
    """Correctly rounded sum of x, real and imaginary parts apart."""
    if x.dtype.kind == "c":
        return complex(math.fsum(x.real.tolist()), math.fsum(x.imag.tolist()))
    return complex(math.fsum(x.tolist()))


# orders of the remainder expansion summed past the cut; the next one is
# the estimate of the truncation error
_TAIL_ORDERS = 8
_TAIL_RANGE = np.arange(_TAIL_ORDERS + 2.0)
# binom(-j, m) = (-1)^m binom(k, m), k = j + m - 1, for every k the
# remainder coefficients reach
_SIGNED_BINOMIALS = [[float((-1) ** m * math.comb(k, m)) for m in range(k + 1)]
                     for k in range(_TAIL_ORDERS + 2)]
# the omitted orders are multiplied by this, as the expansions are only
# asymptotic
_TAIL_SAFETY = 10.0
# cuts N tried on |z| = 1, shortest first
_UNIT_RUNGS = (64, 128, 192, 384, 768, 1536, 3072, 6144, 12288, 24576)


@functools.lru_cache(maxsize=64)
def _cut_scales(n: int) -> tuple[np.ndarray, np.ndarray]:
    """N^k, k = 0 .. 9, and -N l, l = 1 .. 13, at the cut N: the divisors
    of the remainder coefficients and of _binomial_powers, made once per
    cut, read-only."""
    a = float(n)
    scales = a ** _TAIL_RANGE, -a * _POWERS[1:-1]
    for x in scales:
        x.flags.writeable = False
    return scales


def _remainder_coefficients(numerator: Sequence[complex], denominator: Sequence[complex],
                            orders: int) -> list:
    """e_0 = 1, e_1, ..., e_orders of the smooth part c(n) = t_n / z^n of the
    terms, c(n) ~ C n^-(1+delta) (1 + e_1/n + e_2/n^2 + ...), p = q + 1.

    With x = 1/n the ratio c(n+1)/c(n) = r_n gives phi(x/(1+x)) = Q(x)
    phi(x) for phi(x) = sum e_k x^k and Q(x) = prod(1 + a_i x) /
    prod(1 + b_j x) (1+x)^delta.  Q has no x^1 term, so the equation at
    order k+1 fixes e_k:
      k e_k = sum_{j<k} e_j (binom(-j, k+1-j) - Q_(k+1-j)).
    O(orders^2) operations, on running locals; float arithmetic when the
    parameters are floats, as _parameters gives real ones;
    orders <= _TAIL_ORDERS + 1."""
    delta = sum(denominator) - sum(numerator)
    size = orders + 2
    c = 1.0
    q = [c]  # (1+x)^delta, then times each numerator and denominator factor
    for m in range(1, size):
        c = c * (delta - m + 1) / m
        q.append(c)
    for a in numerator:  # Q_m + a Q_(m-1), with Q_(m-1) from before this factor
        before = q[0]
        for m in range(1, size):
            c = q[m]
            q[m] = c + a * before
            before = c
    for b in denominator:  # Q_m - b Q_(m-1), with Q_(m-1) just divided
        c = q[0]
        for m in range(1, size):
            c = q[m] - b * c
            q[m] = c
    e = [1.0]
    for k in range(1, orders + 1):
        acc = -q[k + 1]
        binom = _SIGNED_BINOMIALS[k]
        m = k  # k + 1 - j for e_j, j = 1 .. k-1
        for ej in e[1:]:
            acc += ej * (binom[m] - q[m])
            m -= 1
        e.append(acc / k)
    return e


def _sum_unit_power_tail(spec: HyperSeriesSpec, tol: float, max_terms: int,
                         delta: complex) -> SeriesResult:
    """Direct summation on |z| = 1 (p = q + 1), delta the parametric excess
    (classify's), with the exact remainder expansion.

    The prefix t_0 .. t_(N-1) is formed in place, one _terms segment per
    cut from the ratio rows grown to that cut (_grown_ratios), and summed
    with _fsum at the cut taken.  With t_n = C z^n n^-s phi(1/n),
    s = 1 + delta, phi(x) = sum_k e_k x^k from the parameters alone
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
    across [N/2, N] and the estimate is below tol |value|: that charge
    plus the recurrence's rounding (_recurrence_charge, the remainder in
    the value) and eps max|S_m| for the prefix.  The expansion needs
    N |1-z| well above |s| + 13, as L_l ~ l! / (1-z)^(l+1): where
    24576 |1-z| < 4 (|s| + 13) (z close to 1, but not 1) the rungs go on
    doubling up to max_terms.  Otherwise the last cut comes back with
    converged=False, its estimate infinite when the terms still rise
    there.  Raises OverflowError when a term, a partial sum or the
    remainder is no longer finite.
    """
    z = spec.argument
    if abs(z - 1.0) <= 1e-14:
        z = 1.0
    elif abs(z + 1.0) <= 1e-14:
        z = -1.0
    weights = _abel_weights(z)
    s = 1.0 + delta
    s = s if s.imag else s.real  # real arrays for real parameters
    rungs = list(_UNIT_RUNGS)
    if z != 1.0 and rungs[-1] * abs(1.0 - z) < 4.0 * (abs(s) + 13.0):
        while rungs[-1] < max_terms:
            rungs.append(2 * rungs[-1])
    limit = min(max_terms, rungs[-1])
    cuts = [n for n in rungs if n < limit] + [limit]
    exponents = s + _TAIL_RANGE
    integral = 1.0 / (exponents - 1.0) if z == 1.0 else 0.0
    real, numerator, denominator = _parameters(spec.numerator, spec.denominator)
    coeffs = np.array(_remainder_coefficients(numerator, denominator, _TAIL_ORDERS + 1))
    ratios = np.empty(0)
    # signed terms t_0 .. t_n (z^n included), with room for the first cut
    terms = np.empty(cuts[0] + 1, complex if not real or isinstance(z, complex) else float)
    terms[0] = 1.0
    start = 0
    # overflow is detected below: a non-finite term or partial sum leaves the
    # last partial sum non-finite, and a non-finite remainder is refused
    with np.errstate(all="ignore"):
        for n in cuts:
            ratios = _grown_ratios(ratios, numerator, denominator, n)
            terms = _room(terms, n)
            _terms(ratios, z, terms[start], start, n, out=terms[start + 1:n + 1])
            start = n
            partial = np.add.accumulate(terms[:n])  # S_0 .. S_(n-1)
            if not cmath.isfinite(partial[-1]):
                raise OverflowError(
                    f"pFq series term at z = {z} overflowed within {n + 1} terms")
            decaying = np.maximum.reduce(np.abs(ratios[n // 2:n])) <= 1.0
            if not (decaying or n == limit):
                continue
            # the remainder over t_n: sum_k e_k n^-k sum_j z^j (1 + j/n)^(-s-k) / phi(1/n)
            scaled = coeffs / _cut_scales(n)[0]
            powers = _binomial_powers(exponents, n)
            omitted = powers[:, _POWER_ORDERS - 1:] @ weights[_POWER_ORDERS:]  # l = 12, 13
            kept = weights[0] + n * integral + powers @ weights[1:] - omitted  # l < 12
            phi, kept_sum = complex(np.add.reduce(scaled[:-1])), complex(scaled[:-1] @ kept[:-1])
            t_n = complex(terms[n])
            tail = t_n * kept_sum / phi
            nxt = t_n * (kept_sum + complex(scaled[-1] * kept[-1])) / (phi + complex(scaled[-1]))
            if not cmath.isfinite(tail):
                raise OverflowError(
                    f"remainder of the pFq series at z = {z} overflowed at {n} terms")
            value = complex(partial[-1]) + tail  # the accepted cut's prefix is fsum'd below
            budget = tol * max(abs(value), _ABS_FLOOR)
            max_abs = float(np.maximum.reduce(np.abs(partial)))
            rounding = _recurrence_charge(spec, value, partial) + _EPS * max_abs
            truncation = (_TAIL_SAFETY * (abs(nxt - tail)
                                          + abs(t_n * complex(scaled[:-1] @ omitted[:-1]) / phi))
                          if decaying else math.inf)
            if truncation + rounding <= budget:
                break
    value = _fsum(terms[:n]) + tail
    cancel = max(max_abs / max(abs(value), _ABS_FLOOR), 1.0)
    estimate = truncation + rounding
    return SeriesResult(value, n, estimate, cancel, estimate <= budget, "direct+power-tail")


def eval_series(spec: HyperSeriesSpec, tol: float = 1e-12,
                max_terms: int = 100_000) -> SeriesResult:
    """Sum the series to relative tolerance tol: converged when the
    estimate, rounding included, is within tol |value|.

    Raises DivergentSeriesError outside the convergence domain.  A
    terminating or direct float sum that met its stopping rule with an
    estimate above tol |value| is summed again exactly (_sum_exact).
    Hitting max_terms is not an exception: the best estimate comes back
    with converged=False.
    """
    if not tol > 0.0:  # NaN too
        raise ValueError("tol must be positive")
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    cls = classify(spec)
    if not cls.summable:
        raise DivergentSeriesError(
            f"series p={spec.p}, q={spec.q} at z={spec.argument} diverges"
        )
    if cls.kind in (Convergence.UNIT_CIRCLE_ABSOLUTE, Convergence.UNIT_CIRCLE_CONDITIONAL):
        return _sum_unit_power_tail(spec, tol, max_terms, cls.delta)
    table = TermRatios(spec.numerator, spec.denominator)
    if cls.kind is Convergence.TERMINATING:
        order = spec.order
        if order is None or spec.argument == 0.0:
            order = 0
        result = _sum_terminating(spec, order, table)
    else:
        result = _sum_direct(spec, tol, max_terms, table)
    if result.converged and result.tail_estimate > tol * abs(result.value):
        return _sum_exact(table, spec.argument, tol, max_terms,
                          result.cancellation_ratio * max(abs(result.value), _ABS_FLOOR))
    return result


# ---------------------------------------------------------------------------
# Vectorized evaluation over many arguments (the quadrature integrand)
#
# The quadrature oracle sums the same series at a few hundred nodes per
# integral, a few dozen nodes per call.  One TermRatios table per integral
# holds the term ratios r_n, so a call does no per-term parameter work.
# The kernel forms a block of rows of terms for every node at once, with
# a cumulative product and a cumulative sum down the rows of r_n * z
# (_series_vector, _Rows).  Every block costs the same fixed numpy overhead, so
# every call's first block is sized to the stop row predicted from the term
# magnitudes (_predicted_rows) and formed at once.  The loop also measures each
# node's rounding (its charge), so a caller sums again exactly
# (_sum_exact) the nodes whose rounding it cannot afford.
# ---------------------------------------------------------------------------

# rows of terms formed per block past the predicted stop; the ratio table
# grows in whole multiples of it
_CHUNK = 32
# most entries (rows x nodes) of a block longer than _CHUNK rows, so a
# large predicted block costs little memory
_BLOCK_ENTRIES = 1 << 16
# the rows n = 0, 1, ... of every ratio table as floats, and 1/(n+1): made
# once, doubled when a table reaches past them (_grown_ratios), read-only
_INDEX = np.arange(float(8 * _CHUNK))
_RECIPROCAL = 1.0 / (_INDEX + 1.0)
_INDEX.flags.writeable = _RECIPROCAL.flags.writeable = False


def _parameters(numerator: Sequence[complex], denominator: Sequence[complex],
                ) -> tuple[bool, tuple, tuple]:
    """(real, numerator, denominator): the parameters as complex numbers,
    or as floats when every one is real, so that real parameters give
    float arithmetic."""
    params, p = complex_tuple((*numerator, *denominator), "series parameter"), len(numerator)
    if any([x.imag for x in params]):
        return False, params[:p], params[p:]
    params = tuple([x.real for x in params])
    return True, params[:p], params[p:]


def _grown_ratios(ratios: np.ndarray, numerator: Sequence[complex],
                  denominator: Sequence[complex], stop: int) -> np.ndarray:
    """The rows r_0 .. of ratios grown to hold at least r_0 .. r_(stop-1),
    in whole chunks of _CHUNK rows and at least doubled: each new r_n =
    1/(n+1) prod(a_i + n) / prod(b_j + n) from the rows of _INDEX, so an
    entry depends on n and the parameters alone.  Rows past a terminating
    order may divide by 0; the caller decides what that warns."""
    global _INDEX, _RECIPROCAL
    start = len(ratios)
    if start >= stop:
        return ratios
    end = max(-(-stop // _CHUNK) * _CHUNK, 2 * start)
    if len(_INDEX) < end:
        _INDEX = np.arange(float(max(end, 2 * len(_INDEX))))
        _RECIPROCAL = 1.0 / (_INDEX + 1.0)
        _INDEX.flags.writeable = _RECIPROCAL.flags.writeable = False
    n = _INDEX[start:end]
    r = _RECIPROCAL[start:end]
    for a in numerator:
        r = r * (a + n)
    for b in denominator:
        r = r / (b + n)
    return np.concatenate([ratios, r]) if start else r


class TermRatios:
    """Term ratios r_n = prod(a_i + n) / prod(b_j + n) / (n + 1) of one
    parameter set, tabled for n = 0, 1, ... in whole chunks of _CHUNK.

    A request past the end grows the table in one step (_grown_ratios),
    so an entry depends on n and the parameters alone, never on what the
    table was asked before.
    Real parameters give a float table, complex ones a complex table; the
    log walk is built on first use, from the class's empty table.  order,
    the series' termination order (None if it does not end), is found on
    first use: only the vector and exact kernels read it."""

    _log_walk = np.empty(0)

    def __init__(self, numerator: Sequence[complex], denominator: Sequence[complex]):
        self.real, self.numerator, self.denominator = _parameters(numerator, denominator)
        self._r = np.empty(0, dtype=float if self.real else complex)

    @functools.cached_property
    def order(self) -> int | None:
        return _termination_order(self.numerator)

    @property
    def dtype(self) -> np.dtype:
        return self._r.dtype

    def ratios(self, stop: int) -> np.ndarray:
        """The table, holding at least r_0 .. r_(stop-1)."""
        if len(self._r) < stop:
            # rows past a terminating order may divide by 0; none is read
            with np.errstate(divide="ignore", invalid="ignore"):
                self._r = _grown_ratios(self._r, self.numerator, self.denominator, stop)
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


def _terms(ratios: np.ndarray, z, term, start: int, stop: int, out=None) -> np.ndarray:
    """t_(start+1) .. t_stop from t_start = term, one cumulative product of
    the rows r_start .. r_(stop-1) of ratios times z, formed in out when it
    is given; z is a scalar, or a vector of nodes (one column each).
    Overflow is the caller's to detect."""
    steps = np.multiply.outer(ratios[start:stop], z, out=out)
    if stop > start:
        steps[0] *= term
    return np.multiply.accumulate(steps, out=steps)


def _room(terms: np.ndarray, stop: int) -> np.ndarray:
    """terms, or a copy of it in an array of stop + 1 entries when it holds
    fewer: room for t_0 .. t_stop."""
    if len(terms) > stop:
        return terms
    grown = np.empty(stop + 1, terms.dtype)
    grown[:len(terms)] = terms
    return grown


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
    the parameters, z_max and tol alone.  Where the partial sums lie far
    below the peak term (cancelling sums, Re z < 0) the stop lies past it,
    and the loop goes on in blocks of _CHUNK rows."""
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
        below = walk < peak + math.log(tol)  # |t_(k+1)| vs peak
        if below.any():
            return min(int(below.argmax()) + 4, max_terms)
        if stop == max_terms:
            return max_terms
        stop *= 2


class _Rows:
    """Blocks of the vector kernel: one cumulative product down the
    rows of r_n * z, started from the carried term in row 0, forms the
    terms, one cumulative sum the partial sums; the running sum is
    compensated across blocks."""

    def __init__(self, ratios: TermRatios, z: np.ndarray):
        self.ratios = ratios
        self.z = z
        self.dtype = np.promote_types(z.dtype, ratios.dtype)
        # first term not yet summed, running sum (None: no row kept), its compensation
        self.term, self.total, self.comp = 1.0, None, 0.0

    def form(self, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows n .. n+m-1 at every node: the terms t_(n+1) .. t_(n+m) and
        the partial sums through t_n .. t_(n+m-1)."""
        self.terms = np.empty((m + 1, *self.z.shape), self.dtype)  # t_n .. t_(n+m)
        self.terms[0] = self.term
        steps = _terms(self.ratios.ratios(n + m), self.z, self.term, n, n + m,
                       out=self.terms[1:])
        self.sums = self.terms[:-1].cumsum(axis=0)  # t_n + .. + t_(n+k)
        return steps, self.sums if self.total is None else self.total + self.sums

    def keep(self, k: int) -> None:
        """Make the first k rows formed part of the running sum."""
        self.term = self.terms[-1]
        if self.total is None:
            self.total = self.sums[k - 1].copy()
            return
        y = self.sums[k - 1] - self.comp
        t = self.total + y
        self.comp = (t - self.total) - y
        self.total = t


def _series_vector(ratios: TermRatios, z: np.ndarray, tol: float,
                   max_terms: int = 100_000) -> tuple[np.ndarray, np.ndarray]:
    """pFq at each entry of the argument vector z (1-D, float or complex)
    by direct summation, in blocks of rows (_Rows), and each node's
    rounding charge.

    One block rule for every call: the blocks run through the row
    _predicted_rows gives, each capped at _BLOCK_ENTRIES entries but never
    under _CHUNK rows, and past that row every block has _CHUNK rows.
    Stops once three consecutive terms are <= tol * |partial sum| at every
    node, at that row, or after t_order of a terminating series (later
    rows may divide by a zero denominator factor).  Rows formed past the
    stop are never read.  Raises OverflowError, with the rows summed, in
    the block whose last summed row's term or partial sum is not finite (a
    non-finite term or partial sum stays so), since the sum of the
    remaining terms is then unknown.

    The charge is _recurrence_charge's (p+q+3) eps sum_m |value - S_m|
    over the N summed rows, bounded by the triangle inequality as
    (p+q+3) eps (sum_m |S_m| + N |value|), |S_m| formed on the summed
    rows alone.  N is the call's row count, the same at every node: a
    node is charged for the rows its call summed."""
    rows = _Rows(ratios, z)
    if ratios.order is not None:
        max_terms = min(max_terms, ratios.order + 1)
    if not z.size:
        return np.zeros(0, rows.dtype), np.zeros(0)
    # a row passes at every node only if it passes at the node of largest |z|,
    # almost always the last to pass: rows are tested in full from the first there
    size = np.abs(z)
    far = int(size.argmax())
    z_max = float(size[far])
    predicted = _predicted_rows(ratios, z_max, tol, max_terms)
    cap = max(_CHUNK, _BLOCK_ENTRIES // max(z.size, 1))
    consec = 0
    n = 0
    abs_sum = 0.0
    # overflow is detected below, on the rows actually summed
    with np.errstate(over="ignore", invalid="ignore"):
        while n < max_terms:
            m = min(max(predicted - n, _CHUNK), cap, max_terms - n)
            nxt, partial = rows.form(n, m)
            at_far = np.abs(nxt[:, far]) <= tol * np.maximum(np.abs(partial[:, far]), _ABS_FLOOR)
            first, kept = int(at_far.argmax()), m
            consec = consec if at_far[0] else 0
            if at_far[first]:
                rest = np.abs(nxt[first:]) <= tol * np.maximum(np.abs(partial[first:]), _ABS_FLOOR)
                for k, ok in enumerate(rest.all(axis=1).tolist(), first):
                    consec = consec + 1 if ok else 0
                    if consec >= 3:
                        kept = k + 1
                        break
            if not (np.isfinite(nxt[kept - 1]).all() and np.isfinite(partial[kept - 1]).all()):
                raise OverflowError(
                    f"pFq series term overflowed after {n + kept} terms "
                    f"(|z| up to {z_max:.6g})")
            rows.keep(kept)
            sums = np.abs(partial[:kept])
            abs_sum = sums.sum(axis=0) if n == 0 else abs_sum + sums.sum(axis=0)
            n += kept
            if consec >= 3:
                break
        # inside the errstate block: near the largest double the charge
        # overflows to inf, which the caller refuses
        factors = len(ratios.numerator) + len(ratios.denominator) + 3
        return rows.total, factors * _EPS * (abs_sum + n * sums[-1])


def _resum_exact(ratios: TermRatios, z: np.ndarray, values: np.ndarray, charge: np.ndarray,
                 nodes, tol: float, max_terms: int = 100_000) -> None:
    """Sum the series again exactly (_sum_exact) at the given nodes of z,
    in place: each node's value, and the exact sum's estimate as its
    charge.  A charge is at least (p+q+3) eps times the largest partial
    sum (_series_vector)."""
    unit = (len(ratios.numerator) + len(ratios.denominator) + 3) * _EPS
    for i in nodes:
        res = _sum_exact(ratios, complex(z[i]), tol, max_terms, float(charge[i]) / unit)
        values[i] = res.value if values.dtype.kind == "c" else res.value.real
        charge[i] = res.tail_estimate


def series_values_real(spec: HyperSeriesSpec, z: np.ndarray, tol: float = 1e-14,
                       max_terms: int = 100_000,
                       ratios: TermRatios | None = None) -> np.ndarray:
    """pFq(params; z_i) for a vector of real arguments, real parameters.

    ratios is the parameters' term-ratio table; a caller that sums the
    same series many times passes one table to every call.  Sums in float
    and measures the rounding: every node whose charge (_series_vector)
    exceeds tol * |value| is summed again exactly (_resum_exact).  Raises
    OverflowError when a term or partial sum overflows.
    """
    if ratios is None:
        ratios = TermRatios([a.real for a in spec.numerator],
                            [b.real for b in spec.denominator])
    z = np.asarray(z, dtype=float)
    values, charge = _series_vector(ratios, z, tol, max_terms)
    _resum_exact(ratios, z, values, charge, np.flatnonzero(charge > tol * np.abs(values)),
                 tol, max_terms)
    return values

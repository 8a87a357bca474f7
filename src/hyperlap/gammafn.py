"""Complex gamma, log-gamma, Pochhammer symbols and stable gamma ratios.

Everything downstream (closed forms, series prefactors, quadrature
calibration) reduces to these four operations.  ln_gamma, the path of
complex arguments, is a Lanczos approximation (g=7, 9 coefficients) on
Re z >= 0.5 and the reflection formula with Hare's branch correction
elsewhere, giving the principal branch continuous on the plane cut along
the nonpositive real axis.  gamma, reciprocal_gamma and gamma_ratio take
ln|Gamma| at real arguments from math.lgamma (CPython's own
implementation) and the sign from the poles crossed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IndeterminateError, PoleError, ValidityError

__all__ = [
    "POLE_TOL",
    "GammaRatioSpec",
    "gamma",
    "gamma_ratio",
    "ln_gamma",
    "pochhammer",
    "reciprocal_gamma",
]

# Absolute distance to the nearest nonpositive integer below which an
# argument is treated as sitting on a gamma pole.  Kept well under every
# residual tolerance used by the identity checks so a pole can never
# masquerade as a huge finite value.
POLE_TOL = 1e-12

# Lanczos coefficients, g = 7, n = 9 (Godfrey's set).  Relative accuracy
# ~1e-15 on the right half plane, which the test suite pins down.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LANCZOS_TERMS = tuple(zip(_LANCZOS_C[1:], range(1, len(_LANCZOS_C))))

_LOG_SQRT_TWO_PI = 0.9189385332046727417803297364056176
_LOG_PI = 1.1447298858494001741434273513530587
_MAX_EXP = 709.0  # exp() overflow threshold for float64, with headroom


def nearest_pole_distance(z: complex) -> float:
    """Distance from z to the nearest nonpositive integer; an array z gives
    each element's distance."""
    n = np.minimum(np.rint(z.real), 0.0)
    return abs(z - n)


def is_nonpositive_integer(z: complex, tol: float = POLE_TOL) -> bool:
    """True when z lies within tol of 0, -1, -2, ..."""
    z = complex(z)
    if z.real > tol:  # exact: no pole lies within tol
        return False
    n = round(z.real)
    return n <= 0 and abs(z - n) <= tol


def _sin_pi(z: complex) -> complex:
    """sin(pi*z) with argument reduction on the real part.

    Reducing Re z modulo 2 keeps full accuracy near integer z, where the
    naive cmath.sin(pi*z) loses digits to the pi rounding error.
    """
    r = math.remainder(z.real, 2.0)
    return cmath.sin(complex(r * math.pi, z.imag * math.pi))


def _ln_gamma_right(z: complex) -> complex:
    """Lanczos log-gamma, valid for Re z >= 0.5."""
    zz = z - 1.0
    s = _LANCZOS_C[0]
    for c, i in _LANCZOS_TERMS:
        s += c / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    return _LOG_SQRT_TWO_PI + (zz + 0.5) * cmath.log(t) - t + cmath.log(s)


def ln_gamma(z: complex) -> complex:
    """Principal-branch log-gamma.

    Continuous on the complex plane cut along (-inf, 0]; real on the
    positive real axis.  Raises PoleError within POLE_TOL of a pole.
    """
    z, = complex_tuple((z,), "ln_gamma argument")
    if is_nonpositive_integer(z):
        raise PoleError(f"ln_gamma pole at z={z}")
    return _ln_gamma(z)


def _ln_gamma(z: complex) -> complex:
    """ln_gamma of a complex z off the poles."""
    if z.real >= 0.5:
        out = _ln_gamma_right(z)
    else:
        # Reflection with Hare's correction keeps the principal branch:
        # ln Gamma(z) = ln pi - ln sin(pi z) - ln Gamma(1-z) + 2*pi*i*k.
        k = math.floor(0.5 * z.real + 0.25)
        shift = complex(_LOG_PI, math.copysign(2.0 * math.pi, z.imag) * k)
        out = shift - cmath.log(_sin_pi(z)) - _ln_gamma_right(1.0 - z)
    if z.imag == 0.0 and z.real > 0.0:
        out = complex(out.real, 0.0)
    return out


def _real_gamma_sign(x: float) -> int:
    """Sign of Gamma(x) for real non-pole x (negative between odd poles)."""
    if x > 0.0:
        return 1
    return 1 if math.floor(-x) % 2 == 1 else -1


def gamma(z: complex) -> complex:
    """Gamma function, exp(ln_gamma(z)); exactly real for real z."""
    z, = complex_tuple((z,), "gamma argument")
    if is_nonpositive_integer(z):
        raise PoleError(f"gamma pole at z={z}")
    if z.imag == 0.0:
        ln_abs = math.lgamma(z.real)
        if ln_abs > _MAX_EXP:
            raise OverflowError(f"gamma({z}) exceeds double range")
        return complex(_real_gamma_sign(z.real) * math.exp(ln_abs), 0.0)
    lg = _ln_gamma(z)
    if lg.real > _MAX_EXP:
        raise OverflowError(f"gamma({z}) exceeds double range")
    return cmath.exp(lg)


def reciprocal_gamma(z: complex) -> complex:
    """1/Gamma(z); entire, exactly 0 at nonpositive integers."""
    z, = complex_tuple((z,), "reciprocal_gamma argument")
    if is_nonpositive_integer(z):
        return complex(0.0, 0.0)
    if z.imag == 0.0:
        ln_abs = math.lgamma(z.real)
        if -ln_abs > _MAX_EXP:
            raise OverflowError(f"1/gamma({z}) exceeds double range")
        return complex(_real_gamma_sign(z.real) * math.exp(-ln_abs), 0.0)
    return cmath.exp(-_ln_gamma(z))


def pochhammer(a: complex, n: int) -> complex:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1.

    Direct product, so nonpositive-integer a gives an exact zero once the
    zero factor is crossed.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError("pochhammer order n must be an int")
    if n < 0:
        raise ValueError("pochhammer order n must be nonnegative")
    a, = complex_tuple((a,), "pochhammer argument")
    out = complex(1.0, 0.0)
    for k in range(n):
        out *= a + k
        if out == 0.0:
            return complex(0.0, 0.0)
    if a.imag == 0.0:
        out = complex(out.real, 0.0)
    return out


@dataclass(frozen=True)
class GammaRatioSpec:
    """Arguments of a product-of-gammas ratio: prod Gamma(num) / prod Gamma(den)."""

    numerator: tuple[complex, ...]
    denominator: tuple[complex, ...]

    def __init__(self, numerator: Sequence[complex] = (), denominator: Sequence[complex] = ()):
        object.__setattr__(self, "numerator", complex_tuple(numerator, "gamma argument"))
        object.__setattr__(self, "denominator", complex_tuple(denominator, "gamma argument"))


def complex_tuple(values: Sequence[complex], what: str) -> tuple[complex, ...]:
    """values as a tuple of complex numbers, converting only the others;
    a value that is not finite raises ValidityError, naming it what."""
    out = tuple([x if type(x) is complex else complex(x) for x in values])
    for x in out:
        if not cmath.isfinite(x):
            raise ValidityError(f"{what} {x} is not finite")
    return out


def gamma_ratio(spec: GammaRatioSpec) -> complex:
    """Evaluate prod Gamma(num_i) / prod Gamma(den_j) in log space.

    A denominator argument at a nonpositive integer makes the ratio exactly
    zero (reciprocal-gamma convention).  A numerator pole raises PoleError;
    simultaneous numerator and denominator poles raise IndeterminateError
    because the limit, if any, is the caller's responsibility.  One pass
    over the arguments finds the poles and whether every one is real.
    """
    real = True
    for z in spec.numerator + spec.denominator:
        if not z.real > POLE_TOL and is_nonpositive_integer(z):
            num_poles = [z for z in spec.numerator if is_nonpositive_integer(z)]
            den_poles = [z for z in spec.denominator if is_nonpositive_integer(z)]
            if num_poles and den_poles:
                raise IndeterminateError(
                    f"gamma poles in both numerator {num_poles} and denominator {den_poles}")
            if num_poles:
                raise PoleError(f"gamma pole in ratio numerator at {num_poles}")
            return complex(0.0, 0.0)
        if z.imag:
            real = False
    if real:
        ln_abs = 0.0
        sign = 1
        for z in spec.numerator:
            ln_abs += math.lgamma(z.real)
            if z.real < 0.0:
                sign *= _real_gamma_sign(z.real)
        for z in spec.denominator:
            ln_abs -= math.lgamma(z.real)
            if z.real < 0.0:
                sign *= _real_gamma_sign(z.real)
        if ln_abs > _MAX_EXP:
            raise OverflowError("gamma ratio exceeds double range")
        return complex(sign * math.exp(ln_abs), 0.0)

    acc = complex(0.0, 0.0)
    for z in spec.numerator:
        acc += _ln_gamma(z)
    for z in spec.denominator:
        acc -= _ln_gamma(z)
    if acc.real > _MAX_EXP:
        raise OverflowError("gamma ratio exceeds double range")
    return cmath.exp(acc)

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlap.errors import IndeterminateError, PoleError, ValidityError
from hyperlap.gammafn import (POLE_TOL, GammaRatioSpec, gamma, gamma_ratio,
                              is_nonpositive_integer, ln_gamma, pochhammer,
                              reciprocal_gamma)

# reference values: 50-digit evaluations (mpmath 1.3), frozen
LN_GAMMA_REFS = [
    (complex(0.5, 0.0), complex(0.57236494292470009, 0.0)),
    (complex(7.3, 0.0), complex(7.1478925230222487, 0.0)),
    (complex(25.0, 0.0), complex(54.784729398112319, 0.0)),
    (complex(1.5, 2.5), complex(-2.0721512706826312, 1.1809590329077773)),
    (complex(-2.3, 1.2), complex(-2.671732246194629, -7.5212409984615057)),
    (complex(-5.5, 0.0), complex(-4.5178321740077414, -18.849555921538759)),
]
GAMMA_REFS = [
    (complex(-3.7, 0.0), complex(0.25164399590242268, 0.0)),
    (complex(10.3, 0.0), complex(716430.68906237641, 0.0)),
    (complex(2.0, 3.0), complex(-0.082395272665611884, 0.091774287435259315)),
]


def test_ln_gamma_trivial_anchors():
    assert ln_gamma(1.0) == 0.0
    assert abs(ln_gamma(0.5).real - math.log(math.sqrt(math.pi))) < 1e-14
    assert ln_gamma(2.0) == 0.0


@pytest.mark.parametrize("z,ref", LN_GAMMA_REFS)
def test_ln_gamma_reference_values(z, ref):
    got = ln_gamma(z)
    assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref))


@pytest.mark.parametrize("z,ref", GAMMA_REFS)
def test_gamma_reference_values(z, ref):
    got = gamma(z)
    assert abs(got - ref) <= 1e-13 * abs(ref)


def test_gamma_small_integers_and_half():
    assert abs(gamma(5.0) - 24.0) < 24.0 * 1e-13
    assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-14
    assert gamma(3.0).imag == 0.0  # exactly real on the real axis


@pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -3.0, -17.0, complex(-4.0, 0.0),
                               -3.0 + 1e-13])
def test_poles_raise(z):
    with pytest.raises(PoleError):
        ln_gamma(z)
    with pytest.raises(PoleError):
        gamma(z)


def test_gamma_overflow():
    with pytest.raises(OverflowError):
        gamma(200.0)


def test_reciprocal_gamma_zero_at_poles():
    assert reciprocal_gamma(0.0) == 0.0
    assert reciprocal_gamma(-7.0) == 0.0
    assert abs(reciprocal_gamma(4.0) - 1.0 / 6.0) < 1e-14


def test_recurrence_real_and_complex():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        z = complex(rng.uniform(0.1, 20.0), rng.uniform(-10.0, 10.0))
        lhs = gamma(z + 1)
        rhs = z * gamma(z)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    assert worst < 1e-12


def test_reflection():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        z = complex(rng.uniform(-8.0, 8.0), rng.uniform(-6.0, 6.0))
        if abs(z.imag) < 0.05 and abs(z.real - round(z.real)) < 0.05:
            continue
        val = gamma(z) * gamma(1 - z) * cmath.sin(math.pi * z) / math.pi
        worst = max(worst, abs(val - 1.0))
    assert worst < 1e-11


def test_duplication():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        z = complex(rng.uniform(0.05, 10.0), rng.uniform(-5.0, 5.0))
        lhs = gamma(2 * z)
        rhs = (2.0 ** (2 * z - 1) / math.sqrt(math.pi)) * gamma(z) * gamma(z + 0.5)
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    assert worst < 1e-11


def test_pochhammer_basics():
    assert pochhammer(3.0, 4) == 360.0
    assert pochhammer(-2.0, 3) == 0.0
    assert pochhammer(1.7 + 0.3j, 0) == 1.0
    with pytest.raises(ValueError):
        pochhammer(1.0, -1)
    with pytest.raises(TypeError):
        pochhammer(1.0, 2.5)


@settings(max_examples=200, deadline=None)
@given(a_re=st.floats(-5, 5), a_im=st.floats(-3, 3),
       m=st.integers(0, 12), n=st.integers(0, 12))
def test_pochhammer_composition(a_re, a_im, m, n):
    a = complex(a_re, a_im)
    whole = pochhammer(a, m + n)
    split = pochhammer(a, m) * pochhammer(a + m, n)
    assert abs(whole - split) <= 1e-13 * max(1.0, abs(whole))


def test_pochhammer_matches_gamma_ratio():
    rng = np.random.default_rng(104)
    for _ in range(300):
        a = complex(rng.uniform(0.05, 8.0), rng.uniform(-4.0, 4.0))
        n = int(rng.integers(0, 31))
        direct = pochhammer(a, n)
        ratio = gamma_ratio(GammaRatioSpec([a + n], [a]))
        assert abs(direct - ratio) <= 1e-11 * max(1.0, abs(direct))


def test_gamma_ratio_values():
    assert abs(gamma_ratio(GammaRatioSpec([1.0], [1.0])) - 1.0) < 1e-14
    assert abs(gamma_ratio(GammaRatioSpec([5.0], [3.0])) - 12.0) < 12.0 * 1e-13
    assert gamma_ratio(GammaRatioSpec([2.5], [-1.0])) == 0.0
    assert gamma_ratio(GammaRatioSpec([], [])) == 1.0


def test_gamma_ratio_pole_handling():
    with pytest.raises(PoleError):
        gamma_ratio(GammaRatioSpec([-2.0], [1.0]))
    with pytest.raises(IndeterminateError):
        gamma_ratio(GammaRatioSpec([-2.0], [-3.0]))


NON_FINITE = [math.nan, math.inf, -math.inf, complex(1.0, math.nan), complex(2.0, -math.inf)]


@pytest.mark.parametrize("fn", [gamma, ln_gamma, reciprocal_gamma])
@pytest.mark.parametrize("z", NON_FINITE)
def test_gamma_refuses_a_non_finite_argument(fn, z):
    # a bad input, not a numerical failure: nan and -inf used to fail in
    # round() or math.floor, +inf to overflow
    with pytest.raises(ValidityError, match="argument .* is not finite$"):
        fn(z)


@pytest.mark.parametrize("a", NON_FINITE)
def test_pochhammer_refuses_a_non_finite_argument(a):
    # (nan)_3 used to come back as nan without a word
    with pytest.raises(ValidityError, match="^pochhammer argument .* is not finite$"):
        pochhammer(a, 3)


@pytest.mark.parametrize("z", NON_FINITE)
def test_gamma_ratio_refuses_a_non_finite_argument(z):
    # 1 + nan i used to come back as nan + nan i without a word
    for num, den in (([2.5, z], [1.5]), ([2.5], [1.5, z])):
        with pytest.raises(ValidityError, match="^gamma argument .* is not finite$"):
            gamma_ratio(GammaRatioSpec(num, den))


def test_gamma_ratio_avoids_overflow():
    # each factor alone overflows double range; the ratio is tame
    val = gamma_ratio(GammaRatioSpec([250.3], [249.3]))
    assert abs(val - 249.3) < 249.3 * 1e-11


def test_gamma_ratio_complex_matches_direct():
    spec = GammaRatioSpec([2.2 + 0.4j, 1.1], [3.3 - 0.2j])
    ratio = gamma_ratio(spec)
    direct = gamma(2.2 + 0.4j) * gamma(1.1) / gamma(3.3 - 0.2j)
    assert abs(ratio - direct) <= 1e-13 * abs(direct)


# Gamma(x) at real x in [-12, 60], mpmath 1.3 at 40 digits, frozen: points
# 1e-4 from the poles 0, -1, -3 and -11, the zeros of ln|Gamma| near 1, 2
# and -2.457 (the last one itself), the minimum of Gamma on x > 0, and the
# range's ends
REAL_GAMMA_REFS = [
    (-11.9999, 2.088203144756112e-05), (-11.0001, 0.0002504599015141008),
    (-10.9999, -0.0002505822891675887), (-7.3, 0.000418387873013548),
    (-3.0001, 1666.4573519137095), (-2.9999, -1666.8760578105366),
    (-2.4570247382208006, -1.0), (-1.0001, 9999.577356844993),
    (-0.9999, -10000.422925525278), (-0.5, -3.544907701811032),
    (-0.0001, -10000.577314579576), (0.0001, 9999.422883231624), (0.3, 2.991568987687591),
    (0.9999, 1.0000577314579577), (1.0001, 0.9999422883231625),
    (1.4616321449683622, 0.8856031944108887), (1.9999, 0.9999577256848119),
    (2.0001, 1.0000422825519948), (3.7, 4.170651783796604), (10.3, 716430.6890623764),
    (25.25, 1.3821549138373968e+24), (42.5, 2.161528954754577e+50),
    (59.9, 9.217388786047855e+79), (60.0, 1.3868311854568984e+80),
]
# prod Gamma(num) / prod Gamma(den) at real arguments, mpmath 1.3 at 40
# digits, frozen
REAL_RATIO_REFS = [
    ([59.9, -0.0001], [60.0, 1.4616321449683622], -7505.337123519673),
    ([-11.0001, 0.3], [-2.4570247382208006, 42.5], -3.466380000974565e-54),
    ([0.9999, 2.0001], [1.0001, 1.9999], 1.0002000200020003),
    ([-10.9999, 25.25, -2.9999], [-7.3, 10.3], 1.926003775228636e+21),
]


@pytest.mark.parametrize("x,ref", REAL_GAMMA_REFS)
def test_real_gamma_and_its_reciprocal_against_references(x, ref):
    got = gamma(x)
    assert got.imag == 0.0
    assert abs(got.real - ref) <= 1e-13 * abs(ref)
    assert abs(reciprocal_gamma(x).real - 1.0 / ref) <= 1e-13 / abs(ref)


@pytest.mark.parametrize("num,den,ref", REAL_RATIO_REFS)
def test_real_gamma_ratio_against_references(num, den, ref):
    got = gamma_ratio(GammaRatioSpec(num, den))
    assert got.imag == 0.0
    assert abs(got.real - ref) <= 1e-13 * abs(ref)


def test_real_path_matches_complex_ln_gamma_right_of_one_half():
    # gamma takes ln|Gamma| from math.lgamma at real x, ln_gamma from the
    # Lanczos sum; the two agree where Gamma > 0
    rng = np.random.default_rng(105)
    for x in [0.5, 1.0, 2.0, *rng.uniform(0.5, 60.0, 500)]:
        ln = ln_gamma(complex(x))
        assert ln.imag == 0.0
        assert abs(math.log(gamma(x).real) - ln.real) <= 1e-13 * max(1.0, abs(ln.real))


@pytest.mark.parametrize("z,pole", [
    (POLE_TOL, True), (0.5, False), (-1e-13, True), (complex(-1e-13, 5e-13), True),
    (2e-12, False), (-4.0 + 0.5e-12, True), (-4.0 - 0.5e-12, True),
    # -1 + 1e-12 and -1 - 1e-12 round to distances of 0.99998e-12 and
    # 1.00009e-12 from -1, either side of tol
    (-1.0 + 1e-12, True), (-1.0 - 1e-12, False), (-1.0, True), (1.0, False),
])
def test_is_nonpositive_integer_at_the_tolerance(z, pole):
    assert is_nonpositive_integer(z) is pole

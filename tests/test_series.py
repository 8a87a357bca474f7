import contextlib
import hashlib
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlap import series
from hyperlap.cli import main
from hyperlap.errors import DivergentSeriesError, ValidityError
from hyperlap.series import (Convergence, HyperSeriesSpec, SeriesResult, TermRatios,
                             classify, derivative_shift, eval_series,
                             series_values_real)

from reference_oracles import brute_force_pfq, explicit_terminating_sum

EPS = 2.0 ** -52


def F(num, den, z):
    return HyperSeriesSpec(num, den, z)


def _term_ratio(spec, n):
    """t_(n+1) / t_n = z prod(a_i + n) / prod(b_j + n) / (n + 1), one
    scalar step of the scalar reference loops."""
    r = spec.argument / (n + 1)
    for a in spec.numerator:
        r *= a + n
    for b in spec.denominator:
        r /= b + n
    return r


# ---------------------------------------------------------------- classify

def test_classify_p_le_q_converges_everywhere():
    assert classify(F([1, 2], [3, 4], 123.0)).kind is Convergence.ALL_Z
    assert classify(F([1, 2], [3, 4], -500.0)).kind is Convergence.ALL_Z


def test_classify_unit_circle_absolute():
    # p = q+1 at z = 1 with positive excess
    spec = F([1.0, 0.9, 1.3, 1.1], [2.2, 2.6, 0.2], 1.0)
    cls = classify(spec)
    assert cls.kind is Convergence.UNIT_CIRCLE_ABSOLUTE
    assert abs(cls.delta - 0.7) < 1e-12


def test_classify_terminating_precedence():
    spec = F([-3.0, 5.0], [2.0], 7.0)  # would diverge if not terminating
    assert classify(spec).kind is Convergence.TERMINATING


def test_classify_inside_disk_and_divergent():
    assert classify(F([1, 2, 3], [4, 5], 0.5)).kind is Convergence.INSIDE_UNIT_DISK
    assert classify(F([1, 2, 3], [4, 5], 1.5)).kind is Convergence.DIVERGENT
    # z=1 with nonpositive excess diverges
    assert classify(F([2, 2, 2], [1.5, 1.5], 1.0)).kind is Convergence.DIVERGENT


def test_classify_conditional():
    spec = F([0.5, 0.7, 1.0], [1.0, 1.1], -1.0)  # excess -0.1
    assert classify(spec).kind is Convergence.UNIT_CIRCLE_CONDITIONAL
    # same excess at z=+1 is divergent
    spec = F([0.5, 0.7, 1.0], [1.0, 1.1], 1.0)
    assert classify(spec).kind is Convergence.DIVERGENT


def test_classify_zero_argument_terminates():
    assert classify(F([1, 2, 3, 4], [0.5], 0.0)).kind is Convergence.TERMINATING


def test_spec_construction_rejects_bad_denominator():
    with pytest.raises(ValueError):
        F([1.0], [-2.0], 0.5)
    with pytest.raises(ValueError):
        F([-3.0], [-3.0], 0.5)  # equal magnitude is not enough
    # terminating before the denominator zero factor is fine
    spec = F([-2.0], [-5.0], 0.5)
    assert spec.order == 2


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, complex(0.5, math.nan)])
def test_spec_construction_refuses_a_non_finite_parameter(x):
    # nan and -inf used to fail in round() or math.floor
    for num, den in (([x, 1.5], [2.5]), ([1.5], [2.5, x])):
        with pytest.raises(ValidityError, match="^series parameter .* is not finite$"):
            F(num, den, 0.5)


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, complex(0.5, math.inf)])
def test_eval_series_refuses_a_non_finite_argument(z):
    # a bad input, not the term overflow (exit 3) it used to report
    with pytest.raises(ValidityError, match="^series argument .* is not finite$"):
        eval_series(F([1.5], [2.5], z))


# ------------------------------------------------------------------- eval

def test_eval_trivial_values():
    r = eval_series(F([1, 2], [2], 0.5))
    assert abs(r.value - 2.0) < 1e-11
    r = eval_series(F([], [], 1.0))
    assert abs(r.value - math.e) < 1e-13
    r = eval_series(F([1.3, 0.2], [2.2, 0.7], 0.0))
    assert r.value == 1.0 and r.terms_used == 1
    r = eval_series(F([-1, 2], [4], 1.0))
    assert abs(r.value - 0.5) < 1e-14 and r.converged
    assert abs(r.value - 0.5) <= r.tail_estimate + 4 * EPS * 0.5


def test_eval_divergent_raises():
    with pytest.raises(DivergentSeriesError):
        eval_series(F([1, 2, 3], [4, 5], 1.5))


def test_eval_rejects_nonpositive_tol():
    with pytest.raises(ValueError):
        eval_series(F([], [], 1.0), tol=0.0)


def test_eval_rejects_nan_tol():
    # NaN compares false against 0 both ways
    with pytest.raises(ValueError, match="tol must be positive"):
        eval_series(F([1.1, 0.7], [1.3], -1.0), tol=math.nan)


def test_max_terms_returns_unconverged_estimate():
    r = eval_series(F([], [], 30.0), tol=1e-14, max_terms=5)
    assert not r.converged
    assert r.terms_used == 5
    assert r.tail_estimate > 0


def test_unit_argument_against_brute_force():
    # independent oracle: 1e7-term longdouble brute force
    num, den = [1.1, 0.9, 1.3, 2.5], [2.2, 2.6, 1.5]
    ref = brute_force_pfq(num, den, 1.0, n_terms=10_000_000)
    r = eval_series(F(num, den, 1.0), tol=1e-9)
    assert r.converged
    assert abs(r.value - ref) <= 1e-6 * abs(ref)


def test_unit_argument_small_excess_against_brute_force():
    num, den = [0.5, 0.8, 1.2, 2.0], [1.3, 1.9, 1.4]  # excess 0.1
    ref = brute_force_pfq(num, den, 1.0, n_terms=10_000_000)
    r = eval_series(F(num, den, 1.0), tol=1e-8)
    assert r.converged
    assert abs(r.value - ref) <= 1e-7 * abs(ref)


def test_alternating_unit_argument_against_brute_force():
    num, den = [1.7, 0.8, 3.3], [2.9, 2.3]  # 3F2(-1), conditional regime
    ref = brute_force_pfq(num, den, -1.0, n_terms=2_000_000)
    r = eval_series(F(num, den, -1.0), tol=1e-10)
    assert r.converged
    assert abs(r.value - ref) <= 1e-9 * abs(ref)


def _unit_argument_grid():
    """z = +-1 specs with excess 0.05 .. 3: 3F2 and 4F3, real and complex
    parameters."""
    families = [
        ([0.4, 1.3, 0.7], [1.9]),
        ([1.1, 0.6, 2.3, 0.9], [1.7, 2.4]),
        ([0.4 + 0.3j, 1.3, 0.7 - 0.2j], [1.9 + 0.1j]),
        ([1.1, 0.6 - 0.4j, 2.3, 0.9 + 0.25j], [1.7, 2.4 + 0.3j]),
    ]
    for num, den in families:
        for excess in (0.05, 0.3, 1.0, 3.0):
            # the last denominator parameter sets the real excess
            last = excess + sum(num).real - sum(den).real
            for z in (1.0, -1.0):
                yield F(num, [*den, last], z)


# mpmath 1.3.0, 40 digits, the specs of _unit_argument_grid in order: a
# 4000-term prefix plus the remainder from the Stirling expansion of the
# exact gamma-ratio term (DLMF 5.11.8, 30 orders) through mpmath's zeta and
# lerchphi; where mpmath.hyper converges (z = -1, and z = 1 for the real
# families with excess 0.3 .. 3) it agrees to 1e-40
_UNIT_GRID_REFERENCES = [
    12.905962818897883832,
    0.77730689735009567705,
    2.3913315294104029175,
    0.83799169920724039814,
    1.2807141400888759185,
    0.90464333443382183805,
    1.0737635528546263469,
    0.95402525293779792513,
    15.033581507873825419,
    0.75025470562382543594,
    2.895532695048449319,
    0.79741120116438673011,
    1.4413407076484086395,
    0.86443653461926514835,
    1.1245130223632889538,
    0.92768742937144339826,
    complex(15.723041171803822353, 7.0931494211661931951),
    complex(0.7260337840812127813, -0.080284947585031993752),
    complex(2.7234944752900872437, 0.75790630771503658311),
    complex(0.80056903618067785008, -0.059254672153894052611),
    complex(1.3478980538414679817, 0.13305856853918339886),
    complex(0.88250002314619435625, -0.035711424443374877405),
    complex(1.0912909414575829422, 0.031492896821546351743),
    complex(0.94328790447531148776, -0.017679165145866640238),
    complex(0.57772897055510635967, -2.0425867049631942034),
    complex(0.71296778862499085492, 0.10697980876710990327),
    complex(1.3909409956010889147, -1.3379578165234300569),
    complex(0.76770330836872606072, 0.088963133937582377226),
    complex(1.3767905560767966036, -0.35243346278660645488),
    complex(0.8452528209009426847, 0.062205112619096779516),
    complex(1.1326339431817072347, -0.078184774578435357522),
    complex(0.91798080398821629527, 0.035028064582693754963),
]


@pytest.mark.parametrize("max_terms", [20, 40, 100, 500, 3000])
def test_power_tail_against_frozen_references(max_terms):
    for spec, ref in zip(_unit_argument_grid(), _UNIT_GRID_REFERENCES, strict=True):
        got = series._sum_unit_power_tail(spec, 1e-12, max_terms, spec.excess())
        assert got.method == "direct+power-tail" and got.terms_used <= max_terms, spec
        if max_terms < 64 and not got.converged:
            continue  # one cut at max_terms, short of the first rung
        assert got.converged, spec
        assert abs(got.value - ref) <= got.tail_estimate + 4 * EPS * abs(ref), spec


# unit-circle draws at tol 1e-12, mpmath 1.3.0 at 40 digits.  z = +-1: 3F2
# and 4F3, complex parameters, excess 0.05 .. 0.1 at z = 1 (2F1 too),
# -1 < Re delta <= 0 at z = -1 (delta = 0 exactly in the fifth z = -1 row),
# parameters up to 16, computed as _UNIT_GRID_REFERENCES; every row but the
# 4F3 with excess 0.06 was checked against an independent mpmath route
# (hyper, Thomae's relation for 3F2(1) or Gauss's sum) to 1e-37
_UNIT_DRAWS = [
    ([0.4, 1.3, 0.7], [1.9, 0.55], 1, 12.905962818897941772),
    ([1.6, 0.9, 2.2], [2.4, 2.38], 1, 18.147537755323905595),
    ([0.4, 1.3, 0.7], [1.9, 0.8], 1, 2.3913315294104042685),
    ([2.1, 0.55, 1.45], [1.2, 3.9], 1, 2.2508380749395760704),
    ([0.35, 2.8, 1.15], [3.3, 3.5], 1, 1.152011749287235236),
    ([1.1, 0.6, 2.3, 0.9], [1.7, 2.4, 0.86], 1, 12.568144717897303297),
    ([1.1, 0.6, 2.3, 0.9], [1.7, 2.4, 1.3], 1, 2.0237113050242603857),
    ([0.7, 1.9, 0.45, 1.3], [2.6, 0.8, 2.65], 1, 1.2602445495868818156),
    ([0.4 + 0.3j, 1.3, 0.7 - 0.2j], [1.9 + 0.1j, 0.57 + 0.1j], 1,
     complex(5.8810338755981618991, -4.120108050564466337)),
    ([0.4 + 0.3j, 1.3, 0.7 - 0.2j], [1.9 + 0.1j, 1.1], 1,
     complex(1.6839609577856751194, 0.27871137595184173005)),
    ([1.1, 0.6 - 0.4j, 2.3, 0.9 + 0.25j], [1.7, 2.4 + 0.3j, 2.0 - 0.45j], 1,
     complex(1.4201422508643785111, -0.11370772717543123198)),
    ([0.4, 1.3, 0.7], [1.9, 0.9], -1, 0.85331399262782767427),
    ([2.1, 0.55, 1.45], [1.2, 4.9], -1, 0.8000638443449502005),
    ([1.7, 0.8, 3.3], [2.9, 2.6], -1, 0.65203452753826819893),
    ([1.7, 0.8, 3.3], [2.9, 2.0], -1, 0.58578944548010971339),
    ([0.6, 1.4, 2.5], [1.8, 2.7], -1, 0.73118325333149721559),
    ([0.6, 1.4, 2.5], [1.8, 1.73], -1, 0.63430792224082245019),
    ([0.6, 1.4, 2.5], [1.8, 1.71], -1, 0.63143344606102390841),
    ([0.4 + 0.3j, 1.3, 0.7 - 0.2j], [1.9 + 0.1j, 0.35 + 0.2j], -1,
     complex(0.63692222799419151668, 0.061065011339689193816)),
    ([1.7, 0.8 + 0.4j, 3.3], [2.9 - 0.3j, 2.8 + 0.4j], -1,
     complex(0.65625549122328739242, -0.11963618185032723437)),
    ([1.1, 0.6, 2.3, 0.9], [1.7, 2.4, 1.6], -1, 0.85068049437551714703),
    ([1.1, 0.6, 2.3, 0.9], [1.7, 2.4, 0.2], -1, 0.15320103916417370546),
    ([1.1, 0.6 - 0.4j, 2.3, 0.9 + 0.25j], [1.7, 2.4 + 0.3j, 0.6 - 0.35j], -1,
     complex(0.64846426127764316223, -0.027494839725035237916)),
    ([8.5, 7.2, 1.3], [9.1, 8.3], 1, 35.325429991924243682),
    ([8.5, 7.2, 1.3], [9.1, 8.3], -1, 0.4658728835045223435),
    ([15.3, 12.1, 2.2], [16.0, 14.1], 1, 349.81160526258615733),
    ([1.35, 0.85], [2.25], 1, 23.265872572168747785),
    ([2.2, 0.45], [2.75], 1, 8.1149416258649841396),
    ([-0.5, 1.3, 2.2], [1.7, 3.1], 1, 0.64228495750708567004),
    ([-0.5, 1.3, 2.2], [1.7, 0.9], -1, 1.7244287749070189838),
    ([6.5, 0.7, 1.9, 4.4], [5.2, 2.1, 7.1], 1, 3.53792240810245172),
    # |z| = 1, z != +-1; mpmath hyper, which agrees with 60 digits to 1e-35.
    # The six perfbench eval-regimes probes the earlier Levin u fallback
    # left unconverged (seed 42: levin.1, levin.6, levin.10; seed 7:
    # levin.6, levin.7, levin.10), theta = 0.05 and -0.05, complex
    # parameters, and -1 < Re delta <= 0: delta = 0 exactly in 3F2(0.6,
    # 1.4, 2.5; 1.8, 2.7), delta = -0.9 in 2F1(1.2, 0.9; 1.2) = (1-z)^-0.9,
    # and a complex excess with real part -0.15
    ([2.2118463363456873, 2.2941670434349333, 1.1563135620509426],
     [4.059805535552056, 1.9033424796768086], (0.7448055619982051+0.6672815558791789j),
     complex(0.94763134280522712755, 1.0844162080393711053)),
    ([2.2595780137316717, 1.8307320473623445, 2.347740040398836],
     [5.617681095669102, 1.432035447332174], (0.9095149281059816+0.4156712589924533j),
     complex(1.0879347193596543412, 3.1195393821552048137)),
    ([2.413992351070429, 1.8388213103321214, 0.5824607613728932],
     [3.0367065152633335, 2.6370458561667762], (0.8082138158662265+0.588889147329914j),
     complex(1.1667826094323304115, 0.4259074603732755053)),
    ([0.8037403536992676, 0.5873344052326788, 2.182259743120111],
     [3.181983015604043, 1.1001844279295858], (0.8877436332951589+0.46033818171417235j),
     complex(1.2417855717731794462, 0.4037832522779472664)),
    ([1.391661247564808, 1.860487579710867, 0.9842300230701244],
     [2.9625133035901303, 1.9457838222893342], (0.7285190930618763+0.6850254966381187j),
     complex(1.101895224876167879, 0.57460384363969485335)),
    ([2.196466666216336, 1.2069551504617182, 1.1853532473531767],
     [4.833681705536229, 0.3951390933102035], (0.8394421967017899+0.5434489841709832j),
     complex(0.74280716234669054477, 3.2613806576865611354)),
    ([0.4, 1.3, 0.7], [1.9, 0.8], (0.9987502603949663+0.04997916927067833j),
     complex(1.7209177945809994966, 0.29179331564978985044)),
    ([1.35, 0.85], [2.25], (0.9987502603949663-0.04997916927067833j),
     complex(3.11834838082596251, -1.3733582001763421315)),
    ([(0.4+0.3j), 1.3, (0.7-0.2j)], [(1.9+0.1j), 1.1], (-0.4161468365471424-0.9092974268256817j),
     complex(0.92403023941943081796, -0.16491781144769084724)),
    ([1.1, (0.6-0.4j), 2.3, (0.9+0.25j)],
     [1.7, (2.4+0.3j), (2.0-0.45j)], (0.7648421872844885+0.644217687237691j),
     complex(1.1679726744503988169, 0.20176794371750720219)),
    ([0.6, 1.4, 2.5], [1.8, 2.7], (0.5403023058681398+0.8414709848078965j),
     complex(0.94331823194603751146, 0.46888627148368534325)),
    ([1.1, 0.6, 2.3], [1.7, 1.8], (-0.8011436155469337-0.5984721441039565j),
     complex(0.71643576935927219938, -0.11745547196298320342)),
    ([1.2, 0.9], [1.2], (0.955336489125606+0.29552020666133955j),
     complex(0.85382005808615169572, 2.8396396142712189971)),
    ([(0.7+0.2j), 1.9, 0.45], [(2.6-0.3j), (0.3+0.1j)], (-0.5885011172553458+0.8084964038195901j),
     complex(0.60014287652072954479, 0.23758910720629552163)),
    ([0.6, 1.4, 2.5], [1.8, 1.73], (0.9210609940028851-0.3894183423086505j),
     complex(0.95752325467956571002, -1.5015083829945826742)),
]


@pytest.mark.parametrize("num,den,z,ref", _UNIT_DRAWS)
def test_unit_argument_draws_against_frozen_references(num, den, z, ref):
    r = eval_series(F(num, den, z), tol=1e-12)
    assert r.method == "direct+power-tail" and r.converged
    assert abs(r.value - ref) <= r.tail_estimate + 4 * EPS * abs(ref)


def _result_fields(r: SeriesResult) -> tuple:
    """Every field of a result, its floats as float.hex."""
    value = complex(r.value)
    return (value.real.hex(), value.imag.hex(), float(r.tail_estimate).hex(),
            float(r.cancellation_ratio).hex(), r.terms_used, r.converged, r.method)


def _digest(calls) -> str:
    """sha256 of the fields of eval_series(spec, tol, max_terms) over the
    calls, in order."""
    h = hashlib.sha256()
    for spec, tol, max_terms in calls:
        h.update(repr(_result_fields(eval_series(spec, tol, max_terms))).encode())
    return h.hexdigest()


_EXP_2I = complex(-0.4161468365471424, 0.9092974268256817)  # exp(2i), rounded
_EXP_005I = complex(0.9987502603949663, 0.04997916927067833)  # exp(0.05i), rounded
_EXP_0001I = complex(0.9999995000000417, 0.0009999998333333417)  # exp(0.001i), rounded
# the power tail at the tolerances the suite asks (series_unit 1e-6 sums to
# 1e-8), at caps next to the rungs, on complex parameters, on |z| = 1 away
# from +-1 (near 1 too, where the rungs double past 24576), and on terms
# still rising at the cap (an infinite estimate)
_POWER_TAIL_EXTRA = [
    (F([0.4 + 0.3j, 1.3, 0.7 - 0.2j], [1.9 + 0.1j, 1.1], z), tol, max_terms)
    for z in (1.0, -1.0, _EXP_2I, _EXP_005I)
    for tol, max_terms in ((1e-8, 100_000), (1e-12, 64), (1e-12, 65), (1e-12, 200))
] + [
    (F([0.4, 1.3, 0.7], [1.9, 0.8], z), tol, 100_000)
    for z in (1.0, -1.0, _EXP_2I, _EXP_0001I, -_EXP_005I)
    for tol in (1e-8, 1e-14)
] + [
    (F([300, 300, 1], [1.5, 600.5], z), 1e-12, max_terms)
    for z in (1.0, -1.0) for max_terms in (100, 200)
] + [
    (F([1.1, 0.6 - 0.4j, 2.3, 0.9 + 0.25j], [1.7, 2.4 + 0.3j, 0.86 + 0.1j], 1.0),
     1e-10, 100_000),
    (F([1.6, 0.9], [1.7], _EXP_005I), 1e-12, 100_000),
]
# direct and terminating sums, which share the ratio table and the term
# product with the power tail; the last p = q row cancels and is summed
# again exactly
_DIRECT_CALLS = [
    (F(num, den, z), tol, 100_000)
    for num, den, z in (
        ([1.3], [2.2], 3.5), ([0.4, 1.3], [1.9], 0.7), ([1.0 + 0.5j], [2.0], -3.0 + 1.0j),
        ([0.4, 1.3], [1.9], 0.3 + 0.6j), ([], [1.5], 40.0), ([1.2, 0.7], [2.5, 1.9], -9.0),
        ([-5.0, 1.3], [2.2], 0.6), ([-7.0, 0.5 + 0.2j], [1.3 - 0.1j], -2.5),
        ([-3.0, 2.0], [4.0], 1.0j), ([1.3, 0.2], [2.2, 0.7], 0.0), ([1.0], [2.0], -30.0),
    )
    for tol in (1e-9, 1e-14)
]
_DIGEST_CALLS = {
    **{f"grid_{max_terms}": [(spec, 1e-12, max_terms) for spec in _unit_argument_grid()]
       for max_terms in (20, 40, 100, 500, 3000)},
    "unit_draws": [(F(num, den, z), 1e-12, 100_000) for num, den, z, _ in _UNIT_DRAWS],
    "power_tail_extra": _POWER_TAIL_EXTRA,
    "direct_and_terminating": _DIRECT_CALLS,
}
# frozen from the power tail and the direct sum before their setup was made
# cheaper: the same operations on the same values, so every field is the
# same bit for bit
_FROZEN_DIGESTS = {
    "grid_20":
        "8030966b4cfdcdc996070bd18d0558ef6ccd297a3643adc788cd3c1c9a09ab80",
    "grid_40":
        "cad40698b4a797d8fdd08916d511d9debc68cda019472330247605f417e40bba",
    "grid_100":
        "103bec64616847d7879876c9dde36fa5cd8d06405e5db90709199194146d0173",
    "grid_500":
        "103bec64616847d7879876c9dde36fa5cd8d06405e5db90709199194146d0173",
    "grid_3000":
        "103bec64616847d7879876c9dde36fa5cd8d06405e5db90709199194146d0173",
    "unit_draws":
        "2e6bb77626a13dd5d49659ae2d7993bc70a73e214fb78876565dac7aaf417c66",
    "power_tail_extra":
        "2022943de9ad2f894d99bc7643b4e8fdea2ad83115607283bbb5387a73076d4d",
    "direct_and_terminating":
        "dc75aa956ffcba5ffbba8c84e0f674cd6d7fa872ca3fa551bb1ff043fedfeaef",
}


@pytest.mark.parametrize("group", list(_FROZEN_DIGESTS))
def test_series_results_bit_for_bit_against_frozen_digests(group):
    assert _digest(_DIGEST_CALLS[group]) == _FROZEN_DIGESTS[group]


# exp(2i), rounded
_UNIT_Z = complex(-0.4161468365471424, 0.9092974268256817)


@pytest.mark.parametrize("z", [1.0, -1.0, _UNIT_Z])
@pytest.mark.parametrize("a", [580, 600])
def test_power_tail_refuses_overflow(a, z):
    # the terms climb towards 1e308 long before they decay and overflow, at
    # n = 2650 with a = 600 and past the 3072 cut with a = 580
    num, den = [a, a, 1], [1.5, 2 * a + 0.5]
    with pytest.raises(OverflowError, match="overflowed"):
        eval_series(F(num, den, z))
    assert main(["eval", "pfq", "--num", f"{a},{a},1", "--den", f"1.5,{2 * a + 0.5}",
                 "--z", str(z)]) == 3


@pytest.mark.parametrize("z", [1.0, -1.0, _UNIT_Z])
def test_power_tail_refuses_estimate_of_still_rising_terms(z):
    # the terms of 3F2(300, 300, 1; 1.5, 600.5; z), |z| = 1, rise until
    # n ~ 44550, far past the 24576-term cap; no expansion there bounds the
    # error
    r = eval_series(F([300, 300, 1], [1.5, 600.5], z))
    assert not r.converged
    assert r.tail_estimate == math.inf
    assert main(["eval", "pfq", "--num", "300,300,1", "--den", "1.5,600.5",
                 "--z", str(z)]) == 3


@pytest.mark.parametrize("max_terms", [100, 200])
def test_power_tail_refuses_single_fit_of_still_rising_terms(max_terms):
    # one fit at the cap, the terms rising across its own window
    r = eval_series(F([300, 300, 1], [1.5, 600.5], 1.0), max_terms=max_terms)
    assert not r.converged
    assert r.tail_estimate == math.inf


# ------------------------------------------- scalar terminating and direct

def _scalar_terminating(spec, order):
    """The terminating sum as a per-term loop, one _term_ratio and one
    Kahan step per term: the reference for series._sum_terminating.
    Returns the result and the terms."""
    terms = []
    total = comp = complex(0.0)
    term = complex(1.0)
    max_abs = 0.0
    for n in range(order + 1):
        terms.append(term)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        max_abs = max(max_abs, abs(total))
        if n < order:
            term *= _term_ratio(spec, n)
    cancel = max(max_abs / max(abs(total), 1e-300), 1.0)
    return SeriesResult(total, order + 1, (order + 1) * EPS * max_abs, cancel, True,
                        "terminating"), terms


def _scalar_direct(spec, tol, max_terms):
    """The direct sum as a per-term loop with a Kahan sum, under the same
    stopping rule: the reference for series._sum_direct.  Its tail bound
    takes the largest step ratio observed past the cut, where
    series._sum_direct bounds that supremum from the parameters and adds
    the recurrence's rounding charge.  Returns the result and the summed
    terms."""
    terms = []
    total = comp = complex(0.0)
    term = complex(1.0)
    max_abs = 0.0
    consec = 0
    n = 0
    while n < max_terms:
        terms.append(term)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        max_abs = max(max_abs, abs(total))
        term *= _term_ratio(spec, n)
        n += 1
        if abs(term) <= tol * max(abs(total), 1e-300):
            consec += 1
            if consec >= 3:
                break
        else:
            consec = 0
    # the largest step ratio past the cut: 4000 steps and the limit
    ratio = max(abs(_term_ratio(spec, m)) for m in range(n, n + 4000))
    ratio = max(ratio, abs(spec.argument) if spec.p == spec.q + 1 else 0.0)
    cancel = max(max_abs / max(abs(total), 1e-300), 1.0)
    tail = max(abs(term) / (1.0 - ratio) if ratio < 1.0 else math.inf,
               cancel * EPS * abs(total))
    return SeriesResult(total, n, tail, cancel, consec >= 3, "direct"), terms


def _recurrence_charge(spec, terms):
    """(p+q+3) eps sum_m |S - S_m| over the partial sums S_m of the terms,
    S their sum: the rounding the term recurrence can carry."""
    partial = np.cumsum(terms)
    return (spec.p + spec.q + 3) * EPS * float(np.abs(partial[-1] - partial).sum())


def _rounding_charge(spec, terms):
    """The recurrence charge plus 4 eps sum |t_n| for the summation."""
    return _recurrence_charge(spec, terms) + 4.0 * EPS * float(np.abs(np.array(terms)).sum())


def _direct_grid():
    rng = np.random.default_rng(21)
    for _ in range(12):
        yield F(rng.uniform(0.3, 3.0, 3), rng.uniform(0.3, 3.0, 2), 0.5)
        yield F(rng.uniform(0.3, 3.0, 3) + 1j * rng.uniform(-0.5, 0.5, 3),
                rng.uniform(0.3, 3.0, 2) + 1j * rng.uniform(-0.5, 0.5, 2), 0.5)
        yield F(rng.uniform(0.3, 3.0, 2), rng.uniform(0.3, 3.0, 2), -rng.uniform(3.0, 13.0))


@pytest.mark.parametrize("max_terms", [5, 40, 100_000])
def test_direct_sum_matches_per_term_loop(max_terms):
    for spec in _direct_grid():
        ref, terms = _scalar_direct(spec, 1e-12, max_terms)
        got = series._sum_direct(spec, 1e-12, max_terms)
        assert (got.terms_used, got.converged, got.method) == \
            (ref.terms_used, ref.converged, ref.method), spec
        assert abs(got.value - ref.value) <= _rounding_charge(spec, terms), spec
        # the tail bound is never below the one from the observed supremum of
        # the step ratio, and within 10% of it once the sum has converged
        floor = ref.tail_estimate + _recurrence_charge(spec, terms)
        assert got.tail_estimate >= floor * (1.0 - 1e-12), spec
        assert not got.converged or got.tail_estimate <= 1.1 * floor, spec


def test_terminating_sum_matches_per_term_loop():
    rng = np.random.default_rng(22)
    for order in range(31):
        for cplx in (0.0, 0.4):
            num = [-order, *(rng.uniform(0.3, 3.0, 2) + 1j * cplx * rng.uniform(-1, 1, 2))]
            den = rng.uniform(0.3, 3.0, 2) + 1j * cplx * rng.uniform(-1, 1, 2)
            spec = F(num, den, rng.uniform(-2.0, 2.0))
            ref, terms = _scalar_terminating(spec, order)
            got = series._sum_terminating(spec, order)
            assert (got.terms_used, got.converged, got.method) == \
                (ref.terms_used, ref.converged, ref.method), spec
            assert abs(got.value - ref.value) <= _rounding_charge(spec, terms), spec
            assert ref.tail_estimate / 1.01 <= got.tail_estimate <= 1.01 * ref.tail_estimate
    spec = F([1.3, 0.2], [2.2, 0.7], 0.0)
    ref, _ = _scalar_terminating(spec, 0)
    assert eval_series(spec) == ref


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_terminating_sum_reads_no_table_row_past_its_order():
    # the table rows past the order hold b + n = 0 and are never read
    TermRatios([-2, 1], [-5]).ratios(3)
    r = eval_series(F([-2, 1], [-5], 0.5))
    assert abs(r.value - 1.225) <= r.tail_estimate + 4 * EPS


def test_direct_sum_refuses_overflow():
    # the terms 800^n / (n+1)! overflow long before they decay
    with pytest.raises(OverflowError, match="overflowed"):
        eval_series(F([1], [2], 800.0))
    assert main(["eval", "pfq", "--num", "1", "--den", "2", "--z", "800"]) == 3


def test_direct_sum_estimate_covers_recurrence_rounding():
    # mpmath 1.3.0, 30 digits: hyper([1.39, 0.95], [1.43, 2.14], -10).  The
    # float sum meets its stopping rule, and its estimate covers its
    # rounding; that estimate exceeds tol |value|, so eval_series sums the
    # series again exactly
    ref = 0.134383260948663775773
    spec = F([1.39, 0.95], [1.43, 2.14], -10.0)
    r = series._sum_direct(spec, 1e-12, 100_000)
    assert r.method == "direct" and r.converged
    assert abs(r.value - ref) <= r.tail_estimate
    r = eval_series(spec)
    assert r.method == "exact" and r.converged
    assert abs(r.value - ref) <= r.tail_estimate <= 1e-12 * abs(r.value)


# mpmath 1.3.0, 40 digits: alternating 2F2 direct sums, whose recurrence
# charge sum_m |value - S_m| is 1.3-23x below the positive-terms sum n |t_n|
@pytest.mark.parametrize("num,den,z,ref", [
    ([2.7386, 0.4827], [2.1164, 1.5759], -9.936, 0.25804644594224325751),
    ([0.4071, 0.4383], [0.7766, 2.9424], -6.371, 0.73815773905256580628),
    ([1.8938, 2.9563], [2.2037, 0.8671], -7.532, 0.0094190747334572768764),
    ([0.5801, 1.0691], [1.116, 0.3522], -11.503, -0.12858112491263806254),
    ([2.7216, 1.6975], [2.0156, 1.9074], -9.781, -0.00021930928642769705969),
])
def test_alternating_direct_sum_within_its_estimate(num, den, z, ref):
    r = series._sum_direct(F(num, den, z), 1e-12, 100_000)
    assert r.method == "direct" and r.converged
    assert abs(r.value - ref) <= r.tail_estimate
    r = eval_series(F(num, den, z))
    assert r.converged and abs(r.value - ref) <= r.tail_estimate <= 1e-12 * abs(r.value)


# mpmath 1.3.0, 40 digits.  Two draws of the perfbench eval-regimes
# workload (seed 42: half.18 and complex.8) whose error is the truncated
# tail itself: bounded with the last observed step ratio, they erred
# 4.581e-13 against an estimate of 4.573e-13 and 2.884e-13 against 2.863e-13
@pytest.mark.parametrize("num,den,ref", [
    ([0.47970891377898106, 1.90497089214242, 0.6946677593202853],
     [2.5265933142321217, 1.137903619595001], 1.149774289973694403481823),
    ([0.3998209634431704 - 0.390717708885442j, 1.3062963215281824 + 0.17530562866748411j,
      0.43148587524739845 + 0.21325819631169818j],
     [2.389045843429391 + 0.23943146847650987j, 2.6367326797502897 + 0.30087159210663206j],
     complex(1.02834632647183284016009, -0.01262850521219987166818624)),
])
def test_direct_sum_estimate_bounds_the_truncated_tail(num, den, ref):
    r = eval_series(F(num, den, 0.5))
    assert r.method == "direct" and r.converged
    assert abs(r.value - ref) <= r.tail_estimate


def test_terminating_matches_explicit_pochhammer_sum():
    rng = np.random.default_rng(11)
    for _ in range(60):
        order = int(rng.integers(0, 9))
        num = [-float(order), rng.uniform(0.5, 3.0)]
        den = [rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)]
        z = rng.uniform(-3.0, 3.0)
        expected = explicit_terminating_sum(num, den, z, order)
        r = eval_series(F(num, den, z))
        assert r.converged
        assert abs(r.value - expected) <= r.tail_estimate + 4 * EPS * abs(expected)
        assert abs(r.value - expected) <= 1e-13 * max(1.0, abs(expected))


def test_euler_identity():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(100):
        a, b = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
        c = rng.uniform(0.5, 3.0)
        z = rng.uniform(-0.7, 0.7)
        lhs = eval_series(F([a, b], [c], z), tol=1e-13).value
        rhs = (1 - z) ** (c - a - b) * eval_series(F([c - a, c - b], [c], z),
                                                   tol=1e-13).value
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst < 1e-10


def test_finite_difference_matches_derivative_shift():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(100):
        num = [rng.uniform(0.5, 3.0) for _ in range(2)]
        den = [rng.uniform(0.5, 3.0) for _ in range(2)]
        z = rng.uniform(-2.0, 2.0)
        h = 1e-5
        up = eval_series(F(num, den, z + h), tol=1e-13).value
        dn = eval_series(F(num, den, z - h), tol=1e-13).value
        fd = (up - dn) / (2 * h)
        coeff, shifted = derivative_shift(F(num, den, z))
        dv = coeff * eval_series(shifted, tol=1e-13).value
        worst = max(worst, abs(fd - dv) / max(abs(dv), 1e-10))
    assert worst < 1e-6


def test_derivative_shift_structure():
    coeff, shifted = derivative_shift(F([], [], 0.3))
    assert coeff == 1.0 and shifted.numerator == () and shifted.denominator == ()
    coeff, shifted = derivative_shift(F([1, 2], [3, 4], 0.3))
    assert abs(coeff - 2.0 / 12.0) < 1e-15
    assert shifted.numerator == (2 + 0j, 3 + 0j)
    assert shifted.denominator == (4 + 0j, 5 + 0j)


def test_zero_denominator_unreachable():
    # a zero denominator parameter cannot survive spec construction, so
    # derivative_shift's division is always safe in practice
    with pytest.raises(ValueError):
        F([-2.0, 1.0], [0.0], 0.5)
    coeff, shifted = derivative_shift(F([-2.0, 1.0], [-3.5], 0.5))
    assert shifted.denominator == (-2.5 + 0j,)


# ------------------------------------------------- cancellation machinery

def test_cancellation_ratio_reported_for_alternating_regime():
    spec = F([1.2, 3.3], [2.2, 2.3], -25.0)
    r = eval_series(spec, tol=1e-12)
    # the largest partial sum over the value, to a factor of 2: the float
    # sum's largest partial sums are accurate, its value is not
    floats = series._sum_direct(spec, 1e-12, 100_000)
    largest = floats.cancellation_ratio * abs(floats.value)
    assert 1.0 <= r.cancellation_ratio * abs(r.value) / largest <= 2.0
    assert r.cancellation_ratio > 1e10
    assert r.method == "exact" and r.converged
    # mpmath 1.3.0, 40 digits
    ref = 0.0110723699720814047367328953728619605069
    assert abs(r.value - ref) <= r.tail_estimate <= 1e-12 * ref


# mpmath 1.3.0, 40 digits.  The 2F2 summed at z = -56.8529 with a
# cancellation ratio of 1e33, and a complex 2F2 at z = -36: the float sums
# are noise there, and the exact kernel sums them within their estimates
@pytest.mark.parametrize("num, den, z, ref", [
    ([2.697, 2.9776], [1.1513, 1.7494], -56.8529,
     -0.000002114960436951722242475567518891820696695),
    ([1.5 + 0.3j, 0.7 - 0.2j], [2.1 + 0.1j, 1.3 - 0.4j], -36.0,
     0.06631855026795319970924230285142290589353 + 0.007223500779169490168383425500789951399671j),
])
def test_cancelling_sum_is_summed_exactly_within_its_estimate(num, den, z, ref):
    r = eval_series(F(num, den, z))
    assert r.method == "exact" and r.converged
    assert abs(r.value - ref) <= r.tail_estimate <= 1e-12 * abs(r.value)
    code, out = _eval_pfq_cli(num, den, z)
    assert code == 0 and out["method"] == "exact" and out["converged"] is True


def _eval_pfq_cli(num, den, z):
    """Exit code and result row of eval pfq, in process."""
    def literal(x):
        x = complex(x)
        return f"{x.real!r}{x.imag:+}i" if x.imag else repr(x.real)

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["eval", "pfq", "--num", ",".join(map(literal, num)),
                     "--den", ",".join(map(literal, den)), f"--z={literal(z)}"])
    return code, json.loads(buf.getvalue())["results"][0] if code == 0 else None


def test_every_sum_path_converges_only_within_tol():
    # converged means an estimate within tol |value|, on every path: float
    # sums that round by more are summed exactly, and a power tail whose
    # rounding passes tol takes the next cut
    rng = np.random.default_rng(5)
    specs = [F([-int(rng.integers(4, 13)), *rng.uniform(0.3, 3.0, 1)], rng.uniform(0.3, 3.0, 1),
               rng.uniform(0.2, 0.9)) for _ in range(20)]
    specs += [F(rng.uniform(0.3, 3.0, 2), rng.uniform(0.3, 3.0, 2), -rng.uniform(5.0, 60.0))
              for _ in range(20)]
    specs.append(F([0.9, 1.6, 0.4], [1.3, 2.9], -1.0))
    for spec in specs:
        r = eval_series(spec)
        assert r.converged and r.tail_estimate <= 1e-12 * abs(r.value), spec


def test_double_double_vs_float_vector_paths_agree_where_both_work():
    spec = F([1.2, 3.3], [1.7, 2.3], 1.0)
    z = np.array([-5.0, -10.0, -13.0])
    plain = series_values_real(spec, z)
    ref = [brute_force_pfq([1.2, 3.3], [1.7, 2.3], float(zz), n_terms=300)
           for zz in z]
    assert np.allclose(plain, ref, rtol=1e-10)


def test_vector_eval_positive_arguments():
    spec = F([1.2, 3.3], [1.7, 2.3], 1.0)
    z = np.array([0.5, 5.0, 40.0])
    vals = series_values_real(spec, z)
    for zz, got in zip(z, vals):
        want = eval_series(F(spec.numerator, spec.denominator, float(zz)), tol=1e-13).value.real
        assert abs(got - want) <= 1e-11 * abs(want)


def _scalar_reference(num, den, z):
    return [eval_series(F(num, den, complex(zz)), tol=1e-14) for zz in z]


def test_vector_kernel_matches_scalar_positive_float():
    num, den = [1.2, 3.3], [1.7, 2.3]
    z = np.linspace(0.1, 60.0, 37)
    got = series._series_vector(TermRatios(num, den), z, 1e-14)[0]
    assert got.dtype == float
    for g, ref in zip(got, _scalar_reference(num, den, z)):
        assert abs(g - ref.value) <= 1e-13 * abs(ref.value)


def test_vector_kernel_matches_scalar_negative_float_below_dd_threshold():
    # against the scalar float sum, which eval_series sums again exactly
    # where its estimate passes tol |value|
    num, den = [1.2, 3.3], [1.7, 2.3]
    z = np.linspace(-12.0, -0.5, 37)
    got = series._series_vector(TermRatios(num, den), z, 1e-14)[0]
    for g, zz in zip(got, z):
        ref = series._sum_direct(F(num, den, float(zz)), 1e-14, 100_000)
        assert ref.method == "direct"
        # both sums carry the cancellation's rounding, nothing more
        budget = 32.0 * ref.cancellation_ratio * EPS * abs(ref.value)
        assert abs(g - ref.value) <= budget


def test_vector_kernel_matches_scalar_double_double():
    # the vector path's exact re-sums against the scalar ones, which
    # replaced the double-double sums
    num, den = [1.2, 3.3], [2.2, 2.3]
    z = np.linspace(-40.0, -20.0, 21)
    got = series_values_real(F(num, den, 1.0), z, tol=1e-14)
    for g, ref in zip(got, _scalar_reference(num, den, z)):
        assert ref.method == "exact"
        assert abs(g - ref.value) <= 1e-13 * abs(ref.value)


def test_vector_kernel_matches_scalar_complex_parameters():
    num, den = [1.2 + 0.3j, 0.7], [1.7 - 0.3j, 2.3]
    z = np.linspace(-10.0, 30.0, 37) * (1.0 + 0.2j)
    got = series._series_vector(TermRatios(num, den), z, 1e-14)[0]
    assert got.dtype == complex
    for g, ref in zip(got, _scalar_reference(num, den, z)):
        assert abs(g - ref.value) <= 1e-13 * abs(ref.value)


def test_term_ratio_table_is_history_free():
    num, den = [0.4, 1.9], [2.6, 0.8]
    grown = TermRatios(num, den)
    grown.ratios(1)
    grown.ratios(150)
    fresh = TermRatios(num, den).ratios(150)
    assert np.array_equal(grown.ratios(150)[:150], fresh[:150])
    # one jump to the power tail's cap against step-by-step growth
    for num, den in ((num, den), ([0.4 + 0.3j, 1.9], [2.6, 0.8 - 0.5j])):
        grown = TermRatios(num, den)
        for stop in (1, 150, 5000):
            grown.ratios(stop)
        jump = TermRatios(num, den).ratios(24576)
        assert len(jump) == 24576
        assert np.array_equal(grown.ratios(24576), jump)


@pytest.mark.parametrize("num, den, z", [
    # table rows past the order divide by the zero factor b + n
    ([-2.0, 1.0], [-3.0], [0.5, 0.7]),
    ([-2.0 + 0.0j, 1.0 + 0.2j], [-3.0], [0.5, -0.7 + 0.1j]),
    ([-4.0], [-5.0], [0.3, 9.0]),
])
def test_vector_kernel_stops_at_termination_order(num, den, z):
    got = series._series_vector(TermRatios(num, den), np.array(z), 1e-14)[0]
    order = round(-num[0].real)
    for g, zz in zip(got, z):
        want = explicit_terminating_sum(num, den, zz, order)
        assert abs(g - want) <= 1e-14 * abs(want)


def test_double_double_kernel_stops_at_termination_order():
    # 1F1(-4; -5; z) at z = -40 in the exact kernel, which replaced the
    # double-double one: five terms, the rest exactly 0
    for zz in (-40.0, -25.0):
        got = series._sum_exact(TermRatios([-4.0], [-5.0]), zz, 1e-14, 100_000, zz ** 4)
        want = explicit_terminating_sum([-4.0], [-5.0], zz, 4)
        assert got.terms_used == 5 and got.converged
        assert abs(got.value - want) <= got.tail_estimate + 4 * EPS * abs(want)


def test_vector_kernel_refuses_overflow():
    z = np.array([1.0, 800.0])
    with pytest.raises(OverflowError):
        series_values_real(F([1.0], [2.0], 1.0), z)
    with pytest.raises(OverflowError):
        series._series_vector(TermRatios([1.0 + 0.5j], [2.0]), z.astype(complex), 1e-14)


def test_double_double_kernel_refuses_overflow():
    # 1F1(1; 2; z) at z = -800: the terms pass 1e308 long before they
    # cancel; the float sums refuse before any node is summed exactly
    z = np.array([-20.0, -800.0])
    with pytest.raises(OverflowError, match="overflowed"):
        series_values_real(F([1.0], [2.0], 1.0), z)
    with pytest.raises(OverflowError, match="overflowed"):
        eval_series(F([1.0], [2.0], -800.0))


def _chunked_reference(ratios, z, tol, max_terms=100_000):
    """The float/complex kernel's one block rule, written out: blocks
    through the row series._predicted_rows gives at the largest |z|, each
    capped at 2**16 entries but never under 32 rows, then blocks of 32
    rows; each formed by series._terms from the carried term, tested row
    by row at every node and Kahan-compensated across blocks.  The
    reference for the rows and the values that series._series_vector
    sums.  Returns the values and the rows summed; raises OverflowError,
    with the rows formed through the stop row or the end of the block,
    when a summed row is not finite."""
    if ratios.order is not None:
        max_terms = min(max_terms, ratios.order + 1)
    predicted = series._predicted_rows(ratios, float(np.abs(z).max()), tol, max_terms)
    cap = max(32, (1 << 16) // z.size)
    dtype = np.result_type(z.dtype, ratios.dtype)
    term, total, comp = np.ones(z.shape, dtype), np.zeros(z.shape, dtype), np.zeros(z.shape, dtype)
    n = consec = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while n < max_terms and consec < 3:
            m = min(max(predicted - n, 32), cap, max_terms - n)
            nxt = series._terms(ratios.ratios(n + m), z, term, n, n + m)
            block = np.concatenate([term[None, :], nxt[:-1]]).cumsum(axis=0)
            partial = total + block
            small = (np.abs(nxt) <= tol * np.maximum(np.abs(partial), 1e-300)).all(axis=1)
            kept = m
            for k, ok in enumerate(small):
                consec = consec + 1 if ok else 0
                if consec >= 3:
                    kept = k + 1
                    break
            if not (np.isfinite(nxt[:kept]).all() and np.isfinite(partial[:kept]).all()):
                raise OverflowError(f"pFq series term overflowed after {n + kept} terms "
                                    f"(|z| up to {float(np.abs(z).max()):.6g})")
            y = block[kept - 1] - comp
            t = total + y
            comp = (t - total) - y
            total = t
            term = nxt[-1]
            n += kept
    return total, n


@pytest.mark.parametrize("num, den, z", [
    # positive: one predicted block of about 250 rows
    ([1.2, 3.3], [1.7, 2.3], np.linspace(0.0, 144.0, 31)),
    # 700 nodes: blocks capped at 93 rows
    ([0.7], [1.9], np.linspace(0.0, 144.0, 700)),
    ([1.2 + 0.3j, 0.7], [1.7 - 0.3j, 2.3], np.linspace(0.0, 60.0, 25) * (1.0 + 0.2j)),
    ([2.6 - 0.3j], [1.2 + 0.1j], np.geomspace(48.0, 144.0, 31).astype(complex)),
    # terminating at order 40
    ([-40.0, 1.5], [2.5], np.linspace(0.0, 50.0, 9)),
])
def test_float_kernel_sums_the_rows_of_the_chunked_reference(num, den, z, monkeypatch):
    summed = []
    keep = series._Rows.keep
    monkeypatch.setattr(series._Rows, "keep", lambda self, k: keep(self, summed.append(k) or k))
    got = series._series_vector(TermRatios(num, den), z, 1e-13)[0]
    want, rows = _chunked_reference(TermRatios(num, den), z, 1e-13)
    assert sum(summed) == rows
    assert np.array_equal(got, want)


@pytest.mark.parametrize("z", [
    -np.linspace(0.5, 24.0, 11),  # alternating: every node at Re z < 0
    np.linspace(-24.0, 3.0, 11) * (1.0 - 0.3j),  # complex, both signs of Re z
])
def test_float_kernel_forms_the_predicted_block_where_terms_cancel(z, monkeypatch):
    # one block rule: a cancelling call forms its first block through the
    # predicted row in one _Rows.form call, then 32-row blocks, and sums
    # the reference's rows bit for bit
    table = TermRatios([1.2, 3.3], [1.7, 2.3])
    predicted = series._predicted_rows(table, float(np.abs(z).max()), 1e-13, 100_000)
    assert predicted > 32
    forms, summed = [], []
    form, keep = series._Rows.form, series._Rows.keep
    monkeypatch.setattr(series._Rows, "form", lambda self, n, m: forms.append((n, m)) or form(self, n, m))
    monkeypatch.setattr(series._Rows, "keep", lambda self, k: keep(self, summed.append(k) or k))
    got = series._series_vector(table, z, 1e-13)[0]
    want, rows = _chunked_reference(table, z, 1e-13)
    assert forms[0] == (0, predicted)
    assert all(m == 32 for _, m in forms[1:])
    assert sum(summed) == rows
    assert np.array_equal(got, want)


def test_float_kernel_reads_no_row_past_its_stop():
    # b = -20: table row 20 divides by zero, so from row 20 on the terms
    # are infinite; the first block (never under 32 rows) forms them, but
    # the sums stop at row 3
    num, den = [1.5], [-20.0]
    z = np.array([1e-6, -2e-6, 0.0])
    got = series._series_vector(TermRatios(num, den), z, 1e-14)[0]
    for g, zz in zip(got, z):
        want = explicit_terminating_sum(num, den, zz, 3)  # t_0 .. t_3
        assert abs(g - want) <= 4 * EPS * abs(want)


@pytest.mark.parametrize("num, z", [
    ([1.0], np.array([1.0, 800.0])),
    ([1.0 + 0.5j], np.array([1.0, 800.0], dtype=complex)),
    ([0.5, 1.0], np.linspace(0.0, 900.0, 7)),
    # blocks capped at 93 rows
    ([1.0], np.linspace(0.0, 800.0, 700)),
])
def test_float_kernel_refuses_overflow_where_the_chunked_reference_does(num, z):
    # the partial sums, then the terms, pass 1e308 a few hundred rows into
    # the predicted rows
    den = [2.0] * len(num)
    for kernel in (_chunked_reference, series._series_vector):
        with pytest.raises(OverflowError):
            kernel(TermRatios(num, den), z, 1e-14)


# calls in which the node of largest |z| is not the last to pass: complex
# parameters, nodes with both signs of Re z, and a terminating series that
# stops by the three-row rule before its order.  A cancelling node stops
# past the predicted block, here two or more 32-row blocks past it
STOP_ROW_CASES = [
    ([1.2 + 0.3j, 0.7], [1.7 - 0.3j, 2.3], np.array([100.0, 40.0, -96.0, -30.0]) * (1.0 + 0.1j)),
    ([1.2, 3.3], [1.7, 2.3], np.linspace(-96.0, 100.0, 9)),
    ([-600.0, 1.5], [2.5], np.array([-0.95, 0.9])),
]


@pytest.mark.parametrize("num, den, z", STOP_ROW_CASES)
def test_float_kernel_stops_where_the_chunked_reference_does(num, den, z, monkeypatch):
    table = TermRatios(num, den)
    want, rows = _chunked_reference(table, z, 1e-13)
    far = int(np.abs(z).argmax())
    assert _chunked_reference(table, z[far:far + 1], 1e-13)[1] < rows
    assert table.order is None or rows <= table.order  # the three-row rule stopped it
    summed = []
    keep = series._Rows.keep
    monkeypatch.setattr(series._Rows, "keep", lambda self, k: keep(self, summed.append(k) or k))
    got = series._series_vector(table, z, 1e-13)[0]
    max_terms = 100_000 if table.order is None else table.order + 1
    assert summed[0] == series._predicted_rows(table, float(np.abs(z).max()), 1e-13, max_terms)
    assert len(summed) >= 3 and sum(summed) == rows
    assert np.array_equal(got, want)


@pytest.mark.parametrize("z", [np.array([-740.0, 700.0, 30.0]),
                               np.array([-740.0, 700.0, 30.0]) * (1.0 - 0.2j)])
def test_float_kernel_refuses_overflow_at_the_row_of_the_chunked_reference(z):
    # the terms at the node of largest |z| pass the largest double long
    # before any row passes at the other nodes: both refuse after the same
    # rows (the message counts them)
    refusals = []
    for kernel in (_chunked_reference, series._series_vector):
        with pytest.raises(OverflowError) as refused:
            kernel(TermRatios([1.0], [2.0]), z, 1e-14)
        refusals.append(str(refused.value))
    assert refusals[0] == refusals[1]


def _rational_loop(num, den, z, terms):
    """t_0 .. t_(terms-1) summed in exact rational arithmetic, with the
    parameters' exact values: the reference for series._sum_exact."""
    num = [Fraction(a) for a in num]
    den = [Fraction(b) for b in den]
    z = Fraction(z)
    term, total = Fraction(1), Fraction(0)
    for n in range(terms):
        total += term
        for a in num:
            term *= a + n
        for b in den:
            term /= b + n
        term *= z / (n + 1)
    return total


@pytest.mark.parametrize("max_terms", [5, 40, 100_000])
@pytest.mark.parametrize("nodes", [1, 7, 40])
def test_double_double_kernel_matches_per_term_loop(nodes, max_terms):
    # the exact kernel, which replaced the double-double one, against the
    # same terms summed in rational arithmetic: within its rounding bound
    # (the estimate, less the tail once it stops by its own rule)
    rng = np.random.default_rng(1000 * nodes + max_terms)
    # 1F1, 2F2 and a p < q set, over the alternating integrand's range
    for num, den in (([1.2], [2.5]), ([1.2, 3.3], [2.2, 2.3]), ([0.7], [1.4, 2.9])):
        for zz in -rng.uniform(14.0, 56.0, min(nodes, 3)):
            # e^|z| bounds the terms of all three sets
            got = series._sum_exact(TermRatios(num, den), zz, 1e-14, max_terms, math.exp(-zz))
            want = float(_rational_loop(num, den, zz, got.terms_used))
            assert abs(got.value - want) <= got.tail_estimate + 4 * EPS * abs(want), (num, den)
            assert got.terms_used == max_terms or got.converged


# 2F2(a; b; -u) at quadrature nodes of a w/s = -1 integrand, mpmath 1.3.0 at
# 40 digits: a quad.neg draw with sum(a) - sum(b) = 2.6, a catalog-like
# draw, and complex parameters.  At u = 24 and 30 the first and the last
# float sums are noise, and their charges exceed |value|
_ALTERNATING_NODES = [0.5, 3.0, 8.0, 15.0, 24.0, 30.0]
_ALTERNATING_VECTOR = [
    ([2.1215879900531087, 2.840326726113049], [0.930324940838483, 1.3887088998447528],
     [-0.22926899262646255208, 0.11364811324337369715, -0.0093703594210300496464,
      -0.001085064751490687969, -0.0001624348356313033686, -0.000078387338469601114595]),
    ([1.2, 1.7], [2.3, 0.6],
     [0.4363560679044202948, -0.18095150822911315582, -0.089500229181161455108,
      -0.041280255535088032293, -0.023077682211815625642, -0.017526476614559890044]),
    ([2.6522604511187087 - 0.23349937406761767j, 2.7138828085674223 - 0.19391365699715013j],
     [0.454594059575018 - 0.21000251691636618j, 1.3385565533448303 - 0.3963198924672995j],
     [-0.85486281806331232152 - 0.59061432613556060998j,
      0.35356891433830808929 + 0.13453746071010142655j,
      -0.045713327008186671333 - 0.013822639481940384915j,
      0.0010833000722726233315 + 0.0051692985785735593747j,
      0.00014922951026637402506 + 0.00051627241368151877657j,
      0.000053973291088426367622 + 0.00021792819009297610776j]),
]


@pytest.mark.parametrize("num, den, want", _ALTERNATING_VECTOR)
def test_float_kernel_charge_bounds_its_error(num, den, want):
    table = TermRatios(num, den)
    z = -np.array(_ALTERNATING_NODES, dtype=table.dtype)
    got, charge = series._series_vector(table, z, 1e-13)
    err = np.abs(got - np.array(want))
    assert np.all(err <= charge)
    # the rule is (p+q+3) eps (sum_m |S_m| + N |value|): never below 7 eps |value|
    assert np.all(charge >= 7.0 * EPS * np.abs(got))


def test_series_values_real_measures_its_rounding():
    # positive z: the float sums round within a loose tol and stay float;
    # z = -30 rounds by far more, and its nodes are summed again exactly
    spec = F([1.2, 1.7], [2.3, 0.6], 1.0)
    table = TermRatios([1.2, 1.7], [2.3, 0.6])
    z = np.array([0.5, 8.0, 24.0])
    assert np.array_equal(series_values_real(spec, z, tol=1e-9),
                          series._series_vector(table, z, 1e-9)[0])
    z = -np.array(_ALTERNATING_NODES)
    got = series_values_real(spec, z, tol=1e-13)
    floats, charge = series._series_vector(table, z, 1e-13)
    exact = [series._sum_exact(table, zz, 1e-13, 100_000, c / (6 * EPS)).value.real
             for zz, c in zip(z, charge)]
    assert np.array_equal(got, np.where(charge > 1e-13 * np.abs(floats), exact, floats))
    want = np.array(_ALTERNATING_VECTOR[1][2])
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


# ----------------------------------------------------------- accelerators

# mpmath 1.3.0, 40 digits: e_k from exp of the Stirling expansion (DLMF
# 5.11.8) of log prod Gamma(n+a_i) / prod Gamma(n+b_j) / Gamma(n+1), whose
# x^k coefficient is sum (-1)^(k+1) B_(k+1)(a) / (k (k+1)) over the a_i,
# minus the same over the b_j and 1
_REMAINDER_COEFFICIENTS = [
    (([0.4, 1.3, 0.7], [1.9, 0.55]),
     [1.0, -0.76124999999999985345, 0.6376882812499997908, -0.56602137011718725574,
      0.51243049051116916495, -0.46308215420451959505, 0.41554479882574825071,
      -0.37264982275159388242, 0.33658564167102150173, -0.30479308170410824555]),
    (([1.1, 0.6 - 0.4j, 2.3, 0.9 + 0.25j], [1.7, 2.4 + 0.3j, 0.8 - 0.1j]),
     [1.0, complex(-0.87125000000000006273, -0.47999999999999993394),
      complex(0.59383828125000017593, 0.91022083333333322916),
      complex(-0.20623343001302117731, -1.3733295260416665462),
      complex(-0.34952314145714594815, 1.8835633634537759237),
      complex(1.1862944903728966246, -2.4339854067417156807),
      complex(-2.4668305306323994631, 2.9790628387414872963),
      complex(4.3967135548981509151, -3.3923347659797099894),
      complex(-7.2095582330474637132, 3.4134077120162911667),
      complex(11.141645583302222667, -2.5974451306290473367)]),
]


@pytest.mark.parametrize("params,exact", _REMAINDER_COEFFICIENTS)
def test_remainder_coefficients_against_exact_values(params, exact):
    num, den = ([complex(x) for x in xs] for xs in params)
    got = series._remainder_coefficients(num, den, len(exact) - 1)
    assert len(got) == len(exact)
    for k, (g, e) in enumerate(zip(got, exact)):
        assert abs(g - e) <= 1e-13 * abs(e), k


def _exact_remainder_coefficients(numerator, denominator, orders):
    """The recurrence of series._remainder_coefficients in exact rational
    arithmetic, each binom(-j, m) formed from its product."""
    delta = sum(denominator) - sum(numerator)
    q = [Fraction(1)] * (orders + 2)
    for m in range(1, orders + 2):
        q[m] = q[m - 1] * (delta - m + 1) / m
    for a in numerator:
        q = [q[0]] + [q[m] + a * q[m - 1] for m in range(1, orders + 2)]
    for b in denominator:
        for m in range(1, orders + 2):
            q[m] -= b * q[m - 1]
    e = [Fraction(1)]
    for k in range(1, orders + 1):
        acc = -q[k + 1]
        for j in range(1, k):
            m = k + 1 - j
            binom = Fraction(math.prod(-j - i for i in range(m)), math.factorial(m))
            acc += e[j] * (binom - q[m])
        e.append(acc / k)
    return e


@pytest.mark.parametrize("numerator,denominator", [
    ("3/8 5/4 11/16", "15/8 13/16"),
    ("-5/4 7/2 1/16", "3/16 9/4"),
    ("9/8 5/8 37/16 7/8", "27/16 19/8 13/16"),
    ("1/2 -3/4 13/8 21/16", "5/16 7/4 11/8"),
])
def test_remainder_coefficients_against_exact_arithmetic(numerator, denominator):
    # dyadic parameters, so the float recurrence starts from the exact values
    num = [Fraction(x) for x in numerator.split()]
    den = [Fraction(x) for x in denominator.split()]
    orders = series._TAIL_ORDERS + 1
    got = series._remainder_coefficients([complex(x) for x in num],
                                         [complex(x) for x in den], orders)
    exact = _exact_remainder_coefficients(num, den, orders)
    assert len(got) == len(exact) == 10
    for k, (g, e) in enumerate(zip(got, exact)):
        assert abs(g - float(e)) <= 1e-13 * abs(float(e)), k


# mpmath 1.3.0, 40 digits: (-1)^m lerchphi(-1, s, m) for the
# alternating tail, at the cuts and orders 1+delta+k the z = +-1 sums use;
# s near 0 is delta near -1 at z = -1, s = 1 the zero excess.  The
# asymptotic sums lose a few digits only at the highest orders (s ~ 10)
_ALTERNATING = [
    (0.02, 64, 0.46016571195999640846),
    (1.0, 65, -0.0077514722906963861712),
    (1.0, 64, 0.0078735277093036138288),
    (0.5 + 0.3j, 385, complex(0.0054348281039191087424, 0.024912988105393268669)),
    (0.003 + 0.01j, 24576, complex(0.48258677516040981645, -0.048954022769196820421)),
    (0.05 - 0.3j, 1537, complex(0.20421755934049259123, -0.27986486900970605015)),
    (2.7, 128, 1.032902072600523309e-6),
    (9.9 - 0.2j, 65, complex(-4.0785009473414601366e-19, -4.4906463802772194019e-19)),
]


@pytest.mark.parametrize("s,m,ref", _ALTERNATING)
def test_alternating_zeta_tail_against_mpmath(s, m, ref):
    # sum_{n>=m} (-1)^n n^-s = (-1)^m m^-s times the scaled tail
    weights = series._abel_weights(-1.0)
    tail = weights[0] + series._binomial_powers(np.array([complex(s)]), m)[0] @ weights[1:]
    got = (-1) ** m * m ** -complex(s) * tail
    assert abs(got - ref) <= 1e-14 * abs(ref)


# 3F2(0.4, 1.3, 0.7; 1.9, 0.8; e^(0.001 i)), mpmath 1.3.0 at 20, 30 and 40
# digits (agreeing to 1e-20): Euler's integral of 2F1(0.4, 1.3; 1.9; z t)
# against t^-0.3 (1-t)^-0.9, each end's power taken into the variable
_NEAR_ONE_REFERENCE = complex(2.18108992682758202990873836006,
                              0.105775345696003300829140782131)


def test_unit_circle_sum_close_to_one_doubles_past_the_cap():
    # 24576 |1-z| = 24.6 is short of 4 (|s| + 13) = 57.2, s = 1.3: the
    # expansion needs a longer prefix than the 24576-term cap
    import cmath
    r = eval_series(F([0.4, 1.3, 0.7], [1.9, 0.8], cmath.exp(0.001j)))
    assert r.converged and r.terms_used == 49152
    assert abs(r.value - _NEAR_ONE_REFERENCE) <= r.tail_estimate


def test_unit_circle_sum_against_pfaff():
    # unit-circle arguments away from +-1 take the same remainder expansion
    # as z = +-1; the Pfaff transformation gives an independent
    # inside-the-disk route
    import cmath
    a, b, c = 0.7, 1.1, 2.6
    for theta in (2.0943951023931953, 1.5707963267948966):  # 2pi/3, pi/2
        z = cmath.exp(1j * theta)
        r = eval_series(F([a, b], [c], z), tol=1e-9)
        assert r.method == "direct+power-tail" and r.converged
        zp = z / (z - 1)
        pfaff = (1 - z) ** (-a) * eval_series(F([a, c - b], [c], zp),
                                              tol=1e-13).value
        assert abs(r.value - pfaff) <= 1e-9 * abs(pfaff)


# mpmath 1.3.0, 40 digits: 1/(1-z) and Li_(-l)(z), l = 1 .. 13, at the two
# double arguments given, z = exp(i theta) rounded, theta = 0.05 and -2.9
_ABEL_SUMS = [
    (complex(0.9987502603949663, 0.04997916927067833), [
        complex(0.49999999999998551274, 19.995833159711887497),
        complex(-400.08334375103348651, -5.7936981265647355383e-13),
        complex(3.4762189966768182714e-11, -15999.99958325065032),
        complex(960000.00833829471974, 2.7809751731794848911e-9),
        complex(-2.7809751731881114848e-7, 76799999.999801498848),
        complex(-7680000000.0039732688, -0.000033371702078240064336),
        complex(0.0046720382909536101954, -921599999999.99976415),
        complex(129023999999999.9998, 0.74752612655257760389),
        complex(-134.55470277946396813, 20643839999999999.212),
        complex(-3715891199999999842.4, -26910.940555892793512),
        complex(5920406.9222964145476, -7.4317823999999996533e+20),
        complex(1.6349921279999999168e+23, 1420897661.3511394854),
        complex(-369433391951.29626463, 3.9239811071999997836e+25),
        complex(-1.0202350878719999394e+28, -103441349746362.95366)]),
    (complex(-0.9709581651495905, -0.23924932921398243), [
        complex(0.49999999999999998804, -0.060693659927536824322),
        complex(-0.25368372035539948931, 1.452309204402176023e-18),
        complex(6.2465668488102559144e-18, 0.030793986904805935547),
        complex(0.13244885948473968586, -2.9688172205474360471e-18),
        complex(-1.3305929650513500459e-17, -0.062949211046233538383),
        complex(-0.28213180924020027259, 1.2993711068937649956e-17),
        complex(6.1372909254754427277e-17, 0.27551169357657925465),
        complex(1.3013183130507736001, -9.8332336503827642752e-17),
        complex(-4.9391811566264989239e-16, -2.0849862229333551996),
        complex(-10.472775315104430825, 1.1452480326113980354e-15),
        complex(6.1579785283412013793e-15, 24.28322619734910169),
        complex(130.57048016153918521, -1.9047323640398781096e-14),
        complex(-1.1010716563524938157e-13, -403.86925385870793894),
        complex(-2334.6533964114613967, 4.2924683339988353828e-13)]),
    # Li_(-l)(-1), exact: (2^(l+1) - 1) B_(l+1) / (l+1), 1/2 at l = 0
    (-1.0, [0.5, -0.25, 0.0, 0.125, 0.0, -0.25, 0.0, 1.0625, 0.0, -7.75, 0.0, 86.375, 0.0,
            -1365.25]),
]


@pytest.mark.parametrize("z,refs", _ABEL_SUMS)
def test_abel_weights_against_polylog(z, refs):
    got = series._abel_weights(z)
    # the rounding of w = 1/(1-z), (l+1)-fold in w^(l+1), and of the
    # polynomials in w: eps times the size of their terms (cancelling near
    # z = -1), l + 4 times
    scale = np.abs(series._ABEL_POLYNOMIALS) @ abs(1 / (1 - z)) ** np.arange(15.0)
    assert np.all(np.abs(got - np.array(refs)) <= (np.arange(14) + 4) * EPS * scale)


def test_abel_weights_at_one_are_zeta_at_negative_integers():
    # mpmath 1.3.0: zeta(-l), l = 1 .. 13; 1 + zeta(0) = 1/2 at l = 0
    zeta = [0.5, -0.083333333333333333333, 0.0, 0.0083333333333333333333, 0.0,
            -0.003968253968253968254, 0.0, 0.0041666666666666666667, 0.0,
            -0.0075757575757575757576, 0.0, 0.021092796092796092796, 0.0,
            -0.083333333333333333333]
    got = series._abel_weights(1.0)
    assert got.dtype == float
    assert np.all(np.abs(got - zeta) <= EPS * np.abs(zeta))


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.4, 2.5), b=st.floats(0.4, 2.5), c=st.floats(0.6, 3.0),
       z=st.floats(-0.8, 0.8))
def test_gauss_series_symmetry(a, b, c, z):
    # pFq is symmetric in its numerator parameters
    one = eval_series(F([a, b], [c], z), tol=1e-13).value
    two = eval_series(F([b, a], [c], z), tol=1e-13).value
    assert abs(one - two) <= 1e-13 * max(1.0, abs(one))


@settings(max_examples=150, deadline=None)
@given(p=st.integers(0, 3), q=st.integers(0, 3),
       z=st.floats(-2.0, 2.0), seed=st.integers(0, 10**6))
def test_classify_total_on_valid_specs(p, q, z, seed):
    rng = np.random.default_rng(seed)
    num = [rng.uniform(0.2, 4.0) for _ in range(p)]
    den = [rng.uniform(0.2, 4.0) for _ in range(q)]
    cls = classify(F(num, den, z))
    assert isinstance(cls.kind, Convergence)


def test_exact_kernel_adds_the_bits_a_low_scale_lacks():
    # a scale far below the peak term leaves the fixed point too coarse for
    # the cancellation; the kernel sums again with the bits it lacked and
    # lands where a true scale does
    table = TermRatios([1.2, 3.3], [2.2, 2.3])
    low = series._sum_exact(table, -40.0, 1e-12, 100_000, 1.0)
    true = series._sum_exact(table, -40.0, 1e-12, 100_000, math.exp(40.0))
    assert low.converged and true.converged
    assert abs(low.value - true.value) <= low.tail_estimate + true.tail_estimate

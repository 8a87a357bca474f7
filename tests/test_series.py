import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlap import series
from hyperlap.cli import main
from hyperlap.errors import DivergentSeriesError
from hyperlap.series import (Convergence, HyperSeriesSpec, SeriesResult, TermRatios,
                             classify, derivative_shift, eval_series, hurwitz_zeta,
                             levin_u, series_values, series_values_real)

from reference_oracles import brute_force_pfq, explicit_terminating_sum

EPS = 2.0 ** -52


def F(num, den, z):
    return HyperSeriesSpec(num, den, z)


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
    assert spec.termination_order() == 2


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


@pytest.mark.parametrize("max_terms", [20, 100, 500, 3000])
def test_power_tail_against_frozen_references(max_terms):
    for spec, ref in zip(_unit_argument_grid(), _UNIT_GRID_REFERENCES, strict=True):
        sign = 1 if spec.argument.real > 0 else -1
        got = series._sum_unit_power_tail(spec, 1e-12, max_terms, sign)
        if max_terms < 64:
            assert got is None  # below the first cut the Levin fallback takes it
            continue
        assert got.method == "direct+power-tail" and got.converged, spec
        assert got.terms_used <= max_terms, spec
        assert abs(got.value - ref) <= got.tail_estimate + 4 * EPS * abs(ref), spec


# z = +-1 draws at tol 1e-12: 3F2 and 4F3, complex parameters, excess
# 0.05 .. 0.1 at z = 1 (2F1 too), -1 < Re delta <= 0 at z = -1 (delta = 0
# exactly in the fifth z = -1 row), parameters up to 16.  mpmath 1.3.0, 40
# digits, computed as _UNIT_GRID_REFERENCES; every row but the 4F3 with
# excess 0.06 was checked against an independent mpmath route (hyper,
# Thomae's relation for 3F2(1) or Gauss's sum) to 1e-37
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
]


@pytest.mark.parametrize("num,den,z,ref", _UNIT_DRAWS)
def test_unit_argument_draws_against_frozen_references(num, den, z, ref):
    r = eval_series(F(num, den, z), tol=1e-12)
    assert r.method == "direct+power-tail" and r.converged
    assert abs(r.value - ref) <= r.tail_estimate + 4 * EPS * abs(ref)


@pytest.mark.parametrize("z", [1.0, -1.0])
@pytest.mark.parametrize("a", [580, 600])
def test_power_tail_refuses_overflow(a, z):
    # the terms climb towards 1e308 long before they decay: with a = 600 a
    # term overflows at n = 2650; with a = 580 the terms stay finite but the
    # fitted data t_n n^2 at the 3072 checkpoint does not
    num, den = [a, a, 1], [1.5, 2 * a + 0.5]
    with pytest.raises(OverflowError, match="overflowed"):
        eval_series(F(num, den, z))
    assert main(["eval", "pfq", "--num", f"{a},{a},1", "--den", f"1.5,{2 * a + 0.5}",
                 "--z", str(z)]) == 3


@pytest.mark.parametrize("z", [1.0, -1.0])
def test_power_tail_refuses_estimate_of_still_rising_terms(z):
    # the terms of 3F2(300, 300, 1; 1.5, 600.5; +-1) rise until n ~ 44550,
    # far past the 24576-term cap; no fit there bounds the error
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
            term *= series._term_ratio(spec, n)
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
        term *= series._term_ratio(spec, n)
        n += 1
        if abs(term) <= tol * max(abs(total), 1e-300):
            consec += 1
            if consec >= 3:
                break
        else:
            consec = 0
    # the largest step ratio past the cut: 4000 steps and the limit
    ratio = max(abs(series._term_ratio(spec, m)) for m in range(n, n + 4000))
    ratio = max(ratio, abs(spec.argument) if spec.p == spec.q + 1 else 0.0)
    cancel = max(max_abs / max(abs(total), 1e-300), 1.0)
    tail = max(abs(term) / (1.0 - ratio) if ratio < 1.0 else math.inf,
               cancel * EPS * abs(total))
    return SeriesResult(total, n, tail, cancel, consec >= 3, "direct"), terms


def _recurrence_charge(spec, terms):
    """(p+q+3) eps sum n |t_n|: the rounding the term recurrence can carry."""
    mags = np.abs(np.array(terms))
    return (spec.p + spec.q + 3) * EPS * float(np.arange(len(mags)) @ mags)


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
    # mpmath 1.3.0, 30 digits: hyper([1.39, 0.95], [1.43, 2.14], -10)
    ref = 0.134383260948663775773
    r = eval_series(F([1.39, 0.95], [1.43, 2.14], -10.0))
    assert r.method == "direct" and r.converged
    assert abs(r.value - ref) <= r.tail_estimate


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
    assert r.cancellation_ratio > 10.0
    assert r.method == "double-double"
    # the reported tail covers the cancellation-driven roundoff floor
    dd_unit = 2.5e-32
    assert r.tail_estimate >= 0.4 * r.cancellation_ratio * dd_unit * abs(r.value)
    # the longdouble brute force carries its own error ~ eps_ld * e^|z|;
    # the double-double value must agree within that reference budget
    ref = brute_force_pfq([1.2, 3.3], [2.2, 2.3], -25.0, n_terms=400)
    ref_budget = 100 * 5.5e-20 * math.exp(25.0)
    assert abs(r.value - ref) <= ref_budget


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
        want = eval_series(spec.with_argument(float(zz)), tol=1e-13).value.real
        assert abs(got - want) <= 1e-11 * abs(want)


def _scalar_reference(num, den, z):
    return [eval_series(F(num, den, complex(zz)), tol=1e-14) for zz in z]


def test_vector_kernel_matches_scalar_positive_float():
    num, den = [1.2, 3.3], [1.7, 2.3]
    z = np.linspace(0.1, 60.0, 37)
    got = series_values(TermRatios(num, den), z, tol=1e-14)
    assert got.dtype == float
    for g, ref in zip(got, _scalar_reference(num, den, z)):
        assert abs(g - ref.value) <= 1e-13 * abs(ref.value)


def test_vector_kernel_matches_scalar_negative_float_below_dd_threshold():
    num, den = [1.2, 3.3], [1.7, 2.3]
    z = np.linspace(-12.0, -0.5, 37)
    spec = F(num, den, 1.0)
    got = series_values_real(spec, z, tol=1e-14)
    for g, ref in zip(got, _scalar_reference(num, den, z)):
        assert ref.method == "direct"
        # both sums carry the cancellation's rounding, nothing more
        budget = 32.0 * ref.cancellation_ratio * EPS * abs(ref.value)
        assert abs(g - ref.value) <= budget


def test_vector_kernel_matches_scalar_double_double():
    num, den = [1.2, 3.3], [2.2, 2.3]
    z = np.linspace(-40.0, -20.0, 21)
    got = series_values_real(F(num, den, 1.0), z, tol=1e-14)
    for g, ref in zip(got, _scalar_reference(num, den, z)):
        assert ref.method == "double-double"
        assert abs(g - ref.value) <= 1e-12 * abs(ref.value)


def test_vector_kernel_matches_scalar_complex_parameters():
    num, den = [1.2 + 0.3j, 0.7], [1.7 - 0.3j, 2.3]
    z = np.linspace(-10.0, 30.0, 37) * (1.0 + 0.2j)
    got = series_values(TermRatios(num, den), z, tol=1e-14)
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
    hi, lo = TermRatios(num, den).dd_ratios(100)
    assert np.allclose(hi[:100], fresh[:100], rtol=4 * EPS, atol=0.0)
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
    got = series_values(TermRatios(num, den), np.array(z))
    order = round(-num[0].real)
    for g, zz in zip(got, z):
        want = explicit_terminating_sum(num, den, zz, order)
        assert abs(g - want) <= 1e-14 * abs(want)


def test_double_double_kernel_stops_at_termination_order():
    # 1F1(-4; -5; z) at z = -40 takes the double-double path
    z = np.array([-40.0, -25.0])
    got = series_values_real(F([-4.0], [-5.0], 1.0), z)
    for g, zz in zip(got, z):
        want = explicit_terminating_sum([-4.0], [-5.0], zz, 4)
        assert abs(g - want) <= 1e-14 * abs(want)


def test_vector_kernel_refuses_overflow():
    z = np.array([1.0, 800.0])
    with pytest.raises(OverflowError):
        series_values_real(F([1.0], [2.0], 1.0), z)
    with pytest.raises(OverflowError):
        series_values(TermRatios([1.0 + 0.5j], [2.0]), z.astype(complex))


def test_double_double_kernel_refuses_overflow():
    # 1F1(1; 2; z) at z = -800: the terms pass 1e308 long before they
    # cancel; the double-double path must refuse like the float one
    z = np.array([-20.0, -800.0])
    with pytest.raises(OverflowError, match="overflowed"):
        series_values_real(F([1.0], [2.0], 1.0), z)
    with pytest.raises(OverflowError, match="overflowed"):
        series._series_vector_dd(TermRatios([1.0], [2.0]), z, 1e-14, 100_000)


def _per_term_dd_loop(ratios, z, tol, max_terms):
    """The double-double kernel as a loop of one dd_add, one dd_mul and
    one dd_mul_d per term: the reference for the chunk scans of
    series._series_vector_dd.  Also returns sum |t_n| over the summed
    terms."""
    dd = series.dd
    thi, tlo = dd.dd_ones(z.shape)
    shi, slo = dd.dd_zeros(z.shape)
    abs_sum = np.zeros(z.shape)
    consec = 0
    for n in range(max_terms):
        rhi, rlo = ratios.dd_ratios(n + 1)
        shi, slo = dd.dd_add(shi, slo, thi, tlo)
        abs_sum += np.abs(thi)
        thi, tlo = dd.dd_mul(thi, tlo, rhi[n], rlo[n])
        thi, tlo = dd.dd_mul_d(thi, tlo, z)
        if np.all(np.abs(thi) <= tol * np.maximum(np.abs(shi), 1e-300)):
            consec += 1
            if consec >= 3:
                break
        else:
            consec = 0
    return shi + slo, abs_sum


@pytest.mark.parametrize("max_terms", [5, 40, 100_000])
@pytest.mark.parametrize("nodes", [1, 7, 40])
def test_double_double_kernel_matches_per_term_loop(nodes, max_terms):
    rng = np.random.default_rng(1000 * nodes + max_terms)
    # 1F1, 2F2 and a p < q set, over the alternating integrand's range
    for num, den in (([1.2], [2.5]), ([1.2, 3.3], [2.2, 2.3]), ([0.7], [1.4, 2.9])):
        z = -rng.uniform(14.0, 56.0, nodes)
        got = series._series_vector_dd(TermRatios(num, den), z, 1e-14, max_terms)
        want, abs_sum = _per_term_dd_loop(TermRatios(num, den), z, 1e-14, max_terms)
        # same terms, summed in another order: the rounding of double-double
        # sums of sum |t_n|, plus the final rounding to one double
        bound = 64.0 * series.dd.DD_EPS * abs_sum + 4.0 * EPS * np.abs(want)
        assert np.all(np.abs(got - want) <= bound), (num, den)


# ----------------------------------------------------------- accelerators

def test_levin_u_alternating_harmonic():
    acc = levin_u()
    s = 0.0
    for n in range(30):
        t = (-1.0) ** n / (n + 1)
        s += t
        est = acc.step(s, t)
    assert abs(est - math.log(2.0)) < 1e-12


def test_levin_u_geometric():
    # the transform converges within ~8 terms; later orders slowly pick up
    # roundoff again, so judge it at the convergence point
    acc = levin_u()
    s = 0.0
    for n in range(12):
        t = 0.7 ** n
        s += t
        est = acc.step(s, t)
    assert abs(est - 1.0 / 0.3) < 1e-11


def test_hurwitz_zeta_anchor_and_recurrence():
    # zeta(2) anchor through the shifted sum
    partial = sum(1.0 / k ** 2 for k in range(1, 40))
    assert abs(partial + hurwitz_zeta(2.0, 40.0).real - math.pi ** 2 / 6) < 1e-13
    # self-consistency zeta(s, a) = a^-s + zeta(s, a+1)
    for s in (1.3, 2.7, 4.2):
        lhs = hurwitz_zeta(s, 33.0)
        rhs = 33.0 ** (-s) + hurwitz_zeta(s, 34.0)
        assert abs(lhs - rhs) < 1e-15 * abs(lhs)


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


# mpmath 1.3.0, 40 digits: zeta(s, a), and (-1)^m lerchphi(-1, s, m) for the
# alternating tail, at the cuts and orders 1+delta+k the z = +-1 sums use;
# s near 0 is delta near -1 at z = -1, s = 1 the zero excess.  The
# asymptotic sums lose a few digits only at the highest orders (s ~ 10)
_HURWITZ = [
    (1.05, 64, 16.251411000113002607),
    (2.3, 384, 0.00033663657613636304524),
    (4 + 0.3j, 64, complex(2.8997415663980749969e-7, -1.2623426890157057583e-6)),
    (10.7, 64, 3.356275484038821356e-19),
    (1.2 - 0.4j, 24576, complex(0.12571967278197797135, -0.26804481517581925134)),
    (3.5 + 0.2j, 1536, complex(1.0203084818147306981e-10, -4.3144819151838084482e-9)),
]
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


@pytest.mark.parametrize("s,a,ref", _HURWITZ)
def test_hurwitz_zeta_against_mpmath(s, a, ref):
    assert abs(hurwitz_zeta(s, a) - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("s,m,ref", _ALTERNATING)
def test_alternating_zeta_tail_against_mpmath(s, m, ref):
    # sum_{n>=m} (-1)^n n^-s = (-1)^m m^-s times the scaled tail
    got = (-1) ** m * m ** -complex(s) * series._zeta_tails(np.array([s]), m, -1)[0]
    assert abs(got - ref) <= 1e-14 * abs(ref)


def test_levin_fallback_on_complex_unit_circle():
    # unit-circle arguments away from +-1 go through the Levin fallback;
    # the Pfaff transformation gives an independent inside-the-disk route
    import cmath
    a, b, c = 0.7, 1.1, 2.6
    for theta in (2.0943951023931953, 1.5707963267948966):  # 2pi/3, pi/2
        z = cmath.exp(1j * theta)
        r = eval_series(F([a, b], [c], z), tol=1e-9)
        assert r.method == "levin-u" and r.converged
        zp = z / (z - 1)
        pfaff = (1 - z) ** (-a) * eval_series(F([a, c - b], [c], zp),
                                              tol=1e-13).value
        assert abs(r.value - pfaff) <= 1e-9 * abs(pfaff)


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

import cmath

import numpy as np
import pytest

from hyperlap.errors import (DegenerateParameterError, InvalidBinding,
                             NotSpecializable, ValidityError)
from hyperlap.gammafn import gamma
from hyperlap.laplace import (CLASSICAL_IDS, LaplaceCase, LaplaceId, NEW_IDS,
                              REQUIRED_LAPLACE_SYMBOLS, SUMMATION_OF, closed_form,
                              closed_form_direct, lhs_integrand,
                              specialization_target, transform_rhs_series)
from hyperlap.quadrature import laplace_numeric
from hyperlap.series import HyperSeriesSpec
from hyperlap.summation import lhs_spec, rhs_closed_form
from hyperlap.verifier import (SamplerConfig, _split_laplace_binding,
                               sample_for_specialization, sample_valid)


# ------------------------------------------------------------ transform law

def test_transform_law_trivial_values():
    spec = HyperSeriesSpec([1.3, 0.4], [2.2, 0.9], 1.0)
    val = transform_rhs_series(1.0, 1.0, 0.0, spec)
    assert abs(val - 1.0) < 1e-12
    val = transform_rhs_series(2.0, 3.0, 0.0, spec)
    assert abs(val - 1.0 / 9.0) < 1e-12


def test_transform_law_validity_clauses():
    spec = HyperSeriesSpec([1.0], [2.0], 1.0)
    with pytest.raises(ValidityError):
        transform_rhs_series(-0.5, 1.0, 0.5, spec)  # Re(v) <= 0
    with pytest.raises(ValidityError):
        transform_rhs_series(1.0, -1.0, 0.5, spec)  # Re(s) <= 0
    with pytest.raises(ValidityError):
        transform_rhs_series(1.0, 1.0, 2.0, spec)   # Re(s) <= Re(w), p = q
    with pytest.raises(ValidityError):
        # s = w with insufficient excess: 2 - 1 - 1.5 < 0
        transform_rhs_series(1.5, 1.0, 1.0, spec)
    with pytest.raises(ValidityError):
        transform_rhs_series(1.0, 1.0, 0.5, HyperSeriesSpec([1, 2], [3], 0.5))


@pytest.mark.parametrize("oracle", [laplace_numeric, transform_rhs_series])
@pytest.mark.parametrize("v, s, w, name", [
    (1.5, cmath.nan, 0.5, "s"), (cmath.nan, 1.5, 0.5, "v"), (1.5, cmath.inf, 0.5, "s"),
    (1.5, 1.5, complex(0.5, cmath.inf), "w")])
def test_non_finite_argument_is_refused_naming_it(oracle, v, s, w, name):
    # a bad input, not a numerical failure: a NaN s used to overflow the
    # series, and s = inf passed for s = w
    with pytest.raises(ValidityError, match=f"^{name} is not finite$"):
        oracle(v, s, w, HyperSeriesSpec([0.5], [1.5], 1.0))


# each existence clause broken once, for 1F1(1; 2) unless noted; w = 1.5 at
# s = 1+1i and w = 1.2 at s = 1+2i put w/s inside the disk |w/s| < 1 while
# Re(s) <= Re(w): 1F1(1; 2; x) = (e^x - 1)/x, so the integral diverges
CLAUSE_VIOLATIONS = [
    ([1.0, 2.0], [3.0], 1.0, 1.0, 0.5, "transform law requires p <= q"),
    ([1.0], [2.0], -0.5, 1.0, 0.5, "Re(v)<=0"),
    ([1.0], [2.0], 1.0, -1.0, 0.5, "Re(s)<=0"),
    ([1.0], [2.0], 1.0, 1.0, 2.0, "Re(s)<=Re(w)"),
    ([1.0], [2.0], 1.0, 1 + 1j, 1.5, "Re(s)<=Re(w)"),
    ([1.0], [2.0], 1.0, 1 + 2j, 1.2, "Re(s)<=Re(w)"),
    ([1.0], [2.0], 1.5, 1.0, 1.0, "Re(sum(b)-sum(a)-v)<=0 at s=w"),
    ([1.0], [2.0], 1.0 + 0.5j, 1 + 1j, 1 + 1j, "Re(sum(b)-sum(a)-v)<=0 at s=w"),
]


@pytest.mark.parametrize("num, den, v, s, w, reason", CLAUSE_VIOLATIONS)
def test_both_routes_refuse_a_broken_clause_alike(num, den, v, s, w, reason):
    spec = HyperSeriesSpec(num, den, 1.0)
    for route in (transform_rhs_series, laplace_numeric):
        with pytest.raises(ValidityError) as info:
            route(v, s, w, spec)
        assert str(info.value) == reason


def test_transform_law_against_quadrature_style_anchor():
    # exponential integrand: v=1.5, s=2, w=1, 0F0 gives Gamma(1.5)(s-w)^-1.5
    spec = HyperSeriesSpec([], [], 1.0)
    val = transform_rhs_series(1.5, 2.0, 1.0, spec, tol=1e-13)
    ref = gamma(1.5) * (2.0 - 1.0) ** -1.5
    assert abs(val - ref) <= 1e-11 * abs(ref)


# ---------------------------------------------------------------- structure

def test_case_rejects_wrong_symbols():
    with pytest.raises(InvalidBinding):
        LaplaceCase(LaplaceId.GAUSS2X_L, {"a": 1.0, "b": 1.0}, 2.0)
    with pytest.raises(InvalidBinding):
        LaplaceCase(LaplaceId.GENERAL, {"a": 1.0}, 2.0)


def test_power_and_w_wiring():
    case = LaplaceCase(LaplaceId.GAUSS2X_L, {"a": 1.2, "b": 0.9, "d": 1.4}, 2.0)
    assert case.power == 0.9 and case.w == 1.0  # w = s/2
    case = LaplaceCase(LaplaceId.BAILEYX_L, {"a": 0.4, "c": 1.1, "d": 0.9}, 2.0)
    assert case.power == 0.6 and case.w == 1.0
    case = LaplaceCase(LaplaceId.KUMMERX_L, {"a": 1.2, "b": 0.6, "d": 1.4}, 2.0)
    assert case.w == -2.0
    case = LaplaceCase(LaplaceId.WATSON1X_L,
                       {"a": 0.8, "b": 1.1, "c": 1.3, "d": 2.0}, 3.0)
    assert case.power == 1.3 and case.w == 3.0


def test_lhs_integrand_structures():
    a, b, d, s = 1.2, 0.9, 1.4, 2.0
    integ = lhs_integrand(LaplaceCase(LaplaceId.GAUSS2X_L,
                                      {"a": a, "b": b, "d": d}, s))
    assert integ.power == b
    assert integ.spec.numerator == (a + 0j, d + 1 + 0j)
    assert integ.spec.denominator == ((a + b + 3) / 2 + 0j, d + 0j)
    assert integ.w == s / 2

    a, c, d = 0.4, 1.1, 0.9
    integ = lhs_integrand(LaplaceCase(LaplaceId.BAILEYX_L,
                                      {"a": a, "c": c, "d": d}, s))
    assert integ.power == 1 - a
    assert integ.spec.denominator == (c + 1 + 0j, d + 0j)

    a, b, c, d = 1.4, 0.5, 0.6, 2.0
    integ = lhs_integrand(LaplaceCase(LaplaceId.DIXONX_L,
                                      {"a": a, "b": b, "c": c, "d": d}, s))
    assert integ.power == c and integ.w == s
    assert integ.spec.numerator == (a + 0j, b + 0j, d + 1 + 0j)
    assert integ.spec.denominator == (2 + a - b + 0j, 1 + a - c + 0j, d + 0j)


@pytest.mark.parametrize("lid", NEW_IDS)
def test_lhs_integrand_is_the_sum_series_without_v(lid):
    # a and c equal on purpose: v = c must go, the a before it must stay
    values = {"a": 1.3, "b": 0.7, "c": 1.3, "d": 2.2, "e": 0.4}
    case = LaplaceCase(lid, {k: values[k] for k in REQUIRED_LAPLACE_SYMBOLS[lid]}, 1.5)
    integ = lhs_integrand(case)
    spec = lhs_spec(SUMMATION_OF[lid], case.params)
    num = spec.numerator
    assert num[-2] == case.power
    assert integ.spec.numerator == num[:-2] + num[-1:]
    assert integ.spec.denominator == spec.denominator


# -------------------------------------------------------------- closed forms

def test_gauss2x_compositional_matches_spec_example():
    params = {"a": 1.2, "b": 0.9, "d": 1.4}
    case = LaplaceCase(LaplaceId.GAUSS2X_L, params, 2.0)
    composed = closed_form(case)
    expected = gamma(0.9) * 2.0 ** -0.9 * rhs_closed_form(
        SUMMATION_OF[LaplaceId.GAUSS2X_L], params).value
    assert abs(composed.value - expected) <= 1e-13 * abs(expected)
    direct = closed_form_direct(case)
    assert abs(direct.value - composed.value) <= 1e-13 * abs(composed.value)


def test_whipple_constraint_violation():
    with pytest.raises(ValidityError):
        closed_form(LaplaceCase(LaplaceId.WHIPPLE_L,
                                {"a": 0.4, "b": 0.7, "c": 1.0, "d": 1.5, "e": 1.5},
                                2.0))
    with pytest.raises(ValidityError):
        closed_form(LaplaceCase(LaplaceId.WHIPPLE_L,
                                {"a": 0.4, "b": 0.6, "c": 1.0, "d": 1.5, "e": 1.2},
                                2.0))


def test_inherited_degeneracies():
    with pytest.raises(DegenerateParameterError):
        closed_form(LaplaceCase(LaplaceId.KUMMERX_L,
                                {"a": 1.2, "b": 1.0, "d": 1.4}, 2.0))
    with pytest.raises(DegenerateParameterError):
        closed_form(LaplaceCase(LaplaceId.WATSON2X_L,
                                {"a": 2.1, "b": 1.1, "c": 1.3, "d": 2.0}, 2.0))


def test_validity_conditions_raise():
    with pytest.raises(ValidityError):
        closed_form(LaplaceCase(LaplaceId.GAUSS2X_L,
                                {"a": 1.2, "b": -0.1, "d": 1.4}, 2.0))
    with pytest.raises(ValidityError):
        closed_form(LaplaceCase(LaplaceId.GAUSS2X_L,
                                {"a": 1.2, "b": 0.9, "d": 1.4}, -2.0))
    with pytest.raises(ValidityError):
        closed_form(LaplaceCase(LaplaceId.WATSON1X_L,
                                {"a": 2.0, "b": 2.1, "c": 1.0, "d": 1.0}, 2.0))


def test_watson1x_specialization_equals_watson():
    rng = np.random.default_rng(31)
    worst = 0.0
    n_done = 0
    while n_done < 50:
        a, b = rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
        c = rng.uniform(0.3, 3.0)
        s = rng.uniform(0.5, 4.0)
        if 2 * c - a - b <= -0.9:
            continue
        try:
            new = closed_form(LaplaceCase(LaplaceId.WATSON1X_L,
                                          {"a": a, "b": b, "c": c, "d": 2 * c}, s))
            old = closed_form(LaplaceCase(LaplaceId.WATSON_L,
                                          {"a": a, "b": b, "c": c}, s))
        except Exception:
            continue
        worst = max(worst, abs(new.value - old.value) / abs(old.value))
        n_done += 1
    assert worst < 1e-10


def test_specialization_targets_map():
    # the d of each reduction as the paper prints it, evaluated at a
    # binding whose parameters no two formulas confuse
    cases = {
        LaplaceId.GAUSS2X_L: (LaplaceId.GAUSS2_L, "(a+b+1)/2"),
        LaplaceId.BAILEYX_L: (LaplaceId.BAILEY_L, "c"),
        LaplaceId.KUMMERX_L: (LaplaceId.KUMMER_L, "1+a-b"),
        LaplaceId.WATSON1X_L: (LaplaceId.WATSON_L, "2*c"),
        LaplaceId.WATSON2X_L: (LaplaceId.WATSON_L, "(a+b+1)/2"),
        LaplaceId.DIXONX_L: (LaplaceId.DIXON_L, "1+a-b"),
        LaplaceId.WHIPPLEX_L: (LaplaceId.WHIPPLE_L, "e"),
    }
    params = {"a": 0.3 + 0.1j, "b": 1.7 - 0.2j, "c": 2.9 + 0.3j, "e": 4.1 - 0.4j}
    for new_id, (classical, formula) in cases.items():
        rule = specialization_target(new_id)
        assert rule.classical_id is classical
        assert rule.d_value(params) == eval(formula, {}, dict(params))
    with pytest.raises(NotSpecializable):
        specialization_target(LaplaceId.GAUSS2_L)


def test_whipplex_specialization_produces_valid_classical_binding():
    rule = specialization_target(LaplaceId.WHIPPLEX_L)
    params = {"a": 0.4, "c": 1.1, "d": 0.7, "e": 0.7}
    classical = rule.classical_params({**params, "d": rule.d_value(params)})
    assert abs(classical["a"] + classical["b"] - 1.0) < 1e-14
    assert abs(classical["d"] + classical["e"] - 1 - 2 * classical["c"]) < 1e-14


def test_scale_covariance_of_unit_w_family():
    # with w = s the transform depends on s only through s^(-power)
    cfg = SamplerConfig(seed=32)
    for lid in (LaplaceId.WATSON1X_L, LaplaceId.WATSON2X_L,
                LaplaceId.DIXONX_L, LaplaceId.WHIPPLEX_L):
        for binding in sample_valid(f"lap.{lid.value}", cfg, 5):
            params, s = _split_laplace_binding(binding)
            s2 = s * 1.7 + 0.3
            one = closed_form(LaplaceCase(lid, params, s))
            two = closed_form(LaplaceCase(lid, params, s2))
            power = LaplaceCase(lid, params, s).power
            expected = cmath.exp(-power * (cmath.log(s) - cmath.log(s2)))
            got = one.value / two.value
            assert abs(got - expected) <= 1e-13 * abs(expected)


def test_dual_transcription_sweep():
    cfg = SamplerConfig(seed=33)
    for lid in NEW_IDS:
        for binding in sample_valid(f"lap.{lid.value}", cfg, 20):
            params, s = _split_laplace_binding(binding)
            case = LaplaceCase(lid, params, s)
            composed = closed_form(case)
            direct = closed_form_direct(case)
            assert abs(direct.value - composed.value) <= 1e-13 * abs(composed.value)


def test_series_route_agreement():
    cfg = SamplerConfig(seed=34)
    for lid in list(NEW_IDS) + list(CLASSICAL_IDS):
        tol = 1e-6 if lid.value in ("watson", "dixon", "whipple", "watson1x",
                                    "watson2x", "dixonx", "whipplex") else 1e-9
        for binding in sample_valid(f"lap.{lid.value}", cfg, 10):
            params, s = _split_laplace_binding(binding)
            case = LaplaceCase(lid, params, s)
            integ = lhs_integrand(case)
            lhs = transform_rhs_series(integ.power, case.s, integ.w, integ.spec,
                                       tol=max(tol * 1e-2, 1e-13))
            rhs = closed_form(case).value
            assert abs(lhs - rhs) <= tol * abs(rhs), (lid, binding)


def test_specialization_sampler_supports_all_new_ids():
    cfg = SamplerConfig(seed=35)
    for lid in NEW_IDS:
        bindings = sample_for_specialization(f"lap.{lid.value}", cfg, 3)
        assert len(bindings) == 3

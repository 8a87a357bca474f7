import numpy as np
import pytest

from hyperlap.errors import (DegenerateParameterError, InvalidBinding,
                             ValidityError)
from hyperlap.series import eval_series
from hyperlap.summation import (DixonVariant, SummationId, check, lhs_spec,
                                rhs_closed_form, rhs_gamma_arguments, validity)
from hyperlap.verifier import SamplerConfig, sample_valid


# --------------------------------------------------------------- structure

def test_lhs_spec_gauss2x_structure():
    a, b, d = 1.2, 0.8, 1.5
    spec = lhs_spec(SummationId.GAUSS2X, {"a": a, "b": b, "d": d})
    assert spec.numerator == (a + 0j, b + 0j, d + 1 + 0j)
    assert spec.denominator == ((a + b + 3) / 2 + 0j, d + 0j)
    assert spec.argument == 0.5


def test_lhs_spec_kummerx_structure():
    a, b, d = 1.1, 0.4, 2.0
    spec = lhs_spec(SummationId.KUMMERX, {"a": a, "b": b, "d": d})
    assert spec.numerator == (a + 0j, b + 0j, d + 1 + 0j)
    assert spec.denominator == (2 + a - b + 0j, d + 0j)
    assert spec.argument == -1.0


def test_lhs_spec_whipplex_structure():
    a, c, d, e = 0.6, 1.1, 2.0, 1.4
    spec = lhs_spec(SummationId.WHIPPLEX, {"a": a, "c": c, "d": d, "e": e})
    assert spec.numerator == (a + 0j, 1 - a + 0j, c + 0j, d + 1 + 0j)
    assert spec.denominator == (e + 1 + 0j, 2 * c - e + 1 + 0j, d + 0j)
    assert spec.argument == 1.0


def test_binding_validation():
    with pytest.raises(InvalidBinding):
        lhs_spec(SummationId.GAUSS2X, {"a": 1.0, "b": 1.0})  # missing d
    with pytest.raises(InvalidBinding):
        lhs_spec(SummationId.GAUSS2X, {"a": 1.0, "b": 1.0, "d": 1.0, "e": 2.0})


# ---------------------------------------------------------------- validity

def test_validity_rejects_nonpositive_d():
    ok, reason = validity(SummationId.GAUSS2X, {"a": 1.2, "b": 0.8, "d": -0.5})
    assert not ok and reason == "Re(d)<=0"


def test_validity_watson_excess_condition():
    # 2c - a - b = -2 violates the stated bound
    ok, reason = validity(SummationId.WATSON1X,
                          {"a": 2.0, "b": 2.0, "c": 1.0, "d": 1.0})
    assert not ok and "2c-a-b" in reason


def test_validity_whipplex_positive_case():
    ok, reason = validity(SummationId.WHIPPLEX,
                          {"a": 0.5, "c": 0.8, "d": 1.0, "e": 1.2})
    assert ok and reason == "ok"


def test_validity_flags_degenerates_and_margins():
    ok, reason = validity(SummationId.KUMMERX, {"a": 2.0, "b": 1.0, "d": 1.0})
    assert not ok and "degenerate" in reason
    ok, reason = validity(SummationId.KUMMERX, {"a": 2.0, "b": 1.0005, "d": 1.0})
    assert not ok  # within the sampling margin
    ok, reason = validity(SummationId.WATSON2X,
                          {"a": 2.0, "b": 1.0, "c": 1.8, "d": 1.0})
    assert not ok and "a-b" in reason


def test_validity_requires_series_convergence():
    # kummerx at z=-1 diverges once b >= 1 (excess 1-2b <= -1)
    ok, reason = validity(SummationId.KUMMERX, {"a": 2.0, "b": 1.6, "d": 1.0})
    assert not ok and reason == "series divergent"


# ------------------------------------------------------------ closed forms

def test_degenerate_parameters_raise():
    with pytest.raises(DegenerateParameterError):
        rhs_closed_form(SummationId.KUMMERX, {"a": 2.0, "b": 1.0, "d": 1.0})
    with pytest.raises(DegenerateParameterError):
        rhs_closed_form(SummationId.DIXONX, {"a": 2.0, "b": 1.0, "c": 0.4, "d": 1.0})
    with pytest.raises(DegenerateParameterError):
        rhs_closed_form(SummationId.WATSON2X,
                        {"a": 2.0, "b": 1.0, "c": 1.8, "d": 1.0})
    with pytest.raises(ValidityError):
        rhs_closed_form(SummationId.GAUSS2X, {"a": 1.0, "b": 1.0, "d": -1.0})


def test_breakdown_internal_consistency():
    cfg = SamplerConfig(seed=21)
    for sid in SummationId:
        for binding in sample_valid(f"sum.{sid.value}", cfg, 25):
            cf = rhs_closed_form(sid, binding)
            recombined = cf.prefactor * (cf.term1 + cf.term2)
            assert abs(cf.value - recombined) <= 1e-14 * max(1.0, abs(cf.value))


def test_alpha_beta_populated_only_where_used():
    cfg = SamplerConfig(seed=22)
    b1 = sample_valid("sum.watson2x", cfg, 1)[0]
    cf = rhs_closed_form(SummationId.WATSON2X, b1)
    assert cf.alpha != 0.0 and cf.beta != 0.0
    b2 = sample_valid("sum.gauss2x", cfg, 1)[0]
    cf = rhs_closed_form(SummationId.GAUSS2X, b2)
    assert cf.alpha == 0.0 and cf.beta == 0.0


# ------------------------------------------------- checks and specializations

def test_check_spec_examples():
    rep = check(SummationId.GAUSS2X, {"a": 1.2, "b": 0.8, "d": 1.5}, tol=1e-9)
    assert rep.passed and rep.rel_residual < 1e-9
    rep = check(SummationId.KUMMERX, {"a": 2.5, "b": 0.5, "d": 3.0}, tol=1e-9)
    assert rep.passed
    rep = check(SummationId.WATSON1X,
                {"a": 0.7, "b": 1.1, "c": 1.4, "d": 2.3}, tol=1e-6)
    assert rep.passed


def test_check_never_raises_on_bad_binding():
    # b=1 is doubly bad for kummerx: the series diverges (excess -1) and
    # the closed form is degenerate; either failure must come back as a
    # failed report, never an exception
    rep = check(SummationId.KUMMERX, {"a": 2.5, "b": 1.0, "d": 3.0}, tol=1e-9)
    assert not rep.passed
    assert "Divergent" in rep.diagnostics or "Degenerate" in rep.diagnostics


def test_dixonx_terminating_polynomial_case():
    # a = -4 makes the series a 5-term polynomial; with negative noninteger
    # b the stated excess condition still holds and the first closed-form
    # term vanishes through an exact reciprocal-gamma zero
    binding = {"a": -4.0, "b": -1.7, "c": 0.4, "d": 2.0}
    ok, reason = validity(SummationId.DIXONX, binding)
    assert ok, reason
    rep = check(SummationId.DIXONX, binding, tol=1e-12)
    assert rep.passed and rep.rel_residual < 1e-12


def test_baileyx_specialization_structure_and_value():
    # at d = c the extra numerator d+1 equals the denominator c+1
    rng = np.random.default_rng(23)
    worst = 0.0
    n_done = 0
    while n_done < 200:
        a = rng.uniform(0.3, 3.0)
        c = rng.uniform(0.3, 3.0)
        binding = {"a": a, "c": c, "d": c}
        spec = lhs_spec(SummationId.BAILEYX, binding)
        assert spec.numerator[2] == spec.denominator[0]
        ok, _ = validity(SummationId.BAILEYX, binding)
        if not ok:
            continue
        reduced = eval_series(type(spec)(spec.numerator, spec.denominator, 0.5), tol=1e-13)
        two_f_one = eval_series(
            type(spec)([a, 1 - a], [c], 0.5), tol=1e-13)
        assert abs(reduced.value - two_f_one.value) <= 1e-12 * abs(two_f_one.value)
        cf = rhs_closed_form(SummationId.BAILEYX, binding)
        worst = max(worst, abs(cf.value - two_f_one.value) / abs(two_f_one.value))
        n_done += 1
    assert worst < 1e-10


@pytest.mark.parametrize("sid,special", [
    (SummationId.GAUSS2X, lambda p: (p["a"] + p["b"] + 1) / 2),
    (SummationId.KUMMERX, lambda p: 1 + p["a"] - p["b"]),
])
def test_gauss2x_kummerx_reduce_to_classical_2f1(sid, special):
    rng = np.random.default_rng(24)
    worst = 0.0
    n_done = 0
    while n_done < 120:
        binding = {"a": rng.uniform(0.3, 3.0), "b": rng.uniform(0.3, 3.0)}
        binding["d"] = special(binding)
        if binding["d"] <= 0:
            continue
        ok, _ = validity(sid, binding)
        if not ok:
            continue
        spec = lhs_spec(sid, binding)
        # the d+1 numerator cancels one denominator entry; sum the reduced
        # 2F1 directly as the oracle
        reduced_num = [binding["a"], binding["b"]]
        reduced_den = [x for x in spec.denominator if abs(x - binding["d"]) > 1e-12]
        assert len(reduced_den) == 1
        oracle = eval_series(type(spec)(reduced_num, [binding["d"]], spec.argument),
                             tol=1e-13)
        cf = rhs_closed_form(sid, binding)
        worst = max(worst, abs(cf.value - oracle.value) / abs(oracle.value))
        n_done += 1
    assert worst < 1e-10


def test_residual_sweep_all_identities():
    cfg = SamplerConfig(seed=25)
    for sid in SummationId:
        tol = 1e-9 if sid in (SummationId.GAUSS2X, SummationId.BAILEYX,
                              SummationId.KUMMERX) else 1e-6
        for binding in sample_valid(f"sum.{sid.value}", cfg, 40):
            rep = check(sid, binding, tol=tol)
            assert rep.passed, (sid, binding, rep.rel_residual, rep.diagnostics)


def test_dixon_variants_disagree_on_generic_draws():
    cfg = SamplerConfig(seed=26)
    binding = sample_valid("sum.dixonx", cfg, 1)[0]
    good = rhs_closed_form(SummationId.DIXONX, binding, DixonVariant.HALF_A_MINUS_B)
    bad = rhs_closed_form(SummationId.DIXONX, binding,
                          DixonVariant.HALF_A_MINUS_C_TWICE)
    assert abs(good.value - bad.value) > 1e-6 * abs(good.value)


def test_gamma_argument_collection():
    binding = {"a": 1.2, "b": 0.8, "d": 1.5}
    num, den = rhs_gamma_arguments(SummationId.GAUSS2X, binding)
    assert complex(0.5) in num
    assert complex((1.2 + 0.8 + 3) / 2) in num
    assert complex((1.2 + 1) / 2) in den

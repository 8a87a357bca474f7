import math
import warnings

import numpy as np
import pytest

from hyperlap import series, verifier
from hyperlap.errors import SlowDecayError, ValidityError
from hyperlap.gammafn import gamma, gamma_ratio, GammaRatioSpec
from hyperlap.laplace import (LaplaceCase, LaplaceId, closed_form, lhs_integrand,
                              transform_rhs_series)
from hyperlap.quadrature import (TailMethod, _PanelIntegrator, _power_moments,
                                 gamma_integral_check, laplace_numeric)
from hyperlap.series import HyperSeriesSpec

TRIVIAL = HyperSeriesSpec([], [], 1.0)


def test_plain_exponential():
    res = laplace_numeric(1.0, 1.0, 0.0, TRIVIAL, tol=1e-9)
    assert abs(res.value - 1.0) < 1e-10
    assert res.tail_method is TailMethod.EXP_DECAY
    assert res.abs_err_est < 1e-8
    assert res.nodes_used > 0


def test_endpoint_singularity():
    res = laplace_numeric(0.5, 2.0, 0.0, TRIVIAL, tol=1e-9)
    assert abs(res.value - math.sqrt(math.pi / 2.0)) < 1e-9


def test_gamma_three():
    res = laplace_numeric(3.0, 1.0, 0.0, TRIVIAL, tol=1e-9)
    assert abs(res.value - 2.0) < 2e-9


def test_exponential_shift():
    res = laplace_numeric(1.5, 2.0, 1.0, TRIVIAL, tol=1e-9)
    ref = gamma(1.5) * (2.0 - 1.0) ** -1.5
    assert abs(res.value - ref) <= 1e-9 * abs(ref)


def test_gamma_integral_check_against_ln_gamma_route():
    res = gamma_integral_check(2.5, 1.7)
    ref = gamma(2.5) * 1.7 ** -2.5
    assert abs(res.value - ref) <= 1e-9 * abs(ref)


def test_calibration_sweep():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(100):
        alpha = rng.uniform(0.2, 6.0)
        s = rng.uniform(0.5, 5.0)
        res = gamma_integral_check(alpha, s)
        ref = gamma(alpha) * s ** -alpha
        worst = max(worst, abs(res.value - ref) / abs(ref))
    assert worst < 1e-9


def test_power_law_tail_against_gauss_sum():
    # 1F1 with s = w: the transform equals Gamma(v) s^-v 2F1(a, v; c; 1),
    # which Gauss's theorem turns into pure gamma functions
    for a, c, v, s in [(0.7, 3.1, 1.1, 2.0), (0.4, 2.6, 0.8, 1.0),
                       (1.2, 4.8, 1.9, 3.3)]:
        spec = HyperSeriesSpec([a], [c], 1.0)
        res = laplace_numeric(v, s, s, spec, tol=1e-7)
        ref = gamma(v) * s ** -v * gamma_ratio(
            GammaRatioSpec([c, c - a - v], [c - a, c - v]))
        assert res.tail_method is TailMethod.POWER_LAW_EXTRAPOLATION
        assert res.tail_contribution != 0.0
        assert abs(res.value - ref) <= 3e-7 * abs(ref)
        assert abs(res.value - ref) <= max(res.abs_err_est * 4, 1e-12 * abs(ref))


def test_alternating_integrand_agrees_with_closed_form():
    case = LaplaceCase(LaplaceId.KUMMERX_L, {"a": 1.2, "b": 0.6, "d": 1.4}, 2.2)
    integ = lhs_integrand(case)
    res = laplace_numeric(integ.power, case.s, integ.w, integ.spec, tol=1e-7)
    ref = closed_form(case).value
    assert abs(res.value - ref) <= 1e-6 * abs(ref)


def test_validity_and_slow_decay_errors():
    spec = HyperSeriesSpec([1.0], [2.0], 1.0)
    with pytest.raises(ValidityError):
        laplace_numeric(-1.0, 1.0, 0.0, spec)
    with pytest.raises(ValidityError):
        laplace_numeric(1.0, -1.0, 0.0, spec)
    with pytest.raises(ValidityError):
        laplace_numeric(1.0, 1.0, 0.0, HyperSeriesSpec([1, 2], [3], 0.5))
    with pytest.raises(ValidityError):
        laplace_numeric(1.0, 1.0, 2.0, spec)  # Re(w) >= Re(s)
    # s = w: rho = v - 1 + a - c; with a=1, c=2 rho = v - 2
    with pytest.raises(ValidityError):
        laplace_numeric(1.1, 1.0, 1.0, spec)   # rho = -0.9, diverges
    with pytest.raises(SlowDecayError):
        laplace_numeric(0.98, 1.0, 1.0, spec)  # rho = -1.02, too slow


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_tolerance_that_is_not_positive_is_refused(tol):
    # NaN compares false against 0 both ways
    with pytest.raises(ValueError, match="tol must be positive"):
        laplace_numeric(1.0, 2.0, 1.0, HyperSeriesSpec([1.0], [2.0], 1.0), tol=tol)


def test_growth_along_the_ray_is_refused_as_slow_decay():
    # Re(s) = 1 > Re(w) = 0.5, so the integral exists, but w/s = 1.25+0.75i:
    # along u = st the integrand grows like e^(0.25 u)
    with pytest.raises(SlowDecayError, match=r"Re\(w/s\)=1\.25"):
        laplace_numeric(1.0, 1 + 1j, 0.5 + 2j, HyperSeriesSpec([1.0], [2.0], 1.0))


def test_panel_additivity():
    integ = _PanelIntegrator(lambda u: np.exp(-u) * np.sin(u))
    whole, err_whole = integ.refine(integ.seed([(0.0, 8.0)]), 1e-12)
    left, err_left = integ.refine(integ.seed([(0.0, 3.1)]), 1e-12)
    right, err_right = integ.refine(integ.seed([(3.1, 8.0)]), 1e-12)
    assert abs(whole - (left + right)) <= err_whole + err_left + err_right + 1e-14


def test_monotone_refinement():
    case = LaplaceCase(LaplaceId.WATSON1X_L,
                       {"a": 0.8, "b": 1.1, "c": 1.3, "d": 2.0}, 2.0)
    integ = lhs_integrand(case)
    ref = transform_rhs_series(integ.power, case.s, integ.w, integ.spec, tol=1e-13)
    prev = None
    for tol in (1e-4, 5e-5, 2.5e-5, 1.25e-5, 1e-6, 1e-7):
        res = laplace_numeric(integ.power, case.s, integ.w, integ.spec, tol=tol)
        disc = abs(res.value - ref)
        if prev is not None:
            assert disc <= prev + 1e-12 * abs(ref)
        prev = disc


def test_quadrature_matches_closed_form_spec_example():
    case = LaplaceCase(LaplaceId.WATSON1X_L,
                       {"a": 0.8, "b": 1.1, "c": 1.3, "d": 2.0}, 2.0)
    integ = lhs_integrand(case)
    res = laplace_numeric(integ.power, case.s, integ.w, integ.spec, tol=1e-7)
    ref = closed_form(case).value
    assert abs(res.value - ref) <= 1e-5 * abs(ref)


def test_result_fields_are_plain_python():
    res = gamma_integral_check(1.5, 2.0)
    assert isinstance(res.value, complex)
    assert isinstance(res.abs_err_est, float)
    assert isinstance(res.nodes_used, int)


@pytest.mark.parametrize("a", [1.2, 1.2 + 0.3j])
def test_integrand_overflow_is_refused(a):
    # w/s = 0.99: the exponential tail runs out to u where pFq(0.99 u) no
    # longer fits a double; the oracle must refuse, not return a value.  With
    # positive terms that is known before the first tail panel; complex
    # terms give no lower bound of |F|, and the tail runs into the overflow
    with pytest.raises(OverflowError if isinstance(a, complex) else SlowDecayError):
        laplace_numeric(1.5, 1.0, 0.99, HyperSeriesSpec([a], [2.5], 1.0), tol=1e-7)


@pytest.mark.parametrize("v", [120.0, 170.0])
def test_power_past_the_largest_double_is_refused_without_a_warning(v):
    # Gamma(v) fits in a double, but u^(v-1) overflows one inside the body
    # [0, 6 v]: a typed refusal that names it, and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match=r"u\^\(v-1\)"):
            laplace_numeric(v, 1.0, 0.0, HyperSeriesSpec([], [], 1.0))


def test_large_negative_ratio_integrand_is_summed_exactly():
    # w/s = -20: the float seed rounds by far more than its budget (the sums
    # of 1F1(1; 2; -20 u) = (1 - e^(-20 u)) / (20 u) are noise past u ~ 2),
    # so the seed is made again with its costly nodes summed exactly.  At
    # v = 1 the transform is ln(21) / 20
    want = math.log(21.0) / 20.0
    res = laplace_numeric(1.0, 1.0, -20.0, HyperSeriesSpec([1.0], [2.0], 1.0), tol=1e-7)
    assert abs(res.value - want) <= res.abs_err_est <= 1e-7 * want


def test_complex_ratio_alternating_integrand_is_covered():
    # 1F1(2; 1.1) at w/s = -0.5+3i: |w/s| u reaches 73 over the body, where
    # the float sums are noise; with the costly nodes summed exactly the
    # integral lies within its estimate.
    # Gamma(v) s^(-v) 2F1(v, 2; 1.1; w/s), mpmath at 40 digits, frozen
    want = -0.0332361016953748 + 0.10285111948320683j
    res = laplace_numeric(1.0, 1.0, -0.5 + 3j, HyperSeriesSpec([2.0], [1.1], 1.0), tol=1e-7)
    assert abs(res.value - want) <= res.abs_err_est <= 1e-7 * abs(want)


def test_result_does_not_depend_on_earlier_integrals():
    kummer = LaplaceCase(LaplaceId.KUMMERX_L, {"a": 1.2, "b": 0.6, "d": 1.4}, 2.2)
    watson = LaplaceCase(LaplaceId.WATSON1X_L,
                         {"a": 0.8, "b": 1.1, "c": 1.3, "d": 2.0}, 2.0)

    def run(case):
        integ = lhs_integrand(case)
        return laplace_numeric(integ.power, case.s, integ.w, integ.spec, tol=1e-7)

    first = run(kummer)
    run(watson)
    again = run(kummer)
    assert first == again
    assert first.nodes_used == again.nodes_used


@pytest.mark.parametrize("max_panels", [1, 2, 7, 40])
def test_sweep_never_exceeds_max_panels(max_panels):
    integ = _PanelIntegrator(lambda u: 1.0 / np.sqrt(np.abs(u - 0.3)))
    integ.refine(integ.seed([(0.0, 1.0)]), 1e-300, max_panels=max_panels)
    # one panel to start, two per bisection: panels = (evaluations + 1) / 2
    panels = (integ.nodes_used // 25 + 1) // 2
    assert integ.nodes_used % 25 == 0
    assert panels == max_panels


# M_k = integral_-1^1 (1+x)^beta T_k(x) dx for k = 0, 1, 2, 7, 24, from the
# explicit power series of the shifted Chebyshev polynomials (mpmath, 50
# digits), frozen
MOMENTS = {
    -0.95: [20.705298476827533, -18.733365288558243, 16.857623963131356,
            -14.95611353047467, 13.209783694350744],
    -0.5 + 0.3j: [2.2925372599428377 - 0.7915970268705266j,
                  -0.44363947668374226 + 0.8111010229488248j,
                  -0.6273969084932682 - 0.47241132038347106j,
                  0.15425294465543762 - 0.01526841551690252j,
                  -0.034834301099525795 + 0.03552121173434159j],
    2.3 - 0.2j: [2.970045689769011 - 0.23242562429247163j,
                 1.5865938181159898 - 0.18866728144262535j,
                 -0.4760130337201499 - 0.04465960952972527j,
                 -0.10974947450465143 + 0.016370272408838107j,
                 -0.008533149489700282 + 0.0011951406322774508j],
    11 + 0.3j: [335.5321176256745 + 62.0795472839615j,
                283.71898387064516 + 53.72453540385272j,
                157.97575787750134 + 32.797445653475435j,
                -68.2897923270556 - 14.645792835523544j,
                -3.589596831311551 - 0.7605388166711352j],
}


@pytest.mark.parametrize("beta", list(MOMENTS))
def test_power_moments_against_exact_values(beta):
    got = _power_moments(complex(beta) + 1.0, 25)[[0, 1, 2, 7, 24]]
    for g, want in zip(got, MOMENTS[beta]):
        assert abs(g - want) <= 1e-14 * abs(got[0])
        assert abs(g - want) <= 4e-14 * abs(want)


@pytest.mark.parametrize("v", [0.05 + 0.3j, 0.5, 1.0, 2.5 - 0.3j, 7.3])
@pytest.mark.parametrize("k", [0, 1, 5, 12])
def test_weighted_endpoint_panel_is_exact_on_polynomials(v, k):
    # both the 25- and the 13-point rule integrate u^(v-1) u^k exactly for
    # k <= 12, so the value is exact and the error estimate is rounding
    b = 1.7
    integ = _PanelIntegrator(lambda u: u ** k, v)
    (value, err), = integ._panels([(0.0, b)])[0]
    want = b ** (v + k) / (v + k)
    assert abs(value - want) <= 1e-14 * abs(want)
    assert err <= 1e-14 * abs(want)
    assert integ.nodes_used == 25


@pytest.mark.parametrize("v", [0.05 + 0.3j, 0.5, 1.0, 2.5 - 0.3j, 7.3])
@pytest.mark.parametrize("k", [0, 1, 7, 20])
def test_plain_panel_is_exact_on_polynomials(v, k):
    # a panel [a, b], a > 0, applies u^(v-1) at its nodes, so f = u^(k-v+1)
    # makes the integrand the polynomial u^k, which the rule integrates
    # exactly; the coefficients past degree 20 are rounding, not an error
    a, b = 0.4, 2.1
    integ = _PanelIntegrator(lambda u: u ** (k - v + 1.0), v)
    (value, err), = integ._panels([(a, b)])[0]
    want = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
    assert abs(value - want) <= 1e-14 * abs(want)
    assert err <= 1e-14 * abs(want)
    assert integ.nodes_used == 25


# smooth panels the rule resolves to 1e-7 .. 1e-13: e^(z u) on plain
# panels [a, b] and u^(v-1) e^(-u) on weighted panels [0, b]
SMOOTH_PANELS = [(complex(-lam, om), 1.0, a, b) for lam, om, a, b in
                 [(1.0, 0.0, 1.0, 41.0), (0.5, 0.0, 0.5, 60.5), (1.0, 3.0, 0.5, 8.5),
                  (0.2, 2.0, 1.0, 13.0), (0.3, 5.0, 2.0, 7.0), (1.0, 1.0, 1.0, 31.0),
                  (0.0, 6.0, 0.0, 5.0)]] + [
                 (-1.0 + 0j, v, 0.0, b) for v, b in [(0.5, 30.0), (0.5, 40.0), (1.5, 40.0)]]


@pytest.mark.parametrize("z, v, a, b", SMOOTH_PANELS)
def test_panel_estimate_tracks_the_error(z, v, a, b):
    integ = _PanelIntegrator(lambda u: np.exp(z * u), v)
    (value, err), = integ._panels([(a, b)])[0]
    if v == 1.0:
        want = (np.exp(z * b) - np.exp(z * a)) / z
    else:
        # integral_0^b u^(v-1) e^(-u) du by erf, for v = 1/2 and 3/2
        x = math.sqrt(b)
        half = math.sqrt(math.pi) * math.erf(x)
        want = half if v == 0.5 else 0.5 * half - x * math.exp(-b)
    actual = abs(value - want)
    assert actual > 1e-14 * abs(want)
    assert actual <= err <= 1e3 * actual


def test_bisecting_the_endpoint_panel_keeps_the_weight_on_its_left_half():
    integ = _PanelIntegrator(lambda u: np.cos(40.0 * u), 0.3 + 0.2j)
    integ.refine(integ.seed([(0.0, 1.0)]), 1e-300, max_panels=2)
    # weighted [0, 1], then weighted [0, 1/2] and plain [1/2, 1]
    assert integ.nodes_used == 25 + 25 + 25


# Gamma(alpha) 1.3^(-alpha), mpmath at 50 digits, frozen; the endpoint
# substitution u = x^(1/Re alpha) returned NaN for the first two
GAMMA_AT_1_3 = {
    0.001: 999.1615937962995,
    0.02 + 3j: 0.00391933289169799 - 0.012628000086298127j,
    0.05 + 0.3j: -0.15884441698741075 - 2.9494808511058115j,
    0.3 + 0.2j: 1.7593656475129253 - 1.401710639279948j,
    0.5: 1.5545448637883084,
    1.7: 0.5816845741392477,
    2.5 - 0.3j: 0.6688944371695298 - 0.08969166414143215j,
}


@pytest.mark.parametrize("alpha", list(GAMMA_AT_1_3))
def test_gamma_integral_check_near_the_endpoint_singularity(alpha):
    res = gamma_integral_check(alpha, 1.3)
    assert abs(res.value - GAMMA_AT_1_3[alpha]) <= res.abs_err_est
    assert res.nodes_used <= 250


def test_complex_order_transform_against_gauss_series():
    # integral of t^(v-1) e^(-2t) 2F2(0.4, 1.1; 2.5, 3.1; t) dt
    #   = Gamma(v) 2^(-v) 3F2(0.4, 1.1, v; 2.5, 3.1; 1/2), mpmath, frozen
    v = 0.09 + 0.16j
    want = 1.5938831277733898 - 4.541828841314254j
    res = laplace_numeric(v, 2.0, 1.0, HyperSeriesSpec([0.4, 1.1], [2.5, 3.1], 1.0))
    assert abs(res.value - want) <= res.abs_err_est
    assert abs(res.value - want) <= 1e-12 * abs(want)


def test_terminating_integrand_with_a_zero_denominator_factor_past_its_order():
    # 1F1(-2; -3; x) = 1 + 2x/3 + x^2/6, so the transform is
    # Gamma(v) s^(-v) (1 + (2/3) r v + r^2 v (v+1) / 6) with r = w/s
    v, s, w = 1.5, 1.0, 0.5
    r = w / s
    want = math.gamma(v) * s ** -v * (1.0 + 2.0 / 3.0 * r * v + r * r * v * (v + 1.0) / 6.0)
    res = laplace_numeric(v, s, w, HyperSeriesSpec([-2.0], [-3.0], 1.0))
    assert abs(res.value - want) <= res.abs_err_est
    assert abs(res.value - want) <= 1e-9 * abs(want)


# s = w draws whose value a four-coefficient power-law tail fit misses by
# more than its own estimate (1F1 and 2F2 written out; the transforms
# through their integrands), and a 2F2 at tol 1e-9 where the five-node fit
# on the outer nodes shares the six-node fit's error and misses it 2.5
# times over.  Gamma(v) s^(-v) p+1Fp(a, v; b; 1), mpmath at 40 digits,
# frozen.
POWER_LAW_TRANSFORMS = [
    (LaplaceId.WHIPPLEX_L, {"a": 0.8669174575192078, "c": 1.5661864893984943,
                            "d": 1.9683610411590986, "e": 2.143377866266895},
     1.2050079052097882, 0.7132074671523847),
    (LaplaceId.WHIPPLE_L, {"a": 1.0901227546123626, "b": -0.09012275461236263,
                           "c": 1.5784107759718087, "d": 2.5678626190404117,
                           "e": 1.588958932903205},
     1.520330874367771, 0.43224017459748265),
    (LaplaceId.WATSON1X_L, {"a": 0.5119577790302055, "b": 1.469796300756123,
                            "c": 2.0641140880611135, "d": 0.43633485457986754},
     0.8095412963307339, 5.507976876609461),
]
POWER_LAW_INTEGRANDS = [
    ([0.7736279842091658, 0.5836375028937277], [1.3166197533515922, 3.5932439144994204],
     1.9652374814316358, 1.2259115443486719, 1e-7, 0.9160609576055844),
    ([1.8164920386855146], [5.815188914804159],
     2.4189869633128827, 1.8334709870290196, 1e-7, 1.2774724980603587),
    ([1.7892313880103001, 2.5176619330581387], [2.8312918761849617, 7.138109354435994],
     4.1946682991001785, 1.2608936944107303, 1e-9, 21.006144288221407),
]


@pytest.mark.parametrize("ident, params, s, want", POWER_LAW_TRANSFORMS)
def test_power_law_transform_lies_within_its_estimate(ident, params, s, want):
    case = LaplaceCase(ident, params, s)
    integ = lhs_integrand(case)
    res = laplace_numeric(integ.power, case.s, integ.w, integ.spec, tol=1e-7)
    assert res.tail_method is TailMethod.POWER_LAW_EXTRAPOLATION
    assert abs(res.value - want) <= res.abs_err_est


@pytest.mark.parametrize("num, den, v, s, tol, want", POWER_LAW_INTEGRANDS)
def test_power_law_integrand_lies_within_its_estimate(num, den, v, s, tol, want):
    res = laplace_numeric(v, s, s, HyperSeriesSpec(num, den, 1.0), tol=tol)
    assert res.tail_method is TailMethod.POWER_LAW_EXTRAPOLATION
    assert abs(res.value - want) <= res.abs_err_est


# Gamma(v) 2F1(1.5, v; v + 3.7; 1) by Gauss's sum, mpmath at 40 digits,
# frozen.  At v = 30 and 45 the body already ends at u = 180 and 270, so
# the fit nodes must stop short of where pFq(u) overflows a double.
GAUSS_SUM_LARGE_V = {30.0: 4.317461457862916e+32, 45.0: 2.29529452920706e+56}


@pytest.mark.parametrize("complex_im", [0.0, 0.3])
def test_power_law_tail_call_forms_one_block(complex_im, monkeypatch):
    # the tail call of a seed-42 lap.whipplex draw sums some 240 rows at
    # 31 nodes out to u = 6 u_body: one predicted block, not 32-row chunks
    cfg = verifier.SamplerConfig(seed=42, complex_im=complex_im)
    binding = verifier.sample_valid("lap.whipplex", cfg, 1)[0]
    blocks = {}
    form = series._Rows.form

    def counted(rows, n, m):
        # keyed by the kernel object, which the dict keeps alive: an id()
        # of a freed one may be reused by the next call's
        blocks.setdefault(rows, [float(np.abs(rows.z).max()), 0, 0])
        blocks[rows][1:] = blocks[rows][1] + 1, n + m
        return form(rows, n, m)

    monkeypatch.setattr(series._Rows, "form", counted)
    assert verifier.check_quadrature("lap.whipplex", binding, 1e-5).passed
    z_max, count, rows = max(blocks.values())
    assert z_max >= 140.0 and rows >= 200
    assert count == 1


@pytest.mark.parametrize("v", list(GAUSS_SUM_LARGE_V))
def test_power_law_tail_at_large_order_stays_in_range(v):
    want = GAUSS_SUM_LARGE_V[v]
    res = laplace_numeric(v, 1.0, 1.0, HyperSeriesSpec([1.5], [v + 3.7], 1.0), tol=1e-7)
    assert res.tail_method is TailMethod.POWER_LAW_EXTRAPOLATION
    assert abs(res.value - want) <= res.abs_err_est
    assert abs(res.value - want) <= 1e-7 * want


# Alternating integrands, Re(w/s) < 0.  Gamma(v) s^(-v) p+1Fq(v, a; b; w/s),
# mpmath at 40 digits, frozen.
# The catalog's Kummer-type transforms at w/s = -1, through their integrands
KUMMER_TRANSFORMS = [
    (LaplaceId.KUMMERX_L, {"a": 1.2, "b": 0.6, "d": 1.4}, 2.2, 0.6611537075303483329867),
    (LaplaceId.KUMMERX_L, {"a": 2.3, "b": 1.7, "d": 0.9}, 0.8, 0.06822525741331166518048),
    (LaplaceId.KUMMER_L, {"a": 1.3, "b": 0.4}, 1.7, 1.468576985174179165741),
    (LaplaceId.KUMMER_L, {"a": 0.6, "b": 1.9}, 3.1, 0.1317439883033983122853),
]


def _refuse_exact(*args):
    raise AssertionError("the integral left float")


@pytest.mark.parametrize("ident, params, s, want", KUMMER_TRANSFORMS)
def test_kummer_transform_integrand_stays_in_float(ident, params, s, want, monkeypatch):
    # e^(-u) damps the cancellation of F(-u): no node's measured rounding
    # passes its share of the budget, so none is summed exactly
    monkeypatch.setattr(series, "_sum_exact", _refuse_exact)
    case = LaplaceCase(ident, params, s)
    integ = lhs_integrand(case)
    assert integ.w / case.s == -1.0
    res = laplace_numeric(integ.power, case.s, integ.w, integ.spec, tol=1e-7)
    assert abs(res.value - want) <= res.abs_err_est
    assert abs(res.value - want) <= 1e-7 * abs(want)


# 2F2 draws at w/s = -1 in the form of the quad.neg probes (a random draw
# and seed 8 of the benchmark) with sum(a) - sum(b) = 2.8 and 3.7: their
# terms grow far enough that nodes' float rounding passes their share
CANCELLING_DRAWS = [
    (2.028687931692458, 2.378824233069679, [2.255799308504976, 2.2152068769099493],
     [1.3350883357191092, 0.35742059976099355], -0.01747773235249815290427),
    (2.1477439665534446, 2.246018706627701, [2.4964477208275966, 2.4976567449032263],
     [0.9613697499392122, 0.343507628553269], 0.06999792286690457893689),
]


@pytest.mark.parametrize("v, s, num, den, want", CANCELLING_DRAWS)
def test_cancelling_integrand_falls_back_to_double_double(v, s, num, den, want, monkeypatch):
    # the costly nodes, summed in double-double when this test was
    # written, are summed exactly
    calls = []
    kernel = series._sum_exact

    def counted(*args):
        calls.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(series, "_sum_exact", counted)
    res = laplace_numeric(v, s, -s, HyperSeriesSpec(num, den, 1.0), tol=1e-7)
    assert calls
    assert abs(res.value - want) <= res.abs_err_est
    assert abs(res.value - want) <= 1e-7 * abs(want)


# complex-parameter 2F2 at w/s = -1: the float rounding is charged, and
# the costly nodes are summed exactly; the first draw's error was 1.3 times
# the estimate before the charge
COMPLEX_ALTERNATING = [
    (1.3595225860281313, 3.2928001775060296,
     [2.6522604511187087 - 0.23349937406761767j, 2.7138828085674223 - 0.19391365699715013j],
     [0.454594059575018 - 0.21000251691636618j, 1.3385565533448303 - 0.3963198924672995j],
     -0.03750973337501519878438 - 0.0004544917751691922696077j),
    (2.3539334145692297, 0.7329576622277268,
     [1.513299059897632 + 0.09282925606604675j, 2.9474003276226703 - 0.2905708206612513j],
     [0.7384400297107594 - 0.3546633755756172j, 2.3917792314438633 - 0.11754430046932185j],
     -0.1915597274436746872153 - 0.4079174658114510265658j),
    (0.9633964427846144, 2.3062890567320613,
     [2.070649350989101 - 0.16184715726398924j, 2.1052005287072433 - 0.3716555985579465j],
     [1.0559777093289102 - 0.46728162180308463j, 0.5265553501992652 + 0.05476961981650652j],
     -0.09085799628119719725475 - 0.005844419337686432027768j),
]


@pytest.mark.parametrize("v, s, num, den, want", COMPLEX_ALTERNATING)
def test_complex_alternating_integrand_lies_within_its_estimate(v, s, num, den, want):
    res = laplace_numeric(v, s, -s, HyperSeriesSpec(num, den, 1.0), tol=1e-7)
    assert abs(res.value - want) <= res.abs_err_est


def test_double_double_rounding_is_charged_at_large_negative_ratio():
    # 1F1(1; 2; -2.9 u) = (1 - e^(-2.9 u)) / (2.9 u): the transform at v = 1
    # is ln(3.9) / 2.9.  Double-double loses about e^(1.9 u) DD_EPS at the
    # far nodes; the estimate must carry it
    want = math.log(3.9) / 2.9
    res = laplace_numeric(1.0, 1.0, -2.9, HyperSeriesSpec([1.0], [2.0], 1.0), tol=1e-7)
    assert abs(res.value - want) <= res.abs_err_est
    assert abs(res.value - want) <= 1e-7 * want


def test_exponential_tail_bound_at_negative_ratio():
    # 1F1(1.75; 1.8) at w/s = -2.68 and tol 1e-3: the body is accurate, so
    # the tail's |h(U)| / lambda is about a fifth of the estimate; h decays
    # like e^(-u) times a power, and lambda = 1 - w/s would overstate that
    # decay 3.68 times.  Gamma(v) 2F1(v, 1.75; 1.8; -2.68), mpmath, frozen
    want = 0.05442010839594395897159
    res = laplace_numeric(2.6, 1.0, -2.68, HyperSeriesSpec([1.75], [1.8], 1.0), tol=1e-3)
    assert res.tail_method is TailMethod.EXP_DECAY
    assert abs(res.value - want) <= res.abs_err_est


def test_exponential_tail_bound_with_a_rising_power():
    # 1F1(a; b) at w/s = 0.78: h ~ u^kappa e^(-0.22 u) with kappa = 2.8, so
    # |h(U)| / 0.22 missed the remainder by 8% at U = 133; the secant rate
    # of the last panel bounds it.  Gamma(v) s^(-v) 2F1(v, a; b; w/s),
    # mpmath at 40 digits, frozen
    want = 0.1097381234549876768937 - 35.59816556103641885202j
    spec = HyperSeriesSpec([1.0859 - 0.3451j], [0.7721 + 0.1884j], 1.0)
    res = laplace_numeric(2.8913, 2.2185, 1.7317, spec, tol=1e-7)
    assert res.tail_method is TailMethod.EXP_DECAY
    assert abs(res.value - want) <= res.abs_err_est
    assert abs(res.value - want) <= 1e-7 * abs(want)


# The exponential tail takes its predicted panels from one integrand call.
# Against a reference that takes one panel per call (the prediction
# patched to 1), it must evaluate the same panels, stop at the same one and
# spend the same nodes; the values may differ in the last bits (a node's
# sum runs to the call's stop row), and the estimate is no smaller, up to
# the rounding of the sums that form it: each panel is charged for the
# rows its call summed.
PREDICTED_TAILS = [
    # v, s, w, numerator, denominator, tol
    (1.5, 1.0, 0.5, [1.5, 0.7], [2.1, 1.3], 1e-7),     # Re(w/s) > 0, one call
    (3.0, 1.0, 0.6, [2.5], [1.5], 1e-9),               # seven panels, two calls
    (1.5, 1.0, 2.0, [1.2], [0.8, 1.9], 1e-9),          # p < q
    (1.5, 1.0, 0.5, [1.5 + 0.3j, 0.7 - 0.2j], [2.1 + 0.1j, 1.3 - 0.4j], 1e-9),
    (2.0, 1.0, 0.5 + 0.1j, [1.5 + 0.3j], [2.1 - 0.2j], 1e-9),  # runs past the prediction
    (3.0, 1.0, -1.0, [1.5, 0.7], [2.1, 1.3], 1e-9),    # alternating, in float
    (2.5, 1.0, -0.6, [0.9], [1.1, 2.0], 1e-9),         # alternating, p < q
    (3.0, 2.0, -3.0, [0.9, 0.4], [1.5, 2.8], 1e-9),    # exact re-sums in its tail call
]


def _tail_run(monkeypatch, case, one_panel_calls):
    """The result and the spans of every batch (integrand call) it made, in
    order."""
    from hyperlap import quadrature
    v, s, w, num, den, tol = case
    calls = []
    batch = quadrature._PanelIntegrator.batch

    def recorded(integ, spans, points=()):
        calls.append(list(spans))
        return batch(integ, spans, points)

    with monkeypatch.context() as m:
        m.setattr(quadrature._PanelIntegrator, "batch", recorded)
        if one_panel_calls:
            m.setattr(quadrature._TailModel, "panels", lambda model, *args: 1)
        res = laplace_numeric(v, s, w, HyperSeriesSpec(num, den, 1.0), tol=tol)
    return res, calls


def _tail_panels(case, calls):
    """The tail panels the calls evaluated, in order, each once: the spans
    from u_body on."""
    u_body = max(24.0, 6.0 * abs(case[0]))
    panels = []
    for span in (span for spans in calls for span in spans):
        if span[0] >= u_body and span not in panels:
            panels.append(span)
    return panels


@pytest.mark.parametrize("case", PREDICTED_TAILS)
def test_predicted_tail_matches_one_panel_per_call(case, monkeypatch):
    # a one-panel call is taken as soon as it is made, so the reference's
    # panels are the ones it takes
    want, want_calls = _tail_run(monkeypatch, case, True)
    got, got_calls = _tail_run(monkeypatch, case, False)
    assert want.tail_method is TailMethod.EXP_DECAY
    assert len(_tail_panels(case, want_calls)) >= 2
    assert _tail_panels(case, got_calls) == _tail_panels(case, want_calls)
    assert len(got_calls) <= len(want_calls)
    assert got.nodes_used == want.nodes_used
    assert abs(got.value - want.value) <= 1e-12 * abs(want.value)
    assert got.abs_err_est >= want.abs_err_est * (1.0 - 1e-14)


def test_panels_past_the_stop_add_nothing(monkeypatch):
    # the first case stops after its third panel, [40, 48]; predicted at 4,
    # its call holds a fourth panel, which is evaluated but never taken:
    # with the integrand and its charge made NaN inside that panel
    # (w/s = 0.5, so arguments past 24), the result is the same
    from hyperlap import quadrature
    case = PREDICTED_TAILS[0]
    want, want_calls = _tail_run(monkeypatch, case, True)
    monkeypatch.setattr(quadrature._TailModel, "panels", lambda model, *args: 4)
    got, got_calls = _tail_run(monkeypatch, case, False)
    tail = _tail_panels(case, want_calls)
    assert tail[-1] == (40.0, 48.0) and got_calls[-1] == tail + [(48.0, 56.0)]
    assert got.nodes_used == want.nodes_used + 25
    assert abs(got.value - want.value) <= 1e-12 * abs(want.value)
    kernel = series._series_vector

    def poisoned(ratios, z, *args):
        values, charge = kernel(ratios, z, *args)
        return np.where(z > 24.0, np.nan, values), np.where(z > 24.0, np.nan, charge)

    monkeypatch.setattr(series, "_series_vector", poisoned)
    again, _ = _tail_run(monkeypatch, case, False)
    assert again == got


def test_a_batch_charges_each_panel_when_it_is_taken():
    def charged(u):
        return np.exp(-u), np.full(u.shape, 1e-9)

    integ = _PanelIntegrator(charged)
    pending = integ.batch([(24.0, 32.0), (32.0, 40.0), (40.0, 48.0)])[0]
    charges = [item[3] for item in pending]
    assert integ.rounding == 0.0 and integ.nodes_used == 75
    integ.take(pending)
    assert integ.rounding == charges[0] > 0.0 and len(pending) == 2
    integ.take(pending)
    assert integ.rounding == charges[0] + charges[1] and len(pending) == 1
    assert integ.nodes_used == 75


def test_alternating_node_past_its_share_is_summed_exactly_within_the_budget(monkeypatch):
    # 1F1(0.8; 1.7) at w/s = -1.5, v = 2.5: in float the rounding total
    # stays within a tenth of the absolute tolerance, yet some nodes past
    # the seed charge more than their share of it; each is summed exactly.
    # Gamma(v) s^(-v) 2F1(v, 0.8; 1.7; w/s), mpmath at 40 digits, frozen
    from hyperlap import quadrature
    want = 0.4871700748328340006483
    args = (2.5, 1.0, -1.5, HyperSeriesSpec([0.8], [1.7], 1.0))
    limits, totals, resummed = [], [], []
    refine, take = quadrature._PanelIntegrator.refine, quadrature._PanelIntegrator.take

    def recorded_refine(integ, work, abs_tol, *rest):
        limits.append(abs_tol)
        return refine(integ, work, abs_tol, *rest)

    def recorded_take(integ, pending):
        out = take(integ, pending)
        totals.append(integ.rounding)
        return out

    monkeypatch.setattr(quadrature._PanelIntegrator, "refine", recorded_refine)
    monkeypatch.setattr(quadrature._PanelIntegrator, "take", recorded_take)
    with monkeypatch.context() as m:
        m.setattr(series, "_resum_exact", lambda *args: None)
        floats = laplace_numeric(*args, tol=1e-5)
    # refine's first limit is 0.75 abs_tol
    assert totals[-1] <= 0.1 * limits[0] / 0.75
    kernel = series._resum_exact

    def counted(ratios, z, values, charge, nodes, *rest):
        resummed.append(len(nodes))
        return kernel(ratios, z, values, charge, nodes, *rest)

    monkeypatch.setattr(series, "_resum_exact", counted)
    res = laplace_numeric(*args, tol=1e-5)
    assert sum(resummed) > 0 and res.nodes_used == floats.nodes_used
    assert abs(res.value - want) <= res.abs_err_est <= 1e-5 * want


def test_predicted_tail_call_that_would_overflow_falls_back(monkeypatch):
    # 1F1(0.3; 2.9) at w/s = 0.99, v = 0.5: eight width-80 panels, the
    # last ending at u = 664, where 0.99 u is still summable.  With the
    # overflow range lifted and every panel predicted, the call from
    # u = 584 would reach u = 1224 and overflow; it is made again with
    # one panel, and the result is the reference's
    from hyperlap import quadrature
    case = (0.5, 1.0, 0.99, [0.3], [2.9], 1e-9)
    want, want_calls = _tail_run(monkeypatch, case, True)
    monkeypatch.setattr(quadrature, "_Z_OVERFLOW", 1e4)
    monkeypatch.setattr(quadrature._TailModel, "panels", lambda model, *args: 64)
    got, got_calls = _tail_run(monkeypatch, case, False)
    assert got_calls[-2][-1][1] > 1000.0 and got_calls[-1] == got_calls[-2][:1]
    tail = _tail_panels(case, want_calls)
    assert len(tail) == 8 and _tail_panels(case, got_calls[:-2] + got_calls[-1:]) == tail
    assert got.nodes_used == want.nodes_used
    assert abs(got.value - want.value) <= 1e-12 * abs(want.value)


def test_exp_decay_draw_without_refinement_makes_two_integrand_calls(monkeypatch):
    # a seed-42 lap.gauss2x draw: the seed call (3 panels) and one call for
    # its 4 tail panels, where one call per tail panel made 5
    calls = []
    kernel = series._series_vector

    def counted(*args):
        calls.append(args[1].size)
        return kernel(*args)

    binding = verifier.sample_valid("lap.gauss2x", verifier.SamplerConfig(seed=42), 1)[0]
    monkeypatch.setattr(series, "_series_vector", counted)
    report = verifier.check_quadrature("lap.gauss2x", binding, 1e-5)
    assert report.passed and report.diagnostics == "nodes=175"
    assert calls == [75, 100]


@pytest.mark.parametrize("ratio", [0.99, 0.999])
def test_hopeless_exponential_tail_is_refused_up_front(ratio, monkeypatch):
    # the eval-regimes edge probe: h ~ u^-0.8 e^(-(1 - w/s) u) stays above
    # its target out to where the series overflows; refused after the seed
    # call alone, with no tail panel.  The time bound is loose (a loop of
    # eight panels into the overflow takes about 4.5 ms on a 2 GHz core):
    # the call count is the check
    import time
    calls = []
    kernel = series._series_vector

    def counted(*args):
        calls.append(args[1].size)
        return kernel(*args)

    monkeypatch.setattr(series, "_series_vector", counted)
    spec = HyperSeriesSpec([1.2], [2.5], 1.0)
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        with pytest.raises(SlowDecayError, match="overflows"):
            laplace_numeric(1.5, 1.0, ratio, spec, tol=1e-7)
        best = min(best, time.perf_counter() - start)
    assert calls == [75] * 5
    assert best < 1e-2


# tails the model runs past the overflow range that the loop evaluates:
# a large numerator parameter keeps F far from its asymptotic form at
# u_body, so the model overstates |h| there
EVALUATED_LONG_TAILS = [
    # v, w (s = 1), numerator, denominator, tol
    (1.5, 0.8, [42.0, 3.0], [1.5, 2.0], 1e-7),
    (1.25, 0.75, [20.5, 52.5], [3.0, 4.5], 1e-5),
]


@pytest.mark.parametrize("case", EVALUATED_LONG_TAILS)
def test_long_tail_that_ends_is_not_refused(case, monkeypatch):
    from hyperlap import quadrature
    v, w, num, den, tol = case
    spec = HyperSeriesSpec(num, den, 1.0)
    asked = []
    check = quadrature._tail_overflows

    def recorded(*args):
        asked.append(check(*args))
        return asked[-1]

    monkeypatch.setattr(quadrature, "_tail_overflows", recorded)
    got = laplace_numeric(v, 1.0, w, spec, tol=tol)
    assert asked == [False]
    monkeypatch.setattr(quadrature, "_tail_overflows", lambda *args: False)
    want = laplace_numeric(v, 1.0, w, spec, tol=tol)
    assert got == want


def test_tail_whose_rounding_sets_the_target_is_not_refused():
    # 2F2(60, 3; 1.5, 2) at w/s = 0.8: the tail outweighs the body by
    # about 1e21, so its rounding, not the tolerance, sets the target.  |h|
    # stays above the tolerance out to the overflow, but the check bounds
    # the rounding by no less than |h|, so it does not refuse.  Each tail
    # panel is charged for the rows its call summed, and that rounding
    # raises the target enough for the loop to stop before its rounding
    # bound overflows.  Gamma(v) 3F2(v, 60, 3; 1.5, 2; 0.8), mpmath at 40
    # digits, frozen
    from hyperlap import quadrature
    want = 9.301019848385291e43
    ratios = series.TermRatios([60.0, 3.0], [1.5, 2.0])
    assert not quadrature._tail_overflows(ratios, 1.5 + 0j, 0.8 + 0j, 24.0, 20.0, 0.2,
                                          1e-9, 0.0, 1e-13)
    res = laplace_numeric(1.5, 1.0, 0.8, HyperSeriesSpec([60.0, 3.0], [1.5, 2.0], 1.0), tol=1e-7)
    assert res.tail_method is TailMethod.EXP_DECAY
    assert abs(res.value - want) <= res.abs_err_est


def _fit_by_three_solves(rho_c, upper, hv, noise, fit):
    """The fit of _fit_power_law with its systems built and solved per call."""
    xs = upper * fit[0]
    power = np.exp(-rho_c * np.log(xs))
    g = hv * power
    a = np.vander(upper / xs, len(xs), increasing=True)
    mom = np.exp((rho_c + 1.0) * math.log(upper)) / (np.arange(len(xs)) - 1.0 - rho_c)
    weights = np.linalg.solve(a.T, mom) * power
    t_all = complex(weights @ hv)
    t_outer = complex(np.linalg.solve(a[1:, :-1], g[1:]) @ mom[:-1])
    t_inner = complex(np.linalg.solve(a[:-1, :-1], g[:-1]) @ mom[:-1])
    return t_all, float(max(abs(t_all - t_outer), abs(t_all - t_inner)) + np.abs(weights) @ noise)


@pytest.mark.parametrize("complex_im", [0.0, 0.3])
def test_import_time_fit_matches_per_call_solves(complex_im, monkeypatch):
    from hyperlap import quadrature
    fits = []
    fit = quadrature._fit_power_law

    def recorded(*args):
        fits.append(args)
        return fit(*args)

    monkeypatch.setattr(quadrature, "_fit_power_law", recorded)
    cfg = verifier.SamplerConfig(seed=42, complex_im=complex_im)
    for ident in ("lap.watson", "lap.dixon", "lap.whipple", "lap.dixonx", "lap.whipplex"):
        for binding in verifier.sample_valid(ident, cfg, 5):
            verifier.check_quadrature(ident, binding, 1e-5)
    assert len(fits) >= 25
    for args in fits:
        t, err = fit(*args)
        want_t, want_err = _fit_by_three_solves(*args, quadrature._FIT)
        assert abs(t - want_t) <= 1e-12 * abs(want_t)
        assert abs(err - want_err) <= 1e-12 * abs(want_t)

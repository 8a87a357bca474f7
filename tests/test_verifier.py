import json

import pytest

from hyperlap.errors import SamplerExhausted
from hyperlap.laplace import LaplaceId
from hyperlap.reporting import make_report
from hyperlap.summation import SummationId, validity
from hyperlap.verifier import (ALL_IDENTITY_IDS, SamplerConfig, check_quadrature,
                               check_series, parse_identity, resolve_dixon_variant,
                               run_suite, sample_for_specialization, sample_valid)


def test_identity_namespace():
    kind, ident = parse_identity("sum.kummerx")
    assert kind == "sum" and ident is SummationId.KUMMERX
    kind, ident = parse_identity("lap.watson1x")
    assert kind == "lap" and ident is LaplaceId.WATSON1X_L
    with pytest.raises(ValueError):
        parse_identity("nope.kummerx")
    assert len(ALL_IDENTITY_IDS) == 20


def test_sampler_soundness_summation():
    cfg = SamplerConfig(seed=51)
    for sid in SummationId:
        for binding in sample_valid(f"sum.{sid.value}", cfg, 20):
            ok, reason = validity(sid, binding, margin=cfg.pole_margin)
            assert ok, (sid, binding, reason)


def test_sampler_constraints_whipple_classical():
    cfg = SamplerConfig(seed=52)
    for binding in sample_valid("lap.whipple", cfg, 20):
        assert abs(binding["a"] + binding["b"] - 1.0) < 1e-14
        assert abs(binding["d"] + binding["e"] - 1 - 2 * binding["c"]) < 1e-14


def test_sampler_margins_watson2x():
    cfg = SamplerConfig(seed=53)
    for binding in sample_valid("sum.watson2x", cfg, 30):
        assert abs(binding["a"] - binding["b"] - 1.0) > 1e-3
        assert abs(binding["a"] - binding["b"] + 1.0) > 1e-3


def test_sampler_deterministic():
    cfg = SamplerConfig(seed=54)
    one = sample_valid("sum.dixonx", cfg, 10)
    two = sample_valid("sum.dixonx", cfg, 10)
    assert one == two
    # a different seed must give different draws
    other = sample_valid("sum.dixonx", SamplerConfig(seed=55), 10)
    assert one != other


# Re(d) <= 0 fails every sum's stated condition
NO_DRAW_PASSES = SamplerConfig(seed=56, ranges={**SamplerConfig().ranges, "d": (-2.0, -1.0)},
                               max_rejects=200)


def test_sampler_exhaustion():
    with pytest.raises(SamplerExhausted):
        sample_valid("sum.gauss2x", NO_DRAW_PASSES, 5)


def test_specialization_sampler_exhaustion():
    with pytest.raises(SamplerExhausted):
        sample_for_specialization("lap.gauss2x", NO_DRAW_PASSES, 5)


def test_dixon_variant_sampler_exhaustion():
    with pytest.raises(SamplerExhausted):
        resolve_dixon_variant(NO_DRAW_PASSES, 20)


def test_near_zero_rhs_flagged():
    rep = make_report("sum.gauss2x", {"a": 1.0}, 1e-14, 0.0, "series", 1e-9)
    assert "NearZeroRHS" in rep.diagnostics
    assert rep.passed  # judged on the absolute residual
    rep = make_report("sum.gauss2x", {"a": 1.0}, 1e-3, 0.0, "series", 1e-9)
    assert not rep.passed


def test_check_series_and_quadrature_roundtrip():
    cfg = SamplerConfig(seed=57)
    binding = sample_valid("lap.gauss2x", cfg, 1)[0]
    rep = check_series("lap.gauss2x", binding, 1e-9)
    assert rep.passed and rep.oracle == "series"
    rep = check_quadrature("lap.gauss2x", binding, 1e-5)
    assert rep.passed and rep.oracle == "quadrature"
    assert "nodes=" in rep.diagnostics


def test_check_quadrature_slow_decay_is_failed_report():
    # watson1x with 2c-a-b just above -1: the integral exists but its tail
    # exponent sits inside the slow-decay guard band
    binding = {"a": 1.0, "b": 1.0, "c": 0.51, "d": 2.0, "s": 2.0}
    rep = check_quadrature("lap.watson1x", binding, 1e-5)
    assert not rep.passed
    assert "SlowDecay" in rep.diagnostics


def test_run_suite_subset_aggregates_and_conservation():
    cfg = SamplerConfig(seed=58)
    res = run_suite(ids=["sum.baileyx", "lap.bailey"], cfg=cfg, n_per_id=8)
    assert set(res.per_identity) == {"sum.baileyx", "lap.bailey"}
    agg = res.per_identity["sum.baileyx"]
    assert agg["n_checked"] == 8  # series oracle only
    lap_agg = res.per_identity["lap.bailey"]
    assert lap_agg["n_checked"] == 8 + 8  # series + quadrature (capped at 25)
    # report conservation: every check appears exactly once in the flat list
    assert len(res.reports) == agg["n_checked"] + lap_agg["n_checked"]
    assert res.overall_pass


def test_run_suite_determinism_bytes():
    cfg = SamplerConfig(seed=42)
    one = json.dumps(run_suite(ids=["sum.gauss2x", "lap.kummerx"], cfg=cfg,
                               n_per_id=6).to_dict())
    two = json.dumps(run_suite(ids=["sum.gauss2x", "lap.kummerx"], cfg=cfg,
                               n_per_id=6).to_dict())
    assert one == two


def test_resolve_dixon_variant_verdict():
    verdict, evidence = resolve_dixon_variant(SamplerConfig(seed=59), n=20)
    assert verdict == "half_a_minus_b"
    assert len(evidence) == 20
    for row in evidence:
        assert set(row) >= {"a", "b", "c", "d", "residual_half_a_minus_b",
                            "residual_half_a_minus_c_twice"}
        assert row["residual_half_a_minus_b"] < 1e-8
        assert row["residual_half_a_minus_c_twice"] > 1e-3


def test_resolve_dixon_needs_twenty_draws():
    with pytest.raises(ValueError):
        resolve_dixon_variant(SamplerConfig(seed=60), n=10)


def test_suite_records_verdict_when_dixonx_included():
    res = run_suite(ids=["sum.dixonx"], cfg=SamplerConfig(seed=61), n_per_id=5)
    assert res.dixon_variant_verdict == "half_a_minus_b"
    assert len(res.dixon_evidence) >= 20
    res = run_suite(ids=["sum.gauss2x"], cfg=SamplerConfig(seed=61), n_per_id=5)
    assert res.dixon_variant_verdict == "not_run"


def test_complex_perturbation_mode():
    cfg = SamplerConfig(seed=62, complex_im=0.5)
    bindings = sample_valid("sum.gauss2x", cfg, 10)
    assert any(abs(b["a"].imag) > 1e-3 for b in bindings)
    res = run_suite(ids=["sum.gauss2x"], cfg=cfg, n_per_id=10)
    assert res.overall_pass


def test_vacuous_suite():
    res = run_suite(n_per_id=0, cfg=SamplerConfig(seed=63))
    assert res.overall_pass
    assert all(v["n_checked"] == 0 for v in res.per_identity.values())
    payload = res.to_dict()
    assert payload["schema_version"] == "1"
    json.dumps(payload)  # serializable


def test_new_transform_draw_records_gamma_arguments_once(monkeypatch):
    from hyperlap import laplace, summation, verifier

    cfg = SamplerConfig(seed=54)
    binding = sample_valid("lap.gauss2x", cfg, 1)[0]
    params, s = verifier._split_laplace_binding(binding)
    calls = []
    original = summation.rhs_gamma_arguments

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(summation, "rhs_gamma_arguments", counted)
    monkeypatch.setattr(laplace, "rhs_gamma_arguments", counted)
    assert verifier._laplace_ok(LaplaceId.GAUSS2X_L, params, s, cfg)
    assert calls == [SummationId.GAUSS2X]


def test_new_transform_screen_reads_each_row_kind_once(monkeypatch):
    # a new transform's screen is its sum's: one pass over each kind of
    # exclusion row and one build of the sum's series, no integrand
    from hyperlap import series, summation, verifier

    cfg = SamplerConfig(seed=54)
    binding = sample_valid("lap.whipplex", cfg, 1)[0]
    params, s = verifier._split_laplace_binding(binding)
    passes, builds = [], []
    reason = summation._exclusion_reason
    init = series.HyperSeriesSpec.__init__

    def counted_reason(ident, p, degenerate, *args, **kwargs):
        passes.append(degenerate)
        return reason(ident, p, degenerate, *args, **kwargs)

    def counted_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(summation, "_exclusion_reason", counted_reason)
    monkeypatch.setattr(series.HyperSeriesSpec, "__init__", counted_init)
    assert verifier._laplace_ok(LaplaceId.WHIPPLEX_L, params, s, cfg)
    assert sorted(passes) == [False, True]
    assert len(builds) == 1

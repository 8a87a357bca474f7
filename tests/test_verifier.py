import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlap.errors import SamplerExhausted
from hyperlap.laplace import NEW_IDS, LaplaceId
from hyperlap import verifier
from hyperlap.reporting import Sides, compare, make_report
from hyperlap.summation import SummationId, validity
from hyperlap.verifier import (ALL_IDENTITY_IDS, DEFAULT_TOLERANCES, SamplerConfig,
                               check_compositional, check_quadrature, check_series,
                               check_specialization, oracle_tolerances, parse_identity,
                               resolve_dixon_variant, run_suite, sample_for_specialization,
                               sample_valid)


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


def test_compare_reports_an_exception_as_a_failed_check():
    def sides():
        raise ZeroDivisionError("boom")
    rep = compare("sum.gauss2x", {"a": 1.0}, "series", 1e-9, sides)
    assert not rep.passed and rep.diagnostics == "ZeroDivisionError: boom"
    rep = compare("lap.kummerx", {"d": 1.0}, "specialization", 1e-9,
                  lambda: Sides(1.0, 1.0, params={"d": 2.0}))
    assert rep.passed and rep.params == {"d": 2.0}


def test_oracle_rule():
    tols = DEFAULT_TOLERANCES
    assert oracle_tolerances(*parse_identity("sum.kummerx")) == {"series": tols["series"]}
    assert oracle_tolerances(*parse_identity("sum.dixonx")) == {"series": tols["series_unit"]}
    assert oracle_tolerances(*parse_identity("lap.kummer")) == {
        "series": tols["series"], "quadrature": tols["quadrature"]}
    assert list(oracle_tolerances(*parse_identity("lap.watson1x"))) == [
        "series", "quadrature", "compositional", "specialization"]
    # watson's integrand sits at unit argument, so it reads series_unit
    looser = {**tols, "series_unit": 0.5}
    assert oracle_tolerances(*parse_identity("lap.watson1x"), looser)["series"] == 0.5


@pytest.mark.parametrize("check, identity_id", [
    (check_quadrature, "sum.kummerx"),
    (check_compositional, "lap.kummer"),
    (check_specialization, "sum.kummerx"),
])
def test_a_check_that_does_not_apply_is_a_failed_report(check, identity_id):
    rep = check(identity_id, {"a": 2.5, "b": 0.5, "d": 3.0, "s": 2.0}, 1e-9)
    assert not rep.passed and "does not apply" in rep.diagnostics


def test_run_suite_calls_the_checks_through_the_module(monkeypatch):
    # the benchmark times each check by wrapping these module attributes
    calls = []
    for name in ("check_series", "check_quadrature", "check_compositional",
                 "check_specialization"):
        def wrapped(*args, _fn=getattr(verifier, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(verifier, name, wrapped)
    res = run_suite(ids=["sum.kummerx", "lap.kummerx"], cfg=SamplerConfig(seed=58),
                    n_per_id=2)
    assert sorted(set(calls)) == ["check_compositional", "check_quadrature",
                                  "check_series", "check_specialization"]
    assert len(calls) == sum(agg["n_checked"] for agg in res.per_identity.values())


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


def _columns(bindings: list[dict]) -> dict:
    return {k: np.array([complex(b[k]) for b in bindings]) for k in bindings[0]}


def test_new_transform_draw_records_gamma_arguments_once(monkeypatch):
    # one collection of the sum's gamma arguments screens a whole block
    from hyperlap import summation, verifier

    cfg = SamplerConfig(seed=54)
    params, s = verifier._split_laplace_binding(
        _columns(sample_valid("lap.gauss2x", cfg, 64)))
    calls = []
    original = summation._gamma_arguments

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(summation, "_gamma_arguments", counted)
    assert verifier._laplace_ok(LaplaceId.GAUSS2X_L, params, s, cfg).all()
    assert calls == [SummationId.GAUSS2X]


def test_new_transform_screen_reads_each_row_kind_once(monkeypatch):
    # a new transform's screen is its sum's: one pass over each kind of
    # exclusion row for a whole block, and no series built
    from hyperlap import series, summation, verifier

    cfg = SamplerConfig(seed=54)
    params, s = verifier._split_laplace_binding(
        _columns(sample_valid("lap.whipplex", cfg, 64)))
    passes, builds = [], []
    clauses = summation._exclusion_clauses
    init = series.HyperSeriesSpec.__init__

    def counted_clauses(ident, p, degenerate, *args, **kwargs):
        passes.append(degenerate)
        return clauses(ident, p, degenerate, *args, **kwargs)

    def counted_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(summation, "_exclusion_clauses", counted_clauses)
    monkeypatch.setattr(series.HyperSeriesSpec, "__init__", counted_init)
    assert verifier._laplace_ok(LaplaceId.WHIPPLEX_L, params, s, cfg).all()
    assert sorted(passes) == [False, True]
    assert builds == []


def test_sampling_builds_no_series(monkeypatch):
    from hyperlap import series

    builds = []
    init = series.HyperSeriesSpec.__init__

    def counted_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(series.HyperSeriesSpec, "__init__", counted_init)
    cfg = SamplerConfig(seed=54)
    for identity_id in ALL_IDENTITY_IDS:
        sample_valid(identity_id, cfg, 20)
    assert builds == []
    # the Dixon evidence builds one series for each accepted row
    resolve_dixon_variant(cfg, n=20)
    assert len(builds) == 20


# sha256 of the accepted bindings, frozen from the sampler that drew and
# screened one candidate at a time: sample_valid for every id at n = 60,
# sample_for_specialization for the seven new ids at n = 60, and the
# resolve_dixon_variant evidence at n = 50.  The evidence rows carry the two
# Dixon residuals, so the real-mode third digests were frozen again when real
# gamma arguments moved to math.lgamma; the bindings in those rows did not
# change
FROZEN_STREAMS = {
    (42, 0.0): ("f1c250f7fffa7226725d132788c5a817c53078a43682a6670d09e2e136ccc022",
                "cdb8438e9b92e4b6a7722ffecc27a879b364cb547c382eb8da00ce01e8d126df",
                "cabc32982808519c5370bb9bb88164b942cbc843a8c5aa7da504594f3f0cad77"),
    (42, 0.3): ("54ec07c0e55a7c3baa48aaee91238936cfac3eac4df2295058f7570daf4ee7b5",
                "5b8e5c3e34c5bb0f4aec250f3e22df409655452f17192fb005b44d29e265e1a7",
                "3613466bcb937285a6e8eff6d48e06639ea9c86a21d3dac33a52ea753336faa9"),
    (7, 0.0): ("b568ff505864ff7088e5809c1c7dc2c92c41d6f1d90aba0c05872c4deb84f75d",
               "f7b0cffbeeececb4a5f5349c878b2f4735620a99e6da2a67552f064ab11a5b74",
               "e945c00c874abd6fef6d06873a662f5e0b97b40677be4d994a1a4aaac1e330bc"),
    (7, 0.3): ("caf30817080287adc4c33e6181bdb8177f7b72c69c223758a4171454f048c3a2",
               "87a7ce3bff9db9673925be99d86a02f4658ced97844ad386922425901e688332",
               "fb3fd8af09f438696a47e7bc2802c607af97f1f3c701c88d27fe863d914b116f"),
}


def _digest(rows: list[dict]) -> str:
    h = hashlib.sha256()
    for row in rows:
        for key in sorted(row):
            val = complex(row[key])
            h.update(f"{key}:{val.real.hex()}:{val.imag.hex()};".encode())
        h.update(b"\n")
    return h.hexdigest()


def _stream_digests(seed: int, complex_im: float) -> tuple[str, str, str]:
    cfg = SamplerConfig(seed=seed, complex_im=complex_im)
    valid = [b for i in ALL_IDENTITY_IDS for b in sample_valid(i, cfg, 60)]
    special = [b for lid in NEW_IDS
               for b in sample_for_specialization(f"lap.{lid.value}", cfg, 60)]
    verdict, evidence = resolve_dixon_variant(cfg, n=50)
    assert verdict == "half_a_minus_b"
    return _digest(valid), _digest(special), _digest(evidence)


@pytest.mark.parametrize("seed,complex_im", sorted(FROZEN_STREAMS))
def test_sampler_streams_are_frozen(seed, complex_im):
    assert _stream_digests(seed, complex_im) == FROZEN_STREAMS[seed, complex_im]


@pytest.mark.parametrize("first", [1, 4096])
def test_block_size_changes_no_binding(first, monkeypatch):
    from hyperlap import verifier

    monkeypatch.setattr(verifier, "_first_block", lambda n: first)
    for key in [(42, 0.0), (7, 0.3)]:
        assert _stream_digests(*key) == FROZEN_STREAMS[key]


@pytest.mark.parametrize("first", [1, 64, 4096])
def test_exhaustion_message_is_frozen(first, monkeypatch):
    # seed 7 accepts one draw before the fourth reject
    from hyperlap import verifier

    monkeypatch.setattr(verifier, "_first_block", lambda n: first)
    with pytest.raises(SamplerExhausted) as info:
        sample_for_specialization("lap.dixonx", SamplerConfig(seed=7, max_rejects=3), 5)
    assert str(info.value) == "lap.dixonx:specialization: 4 rejects for 1/5 draws"


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("field", ["complex_im", "pole_margin"])
def test_sampler_config_refuses_amounts_that_are_not_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        SamplerConfig(**{field: value})


@pytest.mark.parametrize("field", ["complex_im", "pole_margin"])
def test_sampler_config_refuses_negative_amounts(field):
    with pytest.raises(ValueError):
        SamplerConfig(**{field: -0.5})
    with pytest.raises(ValueError):
        run_suite(n_per_id=-3, cfg=SamplerConfig(seed=63))


# ------------------------------------------------- array and scalar screens
#
# The sampler screens a block of candidates as columns; each row's verdict
# must be the one the catalog's scalar checks give that row alone.  Blocks
# mix draws from widened ranges with rows moved onto a degeneracy line or
# a gamma pole, or to either side of its margin, and rows whose series
# excess sits at or around the 0.05 and -0.95 margins.  The pole margin is
# the default 1e-3, or 0.1, wider than the 0.05 power margin, so that
# Gamma(v)'s pole screen can reject a row.

PIN_OFFSETS = [0.0, 1e-4, -1e-4, 9e-4, -9e-4, 1.1e-3, -1.1e-3]
EXCESS_TARGETS = [0.05, 0.05 - 1e-4, 0.05 + 1e-4, -0.95, -0.95 - 1e-4, -0.95 + 1e-4]
def _scalar_case_clear(case, margin: float) -> bool:
    from hyperlap.errors import ValidityError
    from hyperlap.laplace import _check_case_validity, case_gamma_arguments
    from hyperlap.summation import _pole_proximity_reason

    try:
        _check_case_validity(case)
    except ValidityError:
        return False
    return _pole_proximity_reason(*case_gamma_arguments(case), margin) is None


def _scalar_sum_ok(sid, params, margin: float) -> bool:
    from hyperlap.summation import ARGUMENT, lhs_spec
    from hyperlap.verifier import _excess_too_small

    return (validity(sid, params, margin)[0]
            and not _excess_too_small(ARGUMENT[sid], lhs_spec(sid, params).excess().real))


def _scalar_transform_ok(lid, params, s, margin: float) -> bool:
    from hyperlap.laplace import SUMMATION_OF, W_FACTOR, LaplaceCase, lhs_integrand
    from hyperlap.summation import _pole_proximity_reason
    from hyperlap.verifier import _POWER_MARGIN, _excess_too_small

    case = LaplaceCase(lid, params, s)
    if case.power.real < _POWER_MARGIN:
        return False
    if lid in SUMMATION_OF:
        return (case.s.real > 0.0 and _scalar_sum_ok(SUMMATION_OF[lid], params, margin)
                and _pole_proximity_reason([case.power], [], margin) is None)
    if not _scalar_case_clear(case, margin):
        return False
    excess = (lhs_integrand(case).spec.excess() - case.power).real
    return not _excess_too_small(W_FACTOR[lid], excess)


def _scalar_specialized_ok(lid, params, s, margin: float) -> bool:
    from hyperlap.laplace import LaplaceCase, specialization_target
    from hyperlap.verifier import _POWER_MARGIN

    rule = specialization_target(lid)
    params = {**params, "d": rule.d_value(params)}
    if params["d"].real < _POWER_MARGIN:
        return False
    return (_scalar_case_clear(LaplaceCase(lid, params, s), margin)
            and _scalar_case_clear(LaplaceCase(rule.classical_id,
                                               rule.classical_params(params), s), margin))


def _moved(row: dict, sym: str, value_of, target: float) -> dict:
    """row with sym shifted so that Re(value_of(row)) = target; each pinned
    quantity is linear in each symbol."""
    try:
        base = complex(value_of(row))
        slope = complex(value_of({**row, sym: row[sym] + 1.0})) - base
    except (ZeroDivisionError, ValueError):
        return row
    if slope.real == 0.0:
        return row
    return {**row, sym: row[sym] + (target - base.real) / slope.real}


def _pinned_quantities(kind, ident, row: dict) -> dict:
    """Name -> (function of a row, targets) for the degeneracy lines, gamma
    arguments and series excess of the identity."""
    from hyperlap.laplace import (SUMMATION_OF, LaplaceCase, case_gamma_arguments,
                                  lhs_integrand)
    from hyperlap.summation import EXCLUSIONS, lhs_spec, rhs_gamma_arguments

    def params(r):
        return {k: v for k, v in r.items() if k != "s"}

    sid = ident if kind == "sum" else SUMMATION_OF.get(ident)
    out = {}
    for ex in EXCLUSIONS:
        if ex.bound is None and ident.value in ex.ids:
            out[ex.reason] = (ex.expression, PIN_OFFSETS)
    # 0.07: clear of the power margin, inside the wider pole margin
    poles = [-k + off for k in range(3) for off in PIN_OFFSETS] + [0.07]
    if kind == "sum":
        args = lambda r: sum(rhs_gamma_arguments(ident, r), [])  # noqa: E731
        excess = lambda r: lhs_spec(ident, r).excess()  # noqa: E731
    else:
        args = lambda r: sum(case_gamma_arguments(  # noqa: E731
            LaplaceCase(ident, params(r), r["s"])), [])
        if sid is not None:
            excess = lambda r: lhs_spec(sid, params(r)).excess()  # noqa: E731
        else:
            def excess(r):
                case = LaplaceCase(ident, params(r), r["s"])
                return lhs_integrand(case).spec.excess() - case.power
    try:
        count = len(args(row))
    except (ZeroDivisionError, ValueError):
        count = 0
    for j in range(count):
        out[f"gamma argument {j}"] = (lambda r, j=j: args(r)[j], poles)
    out["excess"] = (excess, EXCESS_TARGETS)
    return out


@st.composite
def _blocks(draw, identity_id):
    from hyperlap.verifier import _impose_whipple, _symbols

    kind, ident = parse_identity(identity_id)
    symbols = _symbols(kind, ident)
    complex_mode = draw(st.booleans())
    ranges = SamplerConfig().ranges
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        row = {}
        for sym in symbols:
            lo, hi = ranges[sym]
            re = draw(st.floats(lo - 1.5, hi))
            im = draw(st.floats(-0.3, 0.3)) if complex_mode and sym != "s" else 0.0
            row[sym] = complex(re, im)
        if ident is LaplaceId.WHIPPLE_L:
            _impose_whipple(row)
        pins = _pinned_quantities(kind, ident, row)
        name = draw(st.sampled_from([None] + sorted(pins)))
        if name is not None:
            value_of, targets = pins[name]
            sym = draw(st.sampled_from([x for x in symbols if x != "s"]))
            row = _moved(row, sym, value_of, draw(st.sampled_from(targets)))
        rows.append(row)
    return rows


def test_gamma_v_pole_margin_is_the_transform_screens_own():
    # baileyx's v = 1 - a is no argument of the sum's closed form: at
    # v = 0.07 only Gamma(v)'s own pole margin can reject the draw
    from hyperlap import verifier

    params = _columns([{"a": 0.93, "c": 1.5, "d": 2.0}])
    s = np.array([2.0 + 0j])
    for margin, want in [(1e-3, True), (0.1, False)]:
        cfg = SamplerConfig(pole_margin=margin)
        assert verifier._summation_ok(SummationId.BAILEYX, params, cfg)[0]
        assert verifier._laplace_ok(LaplaceId.BAILEYX_L, params, s, cfg)[0] == want
        assert _scalar_transform_ok(LaplaceId.BAILEYX_L, {"a": 0.93 + 0j, "c": 1.5 + 0j,
                                                           "d": 2.0 + 0j}, 2.0, margin) == want


@pytest.mark.parametrize("identity_id", ALL_IDENTITY_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_block_screens_match_scalar_checks(identity_id, data):
    from hyperlap import summation, verifier
    from hyperlap.laplace import SUMMATION_OF

    rows = data.draw(_blocks(identity_id))
    margin = data.draw(st.sampled_from([1e-3, 0.1]))
    cfg = SamplerConfig(pole_margin=margin)
    cols = _columns(rows)
    kind, ident = parse_identity(identity_id)
    if kind == "sum":
        mask, _excess = summation._screen_rows(ident, cols, margin)
        assert mask.tolist() == [validity(ident, r, margin)[0] for r in rows]
        assert verifier._summation_ok(ident, cols, cfg).tolist() == [
            _scalar_sum_ok(ident, r, margin) for r in rows]
        return
    params, s = verifier._split_laplace_binding(cols)
    split = [verifier._split_laplace_binding(r) for r in rows]
    assert verifier._laplace_ok(ident, params, s, cfg).tolist() == [
        _scalar_transform_ok(ident, p, z, margin) for p, z in split]
    if ident in SUMMATION_OF:
        assert verifier._specialized_ok(ident, params, s, cfg).tolist() == [
            _scalar_specialized_ok(ident, p, z, margin) for p, z in split]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
def test_non_finite_binding_is_an_invalid_binding(value):
    # a NaN failed in round() on some paths and ran the closed form to NaN on
    # others
    from hyperlap.errors import InvalidBinding
    from hyperlap.laplace import LaplaceCase, closed_form
    from hyperlap.summation import lhs_spec, rhs_closed_form

    binding = {"a": 1.2, "b": 0.5, "d": value}
    for build in (lhs_spec, rhs_closed_form):
        with pytest.raises(InvalidBinding, match="d = .* is not finite"):
            build(SummationId.KUMMERX, binding)
    ok, reason = validity(SummationId.KUMMERX, binding)
    assert not ok and "is not finite" in reason
    with pytest.raises(InvalidBinding, match="s = .* is not finite"):
        LaplaceCase(LaplaceId.KUMMER_L, {"a": 1.0, "b": 0.5}, value)
    with pytest.raises(InvalidBinding, match="a = .* is not finite"):
        closed_form(LaplaceCase(LaplaceId.KUMMER_L, {"a": value, "b": 0.5}, 2.0))
    # every check refuses it; the specialization check replaces d, so a is moved
    assert check_series("sum.kummerx", binding, 1e-6).diagnostics.startswith("InvalidBinding")
    for check in (check_series, check_quadrature, check_compositional, check_specialization):
        report = check("lap.kummerx", {"a": value, "b": 0.5, "d": 1.5, "s": 2.0}, 1e-6)
        assert not report.passed and report.diagnostics.startswith("InvalidBinding: ")

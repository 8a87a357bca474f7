"""The catalog's single statements -- the exclusion table and the recorded
gamma arguments -- held against what the closed forms and screens do."""

from collections import Counter

import pytest

from hyperlap import laplace, summation, verifier
from hyperlap.errors import DegenerateParameterError, ValidityError
from hyperlap.gammafn import gamma, gamma_ratio
from hyperlap.laplace import (LaplaceCase, LaplaceId, case_gamma_arguments,
                              closed_form, closed_form_direct)
from hyperlap.summation import (EXCLUSIONS, SummationId, rhs_closed_form,
                                rhs_gamma_arguments, validity)
from hyperlap.verifier import ALL_IDENTITY_IDS, SamplerConfig, sample_valid

S = 2.0
SUM_VALUES = {sid.value for sid in SummationId}
LAP_VALUES = {lid.value for lid in LaplaceId}

# a binding on the line of each (degeneracy, identity) pair, chosen so that
# no stated condition fails; moving b by 5e-4 leaves every other row clear
ON_LINE = {
    ("degenerate b=1", "kummerx"): {"a": 2.0, "b": 1.0, "d": 1.5},
    ("degenerate b=1", "dixonx"): {"a": 2.5, "b": 1.0, "c": 0.4, "d": 2.0},
    ("degenerate 1+a-b-c=0", "dixonx"): {"a": -0.5, "b": 0.3, "c": 0.2, "d": 2.0},
    ("degenerate a-b=1", "watson2x"): {"a": 2.0, "b": 1.0, "c": 1.8, "d": 1.0},
    ("degenerate a-b=-1", "watson2x"): {"a": 1.0, "b": 2.0, "c": 1.8, "d": 1.0},
}
OFF_LINE = 5e-4

# the symbol a stated condition's test moves to violate it
CONDITION_SYMBOL = {"Re(d)<=0": "d", "Re(2c-a-b)<=-1": "a",
                    "Re(a-2b-2c)<=-2": "a", "Re(c)<=0": "c"}


def _violating(row: summation.Exclusion, binding: dict, sym: str) -> dict:
    """binding with sym moved so that Re(row.expression) = row.bound - 0.5;
    every row expression is linear in each symbol."""
    p = {k: complex(v) for k, v in binding.items()}
    base = row.expression(p)
    slope = row.expression({**p, sym: p[sym] + 1.0}) - base
    p[sym] += (row.bound - 0.5 - base.real) / slope.real
    return p


@pytest.mark.parametrize("row", EXCLUSIONS, ids=[r.reason for r in EXCLUSIONS])
def test_exclusion_row(row):
    assert set(row.ids) <= SUM_VALUES | LAP_VALUES, "row names an unknown identity"
    for ident in row.ids:
        if row.bound is None:
            _check_degeneracy(row, ident)
        else:
            _check_condition(row, ident)


def _assert_raises(error, reason, evaluate, *args):
    with pytest.raises(error) as info:
        evaluate(*args)
    assert str(info.value) == reason


def _check_degeneracy(row, ident):
    on = ON_LINE[(row.reason, ident)]
    assert row.excludes(on, 1e-12)
    _assert_raises(DegenerateParameterError, row.reason, rhs_closed_form,
                   SummationId(ident), on)
    case = LaplaceCase(LaplaceId(ident), on, S)
    for evaluate in (closed_form, closed_form_direct):
        _assert_raises(DegenerateParameterError, row.reason, evaluate, case)

    off = {**on, "b": on["b"] + OFF_LINE}
    assert not row.excludes(off, 1e-12) and row.excludes(off, 1e-3)
    assert validity(SummationId(ident), off) == (False, row.reason + " (margin)")
    assert not verifier._laplace_ok(LaplaceId(ident), off, S, SamplerConfig())


def _check_condition(row, ident):
    sym = CONDITION_SYMBOL[row.reason]
    if ident in SUM_VALUES:
        binding = sample_valid(f"sum.{ident}", SamplerConfig(seed=3), 1)[0]
        bad = _violating(row, binding, sym)
        _assert_raises(ValidityError, row.reason, rhs_closed_form, SummationId(ident), bad)
        assert validity(SummationId(ident), bad) == (False, row.reason)
    binding = sample_valid(f"lap.{ident}", SamplerConfig(seed=3), 1)[0]
    s = binding.pop("s")
    case = LaplaceCase(LaplaceId(ident), _violating(row, binding, sym), s)
    for evaluate in (closed_form, closed_form_direct):
        _assert_raises(ValidityError, row.reason, evaluate, case)


@pytest.mark.parametrize("identity_id", ALL_IDENTITY_IDS)
def test_recorded_gamma_arguments_are_the_evaluated_ones(identity_id, monkeypatch):
    num, den = Counter(), Counter()

    def recording_ratio(spec):
        num.update(spec.numerator)
        den.update(spec.denominator)
        return gamma_ratio(spec)

    def recording_gamma(z):
        num.update([complex(z)])
        return gamma(z)

    for module in (summation, laplace):
        monkeypatch.setattr(module, "gamma_ratio", recording_ratio)
    monkeypatch.setattr(laplace, "gamma", recording_gamma)

    kind, ident = verifier.parse_identity(identity_id)
    for binding in sample_valid(identity_id, SamplerConfig(seed=4), 3):
        num.clear()
        den.clear()
        if kind == "sum":
            rhs_closed_form(ident, binding)
            want_num, want_den = rhs_gamma_arguments(ident, binding)
        else:
            s = binding.pop("s")
            case = LaplaceCase(ident, binding, s)
            closed_form(case)
            want_num, want_den = case_gamma_arguments(case)
        assert num == Counter(want_num)
        assert den == Counter(want_den)


def test_closed_form_screens_a_new_transform_once(monkeypatch):
    # _check_case_validity reads the table once per kind of row; the sum's
    # closed form is then evaluated without a second screen
    calls = []
    original = summation._exclusion_reason

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(summation, "_exclusion_reason", counted)
    case = LaplaceCase(LaplaceId.GAUSS2X_L, {"a": 1.3, "b": 0.7, "d": 1.9}, S)
    closed_form(case)
    assert len(calls) == 2

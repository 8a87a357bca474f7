"""Closed forms and gamma ratios bit for bit against frozen digests.

Every field of rhs_closed_form, closed_form and closed_form_direct over
seed-42 sampler draws (real, and complex with complex_im = 0.3) and over
draws with one symbol moved onto a degeneracy, a stated condition or a
pole, and of gamma_ratio over the gamma arguments of those closed forms and over seeded
random ratios on every path: real, complex, a zero denominator, a pole, an
indeterminate pole pair and overflow.  A refusal counts by its type and
message.  These paths are scalar Python arithmetic (math.lgamma and the
Lanczos sum in cmath), so the digests do not depend on numpy's SIMD
dispatch.
"""

import hashlib

import numpy as np
import pytest

from hyperlap.gammafn import GammaRatioSpec, gamma_ratio
from hyperlap.laplace import LaplaceCase, case_gamma_arguments, closed_form, closed_form_direct
from hyperlap.summation import (ClosedFormBreakdown, DixonVariant, rhs_closed_form,
                                rhs_gamma_arguments)
from hyperlap.verifier import ALL_IDENTITY_IDS, SamplerConfig, parse_identity, sample_valid

_DRAWS = 25


def _hex(z: complex) -> str:
    z = complex(z)
    return f"{z.real.hex()},{z.imag.hex()}"


def _fields(outcome) -> str:
    if isinstance(outcome, BaseException):
        return f"{type(outcome).__name__}: {outcome}"
    if isinstance(outcome, ClosedFormBreakdown):
        return ";".join(_hex(getattr(outcome, name)) for name in
                        ("prefactor", "term1", "term2", "alpha", "beta", "value"))
    return _hex(outcome)


def _digest(calls) -> str:
    """sha256 of the fields of fn(*args), or of its refusal, over the calls
    in order."""
    h = hashlib.sha256()
    for fn, *args in calls:
        try:
            outcome = fn(*args)
        except Exception as exc:  # noqa: BLE001 - a refusal is pinned too
            outcome = exc
        h.update((_fields(outcome) + "\n").encode())
    return h.hexdigest()


def _bindings(complex_im: float):
    """(kind, ident, binding) of the first _DRAWS seed-42 draws of every id."""
    cfg = SamplerConfig(seed=42, complex_im=complex_im)
    for identity in ALL_IDENTITY_IDS:
        kind, ident = parse_identity(identity)
        for binding in sample_valid(identity, cfg, _DRAWS):
            yield kind, ident, binding


def _variants(ident):
    return list(DixonVariant) if ident.value == "dixonx" else [DixonVariant.HALF_A_MINUS_B]


def _closed_form_calls(complex_im: float) -> list:
    calls = []
    for kind, ident, binding in _bindings(complex_im):
        for variant in _variants(ident):
            if kind == "sum":
                calls.append((rhs_closed_form, ident, binding, variant))
            else:
                case = LaplaceCase(ident, {k: v for k, v in binding.items() if k != "s"},
                                   binding["s"])
                calls += [(closed_form, case, variant), (closed_form_direct, case, variant)]
    return calls


def _edge_calls() -> list:
    """The first real draw of every id with one symbol moved onto a
    degeneracy, a stated condition or a gamma pole: the refusals and the
    exact zeros."""
    calls = []
    cfg = SamplerConfig(seed=42)
    for identity in ALL_IDENTITY_IDS:
        kind, ident = parse_identity(identity)
        binding = sample_valid(identity, cfg, 1)[0]
        for sym in binding:
            for value in (1.0, 0.0, -1.0, -2.0, 0.5, 1.5):
                moved = {**binding, sym: complex(value)}
                if kind == "sum":
                    calls.append((rhs_closed_form, ident, moved))
                else:
                    case = LaplaceCase(ident, {k: v for k, v in moved.items() if k != "s"},
                                       moved["s"])
                    calls += [(closed_form, case), (closed_form_direct, case)]
    return calls


def _ratio(num, den):
    return gamma_ratio(GammaRatioSpec(num, den))


def _sampled_ratio_calls(complex_im: float) -> list:
    """The whole gamma product of each closed form, and its halves."""
    calls = []
    for kind, ident, binding in _bindings(complex_im):
        if kind == "sum":
            num, den = rhs_gamma_arguments(ident, binding)
        else:
            case = LaplaceCase(ident, {k: v for k, v in binding.items() if k != "s"},
                               binding["s"])
            num, den = case_gamma_arguments(case)
        calls += [(_ratio, num, den), (_ratio, num[::2], den[1::2]),
                  (_ratio, num[1::2], den[::2])]
    return calls


def _random_ratio_calls() -> list:
    """Seeded ratios on every path of gamma_ratio."""
    rng = np.random.default_rng(42)
    calls = [(_ratio, [], []), (_ratio, [0.5], []), (_ratio, [], [0.5]),
             (_ratio, [180.5, 175.25], [2.5]), (_ratio, [2.5], [180.5, 175.25]),
             (_ratio, [170.5 + 3j, 160.25], [1.5]), (_ratio, [1e-13], [2.0])]
    for _ in range(200):
        k, m = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        num = list(rng.uniform(-8.0, 12.0, k))
        den = list(rng.uniform(-8.0, 12.0, m))
        calls.append((_ratio, num, den))
        cnum = [complex(x, y) for x, y in zip(num, rng.uniform(-3.0, 3.0, k))]
        cden = [complex(x, y) for x, y in zip(den, rng.uniform(-3.0, 3.0, m))]
        calls.append((_ratio, cnum, cden))
        calls.append((_ratio, cnum, den))
        # a pole or a point within the pole tolerance of one, in either place
        pole = float(-rng.integers(0, 6)) + float(rng.choice([0.0, 5e-13, -5e-13, 2e-12]))
        calls += [(_ratio, num + [pole], den), (_ratio, num, den + [pole]),
                  (_ratio, num + [pole], den + [pole - 1.0]),
                  (_ratio, cnum + [complex(pole, 0.0)], cden)]
    return calls


_CALLS = {
    "closed_forms_real": lambda: _closed_form_calls(0.0),
    "closed_forms_complex": lambda: _closed_form_calls(0.3),
    "closed_form_edges": _edge_calls,
    "sampled_ratios_real": lambda: _sampled_ratio_calls(0.0),
    "sampled_ratios_complex": lambda: _sampled_ratio_calls(0.3),
    "random_ratios": _random_ratio_calls,
}
# frozen from the closed forms and gamma_ratio before their per-call setup was
# made cheaper: the same float operations on the same values, so every field
# is the same bit for bit
_FROZEN = {
    "closed_forms_real":
        "b3914d9b93107eb185c01d20cf53dce1e69b0c9520a2a119b215a1dae4623282",
    "closed_forms_complex":
        "4022f1ec7cbb8468e02e118b3a2c895bac879066a722a4657057891757b9a6f1",
    "closed_form_edges":
        "5a10c454599c6fba327f078693e843629643e1a7639cb363861c893986c2a83f",
    "sampled_ratios_real":
        "27645bab84255c488d5a21175d07a420e1a254dfaac376f11cb41e82ca68ed24",
    "sampled_ratios_complex":
        "ca5ff95164d1cddcfb0faef0b3e7cfb12124c5c8db4e58f5c5adca686c4c918e",
    "random_ratios":
        "399b234a8b88b0eccff2b37b7912fde63154526192d9942fa387921611d18140",
}


@pytest.mark.parametrize("group", list(_FROZEN))
def test_closed_forms_and_gamma_ratios_bit_for_bit(group):
    assert _digest(_CALLS[group]()) == _FROZEN[group]

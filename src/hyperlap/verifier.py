"""Parameter sampling under validity constraints, residual computation and
suite orchestration over the full identity catalog.

Twenty identities are certified: the seven extended summation theorems
(sum.*), six classical Laplace transforms and seven new Laplace
transforms (lap.*).  Each is hit with up to four independent oracles:

* series       -- closed form against direct/accelerated summation,
* quadrature   -- closed form against adaptive numerical integration,
* compositional-- compositional route against the verbatim transcription,
* specialization -- extended transform at the distinguished d against the
                  classical entry it must collapse to.

oracle_tolerances states which oracles apply to an identity and at what
default tolerance; the checks' guards, run_suite and ``hyperlap check`` all
read it.  The four checks share one signature, (identity_id, binding, tol,
dixon_variant), and one comparison step, reporting.compare, which turns an
exception into a failed report.

Samples are drawn in blocks, in the same stream order, from
per-(identity, oracle) child seeds, so results are reproducible bit for bit
regardless of how checks might be scheduled.  Each block is screened as
columns of bindings by the catalog's own rules, and its rows are accepted
in stream order.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import laplace, summation
from .errors import SamplerExhausted
from .laplace import (CLASSICAL_IDS, LaplaceCase, LaplaceId, NEW_IDS,
                      REQUIRED_LAPLACE_SYMBOLS, SUMMATION_OF, W_FACTOR, closed_form,
                      closed_form_direct, lhs_integrand, specialization_target)
from .quadrature import _SLOW_DECAY_MARGIN, laplace_numeric
from .reporting import (CheckReport, IdentityAggregate, Sides, compare, failed_report,
                        json_value, series_tolerance)
from .series import eval_series, parametric_excess
from .summation import (ARGUMENT, DixonVariant, REQUIRED_SYMBOLS, SummationId, lhs_spec,
                        rhs_closed_form)

__all__ = [
    "ALL_IDENTITY_IDS",
    "DEFAULT_TOLERANCES",
    "SamplerConfig",
    "SuiteResult",
    "oracle_tolerances",
    "parse_identity",
    "resolve_dixon_variant",
    "run_suite",
    "sample_valid",
]

SUM_PREFIX = "sum."
LAP_PREFIX = "lap."

ALL_IDENTITY_IDS: tuple[str, ...] = tuple(
    [SUM_PREFIX + sid.value for sid in SummationId]
    + [LAP_PREFIX + lid.value for lid in CLASSICAL_IDS]
    + [LAP_PREFIX + lid.value for lid in NEW_IDS]
)

DEFAULT_TOLERANCES: dict[str, float] = {
    "series": 1e-9,        # arguments 1/2 and -1
    "series_unit": 1e-6,   # unit-argument series
    "quadrature": 1e-5,
    "specialization": 1e-10,
    "compositional": 1e-13,
}

# the tolerance the quadrature oracle integrates to, two digits inside the
# check's own
QUADRATURE_ORACLE_TOL = 1e-7

# series excess margins: keep draws clear of the convergence boundary so
# the oracles stay fast and well conditioned; at z = 1 (s = w for a
# transform) the margin is the quadrature's, so every such draw is one it
# accepts
_ALT_EXCESS_MARGIN = -0.95
_POWER_MARGIN = 0.05  # Re of the t-power exponent

_DEFAULT_RANGES: dict[str, tuple[float, float]] = {
    "a": (0.3, 3.0), "b": (0.3, 3.0), "c": (0.3, 3.0),
    "e": (0.3, 3.0), "d": (0.3, 4.0), "s": (0.5, 4.0),
}


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 42
    ranges: dict = field(default_factory=lambda: dict(_DEFAULT_RANGES))
    pole_margin: float = 1e-3
    max_rejects: int = 10000
    # imaginary perturbation amplitude for the complex robustness mode
    complex_im: float = 0.0

    def __post_init__(self):
        for name in ("pole_margin", "complex_im"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be a finite number >= 0, got {value}")


@functools.lru_cache(maxsize=None)
def parse_identity(identity_id: str) -> tuple[str, object]:
    """'sum.kummerx' -> ('sum', SummationId.KUMMERX); same for 'lap.*'.

    Only checkable catalog entries are accepted: the bare transform-law
    ids (general, lap_*) name a rule, not an identity with a closed form.
    """
    try:
        if identity_id.startswith(SUM_PREFIX):
            return "sum", SummationId(identity_id[len(SUM_PREFIX):])
        if identity_id.startswith(LAP_PREFIX):
            lid = LaplaceId(identity_id[len(LAP_PREFIX):])
            if lid not in REQUIRED_LAPLACE_SYMBOLS:
                raise ValueError(
                    f"{identity_id} names the transform law, not a checkable identity")
            return "lap", lid
    except ValueError as exc:
        raise ValueError(f"unknown identity id {identity_id!r}: {exc}") from None
    raise ValueError(f"unknown identity id {identity_id!r} "
                     f"(expected sum.<name> or lap.<name>)")


def _child_rng(cfg: SamplerConfig, label: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{cfg.seed}:{label}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _first_block(n: int) -> int:
    """Rows in a sampler's first candidate block; each later block holds
    twice as many.  Rows past the n-th acceptance are thrown away and each
    child stream is private to its call, so the size changes no result."""
    return max(64, 2 * n)


def _symbols(kind: str, ident) -> tuple[str, ...]:
    """The drawn symbols in catalog order, then s for a transform."""
    return REQUIRED_SYMBOLS[ident] if kind == "sum" else REQUIRED_LAPLACE_SYMBOLS[ident] + ("s",)


def _impose_whipple(p: dict) -> None:
    """Whipple's hard linear constraints hold by construction: b and d are
    drawn, keeping the stream's order, and then overwritten."""
    p["b"] = 1 - p["a"]
    p["d"] = 1 + 2 * p["c"] - p["e"]


def _draw_block(rng: np.random.Generator, cfg: SamplerConfig, kind: str, ident,
                size: int) -> dict:
    """size candidates as columns (symbol -> complex array) from one
    rng.random call, read in the order of one-at-a-time rng.uniform draws:
    each symbol's real part, then its imaginary part in complex mode."""
    spans = []
    for sym in _symbols(kind, ident):
        spans.append((sym, *cfg.ranges[sym], False))
        if cfg.complex_im > 0.0 and sym != "s":
            spans.append((sym, -cfg.complex_im, cfg.complex_im, True))
    u = rng.random((size, len(spans)))
    cols: dict = {}
    for j, (sym, lo, hi, imag) in enumerate(spans):
        x = lo + (hi - lo) * u[:, j]  # rng.uniform(lo, hi), row by row
        if imag:
            cols[sym].imag = x
        else:
            cols[sym] = x.astype(complex)
    if ident is LaplaceId.WHIPPLE_L:
        _impose_whipple(cols)
    return cols


def _rejection_sample(kind: str, ident, cfg: SamplerConfig, label: str, n: int,
                      screen, keep=lambda binding: binding) -> list:
    """The first n non-None keep(binding) over the candidates that pass
    screen, in the order drawn from the child stream label; SamplerExhausted
    past cfg.max_rejects.  screen maps a block of candidates as columns to
    its row mask."""
    rng = _child_rng(cfg, label)
    out: list = []
    rejects = 0
    size = _first_block(n)
    while len(out) < n:
        cols = _draw_block(rng, cfg, kind, ident, size)
        mask = screen(cols).tolist()
        values = {sym: col.tolist() for sym, col in cols.items()}  # Python complex numbers
        for i, passed in enumerate(mask):
            if rejects > cfg.max_rejects:
                raise SamplerExhausted(f"{label}: {rejects} rejects for {len(out)}/{n} draws")
            item = keep({sym: col[i] for sym, col in values.items()}) if passed else None
            if item is None:
                rejects += 1
                continue
            out.append(item)
            if len(out) == n:
                break
        size *= 2
    return out


# The screens below map columns of bindings (symbol -> complex array) to a
# row mask, through the catalog's own statement of each rule.

def _excess_too_small(z: complex, excess):
    """True when a series at z = 1 or z = -1 sits inside the excess margin."""
    if abs(z - 1.0) <= 1e-14:
        return excess < _SLOW_DECAY_MARGIN
    if abs(z + 1.0) <= 1e-14:
        return excess < _ALT_EXCESS_MARGIN
    return False


def _summation_ok(sid: SummationId, p: dict, cfg: SamplerConfig):
    """summation.validity and the excess margin."""
    ok, excess = summation._screen_rows(sid, p, cfg.pole_margin)
    return ok & np.logical_not(_excess_too_small(ARGUMENT[sid], excess.real))


def _case_clear(lid: LaplaceId, p: dict, s, cfg: SamplerConfig):
    """The entry's stated conditions and exclusions hold, and every gamma
    argument of its closed form stays pole_margin clear of the poles."""
    return (summation._clauses_hold(laplace._case_clauses(lid, p, s))
            & summation._poles_clear(*laplace._case_gamma_arguments(lid, p),
                                     cfg.pole_margin))


def _laplace_ok(lid: LaplaceId, p: dict, s, cfg: SamplerConfig):
    """A new transform passes its sum's screen, which holds the transform's
    exclusions and, as the integrand's excess minus v is the sum's excess
    and W_FACTOR the sum's ARGUMENT, its excess margin; what is left is
    Re(s) > 0, the power margin and Gamma(v)'s pole margin.  A classical one
    passes _case_clear, the power margin and the excess margin."""
    power = laplace._power(lid, p)
    ok = np.logical_not(power.real < _POWER_MARGIN)
    if lid in SUMMATION_OF:
        return (ok & (s.real > 0.0) & _summation_ok(SUMMATION_OF[lid], p, cfg)
                & np.logical_not(summation._near_pole(power, cfg.pole_margin,
                                                      denominator=False)))
    # the transform's series route adds the power as a numerator parameter
    excess = parametric_excess(*laplace._integrand_parameters(lid, p)) - power
    return (ok & _case_clear(lid, p, s, cfg)
            & np.logical_not(_excess_too_small(W_FACTOR[lid], excess.real)))


def sample_valid(identity_id: str, cfg: SamplerConfig, n: int,
                 label_suffix: str = "") -> list[dict]:
    """n parameter bindings passing every validity screen, rejection-sampled
    deterministically from the per-identity child stream.

    Laplace bindings carry the drawn s under the key "s"."""
    kind, ident = parse_identity(identity_id)

    def screen(cols):
        if kind == "sum":
            return _summation_ok(ident, cols, cfg)
        return _laplace_ok(ident, *_split_laplace_binding(cols), cfg)
    return _rejection_sample(kind, ident, cfg, identity_id + label_suffix, n, screen)


def _split_laplace_binding(binding: dict) -> tuple[dict, complex]:
    """(params, s) of a binding, or of columns of them."""
    params = dict(binding)
    return params, params.pop("s")


def oracle_tolerances(kind: str, ident,
                      tolerances: dict = DEFAULT_TOLERANCES) -> dict[str, float]:
    """The oracles that apply to an identity, in the order run_suite runs
    them, each with its tolerance from tolerances: series to every identity
    (series_unit where its series sits at unit argument), quadrature to the
    transforms, and compositional and specialization to the seven new
    transforms, which compose a sum's closed form and collapse to a
    classical entry.  kind and ident as parse_identity gives them."""
    unit = (ARGUMENT[ident] if kind == "sum" else W_FACTOR[ident]) == 1.0
    oracles = {"series": tolerances["series_unit" if unit else "series"]}
    if kind == "lap":
        oracles["quadrature"] = tolerances["quadrature"]
        if ident in SUMMATION_OF:
            for oracle in ("compositional", "specialization"):
                oracles[oracle] = tolerances[oracle]
    return oracles


def _check_transform(oracle: str, identity_id: str, binding: dict, tol: float,
                     sides) -> CheckReport:
    """reporting.compare of sides(ident, params, s) for a transform; a
    failed report where the oracle does not apply to identity_id."""
    kind, ident = parse_identity(identity_id)
    if oracle not in oracle_tolerances(kind, ident):
        return failed_report(identity_id, binding, oracle,
                             f"the {oracle} oracle does not apply to {identity_id}")
    params, s = _split_laplace_binding(binding)
    return compare(identity_id, binding, oracle, tol, lambda: sides(ident, params, s))


def check_series(identity_id: str, binding: dict, tol: float,
                 dixon_variant: DixonVariant = DixonVariant.HALF_A_MINUS_B,
                 ) -> CheckReport:
    """Closed form against the series oracle, summed to
    reporting.series_tolerance(tol)."""
    kind, ident = parse_identity(identity_id)
    if kind == "sum":
        return summation.check(ident, binding, tol, dixon_variant=dixon_variant)

    def sides(ident, params, s):
        case = LaplaceCase(ident, params, s)
        lhs = laplace._case_series(case, series_tolerance(tol))
        return Sides(lhs, closed_form(case, dixon_variant).value)
    return _check_transform("series", identity_id, binding, tol, sides)


def check_quadrature(identity_id: str, binding: dict, tol: float,
                     dixon_variant: DixonVariant = DixonVariant.HALF_A_MINUS_B,
                     ) -> CheckReport:
    """Closed form against the numerical-integration oracle, run at
    QUADRATURE_ORACLE_TOL."""
    def sides(ident, params, s):
        case = LaplaceCase(ident, params, s)
        integ = lhs_integrand(case)
        lhs = laplace_numeric(integ.power, case.s, integ.w, integ.spec,
                              tol=QUADRATURE_ORACLE_TOL)
        return Sides(lhs.value, closed_form(case, dixon_variant).value,
                     f"nodes={lhs.nodes_used}")
    return _check_transform("quadrature", identity_id, binding, tol, sides)


def check_compositional(identity_id: str, binding: dict, tol: float,
                        dixon_variant: DixonVariant = DixonVariant.HALF_A_MINUS_B,
                        ) -> CheckReport:
    """Verbatim transcription against the compositional route."""
    def sides(ident, params, s):
        case = LaplaceCase(ident, params, s)
        return Sides(closed_form_direct(case, dixon_variant).value,
                     closed_form(case, dixon_variant).value)
    return _check_transform("compositional", identity_id, binding, tol, sides)


def check_specialization(identity_id: str, binding: dict, tol: float,
                         dixon_variant: DixonVariant = DixonVariant.HALF_A_MINUS_B,
                         ) -> CheckReport:
    """Extended transform, in the given Dixon reading, at its distinguished
    d against the classical entry.  The report carries the substituted d;
    a failed one, the binding as given."""
    def sides(ident, params, s):
        rule = specialization_target(ident)
        params = {**params, "d": rule.d_value(params)}
        reduced = closed_form(LaplaceCase(ident, params, s), dixon_variant)
        classical = closed_form(LaplaceCase(rule.classical_id,
                                            rule.classical_params(params), s))
        return Sides(reduced.value, classical.value, params={**params, "s": s})
    return _check_transform("specialization", identity_id, binding, tol, sides)


def _specialized_ok(lid: LaplaceId, p: dict, s, cfg: SamplerConfig):
    """A draw usable for the specialization check: clear for the extended
    entry at the substituted d AND for the classical target."""
    rule = specialization_target(lid)
    p = {**p, "d": rule.d_value(p)}
    return (np.logical_not(p["d"].real < _POWER_MARGIN) & _case_clear(lid, p, s, cfg)
            & _case_clear(rule.classical_id, rule.classical_params(p), s, cfg))


def sample_for_specialization(identity_id: str, cfg: SamplerConfig,
                              n: int) -> list[dict]:
    kind, ident = parse_identity(identity_id)

    def screen(cols):
        params, s = _split_laplace_binding(cols)
        return _laplace_ok(ident, params, s, cfg) & _specialized_ok(ident, params, s, cfg)
    return _rejection_sample(kind, ident, cfg, identity_id + ":specialization", n, screen)


def resolve_dixon_variant(cfg: SamplerConfig, n: int = 50,
                          ) -> tuple[str, list[dict]]:
    """Decide which printed reading of the dixonx second-term denominator
    agrees with the series oracle.

    Draws are restricted to bindings where the two candidate closed forms
    differ by at least 1% -- draws where they nearly coincide carry no
    discriminating power.  Verdict: the variant whose max residual stays
    under 1e-8 while the other variant's residual exceeds 1e-3 on every
    draw; anything else is inconclusive.
    """
    if n < 20:
        raise ValueError("variant resolution needs n >= 20 draws")
    sid = SummationId.DIXONX

    def evidence_row(binding):
        try:
            rhs_b = rhs_closed_form(sid, binding, DixonVariant.HALF_A_MINUS_B).value
            rhs_c2 = rhs_closed_form(sid, binding, DixonVariant.HALF_A_MINUS_C_TWICE).value
        except Exception:
            return None
        if abs(rhs_b - rhs_c2) < 1e-2 * max(abs(rhs_b), abs(rhs_c2)):
            return None
        lhs = eval_series(lhs_spec(sid, binding), tol=1e-11).value
        res_b = float(abs(lhs - rhs_b) / max(abs(rhs_b), 1e-300))
        res_c2 = float(abs(lhs - rhs_c2) / max(abs(rhs_c2), 1e-300))
        return {**binding, "residual_half_a_minus_b": res_b,
                "residual_half_a_minus_c_twice": res_c2}

    evidence = _rejection_sample("sum", sid, cfg, "sum.dixonx:variant", n,
                                 lambda cols: _summation_ok(sid, cols, cfg), evidence_row)
    max_b = max(r["residual_half_a_minus_b"] for r in evidence)
    min_b = min(r["residual_half_a_minus_b"] for r in evidence)
    max_c2 = max(r["residual_half_a_minus_c_twice"] for r in evidence)
    min_c2 = min(r["residual_half_a_minus_c_twice"] for r in evidence)
    if max_b < 1e-8 and min_c2 > 1e-3:
        verdict = DixonVariant.HALF_A_MINUS_B.value
    elif max_c2 < 1e-8 and min_b > 1e-3:
        verdict = DixonVariant.HALF_A_MINUS_C_TWICE.value
    else:
        verdict = "inconclusive"
    return verdict, evidence


@dataclass
class SuiteResult:
    per_identity: dict
    environment: dict
    dixon_variant_verdict: str
    dixon_evidence: list
    sampler_failures: dict
    reports: list

    @property
    def overall_pass(self) -> bool:
        if self.sampler_failures:
            return False
        return all(agg["n_passed"] == agg["n_checked"]
                   for agg in self.per_identity.values())

    def to_dict(self) -> dict:
        return {
            "schema_version": "1",
            "environment": self.environment,
            "per_identity": self.per_identity,
            "dixon_variant_verdict": self.dixon_variant_verdict,
            "dixon_evidence": [_evidence_to_dict(row) for row in self.dixon_evidence],
            "sampler_failures": self.sampler_failures,
            "overall_pass": self.overall_pass,
            "reports": [_report_to_dict(r) for r in self.reports],
        }


def _evidence_to_dict(row: dict) -> dict:
    return {key: json_value(row[key]) for key in sorted(row)}


def _report_to_dict(r: CheckReport) -> dict:
    out = {"identity_id": r.identity_id,
           "params": {key: json_value(complex(r.params[key])) for key in sorted(r.params)}}
    out.update({
        "lhs_re": r.lhs.real, "lhs_im": r.lhs.imag,
        "rhs_re": r.rhs.real, "rhs_im": r.rhs.imag,
        "abs_residual": r.abs_residual, "rel_residual": r.rel_residual,
        "oracle": r.oracle, "pass": r.passed, "diagnostics": r.diagnostics,
    })
    return out


# the oracles that check only the first draws of an identity's sample
_CHECK_CAPS = {"quadrature": 25, "compositional": 100}


def run_suite(ids: list[str] | None = None,
              cfg: SamplerConfig | None = None,
              n_per_id: int = 200,
              tolerances: dict | None = None,
              resolve_variant: bool | None = None,
              dixon_variant: DixonVariant = DixonVariant.HALF_A_MINUS_B,
              keep_reports: bool = True) -> SuiteResult:
    """Run every oracle over every requested identity.

    Deterministic for fixed (cfg, ids, n_per_id): sampling uses dedicated
    child streams per identity and oracle, so the subsets consumed by the
    capped oracles never shift the others.
    """
    if n_per_id < 0:
        raise ValueError(f"n_per_id must be >= 0, got {n_per_id}")
    ids = list(ids) if ids is not None else list(ALL_IDENTITY_IDS)
    cfg = cfg or SamplerConfig()
    tols = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tols.update(tolerances)

    per_identity: dict = {}
    sampler_failures: dict = {}
    all_reports: list[CheckReport] = []

    for identity_id in ids:
        kind, ident = parse_identity(identity_id)
        agg = IdentityAggregate(identity_id)
        reports: list[CheckReport] = []
        try:
            bindings = sample_valid(identity_id, cfg, n_per_id)
        except SamplerExhausted as exc:
            sampler_failures[identity_id] = str(exc)
            bindings = []
        for oracle, tol in oracle_tolerances(kind, ident, tols).items():
            draws = bindings[:_CHECK_CAPS.get(oracle)]
            if oracle == "specialization":  # it draws its own sample
                try:
                    draws = sample_for_specialization(identity_id, cfg, n_per_id)
                except SamplerExhausted as exc:
                    sampler_failures[identity_id + ":specialization"] = str(exc)
                    draws = []
            # looked up by name on each run, so a check wrapped after import
            # is the one called
            check = globals()[f"check_{oracle}"]
            reports.extend(check(identity_id, binding, tol, dixon_variant)
                           for binding in draws)
        for rep in reports:
            agg.add(rep)
        per_identity[identity_id] = {
            "n_checked": agg.n_checked,
            "n_passed": agg.n_passed,
            "max_residual": agg.max_residual,
            "median_residual": agg.median_residual,
        }
        all_reports.extend(reports)

    if resolve_variant is None:
        resolve_variant = "sum.dixonx" in ids
    if resolve_variant and n_per_id > 0:
        verdict, evidence = resolve_dixon_variant(cfg, n=max(20, min(50, n_per_id)))
    else:
        verdict, evidence = "not_run", []

    environment = {
        "seed": cfg.seed,
        "ranges": {k: list(v) for k, v in sorted(cfg.ranges.items())},
        "pole_margin": cfg.pole_margin,
        "complex_im": cfg.complex_im,
        "n_per_id": n_per_id,
        "tolerances": dict(sorted(tols.items())),
        "precision_mode": "float64+exact",
        "dixon_variant": dixon_variant.value,
    }
    return SuiteResult(per_identity, environment, verdict, evidence,
                       sampler_failures, all_reports if keep_reports else [])

"""The four workloads.  Each is a closed loop from one process: one caller,
one call at a time.  ``prepare`` makes the inputs from the seed outside
any timing; ``run_pass`` makes one timed pass over them.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import regimes
from tracer import CHECK_PROBES

DIXON_VERDICT = "half_a_minus_b"
# draws per identity, small enough that a pass lasts 1-3 s: a run then holds
# enough passes for its median to ride out the machine's slow spells.  The
# complex suite is cheaper per draw, so it takes more of them.
CERTIFY_N = 5
CERTIFY_COMPLEX_N = 10
SERIES_ORACLE_N = 50
DIXON_DRAWS = 50


@dataclass
class PassResult:
    wall_s: float
    latencies: list[float]          # seconds, one per operation
    attempted: int
    failures: list[str]             # one "<operation>: <reason>" per failed operation
    fingerprint: str                # identical on every pass of a run
    problems: list[str] = field(default_factory=list)  # broken run invariants
    extra: dict = field(default_factory=dict)  # per-layer values the trace cannot see


class Certify:
    """``hyperlap suite --all`` in process through ``cli.main``; an
    operation is one oracle check, timed by wrapping the four checks."""

    op_probes = CHECK_PROBES

    def __init__(self, n: int, complex_im: float = 0.0):
        self.n = n
        self.complex_im = complex_im

    def prepare(self, hl, seed: int, workdir: Path) -> None:
        self.cli = hl.cli
        self.out = workdir / "report.json"
        self.argv = ["suite", "--all", "--n", str(self.n), "--seed", str(seed),
                     "--out", str(self.out)]
        if self.complex_im:
            self.argv += ["--complex-im", str(self.complex_im)]

    def run_pass(self, tracer) -> PassResult:
        t0 = time.perf_counter()
        code = self.cli.main(self.argv)
        wall = time.perf_counter() - t0
        raw = self.out.read_bytes()
        doc = json.loads(raw)["results"][0]
        failures = [f"{r['identity_id']} {r['oracle']}: residual {r['rel_residual']:.3g}"
                    f" {r['diagnostics']}" for r in doc["reports"] if not r["pass"]]
        failures += [f"{k}: {v}" for k, v in doc["sampler_failures"].items()]
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if not doc["overall_pass"]:
            problems.append("overall_pass is false")
        if doc["dixon_variant_verdict"] != DIXON_VERDICT:
            problems.append(f"Dixon verdict {doc['dixon_variant_verdict']}")
        latencies = [d for p in CHECK_PROBES for d in tracer.durations(p.name)]
        attempted = len(doc["reports"]) + len(doc["sampler_failures"])
        return PassResult(wall, latencies, attempted, failures,
                          hashlib.sha256(raw).hexdigest(), problems,
                          {"cli.report.bytes": len(raw)})


class SeriesOracle:
    """sample_valid and check_series over all 20 identities, then
    resolve_dixon_variant; no quadrature.  An operation is one check."""

    op_probes = ()

    def prepare(self, hl, seed: int, workdir: Path) -> None:
        self.verifier = hl.verifier
        self.exhausted = hl.SamplerExhausted
        self.cfg = hl.verifier.SamplerConfig(seed=seed)
        self.tolerance = {}
        tols = hl.verifier.DEFAULT_TOLERANCES
        for identity in hl.verifier.ALL_IDENTITY_IDS:
            # unit-argument series get the looser tolerance, as in run_suite
            binding = hl.verifier.sample_valid(identity, self.cfg, 1)[0]
            kind, ident = hl.verifier.parse_identity(identity)
            if kind == "sum":
                z = hl.summation.lhs_spec(ident, binding).argument
            else:
                params = {k: v for k, v in binding.items() if k != "s"}
                case = hl.LaplaceCase(ident, params, binding["s"])
                z = hl.lhs_integrand(case).w / case.s
            self.tolerance[identity] = tols["series_unit" if z == 1.0 else "series"]

    def run_pass(self, tracer) -> PassResult:
        verifier = self.verifier
        latencies, digest, failures, problems = [], hashlib.sha256(), [], []
        attempted = 0
        t0 = time.perf_counter()
        for identity, tol in self.tolerance.items():
            try:
                bindings = verifier.sample_valid(identity, self.cfg, SERIES_ORACLE_N)
            except self.exhausted as exc:
                attempted += 1
                failures.append(f"{identity}: {exc}")
                digest.update(repr(exc).encode())
                continue
            for binding in bindings:
                c0 = time.perf_counter()
                report = verifier.check_series(identity, binding, tol)
                latencies.append(time.perf_counter() - c0)
                attempted += 1
                if not report.passed:
                    failures.append(f"{identity}: residual {report.rel_residual:.3g}"
                                    f" {report.diagnostics}")
                digest.update(repr((report.lhs, report.rhs, report.passed)).encode())
        verdict, _evidence = verifier.resolve_dixon_variant(self.cfg, n=DIXON_DRAWS)
        wall = time.perf_counter() - t0
        if verdict != DIXON_VERDICT:
            problems.append(f"Dixon verdict {verdict}")
        digest.update(verdict.encode())
        return PassResult(wall, latencies, attempted, failures, digest.hexdigest(), problems)


class EvalRegimes:
    """Direct library calls in every series regime, every quadrature tail
    and integrand path, and real and complex gamma ratios, each checked
    against an mpmath reference and against its own error estimate."""

    op_probes = ()

    def prepare(self, hl, seed: int, workdir: Path) -> None:
        import mpmath

        mpmath.mp.dps = 30
        self.cases = regimes.build_cases(hl, mpmath, seed)
        self.refs = [complex(case.reference()) for case in self.cases]

    def run_pass(self, tracer) -> PassResult:
        outcomes, latencies = [], []
        t0 = time.perf_counter()
        for case in self.cases:
            c0 = time.perf_counter()
            outcomes.append(regimes.run_case(case))
            latencies.append(time.perf_counter() - c0)
        wall = time.perf_counter() - t0
        failures = []
        coverage_max = {"series": 0.0, "quadrature": 0.0}
        problems = []
        for case, ref, outcome in zip(self.cases, self.refs, outcomes):
            reason = regimes.failure(outcome, ref)
            if reason:
                failures.append(f"{case.name}: {reason}")
            if not math.isfinite(abs(ref)):
                problems.append(f"{case.name}: no finite reference")
            cov = regimes.coverage(outcome, ref)
            if case.layer in coverage_max and math.isfinite(cov):
                coverage_max[case.layer] = max(coverage_max[case.layer], cov)
        fingerprint = hashlib.sha256(
            repr([o.key() for o in outcomes]).encode()).hexdigest()
        return PassResult(wall, latencies, len(outcomes), failures, fingerprint, problems,
                          {f"{layer}.coverage_max": v for layer, v in coverage_max.items()})


WORKLOADS = {
    "certify": lambda: Certify(CERTIFY_N),
    "certify-complex": lambda: Certify(CERTIFY_COMPLEX_N, complex_im=0.3),
    "series-oracle": SeriesOracle,
    "eval-regimes": EvalRegimes,
}

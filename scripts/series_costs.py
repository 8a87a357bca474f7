#!/usr/bin/env python3
"""Per-call cost of the scalar series sums, and a bit-for-bit comparison
with a second copy of the package.

Usage:
    PYTHONPATH=src python scripts/series_costs.py --seed 42
    PYTHONPATH=src python scripts/series_costs.py --seed 42 --base base/src
    PYTHONPATH=src python scripts/series_costs.py --pass eval-regimes --seed 7

Runs one pass of a benchmark workload with series.eval_series wrapped
from here (in every hyperlap module that imported it), keeping each
call's spec, tol and max_terms:

    series-oracle     sample_valid and check_series over the 20 ids at n
                      = 50 and resolve_dixon_variant at n = 50, the calls
                      of perfbench's series-oracle pass
    certify           run_suite over the 20 ids at n = 5, real parameters
    certify-complex   run_suite at n = 10 with complex_im = 0.3
    eval-regimes      the cases of perfbench/regimes.py (needs mpmath)

It then replays those calls --rounds times and prints, for each
result.method, the calls and the median over rounds of the microseconds
per call.  With --base DIR, DIR being another copy of src/, that copy is
loaded as the package hyperlap_base (its modules import each other
relatively) and the same calls run on it in the same rounds, each round
timing one side and then the other, the side that runs first
alternating.  The table then adds the base's time, the ratio head/base
and the number of calls whose results differ in any field: value,
tail_estimate and cancellation_ratio by float.hex, terms_used,
converged and method, or the type and message of a raised error.  It
reports differences and does not fail on them: a change may mean to move
the values.
"""

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import hyperlap

ROOT = Path(__file__).resolve().parent.parent
PASSES = ("series-oracle", "certify", "certify-complex", "eval-regimes")


def _load_base(src: Path):
    """The hyperlap package under src, imported as hyperlap_base."""
    init = src / "hyperlap" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        "hyperlap_base", init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules["hyperlap_base"] = package
    spec.loader.exec_module(package)
    return importlib.import_module("hyperlap_base.series")


def _run_pass(name: str, seed: int) -> None:
    verifier = hyperlap.verifier
    if name == "series-oracle":
        cfg = verifier.SamplerConfig(seed=seed)
        for identity in verifier.ALL_IDENTITY_IDS:
            tol = verifier.oracle_tolerances(*verifier.parse_identity(identity))["series"]
            for binding in verifier.sample_valid(identity, cfg, 50):
                verifier.check_series(identity, binding, tol)
        verifier.resolve_dixon_variant(cfg, n=50)
    elif name in ("certify", "certify-complex"):
        complex_im = 0.3 if name == "certify-complex" else 0.0
        verifier.run_suite(cfg=verifier.SamplerConfig(seed=seed, complex_im=complex_im),
                           n_per_id=10 if complex_im else 5)
    else:
        import mpmath

        sys.path.insert(0, str(ROOT / "perfbench"))
        import regimes

        mpmath.mp.dps = 30
        for case in regimes.build_cases(hyperlap, mpmath, seed):
            regimes.run_case(case)


def capture(name: str, seed: int) -> list[tuple]:
    """(spec, tol, max_terms) of every eval_series call of one pass."""
    original = hyperlap.series.eval_series
    calls = []

    def recorded(spec, tol=1e-12, max_terms=100_000):
        calls.append((spec, tol, max_terms))
        return original(spec, tol, max_terms)

    owners = [m for n, m in sorted(sys.modules.items())
              if (n == "hyperlap" or n.startswith("hyperlap."))
              and getattr(m, "eval_series", None) is original]
    for mod in owners:
        mod.eval_series = recorded
    try:
        _run_pass(name, seed)
    finally:
        for mod in owners:
            mod.eval_series = original
    return calls


def _outcome(series, spec, tol, max_terms):
    """The call's result, or its error as (type name, message)."""
    try:
        return series.eval_series(spec, tol, max_terms)
    except Exception as exc:  # noqa: BLE001 - a refusal is compared, not raised
        return type(exc).__name__, str(exc)


def fields(outcome) -> tuple:
    """Every field of a SeriesResult, floats as float.hex."""
    if isinstance(outcome, tuple):
        return outcome
    value = complex(outcome.value)
    return (value.real.hex(), value.imag.hex(), float(outcome.tail_estimate).hex(),
            float(outcome.cancellation_ratio).hex(), outcome.terms_used,
            outcome.converged, outcome.method)


def _method(outcome) -> str:
    return outcome[0] if isinstance(outcome, tuple) else outcome.method


def _time(series, calls, methods, seconds) -> None:
    """Add each call's time to seconds[its method]."""
    clock = time.perf_counter
    for (spec, tol, max_terms), method in zip(calls, methods):
        t0 = clock()
        try:
            series.eval_series(spec, tol, max_terms)
        except Exception:  # noqa: BLE001
            pass
        seconds[method] += clock() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--pass", dest="workload", choices=PASSES, default="series-oracle")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--rounds", type=int, default=7)
    ap.add_argument("--base", type=Path, default=None,
                    help="another copy of src/ to compare with, bit for bit and in time")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    calls = capture(args.workload, args.seed)
    head = hyperlap.series
    outcomes = [_outcome(head, *call) for call in calls]
    methods = [_method(o) for o in outcomes]
    sides = {"head": (head, calls)}
    differ = defaultdict(int)
    if args.base is not None:
        base = _load_base(args.base.resolve())
        base_calls = [(base.HyperSeriesSpec(s.numerator, s.denominator, s.argument), t, m)
                      for s, t, m in calls]
        for method, o, call in zip(methods, outcomes, base_calls):
            differ[method] += fields(o) != fields(_outcome(base, *call))
        sides["base"] = (base, base_calls)
    per_round = {side: [] for side in sides}
    for r in range(args.rounds):
        order = list(sides) if r % 2 == 0 else list(sides)[::-1]
        for side in order:
            seconds = defaultdict(float)
            _time(*sides[side], methods, seconds)
            per_round[side].append(seconds)
    counts = defaultdict(int)
    for method in methods:
        counts[method] += 1

    def per_call_us(side, method):
        return 1e6 * statistics.median(s[method] for s in per_round[side]) / counts[method]

    header = f"{'method':<20} {'calls':>6} {'head us':>9}"
    if args.base is not None:
        header += f" {'base us':>9} {'ratio':>7} {'differ':>7}"
    print(f"{args.workload} seed {args.seed}: {len(calls)} eval_series calls, "
          f"median of {args.rounds} rounds")
    print(header)
    for method in sorted(counts):
        line = f"{method:<20} {counts[method]:>6} {per_call_us('head', method):>9.1f}"
        if args.base is not None:
            ratio = per_call_us("head", method) / per_call_us("base", method)
            line += f" {per_call_us('base', method):>9.1f} {ratio:>7.3f} {differ[method]:>7}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

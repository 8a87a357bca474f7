#!/usr/bin/env python3
"""Per-call cost of the series and quadrature checks and of the calls they
are made of, and a bit-for-bit comparison with a second copy of the
package.

Usage:
    PYTHONPATH=src python scripts/series_costs.py --seed 42
    PYTHONPATH=src python scripts/series_costs.py --seed 42 --base base/src
    PYTHONPATH=src python scripts/series_costs.py --pass eval-regimes --seed 7

Runs one pass of a benchmark workload with these functions wrapped from
here (in every hyperlap module that imported them), keeping each call's
arguments:

    series.eval_series          the sums, one row per result.method
    verifier.check_series       a whole series check, its sum included
    summation.rhs_closed_form   the closed forms of the sums
    laplace.closed_form         the closed forms of the transforms
    laplace.closed_form_direct
    gammafn.gamma_ratio         every gamma ratio the above evaluate
    quadrature.laplace_numeric  the quadrature integrals
    verifier.check_quadrature   a whole quadrature check, its integral
                                and closed form included

The passes:

    series-oracle     sample_valid and check_series over the 20 ids at n
                      = 50 and resolve_dixon_variant at n = 50, the calls
                      of perfbench's series-oracle pass
    certify           run_suite over the 20 ids at n = 5, real parameters
    certify-complex   run_suite at n = 10 with complex_im = 0.3
    eval-regimes      the cases of perfbench/regimes.py (needs mpmath)

It then replays those calls --rounds times, the objects they take (a
series, a case, a ratio's arguments) made once beforehand, and prints for
each row the calls and the median over rounds of the microseconds per
call.  With --base DIR, DIR being another copy of src/, that copy is
loaded as the package hyperlap_base (its modules import each other
relatively) and the same calls run on it in the same rounds, each round
timing one side and then the other, the side that runs first
alternating.  The table then adds the base's time, the ratio head/base
and the number of calls whose results differ in any field: every float
by float.hex, every other field as it is, or the type and message of a
raised error.  It reports differences and does not fail on them: a change
may mean to move the values.
"""

import argparse
import functools
import importlib
import importlib.util
import inspect
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import hyperlap

ROOT = Path(__file__).resolve().parent.parent
PASSES = ("series-oracle", "certify", "certify-complex", "eval-regimes")
# (module, function) of each call kept; a check's own sum and closed form are
# kept too, as calls of their own
PROBES = (("series", "eval_series"), ("verifier", "check_series"),
          ("summation", "rhs_closed_form"), ("laplace", "closed_form"),
          ("laplace", "closed_form_direct"), ("gammafn", "gamma_ratio"),
          ("quadrature", "laplace_numeric"), ("verifier", "check_quadrature"))


def _load_base(src: Path):
    """The hyperlap package under src, imported as hyperlap_base."""
    init = src / "hyperlap" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        "hyperlap_base", init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules["hyperlap_base"] = package
    spec.loader.exec_module(package)
    for module, _ in PROBES:
        importlib.import_module(f"hyperlap_base.{module}")
    return package


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


def _portable(func: str, args: dict) -> tuple:
    """A call's arguments as plain values, which either package can take."""
    if func == "eval_series":
        spec = args["spec"]
        return spec.numerator, spec.denominator, spec.argument, args["tol"], args["max_terms"]
    if func in ("check_series", "check_quadrature"):
        return args["identity_id"], dict(args["binding"]), args["tol"], args["dixon_variant"].value
    if func == "laplace_numeric":
        spec = args["spec"]
        return (args["v"], args["s"], args["w"], spec.numerator, spec.denominator,
                spec.argument, args["tol"])
    if func == "rhs_closed_form":
        return args["id"].value, dict(args["params"]), args["dixon_variant"].value
    if func == "gamma_ratio":
        return args["spec"].numerator, args["spec"].denominator
    case = args["case"]  # closed_form, closed_form_direct
    return case.id.value, dict(case.params), case.s, args["dixon_variant"].value


def capture(name: str, seed: int) -> list[tuple[str, tuple]]:
    """(function, portable arguments) of every probed call of one pass, in
    the order made."""
    calls = []
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if n == "hyperlap" or n.startswith("hyperlap.")]
    patches = []
    for module, func in PROBES:
        original = getattr(getattr(hyperlap, module), func)
        signature = inspect.signature(original)

        def recorded(*args, _func=func, _original=original, _signature=signature, **kwargs):
            bound = _signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append((_func, _portable(_func, bound.arguments)))
            return _original(*args, **kwargs)

        for mod in namespaces:
            if getattr(mod, func, None) is original:
                patches.append((mod, func, original))
                setattr(mod, func, recorded)
    try:
        _run_pass(name, seed)
    finally:
        for mod, func, original in patches:
            setattr(mod, func, original)
    return calls


def _thunk(package, func: str, args: tuple):
    """The call on package, with its series, case or ratio made now."""
    series, summation, laplace, gammafn = (package.series, package.summation,
                                           package.laplace, package.gammafn)
    if func == "eval_series":
        num, den, z, tol, max_terms = args
        return functools.partial(series.eval_series, series.HyperSeriesSpec(num, den, z), tol,
                                 max_terms)
    if func in ("check_series", "check_quadrature"):
        identity_id, binding, tol, variant = args
        return functools.partial(getattr(package.verifier, func), identity_id, binding, tol,
                                 summation.DixonVariant(variant))
    if func == "laplace_numeric":
        v, s, w, num, den, z, tol = args
        return functools.partial(package.quadrature.laplace_numeric, v, s, w,
                                 series.HyperSeriesSpec(num, den, z), tol)
    if func == "rhs_closed_form":
        ident, params, variant = args
        return functools.partial(summation.rhs_closed_form, summation.SummationId(ident),
                                 params, summation.DixonVariant(variant))
    if func == "gamma_ratio":
        return functools.partial(gammafn.gamma_ratio, gammafn.GammaRatioSpec(*args))
    ident, params, s, variant = args
    case = laplace.LaplaceCase(laplace.LaplaceId(ident), params, s)
    return functools.partial(getattr(laplace, func), case, summation.DixonVariant(variant))


def _outcome(thunk):
    """The call's result, or its error as (type name, message)."""
    try:
        return thunk()
    except Exception as exc:  # noqa: BLE001 - a refusal is compared, not raised
        return type(exc).__name__, str(exc)


def _hex(x) -> str:
    z = complex(x)
    return f"{z.real.hex()},{z.imag.hex()}"


def fields(outcome) -> tuple:
    """Every field of a result, its floats as float.hex."""
    if isinstance(outcome, tuple):
        return outcome
    if hasattr(outcome, "method"):  # SeriesResult
        return (_hex(outcome.value), float(outcome.tail_estimate).hex(),
                float(outcome.cancellation_ratio).hex(), outcome.terms_used,
                outcome.converged, outcome.method)
    if hasattr(outcome, "rel_residual"):  # CheckReport
        return (outcome.identity_id, [(k, _hex(v)) for k, v in sorted(outcome.params.items())],
                _hex(outcome.lhs), _hex(outcome.rhs), float(outcome.abs_residual).hex(),
                float(outcome.rel_residual).hex(), outcome.oracle, outcome.passed,
                outcome.diagnostics)
    if hasattr(outcome, "tail_method"):  # IntegralResult
        return (_hex(outcome.value), float(outcome.abs_err_est).hex(), outcome.nodes_used,
                outcome.tail_method.value, _hex(outcome.tail_contribution))
    if hasattr(outcome, "prefactor"):  # ClosedFormBreakdown
        return tuple(_hex(getattr(outcome, name)) for name in
                     ("prefactor", "term1", "term2", "alpha", "beta", "value"))
    return (_hex(outcome),)


def _row(func: str, outcome) -> str:
    """The table row of a call: eval_series by its result's method."""
    if func != "eval_series":
        return func
    return outcome[0] if isinstance(outcome, tuple) else outcome.method


def _time(thunks, rows, seconds) -> None:
    """Add each call's time to seconds[its row]."""
    clock = time.perf_counter
    for thunk, row in zip(thunks, rows):
        t0 = clock()
        try:
            thunk()
        except Exception:  # noqa: BLE001
            pass
        seconds[row] += clock() - t0


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
    head = [_thunk(hyperlap, func, a) for func, a in calls]
    outcomes = [_outcome(thunk) for thunk in head]
    rows = [_row(func, o) for (func, _), o in zip(calls, outcomes)]
    sides = {"head": head}
    differ = defaultdict(int)
    if args.base is not None:
        base_package = _load_base(args.base.resolve())
        base = [_thunk(base_package, func, a) for func, a in calls]
        for row, o, thunk in zip(rows, outcomes, base):
            differ[row] += fields(o) != fields(_outcome(thunk))
        sides["base"] = base
    per_round = {side: [] for side in sides}
    for r in range(args.rounds):
        order = list(sides) if r % 2 == 0 else list(sides)[::-1]
        for side in order:
            seconds = defaultdict(float)
            _time(sides[side], rows, seconds)
            per_round[side].append(seconds)
    counts = defaultdict(int)
    for row in rows:
        counts[row] += 1

    def per_call_us(side, row):
        return 1e6 * statistics.median(s[row] for s in per_round[side]) / counts[row]

    header = f"{'call':<20} {'calls':>6} {'head us':>9}"
    if args.base is not None:
        header += f" {'base us':>9} {'ratio':>7} {'differ':>7}"
    print(f"{args.workload} seed {args.seed}: {len(calls)} calls, "
          f"median of {args.rounds} rounds")
    print(header)
    for row in sorted(counts):
        line = f"{row:<20} {counts[row]:>6} {per_call_us('head', row):>9.1f}"
        if args.base is not None:
            ratio = per_call_us("head", row) / per_call_us("base", row)
            line += f" {per_call_us('base', row):>9.1f} {ratio:>7.3f} {differ[row]:>7}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

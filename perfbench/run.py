"""hyperlap benchmark: one workload, one JSON result line.

    python3 perfbench/run.py --workload certify --seed 42 --seconds 25 --trace 0

Run from the root of a source checkout; hyperlap is imported from
``./src``.  With ``--trace 0`` the last line of standard output carries
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` its
per-layer metrics.  Failed operations are listed on standard error.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

# one BLAS / OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

from tracer import Tracer, percentile  # noqa: E402  (perfbench/ is sys.path[0])
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 2
# no pass starts if it would be expected to end later than this after start
DEADLINE_S = 150.0
SETUP_REPEATS = 5
# reference_loop_s() on the unloaded machine: a 2-vCPU Xeon VM at 2.0 GHz
# nominal.  Timings are reported at this speed.  The machine's speed swings
# by up to 1.9x for tens of seconds at a time (other tenants; no steal time
# shows), so each pass's time is scaled by the loop timed just before it.
REFERENCE_LOOP_S = 0.0045
SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import hyperlap; hyperlap.gamma(0.5)"


def import_hyperlap():
    """hyperlap from this checkout's src/, or None."""
    sys.path.insert(0, str(SRC))
    try:
        import hyperlap
        import hyperlap.cli  # noqa: F401  (not imported by the package itself)
    except ImportError as exc:
        print(f"cannot import hyperlap from {SRC}: {exc}", file=sys.stderr)
        return None
    if Path(hyperlap.__file__).resolve().parent.parent != SRC.resolve():
        print(f"hyperlap came from {hyperlap.__file__}, not {SRC}", file=sys.stderr)
        return None
    return hyperlap


def reference_loop_s() -> float:
    """Fastest of three runs of a fixed loop that mixes complex scalar
    arithmetic with 15-wide numpy steps, as hyperlap's kernels do.  It calls
    no hyperlap code, so no change to hyperlap can move it."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        z, acc = complex(0.3, 0.1), 0j
        for i in range(20000):
            z = z * 0.999 + 0.001j
            acc += z / (i + 1.0)
        a = np.linspace(0.0, 1.0, 15)
        for _ in range(300):
            a = np.exp(-a) * 0.5 + a * 0.25
        best = min(best, time.perf_counter() - t0)
    return best


def speed_factor() -> float:
    """How much faster the machine would be at reference speed, right now."""
    return REFERENCE_LOOP_S / reference_loop_s()


def setup_seconds() -> float:
    """Median time of a fresh interpreter importing hyperlap and making one
    trivial call, at reference speed; one untimed run first fills the
    bytecode cache."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        factor = speed_factor()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True)
        if i:
            times.append((time.perf_counter() - t0) * factor)
    return statistics.median(times)


@dataclass
class Pass:
    result: object      # workloads.PassResult
    tracer: Tracer
    factor: float       # speed_factor() just before the pass


def measure(workload, seconds: float, trace: bool, t_start: float):
    """Passes until ``seconds`` are used.  Untraced passes time only the
    workload's own operations; with ``trace`` every other pass is traced."""
    untraced, traced = [], []
    t0 = time.perf_counter()
    while True:
        for passes, full in ((untraced, False), (traced, True))[:1 + trace]:
            tracer = Tracer() if full else Tracer(workload.op_probes, count_dd=False)
            factor = speed_factor()
            with tracer:
                result = workload.run_pass(tracer)
            passes.append(Pass(result, tracer, factor))
        now = time.perf_counter()
        cycle = sum(statistics.median(p.result.wall_s for p in passes)
                    for passes in (untraced, traced) if passes)
        if (now - t_start + cycle > DEADLINE_S
                or (len(untraced) >= MIN_PASSES and now - t0 + cycle > seconds)):
            return untraced, traced


def end_to_end(untraced) -> dict:
    """Every pass repeats the same operations in the same order, so each
    operation is timed once per pass; each takes its median over the
    passes, at reference speed."""
    results = [p.result for p in untraced]
    factors = [p.factor for p in untraced]
    latencies = [statistics.median(x * f for x, f in zip(col, factors))
                 for col in zip(*(r.latencies for r in results))]
    return {
        "wall_s": statistics.median(r.wall_s * f for r, f in zip(results, factors)),
        "op_p50_ms": 1e3 * percentile(latencies, 50),
        "op_p99_ms": 1e3 * percentile(latencies, 99),
        "pass_frac": 1.0 - len(results[0].failures) / results[0].attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(untraced, traced) -> dict:
    """Median over traced passes of each per-layer value; times at
    reference speed."""
    rows = []
    for p in traced:
        row = p.tracer.aggregate()
        row.update(p.result.extra)
        row["trace.wall_s"] = p.result.wall_s
        row["trace.remainder_s"] = p.result.wall_s - row["trace.self_s"]
        rows.append({k: v * p.factor if k.endswith(("_s", "_ms")) else v
                     for k, v in row.items()})
    names = set().union(*rows)
    out = {name: statistics.median(row.get(name, 0.0) for row in rows) for name in names}
    out["trace.untraced_wall_s"] = statistics.median(p.result.wall_s * p.factor
                                                     for p in untraced)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


def main(argv=None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    hl = import_hyperlap()
    if hl is None:
        return 2

    workload = WORKLOADS[args.workload]()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as tmp:
        workload.prepare(hl, args.seed, Path(tmp))
        untraced, traced = measure(workload, args.seconds, bool(args.trace), t_start)

    results = [p.result for p in untraced + traced]
    problems = sorted({p for r in results for p in r.problems})
    if len({r.fingerprint for r in results}) > 1:
        problems.append("outputs differ between passes with the same seed")
    # every pass makes the same operations, so each is counted once: the
    # counts then depend on the seed only, not on how many passes fit
    first = results[0]
    if any((r.attempted, r.failures) != (first.attempted, first.failures)
           for r in results[1:]):
        problems.append("failed operations differ between passes with the same seed")
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    for line in first.failures:
        print(f"failed operation: {line}", file=sys.stderr)

    if args.trace:
        values = per_layer(untraced, traced)
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans.unlink(missing_ok=True)
        for i, p in enumerate(traced):
            p.tracer.write_spans(spans, i)
        metrics = spec["per_layer"]
    else:
        values = end_to_end(untraced)
        values["setup_s"] = setup_seconds()
        metrics = spec["end_to_end"]
    print(json.dumps({
        "correct": not problems,
        "attempted": first.attempted,
        "failed": len(first.failures),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

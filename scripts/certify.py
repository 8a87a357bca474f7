#!/usr/bin/env python3
"""Full certification run: every identity, every oracle, one JSON report.

Usage:
    python scripts/certify.py                       # n=200, seed 42
    python scripts/certify.py --n 50 --seed 7
    python scripts/certify.py --out report.json
"""

import argparse
import json
import sys
import time

from hyperlap.verifier import SamplerConfig, run_suite


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out", default="certification_report.json")
    args = ap.parse_args(argv)

    t0 = time.monotonic()
    result = run_suite(cfg=SamplerConfig(seed=args.seed), n_per_id=args.n)
    dt = time.monotonic() - t0

    print(f"{'identity':<15} {'checked':>8} {'passed':>8} {'max residual':>14} "
          f"{'median':>10}")
    for key, agg in result.per_identity.items():
        status = "" if agg["n_passed"] == agg["n_checked"] else "   << FAIL"
        print(f"{key:<15} {agg['n_checked']:>8} {agg['n_passed']:>8} "
              f"{agg['max_residual']:>14.3e} {agg['median_residual']:>10.1e}{status}")
    print(f"\ndixon denominator verdict: {result.dixon_variant_verdict}")
    if result.sampler_failures:
        print(f"sampler failures: {result.sampler_failures}")
    print(f"overall: {'PASS' if result.overall_pass else 'FAIL'}  ({dt:.1f}s)")

    with open(args.out, "w", encoding="utf-8") as fh:
        # one compact line, as the CLI writes it: with no indent the C encoder runs
        fh.write(json.dumps(result.to_dict()) + "\n")
    print(f"report written to {args.out}")
    return 0 if result.overall_pass else 3


if __name__ == "__main__":
    sys.exit(main())

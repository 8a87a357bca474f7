#!/usr/bin/env python3
"""Coverage sweep of the series oracle against mpmath.

Usage:
    PYTHONPATH=src python scripts/series_sweep.py --seed 7 --n 40

Draws N series in each of five families and sums each with
series.eval_series at tol 1e-12 and max_terms 100000, the defaults of
`hyperlap eval pfq`:

    neg_real      pFq, p = q in 1..3, real parameters (numerator in
                  (0.2, 3), denominator in (0.3, 3.5), the ranges of
                  quad_sweep.py) at z in (-60, -5): the terms cancel
    neg_complex   the same with imaginary parts up to 0.4, and z up to
                  3i off the negative axis
    terminating   pFq(-m, a...; b...; z), m in 5..40 and q = p - 1 or p,
                  at z in (0.5, 30) for p = q and (0.5, 3) otherwise: the
                  signs alternate, and the polynomial cancels
    unit_circle   2F1(a, b; c; e^(i theta)), theta log-uniform in
                  (1e-4, 1), excess c - a - b in (0.05, 2), near z = 1
    near_pole     1F1 or 2F1 with a denominator parameter within
                  (1e-6, 1e-2) of -k, k in 0..5, at z in (-5, 5) for 1F1
                  and (-0.9, 0.9) for 2F1

The reference is mpmath at 40 digits (hyp2f1 on the unit circle).  A
draw is under-covered when its error exceeds its tail_estimate; a result
with converged=False, or a typed refusal (OverflowError,
DivergentSeriesError, ValidityError), is counted as refused, not failed,
as `eval pfq` exits 3 on it.  Prints, per family, the draws, refusals,
under-covered draws, the worst and median error/estimate, the median
terms and the methods taken; exits 1 on any under-covered draw.
"""

import argparse
import collections
import math
import sys

import mpmath as mp
import numpy as np

from hyperlap.errors import DivergentSeriesError, ValidityError
from hyperlap.series import HyperSeriesSpec, eval_series

FAMILIES = ("neg_real", "neg_complex", "terminating", "unit_circle", "near_pole")


def _params(rng, k: int, lo: float, hi: float, im: float = 0.0) -> list[complex]:
    return [complex(rng.uniform(lo, hi), rng.uniform(-im, im) if im else 0.0) for _ in range(k)]


def _draw(rng, family: str):
    """(numerator, denominator, z) of one series."""
    if family in ("neg_real", "neg_complex"):
        im = 0.4 if family == "neg_complex" else 0.0
        p = int(rng.integers(1, 4))
        z = complex(-rng.uniform(5.0, 60.0), rng.uniform(-3.0, 3.0) if im else 0.0)
        return _params(rng, p, 0.2, 3.0, im), _params(rng, p, 0.3, 3.5, im), z
    if family == "terminating":
        q = int(rng.integers(1, 3))
        p = q + int(rng.integers(0, 2))
        num = [complex(-int(rng.integers(5, 41)))] + _params(rng, p - 1, 0.2, 3.0)
        return num, _params(rng, q, 0.3, 3.5), complex(rng.uniform(0.5, 30.0 if p == q else 3.0))
    if family == "unit_circle":
        a, b = _params(rng, 2, 0.2, 3.0)
        c = a + b + rng.uniform(0.05, 2.0)
        return [a, b], [c], complex(np.exp(1j * 10.0 ** rng.uniform(-4.0, 0.0)))
    # near_pole
    k, side = int(rng.integers(0, 6)), rng.choice([-1.0, 1.0])
    pole = complex(-k + side * 10.0 ** rng.uniform(-6.0, -2.0))
    if rng.integers(0, 2):
        return _params(rng, 1, 0.2, 3.0), [pole], complex(rng.uniform(-5.0, 5.0))
    return _params(rng, 2, 0.2, 3.0), [pole], complex(rng.uniform(-0.9, 0.9))


def _reference(num, den, z):
    z = mp.mpc(z)
    num, den = [mp.mpc(a) for a in num], [mp.mpc(b) for b in den]
    if abs(abs(z) - 1) < 1e-12 and len(num) == 2 and len(den) == 1:
        return mp.hyp2f1(num[0], num[1], den[0], z)
    return mp.hyper(num, den, z)


def sweep(family: str, n: int, rng) -> dict:
    ratios, terms = [], []
    methods = collections.Counter()
    refused = under = 0
    for _ in range(n):
        num, den, z = _draw(rng, family)
        try:
            res = eval_series(HyperSeriesSpec(num, den, z))
        except (ValidityError, DivergentSeriesError, OverflowError):
            refused += 1
            continue
        methods[res.method] += 1
        if not res.converged:
            refused += 1
            continue
        err = float(abs(mp.mpc(res.value) - _reference(num, den, z)))
        ratio = err / res.tail_estimate if res.tail_estimate else (0.0 if err == 0.0 else math.inf)
        under += ratio > 1.0
        ratios.append(ratio)
        terms.append(res.terms_used)
    return {"draws": n, "refused": refused, "under": under,
            "worst": max(ratios, default=float("nan")),
            "median": float(np.median(ratios)) if ratios else float("nan"),
            "terms": float(np.median(terms)) if terms else float("nan"),
            "methods": ", ".join(f"{m} {c}" for m, c in sorted(methods.items()))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--n", type=int, default=40, help="draws per family")
    args = ap.parse_args(argv)
    mp.mp.dps = 40
    rng = np.random.default_rng(args.seed)
    print(f"{'family':<12} {'draws':>6} {'refused':>8} {'under':>6} "
          f"{'worst err/est':>14} {'median err/est':>15} {'median terms':>13}  methods")
    under = 0
    for family in FAMILIES:
        r = sweep(family, args.n, rng)
        under += r["under"]
        print(f"{family:<12} {r['draws']:>6} {r['refused']:>8} {r['under']:>6} "
              f"{r['worst']:>14.3g} {r['median']:>15.3g} {r['terms']:>13.0f}  {r['methods']}")
    return 1 if under else 0


if __name__ == "__main__":
    sys.exit(main())

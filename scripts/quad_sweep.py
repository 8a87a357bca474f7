#!/usr/bin/env python3
"""Coverage sweep of the quadrature oracle against mpmath.

Usage:
    PYTHONPATH=src python scripts/quad_sweep.py --seed 7 --n 40

Draws N integrals integral_0^inf e^(-st) t^(v-1) pFq(wt) dt in each of
three families, half of them with complex parameters, at tol 1e-5, 1e-7
and 1e-9 in turn, and evaluates each with quadrature.laplace_numeric:

    exp_decay     0 < Re(w/s) < 1: pFq with p = q in 1..3, or p = q - 1
                  (then w/s up to 3); Re v up to 6, so h often rises first
    alternating   Re(w/s) < 0: w/s in (-3, -0.2), p = q in 1..2 or
                  p = q - 1
    power_law     s = w: 1F1(a; c), with c - a - v in (0.05, 3)

The reference is Gamma(v) s^(-v) p+1Fq(v, a; b; w/s) by mpmath at 30
digits; at s = w it is Gauss's sum Gamma(v) s^(-v) Gamma(c) Gamma(c-a-v)
/ (Gamma(c-a) Gamma(c-v)).  A draw is under-covered when its error
exceeds its abs_err_est; a typed refusal (ValidityError, SlowDecayError,
OverflowError) is counted, not failed.  Prints, per family, the draws,
refusals, under-covered draws, the worst and median error/estimate, the
median nodes and the nodes summed again exactly (series._resum_exact,
counted by wrapping it from here); exits 1 on any under-covered draw.
"""

import argparse
import sys

import mpmath as mp
import numpy as np

from hyperlap import series
from hyperlap.errors import SlowDecayError, ValidityError
from hyperlap.quadrature import laplace_numeric
from hyperlap.series import HyperSeriesSpec

_TOLS = (1e-5, 1e-7, 1e-9)
_EXACT_NODES = [0]


def _counted_resum_exact(kernel):
    """series._resum_exact, adding the nodes it is given to _EXACT_NODES."""
    def counted(ratios, z, values, charge, nodes, *args):
        _EXACT_NODES[0] += len(nodes)
        return kernel(ratios, z, values, charge, nodes, *args)
    return counted


def _param(rng, lo: float, hi: float, cplx: bool) -> complex:
    return complex(rng.uniform(lo, hi), rng.uniform(-0.4, 0.4) if cplx else 0.0)


def _draw(rng, family: str, cplx: bool):
    """(v, s, w, numerator, denominator) of one integral."""
    s = rng.uniform(0.5, 3.0)
    v = _param(rng, 0.2, 6.0, cplx)
    if family == "power_law":
        a = _param(rng, 0.2, 3.0, cplx)
        c = a + v + _param(rng, 0.05, 3.0, cplx)
        return v, s, complex(s), [a], [c]
    q = int(rng.integers(1, 4 if family == "exp_decay" else 3))
    p = q - int(rng.integers(0, 2))
    num = [_param(rng, 0.2, 3.0, cplx) for _ in range(p)]
    den = [_param(rng, 0.3, 3.5, cplx) for _ in range(q)]
    if family == "exp_decay":
        ratio = rng.uniform(0.05, 0.9 if p == q else 3.0)
    else:
        ratio = rng.uniform(-3.0, -0.2)
    ratio = complex(ratio, rng.uniform(-0.2, 0.2) if cplx else 0.0)
    return v, s, ratio * s, num, den


def _reference(v, s, w, num, den) -> complex:
    v, s, w = mp.mpc(v), mp.mpf(s), mp.mpc(w)
    front = mp.gamma(v) * mp.power(s, -v)
    if w == s:
        a, c = mp.mpc(num[0]), mp.mpc(den[0])
        return complex(front * mp.gamma(c) * mp.gamma(c - a - v)
                       / (mp.gamma(c - a) * mp.gamma(c - v)))
    return complex(front * mp.hyper([v] + [mp.mpc(a) for a in num],
                                    [mp.mpc(b) for b in den], w / s))


def sweep(family: str, n: int, rng) -> dict:
    ratios, nodes = [], []
    refused = under = 0
    exact_before = _EXACT_NODES[0]
    for i in range(n):
        v, s, w, num, den = _draw(rng, family, cplx=i % 2 == 1)
        tol = _TOLS[i % len(_TOLS)]
        try:
            res = laplace_numeric(v, s, w, HyperSeriesSpec(num, den, 1.0), tol=tol)
        except (ValidityError, SlowDecayError, OverflowError):
            refused += 1
            continue
        ratio = abs(res.value - _reference(v, s, w, num, den)) / res.abs_err_est
        under += ratio > 1.0
        ratios.append(ratio)
        nodes.append(res.nodes_used)
    return {"draws": n, "refused": refused, "under": under,
            "worst": max(ratios, default=float("nan")),
            "median": float(np.median(ratios)) if ratios else float("nan"),
            "nodes": float(np.median(nodes)) if nodes else float("nan"),
            "exact": _EXACT_NODES[0] - exact_before}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--n", type=int, default=40, help="draws per family")
    args = ap.parse_args(argv)
    mp.mp.dps = 30
    series._resum_exact = _counted_resum_exact(series._resum_exact)
    rng = np.random.default_rng(args.seed)
    print(f"{'family':<12} {'draws':>6} {'refused':>8} {'under':>6} "
          f"{'worst err/est':>14} {'median err/est':>15} {'median nodes':>13} "
          f"{'exact nodes':>12}")
    under = 0
    for family in ("exp_decay", "alternating", "power_law"):
        r = sweep(family, args.n, rng)
        under += r["under"]
        print(f"{family:<12} {r['draws']:>6} {r['refused']:>8} {r['under']:>6} "
              f"{r['worst']:>14.3g} {r['median']:>15.3g} {r['nodes']:>13.0f} "
              f"{r['exact']:>12}")
    return 1 if under else 0


if __name__ == "__main__":
    sys.exit(main())

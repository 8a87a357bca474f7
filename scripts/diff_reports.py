#!/usr/bin/env python3
"""Compare two suite reports row by row.

Usage:
    python scripts/diff_reports.py A.json B.json

Both files are JSON reports of `hyperlap suite` (rows in the same order,
as a fixed seed gives them).  Prints the row count, the number of changed
rows per (identity, oracle), the largest change in abs_residual and in
rel_residual, and every pass flip, with the suites' overall_pass and
Dixon verdicts.  Exits 1 when the row counts differ or a row or a
suite's overall_pass flips, else 0.
"""

import argparse
import json
import sys
from collections import Counter


def load(path: str) -> tuple[list[dict], list[dict]]:
    """The suite results of a report and all their rows, in order."""
    with open(path, encoding="utf-8") as fh:
        results = json.load(fh)["results"]
    return results, [row for result in results for row in result["reports"]]


def _largest_change(pairs, field: str) -> tuple[float, int | None]:
    best, where = 0.0, None
    for i, (a, b) in enumerate(pairs):
        change = abs(b[field] - a[field])
        if change > best:
            best, where = change, i
    return best, where


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("a", help="the report before")
    ap.add_argument("b", help="the report after")
    args = ap.parse_args(argv)
    results_a, rows_a = load(args.a)
    results_b, rows_b = load(args.b)

    print(f"rows: {len(rows_a)} -> {len(rows_b)}")
    if len(rows_a) != len(rows_b):
        print("row counts differ; rows not compared")
        return 1
    pairs = list(zip(rows_a, rows_b))
    changed = Counter((a["identity_id"], a["oracle"]) for a, b in pairs if a != b)
    print(f"changed rows: {sum(changed.values())}")
    for (ident, oracle), count in sorted(changed.items()):
        print(f"  {ident:<16} {oracle:<16} {count}")
    for field in ("abs_residual", "rel_residual"):
        change, i = _largest_change(pairs, field)
        where = "" if i is None else \
            f" (row {i}, {rows_a[i]['identity_id']} {rows_a[i]['oracle']})"
        print(f"largest {field} change: {change:.3g}{where}")

    flips = [i for i, (a, b) in enumerate(pairs) if a["pass"] != b["pass"]]
    for i in flips:
        a = rows_a[i]
        print(f"pass flip: row {i}, {a['identity_id']} {a['oracle']}: "
              f"{a['pass']} -> {rows_b[i]['pass']}")
    if not flips:
        print("pass flips: none")
    overall_flip = False
    for ra, rb in zip(results_a, results_b):
        overall_flip |= ra["overall_pass"] != rb["overall_pass"]
        print(f"overall_pass: {ra['overall_pass']} -> {rb['overall_pass']}; "
              f"dixon verdict: {ra['dixon_variant_verdict']} -> "
              f"{rb['dixon_variant_verdict']}")
    return 1 if flips or overall_flip else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two BENCH_*.json trajectory files row by row.

Each file is JSONL as written by the benches under BNLOC_BENCH_JSON: one
line per bench run — `{"bench": ..., "version": ..., sizing..., "rows":
[...]}` — where every row carries the aggregate statistics plus an optional
"context" tag naming the sweep point. Rows are matched across the two files
by the (bench, context, algo) triple; when a file holds several runs of the
same bench (appended over time), the *last* run wins.

Accuracy and protocol metrics (error statistics, coverage, messages, bytes,
iterations) are gated: a relative drift beyond --rel-tol (default 0, i.e.
exact — the repo's determinism contract says reruns of the same code
reproduce them bit-for-bit) fails the diff, whichever way it goes. Timing
columns (seconds, wall_seconds) are noisy by nature, so they are only gated
when --time-tol is given, and then one-sided: the slowdown current/baseline
- 1 must not exceed it (--time-tol 3.0 fails a row past 4x slower), and a
speedup never fails. A baseline row the current file lacks fails the diff
too: a bench that stops emitting rows must not pass for an unchanged one.

Usage:
  bench_diff.py BASELINE.json CURRENT.json [--rel-tol X] [--time-tol X]
      [--bench ID]

Exit status 0 when no gated metric drifts and no baseline row is missing;
1 otherwise.
"""

import argparse
import json
import sys

GATED = ["mean", "median", "rmse", "q90", "penalized_mean", "coverage",
         "msgs_per_node", "bytes_per_node", "iterations"]
TIMING = ["seconds", "wall_seconds"]


def load_rows(path, bench_filter):
    """{(bench, context, algo): row} — last occurrence wins."""
    rows = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                run = json.loads(line)
            except json.JSONDecodeError as e:
                sys.exit(f"bench_diff: {path}:{lineno}: {e}")
            bench = run.get("bench", "?")
            if bench_filter and bench != bench_filter:
                continue
            for row in run.get("rows", []):
                key = (bench, row.get("context", ""), row.get("algo", "?"))
                rows[key] = row
    return rows


def rel_drift(base, cur):
    if base == cur:
        return 0.0
    denom = max(abs(base), abs(cur), 1e-300)
    return abs(cur - base) / denom


def slowdown(base, cur):
    """cur / base - 1: how much slower the current timing is; <= 0 when it
    is no slower. A zero baseline is slowed down without bound by any
    positive time."""
    if cur <= base:
        return 0.0
    if base <= 0.0:
        return float("inf")
    return cur / base - 1.0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--rel-tol", type=float, default=0.0,
                        help="gated-metric relative tolerance (default 0)")
    parser.add_argument("--time-tol", type=float, default=None,
                        help="also gate timing columns at this tolerance")
    parser.add_argument("--bench", default=None,
                        help="restrict the diff to one bench id")
    args = parser.parse_args()

    base = load_rows(args.baseline, args.bench)
    cur = load_rows(args.current, args.bench)
    if not base:
        sys.exit(f"bench_diff: no rows in {args.baseline}")
    if not cur:
        sys.exit(f"bench_diff: no rows in {args.current}")

    shared = sorted(set(base) & set(cur))
    only_base = sorted(set(base) - set(cur))
    only_cur = sorted(set(cur) - set(base))
    if not shared:
        sys.exit("bench_diff: no (bench, context, algo) keys in common")

    violations = 0
    header = f"{'bench':8} {'context':28} {'algo':14} {'metric':16} " \
             f"{'baseline':>14} {'current':>14} {'drift':>9}"
    printed_header = False
    for key in shared:
        b, c = base[key], cur[key]
        checks = [(m, args.rel_tol, rel_drift) for m in GATED]
        if args.time_tol is not None:
            checks += [(m, args.time_tol, slowdown) for m in TIMING]
        for metric, tol, measure in checks:
            if metric not in b or metric not in c:
                continue
            drift = measure(float(b[metric]), float(c[metric]))
            if drift <= tol:
                continue
            if not printed_header:
                print(header)
                printed_header = True
            bench, context, algo = key
            print(f"{bench:8} {context:28} {algo:14} {metric:16} "
                  f"{float(b[metric]):14.6g} {float(c[metric]):14.6g} "
                  f"{drift * 100:8.2f}%")
            violations += 1

    for key in only_base:
        print(f"bench_diff: FAIL: {key} missing from current")
    for key in only_cur:
        print(f"bench_diff: note: {key} only in current")
    print(f"bench_diff: {len(shared)} matched rows, "
          f"{violations} drifting metrics, {len(only_base)} missing rows"
          + (f", rel-tol {args.rel_tol}" if args.rel_tol else ", exact"))
    if violations or only_base:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

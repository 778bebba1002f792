#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs.

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR [--benchmark FILE]

Each directory holds files written by `run.py --json`. Metric names,
directions and bounds come from BENCHMARK.json. Runs pair up in file-name
order, so name the files of the two sides alike and run the sides
alternately. One row per (workload, metric), with a verdict:

  gain          at least 10 pairs, the change wins at least 9 in 10 of them
                (ties count for neither side), and the medians differ by more
                than the parent's interquartile range (IQR);
  REGRESSION    the change's median is worse than the parent's by more than
                the metric's bound;
  unresolved    a side's IQR, as a share of its median, exceeds the bound,
                unless every change run beats every parent run;
  identical     a deterministic metric that matches exactly;
  changed       a deterministic metric that differs, within its bound;
  same          none of the above.

Deterministic metrics (accuracy, radio cost and the result digest) come
from a reference set that does not depend on the seed, so every run of one
side must give the same value, or the row reads NONDETERMINISTIC; the
change's value is then held to the bound against the parent's. Per-layer
metrics of traced runs are listed with the verdict "info". Exit status 1 on
any REGRESSION or NONDETERMINISTIC row.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DETERMINISTIC = {"error_mean_r", "error_p90_r", "msgs_per_node",
                 "kb_per_node", "result_digest"}
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory):
    """{(trace, workload): [{name: value} per run]}, in file order."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            data = json.load(f)
        for workload, entry in data["workloads"].items():
            metrics = {k: m["value"]
                       for k, m in entry["result"]["metrics"].items()}
            if entry.get("detail"):
                metrics["result_digest"] = entry["detail"]["result_digest"]
            runs.setdefault((data["trace"], workload), []).append(metrics)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(spec, parent, change):
    name = spec["name"]
    a = [r[name] for r in parent]
    b = [r[name] for r in change]
    if name in DETERMINISTIC:
        if len(set(a)) > 1 or len(set(b)) > 1:
            return "NONDETERMINISTIC", None
        if a[0] == b[0]:
            return "identical", 0.0
        if name == "result_digest":
            return "changed", None
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    sign = 1.0 if spec["better"] == "lower" else -1.0
    worse = sign * (bm - am) / abs(am) if am else 0.0
    if "bound" not in spec:
        return "info", worse
    bound = spec["bound"]
    if worse > bound:
        return "REGRESSION", worse
    if name in DETERMINISTIC:
        # Exact values: any difference is real, so the gain and unresolved
        # rules, which are about noise, do not apply.
        return "changed", worse
    better = (lambda x, y: x < y) if sign > 0 else (lambda x, y: x > y)
    all_better = all(better(y, x) for x in a for y in b)
    spread = max((a3 - a1) / abs(am) if am else 0.0,
                 (b3 - b1) / abs(bm) if bm else 0.0)
    if spread > bound and not all_better:
        return "unresolved", worse
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if better(y, x))
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and
            abs(bm - am) > a3 - a1 and worse < 0):
        return "gain", worse
    return "same", worse


def fmt(values):
    if isinstance(values[0], str):
        return values[0] if len(set(values)) == 1 else "(varies)"
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.4g}, {q3:.4g}]"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--benchmark",
                   default=os.path.join(HERE, "..", "..", "BENCHMARK.json"))
    args = p.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    specs = {0: bench["end_to_end"] +
                [{"name": "result_digest", "unit": "hex", "better": "lower"}],
             1: bench["per_layer"]}
    parent = load_runs(args.parent)
    change = load_runs(args.change)

    header = ("workload", "metric", "unit", "parent median [q1, q3]",
              "change median [q1, q3]", "worse", "bound", "verdict")
    rows = []
    failed = False
    for key in sorted(parent.keys() & change.keys()):
        trace, workload = key
        for spec in specs[trace]:
            name = spec["name"]
            if not all(name in r for r in parent[key] + change[key]):
                continue
            result, worse = verdict(spec, parent[key], change[key])
            failed |= result in ("REGRESSION", "NONDETERMINISTIC")
            rows.append((workload, name, spec["unit"],
                         fmt([r[name] for r in parent[key]]),
                         fmt([r[name] for r in change[key]]),
                         "" if worse is None else f"{worse:+.2%}",
                         f"{spec['bound']:.0%}" if "bound" in spec else "",
                         result))
    if not rows:
        print("compare.py: no workload appears in both directories",
              file=sys.stderr)
        return 1
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

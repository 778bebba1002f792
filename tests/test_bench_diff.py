#!/usr/bin/env python3
"""Gates of scripts/bench_diff.py, on hand-made BENCH_*.json pairs.

The perf-regression job diffs the fast benches against results/BASELINE.json
with `--time-tol 3.0`, so these pin what that job lets through: timing is
gated one-sided on the slowdown, accuracy columns exactly both ways, and a
baseline row the current run lacks fails.

Usage: test_bench_diff.py [BenchDiff.test_name ...]
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

BENCH_DIFF = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "scripts", "bench_diff.py")


def row(context, seconds=1.0, mean=0.25):
    return {"context": context, "algo": "BNCL-grid", "seconds": seconds,
            "wall_seconds": seconds, "mean": mean, "iterations": 12}


class BenchDiff(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, rows):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"bench": "P9", "version": 1, "rows": rows}))
            f.write("\n")
        return path

    def diff(self, base_rows, cur_rows, *flags):
        """bench_diff's exit status on the pair."""
        base = self.write("base.json", base_rows)
        cur = self.write("cur.json", cur_rows)
        return subprocess.run(
            [sys.executable, BENCH_DIFF, base, cur, *flags],
            stdout=subprocess.DEVNULL, check=False).returncode

    def test_timing_gate_is_one_sided(self):
        def timing(base_s, cur_s, *flags):
            return self.diff([row("a", seconds=base_s)],
                             [row("a", seconds=cur_s)], *flags)

        self.assertEqual(timing(0.1, 10.0, "--time-tol", "3.0"), 1)
        self.assertEqual(timing(10.0, 0.1, "--time-tol", "3.0"), 0)
        self.assertEqual(timing(0.1, 0.3, "--time-tol", "3.0"), 0)
        # 4x slower is the edge of --time-tol 3.0; past it fails.
        self.assertEqual(timing(1.0, 4.0, "--time-tol", "3.0"), 0)
        self.assertEqual(timing(1.0, 4.5, "--time-tol", "3.0"), 1)
        # Without --time-tol, timing is not gated at all.
        self.assertEqual(timing(0.1, 10.0), 0)

    def test_accuracy_gate_is_exact_both_ways(self):
        def accuracy(base_mean, cur_mean, *flags):
            return self.diff([row("a", mean=base_mean)],
                             [row("a", mean=cur_mean)], *flags)

        self.assertEqual(accuracy(0.25, 0.25), 0)
        self.assertEqual(accuracy(0.25, 0.26), 1)
        self.assertEqual(accuracy(0.26, 0.25), 1)
        self.assertEqual(accuracy(0.25, 0.26, "--rel-tol", "0.05"), 0)
        # A generous timing tolerance does not loosen the accuracy gate.
        self.assertEqual(accuracy(0.25, 0.26, "--time-tol", "3.0"), 1)

    def test_missing_baseline_row_fails(self):
        self.assertEqual(self.diff([row("a"), row("b")], [row("a")]), 1)
        # A row only the current run has is a note, not a failure.
        self.assertEqual(
            self.diff([row("a"), row("b")], [row("a"), row("b"), row("c")]),
            0)


if __name__ == "__main__":
    unittest.main()

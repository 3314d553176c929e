#!/usr/bin/env python3
"""Tests for perf/compare.py: its verdicts and its crc check.

Run from the repository root:

    python3 perf/test_compare.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import compare  # noqa: E402

SCRIPT = os.path.join(HERE, "compare.py")


def report(workload, seed, refs_per_s, crc="0x00000001"):
    """A report as rampage_perf --report writes it (untraced)."""
    return {
        "workload": workload, "seed": seed, "refs": 24000000,
        "trace": False, "stats_crc": crc, "correct": True,
        "attempted": 10, "failed": 0,
        "metrics": {
            "refs_per_s": {"value": refs_per_s, "unit": "1/s"},
            "setup_s": {"value": 2e-5, "unit": "s"},
            "peak_rss_mb": {"value": 4.0, "unit": "MB"},
        },
    }


# Ten runs around 30 M refs/s with about 1% spread.
STEADY = [30.0e6 * (1 + d) for d in
          (0.004, -0.006, 0.0, 0.008, -0.002, 0.005, -0.008, 0.001,
           -0.004, 0.007)]


class VerdictTest(unittest.TestCase):
    def test_clean_win_is_improved(self):
        change = [v * 1.2 for v in STEADY]
        self.assertEqual(compare.verdict(STEADY, change, "higher", 0.1),
                         "improved")

    def test_win_on_too_few_pairs_is_unresolved(self):
        change = [v * 1.2 for v in STEADY[:5]]
        self.assertEqual(
            compare.verdict(STEADY[:5], change, "higher", 0.1),
            "unresolved")

    def test_noisy_tie_is_unresolved(self):
        noisy = [30e6 * f for f in
                 (0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 0.75, 1.25, 1.0, 0.95)]
        self.assertEqual(
            compare.verdict(noisy, list(reversed(noisy)), "higher", 0.1),
            "unresolved")

    def test_steady_tie_is_unchanged(self):
        self.assertEqual(
            compare.verdict(STEADY, list(reversed(STEADY)), "higher", 0.1),
            "unchanged")

    def test_regression_beyond_bound_is_worse(self):
        change = [v * 0.8 for v in STEADY]
        self.assertEqual(compare.verdict(STEADY, change, "higher", 0.1),
                         "worse")

    def test_lower_is_better_direction(self):
        setup = [2e-5 * v / 30e6 for v in STEADY]
        slower = [v * 1.5 for v in setup]
        self.assertEqual(compare.verdict(setup, slower, "lower", 0.25),
                         "worse")
        self.assertEqual(compare.verdict(slower, setup, "lower", 0.25),
                         "improved")


class CompareScriptTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def side(self, name, docs):
        path = os.path.join(self.tmp.name, name)
        os.makedirs(path)
        for i, doc in enumerate(docs):
            with open(os.path.join(path, f"run{i}.json"), "w") as fh:
                json.dump(doc, fh)
        return path

    def run_compare(self, parent, change):
        proc = subprocess.run([sys.executable, SCRIPT, parent, change],
                              capture_output=True, text=True)
        self.assertNotIn("Traceback", proc.stderr)
        return proc

    def test_same_runs_pass(self):
        docs = [report("baseline-1KB", s, v) for s, v in enumerate(STEADY)]
        proc = self.run_compare(self.side("p", docs), self.side("c", docs))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("unchanged", proc.stdout)
        self.assertNotIn("worse", proc.stdout)

    def test_regression_fails(self):
        parent = [report("baseline-1KB", s, v)
                  for s, v in enumerate(STEADY)]
        # 30% slower: beyond any bound BENCHMARK.json may set.
        change = [report("baseline-1KB", s, v * 0.7)
                  for s, v in enumerate(STEADY)]
        proc = self.run_compare(self.side("p", parent),
                                self.side("c", change))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("worse", proc.stdout)

    def test_crc_mismatch_fails(self):
        parent = [report("baseline-1KB", s, v)
                  for s, v in enumerate(STEADY)]
        change = [report("baseline-1KB", s, v) for s, v in enumerate(STEADY)]
        change[3]["stats_crc"] = "0xdeadbeef"
        proc = self.run_compare(self.side("p", parent),
                                self.side("c", change))
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("stats_crc mismatch", proc.stderr)

    def test_unpaired_runs_are_an_input_error(self):
        proc = self.run_compare(
            self.side("p", [report("baseline-1KB", 0, 30e6)]),
            self.side("c", [report("baseline-1KB", 1, 30e6)]))
        self.assertEqual(proc.returncode, 2)
        self.assertIn("no runs pair up", proc.stderr)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests scripts/e2e_pairs.py's summary, run checks and pair order on
canned records.

  python3 scripts/test_e2e_pairs.py
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import e2e_pairs  # noqa: E402

SCHEDULE = {"workers": [["gpu-worker-0", "gpu", 3, 3, 300]],
            "total_vtime": "0x1p-3"}


def record(run_s, cpu_s=1.0, rss=20.0, setup=0.02, final=0.25, probe=0.03):
    """One e2e_train record that passes run.py's check() against
    SCHEDULE."""
    return {"exit": 0, "run_s": run_s, "cpu_s": cpu_s, "peak_rss_mb": rss,
            "setup_s": setup, "probe_s": probe, "initial_loss": 0.7,
            "final_loss": final, "total_vtime": "0x1p-3",
            "total_vtime_s": 0.125, "rollbacks": 0, "diverged": False,
            "examples_dispatched": 300, "examples_reclaimed": 0,
            "late_examples": 0,
            "workers": [{"name": "gpu-worker-0", "kind": "gpu",
                         "batches": 3, "updates": 3, "examples": 300}]}


class SummarizeTest(unittest.TestCase):
    def test_ratios_are_per_pair(self):
        # The base's own wall time swings 3x between pairs; every pair's
        # ratio is 0.5.
        pairs = [(record(1.0), record(0.5)), (record(3.0), record(1.5)),
                 (record(2.0), record(1.0)), (record(1.5), record(0.75))]
        entry = e2e_pairs.summarize(pairs)
        self.assertEqual(entry["pairs"], 4)
        self.assertEqual(entry["ratio"]["wall_s"],
                         {"median": 0.5, "q1": 0.5, "q3": 0.5, "lower": 4})
        self.assertEqual(entry["base"]["wall_s"]["median"], 1.75)
        self.assertEqual(entry["change"]["wall_s"]["median"], 0.875)
        self.assertEqual(entry["ratio"]["cpu_s"]["lower"], 0)
        self.assertEqual(entry["probe_s"], 0.03)

    def test_quartiles_and_lower_count(self):
        pairs = [(record(1.0, rss=100.0), record(r, rss=20.0))
                 for r in (0.4, 0.5, 0.6, 1.2)]
        entry = e2e_pairs.summarize(pairs)
        ratio = entry["ratio"]["wall_s"]
        self.assertAlmostEqual(ratio["median"], 0.55)
        self.assertAlmostEqual(ratio["q1"], 0.425)
        self.assertAlmostEqual(ratio["q3"], 1.05)
        self.assertEqual(ratio["lower"], 3)
        self.assertEqual(entry["ratio"]["peak_rss_mb"]["median"], 0.2)

    def test_identical_trajectories_are_counted(self):
        same = (record(1.0), record(0.5))
        moved = (record(1.0), record(0.5, final=0.2500001))
        entry = e2e_pairs.summarize([same, moved, same])
        self.assertEqual(entry["identical_trajectories"], 2)


class CheckTest(unittest.TestCase):
    def test_a_passing_run_has_no_failures(self):
        self.assertEqual(e2e_pairs.failures_of(record(1.0), SCHEDULE), [])

    def test_run_py_checks_apply(self):
        rolled_back = dict(record(1.0), rollbacks=1)
        self.assertTrue(e2e_pairs.failures_of(rolled_back, SCHEDULE))
        other_schedule = dict(record(1.0), total_vtime="0x1p-2")
        self.assertTrue(e2e_pairs.failures_of(other_schedule, SCHEDULE))
        crashed = {"exit": 1}
        self.assertEqual(e2e_pairs.failures_of(crashed, SCHEDULE),
                         ["process exit 1"])

    def test_a_record_without_a_metric_fails(self):
        rec = record(1.0)
        del rec["cpu_s"]
        self.assertEqual(e2e_pairs.failures_of(rec, SCHEDULE),
                         ["record lacks cpu_s"])


class RunPairsTest(unittest.TestCase):
    BINARIES = {"base": "parent/e2e_train", "change": "change/e2e_train"}
    SPEC = {"schedule": SCHEDULE}

    def fake_run(self, cold_s=None):
        """A run() that logs (binary, seed) and takes 1 s, or `cold_s` on
        each binary's first run."""
        calls = []

        def run(binary, spec, seed):
            first = all(b != binary for b, _ in calls)
            calls.append((binary, seed))
            return record(cold_s if first and cold_s else 1.0)
        return run, calls

    def test_each_binary_warms_up_before_pair_0(self):
        run, calls = self.fake_run()
        pairs = e2e_pairs.run_pairs(run, self.BINARIES, self.SPEC, "w", 7, 2)
        self.assertEqual(len(pairs), 2)
        base, change = self.BINARIES["base"], self.BINARIES["change"]
        self.assertEqual(calls, [(base, 7), (change, 7),  # warm-up
                                 (base, 7), (change, 7),  # pair 0
                                 (change, 8), (base, 8)])

    def test_a_cold_first_run_is_not_recorded(self):
        # Both binaries are equally fast once warm; the cold first runs
        # (10x slower) must not show up as a ratio.
        run, _ = self.fake_run(cold_s=10.0)
        pairs = e2e_pairs.run_pairs(run, self.BINARIES, self.SPEC, "w", 7, 4)
        entry = e2e_pairs.summarize(pairs)
        self.assertEqual(entry["ratio"]["wall_s"]["median"], 1.0)
        self.assertEqual(entry["ratio"]["wall_s"]["lower"], 0)

    def test_a_failing_warm_up_stops_the_run(self):
        def run(binary, spec, seed):
            return {"exit": 1}
        self.assertIsNone(
            e2e_pairs.run_pairs(run, self.BINARIES, self.SPEC, "w", 7, 2))


if __name__ == "__main__":
    unittest.main()

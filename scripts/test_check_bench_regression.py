#!/usr/bin/env python3
"""Tests the GEMM gate's distillation and thresholds on hand-written runs.

  python3 scripts/test_check_bench_regression.py
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench_regression as gate  # noqa: E402


def rep(name, gflops=None, **variants):
    """One repetition as google-benchmark writes it; a keyword argument
    `dense=...` becomes the alternating counter `dense_GFLOP/s`."""
    b = {"name": name, "run_type": "iteration"}
    if gflops is not None:
        b["GFLOP/s"] = gflops
    for variant, value in variants.items():
        b[f"{variant}_GFLOP/s"] = value
    return b


def aggregate(name, gflops):
    return {"name": name + "_mean", "run_type": "aggregate",
            "aggregate_name": "mean", "GFLOP/s": gflops}


def shapes_of(*benchmarks):
    return gate.parse_raw({"benchmarks": list(benchmarks)})


class ParseRawTest(unittest.TestCase):
    def test_speedup_is_the_ratio_of_bests(self):
        new = "BM_GemmNT_MlpForwardShape/m:64/seed:0"
        seed = "BM_GemmNT_MlpForwardShape/m:64/seed:1"
        shapes = shapes_of(
            rep(new, 10.0), rep(seed, 5.0), rep(new, 30.0), rep(seed, 1.0),
            rep(new, 11.0), rep(seed, 6.0),
            aggregate(new, 1000.0), aggregate(seed, 0.001))
        # The pair flag leaves the key; aggregates are ignored.
        self.assertEqual(shapes, {"BM_GemmNT_MlpForwardShape/m:64": {
            "new_gflops": 30.0, "seed_gflops": 6.0, "speedup": 5.0}})

    def test_load_on_one_arm_leaves_the_speedup(self):
        # Contention slows most of the packed arm's repetitions to half
        # speed and leaves the seed arm alone: the ratio of medians would
        # halve, the ratio of bests does not move.
        new = "BM_GemmNT_MlpForwardShape/m:1/seed:0"
        seed = "BM_GemmNT_MlpForwardShape/m:1/seed:1"
        quiet = [20.0, 19.5, 20.2]
        loaded = [10.0, 9.8, 10.4, 9.5, 10.1, 9.9]
        runs = [rep(new, g) for g in loaded + quiet]
        runs += [rep(seed, g) for g in [2.0, 1.98, 2.02] * 3]
        shapes = shapes_of(*runs)
        self.assertEqual(shapes["BM_GemmNT_MlpForwardShape/m:1"]["speedup"],
                         10.0)

    def test_fused_pair_divides_fused_by_unfused(self):
        shapes = shapes_of(rep("BM_ForwardLayerFused/m:4/fused:0", 2.0),
                           rep("BM_ForwardLayerFused/m:4/fused:1", 3.0))
        self.assertEqual(shapes["BM_ForwardLayerFused/m:4"]["speedup"], 1.5)

    def test_element_rates_form_a_pair(self):
        new = "BM_EpilogueTanh/n:48/seed:0"
        seed = "BM_EpilogueTanh/n:48/seed:1"
        shapes = shapes_of({"name": new, "Gelem/s": 0.3},
                           {"name": seed, "Gelem/s": 0.1},
                           {"name": new, "Gelem/s": 0.4},
                           {"name": seed, "Gelem/s": 0.16})
        self.assertEqual(shapes, {"BM_EpilogueTanh/n:48": {
            "new_gelems": 0.4, "seed_gelems": 0.16, "speedup": 2.5}})

    def test_alternating_counters_form_a_pair(self):
        name = ("BM_StoredInputForward/m:512/width:300/units:48/permille:150"
                "/min_time:1.000")
        shapes = shapes_of(rep(name, other=40.0, stored=36.0),
                           rep(name, other=50.0, stored=40.0),
                           rep(name, other=45.0, stored=45.0))
        # A benchmark's own run length is not part of its key.
        key = "BM_StoredInputForward/m:512/width:300/units:48/permille:150"
        self.assertEqual(shapes, {key: {
            "other_gflops": 50.0, "stored_gflops": 45.0, "speedup": 0.9}})

    def test_csr_sweep_divides_csr_by_dense(self):
        name = "BM_CsrInputGradient/m:1/width:500/units:48/permille:120"
        shapes = shapes_of(rep(name, dense=2.0, csr=7.0),
                           rep(name, dense=2.5, csr=6.0))
        self.assertEqual(shapes, {name: {
            "dense_gflops": 2.5, "csr_gflops": 7.0, "speedup": 2.8}})


class GateTest(unittest.TestCase):
    BASE = {"shapes": {
        "BM_GemmNN/n:64": {"speedup": 2.0},
        "BM_CsrInputForward/m:512/width:500/units:48/permille:100":
            {"speedup": 5.0},
        "BM_StoredInputForward/m:512": {"speedup": 5.0},
    }}

    def run_gate(self, speedup):
        current = {"shapes": {"BM_GemmNN/n:64": {"speedup": speedup}}}
        return gate.gate(current, self.BASE, 0.20)

    def test_floor_is_the_baseline_less_the_threshold(self):
        self.assertEqual(self.run_gate(1.6), [])
        failures = self.run_gate(1.599)
        self.assertEqual(len(failures), 1)
        self.assertIn("BM_GemmNN/n:64: speedup 1.599 < 1.600", failures[0])

    def test_a_kernel_25_percent_slower_fails(self):
        # Every repetition of the packed arm 25% slower, the seed arm as
        # before: the best-of speedup falls 25%, past the 20% floor.
        def run(scale):
            new = "BM_GemmNN/n:64/seed:0"
            seed = "BM_GemmNN/n:64/seed:1"
            reps = [rep(new, scale * g) for g in [24.0, 23.0, 22.5] * 3]
            reps += [rep(seed, g) for g in [12.0, 11.8, 11.9] * 3]
            return {"shapes": shapes_of(*reps)}
        self.assertEqual(gate.gate(run(1.0), self.BASE, 0.20), [])
        failures = gate.gate(run(0.75), self.BASE, 0.20)
        self.assertEqual(len(failures), 1)
        self.assertIn("BM_GemmNN/n:64: speedup 1.500 < 1.600", failures[0])

    def test_too_few_repetitions_fail(self):
        self.assertEqual(gate.gate_repetitions(
            {"repetitions": gate.MIN_REPETITIONS}), [])
        failures = gate.gate_repetitions({"repetitions": 5})
        self.assertEqual(len(failures), 1)
        self.assertIn("5 repetitions", failures[0])

    def test_missing_shape_fails(self):
        failures = gate.gate({"shapes": {}}, self.BASE, 0.20)
        self.assertEqual(failures, [
            "BM_GemmNN/n:64: present in baseline but missing from run"])

    def test_storage_rule_has_its_own_floor(self):
        current = {"shapes": {
            "BM_StoredInputForward/m:512": {"speedup": 0.899},
            "BM_StoredInputGradient/m:512": {"speedup": gate.AUTO_FLOOR},
            "BM_GemmNN/n:64": {"speedup": 0.5},
        }}
        failures = gate.gate_selection(current)
        self.assertEqual(len(failures), 1)
        self.assertTrue(failures[0].startswith("BM_StoredInputForward/m:512:"))


class SparseCrossoverTest(unittest.TestCase):
    def sweep(self, name, points):
        return {f"{name}/permille:{p}": {"speedup": s} for p, s in points}

    def test_interpolates_between_the_swept_densities(self):
        shapes = self.sweep("BM_CsrInputForward/m:512",
                            [(50, 3.0), (100, 1.5), (200, 0.5)])
        shapes.update(self.sweep("BM_CsrInputGradient/m:512",
                                 [(100, 2.0), (200, 1.1)]))
        self.assertEqual(gate.sparse_crossovers(shapes), {
            "BM_CsrInputForward/m:512": 0.15,
            "BM_CsrInputGradient/m:512": None,
        })


if __name__ == "__main__":
    unittest.main()

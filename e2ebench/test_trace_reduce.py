#!/usr/bin/env python3
"""Tests the trace reducer on a small hand-written trace.

  python3 e2ebench/test_trace_reduce.py
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import trace_reduce  # noqa: E402

# Two flow ids above 2**53 that differ only in their low bits: a reducer
# reading them through a float would merge them.
FLOW_A = "0x20000000000005"
FLOW_B = "0x20000000000004"


def span(tid, cat, name, ts, dur):
    return {"ph": "X", "tid": tid, "cat": cat, "name": name, "ts": ts,
            "dur": dur, "args": {"flow": 9.00719925e15}}


def flow(tid, ph, fid, ts):
    return {"ph": ph, "tid": tid, "cat": "flow", "name": "batch", "ts": ts,
            "id": fid}


def thread(tid, name):
    return {"ph": "M", "tid": tid, "name": "thread_name",
            "args": {"name": name}}


COORD, GPU = 1, 2

TRACE = {
    "otherData": {"dropped": 0, "collected": 20},
    "traceEvents": [
        thread(COORD, "coordinator"),
        thread(GPU, "gpu-worker-0"),
        # Coordinator: initial eval, dispatch of A, then two applies. The
        # first apply holds an eval (with a GEMM inside) and dispatches B.
        span(COORD, "coordinator", "evaluate_loss", 0.0, 100.0),
        flow(COORD, "s", FLOW_A, 110.0),
        span(COORD, "coordinator", "ledger_apply", 300.0, 200.0),
        flow(COORD, "f", FLOW_A, 301.0),
        span(COORD, "coordinator", "evaluate_loss", 320.0, 100.0),
        span(COORD, "tensor", "packed_gemm", 330.0, 40.0),
        flow(COORD, "s", FLOW_B, 480.0),
        span(COORD, "coordinator", "ledger_apply", 700.0, 50.0),
        flow(COORD, "f", FLOW_B, 701.0),
        # Replica worker: two executes, the first with nested work.
        span(GPU, "gpu-worker", "execute", 120.0, 170.0),
        flow(GPU, "t", FLOW_A, 121.0),
        span(GPU, "gpu-worker", "compute_gradient", 130.0, 100.0),
        span(GPU, "tensor", "packed_gemm", 140.0, 60.0),
        span(GPU, "gpu-worker", "upload_model", 235.0, 20.0),
        span(GPU, "gpusim", "h2d_copy", 240.0, 10.0),
        span(GPU, "gpu-worker", "execute", 500.0, 180.0),
        flow(GPU, "t", FLOW_B, 502.0),
    ],
}


class ReduceTraceTest(unittest.TestCase):
    def setUp(self):
        self.r = trace_reduce.reduce_trace(TRACE)

    def test_self_times_exclude_children(self):
        self.assertAlmostEqual(self.r["core.eval_ms"], 0.160)  # 100 + 60
        self.assertEqual(self.r["core.evals"], 2)
        self.assertAlmostEqual(self.r["core.apply_ms"], 0.150)  # 100 + 50
        self.assertAlmostEqual(self.r["tensor.packed_gemm_ms"], 0.100)
        self.assertAlmostEqual(self.r["backend.compute_ms"], 0.040)
        self.assertAlmostEqual(self.r["backend.upload_ms"], 0.010)
        self.assertAlmostEqual(self.r["gpusim.copy_ms"], 0.010)
        self.assertAlmostEqual(self.r["backend.merge_ms"], 0.0)
        self.assertAlmostEqual(self.r["concurrent.hogwild_ms"], 0.0)

    def test_idle_is_the_gap_between_executes(self):
        self.assertAlmostEqual(self.r["core.gpu_idle_ms"], 0.210)  # 500-290
        self.assertAlmostEqual(self.r["core.cpu_idle_ms"], 0.0)

    def test_flows_pair_by_full_hex_id(self):
        # dispatch gaps: 121-110 = 11 and 502-480 = 22
        self.assertAlmostEqual(self.r["msg.dispatch_us_p50"], 16.5)
        self.assertAlmostEqual(self.r["msg.dispatch_us_p90"], 20.9)
        # report gaps: apply start - execute end = 300-290 and 700-680
        self.assertAlmostEqual(self.r["msg.report_us_p50"], 15.0)
        self.assertAlmostEqual(self.r["msg.report_us_p90"], 19.0)

    def test_blocking_path(self):
        # execute 350 + ledger_apply 250 + dispatch 33 + report 30 (us)
        self.assertAlmostEqual(self.r["blocking_ms"], 0.663)

    def test_dropped_events_are_reported(self):
        self.assertEqual(self.r["dropped"], 0)
        dropped = dict(TRACE, otherData={"dropped": 3, "collected": 17})
        self.assertEqual(trace_reduce.reduce_trace(dropped)["dropped"], 3)

    def test_percentile(self):
        self.assertEqual(trace_reduce.percentile([], 0.5), 0.0)
        self.assertEqual(trace_reduce.percentile([4.0], 0.9), 4.0)
        self.assertAlmostEqual(trace_reduce.percentile([1, 2, 3, 4], 0.5), 2.5)


if __name__ == "__main__":
    unittest.main()

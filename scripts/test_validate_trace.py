#!/usr/bin/env python3
"""Tests validate_trace.py's trace checks on hand-written traces.

  python3 scripts/test_validate_trace.py
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import validate_trace  # noqa: E402

META = {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
        "args": {"name": "coordinator"}}
SPAN = {"name": "execute", "cat": "cpu-worker", "ph": "X", "pid": 1,
        "tid": 1, "ts": 1.0, "dur": 2.0, "args": {}}
INSTANT = {"name": "reclaim", "cat": "fault", "ph": "i", "pid": 1, "tid": 1,
           "ts": 4.0, "s": "t", "args": {}}


def trace(other, events):
    return {"displayTimeUnit": "ms", "otherData": other,
            "traceEvents": events}


class CheckTraceTest(unittest.TestCase):
    def check(self, doc, **flags):
        """check_trace's status and stderr for `doc` written to a file."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc, f)
            opts = argparse.Namespace(trace=path, min_events=1,
                                      require_span=[], require_instant=[],
                                      require_flow=False)
            vars(opts).update(flags)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                status = validate_trace.check_trace(opts)
        return status, err.getvalue()

    def test_collected_equal_to_the_events_passes(self):
        doc = trace({"collected": 2}, [META, SPAN, INSTANT])
        self.assertEqual(self.check(doc), (0, ""))

    def test_collected_other_than_the_events_fails(self):
        for collected in (1, 3):
            status, err = self.check(
                trace({"collected": collected}, [META, SPAN, INSTANT]))
            self.assertEqual(status, 1)
            self.assertIn(f"collected is {collected} but the trace holds 2 "
                          f"events", err)

    def test_trace_without_collected_is_not_counted(self):
        self.assertEqual(self.check(trace({}, [META, SPAN]))[0], 0)

    def test_dropped_events_fail(self):
        status, err = self.check(
            trace({"dropped": 3, "collected": 2}, [META, SPAN, INSTANT]))
        self.assertEqual(status, 1)
        self.assertIn("3 events dropped", err)

    def test_required_events_must_be_present(self):
        doc = trace({"collected": 2}, [META, SPAN, INSTANT])
        self.assertEqual(self.check(doc, require_instant=["reclaim"],
                                    require_span=["execute"])[0], 0)
        status, err = self.check(doc, require_instant=["rollback"])
        self.assertEqual(status, 1)
        self.assertIn("required instant 'rollback' missing", err)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Validate observability artifacts emitted by a training run.

Checks a Chrome trace_event JSON file (--trace-out) and/or a metrics JSONL
file (--metrics-out) for structural validity and, optionally, for specific
events the run was expected to produce — the smoke scripts use this to
assert that a chaos run's trace actually shows the reclaim/redispatch/
rollback story and that a batch's flow crosses threads.

Trace checks (always, when --trace is given):
  * file parses as JSON with a `traceEvents` list
  * every event has a name and a known phase; 'X' events have dur >= 0
  * no events were dropped (otherData.dropped == 0)
  * otherData.collected, when present, equals the number of events other
    than metadata ('M') records
  * at least one thread_name metadata record

Optional:
  --require-span NAME      at least one complete ('X') span named NAME
  --require-instant NAME   at least one instant ('i') event named NAME
  --require-flow           at least one flow id whose 's'/'t'/'f' events
                           touch two or more distinct threads
  --min-events N           at least N events total (default 1)

Metrics checks (when --metrics is given): every line parses as a JSON
object with ts_ns and metrics keys; --allow-torn-tail permits the final
line to be truncated (a SIGKILLed run can tear its last snapshot, and the
whole point of JSONL is that every *previous* line stays valid).
  --require-metric NAME    NAME present in the last complete snapshot

Exit status: 0 = all checks pass, 1 = a check failed, 2 = usage error.
"""

import argparse
import json
import sys

KNOWN_PHASES = {"X", "B", "E", "i", "s", "t", "f", "C", "M"}


def fail(msg):
    print(f"validate_trace: FAIL: {msg}", file=sys.stderr)
    return 1


def check_trace(opts):
    try:
        with open(opts.trace, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        return fail(f"{opts.trace}: not valid JSON: {err}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return fail(f"{opts.trace}: no traceEvents array")
    if len(events) < opts.min_events:
        return fail(f"{opts.trace}: {len(events)} events < --min-events "
                    f"{opts.min_events}")
    other = doc.get("otherData", {})
    if other.get("dropped", 0):
        return fail(f"{opts.trace}: {other['dropped']} events dropped")
    recorded = sum(1 for e in events if e.get("ph") != "M")
    if "collected" in other and other["collected"] != recorded:
        return fail(f"{opts.trace}: otherData.collected is "
                    f"{other['collected']} but the trace holds {recorded} "
                    f"events")

    spans, instants, threads = set(), set(), set()
    flows = {}  # id -> set of tids
    for e in events:
        ph = e.get("ph")
        if ph not in KNOWN_PHASES:
            return fail(f"{opts.trace}: unknown phase {ph!r} in {e}")
        if "name" not in e:
            return fail(f"{opts.trace}: event without name: {e}")
        if ph == "X":
            if e.get("dur", -1) < 0:
                return fail(f"{opts.trace}: 'X' span without dur: {e}")
            spans.add(e["name"])
        elif ph == "i":
            instants.add(e["name"])
        elif ph in ("s", "t", "f"):
            flows.setdefault(e.get("id"), set()).add(e.get("tid"))
        elif ph == "M" and e["name"] == "thread_name":
            threads.add(e.get("args", {}).get("name"))

    if opts.min_events > 0 and not threads:
        return fail(f"{opts.trace}: no thread_name metadata")
    for name in opts.require_span:
        if name not in spans:
            return fail(f"{opts.trace}: required span '{name}' missing "
                        f"(have: {', '.join(sorted(spans)) or 'none'})")
    for name in opts.require_instant:
        if name not in instants:
            return fail(f"{opts.trace}: required instant '{name}' missing "
                        f"(have: {', '.join(sorted(instants)) or 'none'})")
    if opts.require_flow:
        cross = [fid for fid, tids in flows.items() if len(tids) >= 2]
        if not cross:
            return fail(f"{opts.trace}: no flow crosses threads "
                        f"({len(flows)} flow ids, all single-thread)")
    print(f"validate_trace: {opts.trace}: {len(events)} events, "
          f"{len(spans)} span names, {len(flows)} flows, "
          f"threads: {', '.join(sorted(t for t in threads if t))}")
    return 0


def check_metrics(opts):
    try:
        with open(opts.metrics, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as err:
        return fail(f"{opts.metrics}: {err}")
    if not lines:
        return fail(f"{opts.metrics}: empty")
    last_snapshot = None
    for i, line in enumerate(lines):
        try:
            snap = json.loads(line)
        except json.JSONDecodeError:
            if opts.allow_torn_tail and i == len(lines) - 1:
                print(f"validate_trace: {opts.metrics}: torn final line "
                      f"tolerated (--allow-torn-tail)")
                break
            return fail(f"{opts.metrics}:{i + 1}: invalid JSON line")
        if "ts_ns" not in snap or "metrics" not in snap:
            return fail(f"{opts.metrics}:{i + 1}: missing ts_ns/metrics")
        last_snapshot = snap
    if last_snapshot is None:
        return fail(f"{opts.metrics}: no complete snapshot line")
    for name in opts.require_metric:
        if name not in last_snapshot["metrics"]:
            return fail(f"{opts.metrics}: metric '{name}' missing from "
                        f"last snapshot")
    print(f"validate_trace: {opts.metrics}: {len(lines)} snapshots, "
          f"{len(last_snapshot['metrics'])} metrics in last")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", help="Chrome trace_event JSON to validate")
    ap.add_argument("--metrics", help="metrics JSONL to validate")
    ap.add_argument("--require-span", action="append", default=[])
    ap.add_argument("--require-instant", action="append", default=[])
    ap.add_argument("--require-flow", action="store_true",
                    help="require a flow spanning >= 2 threads")
    ap.add_argument("--require-metric", action="append", default=[])
    ap.add_argument("--min-events", type=int, default=1)
    ap.add_argument("--allow-torn-tail", action="store_true",
                    help="tolerate a truncated final metrics line")
    opts = ap.parse_args()
    if not opts.trace and not opts.metrics:
        ap.error("give --trace and/or --metrics")
    status = 0
    if opts.trace:
        status |= check_trace(opts)
    if opts.metrics:
        status |= check_metrics(opts)
    return status


if __name__ == "__main__":
    sys.exit(main())

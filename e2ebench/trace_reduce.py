"""Reduces one span trace of a training run to per-layer totals.

The input is the Chrome trace JSON that hetsgd's span tracer writes when
TrainingConfig::obs.trace_out is set. The reducer computes:

  * span self times: a span's duration minus the part its child spans on
    the same thread cover, summed per (category, name);
  * worker idle time: the gaps between consecutive `execute` spans of one
    worker thread (time a worker waited on evaluation, the epoch shuffle
    or the virtual-time frontier);
  * message latencies from the batch flow events, paired by their hex
    `id`: dispatch ('s', coordinator) to the worker's flow step ('t',
    inside `execute`), and the end of that `execute` span to the start of
    the coordinator's `ledger_apply` holding the flow end ('f').

Flow ids are taken only from the 's'/'t'/'f' events: the `flow` argument on
'X' spans is printed with %.9g and cannot hold a 64-bit id.
"""

import bisect
import json
from collections import defaultdict


class Span:
    __slots__ = ("tid", "cat", "name", "ts", "dur", "end", "child")

    def __init__(self, event):
        self.tid = event["tid"]
        self.cat = event.get("cat", "")
        self.name = event["name"]
        self.ts = float(event["ts"])
        self.dur = float(event["dur"])
        self.end = self.ts + self.dur
        self.child = 0.0  # time covered by direct children


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 1]; 0.0 for no values."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = (len(v) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def _spans_by_thread(events):
    threads = defaultdict(list)
    for e in events:
        if e.get("ph") == "X":
            threads[e["tid"]].append(Span(e))
    for spans in threads.values():
        # Parents sort before the children they contain: same start, longer.
        spans.sort(key=lambda s: (s.ts, -s.dur))
    return threads


def _charge_children(spans):
    stack = []
    for s in spans:
        while stack and stack[-1].end <= s.ts:
            stack.pop()
        if stack:
            parent = stack[-1]
            parent.child += min(s.end, parent.end) - s.ts
        stack.append(s)


def _enclosing(spans, starts, ts):
    """The span of `spans` (one name on one thread: sorted, never nested)
    that contains time ts, or None."""
    i = bisect.bisect_right(starts, ts) - 1
    if i >= 0 and ts <= spans[i].end:
        return spans[i]
    return None


def reduce_trace(doc):
    """Returns the per-layer totals of one trace document.

    Times are in milliseconds (suffix _ms) or microseconds (suffix _us).
    """
    events = doc.get("traceEvents", [])
    thread_names = {
        e["tid"]: e.get("args", {}).get("name", "")
        for e in events
        if e.get("ph") == "M" and e.get("name") == "thread_name"
    }
    threads = _spans_by_thread(events)
    # (category, name) -> [count, total us, self us]
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for spans in threads.values():
        _charge_children(spans)
        for s in spans:
            row = table[(s.cat, s.name)]
            row[0] += 1
            row[1] += s.dur
            row[2] += s.dur - s.child

    def count(cat, name):
        return table[(cat, name)][0]

    def total_ms(cat, name):
        return table[(cat, name)][1] / 1e3

    def self_ms(cat, name):
        return table[(cat, name)][2] / 1e3

    # Per-thread execute spans and ledger_apply spans, sorted by start.
    executes = {}
    applies = {}
    for tid, spans in threads.items():
        ex = [s for s in spans if s.name == "execute"
              and s.cat in ("cpu-worker", "gpu-worker")]
        if ex:
            executes[tid] = (ex, [s.ts for s in ex])
        ap = [s for s in spans if s.cat == "coordinator"
              and s.name == "ledger_apply"]
        if ap:
            applies[tid] = (ap, [s.ts for s in ap])

    idle_us = {"cpu": 0.0, "gpu": 0.0}
    for tid, (ex, _) in executes.items():
        kind = "cpu" if thread_names.get(tid, "").startswith("cpu") else "gpu"
        idle_us[kind] += sum(b.ts - a.end for a, b in zip(ex, ex[1:]))

    flows = defaultdict(dict)
    for e in events:
        if e.get("ph") in ("s", "t", "f") and "id" in e:
            flows[int(e["id"], 16)][e["ph"]] = e
    dispatch_us = []
    report_us = []
    for fl in flows.values():
        s, t, f = fl.get("s"), fl.get("t"), fl.get("f")
        if s is not None and t is not None:
            dispatch_us.append(float(t["ts"]) - float(s["ts"]))
        if t is None or f is None or t["tid"] not in executes:
            continue
        ex = _enclosing(*executes[t["tid"]], float(t["ts"]))
        if ex is None:
            continue
        apply_start = float(f["ts"])
        if f["tid"] in applies:
            ap = _enclosing(*applies[f["tid"]], apply_start)
            if ap is not None:
                apply_start = ap.ts
        report_us.append(apply_start - ex.end)

    execute_ms = total_ms("cpu-worker", "execute") + total_ms("gpu-worker", "execute")
    return {
        "dropped": int(doc.get("otherData", {}).get("dropped", 0)),
        "core.eval_ms": self_ms("coordinator", "evaluate_loss"),
        "core.evals": count("coordinator", "evaluate_loss"),
        "core.apply_ms": self_ms("coordinator", "ledger_apply"),
        "core.cpu_idle_ms": idle_us["cpu"] / 1e3,
        "core.gpu_idle_ms": idle_us["gpu"] / 1e3,
        "concurrent.hogwild_ms": self_ms("cpu-worker", "hogwild_parallel_for"),
        "msg.dispatch_us_p50": percentile(dispatch_us, 0.5),
        "msg.dispatch_us_p90": percentile(dispatch_us, 0.9),
        "msg.report_us_p50": percentile(report_us, 0.5),
        "msg.report_us_p90": percentile(report_us, 0.9),
        "backend.compute_ms": self_ms("gpu-worker", "compute_gradient"),
        "backend.upload_ms": self_ms("gpu-worker", "upload_model"),
        "backend.download_ms": self_ms("gpu-worker", "download_gradient"),
        "backend.merge_ms": self_ms("gpu-worker", "host_merge"),
        "gpusim.copy_ms": self_ms("gpusim", "h2d_copy") + self_ms("gpusim", "d2h_copy"),
        "tensor.packed_gemm_ms": self_ms("tensor", "packed_gemm"),
        # The blocking path of a one-worker run: worker execute, coordinator
        # ledger_apply, and the message gaps between them.
        "blocking_ms": execute_ms + total_ms("coordinator", "ledger_apply")
        + (sum(dispatch_us) + sum(report_us)) / 1e3,
    }

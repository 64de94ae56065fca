#!/usr/bin/env python3
"""End-to-end training benchmark for hetsgd.

Runs one workload of e2ebench/workloads.json through the public
core::Trainer API for --seconds seconds, one process per training run,
checks every run and prints one JSON result as the last line of stdout:

  python3 e2ebench/run.py --workload realsim-gpu --seed 1 --seconds 40 --trace 0

Training run i of an invocation uses the dataset generated from
seed * 1000 + i, so a median also spans several datasets. Each training run
is followed by a few processes that stop after set-up, so setup_s rests on
many samples. --trace 0 reports the end-to-end metrics: medians over the
untraced runs, except final_loss, their mean. --trace 1 also makes one
traced run at the end of the window
and reports the per-layer metrics from it. Run from the repository root;
the first call builds the program from this source tree into
.bench_build/e2ebench. A per-run table, with the fixed-work host-speed
probe next to each run, goes to stderr.

A run fails its check when the process exits non-zero, the loss is not
finite or does not end below its initial value, a rollback or divergence
happened, examples_dispatched != sum(worker examples) + examples_reclaimed,
anything was reclaimed or reported late, or its virtual schedule differs
from the other runs' or from the one recorded in workloads.json. A traced
run also fails when the tracer dropped events.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
import trace_reduce  # noqa: E402  (after the bytecode switch)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2e_train")

# Set-up-only processes after each training run (see measure()).
SETUP_REPEATS = 3
# Every process of an invocation is killed by then (seconds from its start).
WALL_LIMIT_S = 165

END_TO_END_UNITS = {
    "wall_s": "s",
    "examples_per_s": "1/s",
    "wall_per_vsecond": "s/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_loss": "nats",
}

PER_LAYER_UNITS = {
    "data.generate_s": "s",
    "data.feature_mb": "MB",
    "data.shuffle_ms": "ms",
    "core.eval_ms": "ms",
    "core.evals": "count",
    "core.apply_ms": "ms",
    "core.dispatches": "count",
    "core.epoch_flips": "count",
    "core.cpu_idle_ms": "ms",
    "core.gpu_idle_ms": "ms",
    "concurrent.hogwild_ms": "ms",
    "concurrent.hogwild_us_per_update": "us",
    "concurrent.cpu_per_wall": "s/s",
    "msg.dispatch_us_p50": "us",
    "msg.dispatch_us_p90": "us",
    "msg.report_us_p50": "us",
    "msg.report_us_p90": "us",
    "backend.compute_ms": "ms",
    "backend.upload_ms": "ms",
    "backend.download_ms": "ms",
    "backend.merge_ms": "ms",
    "gpusim.copy_ms": "ms",
    "gpusim.transfers": "count",
    "gpusim.kernels": "count",
    "tensor.packed_gemm_ms": "ms",
    "tensor.gemms": "count",
    "obs.trace_overhead_pct": "%",
    "obs.dropped_events": "count",
    "obs.blocking_path_pct": "%",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_workloads():
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as f:
        return json.load(f)


def nproc():
    return len(os.sched_getaffinity(0))


def real_threads(spec):
    """The thread plan of workloads.json."""
    if not spec["hogwild"]:
        return 1
    return max(1, nproc() - spec["replica_workers"] - 1)


def build():
    """Configures (once) and builds e2e_train; exits on error."""
    for needed in ("src/CMakeLists.txt", "bench/bench_common.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            log(f"e2ebench: {needed} not found under {ROOT}; run from a "
                "hetsgd source tree")
            sys.exit(2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", "e2e_train",
                  "-j", str(nproc())])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log(f"e2ebench: build step failed: {' '.join(cmd)}")
            sys.exit(1)


def run_one(spec, dataset_seed, deadline, trace_path=None, setup_only=False):
    """One e2e_train process, killed at `deadline` (time.monotonic()).
    Returns its JSON record plus exit/elapsed."""
    cmd = [BINARY,
           "--dataset", spec["dataset"],
           "--algorithm", spec["algorithm"],
           "--scale", str(spec["scale"]),
           "--gpu-epochs", str(spec["gpu_epochs"]),
           "--cadence", spec["cadence"],
           "--seed", str(dataset_seed),
           "--real-threads", str(real_threads(spec))]
    if trace_path:
        cmd += ["--trace-out", trace_path]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        return {"exit": "timeout", "elapsed": time.monotonic() - start}
    rec = {}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            rec = json.loads(lines[-1])
        except json.JSONDecodeError:
            rec = {}
    if proc.returncode != 0:
        log(proc.stderr[-2000:])
    rec["exit"] = proc.returncode
    rec["elapsed"] = time.monotonic() - start
    return rec


def schedule(rec):
    """The virtual schedule: per-worker batches/updates/examples and the
    total virtual seconds (bit-exact, as a hex float)."""
    return {
        "workers": [[w["name"], w["kind"], w["batches"], w["updates"],
                     w["examples"]] for w in rec["workers"]],
        "total_vtime": rec["total_vtime"],
    }


def check(rec, recorded):
    """Returns the list of failed checks of one run (empty = passed)."""
    if rec.get("exit") != 0 or "workers" not in rec:
        return [f"process exit {rec.get('exit')}"]
    failures = []
    initial, final = rec["initial_loss"], rec["final_loss"]
    if initial is None or final is None:
        failures.append("non-finite loss")
    elif not final < initial:
        failures.append(f"loss did not fall ({initial:.6g} -> {final:.6g})")
    if rec["rollbacks"] or rec["diverged"]:
        failures.append(f"rollbacks={rec['rollbacks']} "
                        f"diverged={rec['diverged']}")
    worked = sum(w["examples"] for w in rec["workers"])
    if rec["examples_dispatched"] != worked + rec["examples_reclaimed"]:
        failures.append(f"ledger: dispatched {rec['examples_dispatched']} != "
                        f"{worked} + reclaimed {rec['examples_reclaimed']}")
    if rec["examples_reclaimed"] or rec["late_examples"]:
        failures.append(f"reclaimed={rec['examples_reclaimed']} "
                        f"late={rec['late_examples']}")
    if recorded is not None and schedule(rec) != recorded:
        failures.append(f"virtual schedule {json.dumps(schedule(rec))} != "
                        f"recorded {json.dumps(recorded)}")
    return failures


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(runs, setups):
    """Per-metric sample lists over the untraced and set-up-only runs."""
    ok = [r for r in runs if r.get("exit") == 0 and "workers" in r]
    samples = {name: [] for name in END_TO_END_UNITS}
    for r in ok:
        examples = sum(w["examples"] for w in r["workers"])
        samples["wall_s"].append(r["run_s"])
        samples["examples_per_s"].append(examples / r["run_s"])
        samples["wall_per_vsecond"].append(r["run_s"] / r["total_vtime_s"])
        samples["setup_s"].append(r["setup_s"])
        samples["peak_rss_mb"].append(r["peak_rss_mb"])
        if r["final_loss"] is not None:
            samples["final_loss"].append(r["final_loss"])
    samples["setup_s"] += [s["setup_s"] for s in setups
                           if s.get("exit") == 0 and "setup_s" in s]
    return samples


def per_layer(traced, reduced, untraced):
    """The per-layer table from the traced run, its reduced trace and the
    untraced runs (for CPU use and the tracing overhead)."""
    counters = traced["counters"]
    cpu_updates = sum(w["updates"] for w in traced["workers"]
                      if w["kind"] == "cpu")
    ok = [r for r in untraced if r.get("exit") == 0 and "run_s" in r]
    untraced_train = median([r["train_s"] for r in ok])
    train_ms = traced["train_s"] * 1e3
    m = {
        "data.generate_s": traced["generate_s"],
        "data.feature_mb": traced["feature_mb"],
        "data.shuffle_ms": traced["shuffle_ms"]
        * counters["hetsgd_epoch_flips_total"],
        "core.dispatches": counters["hetsgd_dispatches_total"],
        "core.epoch_flips": counters["hetsgd_epoch_flips_total"],
        "concurrent.hogwild_us_per_update":
            reduced["concurrent.hogwild_ms"] * 1e3 / cpu_updates
            if cpu_updates else 0.0,
        "concurrent.cpu_per_wall": median([r["cpu_s"] / r["run_s"] for r in ok]),
        "gpusim.transfers": counters["hetsgd_gpu_transfers_total"],
        "gpusim.kernels": counters["hetsgd_gpu_kernels_total"],
        "tensor.gemms": counters["hetsgd_host_gemms_total"],
        "obs.trace_overhead_pct":
            (traced["train_s"] / untraced_train - 1.0) * 100.0
            if untraced_train else 0.0,
        "obs.dropped_events": reduced["dropped"],
        "obs.blocking_path_pct": reduced["blocking_ms"] / train_ms * 100.0,
    }
    for name in PER_LAYER_UNITS:
        if name not in m:
            m[name] = reduced[name]
    return m


def run_line(label, rec, failures):
    if "run_s" not in rec:
        return f"{label} exit {rec.get('exit')}: FAIL {'; '.join(failures)}"
    examples = sum(w["examples"] for w in rec["workers"])
    loss = rec["final_loss"]
    return (f"{label} probe {rec['probe_s'] * 1e3:5.1f} ms | setup "
            f"{rec['setup_s']:.3f} s | wall {rec['run_s']:.3f} s | "
            f"{examples / rec['run_s']:9.0f} ex/s | rss "
            f"{rec['peak_rss_mb']:6.1f} MB | loss "
            f"{loss if loss is None else round(loss, 5)} | "
            + ("ok" if not failures else "FAIL " + "; ".join(failures)))


def measure(workload, seed, seconds, trace):
    """Runs one invocation's window; returns (result dict, detail dict)."""
    config = load_workloads()
    spec = config["workloads"][workload]
    recorded = spec["schedule"]
    start = time.monotonic()
    deadline = start + WALL_LIMIT_S
    untraced = []
    setups = []
    failed = 0
    first_schedule = None
    longest = 0.0
    while True:
        round_start = time.monotonic()
        dataset_seed = seed * 1000 + len(untraced)
        rec = run_one(spec, dataset_seed, deadline)
        failures = check(rec, recorded)
        if not failures:
            if first_schedule is None:
                first_schedule = schedule(rec)
            elif schedule(rec) != first_schedule:
                failures.append("virtual schedule differs between runs")
        failed += bool(failures)
        untraced.append(rec)
        log(run_line(f"[{workload} {dataset_seed}]", rec, failures))
        # Set-up is short and noisy: time it in a few more processes that
        # stop after set-up, so its median rests on many samples.
        for _ in range(SETUP_REPEATS):
            s = run_one(spec, dataset_seed, deadline, setup_only=True)
            if s.get("exit") != 0 or "setup_s" not in s:
                failed += 1
                log(f"[{workload} {dataset_seed} set-up] FAIL exit "
                    f"{s.get('exit')}")
            setups.append(s)
        now = time.monotonic()
        longest = max(longest, now - round_start)
        # A traced run is about as long as a round; keep its slot.
        needed = longest * (2 if trace else 1)
        timed_out = any(r.get("exit") == "timeout" for r in [rec] + setups)
        if timed_out or now - start + needed > seconds:
            break

    samples = end_to_end(untraced, setups)
    metrics = {}
    detail = {"runs": untraced, "samples": samples}
    if not trace:
        for name, unit in END_TO_END_UNITS.items():
            metrics[name] = {"value": median(samples[name]), "unit": unit}
        # Each run trains on its own dataset, and the loss differs far more
        # between datasets than between runs; the mean over the window's
        # datasets varies less from seed to seed than their median.
        if samples["final_loss"]:
            metrics["final_loss"]["value"] = statistics.mean(
                samples["final_loss"])
    else:
        trace_path = os.path.join(BUILD, f"trace-{workload}-{seed}.json")
        traced = run_one(spec, seed * 1000, deadline, trace_path)
        failures = check(traced, recorded)
        reduced = None
        if not failures:
            try:
                reduced = trace_reduce.reduce_trace(
                    trace_reduce.load(trace_path))
            except (OSError, ValueError, KeyError) as err:
                failures.append(f"unreadable trace {trace_path}: {err!r}")
        if reduced is not None and reduced["dropped"]:
            failures.append(f"tracer dropped {reduced['dropped']} events")
        failed += bool(failures)
        log(run_line(f"[{workload} {seed * 1000} traced]", traced, failures))
        if reduced is not None:
            for name, value in per_layer(traced, reduced, untraced).items():
                metrics[name] = {"value": value, "unit": PER_LAYER_UNITS[name]}
    attempted = len(untraced) + len(setups) + (1 if trace else 0)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, detail


def summarize(samples):
    for name, unit in END_TO_END_UNITS.items():
        values = samples[name]
        q1, q3 = quartiles(values)
        log(f"  {name:18s} median {median(values):.6g} {unit} "
            f"[q1 {q1:.6g}, q3 {q3:.6g}] over {len(values)} runs")


def main():
    config = load_workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(config["workloads"]))
    ap.add_argument("--seed", type=int, default=config["default_seed"])
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    log(f"e2ebench: {args.workload} seed {args.seed}, {args.seconds:g} s, "
        f"trace {args.trace}, nproc {nproc()}, real_threads "
        f"{real_threads(config['workloads'][args.workload])}")
    result, detail = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    summarize(detail["samples"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

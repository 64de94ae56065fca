#!/usr/bin/env python3
"""Runs a set of e2ebench invocations, interleaving workloads round-robin.

For each seed, every workload runs once (one e2ebench/run.py window each),
so host drift over the set lands on all workloads alike. Each invocation's
line shows the median host-speed probe beside its figures; the set ends
with per-metric medians, quartiles and the quartile spread as a share of
the median, next to the metric's bound in BENCHMARK.json.

  python3 e2ebench/run_set.py --seeds 1-10 --seconds 40
  python3 e2ebench/run_set.py --seeds 11-15 --workloads covtype-adaptive \\
      --out .bench_build/e2ebench/set-b.json --against .bench_build/e2ebench/set-a.json

--out saves the per-invocation results; --against compares this set's
medians with a saved set's and flags a metric whose median got worse by
more than its bound.
"""

import argparse
import json
import os
import statistics
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def load_bounds():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path, encoding="utf-8") as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench["end_to_end"]}


def spread(values):
    q1, q3 = run.quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def worse_by(name, new, old, bounds):
    """Relative worsening of median `new` against `old` (negative = better)."""
    if not old:
        return 0.0
    lower = bounds.get(name, {}).get("better", "lower") == "lower"
    return (new - old) / old if lower else (old - new) / old


def main():
    config = run.load_workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(config["workloads"]))
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = load_bounds()

    run.build()
    results = {w: [] for w in workloads}
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            result, detail = run.measure(w, seed, args.seconds, trace=False)
            probe = statistics.median(
                r["probe_s"] * 1e3 for r in detail["runs"] if "probe_s" in r)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            results[w].append({"seed": seed, "probe_ms": probe,
                               "correct": result["correct"],
                               "attempted": result["attempted"],
                               "failed": result["failed"],
                               "metrics": values})
            print(f"{w:18s} seed {seed:4d} probe {probe:5.1f} ms "
                  f"runs {result['attempted']} failed {result['failed']} "
                  + " ".join(f"{k}={v:.5g}" for k, v in values.items()),
                  flush=True)

    previous = {}
    if args.against:
        with open(args.against, encoding="utf-8") as f:
            previous = json.load(f)
    print("\nper-metric medians over the set (spread = (q3 - q1) / median)")
    for w in workloads:
        probes = [r["probe_ms"] for r in results[w]]
        print(f"{w}: {len(results[w])} invocations, probe median "
              f"{statistics.median(probes):.1f} ms, failed "
              f"{sum(r['failed'] for r in results[w])}")
        for name in run.END_TO_END_UNITS:
            values = [r["metrics"][name] for r in results[w]]
            q1, q3 = run.quartiles(values)
            med = statistics.median(values)
            bound = bounds.get(name, {}).get("bound")
            s = spread(values)
            flag = ""
            if bound is not None and name != "setup_s" and s > bound:
                flag = "  SPREAD OVER BOUND"
            elif bound is not None and s > bound / 3:
                flag = "  spread over bound/3"
            line = (f"  {name:18s} median {med:.6g} [q1 {q1:.6g}, q3 "
                    f"{q3:.6g}] spread {s:.3f}"
                    + (f" bound {bound}" if bound is not None else "") + flag)
            if w in previous:
                old = statistics.median(r["metrics"][name] for r in previous[w])
                worse = worse_by(name, med, old, bounds)
                line += f" | vs saved {old:.6g}: worse by {worse:+.3f}"
                if bound is not None and worse > bound:
                    line += "  MEDIAN WORSE THAN BOUND"
            print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(results, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Paired end-to-end A/B of two e2e_train binaries on one e2ebench workload.

  python3 scripts/e2e_pairs.py --base PARENT/e2e_train \\
      --change .bench_build/e2ebench/e2e_train --workload realsim-gpu \\
      --pairs 12 --first-seed 9000 --out bench_results/BENCH_e2e.json

Pair i trains both binaries on the dataset of seed first_seed + i, back to
back, the base first on even pairs and the change first on odd ones, with
the workload's arguments and thread plan from e2ebench/workloads.json.
Before pair 0 each binary runs once on first_seed's dataset, unrecorded:
a cold first run (page cache, CPU frequency) would otherwise count
against whichever side runs first.
Identical runs on a shared host vary far more in wall time than two builds
do, so each pair's change/base ratio is the statistic, not the two sides'
independent medians. Every run must pass e2ebench/run.py's check() (loss,
ledger, the recorded virtual schedule); one that does not fails the script
and writes nothing.

The workload's entry in --out records the commit (`git describe --always
--dirty` of this checkout, which is the change's), nproc and the median
host probe; each side's median and quartiles of wall_s, cpu_s,
peak_rss_mb and setup_s; and per metric the per-pair ratio's median,
quartiles and the number of pairs in which the change was lower. It also
counts the pairs whose initial loss, final loss and total virtual time
came out identical on both sides. Entries of other workloads are kept.
Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "e2ebench"))
import run as e2e  # noqa: E402  (e2ebench/run.py: workloads, check)

# e2e_train's record field behind each metric.
METRICS = {"wall_s": "run_s", "cpu_s": "cpu_s", "peak_rss_mb": "peak_rss_mb",
           "setup_s": "setup_s"}


def spread(values):
    """Median and quartiles, rounded for the record."""
    q1, q3 = e2e.quartiles(values)
    return {"median": round(statistics.median(values), 6),
            "q1": round(q1, 6), "q3": round(q3, 6)}


def same_trajectory(a, b):
    return all(a[k] == b[k] for k in ("initial_loss", "final_loss",
                                      "total_vtime"))


def summarize(pairs):
    """The entry for a list of (base record, change record) pairs."""
    entry = {"pairs": len(pairs),
             "probe_s": round(statistics.median(
                 [r["probe_s"] for pair in pairs for r in pair]), 6),
             "identical_trajectories": sum(same_trajectory(b, c)
                                           for b, c in pairs)}
    for side, index in (("base", 0), ("change", 1)):
        entry[side] = {name: spread([p[index][field] for p in pairs])
                       for name, field in METRICS.items()}
    entry["ratio"] = {}
    for name, field in METRICS.items():
        ratios = [c[field] / b[field] for b, c in pairs]
        entry["ratio"][name] = dict(spread(ratios),
                                    lower=sum(r < 1.0 for r in ratios))
    return entry


def failures_of(rec, recorded):
    """run.py's check() of one run, plus its need for the fields used here."""
    failures = e2e.check(rec, recorded)
    missing = [f for f in list(METRICS.values()) + ["probe_s"]
               if f not in rec]
    if not failures and missing:
        failures.append(f"record lacks {', '.join(missing)}")
    return failures


def run_binary(binary, spec, seed):
    # run_one launches the module's BINARY.
    e2e.BINARY = binary
    return e2e.run_one(spec, seed, time.monotonic() + e2e.WALL_LIMIT_S)


def run_pairs(run, binaries, spec, workload, first_seed, count):
    """Warms each binary up, then runs `count` alternating pairs through
    run(binary, spec, seed). Returns the (base, change) record pairs, or
    None when a run fails run.py's check()."""
    def checked(side, seed):
        rec = run(binaries[side], spec, seed)
        failures = failures_of(rec, spec["schedule"])
        if failures:
            e2e.log(f"[{workload} {seed} {side}] FAIL " + "; ".join(failures))
            return None
        return rec

    for side in ("base", "change"):
        if checked(side, first_seed) is None:
            return None
    pairs = []
    for i in range(count):
        seed = first_seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        recs = {}
        for side in order:
            recs[side] = checked(side, seed)
            if recs[side] is None:
                return None
        ratio = recs["change"]["run_s"] / recs["base"]["run_s"]
        e2e.log(f"[{workload} {seed}] wall {recs['base']['run_s']:.3f}"
                f" -> {recs['change']['run_s']:.3f} s (x{ratio:.3f})")
        pairs.append((recs["base"], recs["change"]))
    return pairs


def commit():
    """The tree measured: HEAD's short hash, with -dirty when uncommitted
    changes are in it (a change measured before it is committed)."""
    out = subprocess.run(["git", "describe", "--always", "--dirty"],
                         cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    return out.stdout.strip() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the parent's e2e_train")
    ap.add_argument("--change", required=True, help="the change's e2e_train")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--out", default="bench_results/BENCH_e2e.json")
    opts = ap.parse_args()

    spec = e2e.load_workloads()["workloads"][opts.workload]
    binaries = {"base": os.path.abspath(opts.base),
                "change": os.path.abspath(opts.change)}
    pairs = run_pairs(run_binary, binaries, spec, opts.workload,
                      opts.first_seed, opts.pairs)
    if pairs is None:
        return 1

    entry = summarize(pairs)
    entry.update(commit=commit(), nproc=e2e.nproc(),
                 seeds=[opts.first_seed, opts.first_seed + opts.pairs - 1])
    doc = {"workloads": {}}
    if os.path.exists(opts.out):
        with open(opts.out, encoding="utf-8") as f:
            doc = json.load(f)
    doc.setdefault("workloads", {})[opts.workload] = entry
    with open(opts.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(json.dumps({opts.workload: entry["ratio"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Distill bench/micro_gemm output and gate GFLOP/s regressions.

Reads the google-benchmark JSON produced by scripts/bench_smoke.sh, writes
a compact BENCH_gemm.json mapping each shape to its packed-kernel and
frozen-seed-kernel GFLOP/s (and their ratio), then compares against the
checked-in baseline: the run fails if any shape's new/seed speedup dropped
more than the threshold (default 20%) below the baseline's. The tanh
epilogue pair (BM_EpilogueTanh) counts tanh evaluations per second
(Gelem/s) instead and is gated the same way.

The estimator is the best of at least MIN_REPETITIONS interleaved
repetitions per arm: each variant's figure is its highest GFLOP/s over the
repetitions, and a speedup is the ratio of two bests. Other load on the
host only ever slows a repetition, and it slows the two arms of a pair
unequally (the packed kernel streams a 2 MB operand through the shared L2
at m = 1, the seed kernel is compute-bound there), so a ratio of medians
moved with the host's load; each arm's least-disturbed repetition does
not. A run with fewer repetitions fails the gate.

The density sweep (BM_CsrInput*, the dense kernels vs the CSR kernel pair
on the same operands) is recorded per density, plus each product's
crossover under "sparse_crossover": the density at which the CSR kernel
stops being faster, interpolated between the two swept densities around
it; the sweep is not gated, and its lowest crossover sets the dataset's
storage threshold (data::kCsrMaxDensity). BM_StoredInput* times the kernel
the storage rule selects against the other one on inputs on either side
of the rule: the rule fails the gate where its pick runs more than 10%
slower than the other kernel.

Speedup ratios, not absolute GFLOP/s, are gated: absolute throughput varies
across hosts, the ratio of two kernels compiled into the same binary much
less so.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# Benchmarks compare pairs selected by a 0/1 arg: `seed` (production kernel
# vs frozen seed kernel) and `fused` (unfused sequence vs fused epilogue).
# The `csr` (dense kernel vs CSR kernel) and `stored` (the storage rule's
# pick vs the other kernel) pairs run in one benchmark that reports
# <variant>_GFLOP/s for both variants. Maps pair name -> (name of the
# 0-variant, name of the 1-variant, the variant whose GFLOP/s is the
# speedup's numerator).
PAIR_FLAGS = {
    "seed": ("new", "seed", "new"),            # speedup = new / seed
    "fused": ("unfused", "fused", "fused"),    # speedup = fused / unfused
    "csr": ("dense", "csr", "csr"),            # speedup = csr / dense
    "stored": ("other", "stored", "stored"),   # speedup = stored / other
}


# Fewest repetitions per arm the best-of estimator is trusted on.
MIN_REPETITIONS = 9

# Rate counters a benchmark may report, and the field suffix each is
# recorded under: GEMMs count floating-point operations, BM_EpilogueTanh
# counts tanh evaluations.
RATES = {"GFLOP/s": "gflops", "Gelem/s": "gelems"}


def best_rate(bests, variant):
    """A variant's best rate, under whichever counter it reported."""
    return next((bests[f"{variant}_{suffix}"] for suffix in RATES.values()
                 if f"{variant}_{suffix}" in bests), None)


def parse_raw(raw):
    """Group benchmark repetitions into per-shape entries of bests."""
    samples = {}  # shape -> field -> one value per repetition
    flags = {}    # shape -> its PAIR_FLAGS entry
    for b in raw.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        parts = b["name"].split("/")
        args = {}
        plain = []
        for p in parts[1:]:
            if ":" in p:
                k, v = p.split(":", 1)
                args[k] = v
            else:
                plain.append(p)
        args.pop("min_time", None)  # a benchmark's own run length
        flag = next((f for f in PAIR_FLAGS if f in args), None)
        key_args = [f"{k}:{v}" for k, v in args.items() if k not in PAIR_FLAGS]
        key = "/".join([parts[0]] + key_args + plain)
        entry = samples.setdefault(key, {})
        counter = next((c for c in RATES if c in b), None)
        if flag is not None and counter is not None:
            zero_name, one_name, _ = PAIR_FLAGS[flag]
            variant = one_name if args[flag] != "0" else zero_name
            entry.setdefault(f"{variant}_{RATES[counter]}", []).append(
                b[counter])
            flags[key] = flag
        elif counter is not None:
            entry.setdefault(RATES[counter], []).append(b[counter])
        elif "bytes_per_second" in b:
            entry.setdefault("gbytes_per_second", []).append(
                b["bytes_per_second"] / 1e9)
        # Alternating benchmarks time both variants of a pair in one run and
        # report each as <variant>_GFLOP/s.
        variants = {c[:-len("_GFLOP/s")]: v for c, v in b.items()
                    if c.endswith("_GFLOP/s")}
        if variants:
            for variant, value in variants.items():
                entry.setdefault(f"{variant}_gflops", []).append(value)
            flags[key] = next(f for f, names in PAIR_FLAGS.items()
                              if set(names[:2]) == set(variants))
    shapes = {}
    for key, fields in sorted(samples.items()):
        bests = {f: max(v) for f, v in fields.items()}
        entry = shapes[key] = {f: round(v, 3) for f, v in bests.items()}
        flag = flags.get(key)
        if flag is None:
            continue
        zero_name, one_name, num_name = PAIR_FLAGS[flag]
        den_name = one_name if num_name == zero_name else zero_name
        num = best_rate(bests, num_name)
        den = best_rate(bests, den_name)
        if num is not None and den:
            entry["speedup"] = round(num / den, 3)
    return shapes


def sparse_crossovers(shapes):
    """Per swept product, the density where csr/dense speedup falls to 1.

    Linear interpolation between the last density at which the CSR kernel
    is faster and the first at which it is not; null when it is faster (or
    slower) at every swept density.
    """
    sweeps = {}
    for key, entry in shapes.items():
        name, _, arg = key.partition("/permille:")
        if name.startswith("BM_CsrInput") and arg and "speedup" in entry:
            sweeps.setdefault(name, []).append((int(arg), entry["speedup"]))
    out = {}
    for name, points in sorted(sweeps.items()):
        points.sort()
        crossover = None
        for (p0, s0), (p1, s1) in zip(points, points[1:]):
            if s0 >= 1.0 > s1:
                crossover = (p0 + (p1 - p0) * (s0 - 1.0) / (s0 - s1)) / 1000.0
                break
        out[name] = None if crossover is None else round(crossover, 3)
    return out


# Slowest the kernel the storage rule selects may run, as a fraction of
# the other kernel's speed, on any BM_StoredInput* input.
AUTO_FLOOR = 0.9


def gate_selection(current):
    """Return a failure for each input the storage rule slows down."""
    return [f"{key}: the storage rule's kernel at {entry['speedup']:.3f}x "
            f"the other kernel (< {AUTO_FLOOR})"
            for key, entry in sorted(current["shapes"].items())
            if key.startswith("BM_StoredInput")
            and entry.get("speedup", 1.0) < AUTO_FLOOR]


# Pairs the baseline records but gate() leaves alone: the density sweep is
# not gated, and the storage rule has its own floor (gate_selection).
UNGATED = ("BM_CsrInput", "BM_StoredInput")


def gate_repetitions(current):
    """Return a failure when the run is too short for the estimator."""
    reps = current.get("repetitions", 0)
    if reps < MIN_REPETITIONS:
        return [f"run has {reps} repetitions per benchmark; the best-of "
                f"estimator needs at least {MIN_REPETITIONS}"]
    return []


def gate(current, baseline, threshold):
    """Return a list of human-readable failures."""
    failures = []
    for key, base in sorted(baseline.get("shapes", {}).items()):
        if "speedup" not in base or key.startswith(UNGATED):
            continue
        cur = current["shapes"].get(key)
        if cur is None or "speedup" not in cur:
            failures.append(f"{key}: present in baseline but missing from run")
            continue
        floor = base["speedup"] * (1.0 - threshold)
        if cur["speedup"] < floor:
            failures.append(
                f"{key}: speedup {cur['speedup']:.3f} < {floor:.3f} "
                f"(baseline {base['speedup']:.3f} - {threshold:.0%})")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("raw", help="google-benchmark JSON from micro_gemm")
    ap.add_argument("--out", default="bench_results/BENCH_gemm.json")
    ap.add_argument("--baseline",
                    default="bench_results/BENCH_gemm_baseline.json")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="allowed fractional speedup regression (default 0.20)")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline from this run instead of gating")
    opts = ap.parse_args()

    with open(opts.raw) as f:
        raw = json.load(f)
    runs = [b for b in raw.get("benchmarks", [])
            if b.get("run_type") != "aggregate"]
    current = {
        "benchmark": "bench/micro_gemm",
        "build": "HETSGD_NATIVE=ON",
        "host_cpus": raw.get("context", {}).get("num_cpus"),
        # CPUs this process may run on (what `nproc` prints).
        "nproc": len(os.sched_getaffinity(0)),
        "repetitions": max((b.get("repetitions", 1) for b in runs), default=0),
        "shapes": parse_raw(raw),
    }
    current["sparse_crossover"] = sparse_crossovers(current["shapes"])
    out_path = Path(opts.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(current, indent=2) + "\n")
    print(f"wrote {out_path} ({len(current['shapes'])} shapes)")

    base_path = Path(opts.baseline)
    if opts.update_baseline:
        base_path.write_text(json.dumps(current, indent=2) + "\n")
        print(f"baseline updated: {base_path}")
        return 0
    if not base_path.exists():
        print(f"no baseline at {base_path}; run with --update-baseline first",
              file=sys.stderr)
        return 1
    with open(base_path) as f:
        baseline = json.load(f)
    failures = (gate_repetitions(current) +
                gate(current, baseline, opts.threshold) +
                gate_selection(current))
    if failures:
        print("GEMM benchmark regression detected:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"regression gate passed ({opts.threshold:.0%} threshold)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

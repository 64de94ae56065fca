#!/usr/bin/env python3
"""Distill bench/micro_gemm output and gate GFLOP/s regressions.

Reads the google-benchmark JSON produced by scripts/bench_smoke.sh, writes
a compact BENCH_gemm.json mapping each shape to its packed-kernel and
frozen-seed-kernel GFLOP/s (and their ratio), then compares against the
checked-in baseline: the run fails if any shape's new/seed speedup dropped
more than the threshold (default 20%) below the baseline's.

The density sweep (BM_SparseInput*, dense vs zero-skipping path on the
same operands) is recorded per density, plus each product's crossover
under "sparse_crossover": the density at which the zero-skipping path
stops being faster, interpolated between the two swept densities around
it; the sweep is not gated. BM_AutoInput* times the dense kernel against
the selection rule itself on inputs on either side of it, dense hidden
layers included: the rule fails the gate where it runs more than 10%
slower than the dense kernel.

Speedup ratios, not absolute GFLOP/s, are gated: absolute throughput varies
across hosts, the ratio of two kernels compiled into the same binary much
less so.
"""

import argparse
import json
import sys
from pathlib import Path

# Benchmarks compare pairs selected by a 0/1 arg: `seed` (production kernel
# vs frozen seed kernel) and `fused` (unfused sequence vs fused epilogue).
# The `sparse` (dense kernel vs zero-skipping path) and `auto` (dense kernel
# vs selection rule) pairs run in one benchmark that reports
# <variant>_GFLOP/s for both variants. Maps pair name -> (name of the
# 0-variant, name of the 1-variant, the variant whose GFLOP/s is the
# speedup's numerator).
PAIR_FLAGS = {
    "seed": ("new", "seed", "new"),          # speedup = new / seed
    "fused": ("unfused", "fused", "fused"),  # speedup = fused / unfused
    "sparse": ("dense", "sparse", "sparse"),  # speedup = sparse / dense
    "auto": ("dense", "auto", "auto"),       # speedup = auto / dense
}


def parse_raw(raw):
    """Group benchmark repetitions into per-shape entries."""
    shapes = {}
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
        entry = shapes.setdefault(key, {})
        gflops = b.get("GFLOP/s")
        if flag is not None and gflops is not None:
            zero_name, one_name, _ = PAIR_FLAGS[flag]
            variant = one_name if args[flag] != "0" else zero_name
            entry[f"{variant}_gflops"] = round(gflops, 3)
            entry["_flag"] = flag
        elif gflops is not None:
            entry["gflops"] = round(gflops, 3)
        elif "bytes_per_second" in b:
            entry["gbytes_per_second"] = round(b["bytes_per_second"] / 1e9, 3)
        # Alternating benchmarks time both variants of a pair in one run and
        # report each as <variant>_GFLOP/s.
        variants = {c[:-len("_GFLOP/s")]: v for c, v in b.items()
                    if c.endswith("_GFLOP/s")}
        if variants:
            for variant, value in variants.items():
                entry[f"{variant}_gflops"] = round(value, 3)
            entry["_flag"] = next(f for f, names in PAIR_FLAGS.items()
                                  if set(names[:2]) == set(variants))
    for entry in shapes.values():
        flag = entry.pop("_flag", None)
        if flag is None:
            continue
        zero_name, one_name, num_name = PAIR_FLAGS[flag]
        den_name = one_name if num_name == zero_name else zero_name
        num = entry.get(f"{num_name}_gflops")
        den = entry.get(f"{den_name}_gflops")
        if num is not None and den:
            entry["speedup"] = round(num / den, 3)
    return shapes


def sparse_crossovers(shapes):
    """Per swept product, the density where sparse/dense speedup falls to 1.

    Linear interpolation between the last density at which the zero-skipping
    path is faster and the first at which it is not; null when it is faster
    (or slower) at every swept density.
    """
    sweeps = {}
    for key, entry in shapes.items():
        name, _, arg = key.partition("/permille:")
        if name.startswith("BM_SparseInput") and arg and "speedup" in entry:
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


# Slowest the selection rule may run, as a fraction of the dense kernel's
# speed, on any BM_AutoInput* input.
AUTO_FLOOR = 0.9


def gate_selection(current):
    """Return a failure for each input the selection rule slows down."""
    return [f"{key}: selection rule at {entry['speedup']:.3f}x the dense "
            f"kernel (< {AUTO_FLOOR})"
            for key, entry in sorted(current["shapes"].items())
            if key.startswith("BM_AutoInput")
            and entry.get("speedup", 1.0) < AUTO_FLOOR]


def gate(current, baseline, threshold):
    """Return a list of human-readable failures."""
    failures = []
    for key, base in sorted(baseline.get("shapes", {}).items()):
        if "speedup" not in base:
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
    current = {
        "benchmark": "bench/micro_gemm",
        "build": "HETSGD_NATIVE=ON",
        "host_cpus": raw.get("context", {}).get("num_cpus"),
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
    failures = gate(current, baseline, opts.threshold) + gate_selection(current)
    if failures:
        print("GEMM benchmark regression detected:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"regression gate passed ({opts.threshold:.0%} threshold)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

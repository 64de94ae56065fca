#!/usr/bin/env bash
# Micro-benchmark smoke run + regression gates: GEMM throughput and
# tracing overhead.
#
# Builds bench/micro_gemm in a HETSGD_NATIVE=ON build (the packed kernel's
# tuned configuration), runs the skinny/dense and k = 1 shape sweeps against
# the frozen seed kernel compiled into the same binary, distills the GFLOP/s
# counters into bench_results/BENCH_gemm.json, and fails if any shape
# regressed more than 20% against the checked-in baseline
# (bench_results/BENCH_gemm_baseline.json). Every benchmark runs 9 times in
# random order; the gate compares each variant's best repetition. Then
# records (ungated) bench/micro_hogwild's lane throughput in
# bench_results/BENCH_hogwild.json.
#
# Usage:
#   scripts/bench_smoke.sh                    # run + gate
#   scripts/bench_smoke.sh --update-baseline  # run + rewrite the baseline
#
# Absolute GFLOP/s vary across hosts; the gate compares new/seed *ratios*,
# which are stable for a given ISA. Refresh the baseline with
# --update-baseline when benchmarking on a different machine class.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-native}
RAW_JSON=$BUILD_DIR/micro_gemm_raw.json

cmake -B "$BUILD_DIR" -S . \
  -DHETSGD_NATIVE=ON \
  -DHETSGD_BUILD_TESTS=OFF \
  -DHETSGD_BUILD_EXAMPLES=OFF \
  -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" --target micro_gemm -j"$(nproc)"

"$BUILD_DIR/bench/micro_gemm" \
  --benchmark_min_time=0.3 \
  --benchmark_repetitions=9 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_out="$RAW_JSON" \
  --benchmark_out_format=json

python3 scripts/check_bench_regression.py "$RAW_JSON" \
  --out bench_results/BENCH_gemm.json \
  --baseline bench_results/BENCH_gemm_baseline.json \
  "$@"

# Hogwild lane throughput (DESIGN.md §10): single-example in-place SGD
# steps from 1..4 lanes on one shared model, on a small MLP and on
# delicious at bench scale. Recorded, not gated: lane timings follow the
# host's load far more than any kernel ratio.
cmake --build "$BUILD_DIR" --target micro_hogwild -j"$(nproc)"
"$BUILD_DIR/bench/micro_hogwild" \
  --benchmark_filter=BM_HogwildLanes \
  --benchmark_min_time=0.3 \
  --benchmark_repetitions=5 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_report_aggregates_only=true \
  --benchmark_out=bench_results/BENCH_hogwild.json \
  --benchmark_out_format=json

# Tracing-overhead gate (DESIGN.md §12): micro_trace times the same
# batch-shaped workload with the tracer off and on, and fails if the
# tracing tax exceeds 3%. The binary gates itself; BENCH_trace.json
# records the measurement alongside BENCH_gemm.json.
cmake --build "$BUILD_DIR" --target micro_trace -j"$(nproc)"
"$BUILD_DIR/bench/micro_trace" --out bench_results/BENCH_trace.json

# Backend dispatch gate (DESIGN.md §13): micro_backend times one MLP-layer
# kernel sequence directly and through backend::Backend's view-taking
# kernels, and fails if the backend's per-call tax exceeds 2%. Self-gating
# like micro_trace; BENCH_backend.json records the measurement.
cmake --build "$BUILD_DIR" --target micro_backend -j"$(nproc)"
"$BUILD_DIR/bench/micro_backend" --out bench_results/BENCH_backend.json

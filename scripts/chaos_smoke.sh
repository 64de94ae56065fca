#!/usr/bin/env bash
# Chaos smoke: drive the adaptive example through every fault class and
# fail on crash, hang, or non-finite final loss.
#
# Classes exercised (one run each, plus a combined run):
#   die       permanent worker death mid-epoch -> reclamation + survivors
#   stall     virtual slowdown + real sleep    -> deadline miss + quarantine
#   transfer  transient device-copy failures   -> worker-local retry
#   nan       gradient corruption              -> divergence rollback
#   elastic   a GPU worker joins, worker 1 retires (--elastic-plan, no
#             fault plan)                      -> reclamation + joiner
#
# covtype_adaptive exits non-zero when the final loss is non-finite, so a
# failed recovery fails the script; `timeout` converts a hung coordinator
# (shutdown waiting on a dead actor) into a failure instead of a wedge.
#
# Most classes also emit --trace-out / --metrics-out artifacts, validated
# with scripts/validate_trace.py: the trace must show the
# reclaim/redispatch/rollback/membership story and a batch flow crossing
# threads, not merely parse.
#
# With --tsan, additionally builds with -fsanitize=thread and runs the
# suites tests/CMakeLists.txt marks `tsan` under it (slow; needs libtsan).
#
# Usage:
#   scripts/chaos_smoke.sh            # fault classes against ./build
#   scripts/chaos_smoke.sh --tsan     # + TSan pass over concurrency tests
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
RUN_TIMEOUT=${RUN_TIMEOUT:-120}
WITH_TSAN=0
[[ "${1:-}" == "--tsan" ]] && WITH_TSAN=1

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" --target covtype_adaptive -j"$(nproc)" >/dev/null

ADAPTIVE="$BUILD_DIR/examples/covtype_adaptive"
COMMON_ARGS=(--scale 0.005 --budget 4
             --fault-deadline-factor 2 --fault-grace-ticks 5)

run_class() {
  local name=$1 plan=$2
  shift 2
  echo "=== chaos class: $name ==="
  if ! timeout "$RUN_TIMEOUT" "$ADAPTIVE" "${COMMON_ARGS[@]}" \
      --fault-plan "$plan" "$@" >"$BUILD_DIR/chaos_$name.log" 2>&1; then
    echo "FAIL: $name (crash, hang, or non-finite loss)"
    tail -25 "$BUILD_DIR/chaos_$name.log"
    exit 1
  fi
  grep -E "dispatched .* = reported .* \+ reclaimed|final loss" \
    "$BUILD_DIR/chaos_$name.log" | sed 's/^/  /'
}

run_class die      "die:worker=1,atfrac=0.3" --fault-quarantine-after 1 \
                   --trace-out "$BUILD_DIR/chaos_die_trace.json"
run_class stall    "stall:worker=0,atfrac=0.2,factor=50,sleep=150" \
                   --fault-quarantine-after 1 \
                   --trace-out "$BUILD_DIR/chaos_stall_trace.json"
run_class transfer "transfer:worker=1,atfrac=0.4,count=2"
run_class nan      "nan:worker=0,atfrac=0.3" \
                   --trace-out "$BUILD_DIR/chaos_nan_trace.json" \
                   --metrics-out "$BUILD_DIR/chaos_nan_metrics.jsonl" \
                   --metrics-interval 100
run_class combined "stall:worker=0,atfrac=0.2,factor=20,sleep=100;transfer:worker=1,atfrac=0.3,count=2;nan:worker=1,atfrac=0.5;die:worker=0,atfrac=0.7" \
                   --fault-quarantine-after 2 \
                   --trace-out "$BUILD_DIR/chaos_combined_trace.json"
run_class elastic  "" \
                   --elastic-plan "join:kind=gpu,atfrac=0.3;retire:worker=1,atfrac=0.6" \
                   --trace-out "$BUILD_DIR/chaos_elastic_trace.json" \
                   --metrics-out "$BUILD_DIR/chaos_elastic_metrics.jsonl" \
                   --metrics-interval 100

echo "=== all fault classes recovered ==="

# The traces must tell the recovery story, not merely exist. Each class
# pins the outcome it produces deterministically: a dead worker's batch is
# reclaimed and re-dispatched, a straggler is quarantined after its
# deadline miss, a NaN gradient triggers the divergence rollback, and the
# elastic run records both membership changes and publishes the joiner's
# (worker 2's) gauges. Every trace must show at least one batch whose flow
# events cross threads (dispatch on the coordinator, execution on a
# worker); the combined run's fault interleaving is timing-dependent, so
# only its structure is checked.
echo "=== validating trace/metrics artifacts ==="
python3 scripts/validate_trace.py \
  --trace "$BUILD_DIR/chaos_die_trace.json" \
  --require-instant reclaim --require-instant redispatch \
  --require-span execute --require-span ledger_apply \
  --require-flow
python3 scripts/validate_trace.py \
  --trace "$BUILD_DIR/chaos_stall_trace.json" \
  --require-instant deadline-miss --require-instant quarantine \
  --require-flow
python3 scripts/validate_trace.py \
  --trace "$BUILD_DIR/chaos_nan_trace.json" \
  --require-instant rollback \
  --require-flow \
  --metrics "$BUILD_DIR/chaos_nan_metrics.jsonl" \
  --require-metric hetsgd_rollbacks_total \
  --require-metric hetsgd_reclaims_total \
  --require-metric hetsgd_fault_records
python3 scripts/validate_trace.py \
  --trace "$BUILD_DIR/chaos_combined_trace.json" --require-flow
python3 scripts/validate_trace.py \
  --trace "$BUILD_DIR/chaos_elastic_trace.json" \
  --require-instant worker-join --require-instant worker-retire \
  --require-flow \
  --metrics "$BUILD_DIR/chaos_elastic_metrics.jsonl" \
  --require-metric hetsgd_worker2_updates
echo "=== observability artifacts valid ==="

if [[ $WITH_TSAN -eq 1 ]]; then
  TSAN_DIR=${TSAN_DIR:-build-tsan}
  echo "=== TSan pass: the suites labelled tsan in tests/CMakeLists.txt ==="
  cmake -B "$TSAN_DIR" -S . \
    -DHETSGD_SANITIZE=thread \
    -DHETSGD_BUILD_BENCH=OFF \
    -DHETSGD_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "$TSAN_DIR" --target tsan_tests -j"$(nproc)" >/dev/null
  # Hogwild's unsynchronized model writes are by design; tsan.supp masks
  # exactly that path, so any report that survives is a real race: it
  # makes the test exit 66 and fail.
  export TSAN_OPTIONS="suppressions=$PWD/scripts/tsan.supp exitcode=66"
  if ! ctest --test-dir "$TSAN_DIR" -L tsan --timeout $((RUN_TIMEOUT * 5)) \
      --output-on-failure >"$TSAN_DIR/tsan_tests.log" 2>&1; then
    echo "FAIL: a tsan-labelled test failed or raised a TSan report"
    tail -40 "$TSAN_DIR/tsan_tests.log"
    exit 1
  fi
  tail -3 "$TSAN_DIR/tsan_tests.log"
  echo "=== TSan pass clean ==="
fi

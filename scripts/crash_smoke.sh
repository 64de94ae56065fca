#!/usr/bin/env bash
# Crash/resume smoke: SIGKILL the trainer at varying points and verify
# every restart resumes from a valid checkpoint.
#
# Each iteration wipes the checkpoint directory, then:
#   1. runs covtype_adaptive with --checkpoint-dir and a `crash` fault
#      injection (std::raise(SIGKILL) inside a worker: no destructors, no
#      flushes — simulated power loss). Expected exit: 137 (killed), or 0
#      when the run finished before the crash point.
#   2. when the crash leg was killed as planned, resumes a copy of the
#      directory under the same --fault-plan. The plan's record beside the
#      checkpoints keeps every entry that already fired (the crash
#      included) from firing again, so this leg must finish.
#   3. restarts with --resume pointing at the same directory and no plan.
#      The restart must exit 0; when the killed run managed to cut at
#      least one checkpoint, the restart must report "resumed from
#      checkpoint" — a torn or corrupt file that load_latest cannot fall
#      back from fails the iteration.
#
# The crash fraction sweeps the whole run and alternates the crashing
# worker, so cuts are interrupted at every phase: before the first epoch
# barrier, mid write, mid rename, after the last cut. In every other
# iteration the other worker is killed first (a `die` fault at half the
# crash fraction), so the restart resumes from cuts holding a dead worker,
# which the resumed run revives from its checkpointed ledger stats.
#
# Observability artifacts ride along: the killed run streams metrics
# JSONL (validated torn-tail-tolerant — SIGKILL may clip the final line,
# never an earlier one) and the resume leg writes a trace that must load
# and show work flowing coordinator -> worker.
#
# Usage:
#   scripts/crash_smoke.sh              # 20 kill+resume iterations
#   ITERATIONS=5 scripts/crash_smoke.sh # quicker
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
RUN_TIMEOUT=${RUN_TIMEOUT:-120}
ITERATIONS=${ITERATIONS:-20}

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" --target covtype_adaptive -j"$(nproc)" >/dev/null

ADAPTIVE="$BUILD_DIR/examples/covtype_adaptive"
CKPT_DIR="$BUILD_DIR/crash_smoke_ckpt"
KEPT_DIR="$BUILD_DIR/crash_smoke_kept_ckpt"
COMMON_ARGS=(--scale 0.005 --budget 4)

for ((i = 0; i < ITERATIONS; ++i)); do
  # Sweep the crash point across the run; alternate the crashing worker.
  frac=$(awk -v i="$i" -v n="$ITERATIONS" \
    'BEGIN { printf "%.3f", 0.10 + 0.80 * i / (n - 1) }')
  worker=$((i % 2))
  plan="crash:worker=$worker,atfrac=$frac"
  if ((i % 2 == 0)); then
    die_frac=$(awk -v f="$frac" 'BEGIN { printf "%.3f", f / 2 }')
    plan="die:worker=$((1 - worker)),atfrac=$die_frac;$plan"
  fi
  rm -rf "$CKPT_DIR"
  echo "=== iteration $i: $plan ==="

  crash_log="$BUILD_DIR/crash_smoke_$i.log"
  crash_metrics="$BUILD_DIR/crash_smoke_${i}_metrics.jsonl"
  set +e
  timeout "$RUN_TIMEOUT" "$ADAPTIVE" "${COMMON_ARGS[@]}" \
    --checkpoint-dir "$CKPT_DIR" \
    --fault-plan "$plan" \
    --metrics-out "$crash_metrics" --metrics-interval 50 \
    >"$crash_log" 2>&1
  status=$?
  set -e

  # The killed run's metrics stream is the crash-consistency half of the
  # observability contract: every completed JSONL line must still parse;
  # only the final line may be torn by the SIGKILL. (A run killed before
  # its first 50ms snapshot leaves the file empty — nothing to check.)
  if [[ -s "$crash_metrics" ]]; then
    python3 scripts/validate_trace.py \
      --metrics "$crash_metrics" --allow-torn-tail
  fi
  if [[ $status -ne 137 && $status -ne 0 ]]; then
    echo "FAIL: crash leg exited $status (expected 137 SIGKILL or 0)"
    tail -25 "$crash_log"
    exit 1
  fi

  had_checkpoint=0
  compgen -G "$CKPT_DIR/ckpt-*.hetsgd" >/dev/null && had_checkpoint=1

  if [[ $status -eq 137 ]]; then
    rm -rf "$KEPT_DIR"
    cp -r "$CKPT_DIR" "$KEPT_DIR"
    kept_log="$BUILD_DIR/crash_smoke_${i}_kept.log"
    if ! timeout "$RUN_TIMEOUT" "$ADAPTIVE" "${COMMON_ARGS[@]}" \
        --checkpoint-dir "$KEPT_DIR" --resume "$KEPT_DIR" \
        --fault-plan "$plan" >"$kept_log" 2>&1 \
        || ! grep -q "final loss" "$kept_log"; then
      echo "FAIL: resume under the same fault plan did not finish"
      tail -25 "$kept_log"
      exit 1
    fi
    echo "  resumed under the same plan: finished"
  fi

  resume_log="$BUILD_DIR/crash_smoke_${i}_resume.log"
  resume_trace="$BUILD_DIR/crash_smoke_${i}_trace.json"
  if ! timeout "$RUN_TIMEOUT" "$ADAPTIVE" "${COMMON_ARGS[@]}" \
      --checkpoint-dir "$CKPT_DIR" --resume "$CKPT_DIR" \
      --trace-out "$resume_trace" \
      >"$resume_log" 2>&1; then
    echo "FAIL: resume leg crashed, hung, or hit non-finite loss"
    tail -25 "$resume_log"
    exit 1
  fi
  # The resume leg runs to completion, so its trace must be a loadable
  # timeline with work flowing coordinator -> worker.
  python3 scripts/validate_trace.py --trace "$resume_trace" \
    --require-span execute --require-flow
  if [[ $had_checkpoint -eq 1 ]] \
      && ! grep -q "resumed from checkpoint" "$resume_log"; then
    echo "FAIL: checkpoints existed but the restart did not resume"
    tail -25 "$resume_log"
    exit 1
  fi
  if ! grep -q "final loss" "$resume_log"; then
    echo "FAIL: resume leg produced no final loss"
    tail -25 "$resume_log"
    exit 1
  fi
  if [[ $status -eq 137 ]]; then
    killed="killed as planned"
  else
    killed="finished before the crash point"
  fi
  if [[ $had_checkpoint -eq 1 ]]; then
    echo "  crash leg $killed; resumed from checkpoint: OK"
  else
    echo "  crash leg $killed before the first cut; fresh restart: OK"
  fi
done

echo "=== $ITERATIONS kill+resume iterations, all restarts recovered ==="

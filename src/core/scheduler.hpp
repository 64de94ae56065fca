// The coordinator's scheduling policy (§VI): Algorithm 1 and Algorithm 2's
// ScheduleWork logic as a single-threaded class that takes worker reports
// and returns dispatches. It has no thread, no mailbox and no model, knows
// of the dataset only its example count, and reads no clock: every time it
// handles comes from a report or its caller. Coordinator is the actor
// shell around it.
//
// Each worker has one record: the ledger's WorkerStats (progress: clock,
// busy time, update count, batch, device kind) and a WorkerSchedule of the
// same id, both written by add_worker alone.
//
// Once nothing is in flight,
//   examples_dispatched == ledger.total_examples + examples_reclaimed:
// the late report of a reclaimed range adds no examples. Deadlines,
// strikes and the grace path (DESIGN.md §9) run when
// fault.deadline_factor > 0.
//
// Concurrency contract (DESIGN.md §10, regime 2): not synchronized; after
// start only the coordinator's actor thread touches it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/config.hpp"
#include "core/update_ledger.hpp"
#include "core/utilization.hpp"
#include "gpusim/perf_model.hpp"
#include "msg/message.hpp"
#include "tensor/types.hpp"

namespace hetsgd::core {

// A worker's batch thresholds [min, max] (Algorithm 2's minimum-utilization
// guarantee) and quantum: batches stay multiples of the CPU worker's lane
// count, so its sub-batches stay whole.
struct BatchLimits {
  tensor::Index initial = 0;
  tensor::Index min = 0;
  tensor::Index max = 0;
  tensor::Index quantum = 1;
};

// The scheduling half of a worker's record.
struct WorkerSchedule {
  BatchLimits limits;
  // A worker joining a run in progress counts from zero; Algorithm 2 adds
  // this credit, the smallest active peer count at the join, so it treats
  // the newcomer as a peer rather than as the all-time slowest.
  std::uint64_t credit = 0;
  bool busy = false;
  bool waiting = false;      // has an unserved work request
  bool finished = false;     // reached the time budget
  bool retired = false;      // removed from membership mid-run
  bool failed = false;       // reported a fatal fault or its mailbox closed
  bool quarantined = false;  // excluded from scheduling after repeats
  std::int64_t fault_count = 0;         // consecutive faults (reset on report)
  std::uint64_t dispatch_seq = 0;       // last issued sequence number
  std::uint64_t reclaimed_through = 0;  // sequences <= this were reclaimed
  tensor::Index inflight_begin = 0;
  tensor::Index inflight_size = 0;  // 0 = nothing in flight
  double est_completion = 0.0;
  double deadline_vtime = 0.0;
};

// Rounds `b` to the nearest multiple of the quantum (at least one quantum),
// then clamps it into [min, max].
tensor::Index clamp_batch(tensor::Index b, const BatchLimits& limits);

// The count Algorithm 2 compares: floor(beta * u) for a CPU worker (beta is
// the fraction of Hogwild updates taken to survive the lanes' overwrites),
// u for a GPU worker, plus the join credit. Workers report exact counts.
std::uint64_t compared_updates(const WorkerStats& stats,
                               const WorkerSchedule& schedule, double beta);

// Algorithm 2 lines 1-5 (§VI-C) for worker e; stats[i] and schedule[i] are
// worker i's record. Below the minimum compared count of the other
// non-retired workers, e is the slowest and its batch shrinks to
// floor(b / alpha); above their maximum it is the fastest and grows to
// ceil(b * alpha); either step is held in [min, max] and rounded to the
// quantum. A retired worker, or one with no peer, keeps its batch.
struct Resize {
  tensor::Index batch = 0;  // e's next batch
  bool clamped = false;     // a threshold cut the alpha step short
};
Resize adaptive_batch(const std::vector<WorkerStats>& stats,
                      const std::vector<WorkerSchedule>& schedule,
                      msg::WorkerId e, double alpha, double beta);

class Scheduler {
 public:
  // Sends `work` (all but its learning-rate scale) to worker `id`; false
  // when the worker's mailbox is closed.
  using Send = std::function<bool(msg::WorkerId id, msg::ExecuteWork work)>;

  // `examples` is the dataset's example count. Aborts on alpha <= 1.
  Scheduler(const TrainingConfig& config, tensor::Index examples);

  // The one registration path, for initial and joining workers alike. Ids
  // are dense in call order. A joiner's first batch is cost-matched to its
  // active peers' and its count credited with their minimum.
  msg::WorkerId add_worker(std::string name, gpusim::DeviceKind kind,
                           bool joining);

  void on_report(const msg::ScheduleWork& report);
  // The worker escalated a fatal fault: reclaim its batch, quarantine it.
  void on_worker_fault(const msg::WorkerFault& fault);
  // Retires a worker at `vtime`, reclaiming its in-flight batch; false for
  // an unknown or already retired worker.
  bool retire(msg::WorkerId id, double vtime);
  // A retired worker's mailbox was already closed.
  void mark_failed(msg::WorkerId id) {
    workers_.at(static_cast<std::size_t>(id)).failed = true;
  }
  // The real-time grace path: reclaims every busy worker the virtual
  // frontier left past its deadline, or with none and `extended` (the
  // frontier may be frozen), the one with the earliest deadline. True when
  // anything was reclaimed.
  bool reclaim_overdue(bool extended);
  // The run stops: in-flight ranges count as reclaimed.
  void reclaim_all();

  // Marks workers past the budget finished, then runs passes until one
  // dispatches nothing: each pass tests the epoch barrier, then serves idle
  // workers in clock order up to the frontier, reclaimed ranges first.
  // Returns true when the barrier passed (*anyone_active: a worker still
  // asks for or runs work; a flip with none ends the run). The caller then
  // runs the flip, calls begin_epoch, and dispatches again.
  bool dispatch(const Send& send, bool* anyone_active);
  // The next epoch starts from example 0 at `boundary`, or with
  // charge_loss_eval_to_gpu after the end-of-epoch evaluation, charged to
  // every GPU worker at full utilization (the spike of Fig 7).
  void begin_epoch(double boundary);

  // The scheduler's part of a checkpoint: epoch, counters, worker records.
  void checkpoint(TrainingCheckpoint* ckpt) const;
  // Restores that part, clamping each batch into the worker's limits (the
  // file is outside input). False + *error for an unknown worker or one of
  // another device kind.
  bool restore(const TrainingCheckpoint& ckpt, std::string* error);

  void record_fault(FaultRecord record) {
    ledger_.record_fault(std::move(record));
  }
  bool deadlines_enabled() const {
    return config_.fault.deadline_factor > 0.0;
  }
  bool any_busy() const;

  const UpdateLedger& ledger() const { return ledger_; }
  const UtilizationMonitor& monitor() const { return monitor_; }
  const WorkerSchedule& schedule(msg::WorkerId id) const {
    return workers_.at(static_cast<std::size_t>(id));
  }
  std::uint64_t epoch() const { return epoch_; }
  double epochs_completed() const;
  std::uint64_t examples_dispatched() const { return examples_dispatched_; }
  std::uint64_t examples_reclaimed() const { return examples_reclaimed_; }
  std::uint64_t late_examples() const { return late_examples_; }

 private:
  bool schedulable(const WorkerSchedule& w) const {
    return !w.failed && !w.quarantined && !w.finished && !w.retired;
  }
  // Reclaimed and silent since (perhaps dead): holds no work, so it does
  // not hold the barrier; a late report re-activates it.
  static bool suspended(const WorkerSchedule& w) {
    return w.fault_count > 0 && !w.busy && !w.waiting;
  }
  // Worker `id`'s batch, clamped to one dataset pass.
  tensor::Index batch_for(msg::WorkerId id) const;
  double estimate_cost(gpusim::DeviceKind kind, tensor::Index batch) const;
  // The quantum multiple in `limits` whose estimated cost on `kind` best
  // matches the mean estimated cost of the active workers' batches.
  tensor::Index seed_batch(gpusim::DeviceKind kind,
                           const BatchLimits& limits) const;
  // True when the epoch ends (counted and traced here).
  bool barrier(bool* anyone_active);
  void dispatch_range(msg::WorkerId id, tensor::Index begin,
                      tensor::Index size, bool reclaimed, const Send& send);
  // Returns the in-flight range to the pool; a report for it is then late.
  void reclaim_inflight(msg::WorkerId id, double vtime,
                        const std::string& why);
  // Counts a fault against the worker; quarantines past the threshold.
  void note_fault(msg::WorkerId id, double vtime);

  const TrainingConfig& config_;  // immutable for the run
  const tensor::Index examples_;
  const bool adaptive_;  // Algorithm 2; otherwise Algorithm 1
  gpusim::PerfModel cpu_perf_;
  gpusim::PerfModel gpu_perf_;

  UpdateLedger ledger_;
  UtilizationMonitor monitor_;
  std::vector<WorkerSchedule> workers_;  // parallel to ledger_.all()

  tensor::Index cursor_ = 0;  // next unassigned example
  std::uint64_t epoch_ = 0;
  double epoch_start_vtime_ = 0.0;
  // Ranges lost to deadline misses and faults, awaiting re-dispatch.
  // Dropped at epoch flips: they index the old permutation.
  std::vector<std::pair<tensor::Index, tensor::Index>> reclaim_pool_;
  std::uint64_t examples_dispatched_ = 0;
  std::uint64_t examples_reclaimed_ = 0;
  std::uint64_t late_reports_ = 0;
  std::uint64_t late_examples_ = 0;
};

}  // namespace hetsgd::core

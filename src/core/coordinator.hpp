// The coordinator (§V-A): assigns batches to workers, owns the adaptive
// batch-size policy, tracks updates/utilization, and manages epochs.
//
// One Actor thread processing ScheduleWork requests strictly in arrival
// order (the paper's serialized message handling). Bulk data never moves:
// an ExecuteWork carries only an index range into the shared dataset.
//
// Virtual-time gating. Workers charge modeled costs to their logical
// clocks. To keep the *assignment* schedule faithful to the modeled
// hardware rather than to this host's real speed, the coordinator releases
// a new batch to an idle worker only while that worker's clock does not
// run ahead of the earliest estimated completion among busy workers. Both
// workers stay busy in real time — the fast device simply executes its
// many virtual batches while the slow one executes its single one.
//
// Self-healing layer (DESIGN.md §9, enabled by fault.deadline_factor > 0).
// Every dispatch carries a sequence number and a virtual-time deadline of
// k x the estimated batch cost. When the virtual frontier passes a busy
// worker's deadline — or, as a real-time fallback, when all workers go
// silent for stall_grace_ticks idle ticks — the batch range is reclaimed
// into a pool and re-dispatched to healthy workers; repeated faults
// quarantine the worker. Late reports for reclaimed batches are folded in
// without double-counting examples, preserving the ledger invariant
//   examples_dispatched == ledger.total_examples + examples_reclaimed.
// Independently of the deadline layer, a non-finite evaluated loss rolls
// the shared model back to the last finite-loss snapshot and backs the
// learning rate off (or aborts the run, per config).
//
// Elastic membership (DESIGN.md §11). config.elastic_plan's join/retire
// events fire at the virtual frontier, in trigger order: in the handler of
// the first report that carries the ledger's max clock to an event's
// trigger (after the report is folded, before evaluation points and
// dispatch), or in on_start for a trigger the frontier already reached.
//
// Concurrency contract (DESIGN.md §10, regime 2). After start(), only the
// actor thread touches coordinator state, its UpdateLedger included: every
// input arrives through the mailbox, elastic events fire in the handler,
// and metrics are published where their values change. The setup calls
// (add_worker, set_worker_factory, set_checkpoint_manager, restore) run
// before start(); the result accessors after join(), which is the
// happens-before edge. The shared `model_` and `dataset_` references are
// the paper's sanctioned Hogwild race sites (see scripts/tsan.supp and the
// `hetsgd-racy` waivers at the access sites).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "backend/backend.hpp"
#include "backend/mlp_executor.hpp"
#include "core/adaptive.hpp"
#include "core/checkpoint.hpp"
#include "core/config.hpp"
#include "core/elastic.hpp"
#include "core/fault.hpp"
#include "core/update_ledger.hpp"
#include "core/utilization.hpp"
#include "data/dataset.hpp"
#include "msg/actor.hpp"
#include "nn/model.hpp"

namespace hetsgd::core {

class Coordinator final : public msg::Actor {
 public:
  // Builds the worker an elastic join adds, with dense id `id`. Runs on the
  // coordinator thread; the caller keeps ownership of the returned actor
  // (it must outlive the coordinator's loop), the coordinator starts it.
  using WorkerFactory =
      std::function<msg::Actor&(msg::WorkerId id, gpusim::DeviceKind kind)>;

  // `dataset` is shuffled in place at epoch boundaries; `model` is the
  // global model shared with the workers. `eval_sample` examples are
  // copied out for loss tracking (0 = evaluate on the full dataset).
  // Aborts on a malformed config.elastic_plan.
  Coordinator(data::Dataset& dataset, nn::Model& model,
              const TrainingConfig& config, tensor::Index eval_sample);

  // Registers a worker before start(). Ids are assigned densely in call
  // order and must match the worker's own id; its batch limits follow
  // from the config and its device kind.
  void add_worker(msg::Actor& actor, gpusim::DeviceKind kind);

  // Supplies the workers config.elastic_plan's joins add. Call before
  // start(); a plan with a join needs one.
  void set_worker_factory(WorkerFactory factory) {
    make_worker_ = std::move(factory);
  }

  // --- crash-consistent checkpointing ------------------------------------
  // Attaches the checkpoint sink. Call before start(); the manager must
  // outlive the coordinator. With a manager attached, a full training
  // checkpoint (model + RNG + clocks + ledger + controller) is cut at
  // the quiescent epoch barrier whenever fault.checkpoint_interval_vseconds
  // of virtual time have elapsed (0 = every epoch flip).
  void set_checkpoint_manager(CheckpointManager* manager) {
    ckpt_mgr_ = manager;
  }

  // Restores coordinator state from a loaded checkpoint. Call after all
  // workers are registered and before start(). Verifies that the RNG
  // stream replayed over `ckpt.epoch - 1` dataset shuffles lands exactly
  // on the checkpointed state — a mismatch means the config/dataset differ
  // from the checkpointing run, and the restore is refused. The workers'
  // own clocks, busy times and update counters are restored separately by
  // the Trainer, from the same per-worker ledger stats
  // (Worker::restore_progress).
  bool restore(const TrainingCheckpoint& ckpt, std::string* error);

  // --- results (after join()) ---------------------------------------------
  const UpdateLedger& ledger() const { return ledger_; }
  const UtilizationMonitor& monitor() const { return monitor_; }
  const std::vector<LossPoint>& loss_curve() const { return curve_; }
  double epochs_completed() const;
  double final_vtime() const { return ledger_.max_clock(); }

  // Fault-tolerance accounting. The invariant
  //   examples_dispatched() == ledger().total_examples() +
  //   examples_reclaimed()
  // holds whenever the coordinator thread is between messages.
  std::uint64_t examples_dispatched() const { return examples_dispatched_; }
  std::uint64_t examples_reclaimed() const { return examples_reclaimed_; }
  std::uint64_t late_examples() const { return late_examples_; }
  std::uint64_t rollbacks() const { return rollbacks_; }
  std::uint64_t checkpoints_written() const { return checkpoints_written_; }
  std::uint64_t workers_joined() const { return joins_; }
  std::uint64_t workers_retired() const { return retires_; }
  std::uint64_t quarantined_workers() const;
  double lr_scale() const { return lr_scale_; }
  bool diverged() const { return diverged_; }

 protected:
  bool handle(msg::Envelope envelope) override;
  void on_start() override;
  bool on_idle() override;

 private:
  struct WorkerRuntime {
    msg::Actor* actor = nullptr;
    gpusim::DeviceKind kind = gpusim::DeviceKind::kCpu;
    bool busy = false;
    bool waiting = false;   // has an unserved work request
    bool finished = false;  // reached the time budget
    bool retired = false;   // removed from membership mid-run
    double est_completion = 0.0;

    // --- fault-tolerance state ------------------------------------------
    bool failed = false;       // actor reported a fatal fault / dead mailbox
    bool quarantined = false;  // excluded from scheduling after repeats
    std::int64_t fault_count = 0;  // consecutive faults (reset on report)
    std::uint64_t dispatch_seq = 0;      // last issued sequence number
    std::uint64_t reclaimed_through = 0; // sequences <= this were reclaimed
    tensor::Index inflight_begin = 0;
    tensor::Index inflight_size = 0;  // 0 = nothing in flight
    double deadline_vtime = 0.0;      // virtual deadline of the dispatch
  };

  // The one registration path of initial and joining workers: runtime
  // entry, ledger, controller and utilization monitor. A joiner's first
  // batch is seeded from the cost model and its Algorithm-2 count credited
  // with the minimum active peer count.
  void register_worker(msg::Actor& actor, gpusim::DeviceKind kind,
                       bool joining);

  void on_schedule(const msg::ScheduleWork& report);
  void on_worker_fault(const msg::WorkerFault& fault);
  void try_dispatch_all();
  // Dispatches [begin, begin+size) to `id` (fresh range or reclaimed).
  void dispatch_range(msg::WorkerId id, tensor::Index begin,
                      tensor::Index size, bool reclaimed);
  // Worker E's full batch size, clamped to one dataset pass.
  tensor::Index batch_for(msg::WorkerId id) const;
  double estimate_cost(gpusim::DeviceKind kind, tensor::Index batch) const;
  // Flips the epoch if the dataset is exhausted and every worker is idle.
  void maybe_flip_epoch();
  void evaluate_loss(double vtime);
  // Appends to the loss curve and publishes the curve's gauges.
  void append_loss_point(double vtime, double loss);
  void publish_curve();
  void maybe_eval_checkpoints();
  void begin_shutdown();
  bool any_busy() const;
  bool all_finished() const;

  // --- checkpoint + elastic helpers ---------------------------------------
  // True when a full checkpoint should be cut at the next epoch barrier.
  bool full_checkpoint_due() const;
  // Cuts and persists a checkpoint from the ledger, the controller and the
  // coordinator's own state; called at the epoch barrier, before the
  // epoch's reshuffle.
  void write_full_checkpoint();
  // Fires the elastic events whose trigger the virtual frontier reached.
  void fire_elastic_events();
  void join_worker(gpusim::DeviceKind kind);
  // Reclaims the worker's in-flight batch (preserving dispatched ==
  // reported + reclaimed), stops scheduling it, and sends it Shutdown.
  void retire_worker(msg::WorkerId id);
  // Batch whose estimated cost on `kind` best matches the mean estimated
  // cost of the active workers' current batches (quantum-aligned,
  // limit-clamped).
  tensor::Index seed_batch_from_cost_model(
      gpusim::DeviceKind kind,
      const AdaptiveController::WorkerLimits& limits) const;

  // --- self-healing helpers ---------------------------------------------
  bool fault_layer_enabled() const { return config_.fault.deadline_factor > 0.0; }
  bool schedulable(const WorkerRuntime& w) const {
    return !w.failed && !w.quarantined && !w.finished && !w.retired;
  }
  // Returns the worker's in-flight range to the reclaim pool and advances
  // reclaimed_through so its eventual report is treated as late.
  void reclaim_inflight(msg::WorkerId id, double vtime,
                        const std::string& why);
  // Counts one coordinator-visible fault against the worker; quarantines
  // past the configured threshold.
  void note_fault(msg::WorkerId id, double vtime);
  void handle_divergence(double vtime, double loss);

  // Shared Hogwild state — deliberately unsynchronized (see header comment).
  data::Dataset& dataset_;
  nn::Model& model_;
  const TrainingConfig& config_;  // immutable for the run
  const bool adaptive_enabled_;
  // Captured at construction, before any epoch shuffle permutes the
  // dataset: the fingerprint must hash the same (original) example order
  // the resume path sees when it recomputes it on a fresh copy.
  const std::uint64_t fingerprint_;

  UpdateLedger ledger_;
  UtilizationMonitor monitor_{0};  // grown by register_worker
  AdaptiveController adaptive_;
  gpusim::PerfModel cpu_perf_;
  gpusim::PerfModel gpu_perf_;
  std::vector<WorkerRuntime> workers_;

  tensor::Index cursor_ = 0;  // next unassigned example
  std::uint64_t epoch_ = 0;
  double epoch_start_vtime_ = 0.0;
  double next_eval_vtime_ = 0.0;

  // Loss evaluation sample (copied rows, immune to dataset shuffles).
  data::Dataset eval_sample_;
  nn::Model eval_snapshot_;
  // The evaluation engine: a zero-copy executor sized for one
  // nn::kEvalChunkRows chunk and bound once to eval_snapshot_. Zero-copy
  // mode charges no virtual time and ticks no device counter.
  backend::Backend eval_backend_;
  backend::MlpExecutor eval_exec_;

  std::vector<LossPoint> curve_;
  Rng rng_;
  bool shutting_down_ = false;
  std::size_t shutdown_acks_ = 0;
  std::size_t expected_acks_ = 0;
  bool loop_done_ = false;

  // --- self-healing state ------------------------------------------------
  // Batch ranges lost to deadline misses / faults, awaiting re-dispatch.
  // Invalidated (dropped) at epoch flips: they index the old permutation.
  std::vector<std::pair<tensor::Index, tensor::Index>> reclaim_pool_;
  std::uint64_t examples_dispatched_ = 0;
  std::uint64_t examples_reclaimed_ = 0;
  std::uint64_t late_reports_ = 0;
  std::uint64_t late_examples_ = 0;
  std::uint64_t rollbacks_ = 0;
  std::uint64_t checkpoints_written_ = 0;
  std::int64_t idle_ticks_ = 0;
  double lr_scale_ = 1.0;  // halved per rollback
  bool diverged_ = false;  // aborted on non-finite loss
  nn::Model last_good_model_;
  double last_good_loss_ = 0.0;
  bool has_last_good_ = false;

  // --- full-checkpoint state ----------------------------------------------
  CheckpointManager* ckpt_mgr_ = nullptr;
  double next_full_ckpt_vtime_ = 0.0;
  bool resumed_ = false;

  // --- elastic-membership state -------------------------------------------
  ElasticPlan elastic_;  // events sorted by trigger
  std::size_t next_elastic_ = 0;
  WorkerFactory make_worker_;
  std::uint64_t joins_ = 0;
  std::uint64_t retires_ = 0;
};

}  // namespace hetsgd::core

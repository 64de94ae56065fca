// The coordinator (§V-A): the actor shell around the Scheduler, which
// holds Algorithm 1 and Algorithm 2's scheduling policy.
//
// One Actor thread processing ScheduleWork requests strictly in arrival
// order (the paper's serialized message handling). Bulk data never moves:
// an ExecuteWork carries only an index range into the shared dataset. The
// coordinator sends what the Scheduler dispatches (adding the learning-rate
// scale), evaluates the loss, rolls the model back on a non-finite loss
// (or aborts the run, per config), cuts and restores checkpoints, runs
// elastic membership events, counts the idle ticks of the real-time
// fallback (DESIGN.md §9), and collects the shutdown acks.
//
// Elastic membership (DESIGN.md §11). config.elastic_plan's join/retire
// events fire at the virtual frontier, in trigger order: in the handler of
// the first report that carries the ledger's max clock to an event's
// trigger (after the report is folded, before evaluation points and
// dispatch), or in on_start for a trigger the frontier already reached.
//
// Concurrency contract (DESIGN.md §10, regime 2). After start(), only the
// actor thread touches coordinator state, its Scheduler included: every
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
#include "core/checkpoint.hpp"
#include "core/config.hpp"
#include "core/elastic.hpp"
#include "core/scheduler.hpp"
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
  // checkpoint (model + RNG + clocks + ledger + schedule) is cut at
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
  // The schedule: ledger, utilization, and the fault-tolerance accounting.
  const Scheduler& scheduler() const { return scheduler_; }
  const std::vector<LossPoint>& loss_curve() const { return curve_; }
  std::uint64_t rollbacks() const { return rollbacks_; }
  std::uint64_t checkpoints_written() const { return checkpoints_written_; }
  double lr_scale() const { return lr_scale_; }

 protected:
  bool handle(msg::Envelope envelope) override;
  void on_start() override;
  bool on_idle() override;

 private:
  void on_schedule(const msg::ScheduleWork& report);
  // Sends the Scheduler's dispatches and runs its epoch flips.
  void try_dispatch_all();
  // The epoch flip's actions, in this order: evaluate, charge the GPU for
  // the evaluation, stop, cut the checkpoint, reshuffle.
  void flip_epoch(bool anyone_active);
  void evaluate_loss(double vtime);
  // Appends to the loss curve and publishes the curve's gauges.
  void append_loss_point(double vtime, double loss);
  void publish_curve();
  void maybe_eval_checkpoints();
  void begin_shutdown();

  // --- checkpoint + elastic helpers ---------------------------------------
  // True when a full checkpoint should be cut at the next epoch barrier.
  bool full_checkpoint_due() const;
  // Cuts and persists a checkpoint from the Scheduler and the
  // coordinator's own state; called at the epoch barrier, before the
  // epoch's reshuffle.
  void write_full_checkpoint();
  // Fires the elastic events whose trigger the virtual frontier reached.
  void fire_elastic_events();
  void join_worker(gpusim::DeviceKind kind);
  // Retires the worker from the schedule and sends it Shutdown.
  void retire_worker(msg::WorkerId id);
  void handle_divergence(double vtime, double loss);

  // Shared Hogwild state — deliberately unsynchronized (see header comment).
  data::Dataset& dataset_;
  nn::Model& model_;
  const TrainingConfig& config_;  // immutable for the run
  // Captured at construction, before any epoch shuffle permutes the
  // dataset: the fingerprint must hash the same (original) example order
  // the resume path sees when it recomputes it on a fresh copy.
  const std::uint64_t fingerprint_;

  Scheduler scheduler_;
  std::vector<msg::Actor*> actors_;  // mailboxes, indexed by worker id
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

  // --- divergence rollback and the real-time fallback -----------------------
  std::uint64_t rollbacks_ = 0;
  std::uint64_t checkpoints_written_ = 0;
  std::int64_t idle_ticks_ = 0;
  double lr_scale_ = 1.0;  // halved per rollback
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
};

}  // namespace hetsgd::core

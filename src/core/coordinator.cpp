#include "core/coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.hpp"
#include "common/macros.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hetsgd::core {

using tensor::Index;

namespace {

// Hot-path metric handles, resolved once (registration takes the
// registry mutex; the handles themselves are lock-free).
struct CoordMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  obs::Counter& rollbacks = reg.counter("hetsgd_rollbacks_total");
  obs::Counter& checkpoints = reg.counter("hetsgd_checkpoints_total");
  obs::Gauge& loss = reg.gauge("hetsgd_loss");
  obs::Gauge& lr_scale = reg.gauge("hetsgd_lr_scale");
  obs::Gauge& vtime = reg.gauge("hetsgd_vtime_frontier_vseconds");
  obs::Gauge& loss_points = reg.gauge("hetsgd_loss_points");
  obs::Gauge& loss_latest = reg.gauge("hetsgd_loss_latest");

  CoordMetrics() { lr_scale.set(1.0); }  // no rollback yet = full rate
};

CoordMetrics& metrics() {
  // hetsgd-lint: allow(naked-new) leaked singleton: metric refs must
  // outlive static destruction of every instrumented thread
  static CoordMetrics* m = new CoordMetrics();
  return *m;
}

}  // namespace

Coordinator::Coordinator(data::Dataset& dataset, nn::Model& model,
                         const TrainingConfig& config,
                         tensor::Index eval_sample)
    : msg::Actor("coordinator"), dataset_(dataset), model_(model),
      config_(config), fingerprint_(config_fingerprint(config, dataset)),
      scheduler_(config, dataset.example_count()), eval_snapshot_(model),
      eval_backend_(config.cpu.spec, backend::Backend::Mode::kZeroCopy),
      eval_exec_(eval_backend_, config.mlp, nn::kEvalChunkRows),
      rng_(config.seed ^ 0xc0ffee), last_good_model_(model) {
  eval_exec_.bind_shared_model(eval_snapshot_);
  // Copy out the loss-evaluation sample before any shuffling.
  const Index n = dataset_.example_count();
  const Index sample = eval_sample > 0 ? std::min(eval_sample, n) : n;
  std::vector<std::size_t> idx(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  rng_.shuffle(idx);
  eval_sample_ = data::gather(
      dataset_, std::span(idx).first(static_cast<std::size_t>(sample)),
      dataset_.name() + "-eval");
  if (!config_.elastic_plan.empty()) {
    std::string error;
    const bool ok = ElasticPlan::parse(config_.elastic_plan, &elastic_, &error);
    HETSGD_ASSERT(ok, "invalid --elastic-plan spec");
    elastic_.resolve_times(config_.time_budget_vseconds);
  }
}

void Coordinator::add_worker(msg::Actor& actor, gpusim::DeviceKind kind) {
  actors_.push_back(&actor);
  scheduler_.add_worker(actor.name(), kind, /*joining=*/false);
}

void Coordinator::on_start() {
  HETSGD_ASSERT(!actors_.empty(), "coordinator needs at least one worker");
  // A resumed run already restored its eval/checkpoint cadence cursors;
  // re-seeding them at the first grid point would replay every eval the
  // original run performed before the cut.
  if (!resumed_ && config_.eval_interval_vseconds > 0.0) {
    next_eval_vtime_ = config_.eval_interval_vseconds;
  }
  if (ckpt_mgr_ != nullptr && !resumed_ &&
      config_.fault.checkpoint_interval_vseconds > 0.0) {
    next_full_ckpt_vtime_ = config_.fault.checkpoint_interval_vseconds;
  }
  if (scheduler_.deadlines_enabled()) {
    // Real-time fallback heartbeat: all-workers-silent detection.
    set_idle_interval(std::chrono::milliseconds(20));
  }
  // Triggers the frontier already reached (at 0, or below a resumed run's
  // restored clocks) fire before the first evaluation and dispatch.
  fire_elastic_events();
  // A resumed run restored its loss curve (including the point the
  // original run evaluated at vtime 0); re-evaluating here would insert a
  // duplicate and desync the curve from the uninterrupted trajectory.
  if (!resumed_) evaluate_loss(0.0);
  try_dispatch_all();
}

bool Coordinator::handle(msg::Envelope envelope) {
  idle_ticks_ = 0;  // any message is a sign of life; restart the silence window
  // hetsgd-analyze: dispatch ignores(ExecuteWork, Shutdown) — worker-bound
  // messages the coordinator only ever sends, never receives.
  if (std::holds_alternative<msg::ScheduleWork>(envelope.message)) {
    on_schedule(std::get<msg::ScheduleWork>(envelope.message));
  } else if (std::holds_alternative<msg::WorkerFault>(envelope.message)) {
    scheduler_.on_worker_fault(std::get<msg::WorkerFault>(envelope.message));
    try_dispatch_all();
  } else if (std::holds_alternative<msg::ShutdownAck>(envelope.message)) {
    // Only final-shutdown acks count toward loop exit; a mid-run
    // retirement also Shutdowns its worker, and that ack must not
    // terminate the coordinator.
    if (shutting_down_) {
      ++shutdown_acks_;
      if (shutdown_acks_ >= expected_acks_) loop_done_ = true;
    }
  } else {
    HETSGD_LOG_WARN("coordinator", "unexpected message variant %zu",
                    envelope.message.index());
  }
  return !loop_done_;
}

bool Coordinator::on_idle() {
  if (shutting_down_ || !scheduler_.deadlines_enabled()) return !loop_done_;
  if (!scheduler_.any_busy()) {
    idle_ticks_ = 0;
    return true;
  }
  const std::int64_t grace =
      std::max<std::int64_t>(1, config_.fault.stall_grace_ticks);
  if (++idle_ticks_ < grace) return true;

  // The mailbox has been silent for the whole grace window while work is
  // outstanding; past four windows the frontier may be frozen.
  if (scheduler_.reclaim_overdue(idle_ticks_ >= 4 * grace)) {
    idle_ticks_ = 0;
    try_dispatch_all();
  }
  return !loop_done_;
}

void Coordinator::on_schedule(const msg::ScheduleWork& report) {
  const msg::WorkerId id = report.worker;
  // Ledger apply closes the batch's cross-thread flow (dispatch -> worker
  // execute -> report -> here).
  HETSGD_TRACE_SPAN(apply_span, "coordinator", "ledger_apply",
                    report.clock_vtime,
                    report.examples > 0
                        ? obs::batch_flow_id(id, report.sequence)
                        : 0);
  if (report.examples > 0) {
    obs::trace_flow_end("batch", obs::batch_flow_id(id, report.sequence),
                        report.clock_vtime);
  }
  metrics().vtime.set(scheduler_.ledger().max_clock());
  scheduler_.on_report(report);
  fire_elastic_events();
  maybe_eval_checkpoints();
  try_dispatch_all();
}

void Coordinator::try_dispatch_all() {
  // Each dispatch goes out at the current learning-rate scale.
  const Scheduler::Send send = [this](msg::WorkerId id,
                                      msg::ExecuteWork work) {
    work.lr_scale = lr_scale_;
    return actors_[static_cast<std::size_t>(id)]->send(
        {msg::kCoordinator, work});
  };
  bool anyone_active = false;
  while (!shutting_down_ && scheduler_.dispatch(send, &anyone_active)) {
    flip_epoch(anyone_active);
  }
}

void Coordinator::flip_epoch(bool anyone_active) {
  // Evaluate the loss (the paper always computes it on the GPU at epoch
  // end — skipped when interval checkpoints are active, since fast workers
  // can flip thousands of tiny epochs), then reshuffle and restart.
  const double boundary = scheduler_.ledger().max_clock();
  if (config_.eval_interval_vseconds <= 0.0) {
    evaluate_loss(boundary);
    if (shutting_down_) return;  // divergence abort
  }
  scheduler_.begin_epoch(boundary);  // charges the GPU for the evaluation
  // Stop at the epoch cap, or when every worker hit the budget or failed.
  if ((config_.max_epochs > 0 && scheduler_.epoch() >= config_.max_epochs) ||
      !anyone_active) {
    begin_shutdown();
    return;
  }

  // Full-checkpoint cut point. This exact spot — after the epoch counter,
  // loss evaluation, and boundary bookkeeping, but BEFORE the reshuffle —
  // is what makes resume deterministic: at a cut with epoch == k exactly
  // k-1 dataset shuffles have consumed the coordinator RNG, so restore()
  // can replay them, verify the stream, and perform shuffle #k itself.
  if (full_checkpoint_due()) write_full_checkpoint();
  dataset_.shuffle(rng_);
}

void Coordinator::evaluate_loss(double vtime) {
  HETSGD_TRACE_SPAN(eval_span, "coordinator", "evaluate_loss", vtime);
  // hetsgd-racy: snapshot of the shared model races with the Hogwild
  // lanes' unsynchronized writes (nn::Model::operator= in tsan.supp);
  // evaluating the snapshot keeps the measurement internally consistent.
  eval_snapshot_ = model_;
  // A non-finite parameter is a diverged model even when no evaluated
  // example reaches it: the first layer's CSR products skip the inputs'
  // zeros, so a NaN weight in a column the sample never stores would not
  // propagate to the loss.
  const double loss =
      eval_snapshot_.all_finite()
          ? eval_exec_.mean_loss(eval_sample_.features(), eval_sample_.labels())
          : std::numeric_limits<double>::quiet_NaN();
  if (!std::isfinite(loss)) {
    handle_divergence(vtime, loss);
    return;
  }
  // Divergence insurance: the snapshot that evaluated to a finite loss
  // becomes the last good model. A swap, not a second copy: the next
  // evaluation overwrites eval_snapshot_ in place, and the executor stays
  // bound to that object.
  std::swap(eval_snapshot_, last_good_model_);
  last_good_loss_ = loss;
  has_last_good_ = true;
  metrics().loss.set(loss);
  HETSGD_TRACE_COUNTER("loss", loss);
  append_loss_point(vtime, loss);
}

void Coordinator::append_loss_point(double vtime, double loss) {
  curve_.push_back({vtime, scheduler_.epochs_completed(), loss});
  publish_curve();
}

void Coordinator::publish_curve() {
  metrics().loss_points.set(static_cast<double>(curve_.size()));
  if (!curve_.empty()) metrics().loss_latest.set(curve_.back().loss);
}

void Coordinator::handle_divergence(double vtime, double loss) {
  if (config_.fault.abort_on_divergence || !has_last_good_) {
    HETSGD_LOG_WARN("coordinator",
                    "non-finite loss at vtime %.6f; aborting run", vtime);
    scheduler_.record_fault({vtime, msg::kCoordinator,
                             FaultKind::kDivergenceAbort, 0,
                             "non-finite evaluated loss"});
    HETSGD_TRACE_INSTANT("coordinator", "divergence_abort", vtime);
    append_loss_point(vtime, loss);
    begin_shutdown();
    return;
  }
  // hetsgd-racy: the rollback writes the shared model while in-flight
  // Hogwild lanes may race the restore (nn::Model::operator= in
  // tsan.supp); a re-poisoned model simply triggers another (cheaper)
  // rollback at the next evaluation. At epoch boundaries the barrier
  // guarantees no racers.
  model_ = last_good_model_;
  lr_scale_ *= config_.fault.lr_backoff;
  ++rollbacks_;
  metrics().rollbacks.inc();
  metrics().lr_scale.set(lr_scale_);
  HETSGD_TRACE_INSTANT("coordinator", "rollback", vtime);
  HETSGD_LOG_WARN("coordinator",
                  "non-finite loss at vtime %.6f; rolled back (lr x%.3g)",
                  vtime, lr_scale_);
  scheduler_.record_fault({vtime, msg::kCoordinator,
                           FaultKind::kDivergenceRollback, 0,
                           "restored last-good model, lr backed off"});
  append_loss_point(vtime, last_good_loss_);
}

void Coordinator::maybe_eval_checkpoints() {
  if (config_.eval_interval_vseconds <= 0.0) return;
  const double progress = scheduler_.ledger().max_clock();
  while (next_eval_vtime_ <= progress) {
    evaluate_loss(next_eval_vtime_);
    if (shutting_down_) return;  // divergence abort
    next_eval_vtime_ += config_.eval_interval_vseconds;
  }
}

void Coordinator::begin_shutdown() {
  if (shutting_down_) return;
  shutting_down_ = true;
  // Account for any still-in-flight dispatches (divergence aborts can stop
  // the run mid-batch).
  scheduler_.reclaim_all();
  // Count only sends that actually landed: a dead worker's mailbox is
  // closed and will never ack, and waiting on it would hang the join. A
  // retired worker already got its Shutdown at retirement — sending again
  // (and expecting a second ack) would hang the loop.
  expected_acks_ = 0;
  for (std::size_t i = 0; i < actors_.size(); ++i) {
    if (scheduler_.schedule(static_cast<msg::WorkerId>(i)).retired) continue;
    if (actors_[i]->send({msg::kCoordinator, msg::Shutdown{}})) {
      ++expected_acks_;
    }
  }
  if (shutdown_acks_ >= expected_acks_) loop_done_ = true;
}

bool Coordinator::restore(const TrainingCheckpoint& ckpt, std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (ckpt.workers.size() != actors_.size()) {
    return fail("checkpoint has " + std::to_string(ckpt.workers.size()) +
                " workers, this run has " + std::to_string(actors_.size()));
  }
  if (ckpt.epoch == 0) {
    return fail("checkpoint has no completed epoch");
  }

  // Replay the permutation history. The constructor already consumed the
  // eval-sample shuffle; each of the original run's epoch flips before the
  // cut consumed one dataset shuffle. The cut sits before shuffle #epoch,
  // so epoch-1 replays must land the generator exactly on the persisted
  // state — anything else means the seed, dataset, or eval sample differ
  // from the checkpointing run, and continuing would silently fork the
  // trajectory.
  for (std::uint64_t e = 1; e < ckpt.epoch; ++e) {
    dataset_.shuffle(rng_);
  }
  if (rng_.state() != ckpt.rng) {
    return fail("RNG replay mismatch: this process's shuffle stream differs "
                "from the checkpointing run (config or dataset changed?)");
  }
  // Enter the post-cut state: perform the shuffle the cut deferred.
  dataset_.shuffle(rng_);

  model_ = ckpt.model;
  last_good_model_ = ckpt.model;
  last_good_loss_ = ckpt.last_good_loss;
  has_last_good_ = true;

  next_eval_vtime_ = ckpt.next_eval_vtime;
  next_full_ckpt_vtime_ = ckpt.next_checkpoint_vtime;
  lr_scale_ = ckpt.lr_scale;
  rollbacks_ = ckpt.rollbacks;
  checkpoints_written_ = ckpt.checkpoints_written;
  curve_ = ckpt.curve;
  publish_curve();

  std::string why;
  if (!scheduler_.restore(ckpt, &why)) return fail(why);
  resumed_ = true;
  return true;
}

bool Coordinator::full_checkpoint_due() const {
  if (ckpt_mgr_ == nullptr) return false;
  // interval == 0 with a manager attached means "every epoch flip".
  if (config_.fault.checkpoint_interval_vseconds <= 0.0) return true;
  return scheduler_.ledger().max_clock() >= next_full_ckpt_vtime_;
}

void Coordinator::write_full_checkpoint() {
  HETSGD_ASSERT(ckpt_mgr_ != nullptr, "checkpoint write without a manager");
  // A model poisoned since the last evaluation (a diverged update or an
  // injected nan) must not be cut: restore() would make it the resumed
  // run's last-good model. Skip the cut and leave it due, so the next
  // barrier cuts after the evaluation that rolls the model back. The scan
  // reads the model at the quiescent barrier, one pass per cut.
  if (!model_.all_finite()) {
    HETSGD_LOG_WARN("coordinator",
                    "non-finite model at epoch %llu; checkpoint deferred",
                    static_cast<unsigned long long>(scheduler_.epoch()));
    return;
  }
  HETSGD_TRACE_SCOPE("coordinator", "checkpoint_write");
  TrainingCheckpoint ckpt;
  ckpt.fingerprint = fingerprint_;
  ckpt.seed = config_.seed;
  // hetsgd-racy: at the epoch barrier no dispatched batch is in flight, but
  // a worker whose batch was reclaimed may still be running it and writing
  // the shared model, the race the eval snapshot and the epoch reshuffle
  // share (nn::Model copy is in tsan.supp).
  ckpt.model = model_;
  // Captured BEFORE the epoch's shuffle: restore() replays epoch-1
  // shuffles, checks this state, then shuffles once itself.
  ckpt.rng = rng_.state();
  scheduler_.checkpoint(&ckpt);
  ckpt.next_eval_vtime = next_eval_vtime_;
  ckpt.lr_scale = lr_scale_;
  ckpt.rollbacks = rollbacks_;
  ckpt.last_good_loss = last_good_loss_;
  ckpt.curve = curve_;

  // Advance the cadence before persisting so the resumed run continues it
  // rather than immediately cutting again.
  if (config_.fault.checkpoint_interval_vseconds > 0.0) {
    const double progress = scheduler_.ledger().max_clock();
    while (next_full_ckpt_vtime_ <= progress) {
      next_full_ckpt_vtime_ += config_.fault.checkpoint_interval_vseconds;
    }
  }
  ckpt.next_checkpoint_vtime = next_full_ckpt_vtime_;
  ckpt.checkpoints_written = checkpoints_written_ + 1;

  std::string error;
  if (ckpt_mgr_->save(ckpt, &error)) {
    ++checkpoints_written_;
    metrics().checkpoints.inc();
  } else {
    // Durability degrades, correctness does not: the run continues and the
    // next barrier tries again.
    HETSGD_LOG_WARN("coordinator", "checkpoint save failed: %s",
                    error.c_str());
  }
}

void Coordinator::fire_elastic_events() {
  const double frontier = scheduler_.ledger().max_clock();
  while (!shutting_down_ && next_elastic_ < elastic_.events.size() &&
         elastic_.events[next_elastic_].at_vtime <= frontier) {
    const ElasticEvent& ev = elastic_.events[next_elastic_++];
    if (ev.kind == ElasticEvent::Kind::kJoin) {
      join_worker(ev.device);
    } else {
      retire_worker(ev.worker);
    }
  }
}

void Coordinator::join_worker(gpusim::DeviceKind kind) {
  HETSGD_ASSERT(make_worker_ != nullptr,
                "elastic join without a worker factory");
  const auto id = static_cast<msg::WorkerId>(actors_.size());
  msg::Actor& actor = make_worker_(id, kind);
  actors_.push_back(&actor);
  scheduler_.add_worker(actor.name(), kind, /*joining=*/true);
  HETSGD_LOG_INFO("coordinator", "worker %d joined the run", id);
  actor.start();
}

void Coordinator::retire_worker(msg::WorkerId id) {
  if (!scheduler_.retire(id, scheduler_.ledger().max_clock())) {
    HETSGD_LOG_WARN("coordinator", "elastic retire of worker %d refused", id);
    return;
  }
  HETSGD_LOG_INFO("coordinator", "worker %d retired from the run", id);
  if (!scheduler_.schedule(id).failed &&
      !actors_[static_cast<std::size_t>(id)]->send(
          {msg::kCoordinator, msg::Shutdown{}})) {
    scheduler_.mark_failed(id);  // mailbox already closed
  }
}

}  // namespace hetsgd::core

#include "core/trainer.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <thread>

#include "common/csv_writer.hpp"
#include "common/logging.hpp"
#include "common/macros.hpp"
#include "core/worker.hpp"
#include "core/minibatch_reference.hpp"
#include "nn/serialize.hpp"
#include "obs/clock.hpp"
#include "obs/exporter.hpp"
#include "obs/trace.hpp"

namespace hetsgd::core {

using tensor::Index;

double TrainingResult::loss_at(double vtime) const {
  if (loss_curve.empty()) return 0.0;
  double loss = loss_curve.front().loss;
  for (const auto& p : loss_curve) {
    if (p.vtime > vtime) break;
    loss = p.loss;
  }
  return loss;
}

double TrainingResult::time_to_loss(double target) const {
  for (const auto& p : loss_curve) {
    if (p.loss <= target) return p.vtime;
  }
  return std::numeric_limits<double>::infinity();
}

void write_fault_events_csv(const TrainingResult& result,
                            const std::string& path) {
  CsvWriter csv(path, {"vtime", "worker", "kind", "reclaimed_examples",
                       "detail"});
  for (const auto& e : result.fault_events) {
    csv.row(std::vector<std::string>{
        std::to_string(e.vtime), std::to_string(e.worker),
        fault_kind_name(e.kind), std::to_string(e.reclaimed_examples),
        e.detail});
  }
  csv.flush();
}

Trainer::Trainer(data::Dataset dataset, TrainingConfig config,
                 TrainerOptions options)
    : dataset_(std::move(dataset)), config_(std::move(config)),
      options_(options) {
  config_.mlp.input_dim = dataset_.dim();
  config_.mlp.num_classes = dataset_.num_classes();
  config_.mlp.validate();
  if (config_.real_threads <= 0) {
    config_.real_threads =
        std::max(1u, std::thread::hardware_concurrency());
  }
}

TrainingResult Trainer::run() {
  // Tracing brackets the whole run so actor startup/shutdown is visible.
  const bool tracing = !config_.obs.trace_out.empty();
  if (tracing) obs::Tracer::instance().start();
  TrainingResult result = config_.algorithm == Algorithm::kTensorFlow
                              ? run_reference()
                              : run_framework();
  if (tracing) {
    std::string error;
    if (!obs::Tracer::instance().stop_and_write(config_.obs.trace_out,
                                                &error)) {
      HETSGD_LOG_WARN("trainer", "trace export failed: %s", error.c_str());
    } else {
      HETSGD_LOG_INFO("trainer", "trace written to %s",
                      config_.obs.trace_out.c_str());
    }
  }
  return result;
}

namespace {

void fill_curve_stats(TrainingResult& r) {
  if (r.loss_curve.empty()) return;
  r.initial_loss = r.loss_curve.front().loss;
  r.final_loss = r.loss_curve.back().loss;
  r.best_loss = r.initial_loss;
  for (const auto& p : r.loss_curve) {
    r.best_loss = std::min(r.best_loss, p.loss);
  }
}

}  // namespace

TrainingResult Trainer::run_framework() {
  obs::WallStopwatch timer;
  // Fresh working copy per run: shuffles must not accumulate across runs.
  data::Dataset working = dataset_;

  Rng rng(config_.seed);
  nn::Model model(config_.mlp, rng);

  // Fault-injection plan: parsed from the config spec, shared (thread-safe)
  // with every worker. Must outlive the workers below.
  FaultPlan fault_plan;
  if (!config_.fault.plan.empty()) {
    std::string error;
    const bool ok =
        FaultPlan::parse(config_.fault.plan, config_.seed, &fault_plan, &error);
    HETSGD_ASSERT(ok, "invalid --fault-plan spec");
    fault_plan.resolve_times(config_.time_budget_vseconds);
    // A death or stall injection without the detection layer would hang the
    // run: the coordinator would wait forever on a worker that never
    // reports. Force a sane deadline factor rather than deadlock.
    if (config_.fault.deadline_factor <= 0.0 &&
        (fault_plan.contains(FaultKind::kDeath) ||
         fault_plan.contains(FaultKind::kStall))) {
      HETSGD_LOG_WARN("trainer",
                      "fault plan injects stalls/deaths but the deadline "
                      "layer is off; enabling --fault-deadline-factor 3");
      config_.fault.deadline_factor = 3.0;
    }
  }
  // Entries an earlier process of this run fired stay fired, even when no
  // checkpoint loads below: the crash may have come before the first cut.
  if (!config_.fault.resume_dir.empty()) {
    fault_plan.load_record(config_.fault.resume_dir);
  }

  // Resume: load the newest valid checkpoint before any actor starts. A
  // missing/unusable directory degrades to a fresh start (the crash may
  // have hit before the first cut); a fingerprint mismatch is refused —
  // continuing a *different* run's checkpoint would silently fork the
  // trajectory.
  std::optional<TrainingCheckpoint> resume_ckpt;
  if (!config_.fault.resume_dir.empty()) {
    std::string error;
    resume_ckpt =
        CheckpointManager::load_latest(config_.fault.resume_dir, &error);
    if (!resume_ckpt) {
      HETSGD_LOG_WARN("trainer",
                      "no usable checkpoint in %s (%s); starting fresh",
                      config_.fault.resume_dir.c_str(), error.c_str());
    } else {
      const std::uint64_t fp = config_fingerprint(config_, working);
      if (resume_ckpt->fingerprint != fp) {
        HETSGD_LOG_ERROR("trainer",
                         "checkpoint in %s was cut under a different "
                         "config/seed/dataset; refusing to resume",
                         config_.fault.resume_dir.c_str());
        HETSGD_ASSERT(false, "checkpoint/config fingerprint mismatch");
      }
      model = resume_ckpt->model;
      HETSGD_LOG_INFO(
          "trainer", "resuming from checkpoint seq %llu (epoch %llu)",
          static_cast<unsigned long long>(resume_ckpt->sequence),
          static_cast<unsigned long long>(resume_ckpt->epoch));
    }
  }

  Coordinator coordinator(working, model, config_, options_.eval_sample);

  // Every worker of the run, indexed by id: the initial set, then elastic
  // joins in join order, which the coordinator thread appends through the
  // factory below while this thread waits in coordinator.join().
  std::vector<std::unique_ptr<Worker>> workers;
  // Builds the next worker. `ordinal` names a GPU worker's device.
  const auto make_worker = [&](gpusim::DeviceKind kind,
                               int ordinal) -> Worker& {
    workers.push_back(std::make_unique<Worker>(
        static_cast<msg::WorkerId>(workers.size()), config_, working, model,
        coordinator, kind,
        kind == gpusim::DeviceKind::kCpu ? config_.real_threads : 1, ordinal));
    if (!fault_plan.empty()) workers.back()->set_fault_plan(&fault_plan);
    return *workers.back();
  };
  if (algorithm_uses_cpu(config_.algorithm)) {
    coordinator.add_worker(make_worker(gpusim::DeviceKind::kCpu, 0),
                           gpusim::DeviceKind::kCpu);
  }
  if (algorithm_uses_gpu(config_.algorithm)) {
    const int gpus = std::max(config_.gpu.worker_count, 1);
    for (int g = 0; g < gpus; ++g) {
      coordinator.add_worker(make_worker(gpusim::DeviceKind::kGpu, g),
                             gpusim::DeviceKind::kGpu);
    }
  }
  HETSGD_ASSERT(!workers.empty(), "algorithm selected no workers");
  // A joined GPU worker is named by its id.
  coordinator.set_worker_factory(
      [&](msg::WorkerId id, gpusim::DeviceKind kind) -> msg::Actor& {
        return make_worker(kind, static_cast<int>(id));
      });

  // Checkpoint sink + restore, after every worker is registered and before
  // any actor starts.
  std::unique_ptr<CheckpointManager> ckpt_mgr;
  if (!config_.fault.checkpoint_dir.empty()) {
    ckpt_mgr = std::make_unique<CheckpointManager>(
        config_.fault.checkpoint_dir, config_.fault.checkpoint_retain);
    coordinator.set_checkpoint_manager(ckpt_mgr.get());
    fault_plan.record_in(ckpt_mgr->dir());
  }
  if (resume_ckpt) {
    std::string error;
    if (!coordinator.restore(*resume_ckpt, &error)) {
      HETSGD_LOG_ERROR("trainer", "checkpoint restore refused: %s",
                       error.c_str());
      HETSGD_ASSERT(false, "checkpoint restore refused");
    }
    // Each worker continues from the ledger stats it was cut with, dead or
    // quarantined at the cut or not (restore() validated the ids).
    for (const WorkerCheckpoint& wc : resume_ckpt->workers) {
      workers[static_cast<std::size_t>(wc.id)]->restore_progress(wc.stats);
    }
  }

  // Live metrics export (src/obs): the exporter thread snapshots the
  // registry, whose gauges the ledger and the coordinator keep current.
  obs::MetricsExporter::Options obs_opts;
  obs_opts.jsonl_path = config_.obs.metrics_out;
  obs_opts.interval_ms = config_.obs.metrics_interval_ms;
  obs::MetricsExporter exporter(obs_opts);
  if (!config_.obs.metrics_out.empty()) {
    std::string error;
    if (!exporter.start(&error)) {
      HETSGD_LOG_WARN("trainer", "metrics exporter disabled: %s",
                      error.c_str());
    }
  }

  for (const auto& w : workers) w->start();
  coordinator.start();
  coordinator.join();
  // The coordinator started any joined workers and sent every worker its
  // Shutdown; its join() orders their appends to `workers` before this.
  for (const auto& w : workers) w->join();
  exporter.stop();  // final snapshot at the quiescent point

  TrainingResult result;
  result.algorithm = config_.algorithm;
  result.loss_curve = coordinator.loss_curve();
  result.total_vtime = coordinator.final_vtime();
  result.epochs = coordinator.epochs_completed();
  result.cpu_updates =
      coordinator.ledger().updates_by_kind(gpusim::DeviceKind::kCpu);
  result.gpu_updates =
      coordinator.ledger().updates_by_kind(gpusim::DeviceKind::kGpu);
  const double horizon = std::max(result.total_vtime, 1e-12);
  for (const auto& stats : coordinator.ledger().all()) {
    WorkerSummary w;
    w.name = stats.name;
    w.kind = stats.kind;
    w.updates = stats.updates;
    w.batches = stats.batches;
    w.examples = stats.examples;
    w.busy_vtime = stats.busy_vtime;
    w.final_clock = stats.clock;
    w.final_batch = stats.current_batch;
    w.mean_utilization =
        coordinator.monitor().mean_utilization(stats.id, horizon);
    w.mean_staleness = stats.mean_staleness();
    w.max_staleness = stats.max_staleness;
    w.segments = coordinator.monitor().segments(stats.id);
    result.workers.push_back(std::move(w));
  }
  // Merge the fault log: worker-side injections (from the plan) plus
  // coordinator-side detections/recoveries (from the ledger), time-sorted.
  result.fault_events = fault_plan.fired();
  const auto& detected = coordinator.ledger().fault_records();
  result.fault_events.insert(result.fault_events.end(), detected.begin(),
                             detected.end());
  std::stable_sort(result.fault_events.begin(), result.fault_events.end(),
                   [](const FaultRecord& a, const FaultRecord& b) {
                     return a.vtime < b.vtime;
                   });
  result.examples_dispatched = coordinator.examples_dispatched();
  result.examples_reclaimed = coordinator.examples_reclaimed();
  result.late_examples = coordinator.late_examples();
  result.rollbacks = coordinator.rollbacks();
  result.quarantined_workers = coordinator.quarantined_workers();
  result.checkpoints_written = coordinator.checkpoints_written();
  result.final_lr_scale = coordinator.lr_scale();
  result.diverged = coordinator.diverged();
  result.resumed = resume_ckpt.has_value();
  result.resume_epoch = resume_ckpt ? resume_ckpt->epoch : 0;
  result.workers_joined = coordinator.workers_joined();
  result.workers_retired = coordinator.workers_retired();
  {
    // All actors are joined: the model is quiescent and safe to serialize.
    ByteWriter w;
    nn::write_model(w, model);
    result.final_model_bytes = w.data();
  }

  fill_curve_stats(result);
  result.wall_seconds = timer.elapsed_seconds();
  return result;
}

TrainingResult Trainer::run_reference() {
  obs::WallStopwatch timer;
  data::Dataset working = dataset_;
  ReferenceOptions options;
  options.eval_interval_vseconds = config_.eval_interval_vseconds;
  options.eval_sample = options_.eval_sample;
  ReferenceResult ref = run_minibatch_reference(working, config_, options);

  TrainingResult result;
  result.algorithm = config_.algorithm;
  result.loss_curve = std::move(ref.curve);
  result.total_vtime = ref.final_vtime;
  result.epochs = ref.epochs;
  result.gpu_updates = ref.updates;

  WorkerSummary w;
  w.name = "tensorflow-gpu";
  w.kind = gpusim::DeviceKind::kGpu;
  w.updates = ref.updates;
  w.mean_utilization = ref.mean_utilization;
  result.workers.push_back(std::move(w));

  fill_curve_stats(result);
  result.wall_seconds = timer.elapsed_seconds();
  return result;
}

}  // namespace hetsgd::core

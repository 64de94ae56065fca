#include "core/worker.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <limits>
#include <thread>

#include "common/logging.hpp"
#include "common/macros.hpp"
#include "core/cost_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hetsgd::core {

using tensor::Index;

namespace {

std::string worker_name(gpusim::DeviceKind kind, int ordinal) {
  return kind == gpusim::DeviceKind::kCpu
             ? std::string("cpu-worker")
             : "gpu-worker-" + std::to_string(ordinal);
}

}  // namespace

Worker::Worker(msg::WorkerId id, const TrainingConfig& config,
               const data::Dataset& dataset, nn::Model& global_model,
               msg::Actor& coordinator, gpusim::DeviceKind kind,
               int real_threads, int ordinal)
    : msg::Actor(worker_name(kind, ordinal)), id_(id), config_(config),
      dataset_(dataset), model_(global_model), coordinator_(coordinator),
      kind_(kind), hogwild_perf_(config.cpu.spec) {
  if (kind_ == gpusim::DeviceKind::kCpu) {
    pool_ = std::make_unique<concurrent::ThreadPool>(
        static_cast<std::size_t>(std::max(real_threads, 1)));
    // Lanes start sized for the configured per-thread examples and grow on
    // demand (ensure_lane_capacity).
    ensure_lane_capacity(std::max<Index>(1, config_.cpu.examples_per_thread));
    return;
  }
  backend_ = std::make_unique<backend::Backend>(
      config.gpu.spec, backend::Backend::Mode::kDevice);
  executor_ = std::make_unique<backend::MlpExecutor>(*backend_, config.mlp,
                                                     config.gpu.max_batch);
  host_gradient_ = nn::make_zero_gradient(global_model);
  upload_snapshot_ = global_model;
}

const gpusim::PerfModel& Worker::perf() const {
  return kind_ == gpusim::DeviceKind::kCpu ? hogwild_perf_ : backend_->perf();
}

void Worker::restore_progress(const WorkerStats& stats) {
  clock_.reset(stats.clock);
  busy_vtime_ = stats.busy_vtime;
  updates_ = stats.updates;
}

void Worker::ensure_lane_capacity(Index sub_batch) {
  if (sub_batch <= lane_capacity_ && !lane_executors_.empty()) return;
  // One lane per pool thread plus the calling thread (parallel_for's).
  const std::size_t lanes = pool_->thread_count() + 1;
  // Executors return their bytes to their Backend on destruction, so they
  // must go before the backends they reference.
  lane_executors_.clear();
  lane_backends_.clear();
  lane_backends_.reserve(lanes);
  lane_executors_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    auto b = std::make_unique<backend::Backend>(
        config_.cpu.spec, backend::Backend::Mode::kZeroCopy);
    auto e = std::make_unique<backend::MlpExecutor>(*b, config_.mlp,
                                                    sub_batch);
    // The executor's "replica" is the live shared model: Hogwild's
    // reference replica, read and written in place by every lane's step,
    // raced against every other lane by design.
    e->bind_shared_model(model_);
    lane_backends_.push_back(std::move(b));
    lane_executors_.push_back(std::move(e));
  }
  lane_capacity_ = sub_batch;
}

void Worker::release_scratch() {
  lane_executors_.clear();
  lane_backends_.clear();
  lane_capacity_ = 0;
  if (executor_) executor_->release_buffers();
}

bool Worker::handle(msg::Envelope envelope) {
  // hetsgd-analyze: dispatch ignores(ScheduleWork, WorkerFault, ShutdownAck)
  // — coordinator-bound messages; a worker mailbox only ever receives work
  // and shutdown.
  if (std::holds_alternative<msg::ExecuteWork>(envelope.message)) {
    return execute(std::get<msg::ExecuteWork>(envelope.message));
  }
  if (std::holds_alternative<msg::Shutdown>(envelope.message)) {
    // Worker retirement: return the scratch and replica buffers before the
    // ack — a retired elastic worker must not pin device memory.
    release_scratch();
    if (!coordinator_.send({id_, msg::ShutdownAck{id_}})) {
      HETSGD_LOG_WARN(log_tag(), "shutdown ack dropped: mailbox closed");
    }
    return false;
  }
  HETSGD_LOG_WARN(log_tag(), "unexpected message variant %zu",
                  envelope.message.index());
  return true;
}

bool Worker::on_handle_exception(const std::string& what) {
  // Convert the escaped exception (e.g. exhausted transfer retries) into a
  // fault report; the coordinator reclaims our in-flight batch and
  // quarantines this worker.
  HETSGD_LOG_WARN(log_tag(), "fault escalated: %s", what.c_str());
  msg::WorkerFault fault;
  fault.worker = id_;
  fault.vtime = clock_.now();
  fault.detail = what;
  if (!coordinator_.send({id_, std::move(fault)})) {
    HETSGD_LOG_WARN(log_tag(), "fault report dropped: mailbox closed");
  }
  return false;
}

bool Worker::execute(const msg::ExecuteWork& work) {
  return kind_ == gpusim::DeviceKind::kCpu ? execute_hogwild(work)
                                           : execute_replica(work);
}

bool Worker::begin_batch(const msg::ExecuteWork& work,
                         FaultPlan::StallState* stall) {
  const Index begin = static_cast<Index>(work.batch_begin);
  const Index size = static_cast<Index>(work.batch_size);
  HETSGD_ASSERT(size > 0, "empty batch assigned");
  HETSGD_ASSERT(begin + size <= dataset_.example_count(),
                "batch out of dataset range");
  // Epoch-boundary waits (not_before) appear as idle virtual time; faults
  // trigger on the clock the batch actually starts at.
  clock_.advance_to(work.not_before);
  if (fault_plan_ == nullptr) return true;
  if (fault_plan_->crash_due(id_, clock_.now())) {
    // Simulated power loss: take the whole process down with no
    // destructors, no flushes, no goodbye — the crash-consistency of the
    // checkpoint files is exactly what this exercises.
    HETSGD_LOG_WARN(log_tag(), "injected crash (SIGKILL) at vtime %.6f",
                    clock_.now());
    std::raise(SIGKILL);
  }
  if (fault_plan_->death_due(id_, clock_.now())) {
    HETSGD_LOG_WARN(log_tag(), "injected death at vtime %.6f", clock_.now());
    return false;  // stop reporting — the actor is dead
  }
  *stall = fault_plan_->stall(id_, clock_.now());
  if (stall->sleep_ms > 0) {
    // Real stall: visible to the coordinator's real-time grace fallback.
    // hetsgd-analyze: allow(wall-clock-core) same sanction as below.
    // hetsgd-lint: allow(wall-clock) injected stalls must consume real
    // time, not virtual time, to exercise real-time silence detection.
    std::this_thread::sleep_for(std::chrono::milliseconds(stall->sleep_ms));
  }
  return true;
}

bool Worker::execute_hogwild(const msg::ExecuteWork& work) {
  const Index begin = static_cast<Index>(work.batch_begin);
  const Index size = static_cast<Index>(work.batch_size);
  const std::uint64_t flow = obs::batch_flow_id(id_, work.sequence);
  HETSGD_TRACE_SPAN(exec_span, "cpu-worker", "execute", clock_.now(), flow);
  obs::trace_flow_step("batch", flow, clock_.now());
  FaultPlan::StallState stall;
  if (!begin_batch(work, &stall)) return false;

  // Split B into sim_lanes sub-batches (Algorithm 2, CPU worker handler).
  const HogwildSplit split = hogwild_split(size, config_.cpu.sim_lanes);
  const Index sub_batch = split.sub_batch;
  const Index num_sub = split.count;
  ensure_lane_capacity(sub_batch);
  // The rollback scale reaches the capped effective rate too.
  const auto lr = static_cast<tensor::Scalar>(
      config_.effective_lr(sub_batch) * work.lr_scale);

  // Hogwild: every lane takes its sub-batch's plain SGD step
  // W -= eta * g in place on the shared model (through its zero-copy
  // executor), with no synchronization and no gradient slab.
  {
    HETSGD_TRACE_SCOPE("cpu-worker", "hogwild_parallel_for");
    pool_->parallel_for(
      static_cast<std::size_t>(num_sub),
      [&](std::size_t first, std::size_t last, std::size_t lane) {
        backend::MlpExecutor& exec = *lane_executors_[lane];
        for (std::size_t i = first; i < last; ++i) {
          const Index sb_begin = begin + static_cast<Index>(i) * sub_batch;
          const Index sb_size =
              std::min(sub_batch, begin + size - sb_begin);
          exec.sgd_step(dataset_.batch_features(sb_begin, sb_size),
                        dataset_.batch_labels(sb_begin, sb_size), lr);
        }
      });
  }

  if (fault_plan_ != nullptr &&
      fault_plan_->corruption_due(id_, clock_.now())) {
    // Poison the shared model's first weight: it goes non-finite exactly as
    // after a numerically-diverged lane step, exercising the coordinator's
    // divergence rollback. Like a lane step, the write races the GPU
    // worker's and the coordinator's model snapshots.
    HETSGD_LOG_WARN("cpu-worker", "injected gradient corruption at vtime %.6f",
                    clock_.now());
    nn::Layer& first = model_.layer(0);
    if (first.weights.size() > 0) {
      first.weights.data()[0] =
          std::numeric_limits<tensor::Scalar>::quiet_NaN();
    }
  }

  // Virtual time: num_sub logical lanes at sub_batch each (waves beyond
  // the simulated 56 threads are handled inside the cost model). Stalls
  // inflate the charged cost by the configured factor.
  const double cost = cpu_batch_seconds(hogwild_perf_, config_.mlp, sub_batch,
                                        static_cast<int>(num_sub)) *
                      stall.factor;
  clock_.advance(cost);
  busy_vtime_ += cost;
  updates_ += static_cast<std::uint64_t>(num_sub);
  exec_span.set_end_vt(clock_.now());

  const double intensity = cpu_batch_intensity(
      std::min<int>(static_cast<int>(num_sub), hogwild_perf_.spec().lanes),
      config_.cpu.host_threads, sub_batch,
      config_.cpu.max_examples_per_thread);
  request_work(static_cast<std::uint64_t>(size), intensity, work.sequence);
  return true;
}

bool Worker::execute_replica(const msg::ExecuteWork& work) {
  const Index begin = static_cast<Index>(work.batch_begin);
  const Index size = static_cast<Index>(work.batch_size);
  HETSGD_ASSERT(size <= config_.gpu.max_batch, "batch exceeds device buffers");
  const std::uint64_t flow = obs::batch_flow_id(id_, work.sequence);
  HETSGD_TRACE_SPAN(exec_span, "gpu-worker", "execute", clock_.now(), flow);
  obs::trace_flow_step("batch", flow, clock_.now());
  FaultPlan::StallState stall;
  if (!begin_batch(work, &stall)) return false;
  if (fault_plan_ != nullptr) {
    const std::int64_t transfer_faults =
        fault_plan_->transfer_failures_due(id_, clock_.now());
    if (transfer_faults > 0) {
      HETSGD_LOG_WARN("gpu-worker", "injecting %lld transfer fault(s)",
                      static_cast<long long>(transfer_faults));
      backend_->inject_transfer_faults(transfer_faults);
    }
  }

  const double issue = clock_.now();
  auto x = dataset_.batch_features(begin, size);
  auto y = dataset_.batch_labels(begin, size);

  // The upload/compute/download round trip is retried as a unit on
  // transient transfer failures, with capped exponential backoff charged to
  // virtual time (the modeled driver re-issuing the copy). Past
  // max_transfer_retries the error escapes handle(): the actor framework
  // turns it into a WorkerFault report via on_handle_exception. Each
  // attempt is issued at the worker's clock; the device clock keeps the
  // copies a failed attempt queued, so a retry starts after both.
  constexpr double kTransferBackoffVseconds = 1e-4;  // doubles per attempt
  const std::int64_t max_retries =
      std::max<std::int64_t>(0, config_.fault.max_transfer_retries);
  for (std::int64_t attempt = 0;; ++attempt) {
    try {
      backend_->wait_until(clock_.now());
      // Deep-copy the current global model into the device replica. The
      // reads race with concurrent Hogwild-lane updates — Hogwild
      // semantics extend across the PCIe boundary. The host-side snapshot
      // is kept to measure how stale the replica became by merge time.
      {
        HETSGD_TRACE_SPAN(h2d_span, "gpu-worker", "upload_model",
                          backend_->now(), flow);
        upload_snapshot_ = model_;
        try {
          executor_->upload_model(upload_snapshot_);
        } catch (const backend::TransferError&) {
          // A failed copy ends the attempt: its upload ends there too.
          h2d_span.set_end_vt(backend_->now());
          throw;
        }
        h2d_span.set_end_vt(backend_->now());
      }
      {
        HETSGD_TRACE_SPAN(kernel_span, "gpu-worker", "compute_gradient",
                          backend_->now(), flow);
        executor_->compute_gradient(x, y);
        kernel_span.set_end_vt(backend_->now());
      }
      {
        HETSGD_TRACE_SPAN(d2h_span, "gpu-worker", "download_gradient",
                          backend_->now(), flow);
        executor_->download_gradient(host_gradient_);
        d2h_span.set_end_vt(backend_->now());
      }
      break;
    } catch (const backend::TransferError& e) {
      if (attempt >= max_retries) throw;  // escalate to the coordinator
      static obs::Counter& retry_counter = obs::MetricsRegistry::instance()
          .counter("hetsgd_transfer_retries_total");
      retry_counter.inc();
      HETSGD_TRACE_INSTANT("fault", "transfer_retry", clock_.now(), flow);
      const int shift = static_cast<int>(std::min<std::int64_t>(attempt, 10));
      const double backoff = kTransferBackoffVseconds *
                             static_cast<double>(std::int64_t{1} << shift);
      HETSGD_LOG_WARN("gpu-worker",
                      "transfer failed (%s); retry %lld/%lld after %.2e vs",
                      e.what(), static_cast<long long>(attempt + 1),
                      static_cast<long long>(max_retries), backoff);
      HETSGD_TRACE_SPAN(backoff_span, "gpu-worker", "transfer_backoff",
                        clock_.now(), flow);
      clock_.advance(backoff);
      backoff_span.set_end_vt(clock_.now());
    }
  }

  if (fault_plan_ != nullptr &&
      fault_plan_->corruption_due(id_, clock_.now())) {
    // Poison the downloaded gradient: the merge below drives the shared
    // model non-finite, exercising the coordinator's divergence rollback.
    HETSGD_LOG_WARN("gpu-worker", "injected gradient corruption at vtime %.6f",
                    clock_.now());
    if (host_gradient_.layer_count() > 0 &&
        host_gradient_.layer(0).weights.size() > 0) {
      host_gradient_.layer(0).weights.data()[0] =
          std::numeric_limits<tensor::Scalar>::quiet_NaN();
    }
  }

  // Merge into the shared global model on the host (gradient-push
  // integration, applied asynchronously at the worker).
  const double staleness =
      static_cast<double>(model_.max_abs_diff(upload_snapshot_));
  const auto lr = static_cast<tensor::Scalar>(
      config_.effective_lr(size) * work.lr_scale);
  double done = backend_->now();
  {
    HETSGD_TRACE_SPAN(merge_span, "gpu-worker", "host_merge", done, flow);
    model_.axpy(-lr, host_gradient_);
    if (config_.gpu.host_merge_bandwidth > 0.0) {
      done += 2.0 * static_cast<double>(model_bytes(config_.mlp)) /
              config_.gpu.host_merge_bandwidth;
    }
    merge_span.set_end_vt(done);
  }

  // Stalls inflate the compute span (issue -> done) by the configured
  // factor; backoff time already advanced the clock directly.
  done = issue + (done - issue) * stall.factor;

  clock_.advance_to(done);
  busy_vtime_ += clock_.now() - issue;
  ++updates_;
  exec_span.set_end_vt(clock_.now());

  request_work(static_cast<std::uint64_t>(size),
               backend_->perf().utilization(static_cast<double>(size)),
               work.sequence, staleness);
  return true;
}

void Worker::request_work(std::uint64_t examples, double intensity,
                          std::uint64_t sequence, double staleness) {
  msg::ScheduleWork req;
  req.worker = id_;
  req.updates = updates_;
  req.busy_vtime = busy_vtime_;
  req.clock_vtime = clock_.now();
  req.intensity = intensity;
  req.examples = examples;
  req.staleness = staleness;
  req.sequence = sequence;
  if (!coordinator_.send({id_, req})) {
    HETSGD_LOG_WARN(log_tag(), "work report dropped: mailbox closed");
  }
}

}  // namespace hetsgd::core

// Unit tests for the unified Worker message protocol (both execution
// modes) against a stub coordinator.
#include "core/worker.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "nn/model.hpp"
#include "obs/trace.hpp"
#include "reference_mlp.hpp"

namespace hetsgd::core {
namespace {

using tensor::Index;

// A few SGD steps against the reference MLP, which sums in other orders:
// the two agree to rounding.
constexpr double kRefTol = 1e-12;

// Collects ScheduleWork reports; releases waiters as they arrive.
class StubCoordinator final : public msg::Actor {
 public:
  StubCoordinator() : msg::Actor("stub-coordinator") {}

  std::vector<msg::ScheduleWork> reports() {
    std::lock_guard<std::mutex> lock(mutex_);
    return reports_;
  }

  msg::ScheduleWork wait_for_report(std::size_t index) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return reports_.size() > index; });
    return reports_[index];
  }

  bool acked() const { return acked_.load(); }

 protected:
  bool handle(msg::Envelope envelope) override {
    if (std::holds_alternative<msg::ScheduleWork>(envelope.message)) {
      std::lock_guard<std::mutex> lock(mutex_);
      reports_.push_back(std::get<msg::ScheduleWork>(envelope.message));
      cv_.notify_all();
      return true;
    }
    if (std::holds_alternative<msg::ShutdownAck>(envelope.message)) {
      acked_.store(true);
      return false;
    }
    return true;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<msg::ScheduleWork> reports_;
  std::atomic<bool> acked_{false};
};

struct Rig {
  data::Dataset dataset;
  TrainingConfig config;
  nn::Model model;
  StubCoordinator coordinator;

  Rig()
      : dataset(make_data()), config(make_config()),
        model(make_model(config, dataset)) {}

  static data::Dataset make_data() {
    data::SyntheticSpec spec;
    spec.examples = 512;
    spec.dim = 8;
    spec.classes = 2;
    spec.seed = 3;
    return data::make_synthetic(spec);
  }

  static TrainingConfig make_config() {
    TrainingConfig c;
    c.mlp.hidden_layers = 1;
    c.mlp.hidden_units = 8;
    c.cpu.sim_lanes = 4;
    c.gpu.max_batch = 128;
    c.gpu.batch = 128;
    return c;
  }

  static nn::Model make_model(TrainingConfig& c, const data::Dataset& d) {
    c.mlp.input_dim = d.dim();
    c.mlp.num_classes = d.num_classes();
    Rng rng(1);
    return nn::Model(c.mlp, rng);
  }

  msg::ExecuteWork work(std::uint64_t begin, std::uint64_t size) {
    msg::ExecuteWork w;
    w.batch_begin = begin;
    w.batch_size = size;
    return w;
  }

  // Plain SGD on the reference MLP: `start` minus eta times the reference
  // gradient of rows [begin, begin + size), one update per `sub_batch`
  // rows in order.
  nn::Model reference_sgd(nn::Model start, Index begin, Index size,
                          Index sub_batch, double eta) const {
    for (Index b = begin; b < begin + size; b += sub_batch) {
      const Index rows = std::min(sub_batch, begin + size - b);
      nn::Gradient grad = nn::make_zero_gradient(start);
      const tensor::Matrix x =
          tensor::to_dense(dataset.batch_features(b, rows));
      ref::softmax_xent(start, x.view(), dataset.batch_labels(b, rows), &grad);
      ref::sgd(start, grad, eta);
    }
    return start;
  }

  // Runs one batch on a fresh worker and returns once the worker has
  // exited, so the shared model is quiescent.
  void run_one_batch(gpusim::DeviceKind kind, int real_threads,
                     const msg::ExecuteWork& work) {
    Worker worker(0, config, dataset, model, coordinator, kind,
                  real_threads);
    coordinator.start();
    worker.start();
    worker.send({msg::kCoordinator, work});
    coordinator.wait_for_report(0);
    worker.send({msg::kCoordinator, msg::Shutdown{}});
    worker.join();
    coordinator.join();
  }
};

TEST(CpuWorkerProtocol, ExecuteProducesReportAndUpdatesModel) {
  Rig rig;
  nn::Model before = rig.model;
  Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                gpusim::DeviceKind::kCpu, 2);
  rig.coordinator.start();
  worker.start();

  worker.send({msg::kCoordinator, rig.work(0, 8)});
  msg::ScheduleWork report = rig.coordinator.wait_for_report(0);
  EXPECT_EQ(report.worker, 0);
  EXPECT_EQ(report.examples, 8u);
  // 8 examples / 4 lanes -> sub-batch 2 -> 4 updates at beta=1.
  EXPECT_EQ(report.updates, 4u);
  EXPECT_GT(report.clock_vtime, 0.0);
  EXPECT_GT(report.busy_vtime, 0.0);
  EXPECT_GT(report.intensity, 0.0);
  EXPECT_GT(rig.model.max_abs_diff(before), 0.0);  // Hogwild wrote the model

  worker.send({msg::kCoordinator, msg::Shutdown{}});
  worker.join();
  // The stub's loop exits when it processes the ShutdownAck; joining it
  // orders the acked() read after that handling.
  rig.coordinator.join();
  EXPECT_TRUE(rig.coordinator.acked());
}

TEST(CpuWorkerProtocol, UpdatesAccumulateAcrossBatches) {
  Rig rig;
  Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                gpusim::DeviceKind::kCpu, 2);
  rig.coordinator.start();
  worker.start();
  worker.send({msg::kCoordinator, rig.work(0, 8)});
  worker.send({msg::kCoordinator, rig.work(8, 8)});
  msg::ScheduleWork second = rig.coordinator.wait_for_report(1);
  EXPECT_EQ(second.updates, 8u);
  EXPECT_GT(second.clock_vtime,
            rig.coordinator.wait_for_report(0).clock_vtime);
  worker.send({msg::kCoordinator, msg::Shutdown{}});
  worker.join();
  rig.coordinator.join();
}

TEST(CpuWorkerProtocol, ReportsRealUpdatesUnderBeta) {
  Rig rig;
  rig.config.beta = 0.5;
  Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                gpusim::DeviceKind::kCpu, 2);
  rig.coordinator.start();
  worker.start();
  worker.send({msg::kCoordinator, rig.work(0, 8)});
  msg::ScheduleWork report = rig.coordinator.wait_for_report(0);
  // 4 sub-batches, 4 updates: beta discounts them in Algorithm 2's
  // comparison only (Adaptive.BetaDiscountsCpuCounts).
  EXPECT_EQ(report.updates, 4u);
  worker.send({msg::kCoordinator, msg::Shutdown{}});
  worker.join();
  rig.coordinator.join();
}

TEST(CpuWorkerProtocol, NotBeforeAdvancesClock) {
  Rig rig;
  Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                gpusim::DeviceKind::kCpu, 2);
  rig.coordinator.start();
  worker.start();
  msg::ExecuteWork w = rig.work(0, 8);
  w.not_before = 5.0;  // epoch barrier in the future
  worker.send({msg::kCoordinator, w});
  msg::ScheduleWork report = rig.coordinator.wait_for_report(0);
  EXPECT_GT(report.clock_vtime, 5.0);
  worker.send({msg::kCoordinator, msg::Shutdown{}});
  worker.join();
  rig.coordinator.join();
}

TEST(CpuWorkerProtocol, LaneUpdateIsPlainSgd) {
  Rig rig;
  const nn::Model start = rig.model;
  // One real lane runs the four 2-example sub-batches in order, so the
  // result is sequential SGD with no race.
  rig.run_one_batch(gpusim::DeviceKind::kCpu, 1, rig.work(0, 8));
  const nn::Model want =
      rig.reference_sgd(start, 0, 8, 2, rig.config.effective_lr(2));
  EXPECT_GT(rig.model.max_abs_diff(start), 0.0);
  EXPECT_LT(rig.model.max_abs_diff(want), kRefTol);
}

TEST(CpuWorkerProtocol, RollbackScaleReachesTheLaneRate) {
  Rig rig;
  // Cap the rate below learning_rate * sub_batch: the scale must apply to
  // the capped rate, not to the per-example one.
  rig.config.max_effective_lr = 1.5e-3;
  ASSERT_EQ(rig.config.effective_lr(2), 1.5e-3);
  const nn::Model start = rig.model;
  msg::ExecuteWork w = rig.work(0, 8);
  w.lr_scale = 0.25;
  rig.run_one_batch(gpusim::DeviceKind::kCpu, 1, w);
  const nn::Model want = rig.reference_sgd(start, 0, 8, 2, 1.5e-3 * 0.25);
  EXPECT_LT(rig.model.max_abs_diff(want), kRefTol);
}

TEST(GpuWorkerProtocol, ExecuteProducesReportAndMergesGradient) {
  Rig rig;
  nn::Model before = rig.model;
  Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                gpusim::DeviceKind::kGpu);
  rig.coordinator.start();
  worker.start();

  worker.send({msg::kCoordinator, rig.work(0, 128)});
  msg::ScheduleWork report = rig.coordinator.wait_for_report(0);
  EXPECT_EQ(report.updates, 1u);  // one mini-batch = one update
  EXPECT_EQ(report.examples, 128u);
  EXPECT_GT(report.clock_vtime, 0.0);
  EXPECT_GT(report.intensity, 0.0);
  EXPECT_LE(report.intensity, 1.0);
  EXPECT_GT(rig.model.max_abs_diff(before), 0.0);

  worker.send({msg::kCoordinator, msg::Shutdown{}});
  worker.join();
  // As above: join the stub before reading acked() so the ack has been
  // dequeued, not merely sent.
  rig.coordinator.join();
  EXPECT_TRUE(rig.coordinator.acked());
}

TEST(GpuWorkerProtocol, MergeIsPlainSgd) {
  Rig rig;
  const nn::Model start = rig.model;
  rig.run_one_batch(gpusim::DeviceKind::kGpu, 1, rig.work(0, 64));
  const nn::Model want =
      rig.reference_sgd(start, 0, 64, 64, rig.config.effective_lr(64));
  EXPECT_GT(rig.model.max_abs_diff(start), 0.0);
  EXPECT_LT(rig.model.max_abs_diff(want), kRefTol);
}

TEST(GpuWorkerProtocol, RollbackScaleReachesTheMergeRate) {
  Rig rig;
  rig.config.max_effective_lr = 0.04;  // below learning_rate * 64
  ASSERT_EQ(rig.config.effective_lr(64), 0.04);
  const nn::Model start = rig.model;
  msg::ExecuteWork w = rig.work(0, 64);
  w.lr_scale = 0.125;
  rig.run_one_batch(gpusim::DeviceKind::kGpu, 1, w);
  const nn::Model want = rig.reference_sgd(start, 0, 64, 64, 0.04 * 0.125);
  EXPECT_LT(rig.model.max_abs_diff(want), kRefTol);
}

TEST(GpuWorkerProtocol, StalenessZeroWithoutConcurrentWriters) {
  Rig rig;
  Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                gpusim::DeviceKind::kGpu);
  rig.coordinator.start();
  worker.start();
  worker.send({msg::kCoordinator, rig.work(0, 64)});
  msg::ScheduleWork report = rig.coordinator.wait_for_report(0);
  // No other worker touched the model between upload and merge.
  EXPECT_EQ(report.staleness, 0.0);
  worker.send({msg::kCoordinator, msg::Shutdown{}});
  worker.join();
  rig.coordinator.join();
}

TEST(GpuWorkerProtocol, GpuClockIncludesTransfersAndKernels) {
  Rig rig;
  Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                gpusim::DeviceKind::kGpu);
  rig.coordinator.start();
  worker.start();
  worker.send({msg::kCoordinator, rig.work(0, 128)});
  msg::ScheduleWork report = rig.coordinator.wait_for_report(0);
  // At least the model upload + download at PCIe bandwidth.
  gpusim::PerfModel perf(rig.config.gpu.spec);
  const std::uint64_t model_bytes =
      rig.model.parameter_count() * sizeof(tensor::Scalar);
  EXPECT_GT(report.clock_vtime, 2.0 * perf.transfer_seconds(model_bytes) -
                                    2.0 * perf.spec().link_latency_seconds);
  worker.send({msg::kCoordinator, msg::Shutdown{}});
  worker.join();
  rig.coordinator.join();
}

TEST(GpuWorkerProtocol, ShutdownReleasesDeviceBuffers) {
  Rig rig;
  Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                gpusim::DeviceKind::kGpu);
  EXPECT_GT(worker.device_backend().bytes_in_use(), 0u);
  rig.coordinator.start();
  worker.start();
  worker.send({msg::kCoordinator, rig.work(0, 64)});
  rig.coordinator.wait_for_report(0);
  worker.send({msg::kCoordinator, msg::Shutdown{}});
  worker.join();
  rig.coordinator.join();
  // Worker retirement must return the replica to the device allocator: a
  // retired elastic worker cannot pin device memory.
  EXPECT_EQ(worker.device_backend().bytes_in_use(), 0u);
}

// One complete span of a written trace and its virtual-time stamps (NaN
// where the span has none).
struct TracedSpan {
  std::string name;
  double vt0 = 0.0;
  double vt1 = 0.0;
};

// A number that follows `key` in `line`, or NaN when the key is absent.
double number_after(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return std::nan("");
  return std::stod(line.substr(at + key.size()));
}

// Runs one replica batch on a fresh GPU worker under the tracer (with
// `plan`'s injections when it is non-null) and returns its spans of
// category `cat`, in trace order. The writer puts one event per line.
std::map<std::string, std::vector<TracedSpan>> traced_replica_batch(
    FaultPlan* plan) {
  Rig rig;
  obs::Tracer::instance().start();
  {
    Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                  gpusim::DeviceKind::kGpu);
    worker.set_fault_plan(plan);
    rig.coordinator.start();
    worker.start();
    worker.send({msg::kCoordinator, rig.work(0, 64)});
    rig.coordinator.wait_for_report(0);
    worker.send({msg::kCoordinator, msg::Shutdown{}});
    worker.join();
    rig.coordinator.join();
  }
  const std::string path = testing::TempDir() + "worker_test_trace.json";
  std::string error;
  EXPECT_TRUE(obs::Tracer::instance().stop_and_write(path, &error)) << error;
  std::map<std::string, std::vector<TracedSpan>> by_cat;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"ph\":\"X\"") == std::string::npos) continue;
    const auto field = [&](const std::string& key) {
      const std::size_t at = line.find(key) + key.size();
      return line.substr(at, line.find('"', at) - at);
    };
    by_cat[field("\"cat\":\"")].push_back(
        {field("\"name\":\""), number_after(line, "\"vt0\":"),
         number_after(line, "\"vt1\":")});
  }
  return by_cat;
}

// The one span named `name` among `spans`.
TracedSpan only(const std::vector<TracedSpan>& spans, const std::string& name) {
  std::vector<TracedSpan> found;
  for (const TracedSpan& s : spans) {
    if (s.name == name) found.push_back(s);
  }
  EXPECT_EQ(found.size(), 1u) << name;
  return found.empty() ? TracedSpan{} : found.front();
}

// A replica batch's phases are stamped from the device clock: the upload
// starts at the batch's issue time, each phase where the previous one
// ended, each copy where the one before it did, and the host merge ends
// where the batch does.
TEST(GpuWorkerProtocol, TraceStampsFollowTheDeviceClock) {
  auto spans = traced_replica_batch(nullptr);
  const std::vector<TracedSpan>& phases = spans["gpu-worker"];
  const TracedSpan execute = only(phases, "execute");
  const TracedSpan upload = only(phases, "upload_model");
  const TracedSpan compute = only(phases, "compute_gradient");
  const TracedSpan download = only(phases, "download_gradient");
  const TracedSpan merge = only(phases, "host_merge");
  EXPECT_EQ(execute.vt0, 0.0);
  EXPECT_EQ(upload.vt0, execute.vt0);
  EXPECT_GT(upload.vt1, upload.vt0);
  EXPECT_EQ(compute.vt0, upload.vt1);
  EXPECT_GT(compute.vt1, compute.vt0);
  EXPECT_EQ(download.vt0, compute.vt1);
  EXPECT_GT(download.vt1, download.vt0);
  EXPECT_EQ(merge.vt0, download.vt1);
  EXPECT_GT(merge.vt1, merge.vt0);
  EXPECT_EQ(execute.vt1, merge.vt1);

  // Weights and bias per layer, up inside upload_model, then down inside
  // download_gradient.
  const std::vector<TracedSpan>& copies = spans["gpusim"];
  const std::size_t per_way = 2 * Rig().model.layer_count();
  ASSERT_EQ(copies.size(), 2 * per_way);
  for (std::size_t i = 0; i < copies.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(copies[i].name, i < per_way ? "h2d_copy" : "d2h_copy");
    EXPECT_GT(copies[i].vt1, copies[i].vt0);
    if (i > 0 && i != per_way) {
      EXPECT_EQ(copies[i].vt0, copies[i - 1].vt1);
    }
  }
  EXPECT_EQ(copies.front().vt0, upload.vt0);
  EXPECT_EQ(copies[per_way - 1].vt1, upload.vt1);
  EXPECT_EQ(copies[per_way].vt0, download.vt0);
  EXPECT_EQ(copies.back().vt1, download.vt1);
}

// A transfer fault fails the round trip's first copy, so nothing is queued
// when the worker backs off: the retried upload starts at the clock after
// the 1e-4 s backoff (backend_test pins a fault after queued copies). The
// failed attempt, the backoff and the retried round trip tile the batch's
// virtual time with no gap.
TEST(GpuWorkerProtocol, RetriedUploadStartsAfterTheBackoff) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::parse("transfer:worker=0,at=0,count=1", 7, &plan,
                               &error))
      << error;
  plan.resolve_times(1.0);
  auto spans = traced_replica_batch(&plan);
  std::vector<TracedSpan> phases;
  for (const TracedSpan& s : spans["gpu-worker"]) {
    if (s.name != "execute") phases.push_back(s);
  }
  const std::vector<std::string> names = {
      "upload_model",     "transfer_backoff",  "upload_model",
      "compute_gradient", "download_gradient", "host_merge"};
  ASSERT_EQ(phases.size(), names.size());
  const TracedSpan execute = only(spans["gpu-worker"], "execute");
  EXPECT_EQ(phases.front().vt0, execute.vt0);
  for (std::size_t i = 0; i < phases.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(phases[i].name, names[i]);
    if (i > 0) {
      EXPECT_EQ(phases[i].vt0, phases[i - 1].vt1);
    }
  }
  EXPECT_EQ(phases.back().vt1, execute.vt1);
  EXPECT_EQ(phases[0].vt1, 0.0);  // the failed upload ends where it began
  EXPECT_EQ(phases[1].vt1, 1e-4);
  EXPECT_EQ(phases[2].vt0, 1e-4);
  const std::vector<TracedSpan>& copies = spans["gpusim"];
  ASSERT_GE(copies.size(), 2u);
  EXPECT_EQ(copies[0].vt1, copies[0].vt0);  // the failed copy moves nothing
  EXPECT_EQ(copies[1].vt0, 1e-4);
}

// Runs one batch of `size` examples on a worker of `kind`, first restored
// to `from` unless it is null, and returns its report.
msg::ScheduleWork report_after_restore(gpusim::DeviceKind kind,
                                       std::uint64_t size,
                                       const WorkerStats* from) {
  Rig rig;
  Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator, kind,
                2);
  if (from != nullptr) worker.restore_progress(*from);
  rig.coordinator.start();
  worker.start();
  worker.send({msg::kCoordinator, rig.work(0, size)});
  const msg::ScheduleWork report = rig.coordinator.wait_for_report(0);
  worker.send({msg::kCoordinator, msg::Shutdown{}});
  worker.join();
  rig.coordinator.join();
  return report;
}

// A resumed worker continues from the ledger stats it was cut with: its
// next report adds one batch to the restored clock, busy time and count,
// so the coordinator's monotonicity checks hold across the resume.
void expect_restore_reaches_the_next_report(gpusim::DeviceKind kind,
                                            std::uint64_t size) {
  WorkerStats stats;
  stats.clock = 2.5;
  stats.busy_vtime = 1.25;
  stats.updates = 40;
  const msg::ScheduleWork fresh = report_after_restore(kind, size, nullptr);
  const msg::ScheduleWork next = report_after_restore(kind, size, &stats);
  EXPECT_EQ(next.updates, stats.updates + fresh.updates);
  EXPECT_GT(fresh.updates, 0u);
  EXPECT_NEAR(next.clock_vtime - stats.clock, fresh.clock_vtime, 1e-12);
  EXPECT_NEAR(next.busy_vtime - stats.busy_vtime, fresh.busy_vtime, 1e-12);
  EXPECT_GT(fresh.busy_vtime, 0.0);
}

TEST(WorkerProgress, HogwildRestoreReachesTheNextReport) {
  expect_restore_reaches_the_next_report(gpusim::DeviceKind::kCpu, 8);
}

TEST(WorkerProgress, ReplicaRestoreReachesTheNextReport) {
  expect_restore_reaches_the_next_report(gpusim::DeviceKind::kGpu, 64);
}

}  // namespace
}  // namespace hetsgd::core

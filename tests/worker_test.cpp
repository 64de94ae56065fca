// Unit tests for the unified Worker message protocol (both execution
// modes) against a stub coordinator.
#include "core/worker.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "nn/model.hpp"
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
      ref::softmax_xent(start, dataset.batch_features(b, rows),
                        dataset.batch_labels(b, rows), &grad);
      ref::sgd(start, grad, eta);
    }
    return start;
  }

  // Runs one batch on a fresh worker and returns once the worker has
  // exited, so the shared model is quiescent.
  void run_one_batch(ExecMode mode, int real_threads,
                     const msg::ExecuteWork& work) {
    Worker worker(0, config, dataset, model, coordinator, mode,
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
                ExecMode::kHogwild, 2);
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
                ExecMode::kHogwild, 2);
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

TEST(CpuWorkerProtocol, BetaScalesReportedUpdates) {
  Rig rig;
  rig.config.beta = 0.5;
  Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                ExecMode::kHogwild, 2);
  rig.coordinator.start();
  worker.start();
  worker.send({msg::kCoordinator, rig.work(0, 8)});
  msg::ScheduleWork report = rig.coordinator.wait_for_report(0);
  EXPECT_EQ(report.updates, 2u);  // 4 sub-batches * beta 0.5
  worker.send({msg::kCoordinator, msg::Shutdown{}});
  worker.join();
  rig.coordinator.join();
}

TEST(CpuWorkerProtocol, NotBeforeAdvancesClock) {
  Rig rig;
  Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                ExecMode::kHogwild, 2);
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
  rig.run_one_batch(ExecMode::kHogwild, 1, rig.work(0, 8));
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
  rig.run_one_batch(ExecMode::kHogwild, 1, w);
  const nn::Model want = rig.reference_sgd(start, 0, 8, 2, 1.5e-3 * 0.25);
  EXPECT_LT(rig.model.max_abs_diff(want), kRefTol);
}

TEST(GpuWorkerProtocol, ExecuteProducesReportAndMergesGradient) {
  Rig rig;
  nn::Model before = rig.model;
  Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                ExecMode::kReplica);
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
  rig.run_one_batch(ExecMode::kReplica, 1, rig.work(0, 64));
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
  rig.run_one_batch(ExecMode::kReplica, 1, w);
  const nn::Model want = rig.reference_sgd(start, 0, 64, 64, 0.04 * 0.125);
  EXPECT_LT(rig.model.max_abs_diff(want), kRefTol);
}

TEST(GpuWorkerProtocol, StalenessZeroWithoutConcurrentWriters) {
  Rig rig;
  Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                ExecMode::kReplica);
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
                ExecMode::kReplica);
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
                ExecMode::kReplica);
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

TEST(WorkerState, SerializeRestoreRoundTripsBothModes) {
  Rig rig;
  for (ExecMode mode : {ExecMode::kHogwild, ExecMode::kReplica}) {
    Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                  mode, 2);
    const std::vector<std::uint8_t> blob = worker.serialize_state();
    ASSERT_FALSE(blob.empty());
    // The pre-seam on-disk tags survive the unification: checkpoints cut
    // by the old CpuWorker/GpuWorker restore into the unified Worker.
    EXPECT_EQ(blob[0], mode == ExecMode::kHogwild ? 'C' : 'G');
    Worker twin(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                mode, 2);
    std::string error;
    EXPECT_TRUE(twin.restore_state(blob, &error)) << error;
    // Cross-mode restore must be refused, not misparsed.
    Worker other(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                 mode == ExecMode::kHogwild ? ExecMode::kReplica
                                            : ExecMode::kHogwild,
                 2);
    EXPECT_FALSE(other.restore_state(blob, &error));
  }
}

// Version-1 blobs, byte for byte as the workers serialized them when each
// Hogwild lane and each replica kept an optimizer (plain SGD): a 4-lane
// Hogwild worker and a replica worker, after one batch each. Blobs hold
// host-order values; these are little-endian.
const std::vector<std::uint8_t> kHogwildV1 = {
    'C', 0x01, 0x00, 0x00, 0x00,                      // tag, version 1
    0x6c, 0x02, 0xa0, 0x08, 0xff, 0x1d, 0xf5, 0x3e,  // clock
    0x6c, 0x02, 0xa0, 0x08, 0xff, 0x1d, 0xf5, 0x3e,  // busy time
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x40,  // updates_scaled 4.0
    0x04, 0x00, 0x00, 0x00,                          // 4 lanes
    // Per lane: a u64 step count of 1 and a u8 flag of 1.
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
};
const std::vector<std::uint8_t> kReplicaV1 = {
    'G', 0x01, 0x00, 0x00, 0x00,                      // tag, version 1
    0x09, 0x4a, 0xe8, 0x80, 0xd5, 0x18, 0x23, 0x3f,  // clock
    0x09, 0x4a, 0xe8, 0x80, 0xd5, 0x18, 0x23, 0x3f,  // busy time
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // 1 update
    // A u64 step count of 1 and a u8 flag of 1.
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
};

// The version-2 blob holding the same state: tag, version 2, then the
// clock, busy time and update counter, with no optimizer records.
std::vector<std::uint8_t> as_version2(const std::vector<std::uint8_t>& v1) {
  std::vector<std::uint8_t> v2(v1.begin(), v1.begin() + 29);
  v2[1] = 0x02;
  return v2;
}

TEST(WorkerState, RestoresVersion1Blobs) {
  Rig rig;
  for (const auto& [mode, blob] :
       {std::pair{ExecMode::kHogwild, kHogwildV1},
        std::pair{ExecMode::kReplica, kReplicaV1}}) {
    Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                  mode, 4);
    std::string error;
    ASSERT_TRUE(worker.restore_state(blob, &error)) << error;
    EXPECT_EQ(worker.serialize_state(), as_version2(blob));
  }
}

TEST(WorkerState, RestoresAcrossLaneCounts) {
  Rig rig;
  const std::vector<std::uint8_t> v2 = as_version2(kHogwildV1);
  for (const int lanes : {1, 2, 4}) {
    for (const auto& blob : {kHogwildV1, v2}) {
      Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                    ExecMode::kHogwild, lanes);
      std::string error;
      ASSERT_TRUE(worker.restore_state(blob, &error))
          << lanes << " lanes: " << error;
      EXPECT_EQ(worker.serialize_state(), v2) << lanes << " lanes";
    }
  }
}

TEST(WorkerState, RejectsTrailingBytes) {
  Rig rig;
  for (const auto& [mode, v1] :
       {std::pair{ExecMode::kHogwild, kHogwildV1},
        std::pair{ExecMode::kReplica, kReplicaV1}}) {
    for (std::vector<std::uint8_t> blob : {v1, as_version2(v1)}) {
      blob.push_back(0x00);
      Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                    mode, 2);
      std::string error;
      EXPECT_FALSE(worker.restore_state(blob, &error));
      EXPECT_NE(error.find("trailing bytes"), std::string::npos) << error;
    }
  }
  // A version-1 Hogwild blob whose lane count undercounts its records
  // leaves the last record over.
  std::vector<std::uint8_t> undercounted = kHogwildV1;
  undercounted[29] = 0x03;
  Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                ExecMode::kHogwild, 2);
  std::string error;
  EXPECT_FALSE(worker.restore_state(undercounted, &error));
  EXPECT_NE(error.find("trailing bytes"), std::string::npos) << error;
  // Overcounting runs out of bytes instead.
  std::vector<std::uint8_t> overcounted = kHogwildV1;
  overcounted[29] = 0x05;
  EXPECT_FALSE(worker.restore_state(overcounted, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST(WorkerState, RejectsTruncatedBlobs) {
  Rig rig;
  for (const auto& [mode, v1] :
       {std::pair{ExecMode::kHogwild, kHogwildV1},
        std::pair{ExecMode::kReplica, kReplicaV1}}) {
    for (const auto& blob : {v1, as_version2(v1)}) {
      Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                    mode, 2);
      const std::vector<std::uint8_t> fresh = worker.serialize_state();
      // Every proper prefix fails, and a failed restore leaves the
      // worker's state as it was.
      for (std::size_t n = 0; n < blob.size(); ++n) {
        const std::vector<std::uint8_t> prefix(blob.begin(),
                                               blob.begin() + n);
        std::string error;
        EXPECT_FALSE(worker.restore_state(prefix, &error)) << n;
        if (n >= 5) {
          EXPECT_NE(error.find("truncated"), std::string::npos) << error;
        }
        EXPECT_EQ(worker.serialize_state(), fresh) << n;
      }
    }
  }
}

TEST(WorkerState, RejectsUnknownVersion) {
  Rig rig;
  for (const auto& [mode, v1] :
       {std::pair{ExecMode::kHogwild, kHogwildV1},
        std::pair{ExecMode::kReplica, kReplicaV1}}) {
    for (const std::uint8_t version : {0, 3, 0xff}) {
      std::vector<std::uint8_t> blob = as_version2(v1);
      blob[1] = version;
      Worker worker(0, rig.config, rig.dataset, rig.model, rig.coordinator,
                    mode, 2);
      std::string error;
      EXPECT_FALSE(worker.restore_state(blob, &error));
      EXPECT_NE(error.find("unsupported"), std::string::npos) << error;
    }
  }
}

}  // namespace
}  // namespace hetsgd::core

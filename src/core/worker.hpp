// The training worker (Algorithm 2's worker handlers).
//
// One actor class replaces the former CpuWorker/GpuWorker pair; what used
// to be two code paths is now one message protocol over the two modes of
// backend::Backend:
//
//  * kHogwild — nested Hogbatch over the *shared* global model (§V-A, the
//    CPU worker handler). The batch splits into sim_lanes sub-batches;
//    each real lane owns a zero-copy Backend whose executor runs on the
//    shared model, so gradients are computed against live (racing) weights
//    and applied immediately with no synchronization. Virtual time is
//    charged analytically per batch through the cost model.
//
//  * kReplica — mini-batch SGD against a private device replica (§V-A,
//    the GPU worker handler). One device-mode Backend modeling
//    config.gpu.spec holds the replica; every batch uploads the model,
//    runs the kernel sequence, downloads the gradient, and merges on the
//    host. Transfer faults are retried with capped exponential
//    virtual-time backoff before escalating to the coordinator.
//
// Wire behavior (message protocol, trace spans, checkpoint state tags
// 'C'/'G', fault semantics) is bit-compatible with the pre-seam workers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "backend/mlp_executor.hpp"
#include "concurrent/thread_pool.hpp"
#include "core/config.hpp"
#include "core/fault.hpp"
#include "data/dataset.hpp"
#include "gpusim/virtual_clock.hpp"
#include "msg/actor.hpp"
#include "nn/model.hpp"

namespace hetsgd::core {

// How a worker executes its batches; maps 1:1 onto the coordinator's
// DeviceKind (kHogwild <-> kCpu, kReplica <-> kGpu).
enum class ExecMode { kHogwild, kReplica };

class Worker final : public msg::Actor {
 public:
  // `ordinal` distinguishes multiple replica workers (device index);
  // `real_threads` sizes the Hogwild lane pool (ignored by kReplica).
  Worker(msg::WorkerId id, const TrainingConfig& config,
         const data::Dataset& dataset, nn::Model& global_model,
         msg::Actor& coordinator, ExecMode mode, int real_threads = 1,
         int ordinal = 0);

  msg::WorkerId id() const { return id_; }
  ExecMode mode() const { return mode_; }
  // The perf model this worker charges virtual time with.
  const gpusim::PerfModel& perf() const;
  // Replica mode only: the backend holding the device replica.
  const backend::Backend& device_backend() const { return *backend_; }

  // Attaches a fault-injection plan (shared, thread-safe). Call before
  // start(); nullptr = no injections.
  void set_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }

  // Checkpointing: the worker's private state (virtual clock, busy time,
  // update counter) as an opaque version-2 blob, produced on the actor
  // thread in response to StateRequest. restore_state() is the inverse and
  // also reads version-1 blobs; call it before start() only. Blobs keep
  // the pre-seam 'C'/'G' tags.
  std::vector<std::uint8_t> serialize_state() const;
  bool restore_state(const std::vector<std::uint8_t>& bytes,
                     std::string* error);

 protected:
  bool handle(msg::Envelope envelope) override;
  bool on_handle_exception(const std::string& what) override;

 private:
  // Returns false when an injected death fires: the actor exits its loop
  // without reporting, exactly like a crashed worker.
  bool execute(const msg::ExecuteWork& work);
  bool execute_hogwild(const msg::ExecuteWork& work);
  bool execute_replica(const msg::ExecuteWork& work);
  // The start of every batch: checks its range, advances the clock to
  // work.not_before, and fires any injected crash, death or stall due then
  // (*stall gets the stall's factor and sleep). Returns false on an
  // injected death.
  bool begin_batch(const msg::ExecuteWork& work, FaultPlan::StallState* stall);
  // Grows the per-lane executors to hold `sub_batch` rows; growth is
  // one-way until release_scratch().
  void ensure_lane_capacity(tensor::Index sub_batch);
  void release_scratch();
  void request_work(std::uint64_t examples, double intensity,
                    std::uint64_t sequence, double staleness = 0.0);
  const char* log_tag() const {
    return mode_ == ExecMode::kHogwild ? "cpu-worker" : "gpu-worker";
  }

  msg::WorkerId id_;
  const TrainingConfig& config_;
  const data::Dataset& dataset_;
  nn::Model& model_;  // the shared global model (reference replica)
  msg::Actor& coordinator_;
  ExecMode mode_;
  gpusim::PerfModel hogwild_perf_;
  FaultPlan* fault_plan_ = nullptr;
  gpusim::VirtualClock clock_;
  double busy_vtime_ = 0.0;

  // --- kHogwild state ----------------------------------------------------
  // beta-weighted update count; reported to the coordinator as floor().
  double updates_scaled_ = 0.0;
  std::unique_ptr<concurrent::ThreadPool> pool_;
  // Per physical lane (lanes process multiple logical sub-batches): a
  // zero-copy backend + executor bound to the shared model and the lane's
  // gradient slab.
  std::vector<std::unique_ptr<backend::Backend>> lane_backends_;
  std::vector<std::unique_ptr<backend::MlpExecutor>> lane_executors_;
  tensor::Index lane_capacity_ = 0;
  std::vector<nn::Gradient> gradients_;

  // --- kReplica state ----------------------------------------------------
  std::uint64_t updates_ = 0;
  std::unique_ptr<backend::Backend> backend_;
  std::unique_ptr<backend::MlpExecutor> executor_;
  nn::Gradient host_gradient_;
  // Host-side snapshot of the model at upload time; compared against the
  // live model at merge time to measure replica staleness (§VI-B).
  nn::Model upload_snapshot_;
};

}  // namespace hetsgd::core

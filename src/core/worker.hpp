// The training worker (Algorithm 2's worker handlers).
//
// One actor class replaces the former CpuWorker/GpuWorker pair; what used
// to be two code paths is now one message protocol over the two modes of
// backend::Backend, chosen by the worker's gpusim::DeviceKind:
//
//  * kCpu — nested Hogbatch over the *shared* global model (§V-A, the
//    CPU worker handler). The batch splits into sim_lanes sub-batches;
//    each real lane owns a zero-copy Backend whose executor is bound to the
//    shared model and takes each sub-batch's SGD step in place
//    (MlpExecutor::sgd_step): deltas come from live (racing) weights and
//    each layer's update is written straight into them with no
//    synchronization and no per-lane gradient. Virtual time is charged
//    analytically per batch through the cost model.
//
//  * kGpu — mini-batch SGD against a private device replica (§V-A,
//    the GPU worker handler). One device-mode Backend modeling
//    config.gpu.spec holds the replica; every batch uploads the model,
//    runs the kernel sequence, downloads the gradient, and merges on the
//    host. Transfer faults are retried with capped exponential
//    virtual-time backoff before escalating to the coordinator.
//
// Both modes count the updates they applied in one exact counter and
// report it with their clock and busy time in every ScheduleWork; the
// coordinator's UpdateLedger keeps those values, and checkpoints persist
// them from there (Algorithm 2 applies the beta discount when it compares
// counts).
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
#include "core/update_ledger.hpp"
#include "data/dataset.hpp"
#include "gpusim/virtual_clock.hpp"
#include "msg/actor.hpp"
#include "nn/model.hpp"

namespace hetsgd::core {

class Worker final : public msg::Actor {
 public:
  // `ordinal` distinguishes multiple GPU workers (device index);
  // `real_threads` sizes the Hogwild lane pool (ignored by kGpu).
  Worker(msg::WorkerId id, const TrainingConfig& config,
         const data::Dataset& dataset, nn::Model& global_model,
         msg::Actor& coordinator, gpusim::DeviceKind kind,
         int real_threads = 1, int ordinal = 0);

  msg::WorkerId id() const { return id_; }
  gpusim::DeviceKind kind() const { return kind_; }
  // The perf model this worker charges virtual time with.
  const gpusim::PerfModel& perf() const;
  // GPU workers only: the backend holding the device replica.
  const backend::Backend& device_backend() const { return *backend_; }

  // Attaches a fault-injection plan (shared, thread-safe). Call before
  // start(); nullptr = no injections.
  void set_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }

  // Checkpoint resume: continues from the clock, busy time and update
  // count the ledger held for this worker at the cut. Call before start().
  void restore_progress(const WorkerStats& stats);

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
    return kind_ == gpusim::DeviceKind::kCpu ? "cpu-worker" : "gpu-worker";
  }

  msg::WorkerId id_;
  const TrainingConfig& config_;
  const data::Dataset& dataset_;
  nn::Model& model_;  // the shared global model (reference replica)
  msg::Actor& coordinator_;
  gpusim::DeviceKind kind_;
  gpusim::PerfModel hogwild_perf_;
  FaultPlan* fault_plan_ = nullptr;
  gpusim::VirtualClock clock_;
  double busy_vtime_ = 0.0;
  std::uint64_t updates_ = 0;  // model updates applied, both modes

  // --- kCpu (Hogwild) state ----------------------------------------------
  std::unique_ptr<concurrent::ThreadPool> pool_;
  // Per physical lane (lanes process multiple logical sub-batches): a
  // zero-copy backend + executor bound to the shared model.
  std::vector<std::unique_ptr<backend::Backend>> lane_backends_;
  std::vector<std::unique_ptr<backend::MlpExecutor>> lane_executors_;
  tensor::Index lane_capacity_ = 0;

  // --- kGpu (replica) state ----------------------------------------------
  std::unique_ptr<backend::Backend> backend_;
  std::unique_ptr<backend::MlpExecutor> executor_;
  nn::Gradient host_gradient_;
  // Host-side snapshot of the model at upload time; compared against the
  // live model at merge time to measure replica staleness (§VI-B).
  nn::Model upload_snapshot_;
};

}  // namespace hetsgd::core

// Adaptive Hogbatch batch-size controller — Algorithm 2's ScheduleWork
// logic (§VI-C).
//
// On every work request from worker E, the coordinator compares E's
// cumulative update count u^E against the minimum and maximum counts of
// the *other* workers:
//   - u^E < min_u : E is the slowest worker -> speed it up by shrinking
//     its batch (b^E <- max(b^E / alpha, min_b^E));
//   - u^E > max_u : E is the fastest worker -> slow it down by growing its
//     batch (b^E <- min(b^E * alpha, max_b^E)).
// The thresholds [min_b, max_b] encode the minimum-utilization guarantee
// (the paper calibrates GPU utilization to ~50% at the lower threshold and
// ~100% at the upper); alpha defaults to 2 (double/halve). Batch sizes are
// kept multiples of each worker's quantum (the CPU worker's lane count, so
// sub-batches stay whole).
//
// A CPU worker's count enters the comparison discounted by beta, the
// fraction of Hogwild updates taken to survive the lanes' overwrites
// (default 1): Algorithm 2 compares floor(beta * u^E) for CPU workers and
// u^E for GPU workers. Workers report their exact counts; the discount is
// applied here only.
#pragma once

#include <cstdint>
#include <vector>

#include "gpusim/perf_model.hpp"
#include "msg/message.hpp"
#include "tensor/types.hpp"

namespace hetsgd::core {

class AdaptiveController {
 public:
  explicit AdaptiveController(double alpha, double beta = 1.0);

  struct WorkerLimits {
    tensor::Index initial = 0;
    tensor::Index min = 0;
    tensor::Index max = 0;
    tensor::Index quantum = 1;
  };

  // Registers worker `id` (dense from 0) of device `kind` with its batch
  // thresholds. `baseline_updates` credits a worker that joins an
  // in-progress run (elastic membership): the newcomer's raw counter starts
  // at zero, so without the credit Algorithm 2 would see it as "slowest"
  // and shrink its batch to the minimum until it caught up on absolute
  // count. The credit is in compared (discounted) units and is applied in
  // comparisons only — reported counters stay raw.
  void register_worker(msg::WorkerId id, gpusim::DeviceKind kind,
                       const WorkerLimits& limits,
                       std::uint64_t baseline_updates = 0);

  // Marks a worker as retired: it no longer participates in the min/max
  // comparison and its own requests return the batch unchanged.
  void retire_worker(msg::WorkerId id);

  // Checkpoint restore: overwrite a worker's batch (clamped to its
  // thresholds) and raw cumulative update count; any join credit goes.
  void restore_worker(msg::WorkerId id, tensor::Index batch,
                      std::uint64_t updates);

  tensor::Index batch(msg::WorkerId id) const;
  // The count Algorithm 2 compares for `id`: floor(beta * u) for a CPU
  // worker, u for a GPU worker, plus any join-time credit.
  std::uint64_t updates(msg::WorkerId id) const;

  // Algorithm 2 lines 1-5: records worker E's raw count u^E and returns the
  // (possibly resized) batch for its next ExecuteWork.
  tensor::Index on_request(msg::WorkerId id, std::uint64_t updates);

  double alpha() const { return alpha_; }

 private:
  struct State {
    WorkerLimits limits;
    bool discounted = false;  // a CPU worker: its count is scaled by beta
    tensor::Index batch = 0;
    std::uint64_t updates = 0;  // raw, as reported
    std::uint64_t offset = 0;   // join-time baseline credit
    bool retired = false;
  };

  tensor::Index clamp_to_quantum(tensor::Index b,
                                 const WorkerLimits& limits) const;
  std::uint64_t compared(const State& s) const;

  double alpha_;
  double beta_;
  std::vector<State> workers_;
};

}  // namespace hetsgd::core

// Analytic virtual-time costs of one training batch on each worker type.
//
// Shared between the workers (which charge these costs to their clocks)
// and the calibration benchmark (bench/table1_hardware), which uses the
// same formulas to print modeled epoch times and verify the CPU:GPU speed
// ratio lands in the paper's measured 236-317x band.
#pragma once

#include <cstdint>

#include "gpusim/perf_model.hpp"
#include "nn/model.hpp"

namespace hetsgd::core {

// Bytes of one full model copy (all weights + biases).
std::uint64_t model_bytes(const nn::MlpConfig& mlp);

// How the Hogwild worker splits a `batch`-example batch over `lanes`
// simulated threads (Algorithm 2, CPU worker handler): `count` sub-batches
// of `sub_batch` = max(1, batch / lanes) examples, one model update each;
// the last is shorter when sub_batch does not divide the batch. A batch
// that is not a multiple of the lanes yields more sub-batches than lanes
// (10 over 4: five of 2).
struct HogwildSplit {
  tensor::Index sub_batch = 1;
  tensor::Index count = 1;
};
HogwildSplit hogwild_split(tensor::Index batch, int lanes);

// Virtual seconds for one CPU-worker batch: `lanes` Hogwild threads each
// process a `sub_batch`-example sub-batch (forward+backward at per-thread
// throughput) and apply one full-model update at the contended
// update_bandwidth. All lanes run concurrently, so the batch cost is one
// lane's cost.
double cpu_batch_seconds(const gpusim::PerfModel& perf,
                         const nn::MlpConfig& mlp, tensor::Index sub_batch,
                         int lanes);

// CPU utilization proxy during a batch: fraction of the host's hardware
// threads kept busy. `host_threads` is the machine total (the paper uses
// 56 of 64, giving the ~80-87% plateau of Fig. 7); larger sub-batches show
// a mild decrease, matching the Adaptive curve.
double cpu_batch_intensity(int lanes, int host_threads,
                           tensor::Index sub_batch,
                           tensor::Index max_sub_batch);

// Virtual seconds for one GPU-worker batch processed through the simulated
// device: model upload (deep copy), batch upload, forward/backward kernel
// sequence, gradient download, and the host-side merge into the global
// model at `host_merge_bandwidth`. This mirrors DeviceMlp's per-kernel
// charges analytically (used for calibration printouts; the worker itself
// charges the exact per-kernel costs).
double gpu_batch_seconds(const gpusim::PerfModel& perf,
                         const nn::MlpConfig& mlp, tensor::Index batch,
                         double host_merge_bandwidth);

// Modeled seconds for one full epoch of `examples` examples.
double cpu_epoch_seconds(const gpusim::PerfModel& perf,
                         const nn::MlpConfig& mlp, tensor::Index examples,
                         tensor::Index sub_batch, int lanes);
double gpu_epoch_seconds(const gpusim::PerfModel& perf,
                         const nn::MlpConfig& mlp, tensor::Index examples,
                         tensor::Index batch, double host_merge_bandwidth);

}  // namespace hetsgd::core

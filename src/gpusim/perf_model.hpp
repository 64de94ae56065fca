// Analytic device performance model.
//
// Charges virtual time for GEMMs, element-wise kernels, launches, and
// host<->device transfers. Calibrated against the paper's testbed (Table I:
// 2x18-core Xeon with 56 worker threads, NVIDIA Volta V100) so the
// *relative* behaviours its experiments rely on hold:
//   - an SGD epoch of CPU Hogwild is ~236-317x slower than GPU mini-batch
//     (paper §VII-B "Time to convergence");
//   - GPU utilization is ~50% at the lower batch-size threshold and close
//     to 100% at the upper one (§VII-A "Methodology");
//   - transfer cost makes tiny GPU batches unprofitable (launch latency +
//     PCIe dominate), which is why the paper keeps large batches on GPU.
#pragma once

#include <cstdint>
#include <string>

#include "tensor/types.hpp"

namespace hetsgd::gpusim {

enum class DeviceKind { kCpu, kGpu };

// Static description of a modeled device.
struct DeviceSpec {
  std::string name;
  DeviceKind kind = DeviceKind::kGpu;

  // Peak dense FLOP/s the device can sustain on large GEMMs.
  double peak_flops = 10e12;

  // Batch size at which GEMM efficiency reaches 50% of its asymptote.
  // Models the throughput-vs-batch saturation curve: small batches cannot
  // fill the device (GPU: thousands of idle CUDA cores; CPU: loop and
  // memory-latency overheads).
  double half_saturation_batch = 256.0;

  // Efficiency floor (fraction of peak) even for batch size 1: memory-bound
  // matrix-vector work still makes progress.
  double min_efficiency = 0.02;

  // Asymptotic efficiency at huge batches (fraction of peak).
  double max_efficiency = 0.75;

  // Fixed cost per kernel launch (GPU: driver + scheduling; CPU: loop/OMP
  // fork overhead, much smaller).
  double kernel_launch_seconds = 4e-6;

  // Host<->device link bandwidth in bytes/second and fixed per-transfer
  // latency. Zero-cost for CPU devices (shared memory, reference passing).
  double link_bandwidth = 12e9;
  double link_latency_seconds = 10e-6;

  // Per model update bookkeeping cost (lock-free CAS traffic, cache
  // coherency on the shared model). Dominates for Hogwild's batch-1 updates.
  double update_overhead_seconds = 0.0;

  // Per-lane bytes/second for applying an update to the shared model
  // (read-modify-write of every parameter under multi-socket cache-
  // coherency contention — the paper's §V-A NUMA effects). 0 = not modeled
  // (device-local updates run at full memory bandwidth instead).
  double update_bandwidth = 0.0;

  // Device memory capacity in bytes (enforced by Backend::reserve).
  std::uint64_t memory_capacity = 16ULL << 30;

  // Number of concurrent hardware lanes (worker threads on CPU; informative
  // for GPU).
  int lanes = 1;
};

// Presets matching Table I of the paper.
DeviceSpec v100_spec();
// 56 OpenMP worker threads on the 2x18-core (72 hyperthread) Xeon host.
DeviceSpec xeon56_spec();
// A single-socket spec scaled to `threads` workers (for ablations).
DeviceSpec xeon_spec(int threads);

class PerfModel {
 public:
  explicit PerfModel(DeviceSpec spec);

  const DeviceSpec& spec() const { return spec_; }

  // GEMM efficiency (fraction of peak) for an effective batch size. The
  // batch is the parallel-work dimension m of a (m x k) * (k x n) product.
  double efficiency(double batch) const;

  // Virtual seconds for C = A(m x k) * B(k x n) including launch overhead.
  double gemm_seconds(tensor::Index m, tensor::Index n, tensor::Index k) const;

  // Virtual seconds for an element-wise kernel over `elements` values.
  double elementwise_seconds(std::uint64_t elements) const;

  // Virtual seconds to move `bytes` across the host-device link.
  double transfer_seconds(std::uint64_t bytes) const;

  // Virtual seconds of per-update bookkeeping for `updates` model updates.
  double update_overhead_seconds(std::uint64_t updates) const;

  // Utilization proxy for a workload that processes `batch`-sized chunks:
  // fraction of the device kept busy, i.e. efficiency relative to the
  // asymptote. Matches the paper's ~50%/~100% threshold calibration.
  double utilization(double batch) const;

 private:
  DeviceSpec spec_;
};

}  // namespace hetsgd::gpusim

#include "core/adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/macros.hpp"

namespace hetsgd::core {

using tensor::Index;

AdaptiveController::AdaptiveController(double alpha, double beta)
    : alpha_(alpha), beta_(beta) {
  HETSGD_ASSERT(alpha > 1.0, "alpha must exceed 1 (default 2)");
}

void AdaptiveController::register_worker(msg::WorkerId id,
                                         gpusim::DeviceKind kind,
                                         const WorkerLimits& limits,
                                         std::uint64_t baseline_updates) {
  HETSGD_ASSERT(id == static_cast<msg::WorkerId>(workers_.size()),
                "worker ids must be registered densely from 0");
  HETSGD_ASSERT(limits.quantum >= 1, "quantum must be positive");
  HETSGD_ASSERT(limits.min >= limits.quantum, "min batch below quantum");
  HETSGD_ASSERT(limits.min <= limits.max, "min batch exceeds max");
  HETSGD_ASSERT(limits.initial >= limits.min && limits.initial <= limits.max,
                "initial batch outside thresholds");
  State s;
  s.limits = limits;
  s.discounted = kind == gpusim::DeviceKind::kCpu;
  s.batch = clamp_to_quantum(limits.initial, limits);
  s.offset = baseline_updates;
  workers_.push_back(s);
}

void AdaptiveController::retire_worker(msg::WorkerId id) {
  HETSGD_ASSERT(id >= 0 && static_cast<std::size_t>(id) < workers_.size(),
                "unknown worker");
  workers_[static_cast<std::size_t>(id)].retired = true;
}

void AdaptiveController::restore_worker(msg::WorkerId id, Index batch,
                                        std::uint64_t updates) {
  HETSGD_ASSERT(id >= 0 && static_cast<std::size_t>(id) < workers_.size(),
                "unknown worker");
  State& s = workers_[static_cast<std::size_t>(id)];
  s.batch = clamp_to_quantum(batch, s.limits);
  s.updates = updates;
  s.offset = 0;
}

Index AdaptiveController::batch(msg::WorkerId id) const {
  HETSGD_ASSERT(id >= 0 && static_cast<std::size_t>(id) < workers_.size(),
                "unknown worker");
  return workers_[static_cast<std::size_t>(id)].batch;
}

std::uint64_t AdaptiveController::updates(msg::WorkerId id) const {
  HETSGD_ASSERT(id >= 0 && static_cast<std::size_t>(id) < workers_.size(),
                "unknown worker");
  return compared(workers_[static_cast<std::size_t>(id)]);
}

std::uint64_t AdaptiveController::compared(const State& s) const {
  if (!s.discounted) return s.offset + s.updates;
  return s.offset + static_cast<std::uint64_t>(
                        std::floor(beta_ * static_cast<double>(s.updates)));
}

Index AdaptiveController::clamp_to_quantum(Index b,
                                           const WorkerLimits& limits) const {
  // Round to the nearest quantum multiple, then clamp into [min, max].
  const Index q = limits.quantum;
  Index rounded = (b + q / 2) / q * q;
  if (rounded < q) rounded = q;
  return std::clamp(rounded, limits.min, limits.max);
}

Index AdaptiveController::on_request(msg::WorkerId id, std::uint64_t updates) {
  HETSGD_ASSERT(id >= 0 && static_cast<std::size_t>(id) < workers_.size(),
                "unknown worker");
  State& e = workers_[static_cast<std::size_t>(id)];
  HETSGD_ASSERT(updates >= e.updates, "update counts must be monotone");
  e.updates = updates;
  if (e.retired) return e.batch;

  // min_u / max_u over the other (non-retired) workers' compared counts.
  std::uint64_t min_u = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_u = 0;
  bool any_other = false;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (static_cast<msg::WorkerId>(i) == id || workers_[i].retired) continue;
    const std::uint64_t u = compared(workers_[i]);
    min_u = std::min(min_u, u);
    max_u = std::max(max_u, u);
    any_other = true;
  }
  if (!any_other) {
    return e.batch;  // single worker: nothing to balance against
  }

  const std::uint64_t u_e = compared(e);
  if (u_e < min_u) {
    // Slowest worker: shrink the batch to produce updates faster.
    const Index shrunk = static_cast<Index>(
        std::floor(static_cast<double>(e.batch) / alpha_));
    e.batch = clamp_to_quantum(std::max(shrunk, e.limits.min), e.limits);
  } else if (u_e > max_u) {
    // Fastest worker: grow the batch to slow its update rate.
    const Index grown = static_cast<Index>(
        std::ceil(static_cast<double>(e.batch) * alpha_));
    e.batch = clamp_to_quantum(std::min(grown, e.limits.max), e.limits);
  }
  return e.batch;
}

}  // namespace hetsgd::core

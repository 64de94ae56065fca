// Utilization monitor: per-worker busy segments in virtual time (Fig. 7).
//
// Each completed batch contributes one segment [t0, t1] with an intensity
// (the device utilization during that batch: GEMM efficiency relative to
// its asymptote on GPU, occupied-thread fraction on CPU). Gaps between
// segments are idle time. The bucketed series reproduces the paper's
// utilization-over-time plots.
#pragma once

#include <cstdint>
#include <vector>

#include "msg/message.hpp"

namespace hetsgd::core {

struct BusySegment {
  double t0 = 0.0;
  double t1 = 0.0;
  double intensity = 0.0;  // [0, 1]
};

class UtilizationMonitor {
 public:
  explicit UtilizationMonitor(std::size_t workers);

  // Grows the monitor by one worker, with the next dense id. A worker that
  // joins mid-run has an empty (idle) history before its join.
  void add_worker();

  void record(msg::WorkerId worker, double t0, double t1, double intensity);

  const std::vector<BusySegment>& segments(msg::WorkerId worker) const;

  // Average utilization of `worker` over [0, horizon] sampled into buckets
  // of `dt` virtual seconds. Overlapping fractions of segments are
  // apportioned to buckets exactly.
  std::vector<double> bucket_series(msg::WorkerId worker, double dt,
                                    double horizon) const;

  // Mean utilization of a worker over [0, horizon] (idle counted as 0).
  double mean_utilization(msg::WorkerId worker, double horizon) const;

 private:
  std::vector<std::vector<BusySegment>> per_worker_;
};

}  // namespace hetsgd::core

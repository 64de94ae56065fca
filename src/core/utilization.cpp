#include "core/utilization.hpp"

#include <algorithm>
#include <cmath>

#include "common/macros.hpp"

namespace hetsgd::core {

void UtilizationMonitor::add_worker() { per_worker_.emplace_back(); }

void UtilizationMonitor::record(msg::WorkerId worker, double t0, double t1,
                                double intensity) {
  HETSGD_ASSERT(worker >= 0 &&
                    static_cast<std::size_t>(worker) < per_worker_.size(),
                "unknown worker id");
  HETSGD_ASSERT(t1 >= t0, "segment ends before it starts");
  HETSGD_ASSERT(intensity >= 0.0 && intensity <= 1.0,
                "intensity out of [0,1]");
  per_worker_[static_cast<std::size_t>(worker)].push_back({t0, t1, intensity});
}

const std::vector<BusySegment>& UtilizationMonitor::segments(
    msg::WorkerId worker) const {
  HETSGD_ASSERT(worker >= 0 &&
                    static_cast<std::size_t>(worker) < per_worker_.size(),
                "unknown worker id");
  return per_worker_[static_cast<std::size_t>(worker)];
}

std::vector<double> UtilizationMonitor::bucket_series(msg::WorkerId worker,
                                                      double dt,
                                                      double horizon) const {
  HETSGD_ASSERT(dt > 0.0 && horizon > 0.0, "bad bucket parameters");
  const std::size_t buckets =
      static_cast<std::size_t>(std::ceil(horizon / dt));
  std::vector<double> busy(buckets, 0.0);
  for (const auto& seg : segments(worker)) {
    double a = std::max(seg.t0, 0.0);
    const double b = std::min(seg.t1, horizon);
    while (a < b) {
      const std::size_t bucket = std::min(
          static_cast<std::size_t>(a / dt), buckets - 1);
      const double bucket_end = static_cast<double>(bucket + 1) * dt;
      const double slice = std::min(b, bucket_end) - a;
      if (slice <= 0.0) {
        // Floating-point tail: `a` reached the clamped last bucket's end
        // (buckets*dt can round below horizon). Attribute the remainder to
        // the final bucket and stop.
        busy[buckets - 1] += (b - a) * seg.intensity;
        break;
      }
      busy[bucket] += slice * seg.intensity;
      a += slice;
    }
  }
  for (auto& v : busy) {
    v = std::min(v / dt, 1.0);
  }
  return busy;
}

double UtilizationMonitor::mean_utilization(msg::WorkerId worker,
                                            double horizon) const {
  HETSGD_ASSERT(horizon > 0.0, "bad horizon");
  double area = 0.0;
  for (const auto& seg : segments(worker)) {
    const double a = std::max(seg.t0, 0.0);
    const double b = std::min(seg.t1, horizon);
    if (b > a) area += (b - a) * seg.intensity;
  }
  return std::min(area / horizon, 1.0);
}

}  // namespace hetsgd::core

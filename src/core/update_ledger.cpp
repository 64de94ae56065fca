#include "core/update_ledger.hpp"

#include <algorithm>
#include <utility>

#include "common/macros.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hetsgd::core {

void UpdateLedger::register_worker(msg::WorkerId id, std::string name,
                                   gpusim::DeviceKind kind,
                                   tensor::Index initial_batch) {
  MutexLock lock(mu_);
  HETSGD_ASSERT(id == static_cast<msg::WorkerId>(workers_.size()),
                "worker ids must be registered densely from 0");
  WorkerStats s;
  s.id = id;
  s.name = std::move(name);
  s.kind = kind;
  s.current_batch = initial_batch;
  workers_.push_back(std::move(s));
}

WorkerStats& UpdateLedger::stats_locked(msg::WorkerId id) {
  HETSGD_ASSERT(id >= 0 && static_cast<std::size_t>(id) < workers_.size(),
                "unknown worker id");
  return workers_[static_cast<std::size_t>(id)];
}

const WorkerStats& UpdateLedger::stats_locked(msg::WorkerId id) const {
  HETSGD_ASSERT(id >= 0 && static_cast<std::size_t>(id) < workers_.size(),
                "unknown worker id");
  return workers_[static_cast<std::size_t>(id)];
}

WorkerStats UpdateLedger::stats(msg::WorkerId id) const {
  MutexLock lock(mu_);
  return stats_locked(id);
}

std::vector<WorkerStats> UpdateLedger::all() const {
  MutexLock lock(mu_);
  return workers_;
}

std::size_t UpdateLedger::worker_count() const {
  MutexLock lock(mu_);
  return workers_.size();
}

double UpdateLedger::clock(msg::WorkerId id) const {
  MutexLock lock(mu_);
  return stats_locked(id).clock;
}

double UpdateLedger::busy_vtime(msg::WorkerId id) const {
  MutexLock lock(mu_);
  return stats_locked(id).busy_vtime;
}

tensor::Index UpdateLedger::current_batch(msg::WorkerId id) const {
  MutexLock lock(mu_);
  return stats_locked(id).current_batch;
}

void UpdateLedger::set_current_batch(msg::WorkerId id, tensor::Index batch) {
  MutexLock lock(mu_);
  stats_locked(id).current_batch = batch;
}

void UpdateLedger::on_report(const msg::ScheduleWork& report) {
  MutexLock lock(mu_);
  WorkerStats& s = stats_locked(report.worker);
  HETSGD_ASSERT(report.updates >= s.updates,
                "update counts must be monotone");
  HETSGD_ASSERT(report.clock_vtime >= s.clock, "worker clock went backwards");
  s.updates = report.updates;
  s.busy_vtime = report.busy_vtime;
  s.clock = report.clock_vtime;
  s.examples += report.examples;
  if (report.examples > 0) {
    ++s.batches;
    s.staleness_sum += report.staleness;
    s.max_staleness = std::max(s.max_staleness, report.staleness);
  }
}

void UpdateLedger::on_late_report(const msg::ScheduleWork& report) {
  MutexLock lock(mu_);
  WorkerStats& s = stats_locked(report.worker);
  HETSGD_ASSERT(report.updates >= s.updates,
                "update counts must be monotone");
  HETSGD_ASSERT(report.clock_vtime >= s.clock, "worker clock went backwards");
  s.updates = report.updates;
  s.busy_vtime = report.busy_vtime;
  s.clock = report.clock_vtime;
  // examples/batches deliberately untouched: the range was reclaimed.
}

void UpdateLedger::restore_stats(const WorkerStats& stats) {
  MutexLock lock(mu_);
  WorkerStats& s = stats_locked(stats.id);
  s.updates = stats.updates;
  s.batches = stats.batches;
  s.examples = stats.examples;
  s.busy_vtime = stats.busy_vtime;
  s.clock = stats.clock;
  s.current_batch = stats.current_batch;
  s.staleness_sum = stats.staleness_sum;
  s.max_staleness = stats.max_staleness;
}

void UpdateLedger::record_fault(FaultRecord record) {
  // Every fault/recovery event is observable: one trace instant (named
  // after the FaultKind — fault_kind_name returns static strings) and a
  // process-global counter. Emitted outside the ledger lock.
  static obs::Counter& fault_counter =
      obs::MetricsRegistry::instance().counter("hetsgd_fault_records_total");
  fault_counter.inc();
  HETSGD_TRACE_INSTANT("fault", fault_kind_name(record.kind), record.vtime);
  MutexLock lock(mu_);
  faults_.push_back(std::move(record));
}

std::vector<FaultRecord> UpdateLedger::fault_records() const {
  MutexLock lock(mu_);
  return faults_;
}

std::uint64_t UpdateLedger::total_updates() const {
  MutexLock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& w : workers_) total += w.updates;
  return total;
}

std::uint64_t UpdateLedger::total_examples() const {
  MutexLock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& w : workers_) total += w.examples;
  return total;
}

std::uint64_t UpdateLedger::updates_by_kind(gpusim::DeviceKind kind) const {
  MutexLock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& w : workers_) {
    if (w.kind == kind) total += w.updates;
  }
  return total;
}

double UpdateLedger::max_clock() const {
  MutexLock lock(mu_);
  double t = 0.0;
  for (const auto& w : workers_) t = std::max(t, w.clock);
  return t;
}

}  // namespace hetsgd::core

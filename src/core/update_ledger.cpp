#include "core/update_ledger.hpp"

#include <algorithm>
#include <utility>

#include "common/macros.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hetsgd::core {

UpdateLedger::UpdateLedger()
    : fault_records_(
          &obs::MetricsRegistry::instance().gauge("hetsgd_fault_records")) {
  fault_records_->set(0.0);
}

void UpdateLedger::register_worker(msg::WorkerId id, std::string name,
                                   gpusim::DeviceKind kind,
                                   tensor::Index initial_batch) {
  HETSGD_ASSERT(id == static_cast<msg::WorkerId>(workers_.size()),
                "worker ids must be registered densely from 0");
  WorkerStats s;
  s.id = id;
  s.name = std::move(name);
  s.kind = kind;
  s.current_batch = initial_batch;
  workers_.push_back(std::move(s));

  auto& reg = obs::MetricsRegistry::instance();
  const std::string p = "hetsgd_worker" + std::to_string(id) + "_";
  gauges_.push_back({&reg.gauge(p + "updates"), &reg.gauge(p + "examples"),
                     &reg.gauge(p + "busy_vseconds"),
                     &reg.gauge(p + "clock_vseconds"), &reg.gauge(p + "batch"),
                     &reg.gauge(p + "max_staleness")});
  publish(workers_.back());
}

WorkerStats& UpdateLedger::at(msg::WorkerId id) {
  HETSGD_ASSERT(id >= 0 && static_cast<std::size_t>(id) < workers_.size(),
                "unknown worker id");
  return workers_[static_cast<std::size_t>(id)];
}

const WorkerStats& UpdateLedger::stats(msg::WorkerId id) const {
  HETSGD_ASSERT(id >= 0 && static_cast<std::size_t>(id) < workers_.size(),
                "unknown worker id");
  return workers_[static_cast<std::size_t>(id)];
}

void UpdateLedger::publish(const WorkerStats& s) const {
  const Gauges& g = gauges_[static_cast<std::size_t>(s.id)];
  g.updates->set(static_cast<double>(s.updates));
  g.examples->set(static_cast<double>(s.examples));
  g.busy->set(s.busy_vtime);
  g.clock->set(s.clock);
  g.batch->set(static_cast<double>(s.current_batch));
  g.max_staleness->set(s.max_staleness);
}

void UpdateLedger::set_current_batch(msg::WorkerId id, tensor::Index batch) {
  WorkerStats& s = at(id);
  s.current_batch = batch;
  publish(s);
}

void UpdateLedger::on_report(const msg::ScheduleWork& report, bool late) {
  WorkerStats& s = at(report.worker);
  HETSGD_ASSERT(report.updates >= s.updates,
                "update counts must be monotone");
  HETSGD_ASSERT(report.clock_vtime >= s.clock, "worker clock went backwards");
  s.updates = report.updates;
  s.busy_vtime = report.busy_vtime;
  s.clock = report.clock_vtime;
  if (!late && report.examples > 0) {
    s.examples += report.examples;
    ++s.batches;
    s.staleness_sum += report.staleness;
    s.max_staleness = std::max(s.max_staleness, report.staleness);
  }
  publish(s);
}

void UpdateLedger::restore_stats(const WorkerStats& stats) {
  WorkerStats& s = at(stats.id);
  s.updates = stats.updates;
  s.batches = stats.batches;
  s.examples = stats.examples;
  s.busy_vtime = stats.busy_vtime;
  s.clock = stats.clock;
  s.current_batch = stats.current_batch;
  s.staleness_sum = stats.staleness_sum;
  s.max_staleness = stats.max_staleness;
  publish(s);
}

void UpdateLedger::record_fault(FaultRecord record) {
  // Every fault/recovery event is observable: one trace instant (named
  // after the FaultKind — fault_kind_name returns static strings) and a
  // process-global counter.
  static obs::Counter& fault_counter =
      obs::MetricsRegistry::instance().counter("hetsgd_fault_records_total");
  fault_counter.inc();
  HETSGD_TRACE_INSTANT("fault", fault_kind_name(record.kind), record.vtime);
  faults_.push_back(std::move(record));
  fault_records_->set(static_cast<double>(faults_.size()));
}

std::uint64_t UpdateLedger::total_examples() const {
  std::uint64_t total = 0;
  for (const auto& w : workers_) total += w.examples;
  return total;
}

std::uint64_t UpdateLedger::updates_by_kind(gpusim::DeviceKind kind) const {
  std::uint64_t total = 0;
  for (const auto& w : workers_) {
    if (w.kind == kind) total += w.updates;
  }
  return total;
}

double UpdateLedger::max_clock() const {
  double t = 0.0;
  for (const auto& w : workers_) t = std::max(t, w.clock);
  return t;
}

}  // namespace hetsgd::core

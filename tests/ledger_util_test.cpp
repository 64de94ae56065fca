#include <gtest/gtest.h>

#include "core/update_ledger.hpp"
#include "core/utilization.hpp"

namespace hetsgd::core {
namespace {

msg::ScheduleWork report(msg::WorkerId id, std::uint64_t updates,
                         double busy, double clock, double intensity,
                         std::uint64_t examples) {
  msg::ScheduleWork r;
  r.worker = id;
  r.updates = updates;
  r.busy_vtime = busy;
  r.clock_vtime = clock;
  r.intensity = intensity;
  r.examples = examples;
  return r;
}

TEST(UpdateLedger, RegisterAndReport) {
  UpdateLedger ledger;
  ledger.register_worker(0, "cpu", gpusim::DeviceKind::kCpu, 56);
  ledger.register_worker(1, "gpu", gpusim::DeviceKind::kGpu, 8192);
  EXPECT_EQ(ledger.all().size(), 2u);
  EXPECT_EQ(ledger.stats(0).current_batch, 56);

  ledger.on_report(report(0, 56, 0.1, 0.1, 0.8, 56));
  ledger.on_report(report(1, 1, 0.05, 0.05, 0.9, 8192));
  ledger.on_report(report(0, 112, 0.2, 0.2, 0.8, 56));

  EXPECT_EQ(ledger.stats(0).updates, 112u);
  EXPECT_EQ(ledger.stats(0).batches, 2u);
  EXPECT_EQ(ledger.stats(0).examples, 112u);
  EXPECT_EQ(ledger.total_examples(), 112u + 8192u);
  EXPECT_EQ(ledger.updates_by_kind(gpusim::DeviceKind::kCpu), 112u);
  EXPECT_EQ(ledger.updates_by_kind(gpusim::DeviceKind::kGpu), 1u);
}

TEST(UpdateLedger, InitialRequestDoesNotCountBatch) {
  UpdateLedger ledger;
  ledger.register_worker(0, "cpu", gpusim::DeviceKind::kCpu, 56);
  ledger.on_report(report(0, 0, 0.0, 0.0, 0.0, 0));  // examples == 0
  EXPECT_EQ(ledger.stats(0).batches, 0u);
}

TEST(UpdateLedger, ClockRange) {
  UpdateLedger ledger;
  ledger.register_worker(0, "a", gpusim::DeviceKind::kCpu, 1);
  ledger.register_worker(1, "b", gpusim::DeviceKind::kGpu, 1);
  ledger.on_report(report(0, 1, 0.5, 0.5, 0, 1));
  ledger.on_report(report(1, 1, 2.0, 2.0, 0, 1));
  EXPECT_DOUBLE_EQ(ledger.max_clock(), 2.0);
}

TEST(UpdateLedger, MonotonicityEnforced) {
  UpdateLedger ledger;
  ledger.register_worker(0, "a", gpusim::DeviceKind::kCpu, 1);
  ledger.on_report(report(0, 10, 1.0, 1.0, 0, 1));
  EXPECT_DEATH(ledger.on_report(report(0, 5, 2.0, 2.0, 0, 1)), "monotone");
  EXPECT_DEATH(ledger.on_report(report(0, 20, 2.0, 0.5, 0, 1)), "backwards");
}

TEST(UpdateLedger, DenseRegistrationEnforced) {
  UpdateLedger ledger;
  EXPECT_DEATH(ledger.register_worker(1, "x", gpusim::DeviceKind::kCpu, 1),
               "densely");
}

// A late report's batch was reclaimed and re-dispatched: its updates and
// clock count, its examples do not (dispatched == reported + reclaimed).
TEST(UpdateLedger, LateReportAdvancesClockButNotExamples) {
  UpdateLedger ledger;
  ledger.register_worker(0, "gpu", gpusim::DeviceKind::kGpu, 64);
  ledger.on_report(report(0, 1, 0.5, 0.5, 1.0, 64));
  ledger.on_late_report(report(0, 2, 1.5, 1.5, 1.0, 64));
  const WorkerStats s = ledger.stats(0);
  EXPECT_EQ(s.updates, 2u);
  EXPECT_DOUBLE_EQ(s.busy_vtime, 1.5);
  EXPECT_DOUBLE_EQ(s.clock, 1.5);
  EXPECT_EQ(s.examples, 64u);
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(ledger.updates_by_kind(gpusim::DeviceKind::kGpu), 2u);
  EXPECT_EQ(ledger.total_examples(), 64u);
  EXPECT_DEATH(ledger.on_late_report(report(0, 1, 2.0, 2.0, 1.0, 64)),
               "monotone");
}

TEST(UpdateLedger, RestoreStatsKeepsNameAndKind) {
  UpdateLedger ledger;
  ledger.register_worker(0, "cpu", gpusim::DeviceKind::kCpu, 56);
  ledger.register_worker(1, "gpu-new", gpusim::DeviceKind::kGpu, 64);
  WorkerStats saved;
  saved.id = 1;
  saved.name = "gpu-old";
  saved.kind = gpusim::DeviceKind::kCpu;
  saved.updates = 9;
  saved.batches = 4;
  saved.examples = 256;
  saved.busy_vtime = 2.5;
  saved.clock = 3.0;
  saved.current_batch = 128;
  saved.staleness_sum = 0.4;
  saved.max_staleness = 0.25;
  ledger.restore_stats(saved);
  const WorkerStats s = ledger.stats(1);
  EXPECT_EQ(s.name, "gpu-new");
  EXPECT_EQ(s.kind, gpusim::DeviceKind::kGpu);
  EXPECT_EQ(s.updates, 9u);
  EXPECT_EQ(s.batches, 4u);
  EXPECT_EQ(s.examples, 256u);
  EXPECT_DOUBLE_EQ(s.busy_vtime, 2.5);
  EXPECT_DOUBLE_EQ(s.clock, 3.0);
  EXPECT_EQ(s.current_batch, 128);
  EXPECT_DOUBLE_EQ(s.mean_staleness(), 0.1);
  EXPECT_DOUBLE_EQ(s.max_staleness, 0.25);
  // The restored counters are the floor for the next report.
  EXPECT_EQ(ledger.stats(0).updates, 0u);
  EXPECT_DEATH(ledger.on_report(report(1, 8, 3.0, 3.0, 1.0, 64)), "monotone");
}

TEST(UtilizationMonitor, RecordsSegments) {
  UtilizationMonitor monitor(2);
  monitor.record(0, 0.0, 1.0, 0.5);
  monitor.record(0, 2.0, 3.0, 1.0);
  EXPECT_EQ(monitor.segments(0).size(), 2u);
  EXPECT_TRUE(monitor.segments(1).empty());
}

TEST(UtilizationMonitor, BucketSeriesExactApportioning) {
  UtilizationMonitor monitor(1);
  // Busy [0.5, 1.5] at intensity 1.0 across two 1-second buckets.
  monitor.record(0, 0.5, 1.5, 1.0);
  auto series = monitor.bucket_series(0, 1.0, 2.0);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_NEAR(series[0], 0.5, 1e-12);
  EXPECT_NEAR(series[1], 0.5, 1e-12);
}

TEST(UtilizationMonitor, IntensityScalesBuckets) {
  UtilizationMonitor monitor(1);
  monitor.record(0, 0.0, 2.0, 0.25);
  auto series = monitor.bucket_series(0, 1.0, 2.0);
  EXPECT_NEAR(series[0], 0.25, 1e-12);
  EXPECT_NEAR(series[1], 0.25, 1e-12);
}

TEST(UtilizationMonitor, IdleGapsAreZero) {
  UtilizationMonitor monitor(1);
  monitor.record(0, 0.0, 1.0, 1.0);
  monitor.record(0, 3.0, 4.0, 1.0);
  auto series = monitor.bucket_series(0, 1.0, 4.0);
  ASSERT_EQ(series.size(), 4u);
  EXPECT_NEAR(series[1], 0.0, 1e-12);
  EXPECT_NEAR(series[2], 0.0, 1e-12);
}

TEST(UtilizationMonitor, SegmentsBeyondHorizonClipped) {
  UtilizationMonitor monitor(1);
  monitor.record(0, 0.5, 100.0, 1.0);
  auto series = monitor.bucket_series(0, 1.0, 2.0);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_NEAR(series[0], 0.5, 1e-12);
  EXPECT_NEAR(series[1], 1.0, 1e-12);
}

TEST(UtilizationMonitor, MeanUtilization) {
  UtilizationMonitor monitor(1);
  monitor.record(0, 0.0, 5.0, 0.8);  // busy half the 10s horizon at 0.8
  EXPECT_NEAR(monitor.mean_utilization(0, 10.0), 0.4, 1e-12);
}

TEST(UtilizationMonitor, FloatingPointTailTerminates) {
  // Regression: horizon/buckets rounding used to spin forever when a
  // segment reached past buckets*dt (observed hanging fig7 with
  // horizon = total virtual time of a real run).
  UtilizationMonitor monitor(1);
  const double horizon = 0.0488397199193018;  // from the hanging run
  monitor.record(0, 0.0, horizon, 0.8);
  auto series = monitor.bucket_series(0, horizon / 24.0, horizon);
  ASSERT_EQ(series.size(), 24u);
  for (double u : series) {
    EXPECT_NEAR(u, 0.8, 1e-9);
  }
}

TEST(UtilizationMonitor, ManyIrrationalBucketBoundaries) {
  UtilizationMonitor monitor(1);
  for (int i = 0; i < 100; ++i) {
    monitor.record(0, i * 0.137, i * 0.137 + 0.1, 0.5);
  }
  auto series = monitor.bucket_series(0, 0.0137 * 3, 100 * 0.137);
  EXPECT_FALSE(series.empty());  // reaching here means no infinite loop
}

TEST(UtilizationMonitor, InvalidRecordDies) {
  UtilizationMonitor monitor(1);
  EXPECT_DEATH(monitor.record(0, 2.0, 1.0, 0.5), "ends before");
  EXPECT_DEATH(monitor.record(0, 0.0, 1.0, 1.5), "intensity");
  EXPECT_DEATH(monitor.record(5, 0.0, 1.0, 0.5), "unknown worker");
}

}  // namespace
}  // namespace hetsgd::core

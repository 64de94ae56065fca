// Algorithm 2's batch decision (core::adaptive_batch) on per-worker records
// laid out as the Scheduler keeps them.
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/scheduler.hpp"

namespace hetsgd::core {
namespace {

using tensor::Index;
constexpr auto kCpu = gpusim::DeviceKind::kCpu;
constexpr auto kGpu = gpusim::DeviceKind::kGpu;

// Worker records (stats[i] and schedule[i] are worker i's), each report
// decided by adaptive_batch as Scheduler::on_report decides it.
struct Records {
  explicit Records(double resize_factor = 2.0, double survival = 1.0)
      : alpha(resize_factor), beta(survival) {}

  void add(gpusim::DeviceKind kind, const BatchLimits& limits,
           std::uint64_t credit = 0) {
    WorkerStats s;
    s.id = static_cast<msg::WorkerId>(stats.size());
    s.kind = kind;
    s.current_batch = clamp_batch(limits.initial, limits);
    WorkerSchedule w;
    w.limits = limits;
    w.credit = credit;
    stats.push_back(s);
    schedule.push_back(w);
  }
  // Worker `id` reports `u` updates; returns its next batch.
  Index request(msg::WorkerId id, std::uint64_t u) {
    stats.at(static_cast<std::size_t>(id)).updates = u;
    stats.at(static_cast<std::size_t>(id)).current_batch =
        adaptive_batch(stats, schedule, id, alpha, beta).batch;
    return batch(id);
  }
  Index batch(msg::WorkerId id) const {
    return stats.at(static_cast<std::size_t>(id)).current_batch;
  }
  std::uint64_t updates(msg::WorkerId id) const {
    const auto i = static_cast<std::size_t>(id);
    return compared_updates(stats.at(i), schedule.at(i), beta);
  }
  void retire(msg::WorkerId id) {
    schedule.at(static_cast<std::size_t>(id)).retired = true;
  }

  double alpha;
  double beta;
  std::vector<WorkerStats> stats;
  std::vector<WorkerSchedule> schedule;
};

Records two_workers(double alpha = 2.0) {
  Records c(alpha);
  // Worker 0: CPU — quantum 56 (one sub-batch per simulated thread),
  // thresholds 1-64 examples per thread, starts at the lower threshold.
  c.add(kCpu, {56, 56, 56 * 64, 56});
  // Worker 1: GPU — thresholds 64-8192, starts at the upper threshold.
  c.add(kGpu, {8192, 64, 8192, 1});
  return c;
}

// A scheduler config whose CPU worker has 56 lanes and 1-64 examples per
// lane and whose GPU worker has thresholds 64-8192.
TrainingConfig two_worker_config() {
  TrainingConfig config;
  config.algorithm = Algorithm::kAdaptiveHogbatch;
  return config;
}

msg::ScheduleWork report(msg::WorkerId id, std::uint64_t updates) {
  msg::ScheduleWork r;
  r.worker = id;
  r.updates = updates;
  return r;
}

TEST(Adaptive, InitialBatches) {
  auto c = two_workers();
  EXPECT_EQ(c.batch(0), 56);
  EXPECT_EQ(c.batch(1), 8192);
}

TEST(Adaptive, SingleWorkerNeverChanges) {
  Records c;
  c.add(kGpu, {128, 64, 256, 1});
  for (std::uint64_t u : {0ULL, 10ULL, 100ULL, 1000ULL}) {
    EXPECT_EQ(c.request(0, u), 128);
  }
}

TEST(Adaptive, FastestWorkerSlowsDown) {
  auto c = two_workers();
  c.request(0, 0);
  // GPU starts at max already; the *CPU* ahead case grows CPU batch:
  c.request(1, 5);             // GPU has 5 updates
  Index b = c.request(0, 50);  // CPU has 50 > 5: slow it down
  EXPECT_EQ(b, 112);           // 56 * 2
  b = c.request(0, 100);
  EXPECT_EQ(b, 224);
}

TEST(Adaptive, SlowestWorkerSpeedsUp) {
  auto c = two_workers();
  c.request(0, 100);          // CPU: 100 updates
  Index b = c.request(1, 5);  // GPU behind: shrink its batch
  EXPECT_EQ(b, 4096);
  b = c.request(1, 6);
  EXPECT_EQ(b, 2048);
}

TEST(Adaptive, ClampsAtThresholds) {
  auto c = two_workers();
  c.request(0, 1000000);
  Index b = 8192;
  for (int i = 0; i < 20; ++i) {
    b = c.request(1, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(b, 64);  // GPU clamped at min_b

  Index bc = 56;
  for (int i = 0; i < 20; ++i) {
    bc = c.request(0, 1000000 + static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(bc, 56 * 64);  // CPU clamped at max_b
}

TEST(Adaptive, EqualUpdatesKeepBatch) {
  auto c = two_workers();
  // Bring the GPU (already at max) to 10 first so the CPU's report sees an
  // equal peer and keeps its batch.
  c.request(1, 10);
  EXPECT_EQ(c.request(0, 10), 56);
  EXPECT_EQ(c.request(0, 10), 56);
  EXPECT_EQ(c.batch(0), 56);
}

TEST(Adaptive, QuantumRounding) {
  Records c;
  c.add(kCpu, {56, 56, 56 * 64, 56});
  c.add(kGpu, {1000, 1, 100000, 1});
  // Make worker 0 the fastest repeatedly; batches must stay multiples of 56.
  std::uint64_t updates = 100;
  for (int i = 0; i < 10; ++i) {
    Index b = c.request(0, updates);
    EXPECT_EQ(b % 56, 0) << "batch " << b;
    updates += 100;
  }
}

TEST(Adaptive, CustomAlpha) {
  Records c(4.0);
  c.add(kGpu, {64, 16, 1024, 1});
  c.add(kGpu, {64, 16, 1024, 1});
  c.request(1, 10);                  // ahead of worker 0: 64*4 = 256
  EXPECT_EQ(c.batch(1), 256);
  EXPECT_EQ(c.request(0, 100), 256);  // now worker 0 is ahead: 64*4
  EXPECT_EQ(c.request(1, 10), 64);    // behind again: 256/4
  EXPECT_EQ(c.request(1, 10), 16);    // still behind: 64/4
}

TEST(Adaptive, AlphaMustExceedOne) {
  for (double alpha : {1.0, 0.5}) {
    TrainingConfig config = two_worker_config();
    config.alpha = alpha;
    EXPECT_DEATH(Scheduler(config, 100), "alpha");
  }
}

// The scheduler's report path refuses a count that goes backwards.
TEST(Adaptive, MonotoneUpdatesEnforced) {
  const TrainingConfig config = two_worker_config();
  Scheduler s(config, 100);
  s.add_worker("cpu", kCpu, false);
  s.add_worker("gpu", kGpu, false);
  s.on_report(report(0, 10));
  EXPECT_DEATH(s.on_report(report(0, 5)), "monotone");
}

TEST(Adaptive, InvalidLimitsDie) {
  TrainingConfig inverted = two_worker_config();
  inverted.gpu.min_batch = 20;
  inverted.gpu.max_batch = 5;
  Scheduler s(inverted, 100);
  EXPECT_DEATH(s.add_worker("gpu", kGpu, false), "min batch exceeds max");
  TrainingConfig outside = two_worker_config();
  outside.cpu.examples_per_thread = 500;  // above 64 per thread
  Scheduler s2(outside, 100);
  EXPECT_DEATH(s2.add_worker("cpu", kCpu, false), "initial batch outside");
}

// Property sweep: under arbitrary update sequences the batch stays inside
// [min, max] and remains a quantum multiple.
struct AdaptiveSweepCase {
  double alpha;
  Index quantum;
  Index min;
  Index max;
  std::uint64_t seed;
};

class AdaptiveProperty : public ::testing::TestWithParam<AdaptiveSweepCase> {};

TEST_P(AdaptiveProperty, BatchAlwaysWithinLimitsAndQuantized) {
  const auto& p = GetParam();
  Records c(p.alpha);
  c.add(kCpu, {p.min, p.min, p.max, p.quantum});
  c.add(kGpu, {p.max, p.min, p.max, p.quantum});
  hetsgd::Rng rng(p.seed);
  std::uint64_t u0 = 0, u1 = 0;
  for (int step = 0; step < 500; ++step) {
    if (rng.bernoulli(0.5)) {
      u0 += rng.next_below(20);
      const Index b = c.request(0, u0);
      ASSERT_GE(b, p.min);
      ASSERT_LE(b, p.max);
      ASSERT_EQ(b % p.quantum, 0);
    } else {
      u1 += rng.next_below(20);
      const Index b = c.request(1, u1);
      ASSERT_GE(b, p.min);
      ASSERT_LE(b, p.max);
      ASSERT_EQ(b % p.quantum, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdaptiveProperty,
    ::testing::Values(AdaptiveSweepCase{2.0, 1, 64, 8192, 1},
                      AdaptiveSweepCase{2.0, 56, 56, 3584, 2},
                      AdaptiveSweepCase{1.5, 8, 8, 1024, 3},
                      AdaptiveSweepCase{3.0, 16, 16, 4096, 4},
                      AdaptiveSweepCase{2.0, 7, 7, 7 * 100, 5}));

// The headline property of Algorithm 2: with adversarial speed imbalance,
// the gap in update counts stays bounded once batches saturate, while a
// static assignment's gap would grow without the controller reacting.
TEST(Adaptive, ReactsToPersistentImbalance) {
  auto c = two_workers();
  // GPU produces updates 100x faster.
  std::uint64_t cpu_u = 0, gpu_u = 0;
  Index last_gpu_batch = 8192;
  for (int round = 0; round < 50; ++round) {
    gpu_u += 100;
    last_gpu_batch = c.request(1, gpu_u);
    cpu_u += 1;
    c.request(0, cpu_u);
  }
  // The controller must have pushed the two workers toward each other:
  // CPU shrinks to (stays at) its minimum, GPU grows to its maximum.
  EXPECT_EQ(c.batch(0), 56);
  EXPECT_EQ(last_gpu_batch, 8192);
}

// Elastic membership: a retired worker keeps its batch and drops out of
// the other workers' min/max comparison.
TEST(Adaptive, RetiredWorkerKeepsItsBatch) {
  auto c = two_workers();
  c.request(1, 0);
  c.retire(0);
  EXPECT_EQ(c.request(0, 1000), 56);  // far ahead, but retired
  EXPECT_EQ(c.updates(0), 1000u);
  // Worker 1 is now alone: nothing to balance against.
  EXPECT_EQ(c.request(1, 1), 8192);
  EXPECT_EQ(c.request(1, 2000), 8192);
}

TEST(Adaptive, RetiredWorkerLeavesTheComparison) {
  const BatchLimits limits{64, 16, 1024, 1};
  Records with_stalled;
  Records with_retired;
  for (int i = 0; i < 3; ++i) {
    with_stalled.add(kGpu, limits);
    with_retired.add(kGpu, limits);
  }
  // Worker 2 stalls at 0 updates; worker 0 (3 updates) trails worker 1 (5).
  with_retired.retire(2);
  for (Records* c : {&with_stalled, &with_retired}) {
    c->request(1, 5);
  }
  // Counted, the stalled worker is the minimum, so worker 0 is neither the
  // slowest nor the fastest; retired, it no longer hides worker 0's lag.
  EXPECT_EQ(with_stalled.request(0, 3), 64);
  EXPECT_EQ(with_retired.request(0, 3), 32);
}

TEST(Adaptive, JoinBaselineCreditsTheNewcomer) {
  const BatchLimits limits{64, 16, 1024, 1};
  Records credited;
  Records raw;
  for (Records* c : {&credited, &raw}) {
    c->add(kGpu, limits);
    c->request(0, 1000);
  }
  credited.add(kGpu, limits, /*credit=*/1000);
  raw.add(kGpu, limits);
  EXPECT_EQ(credited.updates(1), 1000u);
  // Level with worker 0, the credited newcomer keeps its batch; on its raw
  // count alone it would be the slowest and shrink.
  EXPECT_EQ(credited.request(1, 0), 64);
  EXPECT_EQ(raw.request(1, 0), 32);
  // The credit also counts when worker 0 compares itself against it.
  EXPECT_EQ(credited.request(1, 10), 128);   // 1010 > 1000: fastest
  EXPECT_EQ(credited.request(0, 1005), 32);  // 1005 < 1010: slowest
}

// Checkpoint restore goes through the scheduler: the batch is clamped into
// the worker's limits, the count is the checkpoint's, the join credit goes.
TEST(Adaptive, RestoreClampsBatchAndClearsTheCredit) {
  const TrainingConfig config = two_worker_config();
  const auto restored = [&](Index cpu_batch, Index gpu_batch) {
    auto s = std::make_unique<Scheduler>(config, 100000);
    s->add_worker("cpu", kCpu, false);
    s->on_report(report(0, 500));
    s->add_worker("gpu", kGpu, /*joining=*/true);
    EXPECT_EQ(s->schedule(1).credit, 500u);
    TrainingCheckpoint ckpt;
    ckpt.epoch = 1;
    for (msg::WorkerId id : {0, 1}) {
      WorkerCheckpoint wc;
      wc.id = id;
      wc.kind = static_cast<std::uint8_t>(id == 0 ? kCpu : kGpu);
      wc.stats.id = id;
      wc.stats.kind = id == 0 ? kCpu : kGpu;
      wc.stats.updates = id == 0 ? 42 : 7;
      wc.adaptive_batch = id == 0 ? cpu_batch : gpu_batch;
      ckpt.workers.push_back(wc);
    }
    std::string error;
    EXPECT_TRUE(s->restore(ckpt, &error)) << error;
    return s;
  };
  const auto updates = [&](const Scheduler& s, msg::WorkerId id) {
    return compared_updates(s.ledger().stats(id), s.schedule(id), config.beta);
  };
  auto s = restored(1000, 1);
  EXPECT_EQ(s->ledger().stats(0).current_batch, 1008);  // nearest 56-multiple
  EXPECT_EQ(updates(*s, 0), 42u);
  EXPECT_EQ(restored(1 << 20, 1)->ledger().stats(0).current_batch, 56 * 64);
  // The restored count is the worker's whole count: the join credit goes.
  EXPECT_EQ(s->ledger().stats(1).current_batch, 64);  // clamped at min_b
  EXPECT_EQ(updates(*s, 1), 7u);
  EXPECT_DEATH(s->on_report(report(1, 6)), "monotone");
}

// Beta: Algorithm 2 compares floor(beta * u) for CPU workers, which report
// the updates they applied.
TEST(Adaptive, BetaDiscountsCpuCounts) {
  const BatchLimits cpu{112, 56, 56 * 64, 56};
  const BatchLimits gpu{8192, 64, 8192, 1};
  Records exact(2.0);
  Records discounted(2.0, 0.5);
  for (Records* c : {&exact, &discounted}) {
    c->add(kCpu, cpu);
    c->add(kGpu, gpu);
    c->request(1, 3);
  }
  // The CPU worker reports 4 updates. Counted whole, 4 > 3 makes it the
  // fastest; at beta 0.5 it counts 2 < 3 and is the slowest.
  EXPECT_EQ(exact.request(0, 4), 224);
  EXPECT_EQ(discounted.request(0, 4), 56);
  EXPECT_EQ(exact.updates(0), 4u);
  EXPECT_EQ(discounted.updates(0), 2u);
  // GPU counts are never discounted.
  EXPECT_EQ(discounted.updates(1), 3u);
}

TEST(Adaptive, BetaUsesTheExactProduct) {
  // Adding 0.1 per update falls short of the product: 1160 additions sum
  // to 115.99999999999768, whose floor would be 115.
  Records c(2.0, 0.1);
  c.add(kCpu, {56, 56, 56 * 64, 56});
  c.request(0, 1160);
  EXPECT_EQ(c.updates(0), 116u);
  c.request(0, 1169);
  EXPECT_EQ(c.updates(0), 116u);
  c.request(0, 1170);
  EXPECT_EQ(c.updates(0), 117u);
}

TEST(Adaptive, JoinBaselineUsesDiscountedCounts) {
  // The scheduler credits a newcomer with the smallest peer count that
  // compared_updates returns: the discounted count the newcomer is
  // compared with.
  const BatchLimits cpu{56, 56, 56 * 64, 56};
  const BatchLimits gpu{64, 16, 1024, 1};
  Records c(2.0, 0.1);
  c.add(kCpu, cpu);
  c.request(0, 1000);
  ASSERT_EQ(c.updates(0), 100u);
  c.add(kGpu, gpu, /*credit=*/c.updates(0));
  EXPECT_EQ(c.updates(1), 100u);
  EXPECT_EQ(c.request(1, 0), 64);   // level with the CPU: keeps its batch
  EXPECT_EQ(c.request(1, 1), 128);  // 101 > 100: the fastest
  // Credited with the CPU's raw 1000, it would start far ahead and grow.
  Records raw(2.0, 0.1);
  raw.add(kCpu, cpu);
  raw.request(0, 1000);
  raw.add(kGpu, gpu, /*credit=*/1000);
  EXPECT_EQ(raw.request(1, 0), 128);
}

}  // namespace
}  // namespace hetsgd::core

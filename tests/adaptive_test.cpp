#include "core/adaptive.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace hetsgd::core {
namespace {

using tensor::Index;
constexpr auto kCpu = gpusim::DeviceKind::kCpu;
constexpr auto kGpu = gpusim::DeviceKind::kGpu;

AdaptiveController two_workers(double alpha = 2.0) {
  AdaptiveController c(alpha);
  // Worker 0: CPU — quantum 56 (one sub-batch per simulated thread),
  // thresholds 1-64 examples per thread, starts at the lower threshold.
  c.register_worker(0, kCpu, {56, 56, 56 * 64, 56});
  // Worker 1: GPU — thresholds 64-8192, starts at the upper threshold.
  c.register_worker(1, kGpu, {8192, 64, 8192, 1});
  return c;
}

TEST(Adaptive, InitialBatches) {
  auto c = two_workers();
  EXPECT_EQ(c.batch(0), 56);
  EXPECT_EQ(c.batch(1), 8192);
}

TEST(Adaptive, SingleWorkerNeverChanges) {
  AdaptiveController c(2.0);
  c.register_worker(0, kGpu, {128, 64, 256, 1});
  for (std::uint64_t u : {0ULL, 10ULL, 100ULL, 1000ULL}) {
    EXPECT_EQ(c.on_request(0, u), 128);
  }
}

TEST(Adaptive, FastestWorkerSlowsDown) {
  auto c = two_workers();
  c.on_request(0, 0);
  // GPU starts at max already; the *CPU* ahead case grows CPU batch:
  c.on_request(1, 5);            // GPU has 5 updates
  Index b = c.on_request(0, 50); // CPU has 50 > 5: slow it down
  EXPECT_EQ(b, 112);             // 56 * 2
  b = c.on_request(0, 100);
  EXPECT_EQ(b, 224);
}

TEST(Adaptive, SlowestWorkerSpeedsUp) {
  auto c = two_workers();
  c.on_request(0, 100);          // CPU: 100 updates
  Index b = c.on_request(1, 5);  // GPU behind: shrink its batch
  EXPECT_EQ(b, 4096);
  b = c.on_request(1, 6);
  EXPECT_EQ(b, 2048);
}

TEST(Adaptive, ClampsAtThresholds) {
  auto c = two_workers();
  c.on_request(0, 1000000);
  Index b = 8192;
  for (int i = 0; i < 20; ++i) {
    b = c.on_request(1, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(b, 64);  // GPU clamped at min_b

  Index bc = 56;
  for (int i = 0; i < 20; ++i) {
    bc = c.on_request(0, 1000000 + static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(bc, 56 * 64);  // CPU clamped at max_b
}

TEST(Adaptive, EqualUpdatesKeepBatch) {
  auto c = two_workers();
  // Bring the GPU (already at max) to 10 first so the CPU's report sees an
  // equal peer and keeps its batch.
  c.on_request(1, 10);
  EXPECT_EQ(c.on_request(0, 10), 56);
  EXPECT_EQ(c.on_request(0, 10), 56);
  EXPECT_EQ(c.batch(0), 56);
}

TEST(Adaptive, QuantumRounding) {
  AdaptiveController c(2.0);
  c.register_worker(0, kCpu, {56, 56, 56 * 64, 56});
  c.register_worker(1, kGpu, {1000, 1, 100000, 1});
  // Make worker 0 the fastest repeatedly; batches must stay multiples of 56.
  std::uint64_t updates = 100;
  for (int i = 0; i < 10; ++i) {
    Index b = c.on_request(0, updates);
    EXPECT_EQ(b % 56, 0) << "batch " << b;
    updates += 100;
  }
}

TEST(Adaptive, CustomAlpha) {
  AdaptiveController c(4.0);
  c.register_worker(0, kGpu, {64, 16, 1024, 1});
  c.register_worker(1, kGpu, {64, 16, 1024, 1});
  c.on_request(1, 10);                    // ahead of worker 0: 64*4 = 256
  EXPECT_EQ(c.batch(1), 256);
  EXPECT_EQ(c.on_request(0, 100), 256);   // now worker 0 is ahead: 64*4
  EXPECT_EQ(c.on_request(1, 10), 64);     // behind again: 256/4
  EXPECT_EQ(c.on_request(1, 10), 16);     // still behind: 64/4
}

TEST(Adaptive, AlphaMustExceedOne) {
  EXPECT_DEATH(AdaptiveController(1.0), "alpha");
  EXPECT_DEATH(AdaptiveController(0.5), "alpha");
}

TEST(Adaptive, MonotoneUpdatesEnforced) {
  auto c = two_workers();
  c.on_request(0, 10);
  EXPECT_DEATH(c.on_request(0, 5), "monotone");
}

TEST(Adaptive, InvalidLimitsDie) {
  AdaptiveController c(2.0);
  EXPECT_DEATH(c.register_worker(0, kGpu, {10, 20, 5, 1}),
               "min batch exceeds max");
  AdaptiveController c2(2.0);
  EXPECT_DEATH(c2.register_worker(0, kGpu, {500, 64, 256, 1}),
               "initial batch outside");
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
  AdaptiveController c(p.alpha);
  c.register_worker(0, kCpu, {p.min, p.min, p.max, p.quantum});
  c.register_worker(1, kGpu, {p.max, p.min, p.max, p.quantum});
  hetsgd::Rng rng(p.seed);
  std::uint64_t u0 = 0, u1 = 0;
  for (int step = 0; step < 500; ++step) {
    if (rng.bernoulli(0.5)) {
      u0 += rng.next_below(20);
      const Index b = c.on_request(0, u0);
      ASSERT_GE(b, p.min);
      ASSERT_LE(b, p.max);
      ASSERT_EQ(b % p.quantum, 0);
    } else {
      u1 += rng.next_below(20);
      const Index b = c.on_request(1, u1);
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
    last_gpu_batch = c.on_request(1, gpu_u);
    cpu_u += 1;
    c.on_request(0, cpu_u);
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
  c.on_request(1, 0);
  c.retire_worker(0);
  EXPECT_EQ(c.on_request(0, 1000), 56);  // far ahead, but retired
  EXPECT_EQ(c.updates(0), 1000u);
  // Worker 1 is now alone: nothing to balance against.
  EXPECT_EQ(c.on_request(1, 1), 8192);
  EXPECT_EQ(c.on_request(1, 2000), 8192);
}

TEST(Adaptive, RetiredWorkerLeavesTheComparison) {
  const AdaptiveController::WorkerLimits limits{64, 16, 1024, 1};
  AdaptiveController with_stalled(2.0);
  AdaptiveController with_retired(2.0);
  for (msg::WorkerId id = 0; id < 3; ++id) {
    with_stalled.register_worker(id, kGpu, limits);
    with_retired.register_worker(id, kGpu, limits);
  }
  // Worker 2 stalls at 0 updates; worker 0 (3 updates) trails worker 1 (5).
  with_retired.retire_worker(2);
  for (AdaptiveController* c : {&with_stalled, &with_retired}) {
    c->on_request(1, 5);
  }
  // Counted, the stalled worker is the minimum, so worker 0 is neither the
  // slowest nor the fastest; retired, it no longer hides worker 0's lag.
  EXPECT_EQ(with_stalled.on_request(0, 3), 64);
  EXPECT_EQ(with_retired.on_request(0, 3), 32);
}

TEST(Adaptive, JoinBaselineCreditsTheNewcomer) {
  const AdaptiveController::WorkerLimits limits{64, 16, 1024, 1};
  AdaptiveController credited(2.0);
  AdaptiveController raw(2.0);
  for (AdaptiveController* c : {&credited, &raw}) {
    c->register_worker(0, kGpu, limits);
    c->on_request(0, 1000);
  }
  credited.register_worker(1, kGpu, limits, /*baseline_updates=*/1000);
  raw.register_worker(1, kGpu, limits);
  EXPECT_EQ(credited.updates(1), 1000u);
  // Level with worker 0, the credited newcomer keeps its batch; on its raw
  // count alone it would be the slowest and shrink.
  EXPECT_EQ(credited.on_request(1, 0), 64);
  EXPECT_EQ(raw.on_request(1, 0), 32);
  // The credit also counts when worker 0 compares itself against it.
  EXPECT_EQ(credited.on_request(1, 10), 128);  // 1010 > 1000: fastest
  EXPECT_EQ(credited.on_request(0, 1005), 32);  // 1005 < 1010: slowest
}

TEST(Adaptive, RestoreClampsBatchAndClearsTheCredit) {
  AdaptiveController c(2.0);
  c.register_worker(0, kCpu, {56, 56, 56 * 64, 56});
  c.register_worker(1, kGpu, {64, 64, 8192, 1}, /*baseline_updates=*/500);
  c.restore_worker(0, 1000, 42);  // nearest multiple of 56
  EXPECT_EQ(c.batch(0), 1008);
  EXPECT_EQ(c.updates(0), 42u);
  c.restore_worker(0, 1 << 20, 42);
  EXPECT_EQ(c.batch(0), 56 * 64);  // clamped at max_b
  // The restored count is the worker's whole count: the join credit goes.
  c.restore_worker(1, 1, 7);
  EXPECT_EQ(c.batch(1), 64);  // clamped at min_b
  EXPECT_EQ(c.updates(1), 7u);
  EXPECT_DEATH(c.on_request(1, 6), "monotone");
}

// Beta: Algorithm 2 compares floor(beta * u) for CPU workers, which report
// the updates they applied.
TEST(Adaptive, BetaDiscountsCpuCounts) {
  const AdaptiveController::WorkerLimits cpu{112, 56, 56 * 64, 56};
  const AdaptiveController::WorkerLimits gpu{8192, 64, 8192, 1};
  AdaptiveController exact(2.0);
  AdaptiveController discounted(2.0, 0.5);
  for (AdaptiveController* c : {&exact, &discounted}) {
    c->register_worker(0, kCpu, cpu);
    c->register_worker(1, kGpu, gpu);
    c->on_request(1, 3);
  }
  // The CPU worker reports 4 updates. Counted whole, 4 > 3 makes it the
  // fastest; at beta 0.5 it counts 2 < 3 and is the slowest.
  EXPECT_EQ(exact.on_request(0, 4), 224);
  EXPECT_EQ(discounted.on_request(0, 4), 56);
  EXPECT_EQ(exact.updates(0), 4u);
  EXPECT_EQ(discounted.updates(0), 2u);
  // GPU counts are never discounted.
  EXPECT_EQ(discounted.updates(1), 3u);
}

TEST(Adaptive, BetaUsesTheExactProduct) {
  // Adding 0.1 per update falls short of the product: 1160 additions sum
  // to 115.99999999999768, whose floor would be 115.
  AdaptiveController c(2.0, 0.1);
  c.register_worker(0, kCpu, {56, 56, 56 * 64, 56});
  c.on_request(0, 1160);
  EXPECT_EQ(c.updates(0), 116u);
  c.on_request(0, 1169);
  EXPECT_EQ(c.updates(0), 116u);
  c.on_request(0, 1170);
  EXPECT_EQ(c.updates(0), 117u);
}

TEST(Adaptive, JoinBaselineUsesDiscountedCounts) {
  // The coordinator credits a newcomer with the smallest peer count that
  // updates() returns: the discounted count the newcomer is compared with.
  const AdaptiveController::WorkerLimits cpu{56, 56, 56 * 64, 56};
  const AdaptiveController::WorkerLimits gpu{64, 16, 1024, 1};
  AdaptiveController c(2.0, 0.1);
  c.register_worker(0, kCpu, cpu);
  c.on_request(0, 1000);
  ASSERT_EQ(c.updates(0), 100u);
  c.register_worker(1, kGpu, gpu, /*baseline_updates=*/c.updates(0));
  EXPECT_EQ(c.updates(1), 100u);
  EXPECT_EQ(c.on_request(1, 0), 64);   // level with the CPU: keeps its batch
  EXPECT_EQ(c.on_request(1, 1), 128);  // 101 > 100: the fastest
  // Credited with the CPU's raw 1000, it would start far ahead and grow.
  AdaptiveController raw(2.0, 0.1);
  raw.register_worker(0, kCpu, cpu);
  raw.on_request(0, 1000);
  raw.register_worker(1, kGpu, gpu, /*baseline_updates=*/1000);
  EXPECT_EQ(raw.on_request(1, 0), 128);
}

}  // namespace
}  // namespace hetsgd::core

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "concurrent/thread_pool.hpp"

namespace hetsgd::concurrent {
namespace {

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 3u);  // +1 caller lane
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t b, std::size_t e, std::size_t) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RunOnAllUsesDistinctLanes) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> lane_hits(3);
  pool.run_on_all([&](std::size_t lane) {
    ASSERT_LT(lane, 3u);
    lane_hits[lane].fetch_add(1);
  });
  for (auto& h : lane_hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SequentialJobsDoNotInterfere) {
  ThreadPool pool(2);
  std::atomic<long> total{0};
  for (int round = 0; round < 100; ++round) {
    pool.parallel_for(10, [&](std::size_t b, std::size_t e, std::size_t) {
      total.fetch_add(static_cast<long>(e - b));
    });
  }
  EXPECT_EQ(total.load(), 1000);
}

// run_on_all returns only once every lane has finished, so consecutive
// jobs are phases: each sees all of the previous phase's writes.
TEST(ThreadPool, SynchronizesPhases) {
  constexpr std::size_t kLanes = 4;
  ThreadPool pool(kLanes);
  std::atomic<int> phase_counter{0};
  std::atomic<bool> ok{true};
  for (int phase = 0; phase < 50; ++phase) {
    pool.run_on_all([&](std::size_t) {
      if (phase_counter.load() < static_cast<int>(kLanes) * phase) {
        ok = false;
      }
      phase_counter.fetch_add(1);
    });
    EXPECT_EQ(phase_counter.load(), static_cast<int>(kLanes) * (phase + 1));
  }
  EXPECT_TRUE(ok.load());
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 0u);
  int x = 0;
  pool.parallel_for(5, [&](std::size_t b, std::size_t e, std::size_t lane) {
    EXPECT_EQ(lane, 0u);
    x += static_cast<int>(e - b);
  });
  EXPECT_EQ(x, 5);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

}  // namespace
}  // namespace hetsgd::concurrent

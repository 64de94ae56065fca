#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "concurrent/mpsc_queue.hpp"
#include "concurrent/thread_pool.hpp"

namespace hetsgd::concurrent {
namespace {

TEST(MpscQueue, SingleThreadFifo) {
  MpscQueue<int> q;
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.try_pop().value(), 1);
  EXPECT_EQ(q.try_pop().value(), 2);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(MpscQueue, CloseStopsProducersAfterDrain) {
  MpscQueue<int> q;
  q.push(7);
  q.close();
  EXPECT_FALSE(q.push(8));
  EXPECT_EQ(q.pop().value(), 7);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(MpscQueue, TryPopEmpty) {
  MpscQueue<int> q;
  EXPECT_FALSE(q.try_pop().has_value());  // only the stub node
  q.push(4);
  q.close();
  // try_pop drains a closed queue too, and reports empty without waiting.
  EXPECT_EQ(q.try_pop().value(), 4);
  EXPECT_FALSE(q.try_pop().has_value());
}

// The coordinator's mailbox shape: the consumer blocks in pop() while a
// producer thread delivers, and pop() ends once the queue is closed and
// drained.
TEST(MpscQueue, CrossThreadDelivery) {
  MpscQueue<int> q;
  std::thread producer([&] {
    for (int i = 0; i < 1000; ++i) EXPECT_TRUE(q.push(i));
    q.close();
  });
  int expected = 0;
  while (auto v = q.pop()) {
    EXPECT_EQ(*v, expected++);
  }
  EXPECT_EQ(expected, 1000);
  producer.join();
}

TEST(MpscQueue, PopForTimesOutOnAnOpenQueue) {
  MpscQueue<int> q;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.pop_for(std::chrono::milliseconds(5)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(5));
  EXPECT_FALSE(q.closed());  // a timeout, not the end of the stream
  q.push(9);
  EXPECT_EQ(q.pop_for(std::chrono::milliseconds(5)).value(), 9);
}

TEST(MpscQueue, MultiProducerCountIntegrity) {
  MpscQueue<int> q;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(p * kPerProducer + i));
      }
    });
  }
  std::vector<int> seen;
  seen.reserve(kProducers * kPerProducer);
  std::thread consumer([&] {
    for (int i = 0; i < kProducers * kPerProducer; ++i) {
      auto v = q.pop();
      ASSERT_TRUE(v.has_value());
      seen.push_back(*v);
    }
  });
  for (auto& t : producers) t.join();
  consumer.join();
  // Every value delivered exactly once.
  std::sort(seen.begin(), seen.end());
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    ASSERT_EQ(seen[static_cast<std::size_t>(i)], i);
  }
  // Per-producer FIFO is implied by the full-order check above only per
  // value; verify explicitly on a fresh queue.
}

TEST(MpscQueue, PerProducerOrderPreserved) {
  MpscQueue<std::pair<int, int>> q;
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 3000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push({p, i}));
      }
    });
  }
  std::vector<int> next(kProducers, 0);
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(v->second, next[static_cast<std::size_t>(v->first)]++);
  }
  for (auto& t : producers) t.join();
}

// Stress the close() vs pop_for() interleaving: consumers parked inside
// pop_for's sleep/wake protocol must all wake and observe the drain-then-
// nullopt sequence when producers race a close. Exercises the sleeping_
// flag handshake under contention (a lost wakeup here -> this test hangs
// until the 2s pop_for deadline and the count check fails).
TEST(MpscQueue, ClosePopForInterleavingStress) {
  constexpr int kRounds = 50;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 40;
  for (int round = 0; round < kRounds; ++round) {
    MpscQueue<int> q;
    std::atomic<int> pushed{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&] {
        for (int i = 0; i < kPerProducer; ++i) {
          // After close, push must reject; count only accepted values.
          if (q.push(i)) pushed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    int popped = 0;
    std::thread consumer([&] {
      // Mix short-timeout (forces the sleep path) and long-timeout pops.
      for (;;) {
        auto v = q.pop_for(std::chrono::milliseconds(popped % 2 == 0 ? 0 : 2000));
        if (v.has_value()) {
          ++popped;
        } else if (q.closed()) {
          // Drained-and-closed is the only sanctioned nullopt exit here
          // once the final drain below confirms emptiness.
          if (!q.try_pop().has_value()) break;
          ++popped;
        }
        // Timeout on an open queue: keep going.
      }
    });
    // Close mid-stream on even rounds, after the producers on odd rounds,
    // to vary which pushes lose the race.
    if (round % 2 == 0) {
      q.close();
      for (auto& t : producers) t.join();
    } else {
      for (auto& t : producers) t.join();
      q.close();
    }
    consumer.join();
    EXPECT_EQ(popped, pushed.load()) << "round " << round;
  }
}

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

#include "msg/mailbox.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace hetsgd::msg {
namespace {

using std::chrono::milliseconds;

TEST(Mailbox, SingleThreadFifo) {
  Mailbox<int> box;
  EXPECT_TRUE(box.push(1));
  EXPECT_TRUE(box.push(2));
  EXPECT_EQ(box.pop().value(), 1);
  EXPECT_EQ(box.pop().value(), 2);
  EXPECT_FALSE(box.pop(milliseconds(0)).has_value());
}

TEST(Mailbox, CloseStopsProducersAfterDrain) {
  Mailbox<int> box;
  EXPECT_TRUE(box.push(7));
  box.close();
  EXPECT_FALSE(box.push(8));
  EXPECT_EQ(box.pop().value(), 7);
  EXPECT_FALSE(box.pop().has_value());
}

// A zero timeout never waits: an empty open box reports empty, and a
// closed one still hands out what it holds.
TEST(Mailbox, PopOnEmptyBoxReturnsAtOnce) {
  Mailbox<int> box;
  EXPECT_FALSE(box.pop(milliseconds(0)).has_value());
  EXPECT_TRUE(box.push(4));
  box.close();
  EXPECT_EQ(box.pop(milliseconds(0)).value(), 4);
  EXPECT_FALSE(box.pop(milliseconds(0)).has_value());
}

// The coordinator's mailbox shape: the receiver blocks in pop() while a
// producer thread delivers, and pop() ends once the box is closed and
// drained.
TEST(Mailbox, CrossThreadDelivery) {
  Mailbox<int> box;
  std::thread producer([&] {
    for (int i = 0; i < 1000; ++i) EXPECT_TRUE(box.push(i));
    box.close();
  });
  int expected = 0;
  while (auto v = box.pop()) {
    EXPECT_EQ(*v, expected++);
  }
  EXPECT_EQ(expected, 1000);
  producer.join();
}

TEST(Mailbox, TimedPopTimesOutOnAnOpenBox) {
  Mailbox<int> box;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(box.pop(milliseconds(5)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start, milliseconds(5));
  EXPECT_TRUE(box.push(9));  // a timeout, not the end of the stream
  EXPECT_EQ(box.pop(milliseconds(5)).value(), 9);
}

TEST(Mailbox, MultiProducerCountIntegrity) {
  Mailbox<int> box;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(box.push(p * kPerProducer + i));
      }
    });
  }
  std::vector<int> seen;
  seen.reserve(kProducers * kPerProducer);
  std::thread consumer([&] {
    for (int i = 0; i < kProducers * kPerProducer; ++i) {
      auto v = box.pop();
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
}

TEST(Mailbox, PerProducerOrderPreserved) {
  Mailbox<std::pair<int, int>> box;
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 3000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(box.push({p, i}));
      }
    });
  }
  std::vector<int> next(kProducers, 0);
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    auto v = box.pop();
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(v->second, next[static_cast<std::size_t>(v->first)]++);
  }
  for (auto& t : producers) t.join();
}

// Stress close() against timed pops: a receiver waiting in pop() must wake
// when producers race a close, and see every accepted value before the
// closed box reports empty (a lost wakeup stalls a round for the 2 s
// timeout; a lost value fails the count).
TEST(Mailbox, CloseTimedPopInterleavingStress) {
  constexpr int kRounds = 50;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 40;
  for (int round = 0; round < kRounds; ++round) {
    Mailbox<int> box;
    std::atomic<int> pushed{0};
    std::atomic<bool> closed{false};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&] {
        for (int i = 0; i < kPerProducer; ++i) {
          // After close, push must reject; count only accepted values.
          if (box.push(i)) pushed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    int popped = 0;
    std::thread consumer([&] {
      // Alternate zero (never waits) and long timeouts.
      for (;;) {
        if (box.pop(milliseconds(popped % 2 == 0 ? 0 : 2000)).has_value()) {
          ++popped;
        } else if (closed.load()) {
          // Closed: pushes are over, so an empty pop means drained.
          if (!box.pop(milliseconds(0)).has_value()) break;
          ++popped;
        }
        // Timeout on an open box: keep going.
      }
    });
    // Close mid-stream on even rounds, after the producers on odd rounds,
    // to vary which pushes lose the race.
    if (round % 2 == 0) {
      box.close();
      closed.store(true);
      for (auto& t : producers) t.join();
    } else {
      for (auto& t : producers) t.join();
      box.close();
      closed.store(true);
    }
    consumer.join();
    EXPECT_EQ(popped, pushed.load()) << "round " << round;
  }
}

}  // namespace
}  // namespace hetsgd::msg

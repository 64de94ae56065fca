// Bounded single-producer single-consumer ring buffer.
//
// Used for per-worker result streams (metrics samples) where the producer
// must never block on the consumer. Capacity is rounded up to a power of
// two so index wrapping is a mask.
//
// Concurrency contract: lock-free by design for EXACTLY ONE producer and
// ONE consumer thread. `slots_` is unsynchronized storage handed off
// through the head_/tail_ release/acquire protocol: the producer only
// writes slots in [tail, head+capacity), the consumer only reads slots in
// [tail, head) — never the same slot concurrently. Adding a second
// producer or consumer is a data race; use MpscQueue.
#pragma once

#include <atomic>
#include <bit>
#include <optional>
#include <utility>
#include <vector>

#include "common/macros.hpp"

namespace hetsgd::concurrent {

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity)
      : mask_(std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity) - 1),
        slots_(mask_ + 1) {}

  // Producer side. Returns false when full (caller decides to drop or spin).
  bool try_push(T value) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail > mask_) return false;
    slots_[head & mask_] = std::move(value);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Consumer side.
  std::optional<T> try_pop() {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_acquire);
    if (tail == head) return std::nullopt;
    std::optional<T> value(std::move(slots_[tail & mask_]));
    tail_.store(tail + 1, std::memory_order_release);
    return value;
  }

  std::size_t capacity() const { return mask_ + 1; }

 private:
  const std::size_t mask_;
  std::vector<T> slots_;
  alignas(hetsgd::kCacheLineSize) std::atomic<std::size_t> head_{0};
  alignas(hetsgd::kCacheLineSize) std::atomic<std::size_t> tail_{0};
};

}  // namespace hetsgd::concurrent

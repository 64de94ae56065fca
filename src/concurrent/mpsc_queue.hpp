// Lock-free multi-producer single-consumer queue (Vyukov's algorithm)
// with blocking consumer support.
//
// This is the hot-path channel of the framework: every worker produces
// ScheduleWork messages into the coordinator's mailbox, and the coordinator
// is the single consumer — exactly the MPSC shape. Producers are wait-free
// except for one exchange; the consumer never takes a lock unless it has to
// sleep.
//
// Concurrency contract (enforced where a mutex exists, documented where the
// structure is lock-free by design):
//   - head_   : atomic, producers exchange / consumer loads.
//   - tail_   : plain pointer, CONSUMER-THREAD-CONFINED. The single
//               consumer is the only reader and writer; the hand-off from
//               producers happens through Node::next (release/acquire).
//   - closed_, sleeping_ : atomics with acquire/release pairing.
//   - pushing_ : producers inside push(), seq_cst together with the closed_
//                check and store. A push that saw the queue open is counted
//                here until its node is linked, so the consumer's final drain
//                after close waits for it instead of missing it.
//   - wake_mutex_ + wake_cv_ : guard ONLY the sleep/wake protocol. No data
//     field is guarded by wake_mutex_; the lock closes the classic
//     missed-wakeup window between the consumer's empty-check and its wait.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "common/macros.hpp"
#include "common/thread_annotations.hpp"

namespace hetsgd::concurrent {

template <typename T>
class MpscQueue {
 public:
  MpscQueue() {
    // Intrusive queue nodes are the one sanctioned manual-allocation site
    // (hetsgd-lint exempts this file from naked-new); ownership transfers
    // through the lock-free list, which unique_ptr cannot express.
    Node* stub = new Node();
    head_.store(stub, std::memory_order_relaxed);
    tail_ = stub;
  }

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  ~MpscQueue() {
    Node* node = tail_;
    while (node != nullptr) {
      Node* next = node->next.load(std::memory_order_relaxed);
      delete node;
      node = next;
    }
  }

  // Multi-producer push. Returns false if the queue has been closed; a push
  // that returns true is always seen by the consumer's final drain.
  bool push(T value) HETSGD_EXCLUDES(wake_mutex_) {
    // Allocated before the push is counted in flight, so nothing between
    // the increment and the decrement can throw.
    Node* node = new Node(std::move(value));
    // seq_cst increment-then-check pairs with close()'s store and the load
    // in wait_for_in_flight_pushes(): either this push sees closed_, or the
    // consumer sees it in flight.
    pushing_.fetch_add(1);
    if (closed_.load()) {
      pushing_.fetch_sub(1);
      delete node;
      return false;
    }
    Node* prev = head_.exchange(node, std::memory_order_acq_rel);
    prev->next.store(node, std::memory_order_release);
    pushing_.fetch_sub(1);
    // Wake the consumer if it is sleeping. The flag avoids taking the mutex
    // on every push.
    if (sleeping_.load(std::memory_order_acquire)) {
      MutexLock lock(wake_mutex_);
      wake_cv_.notify_one();
    }
    return true;
  }

  // Single-consumer non-blocking pop.
  std::optional<T> try_pop() {
    Node* tail = tail_;
    Node* next = tail->next.load(std::memory_order_acquire);
    if (next == nullptr) return std::nullopt;
    std::optional<T> value(std::move(next->value));
    tail_ = next;
    // Consumed node is retired here; see the constructor comment.
    delete tail;
    return value;
  }

  // Single-consumer blocking pop; returns nullopt once the queue is closed
  // and fully drained.
  std::optional<T> pop() HETSGD_EXCLUDES(wake_mutex_) {
    for (;;) {
      if (auto v = try_pop()) return v;
      if (closed_.load(std::memory_order_acquire)) {
        // Final drain: a producer may have completed a push between our
        // try_pop and the closed check, or still be linking one.
        wait_for_in_flight_pushes();
        if (auto v = try_pop()) return v;
        return std::nullopt;
      }
      sleep_briefly();
    }
  }

  // Single-consumer pop with a timeout: returns nullopt either when the
  // timeout expires with the queue still open (caller distinguishes via
  // closed()) or when the queue is closed and fully drained. Lets an idle
  // consumer run periodic work (deadline checks) without busy-waiting.
  std::optional<T> pop_for(std::chrono::milliseconds timeout)
      HETSGD_EXCLUDES(wake_mutex_) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    for (;;) {
      if (auto v = try_pop()) return v;
      if (closed_.load(std::memory_order_acquire)) {
        wait_for_in_flight_pushes();
        if (auto v = try_pop()) return v;
        return std::nullopt;
      }
      if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
      sleep_briefly();
    }
  }

  void close() HETSGD_EXCLUDES(wake_mutex_) {
    closed_.store(true);
    MutexLock lock(wake_mutex_);
    wake_cv_.notify_all();
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

 private:
  struct Node {
    Node() : next(nullptr) {}
    explicit Node(T&& v) : next(nullptr), value(std::move(v)) {}
    std::atomic<Node*> next;
    T value{};
  };

  // Called by the consumer once it has seen closed_: spins until every push
  // that saw the queue open has linked its node. Such pushes are a few
  // instructions from done, and no new push can be accepted after close.
  void wait_for_in_flight_pushes() const {
    while (pushing_.load() != 0) std::this_thread::yield();
  }

  bool empty_unsynchronized() const {
    return tail_->next.load(std::memory_order_acquire) == nullptr;
  }

  // Sleep until a producer signals (bounded nap: the 1 ms cap keeps a lost
  // wakeup from wedging the consumer). Double-checks the empty/closed
  // predicate after setting the sleeping flag to close the missed-wakeup
  // window.
  void sleep_briefly() HETSGD_EXCLUDES(wake_mutex_) {
    sleeping_.store(true, std::memory_order_release);
    {
      MutexLock lock(wake_mutex_);
      if (empty_unsynchronized() && !closed_.load(std::memory_order_acquire)) {
        wake_cv_.wait_for(wake_mutex_, std::chrono::milliseconds(1));
      }
    }
    sleeping_.store(false, std::memory_order_release);
  }

  alignas(hetsgd::kCacheLineSize) std::atomic<Node*> head_;  // producers
  alignas(hetsgd::kCacheLineSize) Node* tail_;               // consumer only
  std::atomic<bool> closed_{false};
  std::atomic<int> pushing_{0};
  std::atomic<bool> sleeping_{false};
  AnnotatedMutex wake_mutex_;
  std::condition_variable_any wake_cv_;  // waits directly on wake_mutex_
};

}  // namespace hetsgd::concurrent

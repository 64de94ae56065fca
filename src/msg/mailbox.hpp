// Mailbox: an actor's inbox, a FIFO of values behind one mutex.
//
// The traffic is small control messages — one ScheduleWork and one
// ExecuteWork per batch, a few hundred a second — so one lock and one
// condition variable carry it. The receiver's timed wait doubles as the
// coordinator's idle tick (Actor::set_idle_interval).
//
// Concurrency contract: queue_ and closed_ are guarded by mutex_ and
// annotated so -Wthread-safety rejects any unlocked access; every member
// is safe to call from any thread (an actor's own thread is its one
// receiver). push() and close() notify while still holding the lock, so a
// receiver that takes the last message and is then destroyed cannot
// outlive a sender still inside push(); the waiter re-checks the guarded
// predicate under the lock.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <optional>
#include <utility>

#include "common/thread_annotations.hpp"

namespace hetsgd::msg {

template <typename T>
class Mailbox {
 public:
  Mailbox() = default;
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  // Appends `value`. Returns false once the box is closed. One sender's
  // values are popped in the order it pushed them.
  bool push(T value) HETSGD_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (closed_) return false;
    queue_.push_back(std::move(value));
    ready_.notify_one();
    return true;
  }

  // Takes the oldest value, waiting up to `timeout` for one (forever
  // without a timeout). Returns nullopt when the timeout passes with the
  // box empty and open, or once the box is closed and drained.
  std::optional<T> pop(
      std::optional<std::chrono::milliseconds> timeout = std::nullopt)
      HETSGD_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (timeout) {
      const auto deadline = std::chrono::steady_clock::now() + *timeout;
      while (queue_.empty() && !closed_) {
        if (ready_.wait_until(mutex_, deadline) == std::cv_status::timeout) {
          break;
        }
      }
    } else {
      while (queue_.empty() && !closed_) ready_.wait(mutex_);
    }
    if (queue_.empty()) return std::nullopt;
    std::optional<T> value(std::move(queue_.front()));
    queue_.pop_front();
    return value;
  }

  // Refuses further pushes and wakes the receiver; values already in the
  // box are still popped.
  void close() HETSGD_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    closed_ = true;
    ready_.notify_all();
  }

 private:
  AnnotatedMutex mutex_;
  std::condition_variable_any ready_;  // waits directly on mutex_
  std::deque<T> queue_ HETSGD_GUARDED_BY(mutex_);
  bool closed_ HETSGD_GUARDED_BY(mutex_) = false;
};

}  // namespace hetsgd::msg

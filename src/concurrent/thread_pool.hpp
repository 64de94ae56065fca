// Fixed-size thread pool with a parallel_for used by the CPU worker.
//
// The paper's CPU worker runs t OpenMP threads, each computing a gradient
// on its own sub-batch and applying it Hogwild-style. This pool is the
// explicit-thread equivalent: the lanes are long-lived (created once per
// worker), so per-batch dispatch takes one mutex and two condition
// variables rather than a thread spawn.
//
// Concurrency contract: all dispatch state (job_, generation_, remaining_,
// stop_) is guarded by `mutex_` and annotated so -Wthread-safety rejects
// any unlocked access. The condition variables are notified outside the
// critical section where profitable; waiters always re-check the guarded
// predicate under the lock.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"

namespace hetsgd::concurrent {

class ThreadPool {
 public:
  // Spawns `threads` workers (at least 1).
  explicit ThreadPool(std::size_t threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  std::size_t thread_count() const { return threads_.size(); }

  // Runs fn(lane) on every lane concurrently (the calling thread executes
  // lane 0) and blocks until all lanes finish. Not reentrant.
  void run_on_all(const std::function<void(std::size_t lane)>& fn)
      HETSGD_EXCLUDES(mutex_);

  // Splits [0, n) into contiguous chunks, one per lane, and runs
  // fn(begin, end, lane) concurrently. Lanes whose chunk is empty are
  // skipped. Blocks until done.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t begin, std::size_t end,
                                             std::size_t lane)>& fn)
      HETSGD_EXCLUDES(mutex_);

 private:
  void worker_loop(std::size_t lane) HETSGD_EXCLUDES(mutex_);

  std::vector<std::thread> threads_;  // immutable after construction
  AnnotatedMutex mutex_;
  std::condition_variable_any start_cv_;  // waits directly on mutex_
  std::condition_variable_any done_cv_;
  const std::function<void(std::size_t)>* job_ HETSGD_GUARDED_BY(mutex_) =
      nullptr;
  std::uint64_t generation_ HETSGD_GUARDED_BY(mutex_) = 0;
  std::size_t remaining_ HETSGD_GUARDED_BY(mutex_) = 0;
  bool stop_ HETSGD_GUARDED_BY(mutex_) = false;
};

}  // namespace hetsgd::concurrent

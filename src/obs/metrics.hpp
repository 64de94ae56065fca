// Process-global metrics registry: lock-free counters/gauges/histograms
// with periodic snapshots, exported as JSONL.
//
// Concurrency contract (PR 3 annotations apply):
//  - Counter::inc is wait-free: each thread round-robins onto one of 16
//    cache-line-aligned shards and does a relaxed fetch_add. value()
//    sums the shards (racy-by-design monotonic read).
//  - Gauge uses a single atomic payload (set is a store, add a CAS loop).
//  - Histogram buckets are power-of-two wide (frexp exponent), each an
//    atomic count; sum is a CAS-looped atomic double.
//  - Registration (find-or-create by name) takes the registry mutex and
//    is expected to be cold: hot paths must cache the returned
//    reference, which stays valid for process lifetime (deque storage,
//    metrics are never removed).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/macros.hpp"
#include "common/thread_annotations.hpp"

namespace hetsgd::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    shards_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr int kShards = 16;
  struct alignas(kCacheLineSize) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  static int shard_index();
  Shard shards_[kShards];
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Log2-spaced histogram: bucket i counts values whose binary exponent
// is i - kExponentBias, i.e. upper edge 2^(i - kExponentBias). Covers
// ~0.5ns to ~4e9 when observing seconds.
class Histogram {
 public:
  static constexpr int kBuckets = 64;
  static constexpr int kExponentBias = 31;

  void observe(double v);

  struct Snapshot {
    std::uint64_t counts[kBuckets] = {};
    double sum = 0.0;
    std::uint64_t count = 0;
  };
  Snapshot snapshot() const;

  // Upper edge of bucket i (seconds if observations are seconds).
  static double bucket_upper(int i);

 private:
  std::atomic<std::uint64_t> counts_[kBuckets] = {};
  std::atomic<double> sum_{0.0};
  std::atomic<std::uint64_t> count_{0};
};

struct MetricSample {
  std::string name;
  char kind = 'c';  // 'c' counter, 'g' gauge, 'h' histogram
  double value = 0.0;
  Histogram::Snapshot hist;  // kind == 'h' only
};

struct MetricsSnapshot {
  std::uint64_t wall_ns = 0;
  std::vector<MetricSample> samples;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  // Find-or-create. References remain valid for process lifetime; hot
  // paths must cache them. Registering the same name with a different
  // kind aborts.
  Counter& counter(const std::string& name) HETSGD_EXCLUDES(mu_);
  Gauge& gauge(const std::string& name) HETSGD_EXCLUDES(mu_);
  Histogram& histogram(const std::string& name) HETSGD_EXCLUDES(mu_);

  MetricsSnapshot snapshot() const HETSGD_EXCLUDES(mu_);

  // One JSON object per line: {"ts_ns":...,"metrics":{...}}. Counters
  // and gauges map to a number (null when not finite), a histogram to
  // {"count":n,"sum":s,"buckets":[[upper edge, count], ...]} over its
  // non-empty buckets.
  static std::string jsonl_line(const MetricsSnapshot& snap);

 private:
  MetricsRegistry() = default;

  mutable AnnotatedMutex mu_;
  // deques: stable addresses under growth.
  std::deque<Counter> counters_ HETSGD_GUARDED_BY(mu_);
  std::deque<Gauge> gauges_ HETSGD_GUARDED_BY(mu_);
  std::deque<Histogram> histograms_ HETSGD_GUARDED_BY(mu_);
  struct Entry {
    char kind;
    void* ptr;
  };
  std::map<std::string, Entry> index_ HETSGD_GUARDED_BY(mu_);
};

}  // namespace hetsgd::obs

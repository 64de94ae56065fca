#include "obs/metrics.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>

#include "obs/clock.hpp"

namespace hetsgd::obs {
namespace {

void append_double(std::string* out, double v) {
  char buf[64];
  if (std::isfinite(v)) {
    std::snprintf(buf, sizeof(buf), "%.10g", v);
  } else {
    // JSON has no Inf/NaN literals; null keeps the line parseable.
    std::snprintf(buf, sizeof(buf), "null");
  }
  *out += buf;
}

void append_json_key(std::string* out, const std::string& name) {
  out->push_back('"');
  for (char c : name) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  *out += "\":";
}

}  // namespace

int Counter::shard_index() {
  static std::atomic<int> next{0};
  thread_local const int shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

void Histogram::observe(double v) {
  int bucket = 0;
  if (v > 0.0) {
    int exp = 0;
    std::frexp(v, &exp);
    bucket = exp + kExponentBias;
    if (bucket < 0) bucket = 0;
    if (bucket >= kBuckets) bucket = kBuckets - 1;
  }
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  for (int i = 0; i < kBuckets; ++i) {
    snap.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.count = count_.load(std::memory_order_relaxed);
  return snap;
}

double Histogram::bucket_upper(int i) {
  return std::ldexp(1.0, i - kExponentBias);
}

MetricsRegistry& MetricsRegistry::instance() {
  // Leaked singleton: metric references handed out to instrumentation
  // must stay valid during static destruction of other objects.
  // hetsgd-lint: allow(naked-new) leaked singleton by design
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(mu_);
  auto it = index_.find(name);
  if (it != index_.end()) {
    HETSGD_ASSERT(it->second.kind == 'c',
                  "metric re-registered with a different kind");
    return *static_cast<Counter*>(it->second.ptr);
  }
  counters_.emplace_back();
  index_[name] = Entry{'c', &counters_.back()};
  return counters_.back();
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(mu_);
  auto it = index_.find(name);
  if (it != index_.end()) {
    HETSGD_ASSERT(it->second.kind == 'g',
                  "metric re-registered with a different kind");
    return *static_cast<Gauge*>(it->second.ptr);
  }
  gauges_.emplace_back();
  index_[name] = Entry{'g', &gauges_.back()};
  return gauges_.back();
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  MutexLock lock(mu_);
  auto it = index_.find(name);
  if (it != index_.end()) {
    HETSGD_ASSERT(it->second.kind == 'h',
                  "metric re-registered with a different kind");
    return *static_cast<Histogram*>(it->second.ptr);
  }
  histograms_.emplace_back();
  index_[name] = Entry{'h', &histograms_.back()};
  return histograms_.back();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.wall_ns = wall_now_ns();
  MutexLock lock(mu_);
  snap.samples.reserve(index_.size());
  for (const auto& [name, entry] : index_) {
    MetricSample sample;
    sample.name = name;
    sample.kind = entry.kind;
    switch (entry.kind) {
      case 'c':
        sample.value =
            static_cast<double>(static_cast<Counter*>(entry.ptr)->value());
        break;
      case 'g':
        sample.value = static_cast<Gauge*>(entry.ptr)->value();
        break;
      case 'h':
        sample.hist = static_cast<Histogram*>(entry.ptr)->snapshot();
        break;
      default:
        break;
    }
    snap.samples.push_back(std::move(sample));
  }
  return snap;
}

std::string MetricsRegistry::jsonl_line(const MetricsSnapshot& snap) {
  std::string out = "{\"ts_ns\":";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(snap.wall_ns));
  out += buf;
  out += ",\"metrics\":{";
  bool first = true;
  for (const MetricSample& s : snap.samples) {
    if (!first) out += ',';
    first = false;
    append_json_key(&out, s.name);
    if (s.kind == 'h') {
      out += "{\"count\":";
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(s.hist.count));
      out += buf;
      out += ",\"sum\":";
      append_double(&out, s.hist.sum);
      // [upper edge, count] per non-empty bucket, not cumulative.
      out += ",\"buckets\":[";
      const char* sep = "";
      for (int i = 0; i < Histogram::kBuckets; ++i) {
        if (s.hist.counts[i] == 0) continue;
        out += sep;
        sep = ",";
        out += '[';
        append_double(&out, Histogram::bucket_upper(i));
        std::snprintf(buf, sizeof(buf), ",%llu]",
                      static_cast<unsigned long long>(s.hist.counts[i]));
        out += buf;
      }
      out += "]}";
    } else {
      append_double(&out, s.value);
    }
  }
  out += "}}\n";
  return out;
}

}  // namespace hetsgd::obs

// Tests for the observability subsystem (src/obs): the lock-free metrics
// registry, the dual-clock span tracer and the periodic exporter (these
// tests run under the sanitizer CI legs).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cli.hpp"
#include "obs/clock.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hetsgd {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

// Stops the tracer, writes its trace and returns the JSON.
std::string write_trace(const char* name) {
  const std::string path = temp_path(name);
  std::string error;
  EXPECT_TRUE(obs::Tracer::instance().stop_and_write(path, &error)) << error;
  return read_file(path);
}

// The trace writer puts one record per line: these are the event lines,
// without the thread_name metadata records.
std::vector<std::string> event_lines(const std::string& json) {
  std::vector<std::string> out;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"ph\":\"") == std::string::npos) continue;
    if (line.find("\"ph\":\"M\"") != std::string::npos) continue;
    out.push_back(line);
  }
  return out;
}

// The track names of the thread_name metadata records, in order.
std::vector<std::string> thread_names(const std::string& json) {
  std::vector<std::string> out;
  const std::string key = "\"args\":{\"name\":\"";
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"name\":\"thread_name\"") == std::string::npos) continue;
    const std::size_t at = line.find(key) + key.size();
    out.push_back(line.substr(at, line.find('"', at) - at));
  }
  return out;
}

// A number that follows `key` in `text` (NaN when the key is absent).
double number_after(const std::string& text, const std::string& key) {
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return std::nan("");
  return std::stod(text.substr(at + key.size()));
}

TEST(ObsFlags, ParseIntoTheOptions) {
  obs::ObsOptions options;
  CliParser cli("prog", "test");
  obs::register_obs_flags(cli, &options);
  std::vector<std::string> args{"--trace-out", "run.json",
                                "--metrics-out=run.jsonl",
                                "--metrics-interval", "125"};
  std::vector<char*> argv{const_cast<char*>("prog")};
  for (std::string& a : args) argv.push_back(a.data());
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(options.trace_out, "run.json");
  EXPECT_EQ(options.metrics_out, "run.jsonl");
  EXPECT_EQ(options.metrics_interval_ms, 125.0);

  // Absent flags keep the defaults: tracing and export off.
  obs::ObsOptions defaults;
  CliParser empty("prog", "test");
  obs::register_obs_flags(empty, &defaults);
  std::vector<char*> bare{const_cast<char*>("prog")};
  ASSERT_TRUE(empty.parse(1, bare.data()));
  EXPECT_TRUE(defaults.trace_out.empty());
  EXPECT_TRUE(defaults.metrics_out.empty());

  // Those three are the whole observability surface.
  for (const char* flag : {"--trace-buffer", "--metrics-port"}) {
    std::vector<std::string> bad{flag, "1"};
    std::vector<char*> bad_argv{const_cast<char*>("prog"), bad[0].data(),
                                bad[1].data()};
    EXPECT_EXIT(empty.parse(3, bad_argv.data()), testing::ExitedWithCode(2),
                "unknown flag")
        << flag;
  }
}

TEST(WallClockTest, Monotone) {
  const std::uint64_t a = obs::wall_now_ns();
  const std::uint64_t b = obs::wall_now_ns();
  EXPECT_GE(b, a);
  obs::WallStopwatch sw;
  EXPECT_GE(sw.elapsed_seconds(), 0.0);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kIters; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kIters);
}

TEST(CounterTest, IncAddsAmountsAcrossThreads) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < 8; ++t) {
    threads.emplace_back([&c, t] { c.inc(t + 1); });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 36u);  // 1 + 2 + ... + 8, whichever shards they hit
  c.inc(0);
  EXPECT_EQ(c.value(), 36u);
}

TEST(GaugeTest, SetAndAdd) {
  obs::Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
}

TEST(HistogramTest, BucketsCoverObservations) {
  obs::Histogram h;
  h.observe(0.001);
  h.observe(1.0);
  h.observe(1000.0);
  const obs::Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_NEAR(s.sum, 1001.001, 1e-9);
  std::uint64_t total = 0;
  for (std::uint64_t c : s.counts) total += c;
  EXPECT_EQ(total, 3u);
  // Bucket upper bounds are strictly increasing powers of two.
  for (int i = 1; i < obs::Histogram::kBuckets - 1; ++i) {
    EXPECT_LT(obs::Histogram::bucket_upper(i - 1),
              obs::Histogram::bucket_upper(i));
  }
}

TEST(HistogramTest, OutOfRangeValuesLandInTheEdgeBuckets) {
  obs::Histogram h;
  h.observe(0.0);
  h.observe(-3.0);
  h.observe(1e-300);
  h.observe(1e300);
  const obs::Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.counts[0], 3u);
  EXPECT_EQ(s.counts[obs::Histogram::kBuckets - 1], 1u);
}

TEST(MetricsRegistryTest, FindOrCreateIsStable) {
  auto& reg = obs::MetricsRegistry::instance();
  obs::Counter& a = reg.counter("obs_test_stable_counter");
  obs::Counter& b = reg.counter("obs_test_stable_counter");
  EXPECT_EQ(&a, &b);
  obs::Gauge& g1 = reg.gauge("obs_test_stable_gauge");
  obs::Gauge& g2 = reg.gauge("obs_test_stable_gauge");
  EXPECT_EQ(&g1, &g2);
}

TEST(MetricsRegistryTest, ReRegisteringAsAnotherKindAborts) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("obs_test_kind_clash");
  EXPECT_DEATH(reg.gauge("obs_test_kind_clash"), "different kind");
  EXPECT_DEATH(reg.histogram("obs_test_kind_clash"), "different kind");
}

TEST(MetricsRegistryTest, ConcurrentFindOrCreateAndSnapshot) {
  auto& reg = obs::MetricsRegistry::instance();
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      reg.counter("obs_test_churn_" + std::to_string(i % 8)).inc();
      ++i;
    }
  });
  for (int i = 0; i < 50; ++i) {
    (void)obs::MetricsRegistry::jsonl_line(reg.snapshot());
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST(MetricsRegistryTest, JsonlLineIsOneLine) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("obs_test_jsonl_counter").inc();
  const std::string line = obs::MetricsRegistry::jsonl_line(reg.snapshot());
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(line.find('\n'), line.size() - 1);  // exactly one newline
  EXPECT_NE(line.find("\"ts_ns\""), std::string::npos);
  EXPECT_NE(line.find("obs_test_jsonl_counter"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonlLineWritesHistogramBuckets) {
  auto& reg = obs::MetricsRegistry::instance();
  obs::Histogram& h = reg.histogram("obs_test_jsonl_hist");
  for (double v : {0.5, 0.75, 2.0, 3.0}) h.observe(v);
  const std::string line = obs::MetricsRegistry::jsonl_line(reg.snapshot());
  // [upper edge, count] per non-empty bucket: [0.5, 1) and [2, 4).
  EXPECT_NE(line.find("\"obs_test_jsonl_hist\":{\"count\":4,\"sum\":6.25,"
                      "\"buckets\":[[1,2],[4,2]]}"),
            std::string::npos)
      << line;
}

TEST(MetricsRegistryTest, JsonlLineWritesNonFiniteAsNull) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.gauge("obs_test_nan_gauge").set(std::nan(""));
  reg.gauge("obs_test_inf_gauge")
      .set(std::numeric_limits<double>::infinity());
  const std::string line = obs::MetricsRegistry::jsonl_line(reg.snapshot());
  EXPECT_NE(line.find("\"obs_test_nan_gauge\":null"), std::string::npos);
  EXPECT_NE(line.find("\"obs_test_inf_gauge\":null"), std::string::npos);
}

TEST(TracerTest, MultiThreadSpansExportValidTrace) {
  auto& tracer = obs::Tracer::instance();
  tracer.start();
  obs::Tracer::set_thread_name("obs-test-main");
  {
    HETSGD_TRACE_SCOPE("test", "outer");
    HETSGD_TRACE_SPAN(span, "test", "inner", 1.0, obs::batch_flow_id(0, 1));
    span.set_end_vt(2.0);
  }
  obs::trace_flow_begin("batch", obs::batch_flow_id(0, 1), 1.0);
  obs::trace_flow_step("batch", obs::batch_flow_id(0, 1), 1.5);
  obs::trace_flow_end("batch", obs::batch_flow_id(0, 1), 2.0);
  HETSGD_TRACE_INSTANT("test", "marker", 1.0);
  HETSGD_TRACE_COUNTER("test_counter", 42.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      obs::Tracer::set_thread_name("obs-test-" + std::to_string(t));
      for (int i = 0; i < 100; ++i) {
        HETSGD_TRACE_SCOPE("test", "worker_span");
      }
    });
  }
  for (auto& t : threads) t.join();

  const std::string json = write_trace("obs_test_trace.json");
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(number_after(json, "\"collected\":"), 407.0);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"worker_span\""), std::string::npos);
  EXPECT_NE(json.find("\"obs-test-2\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"vt0\":1"), std::string::npos);
  // Balanced braces/brackets => structurally sound JSON (no parser here).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(TracerTest, ManyThreadsKeepMetadataWellFormed) {
  // Regression: with 10+ registered threads the thread_name metadata
  // line needs more than 64 chars (two tid digits), and truncation used
  // to eat the opening quote of the name value.
  auto& tracer = obs::Tracer::instance();
  tracer.start();
  std::vector<std::thread> threads;
  for (int t = 0; t < 12; ++t) {
    threads.emplace_back([t] {
      obs::Tracer::set_thread_name("obs-many-" + std::to_string(t));
      HETSGD_TRACE_SCOPE("test", "many_span");
    });
  }
  for (auto& t : threads) t.join();
  const std::string json = write_trace("obs_test_trace_many.json");
  // Every metadata record, including two-digit tids, carries a properly
  // quoted name value.
  for (int tid = 1; tid <= 12; ++tid) {
    const std::string meta = "\"tid\":" + std::to_string(tid) +
                             ",\"args\":{\"name\":\"obs-many-";
    EXPECT_NE(json.find(meta), std::string::npos) << "tid " << tid;
  }
  EXPECT_EQ(std::count(json.begin(), json.end(), '"') % 2, 0);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(TracerTest, RestartWhileProducersRecordIsSafe) {
  // Stress witness (ASan/TSan CI legs) for the stop->start contract:
  // producers racing record() against restart cycles only ever append to
  // their own live buffer, under its lock, while start() clears it.
  auto& tracer = obs::Tracer::instance();
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        HETSGD_TRACE_SCOPE("test", "churn");
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    tracer.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    tracer.stop();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
}

TEST(TracerTest, RestartAfterStopCollectsAgain) {
  auto& tracer = obs::Tracer::instance();
  tracer.start();
  { HETSGD_TRACE_SCOPE("test", "first_run"); }
  tracer.stop();
  tracer.start();
  { HETSGD_TRACE_SCOPE("test", "second_run"); }
  const std::string json = write_trace("obs_test_trace2.json");
  EXPECT_NE(json.find("second_run"), std::string::npos);
  EXPECT_EQ(json.find("first_run"), std::string::npos);
}

TEST(TracerTest, RestartListsOnlyTheThreadsThatRecordedInIt) {
  auto& tracer = obs::Tracer::instance();
  tracer.start();
  obs::Tracer::set_thread_name("obs-first-main");
  HETSGD_TRACE_INSTANT("test", "first");
  std::thread([] {
    obs::Tracer::set_thread_name("obs-first-thread");
    HETSGD_TRACE_INSTANT("test", "first");
  }).join();
  tracer.stop();
  tracer.start();
  std::thread([] {
    obs::Tracer::set_thread_name("obs-second-thread");
    HETSGD_TRACE_INSTANT("test", "second");
  }).join();
  const std::string json = write_trace("obs_test_restart_threads.json");
  EXPECT_EQ(thread_names(json), std::vector<std::string>{"obs-second-thread"});
  EXPECT_EQ(event_lines(json).size(), 1u);
}

TEST(TracerTest, NullNameSpanIsUntraced) {
  auto& tracer = obs::Tracer::instance();
  tracer.start();
  { HETSGD_TRACE_SPAN(span, "test", nullptr); }
  const std::string json = write_trace("obs_test_null_span.json");
  EXPECT_EQ(number_after(json, "\"collected\":"), 0.0);
  EXPECT_TRUE(event_lines(json).empty());
  EXPECT_TRUE(thread_names(json).empty());
}

// One session holds every event a thread records: a buffer grows, it
// never drops.
TEST(TracerTest, OneThreadKeepsAHundredThousandInstants) {
  auto& tracer = obs::Tracer::instance();
  tracer.start();
  constexpr std::size_t kEvents = 100000;
  for (std::size_t i = 0; i < kEvents; ++i) {
    HETSGD_TRACE_INSTANT("test", "burst");
  }
  const std::string json = write_trace("obs_test_burst.json");
  EXPECT_EQ(event_lines(json).size(), kEvents);
  EXPECT_EQ(number_after(json, "\"collected\":"),
            static_cast<double>(kEvents));
}

TEST(TracerTest, ThreadThatExitsBeforeStopKeepsItsEventsAndName) {
  auto& tracer = obs::Tracer::instance();
  tracer.start();
  std::thread([] {
    obs::Tracer::set_thread_name("obs-exited");
    HETSGD_TRACE_INSTANT("test", "before_exit");
    { HETSGD_TRACE_SCOPE("test", "span_before_exit"); }
  }).join();
  const std::string json = write_trace("obs_test_exited.json");
  EXPECT_EQ(thread_names(json), std::vector<std::string>{"obs-exited"});
  EXPECT_NE(json.find("\"before_exit\""), std::string::npos);
  EXPECT_NE(json.find("\"span_before_exit\""), std::string::npos);
}

TEST(TracerTest, NameSetBeforeStartIsKept) {
  auto& tracer = obs::Tracer::instance();
  tracer.stop();
  std::atomic<bool> named{false};
  std::atomic<bool> started{false};
  std::thread thread([&] {
    obs::Tracer::set_thread_name("obs-named-early");
    named.store(true);
    while (!started.load()) std::this_thread::yield();
    HETSGD_TRACE_INSTANT("test", "named_early");
  });
  while (!named.load()) std::this_thread::yield();
  tracer.start();
  started.store(true);
  thread.join();
  const std::string json = write_trace("obs_test_named_early.json");
  EXPECT_EQ(thread_names(json), std::vector<std::string>{"obs-named-early"});
}

TEST(TracerTest, ProbesAfterStopAreNotWritten) {
  auto& tracer = obs::Tracer::instance();
  tracer.start();
  HETSGD_TRACE_INSTANT("test", "during");
  {
    HETSGD_TRACE_SPAN(open, "test", "open_at_stop");
    tracer.stop();
  }
  HETSGD_TRACE_INSTANT("test", "after_stop");
  { HETSGD_TRACE_SCOPE("test", "span_after_stop"); }
  const std::string json = write_trace("obs_test_after_stop.json");
  EXPECT_NE(json.find("\"during\""), std::string::npos);
  EXPECT_EQ(json.find("open_at_stop"), std::string::npos);
  EXPECT_EQ(json.find("after_stop"), std::string::npos);
  EXPECT_EQ(event_lines(json).size(), 1u);
}

// otherData.collected is the count of events written, which
// scripts/validate_trace.py checks; every recording thread gets one
// thread_name record.
TEST(TracerTest, CollectedCountsTheWrittenEvents) {
  auto& tracer = obs::Tracer::instance();
  tracer.start();
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([t] {
      obs::Tracer::set_thread_name("obs-count-" + std::to_string(t));
      for (int i = 0; i < 50 * (t + 1); ++i) {
        HETSGD_TRACE_SCOPE("test", "count_span");
        HETSGD_TRACE_COUNTER("count_counter", i);
      }
    });
  }
  for (auto& t : threads) t.join();
  const std::string json = write_trace("obs_test_collected.json");
  EXPECT_EQ(event_lines(json).size(), 600u);  // 2 x (50 + 100 + 150)
  EXPECT_EQ(number_after(json, "\"collected\":"), 600.0);
  std::vector<std::string> names = thread_names(json);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"obs-count-0", "obs-count-1",
                                             "obs-count-2"}));
}

TEST(TracerTest, EventsAreWrittenInTimestampOrder) {
  auto& tracer = obs::Tracer::instance();
  tracer.start();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 200; ++i) {
        HETSGD_TRACE_SCOPE("test", "order_outer");
        { HETSGD_TRACE_SCOPE("test", "order_inner"); }
        HETSGD_TRACE_INSTANT("test", "order_instant");
      }
    });
  }
  for (auto& t : threads) t.join();
  const std::vector<std::string> lines =
      event_lines(write_trace("obs_test_order.json"));
  ASSERT_EQ(lines.size(), 2400u);
  double last = -1.0;
  for (const std::string& line : lines) {
    const double ts = number_after(line, "\"ts\":");
    ASSERT_GE(ts, last) << line;
    last = ts;
  }
}

// Flow ids are written as hex strings, the form e2ebench's reducer parses
// to join a batch's dispatch, execution and report.
TEST(TracerTest, FlowEventsCarryHexIds) {
  auto& tracer = obs::Tracer::instance();
  tracer.start();
  const std::uint64_t id = obs::batch_flow_id(2, 0x1234);
  obs::trace_flow_begin("batch", id, 0.5);
  obs::trace_flow_step("batch", id, 0.75);
  obs::trace_flow_end("batch", id, 1.0);
  const std::vector<std::string> lines =
      event_lines(write_trace("obs_test_flow_ids.json"));
  ASSERT_EQ(lines.size(), 3u);
  char hex[32];
  std::snprintf(hex, sizeof(hex), "\"id\":\"0x%llx\"",
                static_cast<unsigned long long>(id));
  for (const std::string& line : lines) {
    EXPECT_NE(line.find(hex), std::string::npos) << line;
  }
  EXPECT_NE(lines[2].find("\"ph\":\"f\",\"pid\":1"), std::string::npos);
  EXPECT_NE(lines[2].find("\"bp\":\"e\""), std::string::npos);
}

TEST(TracerTest, StopAndWriteWithoutStartWritesEmptyTrace) {
  const std::string path = temp_path("obs_test_empty_trace.json");
  std::string error;
  ASSERT_TRUE(obs::Tracer::instance().stop_and_write(path, &error)) << error;
  const std::string json = read_file(path);
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
}

TEST(MetricsExporterTest, WritesJsonlSnapshots) {
  obs::MetricsRegistry::instance().counter("obs_test_export_counter").inc();
  obs::Gauge& gauge =
      obs::MetricsRegistry::instance().gauge("obs_test_export_gauge");
  gauge.set(1.0);
  obs::MetricsExporter::Options options;
  options.jsonl_path = temp_path("obs_test_metrics.jsonl");
  options.interval_ms = 5.0;
  obs::MetricsExporter exporter(options);
  std::string error;
  ASSERT_TRUE(exporter.start(&error)) << error;
  while (exporter.snapshots_written() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The owner of a value publishes it where it changes; the next snapshot
  // (here the final one stop() takes) carries it with no collect step.
  gauge.set(2.0);
  exporter.stop();
  EXPECT_GE(exporter.snapshots_written(), 4u);
  std::ifstream in(options.jsonl_path);
  std::string line;
  std::string last;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("obs_test_export_counter"), std::string::npos);
    EXPECT_NE(line.find("\"obs_test_export_gauge\":"), std::string::npos);
    last = line;
  }
  EXPECT_GE(lines, 4u);
  EXPECT_NE(last.find("\"obs_test_export_gauge\":2"), std::string::npos)
      << last;
}

TEST(MetricsExporterTest, StartFailsWhenTheOutputCannotBeOpened) {
  obs::MetricsExporter::Options options;
  options.jsonl_path = temp_path("obs_test_no_such_dir/metrics.jsonl");
  obs::MetricsExporter exporter(options);
  std::string error;
  EXPECT_FALSE(exporter.start(&error));
  EXPECT_NE(error.find(options.jsonl_path), std::string::npos) << error;
  exporter.stop();  // nothing started: no snapshot, no thread to join
  EXPECT_EQ(exporter.snapshots_written(), 0u);
}

}  // namespace
}  // namespace hetsgd

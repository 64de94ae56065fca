// Periodic metrics snapshot exporter + optional Prometheus scrape
// endpoint, plus the observability CLI surface (ObsOptions /
// register_obs_flags) shared by every binary.
//
// The exporter thread wakes every interval, snapshots the registry and
// appends one JSONL line. With port >= 0 a second thread serves the
// current snapshot as Prometheus text (text/plain; version=0.0.4) on
// 127.0.0.1. Both read only the registry's atomics: the code that owns a
// value keeps its metric current (the UpdateLedger its per-worker gauges,
// the coordinator its loss-curve gauges), so no exporter thread reads
// training state.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>

#include "common/thread_annotations.hpp"
#include "obs/metrics.hpp"

namespace hetsgd {
class CliParser;
}  // namespace hetsgd

namespace hetsgd::obs {

// CLI-facing observability options (see register_obs_flags).
struct ObsOptions {
  std::string trace_out;    // Chrome trace JSON path; empty = tracing off
  std::string metrics_out;  // JSONL path; empty = no periodic export
  double metrics_interval_ms = 250.0;
  std::int64_t metrics_port = -1;  // scrape port; -1 = off, 0 = ephemeral
  std::int64_t trace_buffer = std::int64_t{1} << 15;  // events/thread
};

// Registers --trace-out / --metrics-out / --metrics-interval (and the
// auxiliary --metrics-port / --trace-buffer) on the parser.
void register_obs_flags(CliParser& parser, ObsOptions* options);

class MetricsExporter {
 public:
  struct Options {
    std::string jsonl_path;       // empty = no file export
    double interval_ms = 250.0;
    int port = -1;                // -1 = no scrape endpoint
  };

  explicit MetricsExporter(Options options);
  ~MetricsExporter();  // calls stop()

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  // Returns false (with *error) if the output file or socket cannot be
  // set up. Idempotent while running.
  bool start(std::string* error);

  // Takes one final snapshot, flushes, joins threads. Idempotent.
  void stop();

  // Actual bound scrape port (after start with port >= 0), else -1.
  int scrape_port() const { return scrape_port_.load(); }
  std::uint64_t snapshots_written() const { return snapshots_.load(); }

 private:
  void exporter_main();
  void scrape_main();
  void write_snapshot();

  Options options_;
  std::atomic<bool> running_{false};
  std::atomic<int> scrape_port_{-1};
  std::atomic<std::uint64_t> snapshots_{0};
  std::atomic<int> listen_fd_{-1};
  std::FILE* jsonl_ = nullptr;  // exporter thread only (and stop() after join)
  std::thread exporter_;
  std::thread scraper_;
  AnnotatedMutex cv_mu_;
  std::condition_variable_any cv_;
  bool stop_requested_ HETSGD_GUARDED_BY(cv_mu_) = false;
};

}  // namespace hetsgd::obs

// Periodic metrics snapshot exporter, plus the observability CLI surface
// (ObsOptions / register_obs_flags) shared by every binary.
//
// The exporter thread wakes every interval, snapshots the registry and
// appends one JSONL line. It reads only the registry's atomics: the code
// that owns a value keeps its metric current (the UpdateLedger its
// per-worker gauges, the coordinator its loss-curve gauges), so the
// exporter thread reads no training state.
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
};

// Registers --trace-out / --metrics-out / --metrics-interval on the parser.
void register_obs_flags(CliParser& parser, ObsOptions* options);

class MetricsExporter {
 public:
  struct Options {
    std::string jsonl_path;       // empty = no file export
    double interval_ms = 250.0;
  };

  explicit MetricsExporter(Options options);
  ~MetricsExporter();  // calls stop()

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  // Returns false (with *error) if the output file cannot be opened.
  // Idempotent while running. start() and stop() are called by the
  // exporter's owner only.
  bool start(std::string* error);

  // Takes one final snapshot, flushes, joins the thread. Idempotent.
  void stop();

  std::uint64_t snapshots_written() const { return snapshots_.load(); }

 private:
  void exporter_main();
  void write_snapshot();

  Options options_;
  std::atomic<std::uint64_t> snapshots_{0};
  std::FILE* jsonl_ = nullptr;  // exporter thread only (and stop() after join)
  std::thread exporter_;
  AnnotatedMutex cv_mu_;
  std::condition_variable_any cv_;
  bool stop_requested_ HETSGD_GUARDED_BY(cv_mu_) = false;
};

}  // namespace hetsgd::obs

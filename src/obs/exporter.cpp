#include "obs/exporter.hpp"

#include <chrono>

#include "common/cli.hpp"

namespace hetsgd::obs {

void register_obs_flags(CliParser& parser, ObsOptions* options) {
  parser.add_string("trace-out", &options->trace_out,
                    "write a dual-clock Chrome trace_event JSON here "
                    "(open in Perfetto); empty disables tracing");
  parser.add_string("metrics-out", &options->metrics_out,
                    "append periodic metrics snapshots (JSONL) here; "
                    "empty disables the exporter");
  parser.add_double("metrics-interval", &options->metrics_interval_ms,
                    "metrics snapshot period in milliseconds");
}

MetricsExporter::MetricsExporter(Options options)
    : options_(std::move(options)) {}

MetricsExporter::~MetricsExporter() { stop(); }

bool MetricsExporter::start(std::string* error) {
  if (exporter_.joinable()) return true;
  if (!options_.jsonl_path.empty()) {
    jsonl_ = std::fopen(options_.jsonl_path.c_str(), "w");
    if (jsonl_ == nullptr) {
      if (error != nullptr) {
        *error = "cannot open metrics output: " + options_.jsonl_path;
      }
      return false;
    }
  }
  {
    MutexLock lock(cv_mu_);
    stop_requested_ = false;
  }
  exporter_ = std::thread(&MetricsExporter::exporter_main, this);
  return true;
}

void MetricsExporter::stop() {
  if (!exporter_.joinable()) return;
  {
    MutexLock lock(cv_mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  exporter_.join();
  write_snapshot();  // final snapshot after the thread is gone
  if (jsonl_ != nullptr) {
    std::fclose(jsonl_);
    jsonl_ = nullptr;
  }
}

void MetricsExporter::write_snapshot() {
  const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
  if (jsonl_ != nullptr) {
    const std::string line = MetricsRegistry::jsonl_line(snap);
    std::fwrite(line.data(), 1, line.size(), jsonl_);
    std::fflush(jsonl_);
  }
  snapshots_.fetch_add(1, std::memory_order_relaxed);
}

void MetricsExporter::exporter_main() {
  const auto interval = std::chrono::duration<double, std::milli>(
      options_.interval_ms > 0.0 ? options_.interval_ms : 250.0);
  for (;;) {
    {
      MutexLock lock(cv_mu_);
      // Check the flag before (and after) waiting: a stop() that fires
      // while write_snapshot runs must not cost a full extra interval.
      const auto deadline = std::chrono::steady_clock::now() + interval;
      while (!stop_requested_) {
        if (cv_.wait_until(cv_mu_, deadline) == std::cv_status::timeout) {
          break;
        }
      }
      if (stop_requested_) return;
    }
    write_snapshot();
  }
}

}  // namespace hetsgd::obs

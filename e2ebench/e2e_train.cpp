// One end-to-end training run, reported as one JSON object on stdout.
//
// e2ebench/run.py launches this once per run so that set-up, first-touch
// memory and peak RSS are paid the way a user pays them. The run builds a
// paper dataset from bench::evaluation_suite, constructs a core::Trainer and
// calls Trainer::run once. The output carries the timings, the virtual
// schedule, the loss end points, the ledger identity terms, the program's
// own counters (obs::MetricsRegistry) and the peak RSS; run.py checks and
// aggregates them. With --trace-out the program's span tracer is switched
// on through TrainingConfig::obs, and Dataset::shuffle is also timed
// directly on a copy of the dataset, for the per-layer table. With
// --setup-only the process stops after set-up and prints only setup_s.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"

using namespace hetsgd;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

// Peak resident set of this process, in MB (10^6 bytes).
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

volatile double g_probe_sink = 0.0;

// Fixed-work host-speed probe: one dependent multiply-add chain on one
// thread. Its time moves only with the host (clock speed, steal time,
// co-tenants), so run.py prints it beside each run's figures.
double host_probe_seconds() {
  double x = g_probe_sink + 1.0;
  const double t0 = now_seconds();
  for (int i = 0; i < 20'000'000; ++i) x = x * 0.9999999 + 1e-7;
  const double t1 = now_seconds();
  g_probe_sink = x;
  return t1 - t0;
}

// JSON has no NaN/Inf: a non-finite value is written as null, which the
// loss check in run.py then rejects.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

}  // namespace

int main(int argc, char** argv) {
  std::string dataset_name = "covtype";
  std::string algorithm_name = "adaptive";
  std::string cadence = "fig5";
  std::string trace_out;
  double scale = 1.0;
  double gpu_epochs = 20.0;
  std::int64_t seed = 1;
  std::int64_t real_threads = 1;
  bool setup_only = false;
  CliParser cli("e2e_train", "one end-to-end training run, printed as JSON");
  cli.add_string("dataset", &dataset_name, "covtype | w8a | delicious | real-sim");
  cli.add_string("algorithm", &algorithm_name, "training algorithm");
  cli.add_double("scale", &scale, "multiplier on the bench dataset scale");
  cli.add_double("gpu-epochs", &gpu_epochs, "virtual budget in GPU epochs");
  cli.add_string("cadence", &cadence,
                 "fig5 (61 evaluations) | epoch (evaluate at epoch ends)");
  cli.add_int("seed", &seed, "dataset seed");
  cli.add_int("real-threads", &real_threads, "host threads for Hogwild lanes");
  cli.add_string("trace-out", &trace_out, "span trace path (empty = off)");
  cli.add_flag("setup-only", &setup_only, "stop after set-up");
  if (!cli.parse(argc, argv)) return 0;

  core::Algorithm algorithm{};
  if (!core::parse_algorithm(algorithm_name, algorithm)) {
    std::fprintf(stderr, "e2e_train: unknown algorithm %s\n",
                 algorithm_name.c_str());
    return 2;
  }
  if (cadence != "fig5" && cadence != "epoch") {
    std::fprintf(stderr, "e2e_train: unknown cadence %s\n", cadence.c_str());
    return 2;
  }
  // 48 hidden units: the width bench/fig5_convergence runs by default.
  std::vector<bench::DatasetBench> suite = bench::evaluation_suite(scale, 48);
  const auto entry =
      std::find_if(suite.begin(), suite.end(), [&](const bench::DatasetBench& b) {
        return b.name == dataset_name;
      });
  if (entry == suite.end()) {
    std::fprintf(stderr, "e2e_train: unknown dataset %s\n",
                 dataset_name.c_str());
    return 2;
  }

  const double probe_s = host_probe_seconds();

  // Set-up: dataset generation plus Trainer construction.
  const double t0 = now_seconds();
  data::Dataset dataset =
      bench::build_dataset(*entry, static_cast<std::uint64_t>(seed));
  const double t1 = now_seconds();
  const double feature_mb = static_cast<double>(dataset.feature_bytes()) / 1e6;
  core::TrainingConfig config = bench::build_config(
      *entry, algorithm,
      bench::budget_for_gpu_epochs(*entry, dataset.example_count(),
                                   gpu_epochs));
  if (cadence == "epoch") config.eval_interval_vseconds = 0.0;
  config.real_threads = static_cast<int>(real_threads);
  config.obs.trace_out = trace_out;
  core::Trainer trainer(std::move(dataset), config);
  const double t2 = now_seconds();
  if (setup_only) {
    std::printf("{\"setup_s\":%s}\n", num(t2 - t0).c_str());
    return 0;
  }

  const double cpu0 = cpu_seconds();
  const double r0 = now_seconds();
  const core::TrainingResult result = trainer.run();
  const double run_s = now_seconds() - r0;
  const double cpu_s = cpu_seconds() - cpu0;
  const double rss_mb = peak_rss_mb();

  // Median of direct Dataset::shuffle calls on a copy, for the per-layer
  // table; after the run, so it touches neither peak RSS nor run_s.
  double shuffle_ms = 0.0;
  if (!trace_out.empty()) {
    data::Dataset copy = trainer.dataset();
    Rng rng(static_cast<std::uint64_t>(seed) ^ 0x5eedULL);
    std::vector<double> times;
    for (int i = 0; i < 7; ++i) {
      const double s0 = now_seconds();
      copy.shuffle(rng);
      times.push_back((now_seconds() - s0) * 1e3);
    }
    std::nth_element(times.begin(), times.begin() + 3, times.end());
    shuffle_ms = times[3];
  }

  std::string out = "{";
  const auto field = [&out](const char* key, const std::string& value) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += key;
    out += "\":";
    out += value;
  };
  char hex[64];
  std::snprintf(hex, sizeof(hex), "\"%a\"", result.total_vtime);
  field("probe_s", num(probe_s));
  field("generate_s", num(t1 - t0));
  field("setup_s", num(t2 - t0));
  field("feature_mb", num(feature_mb));
  field("run_s", num(run_s));
  field("train_s", num(result.wall_seconds));
  field("cpu_s", num(cpu_s));
  field("peak_rss_mb", num(rss_mb));
  field("initial_loss", num(result.initial_loss));
  field("final_loss", num(result.final_loss));
  field("total_vtime", hex);
  field("total_vtime_s", num(result.total_vtime));
  field("examples_dispatched", std::to_string(result.examples_dispatched));
  field("examples_reclaimed", std::to_string(result.examples_reclaimed));
  field("late_examples", std::to_string(result.late_examples));
  field("rollbacks", std::to_string(result.rollbacks));
  field("diverged", result.diverged ? "true" : "false");
  std::string workers = "[";
  for (const core::WorkerSummary& w : result.workers) {
    if (workers.size() > 1) workers += ',';
    workers += "{\"name\":\"" + w.name + "\",\"kind\":\"" +
               (w.kind == gpusim::DeviceKind::kCpu ? "cpu" : "gpu") +
               "\",\"batches\":" + std::to_string(w.batches) +
               ",\"updates\":" + std::to_string(w.updates) +
               ",\"examples\":" + std::to_string(w.examples) + "}";
  }
  field("workers", workers + "]");
  std::string counters = "{";
  for (const char* name :
       {"hetsgd_dispatches_total", "hetsgd_epoch_flips_total",
        "hetsgd_gpu_transfers_total", "hetsgd_gpu_kernels_total",
        "hetsgd_host_gemms_total"}) {
    if (counters.size() > 1) counters += ',';
    counters += "\"" + std::string(name) + "\":" + std::to_string(counter(name));
  }
  field("counters", counters + "}");
  field("shuffle_ms", num(shuffle_ms));
  out += "}";
  std::printf("%s\n", out.c_str());
  return 0;
}

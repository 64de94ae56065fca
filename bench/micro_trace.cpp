// Microbenchmark + gate — wall-time overhead of the obs tracing layer.
//
// Runs a batch-shaped workload (one 64x64x64 GEMM, roughly the per-batch
// compute a Hogbatch lane does between instrumentation points) through the
// same span/flow/counter density the trainer emits per batch (~8 spans,
// 3 flow events, 2 counters), once with the tracer stopped and once with
// it collecting. The ratio of the two is the tracing tax; DESIGN.md §12
// budgets it at <3% and this binary enforces that budget.
//
// Both modes execute identical code — "traced" vs "untraced" is purely
// Tracer::enabled() — so the measured delta is exactly what a production
// run pays when --trace-out is set. Measurement alternates many short
// chunks of each mode and compares low percentiles (see the comment at
// the measurement loop for why that survives noisy shared hosts). The
// JSON it writes goes to bench_results/BENCH_trace.json via
// scripts/bench_smoke.sh.
//
//   ./micro_trace [--iters N] [--reps R] [--max-overhead F] [--out PATH]
//
// Exit status: 0 = within budget, 1 = overhead above --max-overhead.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/gemm.hpp"
#include "tensor/matrix.hpp"

namespace {

using namespace hetsgd;
using tensor::Index;
using tensor::Matrix;
using tensor::Scalar;
using tensor::Trans;

// 2*96^3 = 1.77M flops per iteration — still an order of magnitude less
// compute per span than a real Hogbatch/GPU batch, so the measured
// overhead bounds the production number from above.
constexpr Index kDim = 96;

// One iteration of the instrumented workload: the trace-op density copies
// what the core replica worker emits per batch (execute span + three
// transfer/kernel sub-spans + merge, flow begin/step/end, counters).
void run_batch(const Matrix& a, const Matrix& b, Matrix& c,
               obs::Counter& batches, obs::Histogram& latency,
               std::uint64_t sequence) {
  const std::uint64_t flow = obs::batch_flow_id(0, sequence);
  HETSGD_TRACE_SPAN(exec_span, "bench", "execute", 0.0, flow);
  obs::trace_flow_begin("bench-batch", flow, 0.0);
  {
    HETSGD_TRACE_SCOPE("bench", "upload_model");
  }
  const std::uint64_t t0 = obs::wall_now_ns();
  {
    HETSGD_TRACE_SPAN(kernel_span, "bench", "compute_gradient", 0.0, flow);
    tensor::gemm(Trans::kNo, Trans::kNo, Scalar{1}, a.view(), b.view(),
                 Scalar{0}, c.view());
    kernel_span.set_end_vt(0.0);
  }
  {
    HETSGD_TRACE_SCOPE("bench", "download_gradient");
  }
  obs::trace_flow_step("bench-batch", flow, 0.0);
  {
    HETSGD_TRACE_SCOPE("bench", "host_merge");
  }
  obs::trace_flow_end("bench-batch", flow, 0.0);
  batches.inc();
  latency.observe(static_cast<double>(obs::wall_now_ns() - t0));
  HETSGD_TRACE_COUNTER("bench_batches", static_cast<double>(sequence));
  exec_span.set_end_vt(0.0);
}

// Times `iters` iterations and returns ns per iteration.
double time_phase(std::int64_t iters, const Matrix& a, const Matrix& b,
                  Matrix& c, obs::Counter& batches, obs::Histogram& latency) {
  obs::WallStopwatch stopwatch;
  for (std::int64_t i = 0; i < iters; ++i) {
    run_batch(a, b, c, batches, latency,
              static_cast<std::uint64_t>(i));
  }
  return stopwatch.elapsed_seconds() * 1e9 / static_cast<double>(iters);
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t iters = 20;
  std::int64_t reps = 100;
  double max_overhead = 0.03;
  std::string out;
  CliParser cli("micro_trace", "tracing overhead benchmark + budget gate");
  cli.add_int("iters", &iters, "workload iterations per chunk");
  cli.add_int("reps", &reps, "untraced/traced chunk pairs");
  cli.add_double("max-overhead", &max_overhead,
                 "allowed fractional overhead of tracing-on vs off");
  cli.add_string("out", &out, "write BENCH_trace.json here (empty = skip)");
  if (!cli.parse(argc, argv)) return 0;

  Rng rng(12345);
  Matrix a(kDim, kDim), b(kDim, kDim), c(kDim, kDim);
  for (Index i = 0; i < kDim; ++i) {
    for (Index j = 0; j < kDim; ++j) {
      a.at(i, j) = static_cast<Scalar>(rng.uniform(-1.0, 1.0));
      b.at(i, j) = static_cast<Scalar>(rng.uniform(-1.0, 1.0));
    }
  }
  obs::Counter& batches =
      obs::MetricsRegistry::instance().counter("bench_trace_batches_total");
  obs::Histogram& latency =
      obs::MetricsRegistry::instance().histogram("bench_trace_batch_ns");

  const std::string discard =
      (std::filesystem::temp_directory_path() / "micro_trace_discard.json")
          .string();

  // Warm caches and the OpenMP pool before any timed phase.
  time_phase(std::min<std::int64_t>(iters, 200), a, b, c, batches, latency);

  // Alternate many short untraced/traced chunks and compare a low
  // percentile of each mode. A chunk is a few milliseconds — short
  // enough that on a noisy shared host plenty of chunks complete without
  // a preemption — so the 10th percentile of each mode reflects the
  // clean-machine cost, and their ratio isolates the tracing tax.
  // (Long paired phases flake here: a 100ms phase almost always eats
  // several preemptions and the noise swamps a ~1% signal.)
  //
  // After each start() the first event allocates the thread's first
  // buffer chunk; one untimed warmup batch absorbs that so chunks time
  // steady-state recording.
  std::vector<double> off_ns, on_ns;
  for (std::int64_t r = 0; r < reps; ++r) {
    run_batch(a, b, c, batches, latency, 0);
    off_ns.push_back(time_phase(iters, a, b, c, batches, latency));
    obs::Tracer::instance().start();
    run_batch(a, b, c, batches, latency, 0);
    on_ns.push_back(time_phase(iters, a, b, c, batches, latency));
    std::string error;
    if (!obs::Tracer::instance().stop_and_write(discard, &error)) {
      std::fprintf(stderr, "micro_trace: trace write failed: %s\n",
                   error.c_str());
      return 1;
    }
  }
  std::error_code ec;
  std::filesystem::remove(discard, ec);

  std::sort(off_ns.begin(), off_ns.end());
  std::sort(on_ns.begin(), on_ns.end());
  const std::size_t p10 = off_ns.size() / 10;
  const double untraced_ns = off_ns[p10];
  const double traced_ns = on_ns[p10];
  const double overhead = traced_ns / untraced_ns - 1.0;
  std::printf("micro_trace: untraced=%.0f ns/iter "
              "traced=%.0f ns/iter overhead=%.2f%% (budget %.2f%%)\n",
              untraced_ns, traced_ns,
              overhead * 100.0, max_overhead * 100.0);

  const bool pass = overhead <= max_overhead;
  if (!out.empty()) {
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "micro_trace: cannot write %s\n", out.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"benchmark\": \"bench/micro_trace\",\n"
                 "  \"iters\": %lld,\n"
                 "  \"reps\": %lld,\n"
                 "  \"events_per_iter\": 11,\n"
                 "  \"untraced_ns_per_iter\": %.1f,\n"
                 "  \"traced_ns_per_iter\": %.1f,\n"
                 "  \"overhead_fraction\": %.5f,\n"
                 "  \"max_overhead\": %.5f,\n"
                 "  \"pass\": %s\n"
                 "}\n",
                 static_cast<long long>(iters), static_cast<long long>(reps),
                 untraced_ns, traced_ns, overhead, max_overhead,
                 pass ? "true" : "false");
    std::fclose(f);
    std::printf("micro_trace: wrote %s\n", out.c_str());
  }
  if (!pass) {
    std::fprintf(stderr,
                 "micro_trace: FAIL — tracing overhead %.2f%% exceeds the "
                 "%.2f%% budget (DESIGN.md §12)\n",
                 overhead * 100.0, max_overhead * 100.0);
    return 1;
  }
  return 0;
}

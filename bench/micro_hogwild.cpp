// Microbenchmark — Hogwild gradient + racy update throughput on the host,
// and the adaptive controller's per-request overhead ("the computation of
// a new batch size is light and does not incur observable overhead",
// §VI-C).
//
// The update is the one a Hogwild lane runs (Worker::ensure_lane_capacity
// and execute_hogwild): each lane owns a zero-copy Backend whose
// MlpExecutor is bound to the shared model and takes the plain SGD step in
// place (MlpExecutor::sgd_step), with no gradient of its own.
//
// Two model shapes: a small one (54 inputs, two 32-unit layers, 2
// classes) and delicious at bench scale (500 inputs at 12% nonzero, 8 tanh
// layers of 48 units, 805 classes), whose single-example updates are
// dominated by the k = 1 weight-update products. scripts/bench_smoke.sh
// records the lane points in bench_results/BENCH_hogwild.json, ungated.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "backend/backend.hpp"
#include "backend/mlp_executor.hpp"
#include "common/rng.hpp"
#include "concurrent/thread_pool.hpp"
#include "core/adaptive.hpp"
#include "data/synthetic.hpp"
#include "nn/model.hpp"
#include "obs/clock.hpp"

namespace {

using namespace hetsgd;

nn::MlpConfig bench_mlp(tensor::Index dim, std::int32_t classes) {
  nn::MlpConfig c;
  c.input_dim = dim;
  c.num_classes = classes;
  c.hidden_layers = 2;
  c.hidden_units = 32;
  return c;
}

// The small shape's 1024 examples.
data::Dataset small_dataset() {
  data::SyntheticSpec spec;
  spec.examples = 1024;
  spec.dim = 54;
  spec.classes = 2;
  return data::make_synthetic(spec);
}

// delicious at bench scale: e2ebench's delicious-hogwild model.
nn::MlpConfig delicious_mlp() {
  nn::MlpConfig c;
  c.input_dim = 500;
  c.num_classes = 805;
  c.hidden_layers = 8;
  c.hidden_units = 48;
  c.hidden_activation = nn::Activation::kTanh;
  return c;
}

data::Dataset delicious_dataset() {
  data::SyntheticSpec spec;
  spec.examples = 1024;
  spec.dim = 500;
  spec.classes = 805;
  spec.density = 0.12;
  return data::make_synthetic(spec);
}

// One Hogwild lane: its backend and executor.
struct Lane {
  Lane(nn::Model& shared, tensor::Index max_batch)
      : backend(gpusim::xeon56_spec(), backend::Backend::Mode::kZeroCopy),
        exec(backend, shared.config(), max_batch) {
    exec.bind_shared_model(shared);
  }

  // One example's SGD step, taken in place on the live shared model with
  // no synchronization.
  void step(const data::Dataset& d, tensor::Index row) {
    exec.sgd_step(d.batch_features(row, 1), d.batch_labels(row, 1), 1e-4);
  }

  backend::Backend backend;
  backend::MlpExecutor exec;
};

// Racy concurrent updates to one shared model from state.range(0) lanes,
// each taking 16 single-example steps per iteration.
void run_lanes(benchmark::State& state, const data::Dataset& d,
               const nn::MlpConfig& c) {
  const std::size_t lanes = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  nn::Model model(c, rng);
  concurrent::ThreadPool pool(lanes);
  std::vector<std::unique_ptr<Lane>> lane_state;
  for (std::size_t l = 0; l < lanes; ++l) {
    lane_state.push_back(std::make_unique<Lane>(model, 1));
  }
  const std::size_t kPerLane = 16;
  const auto rows = static_cast<std::size_t>(d.example_count());
  const std::uint64_t start_ns = obs::wall_now_ns();
  for (auto _ : state) {
    pool.run_on_all([&](std::size_t lane) {
      for (std::size_t k = 0; k < kPerLane; ++k) {
        lane_state[lane]->step(
            d, static_cast<tensor::Index>((lane * kPerLane + k) % rows));
      }
    });
  }
  const double elapsed_ns = static_cast<double>(obs::wall_now_ns() - start_ns);
  const double updates =
      static_cast<double>(state.iterations() * lanes * kPerLane);
  state.counters["updates/s"] =
      benchmark::Counter(updates, benchmark::Counter::kIsRate);
  // Wall time per update across all lanes, as e2ebench's
  // concurrent.hogwild_us_per_update reads it.
  state.counters["us/update"] = elapsed_ns / 1e3 / updates;
}

void BM_GradientSingleExample(benchmark::State& state) {
  data::SyntheticSpec spec;
  spec.examples = 256;
  spec.dim = 54;
  spec.classes = 2;
  data::Dataset d = data::make_synthetic(spec);
  nn::MlpConfig c = bench_mlp(d.dim(), d.num_classes());
  Rng rng(1);
  nn::Model model(c, rng);
  Lane lane(model, 1);
  tensor::Index i = 0;
  for (auto _ : state) {
    lane.step(d, i % 256);
    ++i;
  }
  state.counters["updates/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GradientSingleExample);

void BM_HogwildLanes(benchmark::State& state) {
  const data::Dataset d = small_dataset();
  run_lanes(state, d, bench_mlp(d.dim(), d.num_classes()));
}
BENCHMARK(BM_HogwildLanes)->Arg(1)->Arg(2)->Arg(4);

void BM_HogwildLanesDelicious(benchmark::State& state) {
  run_lanes(state, delicious_dataset(), delicious_mlp());
}
BENCHMARK(BM_HogwildLanesDelicious)->Arg(1)->Arg(4)->UseRealTime();

void BM_AdaptiveControllerRequest(benchmark::State& state) {
  core::AdaptiveController controller(2.0);
  controller.register_worker(0, gpusim::DeviceKind::kCpu,
                             {56, 56, 56 * 64, 56});
  controller.register_worker(1, gpusim::DeviceKind::kGpu, {8192, 64, 8192, 1});
  std::uint64_t u0 = 0, u1 = 0;
  int flip = 0;
  for (auto _ : state) {
    if ((flip++ & 1) == 0) {
      u0 += 56;
      benchmark::DoNotOptimize(controller.on_request(0, u0));
    } else {
      u1 += 1;
      benchmark::DoNotOptimize(controller.on_request(1, u1));
    }
  }
}
BENCHMARK(BM_AdaptiveControllerRequest);

}  // namespace

BENCHMARK_MAIN();

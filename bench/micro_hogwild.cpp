// Microbenchmark — Hogwild gradient + racy update throughput on the host,
// and the adaptive controller's per-request overhead ("the computation of
// a new batch size is light and does not incur observable overhead",
// §VI-C).
//
// The update is the one a Hogwild lane runs (Worker::ensure_lane_capacity
// and execute_hogwild): each lane owns a zero-copy Backend whose
// MlpExecutor is bound to the shared model and the lane's gradient, and
// Model::axpy applies the plain SGD step.
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

// One Hogwild lane: its backend, executor and gradient slab.
struct Lane {
  Lane(nn::Model& shared, tensor::Index max_batch)
      : backend(gpusim::xeon56_spec(), backend::Backend::Mode::kZeroCopy),
        grad(nn::make_zero_gradient(shared)),
        exec(backend, shared.config(), max_batch) {
    exec.bind_shared_model(shared);
    exec.bind_host_gradient(grad);
  }

  // One example's gradient against the live shared model, applied to it
  // with no synchronization.
  void step(const data::Dataset& d, tensor::Index row, nn::Model& shared) {
    exec.compute_gradient(d.batch_features(row, 1), d.batch_labels(row, 1),
                          0.0, nullptr);
    shared.axpy(-1e-4, grad);
  }

  backend::Backend backend;
  nn::Gradient grad;
  backend::MlpExecutor exec;
};

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
    lane.step(d, i % 256, model);
    ++i;
  }
  state.counters["updates/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GradientSingleExample);

void BM_HogwildLanes(benchmark::State& state) {
  // Racy concurrent updates to one shared model from N lanes.
  const std::size_t lanes = static_cast<std::size_t>(state.range(0));
  data::SyntheticSpec spec;
  spec.examples = 1024;
  spec.dim = 54;
  spec.classes = 2;
  data::Dataset d = data::make_synthetic(spec);
  nn::MlpConfig c = bench_mlp(d.dim(), d.num_classes());
  Rng rng(2);
  nn::Model model(c, rng);
  concurrent::ThreadPool pool(lanes);
  std::vector<std::unique_ptr<Lane>> lane_state;
  for (std::size_t l = 0; l < lanes; ++l) {
    lane_state.push_back(std::make_unique<Lane>(model, 1));
  }
  const std::size_t kPerLane = 16;
  for (auto _ : state) {
    pool.run_on_all([&](std::size_t lane) {
      for (std::size_t k = 0; k < kPerLane; ++k) {
        const tensor::Index row =
            static_cast<tensor::Index>((lane * kPerLane + k) % 1024);
        lane_state[lane]->step(d, row, model);
      }
    });
  }
  state.counters["updates/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * lanes * kPerLane),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HogwildLanes)->Arg(1)->Arg(2)->Arg(4);

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

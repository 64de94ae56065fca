#include "core/minibatch_reference.hpp"

#include <algorithm>

#include "backend/backend.hpp"
#include "backend/mlp_executor.hpp"
#include "common/macros.hpp"

namespace hetsgd::core {

using tensor::Index;

ReferenceResult run_minibatch_reference(data::Dataset& dataset,
                                        const TrainingConfig& config,
                                        const ReferenceOptions& options) {
  TrainingConfig cfg = config;
  cfg.mlp.input_dim = dataset.dim();
  cfg.mlp.num_classes = dataset.num_classes();
  cfg.mlp.validate();

  Rng rng(cfg.seed);
  nn::Model model(cfg.mlp, rng);
  backend::Backend dev(cfg.gpu.spec, backend::Backend::Mode::kDevice);
  backend::MlpExecutor mlp(dev, cfg.mlp, cfg.gpu.batch);

  // Loss-evaluation sample (fixed rows copied out before shuffling).
  const Index n = dataset.example_count();
  const Index sample = options.eval_sample > 0
                           ? std::min(options.eval_sample, n)
                           : n;
  std::vector<std::size_t> idx(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  rng.fork(7).shuffle(idx);
  const data::Dataset eval = data::gather(
      dataset, std::span(idx).first(static_cast<std::size_t>(sample)),
      dataset.name() + "-eval");
  // TF-style: model uploaded once and kept resident across steps.
  mlp.upload_model(model);
  double clock = dev.now();

  // Multi-label pipeline overhead per step (delicious's 983 classes).
  double step_overhead = 0.0;
  if (cfg.mlp.num_classes > options.tf_overhead_class_threshold) {
    step_overhead = options.tf_class_overhead_seconds *
                    static_cast<double>(cfg.mlp.num_classes);
  }

  ReferenceResult result;
  std::uint64_t examples_total = 0;
  // The loss is evaluated on a host snapshot through a zero-copy executor
  // bound to it once. Each evaluation copies the replica into it without
  // a charged download: §VII-A excludes evaluation from the measured time,
  // and a download would queue ahead of the next step's kernels.
  nn::Model snapshot = model;
  backend::Backend eval_backend(cfg.cpu.spec,
                                backend::Backend::Mode::kZeroCopy);
  backend::MlpExecutor eval_mlp(eval_backend, cfg.mlp, nn::kEvalChunkRows);
  eval_mlp.bind_shared_model(snapshot);
  auto record = [&](double vtime) {
    snapshot = mlp.replica();
    result.curve.push_back(
        {vtime, static_cast<double>(examples_total) / static_cast<double>(n),
         eval_mlp.mean_loss(eval.features(), eval.labels())});
  };
  record(0.0);
  double next_eval = options.eval_interval_vseconds;

  const double lr = cfg.effective_lr(cfg.gpu.batch);
  std::uint64_t epoch = 0;
  bool out_of_budget = false;
  while (!out_of_budget) {
    Index cursor = 0;
    while (cursor < n) {
      const Index batch = std::min<Index>(cfg.gpu.batch, n - cursor);
      auto x = dataset.batch_features(cursor, batch);
      auto y = dataset.batch_labels(cursor, batch);
      dev.wait_until(clock);
      mlp.compute_gradient(x, y);
      mlp.apply_gradient(static_cast<tensor::Scalar>(lr));
      clock = dev.now() + step_overhead;
      cursor += batch;
      examples_total += static_cast<std::uint64_t>(batch);
      ++result.updates;
      if (options.eval_interval_vseconds > 0.0) {
        while (next_eval <= clock) {
          record(next_eval);
          next_eval += options.eval_interval_vseconds;
        }
      }
      if (clock >= cfg.time_budget_vseconds) {
        out_of_budget = true;
        break;
      }
    }
    ++epoch;
    if (options.eval_interval_vseconds <= 0.0) {
      record(clock);
    }
    if (cfg.max_epochs > 0 && epoch >= cfg.max_epochs) break;
    dataset.shuffle(rng);
  }

  result.final_vtime = clock;
  result.epochs =
      static_cast<double>(examples_total) / static_cast<double>(n);
  // The device crunches back-to-back batches; utilization is the GEMM
  // efficiency at the configured batch size.
  result.mean_utilization =
      dev.perf().utilization(static_cast<double>(cfg.gpu.batch));
  return result;
}

}  // namespace hetsgd::core

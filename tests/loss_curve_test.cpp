// The evaluated loss curves of the three deterministic training paths,
// pinned bit for bit: the coordinator's evaluation (a replica-only
// Trainer run), the TensorFlow-role reference and SVRG. None of them runs
// Hogwild lanes, so every point repeats exactly; the hex-float literals
// must not move when the kernels behind the evaluation are rearranged.
#include <vector>

#include <gtest/gtest.h>

#include "core/svrg.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"

namespace hetsgd::core {
namespace {

// 1000 examples: the 512-row evaluation chunks end on a ragged 488.
data::Dataset curve_dataset(std::int64_t examples = 1000) {
  data::SyntheticSpec spec;
  spec.name = "loss-curve";
  spec.examples = examples;
  spec.dim = 16;
  spec.classes = 3;
  spec.feature_noise = 0.5;
  spec.seed = 17;
  return data::make_synthetic(spec);
}

TrainingConfig curve_config(Algorithm algorithm) {
  TrainingConfig config;
  config.algorithm = algorithm;
  config.mlp.hidden_layers = 1;
  config.mlp.hidden_units = 16;
  config.learning_rate = 1e-3;
  config.time_budget_vseconds = 0.01;
  config.eval_interval_vseconds = 0.002;
  config.gpu.batch = 256;
  config.gpu.min_batch = 64;
  config.gpu.max_batch = 256;
  return config;
}

struct Point {
  double vtime;
  double loss;
};

void expect_curve(const std::vector<LossPoint>& got,
                  const std::vector<Point>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].vtime, want[i].vtime);
    EXPECT_EQ(got[i].loss, want[i].loss);
  }
}

TEST(PinnedLossCurve, CoordinatorEvaluation) {
  Trainer trainer(curve_dataset(), curve_config(Algorithm::kMinibatchGpu));
  expect_curve(trainer.run().loss_curve,
               {
                   {0x0p+0, 0x1.0a6e6d5202b04p+0},
                   {0x1.0624dd2f1a9fcp-9, 0x1.0a9b5aae85a55p-1},
                   {0x1.0624dd2f1a9fcp-8, 0x1.57d1f5733c354p-2},
                   {0x1.89374bc6a7efap-8, 0x1.05e55ab2af132p-2},
                   {0x1.0624dd2f1a9fcp-7, 0x1.c897feba26b37p-3},
                   {0x1.47ae147ae147bp-7, 0x1.a4aae9ec54558p-3},
               });
}

TEST(PinnedLossCurve, TensorFlowReference) {
  Trainer trainer(curve_dataset(), curve_config(Algorithm::kTensorFlow));
  expect_curve(trainer.run().loss_curve,
               {
                   {0x0p+0, 0x1.0a6e6d5202b04p+0},
                   {0x1.0624dd2f1a9fcp-9, 0x1.7b454efcb18afp-2},
                   {0x1.0624dd2f1a9fcp-8, 0x1.eab5e71b67ef6p-3},
                   {0x1.89374bc6a7efap-8, 0x1.a1d93a3e35ddbp-3},
                   {0x1.0624dd2f1a9fcp-7, 0x1.87c1963f2c102p-3},
                   {0x1.47ae147ae147bp-7, 0x1.7c8258344edb3p-3},
               });
}

TEST(PinnedLossCurve, Svrg) {
  data::Dataset d = curve_dataset(700);
  TrainingConfig config = curve_config(Algorithm::kMinibatchGpu);
  config.time_budget_vseconds = 1e9;
  config.max_epochs = 8;
  SvrgOptions options;
  options.batch = 32;
  expect_curve(run_svrg(d, config, options).curve,
               {
                   {0x0p+0, 0x1.0d0633ebe90cep+0},
                   {0x1.ea5f31e11e46bp-8, 0x1.bbe7529c3e7eap-1},
                   {0x1.ea5f31e11e461p-7, 0x1.805a52dc7bbe7p-1},
                   {0x1.6fc76568d6b46p-6, 0x1.4f425c6f9a2bfp-1},
               });
}

}  // namespace
}  // namespace hetsgd::core

#include <gtest/gtest.h>

#include "data/split.hpp"
#include "data/synthetic.hpp"
#include "executor_modes.hpp"
#include "nn/metrics.hpp"
#include "reference_mlp.hpp"

namespace hetsgd {
namespace {

using data::Dataset;

Dataset small_dataset(std::int32_t classes = 3, tensor::Index n = 600) {
  data::SyntheticSpec spec;
  spec.examples = n;
  spec.dim = 10;
  spec.classes = classes;
  spec.feature_noise = 0.4;
  spec.seed = 11;
  return data::make_synthetic(spec);
}

TEST(TrainTestSplit, PartitionsAllExamples) {
  Dataset d = small_dataset();
  Rng rng(1);
  auto split = data::train_test_split(d, 0.25, rng);
  EXPECT_EQ(split.train.example_count() + split.test.example_count(),
            d.example_count());
  EXPECT_NEAR(static_cast<double>(split.test.example_count()) /
                  static_cast<double>(d.example_count()),
              0.25, 0.03);
  EXPECT_EQ(split.train.dim(), d.dim());
  EXPECT_EQ(split.test.num_classes(), d.num_classes());
}

TEST(TrainTestSplit, StratifiedPreservesClassShares) {
  Dataset d = small_dataset(4, 2000);
  Rng rng(3);
  auto split = data::train_test_split(d, 0.2, rng, /*stratified=*/true);
  auto full = d.class_histogram();
  auto test = split.test.class_histogram();
  for (std::size_t c = 0; c < full.size(); ++c) {
    const double share =
        static_cast<double>(test[c]) / static_cast<double>(full[c]);
    EXPECT_NEAR(share, 0.2, 0.05) << "class " << c;
  }
}

TEST(TrainTestSplit, NamesCarrySuffix) {
  Dataset d = small_dataset();
  Rng rng(5);
  auto split = data::train_test_split(d, 0.5, rng);
  EXPECT_NE(split.train.name().find("-train"), std::string::npos);
  EXPECT_NE(split.test.name().find("-test"), std::string::npos);
}

TEST(TrainTestSplit, InvalidFractionDies) {
  Dataset d = small_dataset();
  Rng rng(7);
  EXPECT_DEATH(data::train_test_split(d, 0.0, rng), "test_fraction");
  EXPECT_DEATH(data::train_test_split(d, 1.0, rng), "test_fraction");
}

TEST(TrainTestSplit, UnstratifiedAlsoPartitions) {
  Dataset d = small_dataset();
  Rng rng(9);
  auto split = data::train_test_split(d, 0.3, rng, /*stratified=*/false);
  EXPECT_EQ(split.train.example_count() + split.test.example_count(),
            d.example_count());
}

TEST(ConfusionMatrix, CountsAndAccuracy) {
  nn::ConfusionMatrix cm(3);
  cm.add(0, 0);
  cm.add(0, 0);
  cm.add(0, 1);
  cm.add(1, 1);
  cm.add(2, 0);
  EXPECT_EQ(cm.total(), 5u);
  EXPECT_EQ(cm.count(0, 0), 2u);
  EXPECT_EQ(cm.count(0, 1), 1u);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 3.0 / 5.0);
}

TEST(ConfusionMatrix, PrecisionRecallF1) {
  nn::ConfusionMatrix cm(2);
  // class 1: 3 true positives, 1 false positive, 1 false negative.
  cm.add(1, 1);
  cm.add(1, 1);
  cm.add(1, 1);
  cm.add(0, 1);
  cm.add(1, 0);
  cm.add(0, 0);
  EXPECT_DOUBLE_EQ(cm.precision(1), 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(cm.recall(1), 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(cm.f1(1), 0.75);
  EXPECT_GT(cm.macro_f1(), 0.0);
}

TEST(ConfusionMatrix, EmptyClassYieldsZero) {
  nn::ConfusionMatrix cm(3);
  cm.add(0, 0);
  EXPECT_EQ(cm.precision(2), 0.0);
  EXPECT_EQ(cm.recall(2), 0.0);
  EXPECT_EQ(cm.f1(2), 0.0);
}

TEST(ConfusionMatrix, OutOfRangeDies) {
  nn::ConfusionMatrix cm(2);
  EXPECT_DEATH(cm.add(2, 0), "out of range");
}

TEST(EvaluateClassifier, TrainedModelBeatsChance) {
  Dataset d = small_dataset(3, 900);
  Rng rng(13);
  auto split = data::train_test_split(d, 0.3, rng);

  nn::MlpConfig config;
  config.input_dim = d.dim();
  config.num_classes = d.num_classes();
  config.hidden_layers = 1;
  config.hidden_units = 16;
  config.hidden_activation = nn::Activation::kTanh;
  const nn::Model start(config, rng);
  const tensor::ConstMatrixView train_x = split.train.features().view();
  const tensor::ConstMatrixView test_x = split.test.features().view();
  const auto classes = static_cast<std::int32_t>(config.num_classes);

  // Full-batch gradient descent and held-out evaluation through the
  // executor in each mode; the confusion matrices must agree exactly.
  nn::Model device_model;
  nn::ConfusionMatrix device_cm(classes);
  for (const auto mode : backend::kBothModes) {
    SCOPED_TRACE(static_cast<int>(mode));
    nn::Model model = start;
    backend::ModeRunner run(mode, model, split.train.example_count());
    for (int step = 0; step < 300; ++step) {
      run.gradient(train_x, split.train.labels());
      run.sgd(0.5);
    }
    nn::ConfusionMatrix cm = nn::evaluate_classifier(
        [&](tensor::ConstMatrixView x) { return run.forward(x); }, classes,
        test_x, split.test.labels());
    EXPECT_EQ(cm.total(), static_cast<std::uint64_t>(
                              split.test.example_count()));
    EXPECT_GT(cm.accuracy(), 0.6);  // chance = 0.33
    EXPECT_GT(cm.macro_f1(), 0.5);
    if (mode == backend::CpuBackend::Mode::kDevice) {
      device_model = model;
      device_cm = cm;
    } else {
      EXPECT_EQ(model.max_abs_diff(device_model), 0.0);
      for (std::int32_t a = 0; a < classes; ++a) {
        for (std::int32_t p = 0; p < classes; ++p) {
          EXPECT_EQ(cm.count(a, p), device_cm.count(a, p));
        }
      }
    }
  }

  // The same descent on the reference MLP ends within rounding of the
  // executor's model and classifies the held-out split the same way.
  nn::Model want = start;
  nn::Gradient grad = nn::make_zero_gradient(want);
  for (int step = 0; step < 300; ++step) {
    ref::softmax_xent(want, train_x, split.train.labels(), &grad);
    ref::sgd(want, grad, 0.5);
  }
  EXPECT_LT(device_model.max_abs_diff(want), 1e-9);
  tensor::Matrix logits;
  nn::ConfusionMatrix want_cm = nn::evaluate_classifier(
      [&](tensor::ConstMatrixView x) {
        const ref::Rows rows = ref::logits(want, x);
        logits.resize(x.rows(), classes);
        for (tensor::Index r = 0; r < x.rows(); ++r) {
          for (tensor::Index c = 0; c < classes; ++c) logits(r, c) = rows[r][c];
        }
        return tensor::ConstMatrixView(logits.view());
      },
      classes, test_x, split.test.labels());
  for (std::int32_t a = 0; a < classes; ++a) {
    for (std::int32_t p = 0; p < classes; ++p) {
      EXPECT_EQ(want_cm.count(a, p), device_cm.count(a, p));
    }
  }
}

}  // namespace
}  // namespace hetsgd

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

// Scores x's rows as their own logits, so a test writes the logits down as
// the input.
nn::ConfusionMatrix argmax_of_rows(std::int32_t classes,
                                   const tensor::Matrix& logits,
                                   const std::vector<std::int32_t>& labels) {
  return nn::evaluate_classifier(
      [](tensor::BatchView x) { return x.dense(); }, classes, logits.view(),
      labels);
}

TEST(Accuracy, CountsArgmaxMatches) {
  tensor::Matrix logits{{2, 1, 0}, {0, 5, 1}, {1, 0, 3}, {9, 0, 0}};
  std::vector<std::int32_t> labels{0, 1, 0, 1};
  const nn::ConfusionMatrix cm = argmax_of_rows(3, logits, labels);
  EXPECT_NEAR(cm.accuracy(), 0.5, 1e-12);
  EXPECT_EQ(cm.count(0, 2), 1u);  // row 2 predicts class 2
  EXPECT_EQ(cm.count(1, 0), 1u);  // row 3 predicts class 0
}

TEST(Accuracy, EmptyBatchIsZero) {
  tensor::Matrix logits(0, 3);
  const nn::ConfusionMatrix cm = argmax_of_rows(3, logits, {});
  EXPECT_EQ(cm.total(), 0u);
  EXPECT_EQ(cm.accuracy(), 0.0);
}

TEST(EvaluateClassifier, TiesGoToTheLowestClass) {
  tensor::Matrix logits{{1, 1, 0}, {0, 2, 2}, {3, 3, 3}};
  const nn::ConfusionMatrix cm = argmax_of_rows(3, logits, {0, 1, 2});
  EXPECT_EQ(cm.count(0, 0), 1u);
  EXPECT_EQ(cm.count(1, 1), 1u);
  EXPECT_EQ(cm.count(2, 0), 1u);
}

TEST(EvaluateClassifier, WalksTheInputInChunks) {
  // Two full chunks and a 76-row tail: the scorer sees each row once, in
  // order, never more than kEvalChunkRows at a time, and every row counts.
  const tensor::Index n = 2 * nn::kEvalChunkRows + 76;
  tensor::Matrix x(n, 2);
  std::vector<std::int32_t> labels(static_cast<std::size_t>(n));
  for (tensor::Index r = 0; r < n; ++r) {
    x(r, 0) = static_cast<tensor::Scalar>(r);
    x(r, 1) = (r % 3 == 0) ? 1.0 : 0.0;  // logits: class 1 on every 3rd row
    labels[static_cast<std::size_t>(r)] = (r % 2 == 0) ? 1 : 0;
  }
  std::vector<tensor::Index> chunk_rows;
  tensor::Index next_row = 0;
  tensor::Matrix logits;
  const nn::ConfusionMatrix cm = nn::evaluate_classifier(
      [&](tensor::BatchView rows) {
        const tensor::ConstMatrixView chunk = rows.dense();
        chunk_rows.push_back(chunk.rows());
        EXPECT_EQ(chunk(0, 0), static_cast<tensor::Scalar>(next_row));
        next_row += chunk.rows();
        logits.resize(chunk.rows(), 2);
        for (tensor::Index r = 0; r < chunk.rows(); ++r) {
          logits(r, 0) = 0.5;
          logits(r, 1) = chunk(r, 1);
        }
        return tensor::ConstMatrixView(logits.view());
      },
      2, x.view(), labels);
  EXPECT_EQ(chunk_rows, (std::vector<tensor::Index>{nn::kEvalChunkRows,
                                                    nn::kEvalChunkRows, 76}));
  EXPECT_EQ(cm.total(), static_cast<std::uint64_t>(n));
  std::uint64_t want_correct = 0;
  for (tensor::Index r = 0; r < n; ++r) {
    const int predicted = (r % 3 == 0) ? 1 : 0;
    if (predicted == labels[static_cast<std::size_t>(r)]) ++want_correct;
  }
  EXPECT_DOUBLE_EQ(cm.accuracy(), static_cast<double>(want_correct) /
                                      static_cast<double>(n));
}

TEST(EvaluateClassifier, LabelCountMismatchDies) {
  tensor::Matrix logits{{1, 0}, {0, 1}};
  EXPECT_DEATH(argmax_of_rows(2, logits, {0}), "label count");
}

TEST(EvaluateClassifier, LogitsShapeMismatchDies) {
  tensor::Matrix x{{1, 0}, {0, 1}};
  tensor::Matrix wide(2, 3);
  const std::vector<std::int32_t> labels{0, 1};
  EXPECT_DEATH(nn::evaluate_classifier(
                   [&](tensor::BatchView) {
                     return tensor::ConstMatrixView(wide.view());
                   },
                   2, x.view(), labels),
               "logits shape");
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
  const tensor::ConstMatrixView train_x = split.train.features().dense();
  const tensor::ConstMatrixView test_x = split.test.features().dense();
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
        [&](tensor::BatchView x) { return run.forward(x); }, classes,
        test_x, split.test.labels());
    EXPECT_EQ(cm.total(), static_cast<std::uint64_t>(
                              split.test.example_count()));
    EXPECT_GT(cm.accuracy(), 0.6);  // chance = 0.33
    EXPECT_GT(cm.macro_f1(), 0.5);
    if (mode == backend::Backend::Mode::kDevice) {
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
      [&](tensor::BatchView x) {
        const ref::Rows rows = ref::logits(want, x.dense());
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

#include "nn/loss.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "tensor/ops.hpp"

namespace hetsgd::nn {
namespace {

using tensor::Index;
using tensor::Matrix;
using tensor::Scalar;

TEST(SoftmaxXent, UniformLogitsGiveLogC) {
  Matrix logits(4, 5);  // all zeros -> uniform distribution
  std::vector<std::int32_t> labels{0, 1, 2, 3};
  Scalar loss = softmax_cross_entropy(logits.view(), labels, nullptr);
  EXPECT_NEAR(loss, std::log(5.0), 1e-12);
}

TEST(SoftmaxXent, ConfidentCorrectPredictionLowLoss) {
  Matrix logits{{100, 0, 0}};
  std::vector<std::int32_t> labels{0};
  EXPECT_LT(softmax_cross_entropy(logits.view(), labels, nullptr), 1e-6);
}

TEST(SoftmaxXent, ConfidentWrongPredictionHighLoss) {
  Matrix logits{{100, 0}};
  std::vector<std::int32_t> labels{1};
  EXPECT_GT(softmax_cross_entropy(logits.view(), labels, nullptr), 50.0);
}

TEST(SoftmaxXent, StableForHugeLogits) {
  Matrix logits{{1e5, 1e5 - 1}};
  std::vector<std::int32_t> labels{0};
  Scalar loss = softmax_cross_entropy(logits.view(), labels, nullptr);
  EXPECT_TRUE(std::isfinite(loss));
}

TEST(SoftmaxXent, GradientRowsSumToZero) {
  Rng rng(3);
  Matrix logits(6, 4);
  tensor::fill_normal(logits.view(), rng, 0, 2);
  std::vector<std::int32_t> labels{0, 1, 2, 3, 0, 1};
  Matrix grad(6, 4);
  auto gv = grad.view();
  softmax_cross_entropy(logits.view(), labels, &gv);
  for (Index r = 0; r < 6; ++r) {
    Scalar row_sum = 0;
    for (Index c = 0; c < 4; ++c) row_sum += grad(r, c);
    EXPECT_NEAR(row_sum, 0.0, 1e-12);  // softmax - onehot sums to zero
  }
}

TEST(SoftmaxXent, GradientMatchesFiniteDifference) {
  Rng rng(7);
  Matrix logits(3, 4);
  tensor::fill_normal(logits.view(), rng, 0, 1);
  std::vector<std::int32_t> labels{2, 0, 3};
  Matrix grad(3, 4);
  auto gv = grad.view();
  softmax_cross_entropy(logits.view(), labels, &gv);
  const double eps = 1e-6;
  for (Index r = 0; r < 3; ++r) {
    for (Index c = 0; c < 4; ++c) {
      Matrix plus = logits, minus = logits;
      plus(r, c) += eps;
      minus(r, c) -= eps;
      const double numeric =
          (softmax_cross_entropy(plus.view(), labels, nullptr) -
           softmax_cross_entropy(minus.view(), labels, nullptr)) /
          (2 * eps);
      EXPECT_NEAR(grad(r, c), numeric, 1e-8);
    }
  }
}

TEST(SoftmaxXent, LossIsMeanOverBatch) {
  Matrix one{{2, 1}};
  std::vector<std::int32_t> l1{0};
  Scalar single = softmax_cross_entropy(one.view(), l1, nullptr);
  Matrix two{{2, 1}, {2, 1}};
  std::vector<std::int32_t> l2{0, 0};
  EXPECT_NEAR(softmax_cross_entropy(two.view(), l2, nullptr), single, 1e-12);
}

TEST(SoftmaxXent, LabelOutOfRangeDies) {
  Matrix logits(1, 3);
  std::vector<std::int32_t> labels{3};
  EXPECT_DEATH(softmax_cross_entropy(logits.view(), labels, nullptr),
               "label out of range");
}

// The softmax the loss is built on: dlogits = (softmax - onehot) / B, so
// softmax = B * dlogits + onehot.
Matrix softmax_of(const Matrix& logits,
                  const std::vector<std::int32_t>& labels) {
  Matrix p(logits.rows(), logits.cols());
  auto pv = p.view();
  softmax_cross_entropy(logits.view(), labels, &pv);
  const auto batch = static_cast<Scalar>(logits.rows());
  for (Index r = 0; r < p.rows(); ++r) {
    for (Index c = 0; c < p.cols(); ++c) p(r, c) *= batch;
    p(r, labels[static_cast<std::size_t>(r)]) += 1;
  }
  return p;
}

TEST(SoftmaxXent, SoftmaxRowsArePositiveAndSumToOne) {
  Rng rng(9);
  Matrix logits(20, 15);
  tensor::fill_normal(logits.view(), rng, 0, 5);
  std::vector<std::int32_t> labels(20);
  for (std::size_t r = 0; r < labels.size(); ++r) {
    labels[r] = static_cast<std::int32_t>(r % 15);
  }
  const Matrix p = softmax_of(logits, labels);
  for (Index r = 0; r < p.rows(); ++r) {
    Scalar total = 0;
    for (Index c = 0; c < p.cols(); ++c) {
      EXPECT_GT(p(r, c), 0) << r << "," << c;
      EXPECT_LT(p(r, c), 1) << r << "," << c;
      total += p(r, c);
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(SoftmaxXent, GradientStableForHugeLogits) {
  Matrix logits{{1000.0, 1001.0}};
  std::vector<std::int32_t> labels{0};
  Matrix grad(1, 2);
  auto gv = grad.view();
  softmax_cross_entropy(logits.view(), labels, &gv);
  ASSERT_TRUE(tensor::all_finite(grad.view()));
  // softmax(1000, 1001) = softmax(0, 1).
  const double p1 = 1.0 / (1.0 + std::exp(-1.0));
  EXPECT_NEAR(grad(0, 1), p1, 1e-12);
  EXPECT_NEAR(grad(0, 0), (1.0 - p1) - 1.0, 1e-12);
}

TEST(SoftmaxXent, SoftmaxKeepsLogitOrder) {
  Matrix logits{{1.0, 3.0, 2.0}};
  const Matrix p = softmax_of(logits, {0});
  EXPECT_GT(p(0, 1), p(0, 2));
  EXPECT_GT(p(0, 2), p(0, 0));
}

TEST(SigmoidBce, KnownValues) {
  Matrix logits{{0, 0}};
  Matrix targets{{1, 0}};
  Scalar loss = sigmoid_bce(logits.view(), targets.view(), nullptr);
  EXPECT_NEAR(loss, 2 * std::log(2.0), 1e-12);  // two times -log(0.5), /B=1
}

TEST(SigmoidBce, GradientMatchesFiniteDifference) {
  Rng rng(9);
  Matrix logits(2, 3);
  tensor::fill_normal(logits.view(), rng, 0, 1.5);
  Matrix targets{{1, 0, 1}, {0, 1, 0}};
  Matrix grad(2, 3);
  auto gv = grad.view();
  sigmoid_bce(logits.view(), targets.view(), &gv);
  const double eps = 1e-6;
  for (Index r = 0; r < 2; ++r) {
    for (Index c = 0; c < 3; ++c) {
      Matrix plus = logits, minus = logits;
      plus(r, c) += eps;
      minus(r, c) -= eps;
      const double numeric =
          (sigmoid_bce(plus.view(), targets.view(), nullptr) -
           sigmoid_bce(minus.view(), targets.view(), nullptr)) /
          (2 * eps);
      EXPECT_NEAR(grad(r, c), numeric, 1e-8);
    }
  }
}

TEST(SigmoidBce, StableForLargeLogits) {
  Matrix logits{{1000, -1000}};
  Matrix targets{{1, 0}};
  Scalar loss = sigmoid_bce(logits.view(), targets.view(), nullptr);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 0.0, 1e-9);
}

}  // namespace
}  // namespace hetsgd::nn

#include "nn/activation.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "tensor/ops.hpp"

namespace hetsgd::nn {
namespace {

using tensor::Matrix;
using tensor::Scalar;

// The activation as the forward pass applies it: the scalar form of the
// fused GEMM epilogue bias_act_epilogue picks.
Scalar apply(Activation a, Scalar x) {
  return tensor::detail::epilogue_apply(bias_act_epilogue(a), x);
}

TEST(Activation, SigmoidValues) {
  EXPECT_NEAR(apply(Activation::kSigmoid, 0.0), 0.5, 1e-12);
  EXPECT_GT(apply(Activation::kSigmoid, 10.0), 0.9999);
  EXPECT_LT(apply(Activation::kSigmoid, -10.0), 0.0001);
}

TEST(Activation, TanhValues) {
  EXPECT_NEAR(apply(Activation::kTanh, 0.0), 0.0, 1e-12);
  EXPECT_NEAR(apply(Activation::kTanh, 1.0), std::tanh(1.0), 1e-12);
}

TEST(Activation, ReluValues) {
  EXPECT_EQ(apply(Activation::kRelu, -3.0), 0.0);
  EXPECT_EQ(apply(Activation::kRelu, 3.0), 3.0);
}

TEST(Activation, IdentityPassesThrough) {
  EXPECT_EQ(apply(Activation::kIdentity, -7.5), -7.5);
}

TEST(Activation, Names) {
  EXPECT_STREQ(activation_name(Activation::kSigmoid), "sigmoid");
  Activation a;
  EXPECT_TRUE(parse_activation("relu", a));
  EXPECT_EQ(a, Activation::kRelu);
  EXPECT_TRUE(parse_activation("tanh", a));
  EXPECT_EQ(a, Activation::kTanh);
  EXPECT_FALSE(parse_activation("swish", a));
}

class ActivationDerivative : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationDerivative, MatchesFiniteDifference) {
  const Activation act = GetParam();
  const double eps = 1e-6;
  for (double x : {-2.0, -0.5, 0.3, 1.7}) {
    if (act == Activation::kRelu && std::abs(x) < eps) continue;
    const double fx = apply(act, x);
    const double numeric =
        (apply(act, x + eps) - apply(act, x - eps)) / (2 * eps);
    const double analytic =
        activation_derivative_from_output(act, static_cast<Scalar>(fx));
    EXPECT_NEAR(analytic, numeric, 1e-6)
        << activation_name(act) << " at x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationDerivative,
                         ::testing::Values(Activation::kIdentity,
                                           Activation::kSigmoid,
                                           Activation::kTanh,
                                           Activation::kRelu));

class ActivationForwardBackward
    : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationForwardBackward, MatrixFormMatchesScalarForm) {
  const Activation act = GetParam();
  Rng rng(11);
  Matrix m(5, 7);
  tensor::fill_normal(m.view(), rng, 0, 2);
  Matrix orig = m;
  // The fused epilogue's row form, as the GEMM write-back runs it.
  const Matrix zero_bias(1, m.cols());
  for (tensor::Index r = 0; r < m.rows(); ++r) {
    tensor::detail::epilogue_row(bias_act_epilogue(act), m.row(r),
                                 zero_bias.data(), m.cols());
  }
  for (tensor::Index i = 0; i < m.size(); ++i) {
    EXPECT_NEAR(m.data()[i], apply(act, orig.data()[i]), 1e-12);
  }
  Matrix delta(5, 7);
  delta.fill(1.0);
  activation_backward(act, m.view(), delta.view());
  for (tensor::Index i = 0; i < m.size(); ++i) {
    EXPECT_NEAR(delta.data()[i],
                activation_derivative_from_output(act, m.data()[i]), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationForwardBackward,
                         ::testing::Values(Activation::kIdentity,
                                           Activation::kSigmoid,
                                           Activation::kTanh,
                                           Activation::kRelu));

TEST(Activation, BackwardShapeMismatchDies) {
  Matrix a(2, 2), d(2, 3);
  EXPECT_DEATH(activation_backward(Activation::kSigmoid, a.view(), d.view()),
               "shape mismatch");
}

}  // namespace
}  // namespace hetsgd::nn

#include "nn/activation.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "tensor/ops.hpp"

namespace hetsgd::nn {
namespace {

using tensor::Index;
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

// The fused epilogue adds each column's bias before it activates.
TEST(Activation, EpilogueAddsBiasBeforeActivating) {
  for (Activation act : {Activation::kIdentity, Activation::kSigmoid,
                         Activation::kTanh, Activation::kRelu}) {
    Scalar row[4] = {-1.0, -0.25, 0.5, 2.0};
    const Scalar bias[4] = {0.5, 0.25, -1.0, 3.0};
    const Scalar sum[4] = {-0.5, 0.0, -0.5, 5.0};
    tensor::detail::epilogue_row(bias_act_epilogue(act), row, bias, 4);
    for (int j = 0; j < 4; ++j) {
      EXPECT_NEAR(row[j], apply(act, sum[j]), 1e-12)
          << "activation " << static_cast<int>(act) << " column " << j;
    }
  }
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
        << "activation " << static_cast<int>(act) << " at x=" << x;
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

// --- tanh: the fused epilogue's vectorized kernel (tensor/microkernel.hpp) -

// The scalar form, as the forward pass applies it.
Scalar tanh_fwd(Scalar x) { return apply(Activation::kTanh, x); }

bool same_bits(Scalar a, Scalar b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// |got - want| in units in the last place of a double of want's size.
long double ulps(Scalar got, long double want) {
  int exp = 0;
  std::frexp(std::fabs(want), &exp);  // |want| in [2^(exp-1), 2^exp)
  const long double ulp = std::ldexp(1.0L, std::max(exp - 53, -1074));
  return std::fabs(static_cast<long double>(got) - want) / ulp;
}

// Largest error against tanhl seen so far, of the kernel and of glibc's
// std::tanh on the same inputs.
struct TanhErrors {
  long double kernel = 0;
  long double libm = 0;
  Scalar worst_input = 0;
  Scalar max_magnitude = 0;

  void add(Scalar x) {
    const long double want = std::tanh(static_cast<long double>(x));
    const Scalar got = tanh_fwd(x);
    max_magnitude = std::max(max_magnitude, std::fabs(got));
    const long double err = ulps(got, want);
    if (err > kernel) {
      kernel = err;
      worst_input = x;
    }
    libm = std::max(libm, ulps(std::tanh(x), want));
  }
};

// 10^7 random inputs (uniform over both forms and saturation, uniform
// around the switch between the forms at 0.625, and log-uniform
// magnitudes from 1e-10) plus a log sweep from 1e-320 to 25 of either
// sign: the kernel's largest error against tanhl is no larger than
// std::tanh's on the same inputs.
TEST(TanhKernel, NoLessAccurateThanLibm) {
  TanhErrors errors;
  Rng rng(23);
  const double log_lo = std::log(1e-10);
  const double log_hi = std::log(25.0);
  for (int i = 0; i < 10'000'000; ++i) {
    switch (i % 3) {
      case 0:
        errors.add(rng.uniform(-25.0, 25.0));
        break;
      case 1:
        errors.add(rng.uniform(-1.5, 1.5));
        break;
      default: {
        const Scalar mag = std::exp(rng.uniform(log_lo, log_hi));
        errors.add(rng.bernoulli(0.5) ? mag : -mag);
      }
    }
  }
  const double sweep_lo = std::log(1e-320);
  const int kSweep = 2'000'000;
  for (int i = 0; i <= kSweep; ++i) {
    const Scalar x = std::exp(sweep_lo + (log_hi - sweep_lo) * i / kSweep);
    errors.add(x);
    errors.add(-x);
  }
  EXPECT_LE(errors.max_magnitude, 1.0);
  EXPECT_LE(errors.kernel, errors.libm)
      << "kernel " << static_cast<double>(errors.kernel) << " ulp at x = "
      << errors.worst_input << ", std::tanh "
      << static_cast<double>(errors.libm) << " ulp";
  RecordProperty("kernel_max_ulp", std::to_string(errors.kernel));
  RecordProperty("libm_max_ulp", std::to_string(errors.libm));
}

// +-0 keep their sign, +-inf give +-1, and NaN stays NaN: a tanh that
// turned NaN into 1 would hide a diverged model from the divergence guard.
TEST(TanhKernel, SpecialValues) {
  const Scalar inf = std::numeric_limits<Scalar>::infinity();
  const Scalar nan = std::numeric_limits<Scalar>::quiet_NaN();
  EXPECT_TRUE(same_bits(tanh_fwd(0.0), 0.0));
  EXPECT_TRUE(same_bits(tanh_fwd(-0.0), -0.0));
  EXPECT_EQ(tanh_fwd(inf), 1.0);
  EXPECT_EQ(tanh_fwd(-inf), -1.0);
  EXPECT_TRUE(std::isnan(tanh_fwd(nan)));
  EXPECT_TRUE(std::isnan(tanh_fwd(-nan)));
}

// Below about 2^-27, tanh(x) rounds to x; subnormals must come back
// unchanged, not flushed to zero.
TEST(TanhKernel, TinyInputsReturnTheirArgument) {
  const Scalar denorm_min = std::numeric_limits<Scalar>::denorm_min();
  const Scalar norm_min = std::numeric_limits<Scalar>::min();
  for (Scalar x : {denorm_min, 3 * denorm_min, 1e-320, 1e-310,
                   norm_min / 2, std::nextafter(norm_min, 0.0), norm_min,
                   1e-300, 1e-150, 1e-20, 1e-9}) {
    EXPECT_TRUE(same_bits(tanh_fwd(x), x)) << x;
    EXPECT_TRUE(same_bits(tanh_fwd(-x), -x)) << -x;
  }
}

// Where tanh rounds to 1 the kernel gives exactly +-1, never a value past
// it, up to the largest double.
TEST(TanhKernel, SaturatesToExactlyOne) {
  for (Scalar x : {19.5, 20.0, 21.9, 22.0, 25.0, 44.0, 1e3, 1e10, 1e300,
                   std::numeric_limits<Scalar>::max()}) {
    EXPECT_EQ(tanh_fwd(x), 1.0) << x;
    EXPECT_EQ(tanh_fwd(-x), -1.0) << -x;
  }
}

// The row pass (two lanes at a time, the odd last element through the
// scalar form) equals the scalar form bit for bit: at every row length
// from 1 to 17, at odd start offsets, on special values as well.
TEST(TanhKernel, RowPassMatchesScalarFormBitForBit) {
  const Scalar specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<Scalar>::infinity(),
                             -std::numeric_limits<Scalar>::infinity(),
                             std::numeric_limits<Scalar>::quiet_NaN(),
                             std::numeric_limits<Scalar>::denorm_min(),
                             0.625,
                             -30.0};
  Rng rng(29);
  for (Index offset : {0, 1, 3}) {
    for (Index n = 1; n <= 17; ++n) {
      for (int round = 0; round < 50; ++round) {
        std::vector<Scalar> c(static_cast<std::size_t>(offset + n));
        std::vector<Scalar> bias(c.size());
        for (std::size_t j = 0; j < c.size(); ++j) {
          c[j] = rng.bernoulli(0.2) ? specials[rng.next_below(8)]
                                    : rng.normal(0.0, 3.0);
          bias[j] = rng.bernoulli(0.2) ? -0.0 : rng.normal(0.0, 0.5);
        }
        std::vector<Scalar> want(c.size());
        for (std::size_t j = 0; j < c.size(); ++j) {
          want[j] = tanh_fwd(c[j] + bias[j]);
        }
        tensor::detail::epilogue_row(tensor::Epilogue::kBiasTanh,
                                     c.data() + offset, bias.data() + offset,
                                     n);
        for (Index j = 0; j < n; ++j) {
          const auto at = static_cast<std::size_t>(offset + j);
          ASSERT_TRUE(same_bits(c[at], want[at]))
              << "n=" << n << " offset=" << offset << " j=" << j << ": "
              << c[at] << " vs " << want[at];
        }
      }
    }
  }
}

TEST(Activation, BackwardShapeMismatchDies) {
  Matrix a(2, 2), d(2, 3);
  EXPECT_DEATH(activation_backward(Activation::kSigmoid, a.view(), d.view()),
               "shape mismatch");
}

}  // namespace
}  // namespace hetsgd::nn

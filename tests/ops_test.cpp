#include "tensor/ops.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace hetsgd::tensor {
namespace {

TEST(Ops, Axpy) {
  Matrix x{{1, 2}, {3, 4}};
  Matrix y{{10, 20}, {30, 40}};
  axpy(2, x.view(), y.view());
  EXPECT_EQ(y(0, 0), 12);
  EXPECT_EQ(y(1, 1), 48);
}

TEST(Ops, AxpyShapeMismatchDies) {
  Matrix x(2, 2), y(2, 3);
  EXPECT_DEATH(axpy(1, x.view(), y.view()), "shape mismatch");
}

TEST(Ops, ColSums) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  Matrix out(1, 2);
  col_sums(m.view(), out.view());
  EXPECT_EQ(out(0, 0), 9);
  EXPECT_EQ(out(0, 1), 12);
}

TEST(Ops, MaxAbsDiff) {
  Matrix a{{1, 2}}, b{{1.5, 1}};
  EXPECT_DOUBLE_EQ(max_abs_diff(a.view(), b.view()), 1.0);
}

TEST(Ops, FillNormalStatistics) {
  Rng rng(3);
  Matrix m(100, 100);
  fill_normal(m.view(), rng, 2.0, 3.0);
  double mean = 0;
  for (Index i = 0; i < m.size(); ++i) mean += m.data()[i];
  mean /= m.size();
  EXPECT_NEAR(mean, 2.0, 0.1);
  double var = 0;
  for (Index i = 0; i < m.size(); ++i) {
    var += (m.data()[i] - mean) * (m.data()[i] - mean);
  }
  var /= m.size();
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(Ops, FillUniformRange) {
  Rng rng(5);
  Matrix m(50, 50);
  fill_uniform(m.view(), rng, -1.0, 1.0);
  for (Index i = 0; i < m.size(); ++i) {
    EXPECT_GE(m.data()[i], -1.0);
    EXPECT_LT(m.data()[i], 1.0);
  }
}

TEST(Ops, AllFinite) {
  Matrix m{{1, 2}};
  EXPECT_TRUE(all_finite(m.view()));
  m(0, 0) = std::numeric_limits<Scalar>::infinity();
  EXPECT_FALSE(all_finite(m.view()));
  m(0, 0) = std::nan("");
  EXPECT_FALSE(all_finite(m.view()));
}

}  // namespace
}  // namespace hetsgd::tensor

#include "nn/model.hpp"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>


namespace hetsgd::nn {
namespace {

MlpConfig small_config() {
  MlpConfig c;
  c.input_dim = 10;
  c.num_classes = 3;
  c.hidden_layers = 2;
  c.hidden_units = 8;
  return c;
}

// Largest |entry| of m.
double max_abs_param(const tensor::Matrix& m) {
  double best = 0;
  for (tensor::Index i = 0; i < m.size(); ++i) {
    best = std::max(best, std::abs(m.data()[i]));
  }
  return best;
}

// Largest |parameter| of the model.
double max_abs_param(const Model& m) {
  double best = 0;
  for (std::size_t l = 0; l < m.layer_count(); ++l) {
    best = std::max({best, max_abs_param(m.layer(l).weights),
                     max_abs_param(m.layer(l).bias)});
  }
  return best;
}

TEST(MlpConfig, LayerShapes) {
  MlpConfig c = small_config();
  auto shapes = c.layer_shapes();
  ASSERT_EQ(shapes.size(), 3u);
  EXPECT_EQ(shapes[0].in, 10);
  EXPECT_EQ(shapes[0].out, 8);
  EXPECT_EQ(shapes[1].in, 8);
  EXPECT_EQ(shapes[1].out, 8);
  EXPECT_EQ(shapes[2].in, 8);
  EXPECT_EQ(shapes[2].out, 3);
}

TEST(MlpConfig, NoHiddenLayers) {
  MlpConfig c = small_config();
  c.hidden_layers = 0;
  auto shapes = c.layer_shapes();
  ASSERT_EQ(shapes.size(), 1u);
  EXPECT_EQ(shapes[0].in, 10);
  EXPECT_EQ(shapes[0].out, 3);
}

TEST(MlpConfig, ParameterCount) {
  MlpConfig c = small_config();
  // 10*8+8 + 8*8+8 + 8*3+3 = 88 + 72 + 27 = 187
  EXPECT_EQ(c.parameter_count(), 187u);
}

TEST(MlpConfig, ValidateRejectsBadConfigs) {
  MlpConfig c = small_config();
  c.input_dim = 0;
  EXPECT_DEATH(c.validate(), "input_dim");
  c = small_config();
  c.num_classes = 1;
  EXPECT_DEATH(c.validate(), "two classes");
}

TEST(Model, ConstructionMatchesConfig) {
  MlpConfig c = small_config();
  Rng rng(1);
  Model m(c, rng);
  EXPECT_EQ(m.layer_count(), 3u);
  EXPECT_EQ(m.parameter_count(), 187u);
  EXPECT_EQ(m.layer(0).weights.rows(), 8);
  EXPECT_EQ(m.layer(0).weights.cols(), 10);
  EXPECT_EQ(m.layer(0).bias.cols(), 8);
}

TEST(Model, ScaledNormalInitStatistics) {
  MlpConfig c;
  c.input_dim = 400;
  c.num_classes = 2;
  c.hidden_layers = 1;
  c.hidden_units = 100;
  c.init = InitScheme::kScaledNormal;
  Rng rng(5);
  Model m(c, rng);
  // stddev should be 1/sqrt(400) = 0.05 for the first layer.
  const auto& w = m.layer(0).weights;
  double sq = 0;
  for (tensor::Index i = 0; i < w.size(); ++i) sq += w.data()[i] * w.data()[i];
  EXPECT_NEAR(std::sqrt(sq / w.size()), 0.05, 0.005);
  // Biases start at zero.
  EXPECT_EQ(max_abs_param(m.layer(0).bias), 0.0);
}

TEST(Model, GlorotInitWithinLimits) {
  MlpConfig c = small_config();
  c.init = InitScheme::kGlorotUniform;
  Rng rng(7);
  Model m(c, rng);
  const double limit = std::sqrt(6.0 / (10 + 8));
  const auto& w = m.layer(0).weights;
  for (tensor::Index i = 0; i < w.size(); ++i) {
    EXPECT_LE(std::abs(w.data()[i]), limit);
  }
}

TEST(Model, DeterministicInit) {
  MlpConfig c = small_config();
  Rng r1(9), r2(9);
  Model a(c, r1), b(c, r2);
  EXPECT_EQ(a.max_abs_diff(b), 0.0);
}

TEST(Model, CopyIsDeep) {
  MlpConfig c = small_config();
  Rng rng(11);
  Model a(c, rng);
  Model b = a;
  b.layer(0).weights(0, 0) += 1.0;
  EXPECT_GT(a.max_abs_diff(b), 0.5);
}

TEST(Model, AxpyAppliesUpdate) {
  MlpConfig c = small_config();
  Rng rng(13);
  Model m(c, rng);
  Model g = m;  // gradient with m's values
  Model before = m;
  m.axpy(-0.5, g);
  // m = m - 0.5*m = 0.5*before
  EXPECT_NEAR(max_abs_param(m), 0.5 * max_abs_param(before), 1e-12);
}

TEST(Model, SetZeroAndNorm) {
  MlpConfig c = small_config();
  Rng rng(15);
  Model m(c, rng);
  EXPECT_GT(max_abs_param(m), 0.0);
  m.set_zero();
  EXPECT_EQ(max_abs_param(m), 0.0);
}

TEST(Model, MakeZeroGradient) {
  MlpConfig c = small_config();
  Rng rng(17);
  Model m(c, rng);
  Gradient g = make_zero_gradient(m);
  EXPECT_TRUE(g.same_shape(m));
  EXPECT_EQ(max_abs_param(g), 0.0);
}

TEST(Model, AllFinite) {
  MlpConfig c = small_config();
  Rng rng(19);
  Model m(c, rng);
  EXPECT_TRUE(m.all_finite());
  m.layer(1).weights(0, 0) = std::nan("");
  EXPECT_FALSE(m.all_finite());
}

TEST(Model, SameShapeDetectsMismatch) {
  MlpConfig c = small_config();
  Rng rng(21);
  Model a(c, rng);
  c.hidden_units = 9;
  Model b(c, rng);
  EXPECT_FALSE(a.same_shape(b));
}

TEST(Model, ReinitializeChangesWeights) {
  MlpConfig c = small_config();
  Rng rng(23);
  Model m(c, rng);
  Model before = m;
  m.initialize(rng);
  EXPECT_GT(m.max_abs_diff(before), 0.0);
}

}  // namespace
}  // namespace hetsgd::nn

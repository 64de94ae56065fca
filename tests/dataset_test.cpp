#include "data/dataset.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

namespace hetsgd::data {
namespace {

using tensor::Index;
using tensor::Matrix;

Dataset make_tiny() {
  Matrix features{{1, 10}, {2, 20}, {3, 30}, {4, 40}};
  return Dataset("tiny", std::move(features), {0, 1, 0, 1}, 2);
}

TEST(Dataset, BasicAccessors) {
  Dataset d = make_tiny();
  EXPECT_EQ(d.name(), "tiny");
  EXPECT_EQ(d.example_count(), 4);
  EXPECT_EQ(d.dim(), 2);
  EXPECT_EQ(d.num_classes(), 2);
  EXPECT_EQ(d.feature_bytes(), 8u * sizeof(tensor::Scalar));
}

TEST(Dataset, BatchViewsReferenceRows) {
  Dataset d = make_tiny();
  auto batch = d.batch_features(1, 2);
  EXPECT_EQ(batch.rows(), 2);
  EXPECT_EQ(batch(0, 0), 2);
  EXPECT_EQ(batch(1, 1), 30);
  auto labels = d.batch_labels(1, 2);
  EXPECT_EQ(labels[0], 1);
  EXPECT_EQ(labels[1], 0);
  // Views alias the dataset storage (reference semantics of §V-A).
  EXPECT_EQ(batch.data(), d.features().row(1));
}

TEST(Dataset, BatchOutOfRangeDies) {
  Dataset d = make_tiny();
  EXPECT_DEATH(d.batch_labels(3, 2), "out of range");
  EXPECT_DEATH(d.batch_features(3, 2), "out of range");
}

TEST(Dataset, LabelOutOfRangeDies) {
  Matrix f{{1}};
  EXPECT_DEATH(Dataset("bad", std::move(f), {5}, 2), "label out of range");
}

TEST(Dataset, LabelCountMismatchDies) {
  Matrix f{{1}, {2}};
  EXPECT_DEATH(Dataset("bad", std::move(f), {0}, 2), "label count");
}

TEST(Dataset, GatherCopiesRowsInOrder) {
  const Dataset d = make_tiny();
  const std::vector<std::size_t> rows = {3, 0, 3};
  const Dataset g = gather(d, rows, "picked");
  EXPECT_EQ(g.name(), "picked");
  EXPECT_EQ(g.num_classes(), 2);
  ASSERT_EQ(g.example_count(), 3);
  EXPECT_EQ(g.features()(0, 0), 4);
  EXPECT_EQ(g.features()(0, 1), 40);
  EXPECT_EQ(g.features()(1, 1), 10);
  EXPECT_EQ(g.features()(2, 0), 4);
  EXPECT_EQ(std::vector<std::int32_t>(g.labels().begin(), g.labels().end()),
            (std::vector<std::int32_t>{1, 0, 1}));
  // The copy is independent of its source.
  EXPECT_NE(g.features().data(), d.features().data());
  EXPECT_EQ(gather(d, {}, "none").example_count(), 0);
}

TEST(Dataset, ShufflePreservesExampleLabelPairs) {
  // Feature value encodes the label (row i has feature 100*label + i), so
  // pairing survives any permutation check.
  const Index n = 200;
  Matrix f(n, 1);
  std::vector<std::int32_t> labels(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    labels[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(i % 3);
    f(i, 0) = static_cast<tensor::Scalar>(1000 * (i % 3) + i);
  }
  Dataset d("pairs", std::move(f), std::move(labels), 3);
  Rng rng(7);
  d.shuffle(rng);
  std::vector<double> seen;
  for (Index i = 0; i < n; ++i) {
    const double v = d.features()(i, 0);
    const auto label = d.labels()[static_cast<std::size_t>(i)];
    EXPECT_EQ(static_cast<int>(v) / 1000, label) << "pairing broken at " << i;
    seen.push_back(v);
  }
  // Multiset of rows unchanged: residues mod 1000 recover the original row
  // indices exactly once each.
  std::vector<int> residues;
  for (double v : seen) residues.push_back(static_cast<int>(v) % 1000);
  std::sort(residues.begin(), residues.end());
  for (Index i = 0; i < n; ++i) {
    EXPECT_EQ(residues[static_cast<std::size_t>(i)], static_cast<int>(i));
  }
}

TEST(Dataset, ShuffleActuallyPermutes) {
  const Index n = 100;
  Matrix f(n, 1);
  for (Index i = 0; i < n; ++i) f(i, 0) = static_cast<tensor::Scalar>(i);
  Dataset d("perm", std::move(f), std::vector<std::int32_t>(n, 0), 2);
  Rng rng(9);
  d.shuffle(rng);
  int moved = 0;
  for (Index i = 0; i < n; ++i) {
    if (d.features()(i, 0) != static_cast<tensor::Scalar>(i)) ++moved;
  }
  EXPECT_GT(moved, 50);
}

TEST(Dataset, MinMaxScaling) {
  Matrix f{{0, 5, 7}, {10, 5, 14}, {5, 5, 0}};
  Dataset d("scale", std::move(f), {0, 1, 0}, 2);
  d.scale_features_minmax();
  EXPECT_DOUBLE_EQ(d.features()(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(d.features()(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(d.features()(2, 0), 0.5);
  // Constant feature maps to 0.
  EXPECT_DOUBLE_EQ(d.features()(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(d.features()(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(d.features()(0, 2), 0.5);
}

TEST(Dataset, ClassHistogram) {
  Dataset d = make_tiny();
  auto hist = d.class_histogram();
  ASSERT_EQ(hist.size(), 2u);
  EXPECT_EQ(hist[0], 2u);
  EXPECT_EQ(hist[1], 2u);
}

}  // namespace
}  // namespace hetsgd::data

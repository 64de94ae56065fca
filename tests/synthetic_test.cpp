#include "data/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/ops.hpp"

namespace hetsgd::data {
namespace {

using tensor::Index;

TEST(Synthetic, MatchesSpecShape) {
  SyntheticSpec spec;
  spec.examples = 500;
  spec.dim = 20;
  spec.classes = 5;
  Dataset d = make_synthetic(spec);
  EXPECT_EQ(d.example_count(), 500);
  EXPECT_EQ(d.dim(), 20);
  EXPECT_EQ(d.num_classes(), 5);
}

TEST(Synthetic, DeterministicForSeed) {
  SyntheticSpec spec;
  spec.examples = 100;
  spec.dim = 8;
  spec.seed = 77;
  Dataset a = make_synthetic(spec);
  Dataset b = make_synthetic(spec);
  EXPECT_EQ(tensor::max_abs_diff(tensor::to_dense(a.features()).view(),
                                 tensor::to_dense(b.features()).view()),
            0.0);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.labels()[i], b.labels()[i]);
  }
}

TEST(Synthetic, DifferentSeedsDiffer) {
  SyntheticSpec spec;
  spec.examples = 100;
  spec.dim = 8;
  spec.seed = 1;
  Dataset a = make_synthetic(spec);
  spec.seed = 2;
  Dataset b = make_synthetic(spec);
  EXPECT_GT(tensor::max_abs_diff(tensor::to_dense(a.features()).view(),
                                 tensor::to_dense(b.features()).view()),
            0.1);
}

TEST(Synthetic, AllClassesRepresented) {
  SyntheticSpec spec;
  spec.examples = 2000;
  spec.dim = 10;
  spec.classes = 7;
  Dataset d = make_synthetic(spec);
  auto hist = d.class_histogram();
  for (auto count : hist) {
    EXPECT_GT(count, 100u);  // roughly balanced
  }
}

TEST(Synthetic, DensityControlsSparsity) {
  SyntheticSpec spec;
  spec.examples = 300;
  spec.dim = 100;
  spec.density = 0.1;
  spec.seed = 5;
  Dataset d = make_synthetic(spec);
  Index nonzero = 0;
  for (Index r = 0; r < d.example_count(); ++r) {
    for (Index c = 0; c < d.dim(); ++c) {
      if (d.features().at(r, c) != 0.0) ++nonzero;
    }
  }
  const double density = static_cast<double>(nonzero) /
                         static_cast<double>(d.example_count() * d.dim());
  EXPECT_NEAR(density, 0.1, 0.02);
}

TEST(Synthetic, SignalIsLearnable) {
  // A linear probe sanity check is overkill; instead verify class
  // centroids separate: examples of the same class are closer to their own
  // centroid mean than to another class's.
  SyntheticSpec spec;
  spec.examples = 1000;
  spec.dim = 16;
  spec.classes = 2;
  spec.feature_noise = 0.3;
  spec.label_noise = 0.0;
  Dataset d = make_synthetic(spec);
  tensor::Matrix means(2, 16);
  std::vector<Index> counts(2, 0);
  for (Index r = 0; r < d.example_count(); ++r) {
    const auto y = d.labels()[static_cast<std::size_t>(r)];
    ++counts[static_cast<std::size_t>(y)];
    for (Index c = 0; c < 16; ++c) {
      means(y, c) += d.features().at(r, c);
    }
  }
  for (Index k = 0; k < 2; ++k) {
    for (Index c = 0; c < 16; ++c) {
      means(k, c) /= static_cast<tensor::Scalar>(counts[static_cast<std::size_t>(k)]);
    }
  }
  double dist_sq = 0;
  for (Index c = 0; c < 16; ++c) {
    dist_sq += (means(0, c) - means(1, c)) * (means(0, c) - means(1, c));
  }
  EXPECT_GT(std::sqrt(dist_sq), 1.0);
}

TEST(Synthetic, MultiClusterClassesStillBalanced) {
  SyntheticSpec spec;
  spec.examples = 2000;
  spec.dim = 24;
  spec.classes = 2;
  spec.clusters_per_class = 8;
  Dataset d = make_synthetic(spec);
  auto hist = d.class_histogram();
  EXPECT_GT(hist[0], 800u);
  EXPECT_GT(hist[1], 800u);
}

TEST(Synthetic, MultiClusterSpreadsClassExamples) {
  // With many clusters per class, same-class examples are far more spread
  // out than with one cluster: compare mean intra-class distance.
  auto intra_class_spread = [](tensor::Index clusters) {
    SyntheticSpec spec;
    spec.examples = 400;
    spec.dim = 16;
    spec.classes = 2;
    spec.feature_noise = 0.1;
    spec.clusters_per_class = clusters;
    spec.seed = 3;
    Dataset d = make_synthetic(spec);
    double total = 0;
    int pairs = 0;
    for (tensor::Index i = 0; i + 1 < d.example_count(); i += 2) {
      if (d.labels()[static_cast<std::size_t>(i)] !=
          d.labels()[static_cast<std::size_t>(i + 1)]) {
        continue;
      }
      double dist = 0;
      for (tensor::Index c = 0; c < 16; ++c) {
        const double diff = d.features().at(i, c) - d.features().at(i + 1, c);
        dist += diff * diff;
      }
      total += dist;
      ++pairs;
    }
    return total / pairs;
  };
  EXPECT_GT(intra_class_spread(16), 2.0 * intra_class_spread(1));
}

TEST(Synthetic, DistinctFractionCreatesDuplicateRows) {
  SyntheticSpec spec;
  spec.examples = 1000;
  spec.dim = 6;
  spec.classes = 2;
  spec.distinct_fraction = 0.05;  // ~50 distinct base rows
  spec.seed = 13;
  Dataset d = make_synthetic(spec);
  std::set<std::vector<double>> unique_rows;
  for (tensor::Index r = 0; r < d.example_count(); ++r) {
    std::vector<double> row;
    for (tensor::Index c = 0; c < 6; ++c) row.push_back(d.features().at(r, c));
    unique_rows.insert(row);
  }
  EXPECT_LE(unique_rows.size(), 50u);
  EXPECT_GE(unique_rows.size(), 20u);  // most of the pool gets sampled
}

TEST(Synthetic, FullDistinctFractionKeepsRowsUnique) {
  SyntheticSpec spec;
  spec.examples = 300;
  spec.dim = 8;
  spec.classes = 2;
  spec.distinct_fraction = 1.0;
  spec.seed = 17;
  Dataset d = make_synthetic(spec);
  std::set<std::vector<double>> unique_rows;
  for (tensor::Index r = 0; r < d.example_count(); ++r) {
    std::vector<double> row;
    for (tensor::Index c = 0; c < 8; ++c) row.push_back(d.features().at(r, c));
    unique_rows.insert(row);
  }
  EXPECT_EQ(unique_rows.size(), 300u);
}

TEST(Synthetic, FeatureScaleSigmaCreatesHeavyTails) {
  SyntheticSpec spec;
  spec.examples = 500;
  spec.dim = 200;
  spec.classes = 2;
  spec.feature_scale_sigma = 2.0;
  spec.seed = 9;
  Dataset d = make_synthetic(spec);
  // Per-feature RMS should span orders of magnitude.
  double min_rms = 1e300, max_rms = 0;
  for (tensor::Index c = 0; c < d.dim(); ++c) {
    double sq = 0;
    for (tensor::Index r = 0; r < d.example_count(); ++r) {
      sq += d.features().at(r, c) * d.features().at(r, c);
    }
    const double rms = std::sqrt(sq / d.example_count());
    min_rms = std::min(min_rms, rms);
    max_rms = std::max(max_rms, rms);
  }
  EXPECT_GT(max_rms / min_rms, 100.0);
}

TEST(PaperDatasets, TableTwoMetadata) {
  auto all = all_paper_datasets();
  ASSERT_EQ(all.size(), 4u);
  const auto& covtype = paper_dataset_info(PaperDataset::kCovtype);
  EXPECT_EQ(covtype.examples, 581012);
  EXPECT_EQ(covtype.dim, 54);
  EXPECT_EQ(covtype.hidden_layers, 6);
  const auto& realsim = paper_dataset_info(PaperDataset::kRealSim);
  EXPECT_EQ(realsim.dim, 20958);
  EXPECT_EQ(realsim.hidden_layers, 4);
  const auto& delicious = paper_dataset_info(PaperDataset::kDelicious);
  EXPECT_EQ(delicious.classes, 983);
  EXPECT_EQ(delicious.hidden_layers, 8);
  const auto& w8a = paper_dataset_info(PaperDataset::kW8a);
  EXPECT_EQ(w8a.examples, 49749);
  EXPECT_EQ(w8a.hidden_layers, 8);
}

TEST(PaperDatasets, ScaleShrinksExamples) {
  Dataset small = make_paper_dataset(PaperDataset::kCovtype, 0.002, 1);
  EXPECT_NEAR(static_cast<double>(small.example_count()), 581012 * 0.002,
              10.0);
  EXPECT_EQ(small.dim(), 54);  // dense set keeps its dimension
  EXPECT_EQ(small.num_classes(), 2);
}

TEST(PaperDatasets, RealSimKeepsHighDimRatio) {
  Dataset rs = make_paper_dataset(PaperDataset::kRealSim, 0.01, 1);
  Dataset cov = make_paper_dataset(PaperDataset::kCovtype, 0.01, 1);
  // real-sim must stay the (much) highest-dimensional dataset.
  EXPECT_GT(rs.dim(), 20 * cov.dim());
}

TEST(PaperDatasets, DeliciousShrinksClassesAtTinyScale) {
  Dataset tiny = make_paper_dataset(PaperDataset::kDelicious, 0.02, 1);
  EXPECT_GE(tiny.num_classes(), 16);
  EXPECT_LE(tiny.num_classes(), 983);
  // Full scale keeps all 983 tags.
  // (Not generated here — too large for a unit test — verified via info.)
}

TEST(PaperDatasets, MinimumExamplesFloor) {
  Dataset d = make_paper_dataset(PaperDataset::kDelicious, 0.0001, 1);
  EXPECT_GE(d.example_count(), 128);
}

}  // namespace
}  // namespace hetsgd::data

// Synthetic dataset generators matching the paper's Table II workloads.
//
// The real covtype/w8a/delicious/real-sim files are not distributable with
// this repository, so each generator produces a deterministic dataset with
// the same shape characteristics the evaluation depends on:
//   - N (examples), d (features), K (classes)  — Table II;
//   - a planted class structure (noisy class centroids over a sparse
//     support) so SGD actually has signal to descend, with enough label
//     noise that convergence takes multiple epochs;
//   - sparsity/feature-scale patterns reminiscent of the originals
//     (bag-of-words-style high-dimensional sparse rows for real-sim and
//     delicious, dense low-dimensional rows for covtype).
// The `scale` parameter shrinks N (and d for the high-dimensional sets)
// proportionally so the full benchmark suite runs on laptop-class hosts;
// scale = 1 reproduces the paper-size shapes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.hpp"

namespace hetsgd::data {

// Free-form generator: K noisy centroids over a support of `support`
// nonzero dimensions each, labels flipped with probability `label_noise`.
struct SyntheticSpec {
  std::string name = "synthetic";
  tensor::Index examples = 1000;
  tensor::Index dim = 32;
  std::int32_t classes = 2;
  tensor::Index support = 0;     // nonzero centroid dims; 0 = all of them
  double feature_noise = 0.5;    // stddev of per-example Gaussian noise
  double label_noise = 0.05;     // probability a label is resampled
  double density = 1.0;          // fraction of nonzero features per example
  // Fraction of examples that are *distinct*: the generator first builds a
  // pool of distinct_fraction * examples base rows and then samples
  // examples from it (with fresh label noise per occurrence). Real tabular
  // datasets are highly redundant — covtype's 581k rows over 54 features
  // contain massive near-duplication — and that redundancy is what makes
  // many-updates-on-a-fraction-of-an-epoch (Hogwild) competitive with
  // full-epoch coverage. 1.0 = all rows distinct (i.i.d. draws).
  double distinct_fraction = 1.0;
  // Lognormal sigma of per-feature scale factors (0 = uniform scales).
  // Text-like data has power-law term frequencies; the resulting
  // ill-conditioned input covariance is what makes few-large-batch
  // optimizers crawl while many-small-update Hogwild keeps descending.
  double feature_scale_sigma = 0.0;
  // Centroids per class. 1 gives a unimodal (low-rank) class structure
  // that a handful of large-batch updates can fit; larger values plant a
  // multi-modal, high-rank decision boundary that needs many distinct
  // descent directions — the regime where Hogwild's update count beats
  // mini-batch's gradient accuracy (real-sim, Fig. 5d).
  tensor::Index clusters_per_class = 1;
  std::uint64_t seed = 42;
};

Dataset make_synthetic(const SyntheticSpec& spec);

// The paper's four evaluation datasets (Table II).
enum class PaperDataset { kCovtype, kW8a, kDelicious, kRealSim };

// Table II metadata plus the per-dataset DNN depth used in §VII-A
// ("the number of hidden layers is set inversely proportional to the
// dataset size, to 4 (real-sim), 6 (covtype), and 8 (w8a and delicious)").
struct PaperDatasetInfo {
  PaperDataset id;
  const char* name;
  tensor::Index examples;
  tensor::Index dim;
  std::int32_t classes;
  int hidden_layers;
};

PaperDatasetInfo paper_dataset_info(PaperDataset d);
std::vector<PaperDatasetInfo> all_paper_datasets();

// Builds the synthetic stand-in. `scale` in (0, 1] shrinks N (and d for
// the sparse high-dimensional datasets). seed fixes the generator.
Dataset make_paper_dataset(PaperDataset d, double scale, std::uint64_t seed);

}  // namespace hetsgd::data

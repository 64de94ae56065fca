#include "data/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/macros.hpp"
#include "tensor/ops.hpp"

namespace hetsgd::data {

using tensor::Index;
using tensor::Scalar;

Dataset make_synthetic(const SyntheticSpec& spec) {
  HETSGD_ASSERT(spec.examples > 0 && spec.dim > 0, "empty synthetic spec");
  HETSGD_ASSERT(spec.classes >= 2, "need at least two classes");
  HETSGD_ASSERT(spec.density > 0.0 && spec.density <= 1.0, "bad density");
  Rng rng(spec.seed);

  const Index support =
      spec.support > 0 ? std::min(spec.support, spec.dim) : spec.dim;
  const Index clusters = std::max<Index>(1, spec.clusters_per_class);

  // Per-(class, cluster) centroids: `support` randomly-chosen dimensions
  // carry signal; the rest stay zero.
  tensor::Matrix centroids(spec.classes * clusters, spec.dim);
  for (Index kc = 0; kc < spec.classes * clusters; ++kc) {
    Rng crng = rng.fork(static_cast<std::uint64_t>(kc) + 1);
    std::vector<std::size_t> dims(static_cast<std::size_t>(spec.dim));
    std::iota(dims.begin(), dims.end(), 0);
    crng.shuffle(dims);
    Scalar* row = centroids.row(kc);
    for (Index s = 0; s < support; ++s) {
      row[dims[static_cast<std::size_t>(s)]] =
          static_cast<Scalar>(crng.normal(0.0, 1.0));
    }
  }

  // Heavy-tailed per-feature scales (text term-frequency structure).
  std::vector<Scalar> feature_scale(static_cast<std::size_t>(spec.dim),
                                    Scalar{1});
  if (spec.feature_scale_sigma > 0.0) {
    Rng srng = rng.fork(0x5ca1e);
    for (auto& s : feature_scale) {
      s = static_cast<Scalar>(
          std::exp(srng.normal(0.0, spec.feature_scale_sigma)));
    }
  }

  HETSGD_ASSERT(spec.distinct_fraction > 0.0 && spec.distinct_fraction <= 1.0,
                "distinct_fraction out of (0, 1]");
  const bool redundant = spec.distinct_fraction < 1.0;
  const Index pool_size =
      redundant ? std::max<Index>(
                      spec.classes,
                      static_cast<Index>(static_cast<double>(spec.examples) *
                                         spec.distinct_fraction))
                : spec.examples;

  // Base rows: distinct draws from the class/cluster mixture, written as
  // CSR rows when the spec is sparse, so a sparse set is never held dense
  // (the Dataset then stores the form its storage rule picks).
  const bool sparse = spec.density < 1.0;
  tensor::Matrix pool_dense(sparse ? 0 : pool_size, spec.dim);
  tensor::CsrMatrix pool_csr(spec.dim);
  std::vector<std::int32_t> pool_class(static_cast<std::size_t>(pool_size));
  for (Index i = 0; i < pool_size; ++i) {
    const std::int32_t k = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(spec.classes)));
    const Index cluster = static_cast<Index>(
        rng.next_below(static_cast<std::uint64_t>(clusters)));
    pool_class[static_cast<std::size_t>(i)] = k;
    Scalar* row = sparse ? nullptr : pool_dense.row(i);
    const Scalar* centroid = centroids.row(k * clusters + cluster);
    for (Index c = 0; c < spec.dim; ++c) {
      if (sparse && !rng.bernoulli(spec.density)) {
        continue;  // stays zero: sparse bag-of-words-style row
      }
      const Scalar v =
          (centroid[c] +
           static_cast<Scalar>(rng.normal(0.0, spec.feature_noise))) *
          feature_scale[static_cast<std::size_t>(c)];
      if (sparse) {
        pool_csr.append(c, v);
      } else {
        row[c] = v;
      }
    }
    if (sparse) pool_csr.end_row();
  }

  // Examples: the pool itself (distinct case) or draws from it with fresh
  // label noise per occurrence (duplicate rows carrying conflicting labels
  // set an honest loss floor that cannot be memorized away).
  tensor::Matrix features_dense(sparse || !redundant ? 0 : spec.examples,
                                spec.dim);
  tensor::CsrMatrix features_csr(spec.dim);
  std::vector<std::int32_t> labels(static_cast<std::size_t>(spec.examples));
  for (Index i = 0; i < spec.examples; ++i) {
    const Index src =
        redundant ? static_cast<Index>(rng.next_below(
                        static_cast<std::uint64_t>(pool_size)))
                  : i;
    if (redundant && sparse) {
      features_csr.append_row(pool_csr.view(), src);
    } else if (redundant) {
      const Scalar* from = pool_dense.row(src);
      std::copy(from, from + spec.dim, features_dense.row(i));
    }
    std::int32_t observed = pool_class[static_cast<std::size_t>(src)];
    if (spec.label_noise > 0.0 && rng.bernoulli(spec.label_noise)) {
      observed = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(spec.classes)));
    }
    labels[static_cast<std::size_t>(i)] = observed;
  }

  if (sparse) {
    return Dataset(spec.name, redundant ? std::move(features_csr)
                                        : std::move(pool_csr),
                   std::move(labels), spec.classes);
  }
  return Dataset(spec.name, redundant ? std::move(features_dense)
                                      : std::move(pool_dense),
                 std::move(labels), spec.classes);
}

PaperDatasetInfo paper_dataset_info(PaperDataset d) {
  // N/d/K follow the LIBSVM releases the paper evaluates on (Table II);
  // covtype/w8a/real-sim are binary, delicious is 983-way.
  switch (d) {
    case PaperDataset::kCovtype:
      return {d, "covtype", 581012, 54, 2, 6};
    case PaperDataset::kW8a:
      return {d, "w8a", 49749, 300, 2, 8};
    case PaperDataset::kDelicious:
      return {d, "delicious", 16105, 500, 983, 8};
    case PaperDataset::kRealSim:
      return {d, "real-sim", 72309, 20958, 2, 4};
  }
  HETSGD_UNREACHABLE("unknown paper dataset");
}

std::vector<PaperDatasetInfo> all_paper_datasets() {
  return {paper_dataset_info(PaperDataset::kCovtype),
          paper_dataset_info(PaperDataset::kW8a),
          paper_dataset_info(PaperDataset::kDelicious),
          paper_dataset_info(PaperDataset::kRealSim)};
}

Dataset make_paper_dataset(PaperDataset d, double scale, std::uint64_t seed) {
  HETSGD_ASSERT(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
  const PaperDatasetInfo info = paper_dataset_info(d);

  SyntheticSpec spec;
  spec.name = info.name;
  spec.seed = seed;
  spec.examples = std::max<Index>(
      128, static_cast<Index>(static_cast<double>(info.examples) * scale));
  spec.classes = info.classes;

  switch (d) {
    case PaperDataset::kCovtype:
      // Dense cartographic features, low dimension.
      // Noise levels are tuned so training descends gradually over tens of
      // epochs (the paper's covtype curve: fast to ~90% of the minimum,
      // slow afterwards) instead of converging within the first epoch.
      spec.dim = info.dim;
      spec.support = info.dim;
      spec.density = 1.0;
      spec.feature_noise = 2.5;
      spec.label_noise = 0.18;
      spec.clusters_per_class = 2;
      break;
    case PaperDataset::kW8a:
      // Binary sparse features (web page attributes), ~4% density.
      spec.dim = info.dim;
      spec.support = 64;
      spec.density = 0.15;
      spec.feature_noise = 2.0;
      spec.label_noise = 0.15;
      spec.clusters_per_class = 4;
      break;
    case PaperDataset::kDelicious:
      // Bag-of-words, 983 tag classes; keep all classes but shrink class
      // count when examples would undercover them.
      spec.dim = info.dim;
      spec.support = 48;
      spec.density = 0.12;
      spec.feature_noise = 1.2;
      spec.label_noise = 0.10;
      // With very small scales, 983 classes cannot all be populated; keep
      // at least ~8 examples per class.
      if (spec.examples / 8 < spec.classes) {
        spec.classes = std::max<std::int32_t>(
            16, static_cast<std::int32_t>(spec.examples / 8));
      }
      break;
    case PaperDataset::kRealSim:
      // Very high-dimensional sparse text; d shrinks with scale so the
      // dimensionality *ratio* to the other datasets is preserved.
      spec.dim = std::max<Index>(
          512, static_cast<Index>(static_cast<double>(info.dim) *
                                  std::sqrt(scale)));
      spec.support = 96;
      spec.density = 0.01;
      spec.feature_noise = 1.5;
      spec.label_noise = 0.18;
      break;
  }
  return make_synthetic(spec);
}

}  // namespace hetsgd::data

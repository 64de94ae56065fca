// In-memory training dataset.
//
// The coordinator loads the full dataset into shared memory once (§V-B
// initialization stage) and hands workers *references* — contiguous row
// ranges — never copies. The paper processes all datasets in dense format,
// and the cost model still charges every batch that way; in host memory an
// input matrix at least kCsrMinWidth columns wide with at most
// kCsrMaxDensity of its entries nonzero is stored as CSR rows
// (tensor/csr.hpp), which the first layer reads directly. The form is
// chosen once, from the data (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "tensor/csr.hpp"
#include "tensor/matrix.hpp"

namespace hetsgd::data {

// The storage rule. Narrower inputs stay dense whatever their density:
// covtype (54 wide) and the hidden layers' widths never pay for an index.
inline constexpr tensor::Index kCsrMinWidth = 64;
// The highest fraction of nonzeros stored CSR: the low end of the lowest
// crossover in bench/micro_gemm's density sweep (BM_CsrInput*, the CSR
// kernel pair against the dense kernels on the same operands;
// bench_results/BENCH_gemm.json "sparse_crossover") over the first layers
// of real-sim (2963 inputs) and delicious (500 inputs) into 48 units, at
// m = 1 and m = 512. On a 4-vCPU AVX-512 host in the -DHETSGD_NATIVE=ON
// build that is the weight product, 0.201-0.240 over three runs; the
// forward crosses at 0.318-0.534. The default build's dense kernels are
// slower, so the CSR kernels win there past this too. real-sim (1%),
// delicious (12%) and w8a (15%) are stored CSR, covtype (54 wide) dense.
inline constexpr double kCsrMaxDensity = 0.20;

// True when a rows x cols input matrix holding `nonzeros` nonzero entries
// is stored CSR.
bool stores_csr(tensor::Index rows, tensor::Index cols,
                tensor::Index nonzeros);

class Dataset {
 public:
  Dataset() = default;
  // Dense rows, stored CSR when the storage rule says so.
  Dataset(std::string name, tensor::Matrix features,
          std::vector<std::int32_t> labels, std::int32_t num_classes);
  // CSR rows, stored dense when the storage rule says so.
  Dataset(std::string name, tensor::CsrMatrix features,
          std::vector<std::int32_t> labels, std::int32_t num_classes);

  const std::string& name() const { return name_; }
  tensor::Index example_count() const {
    return static_cast<tensor::Index>(labels_.size());
  }
  tensor::Index dim() const { return dim_; }
  std::int32_t num_classes() const { return num_classes_; }
  // True when the features are stored as CSR rows.
  bool csr() const { return csr_stored_; }

  // Every example's features, as stored.
  tensor::BatchView features() const;
  std::span<const std::int32_t> labels() const { return labels_; }

  // Batch reference: rows [begin, begin+count) plus their labels. This is
  // the "reference to a range in the training data" of §V-A.
  tensor::BatchView batch_features(tensor::Index begin,
                                   tensor::Index count) const;
  std::span<const std::int32_t> batch_labels(tensor::Index begin,
                                             tensor::Index count) const;

  // Physically permutes examples (rows and labels together). Called by the
  // coordinator at epoch boundaries; a reclaimed batch may still be
  // reading (see detail:: in dataset.cpp). Dense and CSR storage draw the
  // same random numbers and end in the same order.
  void shuffle(Rng& rng);

  // Per-feature min-max scaling to [0, 1]; constant features map to 0.
  // CSR rows stay CSR unless a feature's zeros scale to nonzero values.
  void scale_features_minmax();

  // Class histogram (size num_classes).
  std::vector<std::uint64_t> class_histogram() const;

  // Nonzero feature values.
  tensor::Index nonzero_count() const;

  // Memory footprint of the features as stored, in bytes.
  std::uint64_t feature_bytes() const;

 private:
  friend Dataset gather(const Dataset& source,
                        std::span<const std::size_t> rows, std::string name);

  Dataset(std::string name, std::vector<std::int32_t> labels,
          std::int32_t num_classes, tensor::Index dim);
  void check_labels() const;

  std::string name_;
  tensor::Index dim_ = 0;
  bool csr_stored_ = false;
  tensor::Matrix dense_;
  tensor::CsrMatrix csr_;
  std::vector<std::int32_t> labels_;
  std::int32_t num_classes_ = 0;
  // A CSR dataset's shuffle buffers: the permutation, and the permuted rows
  // and labels before they are stored back. Sized by the first shuffle and
  // kept at that capacity.
  std::vector<tensor::Index> order_;
  tensor::CsrMatrix shuffled_;
  std::vector<std::int32_t> shuffled_labels_;
};

// A dataset of `source`'s examples at `rows`, in that order, stored as the
// source stores them and named `name`: the train/test splits and the
// loss-evaluation samples are copied out this way.
Dataset gather(const Dataset& source, std::span<const std::size_t> rows,
               std::string name);

}  // namespace hetsgd::data

// In-memory training dataset.
//
// The coordinator loads the full dataset into shared memory once (§V-B
// initialization stage) and hands workers *references* — contiguous row
// ranges — never copies. Examples are stored dense (the paper processes
// all datasets in dense format).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "tensor/matrix.hpp"

namespace hetsgd::data {

class Dataset {
 public:
  Dataset() = default;
  Dataset(std::string name, tensor::Matrix features,
          std::vector<std::int32_t> labels, std::int32_t num_classes);

  const std::string& name() const { return name_; }
  tensor::Index example_count() const { return features_.rows(); }
  tensor::Index dim() const { return features_.cols(); }
  std::int32_t num_classes() const { return num_classes_; }

  const tensor::Matrix& features() const { return features_; }
  std::span<const std::int32_t> labels() const { return labels_; }

  // Batch reference: rows [begin, begin+count) plus their labels. This is
  // the "reference to a range in the training data" of §V-A.
  tensor::ConstMatrixView batch_features(tensor::Index begin,
                                         tensor::Index count) const;
  std::span<const std::int32_t> batch_labels(tensor::Index begin,
                                             tensor::Index count) const;

  // Physically permutes examples (rows and labels together). Called by the
  // coordinator at epoch boundaries, when no batch references are live.
  void shuffle(Rng& rng);

  // Per-feature min-max scaling to [0, 1]; constant features map to 0.
  void scale_features_minmax();

  // Class histogram (size num_classes).
  std::vector<std::uint64_t> class_histogram() const;

  // Memory footprint of the feature matrix in bytes.
  std::uint64_t feature_bytes() const {
    return static_cast<std::uint64_t>(features_.size()) *
           sizeof(tensor::Scalar);
  }

 private:
  std::string name_;
  tensor::Matrix features_;
  std::vector<std::int32_t> labels_;
  std::int32_t num_classes_ = 0;
};

// A dataset of `source`'s examples at `rows`, in that order, named `name`:
// the train/test splits and the loss-evaluation samples are copied out
// this way.
Dataset gather(const Dataset& source, std::span<const std::size_t> rows,
               std::string name);

}  // namespace hetsgd::data

#include "data/dataset.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/macros.hpp"

namespace hetsgd::data {

using tensor::Index;
using tensor::Scalar;

Dataset::Dataset(std::string name, tensor::Matrix features,
                 std::vector<std::int32_t> labels, std::int32_t num_classes)
    : name_(std::move(name)), features_(std::move(features)),
      labels_(std::move(labels)), num_classes_(num_classes) {
  HETSGD_ASSERT(static_cast<Index>(labels_.size()) == features_.rows(),
                "label count != example count");
  HETSGD_ASSERT(num_classes_ >= 2, "need at least two classes");
  for (auto y : labels_) {
    HETSGD_ASSERT(y >= 0 && y < num_classes_, "label out of range");
  }
}

tensor::ConstMatrixView Dataset::batch_features(Index begin,
                                                Index count) const {
  return features_.rows_view(begin, count);
}

std::span<const std::int32_t> Dataset::batch_labels(Index begin,
                                                    Index count) const {
  HETSGD_ASSERT(begin >= 0 && count >= 0 &&
                    begin + count <= static_cast<Index>(labels_.size()),
                "batch labels out of range");
  return std::span<const std::int32_t>(labels_.data() + begin,
                                       static_cast<std::size_t>(count));
}

namespace detail {

// hetsgd-racy: the two helpers below are the ONLY sanctioned race surface
// of the epoch reshuffle. A zombie reader — a worker whose overdue batch
// was reclaimed but whose thread is still grinding the old range — may
// read feature rows / labels while these swaps rewrite them. The zombie's
// report is discarded from the accounting (late-report path), its reads
// just observe a mix of pre/post-shuffle examples, and a pathological
// update is caught by the divergence guard. They are separate noinline
// functions precisely so scripts/tsan.supp can suppress exactly this
// swap↔reader pair by symbol name instead of every race anywhere under
// Dataset::shuffle — races on the shuffle's own bookkeeping (RNG state,
// sizes, the scratch buffer) still get reported.

HETSGD_NOINLINE void hogwild_swap_rows(Scalar* a, Scalar* b, Scalar* scratch,
                                       Index d) {
  std::copy(a, a + d, scratch);
  std::copy(b, b + d, a);
  std::copy(scratch, scratch + d, b);
}

HETSGD_NOINLINE void hogwild_swap_labels(std::int32_t& a, std::int32_t& b) {
  std::swap(a, b);
}

}  // namespace detail

void Dataset::shuffle(Rng& rng) {
  const Index n = example_count();
  const Index d = dim();
  std::vector<Scalar> row_buf(static_cast<std::size_t>(d));
  // Fisher-Yates on rows, swapping labels in lockstep.
  for (Index i = n; i > 1; --i) {
    const Index j = static_cast<Index>(rng.next_below(
        static_cast<std::uint64_t>(i)));
    if (j == i - 1) continue;
    detail::hogwild_swap_rows(features_.row(i - 1), features_.row(j),
                              row_buf.data(), d);
    detail::hogwild_swap_labels(labels_[static_cast<std::size_t>(i - 1)],
                                labels_[static_cast<std::size_t>(j)]);
  }
}

void Dataset::scale_features_minmax() {
  const Index n = example_count();
  const Index d = dim();
  if (n == 0) return;
  std::vector<Scalar> lo(static_cast<std::size_t>(d),
                         std::numeric_limits<Scalar>::max());
  std::vector<Scalar> hi(static_cast<std::size_t>(d),
                         std::numeric_limits<Scalar>::lowest());
  for (Index r = 0; r < n; ++r) {
    const Scalar* row = features_.row(r);
    for (Index c = 0; c < d; ++c) {
      lo[c] = std::min(lo[c], row[c]);
      hi[c] = std::max(hi[c], row[c]);
    }
  }
  for (Index r = 0; r < n; ++r) {
    Scalar* row = features_.row(r);
    for (Index c = 0; c < d; ++c) {
      const Scalar span = hi[c] - lo[c];
      row[c] = span > 0 ? (row[c] - lo[c]) / span : Scalar{0};
    }
  }
}

std::vector<std::uint64_t> Dataset::class_histogram() const {
  std::vector<std::uint64_t> hist(static_cast<std::size_t>(num_classes_), 0);
  for (auto y : labels_) {
    ++hist[static_cast<std::size_t>(y)];
  }
  return hist;
}

Dataset gather(const Dataset& source, std::span<const std::size_t> rows,
               std::string name) {
  tensor::Matrix features(static_cast<Index>(rows.size()), source.dim());
  std::vector<std::int32_t> labels(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Scalar* from = source.features().row(static_cast<Index>(rows[i]));
    std::copy(from, from + source.dim(), features.row(static_cast<Index>(i)));
    labels[i] = source.labels()[rows[i]];
  }
  return Dataset(std::move(name), std::move(features), std::move(labels),
                 source.num_classes());
}

}  // namespace hetsgd::data

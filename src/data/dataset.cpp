#include "data/dataset.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>

#include "common/macros.hpp"

namespace hetsgd::data {

using tensor::Index;
using tensor::Scalar;

bool stores_csr(Index rows, Index cols, Index nonzeros) {
  return cols >= kCsrMinWidth &&
         static_cast<double>(nonzeros) <=
             kCsrMaxDensity * static_cast<double>(rows) *
                 static_cast<double>(cols);
}

namespace {

Index count_nonzeros(tensor::ConstMatrixView m) {
  return static_cast<Index>(
      std::count_if(m.data(), m.data() + m.size(),
                    [](Scalar v) { return v != Scalar{0}; }));
}

}  // namespace

Dataset::Dataset(std::string name, std::vector<std::int32_t> labels,
                 std::int32_t num_classes, Index dim)
    : name_(std::move(name)), dim_(dim), labels_(std::move(labels)),
      num_classes_(num_classes) {}

Dataset::Dataset(std::string name, tensor::Matrix features,
                 std::vector<std::int32_t> labels, std::int32_t num_classes)
    : Dataset(std::move(name), std::move(labels), num_classes,
              features.cols()) {
  HETSGD_ASSERT(static_cast<Index>(labels_.size()) == features.rows(),
                "label count != example count");
  if (dim_ >= kCsrMinWidth &&
      stores_csr(features.rows(), dim_, count_nonzeros(features.view()))) {
    csr_ = tensor::CsrMatrix::from_dense(features.view());
    csr_stored_ = true;
  } else {
    dense_ = std::move(features);
  }
  check_labels();
}

Dataset::Dataset(std::string name, tensor::CsrMatrix features,
                 std::vector<std::int32_t> labels, std::int32_t num_classes)
    : Dataset(std::move(name), std::move(labels), num_classes,
              features.cols()) {
  HETSGD_ASSERT(static_cast<Index>(labels_.size()) == features.rows(),
                "label count != example count");
  if (stores_csr(features.rows(), dim_, features.nonzeros())) {
    csr_ = std::move(features);
    csr_stored_ = true;
  } else {
    dense_ = tensor::to_dense(features.view());
  }
  check_labels();
}

void Dataset::check_labels() const {
  HETSGD_ASSERT(num_classes_ >= 2, "need at least two classes");
  for (auto y : labels_) {
    HETSGD_ASSERT(y >= 0 && y < num_classes_, "label out of range");
  }
}

tensor::BatchView Dataset::features() const {
  return batch_features(0, example_count());
}

tensor::BatchView Dataset::batch_features(Index begin, Index count) const {
  if (csr_stored_) return csr_.rows_view(begin, count);
  return dense_.rows_view(begin, count);
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

// hetsgd-racy: the helpers below are the ONLY sanctioned race surface of
// the epoch reshuffle. A zombie reader — a worker whose overdue batch was
// reclaimed but whose thread is still grinding the old range — may read
// feature rows / labels while they rewrite them. The zombie's report is
// discarded from the accounting (late-report path), its reads just observe
// a mix of pre/post-shuffle examples, and a pathological update is caught
// by the divergence guard. They are separate noinline functions precisely
// so scripts/tsan.supp can suppress exactly these writer↔reader pairs by
// symbol name instead of every race anywhere under Dataset::shuffle —
// races on the shuffle's own bookkeeping (RNG state, sizes, the scratch
// buffers) still get reported.

// Dense rows: one Fisher-Yates swap.
HETSGD_NOINLINE void hogwild_swap_rows(Scalar* a, Scalar* b, Scalar* scratch,
                                       Index d) {
  std::copy(a, a + d, scratch);
  std::copy(b, b + d, a);
  std::copy(scratch, scratch + d, b);
}

HETSGD_NOINLINE void hogwild_swap_labels(std::int32_t& a, std::int32_t& b) {
  std::swap(a, b);
}

// CSR rows: the permuted rows and labels, stored back over the live ones.
// The arrays keep their sizes, so a zombie reading mid-copy sees row
// offsets in [0, nonzeros] and column indices below the width, old or
// new: a wrong example, never an out-of-range read, and the storage it
// holds views of is never freed or moved.
HETSGD_NOINLINE void hogwild_store_shuffled(const tensor::CsrMatrix& from,
                                            const std::int32_t* from_labels,
                                            tensor::CsrMatrix& to,
                                            std::int32_t* to_labels) {
  const auto rows = static_cast<std::size_t>(from.rows());
  const auto entries = static_cast<std::size_t>(from.nonzeros());
  const tensor::CsrView src = from.view();
  std::memcpy(to.row_ptr_data(), src.row_ptr(), (rows + 1) * sizeof(Index));
  std::memcpy(to.col_data(), src.col(), entries * sizeof(Index));
  std::memcpy(to.val_data(), src.val(), entries * sizeof(Scalar));
  std::memcpy(to_labels, from_labels, rows * sizeof(std::int32_t));
}

}  // namespace detail

void Dataset::shuffle(Rng& rng) {
  const Index n = example_count();
  if (!csr_stored_) {
    const Index d = dim();
    std::vector<Scalar> row_buf(static_cast<std::size_t>(d));
    // Fisher-Yates on rows, swapping labels in lockstep.
    for (Index i = n; i > 1; --i) {
      const Index j = static_cast<Index>(rng.next_below(
          static_cast<std::uint64_t>(i)));
      if (j == i - 1) continue;
      detail::hogwild_swap_rows(dense_.row(i - 1), dense_.row(j),
                                row_buf.data(), d);
      detail::hogwild_swap_labels(labels_[static_cast<std::size_t>(i - 1)],
                                  labels_[static_cast<std::size_t>(j)]);
    }
    return;
  }
  // The same Fisher-Yates swaps on row numbers, then the rows copied out
  // in the new order and stored back.
  order_.resize(static_cast<std::size_t>(n));
  std::iota(order_.begin(), order_.end(), Index{0});
  for (Index i = n; i > 1; --i) {
    const Index j = static_cast<Index>(rng.next_below(
        static_cast<std::uint64_t>(i)));
    std::swap(order_[static_cast<std::size_t>(i - 1)],
              order_[static_cast<std::size_t>(j)]);
  }
  if (shuffled_.cols() != dim_) shuffled_ = tensor::CsrMatrix(dim_);
  shuffled_.clear_rows();
  shuffled_.reserve(n, csr_.nonzeros());
  shuffled_labels_.resize(static_cast<std::size_t>(n));
  const tensor::CsrView rows = csr_.view();
  for (std::size_t i = 0; i < order_.size(); ++i) {
    shuffled_.append_row(rows, order_[i]);
    shuffled_labels_[i] = labels_[static_cast<std::size_t>(order_[i])];
  }
  detail::hogwild_store_shuffled(shuffled_, shuffled_labels_.data(), csr_,
                                 labels_.data());
}

void Dataset::scale_features_minmax() {
  const Index n = example_count();
  const Index d = dim();
  if (n == 0) return;
  std::vector<Scalar> lo(static_cast<std::size_t>(d),
                         std::numeric_limits<Scalar>::max());
  std::vector<Scalar> hi(static_cast<std::size_t>(d),
                         std::numeric_limits<Scalar>::lowest());
  const auto see = [&](Index c, Scalar v) {
    const auto f = static_cast<std::size_t>(c);
    lo[f] = std::min(lo[f], v);
    hi[f] = std::max(hi[f], v);
  };
  const auto scaled = [&](Index c, Scalar v) {
    const auto f = static_cast<std::size_t>(c);
    const Scalar span = hi[f] - lo[f];
    return span > 0 ? (v - lo[f]) / span : Scalar{0};
  };
  if (csr_stored_) {
    const tensor::CsrView rows = csr_.view();
    std::vector<Index> stored(static_cast<std::size_t>(d), 0);
    for (Index q = 0; q < rows.nonzeros(); ++q) {
      see(rows.col()[q], rows.val()[q]);
      ++stored[static_cast<std::size_t>(rows.col()[q])];
    }
    bool zeros_stay = true;
    for (Index c = 0; c < d; ++c) {
      if (stored[static_cast<std::size_t>(c)] == n) continue;
      see(c, Scalar{0});  // the feature's unstored zeros
      zeros_stay = zeros_stay && scaled(c, Scalar{0}) == Scalar{0};
    }
    if (zeros_stay) {
      tensor::CsrMatrix out(d);
      out.reserve(n, rows.nonzeros());
      for (Index r = 0; r < n; ++r) {
        for (Index q = rows.row_ptr()[r]; q < rows.row_ptr()[r + 1]; ++q) {
          out.append(rows.col()[q], scaled(rows.col()[q], rows.val()[q]));
        }
        out.end_row();
      }
      csr_ = std::move(out);
      return;
    }
    dense_ = tensor::to_dense(rows);
    csr_ = tensor::CsrMatrix();
    csr_stored_ = false;
  } else {
    for (Index r = 0; r < n; ++r) {
      const Scalar* row = dense_.row(r);
      for (Index c = 0; c < d; ++c) see(c, row[c]);
    }
  }
  for (Index r = 0; r < n; ++r) {
    Scalar* row = dense_.row(r);
    for (Index c = 0; c < d; ++c) row[c] = scaled(c, row[c]);
  }
}

std::vector<std::uint64_t> Dataset::class_histogram() const {
  std::vector<std::uint64_t> hist(static_cast<std::size_t>(num_classes_), 0);
  for (auto y : labels_) {
    ++hist[static_cast<std::size_t>(y)];
  }
  return hist;
}

Index Dataset::nonzero_count() const {
  return csr_stored_ ? csr_.nonzeros() : count_nonzeros(dense_.view());
}

std::uint64_t Dataset::feature_bytes() const {
  return csr_stored_ ? csr_.bytes()
                     : static_cast<std::uint64_t>(dense_.size()) *
                           sizeof(Scalar);
}

Dataset gather(const Dataset& source, std::span<const std::size_t> rows,
               std::string name) {
  std::vector<std::int32_t> labels(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    labels[i] = source.labels()[rows[i]];
  }
  Dataset out(std::move(name), std::move(labels), source.num_classes(),
              source.dim());
  out.csr_stored_ = source.csr_stored_;
  if (source.csr_stored_) {
    out.csr_ = tensor::CsrMatrix(source.dim());
    const tensor::CsrView from = source.csr_.view();
    for (std::size_t row : rows) {
      out.csr_.append_row(from, static_cast<Index>(row));
    }
  } else {
    out.dense_ = tensor::Matrix(static_cast<Index>(rows.size()), source.dim());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Scalar* from = source.dense_.row(static_cast<Index>(rows[i]));
      std::copy(from, from + source.dim(),
                out.dense_.row(static_cast<Index>(i)));
    }
  }
  return out;
}

}  // namespace hetsgd::data

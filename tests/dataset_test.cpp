#include "data/dataset.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.hpp"

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
  EXPECT_EQ(batch.at(0, 0), 2);
  EXPECT_EQ(batch.at(1, 1), 30);
  auto labels = d.batch_labels(1, 2);
  EXPECT_EQ(labels[0], 1);
  EXPECT_EQ(labels[1], 0);
  // Views alias the dataset storage (reference semantics of §V-A).
  EXPECT_EQ(batch.dense().data(), d.features().dense().row(1));
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
  EXPECT_EQ(g.features().at(0, 0), 4);
  EXPECT_EQ(g.features().at(0, 1), 40);
  EXPECT_EQ(g.features().at(1, 1), 10);
  EXPECT_EQ(g.features().at(2, 0), 4);
  EXPECT_EQ(std::vector<std::int32_t>(g.labels().begin(), g.labels().end()),
            (std::vector<std::int32_t>{1, 0, 1}));
  // The copy is independent of its source.
  EXPECT_NE(g.features().dense().data(), d.features().dense().data());
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
    const double v = d.features().at(i, 0);
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
    if (d.features().at(i, 0) != static_cast<tensor::Scalar>(i)) ++moved;
  }
  EXPECT_GT(moved, 50);
}

TEST(Dataset, MinMaxScaling) {
  Matrix f{{0, 5, 7}, {10, 5, 14}, {5, 5, 0}};
  Dataset d("scale", std::move(f), {0, 1, 0}, 2);
  d.scale_features_minmax();
  EXPECT_DOUBLE_EQ(d.features().at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(d.features().at(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(d.features().at(2, 0), 0.5);
  // Constant feature maps to 0.
  EXPECT_DOUBLE_EQ(d.features().at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(d.features().at(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(d.features().at(0, 2), 0.5);
}

TEST(Dataset, ClassHistogram) {
  Dataset d = make_tiny();
  auto hist = d.class_histogram();
  ASSERT_EQ(hist.size(), 2u);
  EXPECT_EQ(hist[0], 2u);
  EXPECT_EQ(hist[1], 2u);
}


// --- CSR storage ------------------------------------------------------------

// A rows x cols matrix whose row i stores `per_row` nonzeros at columns
// (i + 7 * j) mod cols, valued i + 1 + j / 8 (row 1 is empty).
Matrix sparse_rows(Index rows, Index cols, Index per_row) {
  Matrix m(rows, cols);
  for (Index i = 0; i < rows; ++i) {
    if (i == 1) continue;
    for (Index j = 0; j < per_row; ++j) {
      m(i, (i + 7 * j) % cols) = static_cast<tensor::Scalar>(i + 1) + 0.125 * j;
    }
  }
  return m;
}

std::vector<std::int32_t> alternating_labels(Index n) {
  std::vector<std::int32_t> labels(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::int32_t>(i % 2);
  }
  return labels;
}

bool same_dense_rows(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) *
                         sizeof(tensor::Scalar)) == 0;
}

// The storage rule, probed from both sides of each bound through both
// constructors: at least kCsrMinWidth columns and at most kCsrMaxDensity
// nonzero is CSR, anything else dense; the values read back the same.
TEST(Dataset, StorageRuleFollowsWidthAndDensity) {
  const auto stored_csr = [](Index rows, Index cols, Index per_row) {
    const Matrix m = sparse_rows(rows, cols, per_row);
    Dataset dense_built("d", m, alternating_labels(rows), 2);
    Dataset csr_built("c", tensor::CsrMatrix::from_dense(m.view()),
                      alternating_labels(rows), 2);
    EXPECT_EQ(dense_built.csr(), csr_built.csr());
    EXPECT_TRUE(same_dense_rows(tensor::to_dense(dense_built.features()), m));
    EXPECT_TRUE(same_dense_rows(tensor::to_dense(csr_built.features()), m));
    EXPECT_EQ(dense_built.nonzero_count(), csr_built.nonzero_count());
    return csr_built.csr();
  };
  EXPECT_TRUE(stored_csr(50, kCsrMinWidth, 4));
  EXPECT_FALSE(stored_csr(50, kCsrMinWidth - 1, 4));
  EXPECT_FALSE(stored_csr(50, 200, 200));
  // Density just under and just over the limit (row 1 stores nothing).
  const Index rows = 101;
  const Index cols = 100;
  const auto limit = static_cast<Index>(kCsrMaxDensity * rows * cols);
  const Index per_row = limit / (rows - 1);
  EXPECT_TRUE(stores_csr(rows, cols, limit));
  EXPECT_FALSE(stores_csr(rows, cols, limit + 1));
  EXPECT_TRUE(stored_csr(rows, cols, per_row));
  EXPECT_FALSE(stored_csr(rows, cols, per_row + 2));
}

TEST(Dataset, CsrBytesAreTheStoredArrays) {
  const Matrix m = sparse_rows(10, 100, 3);  // 9 rows of 3 entries
  const Dataset d("c", m, alternating_labels(10), 2);
  ASSERT_TRUE(d.csr());
  EXPECT_EQ(d.nonzero_count(), 27);
  EXPECT_EQ(d.feature_bytes(),
            (11 + 27) * sizeof(Index) + 27 * sizeof(tensor::Scalar));
}

// A CSR dataset draws the dense shuffle's random numbers and ends in its
// order: Fisher-Yates swaps applied to the dense rows give the same rows.
TEST(Dataset, CsrShuffleMatchesTheDenseFisherYates) {
  const Index n = 97;
  Matrix want = sparse_rows(n, 300, 5);
  std::vector<std::int32_t> want_labels(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    want_labels[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(i % 5);
  }
  Dataset d("c", want, want_labels, 5);
  ASSERT_TRUE(d.csr());
  Rng rng(21);
  Rng reference = rng;
  for (int round = 0; round < 3; ++round) {
    d.shuffle(rng);
    for (Index i = n; i > 1; --i) {
      const Index j = static_cast<Index>(
          reference.next_below(static_cast<std::uint64_t>(i)));
      std::swap_ranges(want.row(i - 1), want.row(i - 1) + want.cols(),
                       want.row(j));
      std::swap(want_labels[static_cast<std::size_t>(i - 1)],
                want_labels[static_cast<std::size_t>(j)]);
    }
    EXPECT_TRUE(same_dense_rows(tensor::to_dense(d.features()), want));
    EXPECT_TRUE(std::equal(d.labels().begin(), d.labels().end(),
                           want_labels.begin()));
  }
  EXPECT_EQ(rng.next_u64(), reference.next_u64());
}

// A reclaimed batch may still hold views of the rows across a reshuffle:
// the shuffle rewrites the arrays in place, never moving or freeing them.
TEST(Dataset, CsrShuffleKeepsTheStorageInPlace) {
  Dataset d("c", sparse_rows(64, 200, 4), alternating_labels(64), 2);
  ASSERT_TRUE(d.csr());
  const tensor::CsrView before = d.features().csr();
  const std::int32_t* labels = d.labels().data();
  Rng rng(5);
  for (int round = 0; round < 4; ++round) d.shuffle(rng);
  const tensor::CsrView after = d.features().csr();
  EXPECT_EQ(after.row_ptr(), before.row_ptr());
  EXPECT_EQ(after.col(), before.col());
  EXPECT_EQ(after.val(), before.val());
  EXPECT_EQ(d.labels().data(), labels);
  EXPECT_EQ(after.nonzeros(), before.nonzeros());
}

// A zombie reader — a reclaimed batch still running — across reshuffles:
// it holds one view of the rows while the coordinator's thread shuffles
// again and again, and runs the CSR forward on it and walks its entries.
// Every row offset it reads lies within [0, nonzeros] and every column
// index within the width (ASan checks the reads; under TSan the race is
// the sanctioned one, data::detail::hogwild_store_shuffled in tsan.supp).
TEST(Dataset, ReaderAcrossReshufflesStaysInBounds) {
  const Index n = 300, width = 500;
  Dataset d("c", sparse_rows(n, width, 6), alternating_labels(n), 2);
  ASSERT_TRUE(d.csr());
  const tensor::CsrView rows = d.features().csr();
  const Index entries = rows.nonzeros();
  Matrix w(8, width), bias(1, 8), out(n, 8);
  w.fill(0.5);
  std::atomic<bool> done{false};
  std::atomic<Index> out_of_range{0};
  std::thread zombie([&] {
    while (!done.load(std::memory_order_relaxed)) {
      tensor::csr_bias_act(rows, w.view(), out.view(), bias.view(),
                           tensor::Epilogue::kBias);
      for (Index r = 0; r < n; ++r) {
        const Index begin = rows.row_ptr()[r];
        const Index end = rows.row_ptr()[r + 1];
        if (begin < 0 || end > entries) out_of_range.fetch_add(1);
        for (Index q = begin; q < end && q < entries; ++q) {
          if (rows.col()[q] < 0 || rows.col()[q] >= width) {
            out_of_range.fetch_add(1);
          }
        }
      }
    }
  });
  Rng rng(17);
  for (int round = 0; round < 20; ++round) d.shuffle(rng);
  done = true;
  zombie.join();
  EXPECT_EQ(out_of_range.load(), 0);
}

TEST(Dataset, GatherKeepsTheStorageForm) {
  const Matrix m = sparse_rows(40, 128, 3);
  const Dataset d("c", m, alternating_labels(40), 2);
  ASSERT_TRUE(d.csr());
  const std::vector<std::size_t> rows = {5, 1, 5, 39};
  const Dataset g = gather(d, rows, "picked");
  EXPECT_TRUE(g.csr());
  ASSERT_EQ(g.example_count(), 4);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (Index c = 0; c < 128; ++c) {
      EXPECT_EQ(g.features().at(static_cast<Index>(i), c),
                m(static_cast<Index>(rows[i]), c));
    }
    EXPECT_EQ(g.labels()[i], d.labels()[rows[i]]);
  }
}

// Min-max scaling keeps non-negative CSR rows CSR (their zeros stay 0),
// and densifies rows whose feature has a negative minimum.
TEST(Dataset, CsrMinMaxScaling) {
  Matrix m = sparse_rows(40, 100, 3);
  Dataset sparse("c", m, alternating_labels(40), 2);
  ASSERT_TRUE(sparse.csr());
  sparse.scale_features_minmax();
  EXPECT_TRUE(sparse.csr());
  m(0, 99) = -1.0;  // column 99's zeros now scale to a nonzero value
  Dataset shifted("s", m, alternating_labels(40), 2);
  ASSERT_TRUE(shifted.csr());
  shifted.scale_features_minmax();
  EXPECT_FALSE(shifted.csr());
  EXPECT_DOUBLE_EQ(shifted.features().at(0, 99), 0.0);
  EXPECT_GT(shifted.features().at(1, 99), 0.0);
  for (Index c = 0; c < 99; ++c) {
    for (Index r = 0; r < 40; ++r) {
      EXPECT_EQ(shifted.features().at(r, c), sparse.features().at(r, c));
    }
  }
}

// --- the data did not change -------------------------------------------------

// FNV-1a over the shape, every value in dense row-major order and the
// labels: the content a dataset holds, whatever the form it stores.
std::uint64_t content_hash(const Dataset& d) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const auto& v) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  };
  mix(static_cast<std::int64_t>(d.example_count()));
  mix(static_cast<std::int64_t>(d.dim()));
  mix(static_cast<std::int32_t>(d.num_classes()));
  const Matrix rows = tensor::to_dense(d.features());
  for (Index i = 0; i < rows.size(); ++i) mix(rows.data()[i]);
  for (const std::int32_t y : d.labels()) mix(y);
  return h;
}

// Each paper dataset's stand-in at scale 0.002, seeds 1 and 2, pinned to
// the hashes the generator produced when every set was held dense: the
// generator writes CSR rows for the sparse sets from the same random
// numbers. real-sim (~1% nonzero), delicious (~12%) and w8a (~15%) are
// stored CSR, covtype (54 wide) dense.
TEST(PaperDatasetPins, ContentMatchesTheDenseGenerator) {
  struct Pin {
    PaperDataset id;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {PaperDataset::kCovtype, 1, 0xc1e5d162a8082b44ULL},
      {PaperDataset::kCovtype, 2, 0xb1d1af6a4af26cadULL},
      {PaperDataset::kW8a, 1, 0x06efb71b00dc1db4ULL},
      {PaperDataset::kW8a, 2, 0x231771c4ed8cf858ULL},
      {PaperDataset::kDelicious, 1, 0xd066cd8adfc0c015ULL},
      {PaperDataset::kDelicious, 2, 0xd285d038e942413eULL},
      {PaperDataset::kRealSim, 1, 0x2ae379d23bc0ca2bULL},
      {PaperDataset::kRealSim, 2, 0xc1b4beaa3fa89273ULL},
  };
  for (const Pin& pin : pins) {
    const Dataset d = make_paper_dataset(pin.id, 0.002, pin.seed);
    SCOPED_TRACE(testing::Message() << d.name() << " seed " << pin.seed);
    EXPECT_EQ(content_hash(d), pin.hash);
    EXPECT_EQ(d.csr(), pin.id != PaperDataset::kCovtype);
  }
}

}  // namespace
}  // namespace hetsgd::data

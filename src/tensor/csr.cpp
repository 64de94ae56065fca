#include "tensor/csr.hpp"

#include <algorithm>
#include <utility>

#include "common/macros.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/gemm.hpp"
#include "tensor/microkernel.hpp"
#include "tensor/pack.hpp"
#include "tensor/parallel.hpp"

namespace hetsgd::tensor {

Scalar CsrView::at(Index r, Index c) const {
  HETSGD_ASSERT(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                "csr index out of range");
  const Index* first = col_ + row_ptr_[r];
  const Index* last = col_ + row_ptr_[r + 1];
  const Index* it = std::lower_bound(first, last, c);
  return it != last && *it == c ? val_[it - col_] : Scalar{0};
}

CsrView CsrView::rows_view(Index first, Index count) const {
  HETSGD_ASSERT(first >= 0 && count >= 0 && first + count <= rows_,
                "csr rows out of range");
  return CsrView(row_ptr_ + first, col_, val_, count, cols_);
}

CsrMatrix::CsrMatrix(Index cols, std::vector<Index> row_ptr,
                     std::vector<Index> col, std::vector<Scalar> val)
    : row_ptr_(std::move(row_ptr)), col_(std::move(col)),
      val_(std::move(val)), cols_(cols) {
  HETSGD_ASSERT(!row_ptr_.empty() && row_ptr_.front() == 0 &&
                    row_ptr_.back() == static_cast<Index>(col_.size()) &&
                    col_.size() == val_.size(),
                "malformed csr arrays");
  for (std::size_t r = 0; r + 1 < row_ptr_.size(); ++r) {
    HETSGD_ASSERT(row_ptr_[r] <= row_ptr_[r + 1], "csr row offsets descend");
    for (Index q = row_ptr_[r]; q < row_ptr_[r + 1]; ++q) {
      HETSGD_ASSERT(col_[q] >= 0 && col_[q] < cols_ &&
                        (q == row_ptr_[r] || col_[q - 1] < col_[q]),
                    "csr columns must ascend within the width");
    }
  }
}

CsrMatrix CsrMatrix::from_dense(ConstMatrixView dense) {
  CsrMatrix m(dense.cols());
  for (Index r = 0; r < dense.rows(); ++r) {
    const Scalar* row = dense.row(r);
    for (Index c = 0; c < dense.cols(); ++c) m.append(c, row[c]);
    m.end_row();
  }
  return m;
}

void CsrMatrix::append_row(const CsrView& src, Index r) {
  HETSGD_ASSERT(src.cols() == cols_, "csr row width mismatch");
  // Each offset is read once: a row a concurrent reshuffle rewrites
  // (data::Dataset::shuffle) comes out wrong or empty, never out of range.
  const Index begin = src.row_ptr()[r];
  const Index end = std::max(begin, src.row_ptr()[r + 1]);
  col_.insert(col_.end(), src.col() + begin, src.col() + end);
  val_.insert(val_.end(), src.val() + begin, src.val() + end);
  end_row();
}

void CsrMatrix::clear_rows() {
  row_ptr_.resize(1);
  col_.clear();
  val_.clear();
}

void CsrMatrix::reserve(Index rows, Index nonzeros) {
  row_ptr_.reserve(static_cast<std::size_t>(rows) + 1);
  col_.reserve(static_cast<std::size_t>(nonzeros));
  val_.reserve(static_cast<std::size_t>(nonzeros));
}

CsrView CsrMatrix::rows_view(Index first, Index count) const {
  HETSGD_ASSERT(first >= 0 && count >= 0 && first + count <= rows(),
                "csr rows out of range");
  return CsrView(row_ptr_.data() + first, col_.data(), val_.data(), count,
                 cols_);
}

std::uint64_t CsrMatrix::bytes() const {
  return (row_ptr_.size() + col_.size()) * sizeof(Index) +
         val_.size() * sizeof(Scalar);
}

const ConstMatrixView& BatchView::dense() const {
  HETSGD_ASSERT(!is_csr_, "batch is stored CSR, not dense");
  return dense_;
}

const CsrView& BatchView::csr() const {
  HETSGD_ASSERT(is_csr_, "batch is stored dense, not CSR");
  return csr_;
}

BatchView BatchView::rows_view(Index first, Index count) const {
  if (is_csr_) return BatchView(csr_.rows_view(first, count));
  return BatchView(dense_.rows_view(first, count));
}

Matrix to_dense(const BatchView& rows) {
  Matrix m(rows.rows(), rows.cols());
  if (!rows.is_csr()) {
    for (Index r = 0; r < rows.rows(); ++r) {
      std::copy(rows.dense().row(r), rows.dense().row(r) + rows.cols(),
                m.row(r));
    }
    return m;
  }
  const CsrView& csr = rows.csr();
  for (Index r = 0; r < csr.rows(); ++r) {
    Scalar* row = m.row(r);
    for (Index q = csr.row_ptr()[r]; q < csr.row_ptr()[r + 1]; ++q) {
      row[csr.col()[q]] = csr.val()[q];
    }
  }
  return m;
}

// ---------------------------------------------------------------------------
// CSR input products: the first layer on a dataset stored CSR (csr.hpp).
//
//   forward   C = epilogue(x * W^T + bias):
//             C row i = sum over x row i's entries of x[i,p] * W col p;
//   gradient  C = alpha * d^T * x + beta * C:
//             C col p += alpha * (sum over the rows r storing column p of
//             x[r,p] * d row r).
//
// Each sum starts from +0 and runs in ascending order (columns p within a
// row, rows r within a column), which is the order the zero-skipping path
// for sparse inputs stored dense used, so training on a CSR dataset repeats
// that path's results bit for bit (DESIGN.md §8). Each C element is summed
// by one thread, so results are bit-identical for any thread count.
//
// The products skip x's zeros, so a NaN or Inf in W (forward) or d
// (gradient) reaches only the outputs that one of x's stored entries
// touches: the dense kernel's 0 * NaN terms are gone. The divergence guard
// checks the model itself for that reason (Coordinator::evaluate_loss).
//
// Row offsets are read once per row and every loop runs `q < end`, so rows
// whose offsets a concurrent reshuffle rewrites (data::Dataset::shuffle)
// give a wrong sum, never an out-of-range read.

namespace {

using detail::gemm_counter;
using detail::kNR;
using detail::kTraceFlopThreshold;
using detail::parallel_team;
using detail::Range;
using detail::scale_c;
using detail::thread_range;
using detail::worth_threads;

obs::Counter& sparse_gemm_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("hetsgd_sparse_gemms_total");
  return c;
}

// The calling thread's transposed W (forward) or gradient accumulator,
// shared by the OpenMP team it forks.
thread_local detail::PackBuffer tl_csr_scratch;

// Rows [p0, p1) of wt (k x n) = columns [p0, p1) of w (n x k), copied in
// blocks of kTransposeBlock columns so the strided writes stay within that
// many cache lines however wide n is.
constexpr Index kTransposeBlock = 16;
void transpose_cols(const Scalar* w, Index ldw, Index n, Index p0, Index p1,
                    Scalar* HETSGD_RESTRICT wt) {
  for (Index pb = p0; pb < p1; pb += kTransposeBlock) {
    const Index pe = std::min(p1, pb + kTransposeBlock);
    for (Index j = 0; j < n; ++j) {
      const Scalar* HETSGD_RESTRICT row = w + j * ldw;
      for (Index p = pb; p < pe; ++p) wt[p * n + j] = row[p];
    }
  }
}

inline void axpy_row(Scalar a, const Scalar* HETSGD_RESTRICT x,
                     Scalar* HETSGD_RESTRICT y, Index n) {
#pragma omp simd
  for (Index j = 0; j < n; ++j) y[j] += a * x[j];
}

// The scratch a team shares. Thread 0 of an OpenMP team is the thread that
// forked it, so it takes its own tl_csr_scratch; the barrier publishes the
// pointer to the team.
Scalar* team_scratch(Index tid, std::size_t count, Scalar*& shared) {
  if (tid == 0) shared = tl_csr_scratch.ensure(count);
#pragma omp barrier
  return shared;
}

// The forward transposes W first when the batch stores at least this many
// entries per column of x: below that, reading each entry's W column with
// stride ldw, serially, costs less than the copy. Timed on the same
// operands (m = 1 to 512 rows of real-sim's and delicious's widths into 48
// units, 0.5-50% dense), the transposed form starts to win between about
// 1.5 and 5 entries per column, and never did at m <= 4; at 2.5 the form
// chosen ran within 16% of the faster one at every point (DESIGN.md §8).
// A one-row batch (a Hogwild lane's example) stores at most one entry per
// column, so it never transposes.
constexpr double kTransposeMinEntriesPerColumn = 2.5;

// Both kernels below stay out of line: inlined into the OpenMP team's body,
// gcc 12 spills the axpy loop's pointers (10-20% slower gradient products
// when measured at 10-15% density).

// Forward rows [i0, i1) of C (n wide): C row i = epilogue(sum over x row
// i's entries of x[i,p] * W col p, + bias). With kTransposed, W col p is
// row p of wt (k x n); otherwise it is read from w (n x k) with stride ldw.
template <bool kTransposed>
HETSGD_NOINLINE void csr_forward_rows(const CsrView& x, const Scalar* w,
                                      Index ldw, Index n, Scalar* c,
                                      Index ldc, const Scalar* bias,
                                      Epilogue epilogue, Index i0, Index i1) {
  const Index* row_ptr = x.row_ptr();
  const Index* col = x.col();
  const Scalar* val = x.val();
  for (Index i = i0; i < i1; ++i) {
    Scalar* HETSGD_RESTRICT crow = c + i * ldc;
    std::fill(crow, crow + n, Scalar{0});
    const Index end = row_ptr[i + 1];
    for (Index q = row_ptr[i]; q < end; ++q) {
      if constexpr (kTransposed) {
        axpy_row(val[q], w + col[q] * n, crow, n);
      } else {
        const Scalar a = val[q];
        const Scalar* HETSGD_RESTRICT wcol = w + col[q];
        for (Index j = 0; j < n; ++j) crow[j] += a * wcol[j * ldw];
      }
    }
    detail::epilogue_row(epilogue, crow, bias, n);
  }
}

// Gradient columns [j0, j1) of C (m x k, C already beta-scaled): column p
// builds up in ct row p over x's rows, so the inner loop is a contiguous
// axpy over d's row; the final pass adds it into C.
HETSGD_NOINLINE void csr_gradient_cols(const CsrView& x, const Scalar* d,
                                       Index ldd, Index m, Scalar alpha,
                                       Scalar* c, Index ldc, Index j0,
                                       Index j1, Scalar* ct) {
  std::fill(ct + j0 * m, ct + j1 * m, Scalar{0});
  const Index* row_ptr = x.row_ptr();
  const Index* col = x.col();
  const Scalar* val = x.val();
  for (Index r = 0; r < x.rows(); ++r) {
    const Scalar* HETSGD_RESTRICT drow = d + r * ldd;
    const Index end = row_ptr[r + 1];
    for (Index q = row_ptr[r]; q < end; ++q) {
      const Index p = col[q];
      if (p >= j0 && p < j1) axpy_row(val[q], drow, ct + p * m, m);
    }
  }
  for (Index i = 0; i < m; ++i) {
    Scalar* HETSGD_RESTRICT crow = c + i * ldc;
    for (Index j = j0; j < j1; ++j) crow[j] += alpha * ct[j * m + i];
  }
}

// A one-row batch: C[i][p] += alpha * (0 + d_i * x_p) over x's entries,
// rounded as rank1_rows rounds the dense k = 1 product.
void csr_rank1(const CsrView& x, const Scalar* d, Index m, Scalar alpha,
               Scalar* c, Index ldc) {
  const Index end = x.row_ptr()[1];
  for (Index i = 0; i < m; ++i) {
    const Scalar di = d[i];
    Scalar* HETSGD_RESTRICT crow = c + i * ldc;
    for (Index q = x.row_ptr()[0]; q < end; ++q) {
      crow[x.col()[q]] += alpha * (Scalar{0} + di * x.val()[q]);
    }
  }
}

}  // namespace

void csr_bias_act(const CsrView& x, ConstMatrixView w, MatrixView c,
                  ConstMatrixView bias, Epilogue epilogue) {
  const Index m = x.rows();
  const Index n = w.rows();
  const Index k = x.cols();
  HETSGD_ASSERT(w.cols() == k, "csr_bias_act inner dimensions mismatch");
  HETSGD_ASSERT(c.rows() == m && c.cols() == n,
                "csr_bias_act output shape mismatch");
  HETSGD_ASSERT(bias.rows() == 1 && bias.cols() == n,
                "csr_bias_act bias shape mismatch");
  if (m == 0 || n == 0) return;
  sparse_gemm_counter().inc();
  const Index entries = x.nonzeros();
  if (static_cast<double>(entries) <
      kTransposeMinEntriesPerColumn * static_cast<double>(k)) {
    csr_forward_rows<false>(x, w.data(), w.cols(), n, c.data(), c.cols(),
                            bias.data(), epilogue, 0, m);
    return;
  }
  const double work = gemm_flops(entries, n, 1) + static_cast<double>(n * k);
  Scalar* wt = nullptr;
  parallel_team(worth_threads(work, m), [&](Index tid, Index nth) {
    Scalar* t = team_scratch(tid, static_cast<std::size_t>(k * n), wt);
    const Range p = thread_range(tid, nth, k, kTransposeBlock);
    transpose_cols(w.data(), w.cols(), n, p.lo, p.hi, t);
#pragma omp barrier
    const Range rows = thread_range(tid, nth, m, 1);
    csr_forward_rows<true>(x, t, n, n, c.data(), c.cols(), bias.data(),
                           epilogue, rows.lo, rows.hi);
  });
}

void csr_gemm_tn(Scalar alpha, ConstMatrixView d, const CsrView& x,
                 Scalar beta, MatrixView c) {
  const Index m = d.cols();
  const Index k = x.cols();
  HETSGD_ASSERT(d.rows() == x.rows(), "csr_gemm_tn inner dimensions mismatch");
  HETSGD_ASSERT(c.rows() == m && c.cols() == k,
                "csr_gemm_tn output shape mismatch");
  scale_c(c, m, k, beta);
  if (x.rows() == 0 || m == 0 || k == 0 || alpha == Scalar{0}) return;
  // Counted and traced as the gemm() call it stands in for.
  gemm_counter().inc();
  sparse_gemm_counter().inc();
  HETSGD_TRACE_SPAN(span, "tensor",
                    gemm_flops(m, k, x.rows()) >= kTraceFlopThreshold
                        ? "packed_gemm"
                        : nullptr);
  if (x.rows() == 1) {
    csr_rank1(x, d.data(), m, alpha, c.data(), c.cols());
    return;
  }
  const double work =
      gemm_flops(x.nonzeros(), m, 1) + 2.0 * gemm_flops(m, k, 1);
  Scalar* ct = nullptr;
  parallel_team(worth_threads(work, (k + kNR - 1) / kNR),
                [&](Index tid, Index nth) {
                  Scalar* t =
                      team_scratch(tid, static_cast<std::size_t>(k * m), ct);
                  const Range cols = thread_range(tid, nth, k, kNR);
                  csr_gradient_cols(x, d.data(), d.cols(), m, alpha, c.data(),
                                    c.cols(), cols.lo, cols.hi, t);
                });
}

}  // namespace hetsgd::tensor

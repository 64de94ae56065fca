// Compressed sparse row (CSR) input rows, and the batch view that carries
// either storage form to the first layer.
//
// data::Dataset stores a wide, sparse input matrix (real-sim is ~1%
// nonzero) as CSR instead of dense rows; the first layer's two products
// then read only its nonzeros (csr_bias_act and csr_gemm_tn below). Every
// row holds its nonzeros in strictly ascending column order, and no stored
// value compares equal to zero.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/matrix.hpp"
#include "tensor/microkernel.hpp"  // Epilogue
#include "tensor/types.hpp"

namespace hetsgd::tensor {

// Non-owning view of `rows` CSR rows, `cols` wide. Row r's entries are
// [row_ptr[r], row_ptr[r+1]) of col / val. The offsets are those of the
// owning storage, so a view of a row range shares col / val with it.
class CsrView {
 public:
  CsrView() = default;
  CsrView(const Index* row_ptr, const Index* col, const Scalar* val,
          Index rows, Index cols)
      : row_ptr_(row_ptr), col_(col), val_(val), rows_(rows), cols_(cols) {}

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  const Index* row_ptr() const { return row_ptr_; }
  const Index* col() const { return col_; }
  const Scalar* val() const { return val_; }
  // Entries of all rows, row_ptr[rows] - row_ptr[0].
  Index nonzeros() const {
    return rows_ == 0 ? 0 : row_ptr_[rows_] - row_ptr_[0];
  }

  // Row r's value at column c (binary search; 0 when not stored).
  Scalar at(Index r, Index c) const;

  CsrView rows_view(Index first, Index count) const;

 private:
  const Index* row_ptr_ = nullptr;
  const Index* col_ = nullptr;
  const Scalar* val_ = nullptr;
  Index rows_ = 0;
  Index cols_ = 0;
};

// Owning CSR rows, built one row at a time.
class CsrMatrix {
 public:
  CsrMatrix() = default;
  explicit CsrMatrix(Index cols) : cols_(cols) {}
  // Rows already in CSR arrays: row_ptr runs from 0 to col.size(), and
  // each row's columns ascend and lie below `cols`.
  CsrMatrix(Index cols, std::vector<Index> row_ptr, std::vector<Index> col,
            std::vector<Scalar> val);
  // The nonzeros of `dense`, row by row.
  static CsrMatrix from_dense(ConstMatrixView dense);

  Index rows() const { return static_cast<Index>(row_ptr_.size()) - 1; }
  Index cols() const { return cols_; }
  Index nonzeros() const { return static_cast<Index>(val_.size()); }

  // Appends (c, v) to the open row unless v == 0; columns must ascend
  // within a row.
  void append(Index c, Scalar v) {
    if (v != Scalar{0}) {
      col_.push_back(c);
      val_.push_back(v);
    }
  }
  // Closes the open row.
  void end_row() { row_ptr_.push_back(static_cast<Index>(val_.size())); }
  // Appends row r of `src` (same width) as one closed row.
  void append_row(const CsrView& src, Index r);
  // Drops every row, keeping the capacity.
  void clear_rows();
  // Grows the capacity to `rows` rows of `nonzeros` entries in total.
  void reserve(Index rows, Index nonzeros);

  CsrView view() const { return rows_view(0, rows()); }
  CsrView rows_view(Index first, Index count) const;

  // Bytes of the three arrays.
  std::uint64_t bytes() const;

  // Raw arrays, for the dataset's in-place row permutation.
  Index* row_ptr_data() { return row_ptr_.data(); }
  Index* col_data() { return col_.data(); }
  Scalar* val_data() { return val_.data(); }

 private:
  std::vector<Index> row_ptr_{0};
  std::vector<Index> col_;
  std::vector<Scalar> val_;
  Index cols_ = 0;
};

// A batch of input rows as the dataset stores them: a dense view or a CSR
// view. Converts implicitly from either, so callers holding dense rows
// pass them unchanged.
class BatchView {
 public:
  BatchView() = default;
  BatchView(ConstMatrixView dense) : dense_(dense) {}
  BatchView(MatrixView dense) : dense_(dense) {}
  BatchView(const CsrView& csr) : csr_(csr), is_csr_(true) {}

  bool is_csr() const { return is_csr_; }
  Index rows() const { return is_csr_ ? csr_.rows() : dense_.rows(); }
  Index cols() const { return is_csr_ ? csr_.cols() : dense_.cols(); }
  // The storage form held; asserts it is that one.
  const ConstMatrixView& dense() const;
  const CsrView& csr() const;

  // Row r's value at column c.
  Scalar at(Index r, Index c) const {
    return is_csr_ ? csr_.at(r, c) : dense_(r, c);
  }

  BatchView rows_view(Index first, Index count) const;

 private:
  ConstMatrixView dense_;
  CsrView csr_;
  bool is_csr_ = false;
};

// A dense copy of the rows, in either storage form.
Matrix to_dense(const BatchView& rows);

// CSR input products: the first layer's two products when the dataset
// stores its inputs CSR (csr.hpp, DESIGN.md §8). Both visit only x's stored
// entries, summing each output from +0 in ascending order (columns within
// a row, rows within a column), bit-identical for any thread count. They
// propagate NaN or Inf only from the entries they touch: a non-finite
// weight (forward) or delta (gradient) in a column no stored entry of x
// reaches leaves every output finite, where the dense kernel's 0 * NaN
// terms would poison them. Both count in hetsgd_sparse_gemms_total.
//
// C = epilogue(x * w^T + bias): the forward layer, w out x in (n x k),
// bias 1 x n, C m x n overwritten.
void csr_bias_act(const CsrView& x, ConstMatrixView w, MatrixView c,
                  ConstMatrixView bias, Epilogue epilogue);
// C = alpha * d^T * x + beta * C: the weight gradient (alpha = 1,
// beta = 0) and the in-place SGD step (alpha = -eta, beta = 1), with d the
// batch's delta (b x m), x b x k and C m x k. A one-row batch is a rank-1
// update over x's entries, rounded as gemm's k = 1 path rounds. Counts in
// hetsgd_host_gemms_total, as the gemm() call it stands in for.
void csr_gemm_tn(Scalar alpha, ConstMatrixView d, const CsrView& x,
                 Scalar beta, MatrixView c);

}  // namespace hetsgd::tensor

// Row-major dense matrix and non-owning views.
#pragma once

#include <initializer_list>

#include "tensor/buffer.hpp"
#include "tensor/types.hpp"

namespace hetsgd::tensor {

class MatrixView;
class ConstMatrixView;

// Owning row-major matrix of Scalar. Vectors are represented as 1×n or n×1
// matrices; the NN layers always batch, so 2-D is the only shape needed.
class Matrix {
 public:
  Matrix() = default;
  Matrix(Index rows, Index cols);

  // Rows-of-rows initializer for tests: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<Scalar>> rows);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Index size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  Scalar* data() { return buf_.data(); }
  const Scalar* data() const { return buf_.data(); }

  Scalar& at(Index r, Index c);
  Scalar at(Index r, Index c) const;

  Scalar& operator()(Index r, Index c) { return buf_[r * cols_ + c]; }
  Scalar operator()(Index r, Index c) const { return buf_[r * cols_ + c]; }

  Scalar* row(Index r) { return buf_.data() + r * cols_; }
  const Scalar* row(Index r) const { return buf_.data() + r * cols_; }

  void set_zero() { buf_.fill_zero(); }
  void fill(Scalar v);

  // Reshape without reallocation; total size must match.
  void reshape(Index rows, Index cols);

  // Resize discarding contents (no-op if the shape already matches).
  void resize(Index rows, Index cols);

  MatrixView view();
  ConstMatrixView view() const;
  MatrixView rows_view(Index first, Index count);
  ConstMatrixView rows_view(Index first, Index count) const;

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  AlignedBuffer<Scalar> buf_;
};

// Non-owning mutable view over contiguous rows of a Matrix (or any
// row-major storage). Used for batch slices of the training data and for
// model shards updated in place by Hogwild threads.
class MatrixView {
 public:
  MatrixView() = default;
  MatrixView(Scalar* data, Index rows, Index cols)
      : data_(data), rows_(rows), cols_(cols) {}

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Index size() const { return rows_ * cols_; }
  Scalar* data() const { return data_; }

  Scalar& operator()(Index r, Index c) const { return data_[r * cols_ + c]; }
  Scalar* row(Index r) const { return data_ + r * cols_; }

  MatrixView rows_view(Index first, Index count) const;

 private:
  Scalar* data_ = nullptr;
  Index rows_ = 0;
  Index cols_ = 0;
};

class ConstMatrixView {
 public:
  ConstMatrixView() = default;
  ConstMatrixView(const Scalar* data, Index rows, Index cols)
      : data_(data), rows_(rows), cols_(cols) {}
  // Implicit from a mutable view.
  ConstMatrixView(MatrixView v) : data_(v.data()), rows_(v.rows()), cols_(v.cols()) {}

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Index size() const { return rows_ * cols_; }
  const Scalar* data() const { return data_; }

  Scalar operator()(Index r, Index c) const { return data_[r * cols_ + c]; }
  const Scalar* row(Index r) const { return data_ + r * cols_; }

  ConstMatrixView rows_view(Index first, Index count) const;

 private:
  const Scalar* data_ = nullptr;
  Index rows_ = 0;
  Index cols_ = 0;
};

}  // namespace hetsgd::tensor

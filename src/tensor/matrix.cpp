#include "tensor/matrix.hpp"

#include <algorithm>

namespace hetsgd::tensor {

Matrix::Matrix(Index rows, Index cols)
    : rows_(rows), cols_(cols),
      buf_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols)) {
  HETSGD_ASSERT(rows >= 0 && cols >= 0, "negative matrix dimension");
  buf_.fill_zero();
}

Matrix::Matrix(std::initializer_list<std::initializer_list<Scalar>> rows) {
  rows_ = static_cast<Index>(rows.size());
  cols_ = rows_ > 0 ? static_cast<Index>(rows.begin()->size()) : 0;
  buf_ = AlignedBuffer<Scalar>(static_cast<std::size_t>(rows_ * cols_));
  Index r = 0;
  for (const auto& row : rows) {
    HETSGD_ASSERT(static_cast<Index>(row.size()) == cols_,
                  "ragged initializer list");
    std::copy(row.begin(), row.end(), buf_.data() + r * cols_);
    ++r;
  }
}

Scalar& Matrix::at(Index r, Index c) {
  HETSGD_ASSERT(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                "matrix index out of range");
  return buf_[r * cols_ + c];
}

Scalar Matrix::at(Index r, Index c) const {
  HETSGD_ASSERT(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                "matrix index out of range");
  return buf_[r * cols_ + c];
}

void Matrix::fill(Scalar v) {
  std::fill(buf_.data(), buf_.data() + size(), v);
}

void Matrix::reshape(Index rows, Index cols) {
  HETSGD_ASSERT(rows * cols == rows_ * cols_, "reshape changes element count");
  rows_ = rows;
  cols_ = cols;
}

void Matrix::resize(Index rows, Index cols) {
  HETSGD_ASSERT(rows >= 0 && cols >= 0, "negative matrix dimension");
  if (rows == rows_ && cols == cols_) return;
  rows_ = rows;
  cols_ = cols;
  buf_ = AlignedBuffer<Scalar>(static_cast<std::size_t>(rows) *
                               static_cast<std::size_t>(cols));
  buf_.fill_zero();
}

MatrixView Matrix::view() { return MatrixView(data(), rows_, cols_); }

ConstMatrixView Matrix::view() const {
  return ConstMatrixView(data(), rows_, cols_);
}

MatrixView Matrix::rows_view(Index first, Index count) {
  HETSGD_ASSERT(first >= 0 && count >= 0 && first + count <= rows_,
                "rows_view out of range");
  return MatrixView(data() + first * cols_, count, cols_);
}

ConstMatrixView Matrix::rows_view(Index first, Index count) const {
  HETSGD_ASSERT(first >= 0 && count >= 0 && first + count <= rows_,
                "rows_view out of range");
  return ConstMatrixView(data() + first * cols_, count, cols_);
}

MatrixView MatrixView::rows_view(Index first, Index count) const {
  HETSGD_ASSERT(first >= 0 && count >= 0 && first + count <= rows_,
                "rows_view out of range");
  return MatrixView(data_ + first * cols_, count, cols_);
}

ConstMatrixView ConstMatrixView::rows_view(Index first, Index count) const {
  HETSGD_ASSERT(first >= 0 && count >= 0 && first + count <= rows_,
                "rows_view out of range");
  return ConstMatrixView(data_ + first * cols_, count, cols_);
}

}  // namespace hetsgd::tensor

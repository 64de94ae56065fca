// The reference GEMM for the tests: C = alpha * op(A) * op(B) + beta * C as
// three plain loops, single-threaded and unblocked, with op ∈ {identity,
// transpose}. It shares no code with tensor::gemm's packing, micro-kernel
// or rank-1 paths, nor with the CSR kernels; only the shape check is the
// library's, so a shape error fails here as it would there.
#pragma once

#include "tensor/gemm.hpp"
#include "tensor/matrix.hpp"

namespace hetsgd::ref {

inline void gemm_naive(tensor::Trans ta, tensor::Trans tb,
                       tensor::Scalar alpha, tensor::ConstMatrixView a,
                       tensor::ConstMatrixView b, tensor::Scalar beta,
                       tensor::MatrixView c) {
  // op(m)(row, col).
  const auto get = [](tensor::ConstMatrixView m, tensor::Trans t,
                      tensor::Index row, tensor::Index col) {
    return t == tensor::Trans::kNo ? m(row, col) : m(col, row);
  };
  const tensor::GemmDims d = tensor::check_gemm_shapes(ta, tb, a, b, c);
  for (tensor::Index i = 0; i < d.m; ++i) {
    for (tensor::Index j = 0; j < d.n; ++j) {
      tensor::Scalar acc = 0;
      for (tensor::Index k = 0; k < d.k; ++k) {
        acc += get(a, ta, i, k) * get(b, tb, k, j);
      }
      c(i, j) = alpha * acc + beta * c(i, j);
    }
  }
}

}  // namespace hetsgd::ref

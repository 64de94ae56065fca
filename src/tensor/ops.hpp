// Element-wise and reduction primitives over matrices/vectors.
//
// Together with GEMM these cover every linear-algebra operation the MLP
// layers and SGD updates need — the full set the paper obtains from
// MKL/cuBLAS.
//
// The hot loops are vectorized with `#pragma omp simd` over
// restrict-qualified pointers: operands of any one call must not overlap
// in memory (distinct matrices, or the documented in-place destination
// only). All existing call sites satisfy this.
#pragma once

#include "common/rng.hpp"
#include "tensor/matrix.hpp"

namespace hetsgd::tensor {

// y += alpha * x (same shape).
void axpy(Scalar alpha, ConstMatrixView x, MatrixView y);

// out(1 x cols) = column sums of m. Used for bias gradients.
void col_sums(ConstMatrixView m, MatrixView out);

// Max |a - b| over all elements; shapes must match.
Scalar max_abs_diff(ConstMatrixView a, ConstMatrixView b);

// Fills with draws from N(mean, stddev).
void fill_normal(MatrixView m, Rng& rng, Scalar mean, Scalar stddev);

// Fills with draws from U[lo, hi).
void fill_uniform(MatrixView m, Rng& rng, Scalar lo, Scalar hi);

// True if every element is finite.
bool all_finite(ConstMatrixView m);

}  // namespace hetsgd::tensor

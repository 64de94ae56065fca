#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "common/macros.hpp"

namespace hetsgd::tensor {

namespace {

void check_same_shape(ConstMatrixView a, ConstMatrixView b, const char* what) {
  HETSGD_ASSERT(a.rows() == b.rows() && a.cols() == b.cols(), what);
}

}  // namespace

void axpy(Scalar alpha, ConstMatrixView x, MatrixView y) {
  check_same_shape(x, y, "axpy shape mismatch");
  const Scalar* HETSGD_RESTRICT xs = x.data();
  Scalar* HETSGD_RESTRICT ys = y.data();
  const Index n = x.size();
#pragma omp simd
  for (Index i = 0; i < n; ++i) {
    ys[i] += alpha * xs[i];
  }
}

void col_sums(ConstMatrixView m, MatrixView out) {
  HETSGD_ASSERT(out.rows() == 1 && out.cols() == m.cols(),
                "col_sums output shape mismatch");
  Scalar* HETSGD_RESTRICT o = out.data();
  const Index cols = m.cols();
  std::fill(o, o + cols, Scalar{0});
  for (Index r = 0; r < m.rows(); ++r) {
    const Scalar* HETSGD_RESTRICT row = m.row(r);
    // Independent per-column accumulators: vectorizes without a reduction.
#pragma omp simd
    for (Index c = 0; c < cols; ++c) {
      o[c] += row[c];
    }
  }
}

Scalar max_abs_diff(ConstMatrixView a, ConstMatrixView b) {
  check_same_shape(a, b, "max_abs_diff shape mismatch");
  const Scalar* as = a.data();
  const Scalar* bs = b.data();
  Scalar best = 0;
  const Index n = a.size();
  for (Index i = 0; i < n; ++i) {
    best = std::max(best, std::abs(as[i] - bs[i]));
  }
  return best;
}

void fill_normal(MatrixView m, Rng& rng, Scalar mean, Scalar stddev) {
  Scalar* d = m.data();
  const Index n = m.size();
  for (Index i = 0; i < n; ++i) {
    d[i] = rng.normal(mean, stddev);
  }
}

void fill_uniform(MatrixView m, Rng& rng, Scalar lo, Scalar hi) {
  Scalar* d = m.data();
  const Index n = m.size();
  for (Index i = 0; i < n; ++i) {
    d[i] = rng.uniform(lo, hi);
  }
}

bool all_finite(ConstMatrixView m) {
  const Scalar* d = m.data();
  const Index n = m.size();
  for (Index i = 0; i < n; ++i) {
    if (!std::isfinite(d[i])) return false;
  }
  return true;
}

}  // namespace hetsgd::tensor

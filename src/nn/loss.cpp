#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>

#include "common/macros.hpp"

namespace hetsgd::nn {

using tensor::Index;
using tensor::Scalar;

tensor::Scalar softmax_cross_entropy(tensor::ConstMatrixView logits,
                                     std::span<const std::int32_t> labels,
                                     tensor::MatrixView* dlogits) {
  const Index b = logits.rows();
  const Index c = logits.cols();
  HETSGD_ASSERT(static_cast<Index>(labels.size()) == b,
                "label count != batch size");
  if (dlogits != nullptr) {
    HETSGD_ASSERT(dlogits->rows() == b && dlogits->cols() == c,
                  "dlogits shape mismatch");
  }
  const Scalar inv_b = Scalar{1} / static_cast<Scalar>(b);
  Scalar total_loss = 0;
  for (Index r = 0; r < b; ++r) {
    const Scalar* row = logits.row(r);
    const std::int32_t y = labels[static_cast<std::size_t>(r)];
    HETSGD_ASSERT(y >= 0 && y < c, "label out of range");
    // log-sum-exp with max subtraction.
    Scalar mx = row[0];
    for (Index j = 1; j < c; ++j) mx = std::max(mx, row[j]);
    Scalar sum_exp = 0;
    Scalar* g = dlogits != nullptr ? dlogits->row(r) : nullptr;
    if (g == nullptr) {
      for (Index j = 0; j < c; ++j) sum_exp += std::exp(row[j] - mx);
    } else {
      // Each class's exp(z - max) is kept in dlogits for the scaling below.
      for (Index j = 0; j < c; ++j) {
        g[j] = std::exp(row[j] - mx);
        sum_exp += g[j];
      }
    }
    const Scalar log_z = mx + std::log(sum_exp);
    total_loss += log_z - row[y];
    if (g != nullptr) {
      const Scalar inv_z = Scalar{1} / sum_exp;
      for (Index j = 0; j < c; ++j) g[j] = g[j] * inv_z * inv_b;
      g[y] -= inv_b;
    }
  }
  return total_loss * inv_b;
}

tensor::Scalar sigmoid_bce(tensor::ConstMatrixView logits,
                           tensor::ConstMatrixView targets,
                           tensor::MatrixView* dlogits) {
  const Index b = logits.rows();
  const Index c = logits.cols();
  HETSGD_ASSERT(targets.rows() == b && targets.cols() == c,
                "targets shape mismatch");
  if (dlogits != nullptr) {
    HETSGD_ASSERT(dlogits->rows() == b && dlogits->cols() == c,
                  "dlogits shape mismatch");
  }
  const Scalar inv_b = Scalar{1} / static_cast<Scalar>(b);
  Scalar total = 0;
  for (Index r = 0; r < b; ++r) {
    const Scalar* z = logits.row(r);
    const Scalar* t = targets.row(r);
    Scalar* g = dlogits != nullptr ? dlogits->row(r) : nullptr;
    for (Index j = 0; j < c; ++j) {
      // Numerically stable: log(1+exp(-|z|)) + max(z,0) - z*t.
      const Scalar zj = z[j];
      const Scalar softplus = std::log1p(std::exp(-std::abs(zj))) +
                              std::max(zj, Scalar{0});
      total += softplus - zj * t[j];
      if (g != nullptr) {
        const Scalar sig = Scalar{1} / (Scalar{1} + std::exp(-zj));
        g[j] = (sig - t[j]) * inv_b;
      }
    }
  }
  return total * inv_b;
}

}  // namespace hetsgd::nn

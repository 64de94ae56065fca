// Loss functions and their gradients with respect to the logits.
//
// The paper's experiments use softmax + cross-entropy (§VII-A); the
// sigmoid+BCE multi-label loss covers the delicious-style setting where an
// example carries several labels at once.
#pragma once

#include <cstdint>
#include <span>

#include "tensor/matrix.hpp"

namespace hetsgd::nn {

// Mean softmax cross-entropy over the batch. `logits` is B x C, `labels`
// holds B class indices in [0, C). If `dlogits` is non-null it receives
// dLoss/dlogits = (softmax(logits) - onehot) / B; it must not overlap
// `logits`.
tensor::Scalar softmax_cross_entropy(tensor::ConstMatrixView logits,
                                     std::span<const std::int32_t> labels,
                                     tensor::MatrixView* dlogits);

// Sigmoid binary cross-entropy summed over the C classes of each example
// and averaged over the B examples. `targets` is B x C of {0,1}. If
// `dlogits` is non-null it receives
// dLoss/dlogits = (sigmoid(logits) - targets) / B, divided by B only so
// magnitudes are comparable with softmax.
tensor::Scalar sigmoid_bce(tensor::ConstMatrixView logits,
                           tensor::ConstMatrixView targets,
                           tensor::MatrixView* dlogits);

}  // namespace hetsgd::nn

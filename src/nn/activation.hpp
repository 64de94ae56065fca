// Activation functions for the fully-connected layers.
//
// The paper uses sigmoid in hidden layers and softmax at the output
// (§VII-A Methodology); tanh/ReLU/identity are provided for the framework's
// role as a general testbed.
#pragma once

#include "tensor/matrix.hpp"
#include "tensor/microkernel.hpp"

namespace hetsgd::nn {

enum class Activation {
  kIdentity,
  kSigmoid,
  kTanh,
  kRelu,
};

// Fused-GEMM epilogue computing bias-add + this activation during the C
// write-back (tensor::gemm_bias_act): the forward pass applies activations
// only there. tensor::detail::epilogue_apply(bias_act_epilogue(a), z) is
// the scalar form.
tensor::Epilogue bias_act_epilogue(Activation a);

// Multiplies `delta` in place by f'(z) expressed through the *activated*
// values `activated` (all supported activations admit this form:
// sigmoid' = a(1-a), tanh' = 1-a^2, relu' = [a > 0], identity' = 1).
void activation_backward(Activation a, tensor::ConstMatrixView activated,
                         tensor::MatrixView delta);

// Scalar form of the factor activation_backward applies.
tensor::Scalar activation_derivative_from_output(Activation a,
                                                 tensor::Scalar activated);

}  // namespace hetsgd::nn

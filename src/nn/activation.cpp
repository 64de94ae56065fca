#include "nn/activation.hpp"

#include "common/macros.hpp"

namespace hetsgd::nn {

tensor::Epilogue bias_act_epilogue(Activation a) {
  switch (a) {
    case Activation::kIdentity: return tensor::Epilogue::kBias;
    case Activation::kSigmoid:  return tensor::Epilogue::kBiasSigmoid;
    case Activation::kTanh:     return tensor::Epilogue::kBiasTanh;
    case Activation::kRelu:     return tensor::Epilogue::kBiasRelu;
  }
  HETSGD_UNREACHABLE("unknown activation");
}

tensor::Scalar activation_derivative_from_output(Activation a,
                                                 tensor::Scalar v) {
  switch (a) {
    case Activation::kIdentity: return tensor::Scalar{1};
    case Activation::kSigmoid:  return v * (tensor::Scalar{1} - v);
    case Activation::kTanh:     return tensor::Scalar{1} - v * v;
    case Activation::kRelu:     return v > 0 ? tensor::Scalar{1} : tensor::Scalar{0};
  }
  HETSGD_UNREACHABLE("unknown activation");
}

void activation_backward(Activation a, tensor::ConstMatrixView activated,
                         tensor::MatrixView delta) {
  HETSGD_ASSERT(activated.rows() == delta.rows() &&
                    activated.cols() == delta.cols(),
                "activation_backward shape mismatch");
  if (a == Activation::kIdentity) return;
  const tensor::Scalar* av = activated.data();
  tensor::Scalar* dv = delta.data();
  const tensor::Index n = delta.size();
  for (tensor::Index i = 0; i < n; ++i) {
    dv[i] *= activation_derivative_from_output(a, av[i]);
  }
}

}  // namespace hetsgd::nn

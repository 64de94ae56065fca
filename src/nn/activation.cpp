#include "nn/activation.hpp"

#include "common/macros.hpp"

namespace hetsgd::nn {

const char* activation_name(Activation a) {
  switch (a) {
    case Activation::kIdentity: return "identity";
    case Activation::kSigmoid:  return "sigmoid";
    case Activation::kTanh:     return "tanh";
    case Activation::kRelu:     return "relu";
  }
  return "?";
}

bool parse_activation(const std::string& name, Activation& out) {
  if (name == "identity") { out = Activation::kIdentity; return true; }
  if (name == "sigmoid")  { out = Activation::kSigmoid;  return true; }
  if (name == "tanh")     { out = Activation::kTanh;     return true; }
  if (name == "relu")     { out = Activation::kRelu;     return true; }
  return false;
}

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

// An independent reference MLP for the tests: the forward pass, both
// losses, back-propagation and the SGD step written as plain loops that
// accumulate in double, with their own activations. It shares no code with
// what it checks — no tensor:: kernel and no nn:: forward, loss or
// activation function — and touches the model and the inputs only to read
// and write their parameters and entries.
//
// Conventions follow the library's: layer l holds W (out x in) and a bias
// row, hidden layers apply the config's activation and the output layer
// keeps raw logits; softmax cross-entropy and sigmoid BCE are means over
// the batch (BCE summed over the classes of each example), so dLoss/dlogits
// carries a 1/batch factor.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "nn/model.hpp"
#include "tensor/matrix.hpp"

namespace hetsgd::ref {

using Rows = std::vector<std::vector<double>>;

inline double activate(nn::Activation act, double z) {
  switch (act) {
    case nn::Activation::kSigmoid:
      return 1.0 / (1.0 + std::exp(-z));
    case nn::Activation::kTanh:
      return std::tanh(z);
    case nn::Activation::kRelu:
      return z > 0.0 ? z : 0.0;
    case nn::Activation::kIdentity:
      return z;
  }
  return z;
}

// d act / dz at pre-activation z, whose activation is y.
inline double activate_slope(nn::Activation act, double z, double y) {
  switch (act) {
    case nn::Activation::kSigmoid:
      return y * (1.0 - y);
    case nn::Activation::kTanh:
      return 1.0 - y * y;
    case nn::Activation::kRelu:
      return z > 0.0 ? 1.0 : 0.0;
    case nn::Activation::kIdentity:
      return 1.0;
  }
  return 1.0;
}

// Pre-activations and activations of every layer; act.back() holds the
// logits.
struct Trace {
  std::vector<Rows> pre;
  std::vector<Rows> act;
};

inline Rows to_rows(tensor::ConstMatrixView m) {
  Rows rows(static_cast<std::size_t>(m.rows()),
            std::vector<double>(static_cast<std::size_t>(m.cols())));
  for (tensor::Index r = 0; r < m.rows(); ++r) {
    for (tensor::Index c = 0; c < m.cols(); ++c) {
      rows[r][c] = m(r, c);
    }
  }
  return rows;
}

inline Trace forward(const nn::Model& model, tensor::ConstMatrixView x) {
  Trace t;
  Rows input = to_rows(x);
  const std::size_t layers = model.layer_count();
  for (std::size_t l = 0; l < layers; ++l) {
    const tensor::Matrix& w = model.layer(l).weights;
    const tensor::Matrix& b = model.layer(l).bias;
    Rows pre(input.size(), std::vector<double>(w.rows()));
    Rows out = pre;
    for (std::size_t r = 0; r < input.size(); ++r) {
      for (tensor::Index o = 0; o < w.rows(); ++o) {
        double z = b(0, o);
        for (tensor::Index i = 0; i < w.cols(); ++i) {
          z += w(o, i) * input[r][i];
        }
        pre[r][o] = z;
        out[r][o] = l + 1 < layers
                        ? activate(model.config().hidden_activation, z)
                        : z;
      }
    }
    t.pre.push_back(pre);
    t.act.push_back(out);
    input = out;
  }
  return t;
}

inline Rows logits(const nn::Model& model, tensor::ConstMatrixView x) {
  return forward(model, x).act.back();
}

// Fills *grad (the model's shape) from dLoss/dlogits.
inline void backward(const nn::Model& model, tensor::ConstMatrixView x,
                     const Trace& t, Rows delta, nn::Gradient* grad) {
  const Rows input = to_rows(x);
  for (std::size_t l = model.layer_count(); l-- > 0;) {
    const Rows& prev = l == 0 ? input : t.act[l - 1];
    const tensor::Matrix& w = model.layer(l).weights;
    tensor::Matrix& gw = grad->layer(l).weights;
    tensor::Matrix& gb = grad->layer(l).bias;
    for (tensor::Index o = 0; o < w.rows(); ++o) {
      double db = 0.0;
      for (std::size_t r = 0; r < delta.size(); ++r) db += delta[r][o];
      gb(0, o) = db;
      for (tensor::Index i = 0; i < w.cols(); ++i) {
        double dw = 0.0;
        for (std::size_t r = 0; r < delta.size(); ++r) {
          dw += delta[r][o] * prev[r][i];
        }
        gw(o, i) = dw;
      }
    }
    if (l == 0) break;
    Rows next(delta.size(), std::vector<double>(w.cols()));
    for (std::size_t r = 0; r < delta.size(); ++r) {
      for (tensor::Index i = 0; i < w.cols(); ++i) {
        double s = 0.0;
        for (tensor::Index o = 0; o < w.rows(); ++o) {
          s += delta[r][o] * w(o, i);
        }
        next[r][i] = s * activate_slope(model.config().hidden_activation,
                                        t.pre[l - 1][r][i],
                                        t.act[l - 1][r][i]);
      }
    }
    delta = next;
  }
}

// Mean softmax cross-entropy of `model` on (x, labels); fills *grad when
// it is non-null.
inline double softmax_xent(const nn::Model& model, tensor::ConstMatrixView x,
                           std::span<const std::int32_t> labels,
                           nn::Gradient* grad = nullptr) {
  const Trace t = forward(model, x);
  const Rows& z = t.act.back();
  const double n = static_cast<double>(z.size());
  double loss = 0.0;
  Rows delta = z;
  for (std::size_t r = 0; r < z.size(); ++r) {
    const double mx = *std::max_element(z[r].begin(), z[r].end());
    double sum = 0.0;
    for (double v : z[r]) sum += std::exp(v - mx);
    const std::size_t y = static_cast<std::size_t>(labels[r]);
    loss += mx + std::log(sum) - z[r][y];
    for (std::size_t c = 0; c < z[r].size(); ++c) {
      delta[r][c] = (std::exp(z[r][c] - mx) / sum - (c == y ? 1.0 : 0.0)) / n;
    }
  }
  if (grad != nullptr) backward(model, x, t, delta, grad);
  return loss / n;
}

// Mean (per example, summed over classes) sigmoid binary cross-entropy of
// `model` on (x, targets); fills *grad when it is non-null.
inline double sigmoid_bce(const nn::Model& model, tensor::ConstMatrixView x,
                          tensor::ConstMatrixView targets,
                          nn::Gradient* grad = nullptr) {
  const Trace t = forward(model, x);
  const Rows& z = t.act.back();
  const double n = static_cast<double>(z.size());
  double loss = 0.0;
  Rows delta = z;
  for (std::size_t r = 0; r < z.size(); ++r) {
    for (std::size_t c = 0; c < z[r].size(); ++c) {
      const double p = 1.0 / (1.0 + std::exp(-z[r][c]));
      const double y = targets(static_cast<tensor::Index>(r),
                               static_cast<tensor::Index>(c));
      loss -= y * std::log(p) + (1.0 - y) * std::log(1.0 - p);
      delta[r][c] = (p - y) / n;
    }
  }
  if (grad != nullptr) backward(model, x, t, delta, grad);
  return loss / n;
}

// model <- model - eta * grad, parameter by parameter.
inline void sgd(nn::Model& model, const nn::Gradient& grad, double eta) {
  for (std::size_t l = 0; l < model.layer_count(); ++l) {
    tensor::Matrix* params[] = {&model.layer(l).weights,
                                &model.layer(l).bias};
    const tensor::Matrix* grads[] = {&grad.layer(l).weights,
                                     &grad.layer(l).bias};
    for (int k = 0; k < 2; ++k) {
      for (tensor::Index r = 0; r < params[k]->rows(); ++r) {
        for (tensor::Index c = 0; c < params[k]->cols(); ++c) {
          (*params[k])(r, c) -= eta * (*grads[k])(r, c);
        }
      }
    }
  }
}

}  // namespace hetsgd::ref

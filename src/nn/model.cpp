#include "nn/model.hpp"

#include <algorithm>
#include <cmath>

#include "common/macros.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace hetsgd::nn {

std::vector<LayerShape> MlpConfig::layer_shapes() const {
  std::vector<LayerShape> shapes;
  shapes.reserve(static_cast<std::size_t>(hidden_layers) + 1);
  tensor::Index in = input_dim;
  for (int l = 0; l < hidden_layers; ++l) {
    shapes.push_back({in, hidden_units});
    in = hidden_units;
  }
  shapes.push_back({in, num_classes});
  return shapes;
}

std::uint64_t MlpConfig::parameter_count() const {
  std::uint64_t total = 0;
  for (const auto& s : layer_shapes()) {
    total += static_cast<std::uint64_t>(s.in) * s.out + s.out;
  }
  return total;
}

void MlpConfig::validate() const {
  HETSGD_ASSERT(input_dim > 0, "MlpConfig: input_dim must be positive");
  HETSGD_ASSERT(num_classes >= 2, "MlpConfig: need at least two classes");
  HETSGD_ASSERT(hidden_layers >= 0, "MlpConfig: negative hidden layer count");
  HETSGD_ASSERT(hidden_layers == 0 || hidden_units > 0,
                "MlpConfig: hidden_units must be positive");
}

double training_flops(const MlpConfig& config, tensor::Index batch) {
  double flops = 0;
  for (const auto& s : config.layer_shapes()) {
    // Forward GEMM + two backward GEMMs (dW and delta propagation), each
    // 2*m*n*k; element-wise work is negligible by comparison.
    flops += 3.0 * tensor::gemm_flops(batch, s.out, s.in);
  }
  return flops;
}

namespace {

void init_layer(Layer& layer, InitScheme scheme, Rng& rng) {
  const tensor::Index fan_in = layer.weights.cols();
  switch (scheme) {
    case InitScheme::kScaledNormal: {
      const tensor::Scalar stddev =
          tensor::Scalar{1} / std::sqrt(static_cast<tensor::Scalar>(fan_in));
      tensor::fill_normal(layer.weights.view(), rng, 0, stddev);
      layer.bias.set_zero();
      break;
    }
    case InitScheme::kGlorotUniform: {
      const tensor::Index fan_out = layer.weights.rows();
      const tensor::Scalar limit =
          std::sqrt(tensor::Scalar{6} /
                    static_cast<tensor::Scalar>(fan_in + fan_out));
      tensor::fill_uniform(layer.weights.view(), rng, -limit, limit);
      layer.bias.set_zero();
      break;
    }
    case InitScheme::kZero:
      layer.weights.set_zero();
      layer.bias.set_zero();
      break;
  }
}

}  // namespace

Model::Model(const MlpConfig& config) : config_(config) {
  config_.validate();
  for (const auto& s : config_.layer_shapes()) {
    Layer layer;
    layer.weights = tensor::Matrix(s.out, s.in);
    layer.bias = tensor::Matrix(1, s.out);
    layers_.push_back(std::move(layer));
  }
}

Model::Model(const MlpConfig& config, Rng& rng) : Model(config) {
  initialize(rng);
}

std::uint64_t Model::parameter_count() const {
  std::uint64_t total = 0;
  for (const auto& l : layers_) {
    total += static_cast<std::uint64_t>(l.weights.size()) + l.bias.size();
  }
  return total;
}

void Model::initialize(Rng& rng) {
  for (auto& layer : layers_) {
    init_layer(layer, config_.init, rng);
  }
}

void Model::set_zero() {
  for (auto& layer : layers_) {
    layer.weights.set_zero();
    layer.bias.set_zero();
  }
}

// hetsgd-racy: when `this` is the shared global model, the tensor::axpy
// calls below are the GPU worker's unsynchronized host merge, which writes
// the shared parameters while the Hogwild lanes read and write them in
// place and other workers snapshot them (race:hetsgd::tensor::axpy in
// scripts/tsan.supp). The race IS the algorithm; do not add locking here.
void Model::axpy(tensor::Scalar alpha, const Model& other) {
  HETSGD_ASSERT(same_shape(other), "Model::axpy shape mismatch");
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    tensor::axpy(alpha, other.layers_[l].weights.view(),
                 layers_[l].weights.view());
    tensor::axpy(alpha, other.layers_[l].bias.view(), layers_[l].bias.view());
  }
}

tensor::Scalar Model::max_abs_diff(const Model& other) const {
  HETSGD_ASSERT(same_shape(other), "Model::max_abs_diff shape mismatch");
  tensor::Scalar best = 0;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    best = std::max(best, tensor::max_abs_diff(layers_[l].weights.view(),
                                               other.layers_[l].weights.view()));
    best = std::max(best, tensor::max_abs_diff(layers_[l].bias.view(),
                                               other.layers_[l].bias.view()));
  }
  return best;
}

bool Model::all_finite() const {
  for (const auto& l : layers_) {
    if (!tensor::all_finite(l.weights.view())) return false;
    if (!tensor::all_finite(l.bias.view())) return false;
  }
  return true;
}

bool Model::same_shape(const Model& other) const {
  if (layers_.size() != other.layers_.size()) return false;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    if (!layers_[l].weights.same_shape(other.layers_[l].weights)) return false;
    if (!layers_[l].bias.same_shape(other.layers_[l].bias)) return false;
  }
  return true;
}

Gradient make_zero_gradient(const Model& model) {
  return Gradient(model.config());
}

}  // namespace hetsgd::nn

// The DNN model: a stack of fully-connected layers (§III).
//
// Layer l holds W^l ∈ R^{d_{l+1} x d_l} (row-major, one row per output
// unit, matching Eq. (1)'s W·x convention) and a bias row b^l ∈ R^{1 x
// d_{l+1}}. The same structure doubles as a gradient container.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/activation.hpp"
#include "tensor/matrix.hpp"

namespace hetsgd::nn {

// Weight initialization schemes.
enum class InitScheme {
  // N(0, 1/sqrt(fan_in)) — the stabilized reading of the paper's "normal
  // distribution with standard deviation equal to the number of units in
  // the current layer" (taken verbatim the loss overflows immediately).
  kScaledNormal,
  // Glorot/Xavier uniform.
  kGlorotUniform,
  // All zeros (gradient containers, tests).
  kZero,
};

struct LayerShape {
  tensor::Index in = 0;
  tensor::Index out = 0;
};

// Network architecture description.
struct MlpConfig {
  tensor::Index input_dim = 0;
  tensor::Index num_classes = 0;
  // Hidden layers, all `hidden_units` wide (paper: 512 units; 4-8 layers).
  int hidden_layers = 1;
  tensor::Index hidden_units = 512;
  Activation hidden_activation = Activation::kSigmoid;
  InitScheme init = InitScheme::kScaledNormal;

  // Shapes of all P = hidden_layers + 1 weight layers.
  std::vector<LayerShape> layer_shapes() const;
  // Total number of trainable parameters.
  std::uint64_t parameter_count() const;
  // Validates and aborts on an inconsistent configuration.
  void validate() const;
};

// Approximate FLOPs of one forward+backward pass over `batch` examples —
// the quantity the gpusim perf model charges for a training step.
double training_flops(const MlpConfig& config, tensor::Index batch);

struct Layer {
  tensor::Matrix weights;  // out x in
  tensor::Matrix bias;     // 1 x out
};

// The model W = {W^1 … W^P}. Value semantics: copying a Model is the "deep
// copy" the GPU worker performs; CPU workers share one instance by
// reference (Hogwild).
//
// hetsgd-racy: the implicitly-generated copy constructor / operator= are a
// sanctioned race site when the source is the shared global model — the
// GPU worker's upload snapshot and the coordinator's loss-evaluation
// snapshot/rollback deliberately copy while Hogwild lanes write
// (race:hetsgd::nn::Model::operator= in scripts/tsan.supp).
class Model {
 public:
  Model() = default;
  // Builds a zero model from a config (a gradient container, a device
  // replica awaiting its first upload).
  explicit Model(const MlpConfig& config);
  // Builds and initializes from a config.
  Model(const MlpConfig& config, Rng& rng);

  const MlpConfig& config() const { return config_; }
  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t l) { return layers_[l]; }
  const Layer& layer(std::size_t l) const { return layers_[l]; }

  std::uint64_t parameter_count() const;

  // Reinitializes weights (same scheme/seed discipline as construction).
  void initialize(Rng& rng);

  // Sets all parameters to zero (turning the model into a gradient buffer).
  void set_zero();

  // this += alpha * other, layer by layer. This is the SGD update when
  // `other` is a gradient and alpha = -eta (the replica workers' host
  // merge); it is intentionally free of any synchronization so Hogwild
  // semantics apply when the model is shared.
  void axpy(tensor::Scalar alpha, const Model& other);

  // Max |a - b| over all parameters (tests, staleness measurements).
  tensor::Scalar max_abs_diff(const Model& other) const;

  // True if every parameter is finite.
  bool all_finite() const;

  // Structural equality of shapes (not values).
  bool same_shape(const Model& other) const;

 private:
  MlpConfig config_;
  std::vector<Layer> layers_;
};

// A gradient has exactly the model's structure.
using Gradient = Model;

// Builds a zero gradient matching `model`'s shape.
Gradient make_zero_gradient(const Model& model);

}  // namespace hetsgd::nn

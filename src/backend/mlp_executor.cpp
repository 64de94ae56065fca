#include "backend/mlp_executor.hpp"

#include <algorithm>

#include "common/macros.hpp"
#include "nn/activation.hpp"

namespace hetsgd::backend {

using tensor::Index;
using tensor::Scalar;

MlpExecutor::MlpExecutor(Backend& backend, const nn::MlpConfig& config,
                         Index max_batch)
    : backend_(backend), config_(config), max_batch_(max_batch) {
  config_.validate();
  HETSGD_ASSERT(max_batch > 0, "max_batch must be positive");
  const auto shapes = config_.layer_shapes();
  // Activations and deltas in both modes; in device mode also the private
  // replica, its gradient and the input staging rows. The bytes are
  // reserved before anything is allocated, so an executor that does not
  // fit aborts like a failed cudaMalloc.
  const auto batch_rows = static_cast<std::uint64_t>(max_batch);
  std::uint64_t scalars = 0;
  for (const auto& s : shapes) {
    scalars += 2 * batch_rows * static_cast<std::uint64_t>(s.out);
  }
  if (!backend_.zero_copy()) {
    scalars += 2 * config_.parameter_count() +
               batch_rows * static_cast<std::uint64_t>(config_.input_dim);
  }
  backend_.reserve(scalars * sizeof(Scalar));
  device_bytes_ = scalars * sizeof(Scalar);
  acts_.reserve(shapes.size());
  deltas_.reserve(shapes.size());
  for (const auto& s : shapes) {
    acts_.emplace_back(max_batch, s.out);
    deltas_.emplace_back(max_batch, s.out);
  }
  if (backend_.zero_copy()) {  // the replica is bound later
    bias_steps_.reserve(shapes.size());
    for (const auto& s : shapes) bias_steps_.emplace_back(1, s.out);
    return;
  }
  device_replica_ = nn::Model(config_);
  device_gradient_ = nn::Model(config_);
  replica_ = &device_replica_;
  gradient_ = &device_gradient_;
  input_csr_ = tensor::CsrMatrix(config_.input_dim);
}

MlpExecutor::~MlpExecutor() { release_buffers(); }

void MlpExecutor::bind_shared_model(nn::Model& model) {
  HETSGD_ASSERT(backend_.zero_copy(),
                "bind_shared_model requires a zero-copy backend");
  HETSGD_ASSERT(model.layer_count() == acts_.size(),
                "model/config layer count mismatch");
  replica_ = &model;
}

void MlpExecutor::bind_host_gradient(nn::Gradient& grad) {
  HETSGD_ASSERT(backend_.zero_copy(),
                "bind_host_gradient requires a zero-copy backend");
  HETSGD_ASSERT(grad.layer_count() == acts_.size(),
                "gradient/config layer count mismatch");
  gradient_ = &grad;
}

void MlpExecutor::upload_model(const nn::Model& model) {
  if (backend_.zero_copy()) return;  // the replica IS the model
  HETSGD_ASSERT(replica_ != nullptr &&
                    model.layer_count() == replica_->layer_count(),
                "model/replica layer count mismatch");
  for (std::size_t l = 0; l < model.layer_count(); ++l) {
    nn::Layer& device = replica_->layer(l);
    backend_.upload(model.layer(l).weights.view(), device.weights.view());
    backend_.upload(model.layer(l).bias.view(), device.bias.view());
  }
}

tensor::BatchView MlpExecutor::run_forward(tensor::BatchView x,
                                           std::uint64_t target_bytes) {
  const Index batch = x.rows();
  HETSGD_ASSERT(batch > 0 && batch <= max_batch_, "batch exceeds max_batch");
  HETSGD_ASSERT(x.cols() == config_.input_dim, "batch width mismatch");
  HETSGD_ASSERT(replica_ != nullptr,
                "executor not bound (zero-copy backends need bind_* first)");

  // H2D: the batch itself, the labels or targets riding along (charged
  // without a dedicated buffer — the loss kernel is the only consumer).
  // Zero-copy backends read the dataset rows in place.
  tensor::BatchView input = x;
  if (!backend_.zero_copy() && x.is_csr()) {
    backend_.stage_batch(x.csr(), input_csr_, target_bytes);
    input = input_csr_.view();
  } else if (!backend_.zero_copy()) {
    if (input_.empty()) input_ = tensor::Matrix(max_batch_, config_.input_dim);
    const tensor::MatrixView staged = input_.rows_view(0, batch);
    backend_.stage_batch(x.dense(), staged, target_bytes);
    input = staged;
  }

  // Forward: per layer one fused kernel out = act(A_prev * W^T + b); the
  // output layer keeps raw logits (bias only).
  const std::size_t layers = acts_.size();
  for (std::size_t l = 0; l < layers; ++l) {
    const tensor::Epilogue ep =
        l + 1 < layers ? nn::bias_act_epilogue(config_.hidden_activation)
                       : tensor::Epilogue::kBias;
    const nn::Layer& layer = replica_->layer(l);
    const tensor::MatrixView out = acts_[l].rows_view(0, batch);
    if (l == 0 && input.is_csr()) {
      backend_.gemm_bias_act(input.csr(), layer.weights.view(),
                             layer.bias.view(), out, ep);
    } else {
      const tensor::ConstMatrixView prev =
          l == 0 ? input.dense() : acts_[l - 1].rows_view(0, batch);
      backend_.gemm_bias_act(prev, layer.weights.view(), layer.bias.view(),
                             out, ep);
    }
  }
  return input;
}

void MlpExecutor::weight_product(std::size_t l, tensor::BatchView input,
                                 Scalar alpha, tensor::ConstMatrixView delta,
                                 Scalar beta, tensor::MatrixView out) {
  if (l == 0 && input.is_csr()) {
    backend_.matmul_tn(alpha, delta, input.csr(), beta, out);
    return;
  }
  const tensor::ConstMatrixView prev_act =
      l == 0 ? input.dense() : acts_[l - 1].rows_view(0, input.rows());
  backend_.matmul_tn(alpha, delta, prev_act, beta, out);
}

void MlpExecutor::run_backward(tensor::BatchView input,
                               const Scalar* step_eta) {
  const bool in_place = step_eta != nullptr;
  HETSGD_ASSERT(in_place || gradient_ != nullptr,
                "executor not bound (zero-copy backends need bind_* first)");
  const Index batch = input.rows();
  for (std::size_t l = acts_.size(); l-- > 0;) {
    const tensor::MatrixView delta = deltas_[l].rows_view(0, batch);
    if (!in_place) {
      // dW = delta^T * prev_act; db = column sums of delta.
      nn::Layer& grad = gradient_->layer(l);
      weight_product(l, input, Scalar{1}, delta, Scalar{0},
                     grad.weights.view());
      backend_.col_sums(delta, grad.bias.view());
    }
    if (l > 0) {
      // delta_{l-1} = (delta_l * W^l) ⊙ act'(a_{l-1}), read from W^l
      // before the in-place step writes it.
      const tensor::MatrixView prev_delta = deltas_[l - 1].rows_view(0, batch);
      backend_.matmul_nn(delta, replica_->layer(l).weights.view(),
                         prev_delta);
      backend_.activation_backward(config_.hidden_activation,
                                   acts_[l - 1].rows_view(0, batch),
                                   prev_delta);
    }
    if (in_place) step_layer(l, *step_eta, delta, input);
  }
}

Scalar MlpExecutor::compute_gradient(tensor::BatchView x,
                                     std::span<const std::int32_t> labels) {
  return train_softmax(x, labels, nullptr);
}

Scalar MlpExecutor::sgd_step(tensor::BatchView x,
                             std::span<const std::int32_t> labels,
                             Scalar eta) {
  HETSGD_ASSERT(backend_.zero_copy(),
                "sgd_step requires a zero-copy backend");
  return train_softmax(x, labels, &eta);
}

Scalar MlpExecutor::train_softmax(tensor::BatchView x,
                                  std::span<const std::int32_t> labels,
                                  const Scalar* step_eta) {
  const Index batch = x.rows();
  HETSGD_ASSERT(static_cast<Index>(labels.size()) == batch,
                "label count mismatch");
  const tensor::BatchView input = run_forward(
      x, static_cast<std::uint64_t>(batch) * sizeof(std::int32_t));
  // Loss + dLoss/dlogits (fused softmax-xent kernel).
  Scalar loss = 0;
  tensor::MatrixView dlogits = deltas_.back().rows_view(0, batch);
  backend_.softmax_xent(acts_.back().rows_view(0, batch), labels, &dlogits,
                        &loss);
  run_backward(input, step_eta);
  return loss;
}

Scalar MlpExecutor::compute_gradient(tensor::BatchView x,
                                     tensor::ConstMatrixView targets) {
  const Index batch = x.rows();
  HETSGD_ASSERT(targets.rows() == batch &&
                    targets.cols() == config_.num_classes,
                "targets shape mismatch");
  const tensor::BatchView input = run_forward(
      x, static_cast<std::uint64_t>(targets.size()) * sizeof(Scalar));
  Scalar loss = 0;
  backend_.sigmoid_bce(acts_.back().rows_view(0, batch), targets,
                       deltas_.back().rows_view(0, batch), &loss);
  run_backward(input, nullptr);
  return loss;
}

// hetsgd-racy: on a Hogwild lane the replica is the shared global model,
// so these writes are the paper's unsynchronized per-coordinate update:
// other lanes read W and b mid-forward and the GPU worker and the
// coordinator snapshot them (race:hetsgd::backend::MlpExecutor::step_layer
// in scripts/tsan.supp). The race IS the algorithm; do not add locking
// here. Out of line so the suppression always finds this frame.
HETSGD_NOINLINE void MlpExecutor::step_layer(std::size_t l, Scalar eta,
                                             tensor::ConstMatrixView delta,
                                             tensor::BatchView input) {
  nn::Layer& layer = replica_->layer(l);
  weight_product(l, input, -eta, delta, Scalar{1}, layer.weights.view());
  const tensor::MatrixView db = bias_steps_[l].view();
  backend_.col_sums(delta, db);
  backend_.axpy(-eta, db, layer.bias.view());
}

tensor::ConstMatrixView MlpExecutor::forward(tensor::BatchView x) {
  run_forward(x, 0);
  return acts_.back().rows_view(0, x.rows());
}

double MlpExecutor::mean_loss(tensor::BatchView x,
                              std::span<const std::int32_t> labels) {
  const Index n = x.rows();
  HETSGD_ASSERT(static_cast<Index>(labels.size()) == n,
                "label count mismatch");
  double total = 0.0;
  for (Index begin = 0; begin < n; begin += nn::kEvalChunkRows) {
    const Index count = std::min(nn::kEvalChunkRows, n - begin);
    run_forward(x.rows_view(begin, count),
                static_cast<std::uint64_t>(count) * sizeof(std::int32_t));
    // No dlogits: the loss alone, no delta written.
    Scalar loss = 0;
    backend_.softmax_xent(acts_.back().rows_view(0, count),
                          labels.subspan(static_cast<std::size_t>(begin),
                                         static_cast<std::size_t>(count)),
                          nullptr, &loss);
    total += static_cast<double>(loss) * static_cast<double>(count);
  }
  return total / static_cast<double>(n);
}

void MlpExecutor::apply_gradient(Scalar eta) {
  for (std::size_t l = 0; l < acts_.size(); ++l) {
    nn::Layer& layer = replica_->layer(l);
    const nn::Layer& grad = gradient_->layer(l);
    backend_.axpy(-eta, grad.weights.view(), layer.weights.view());
    backend_.axpy(-eta, grad.bias.view(), layer.bias.view());
  }
}

void MlpExecutor::download_gradient(nn::Gradient& grad) {
  if (backend_.zero_copy()) return;  // already in host storage
  HETSGD_ASSERT(gradient_ != nullptr &&
                    grad.layer_count() == gradient_->layer_count(),
                "gradient layer count mismatch");
  for (std::size_t l = 0; l < grad.layer_count(); ++l) {
    const nn::Layer& device = gradient_->layer(l);
    backend_.download(device.weights.view(), grad.layer(l).weights.view());
    backend_.download(device.bias.view(), grad.layer(l).bias.view());
  }
}

void MlpExecutor::release_buffers() {
  backend_.release(device_bytes_);
  device_bytes_ = 0;
  device_replica_ = nn::Model();
  device_gradient_ = nn::Gradient();
  replica_ = nullptr;
  gradient_ = nullptr;
  acts_.clear();
  deltas_.clear();
  bias_steps_.clear();
  input_ = tensor::Matrix();
  input_csr_ = tensor::CsrMatrix();
}

}  // namespace hetsgd::backend

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
  acts_.reserve(shapes.size());
  deltas_.reserve(shapes.size());
  if (backend_.zero_copy()) {
    // The replica and gradient alias live host storage once bound; only
    // scratch (activations/deltas) is allocated. The input handle starts
    // unbound and is re-aliased onto each batch by stage_batch().
    for (const auto& s : shapes) {
      acts_.push_back(backend_.alloc(max_batch, s.out));
      deltas_.push_back(backend_.alloc(max_batch, s.out));
    }
    input_ = backend_.adopt(
        tensor::MatrixView(nullptr, 0, config_.input_dim));
    return;
  }
  // Private replica: allocate in the order the DeviceMlp always has, so a
  // capacity-exceeded abort fires on the same allocation.
  replica_.reserve(shapes.size());
  gradient_.reserve(shapes.size());
  for (const auto& s : shapes) {
    replica_.push_back(
        {backend_.alloc(s.out, s.in), backend_.alloc(1, s.out)});
    gradient_.push_back(
        {backend_.alloc(s.out, s.in), backend_.alloc(1, s.out)});
    acts_.push_back(backend_.alloc(max_batch, s.out));
    deltas_.push_back(backend_.alloc(max_batch, s.out));
  }
  input_ = backend_.alloc(max_batch, config_.input_dim);
}

MlpExecutor::~MlpExecutor() {
  if (!released_) release_buffers();
}

void MlpExecutor::bind_shared_model(nn::Model& model) {
  HETSGD_ASSERT(backend_.zero_copy(),
                "bind_shared_model requires a zero-copy backend");
  HETSGD_ASSERT(model.layer_count() == config_.layer_shapes().size(),
                "model/config layer count mismatch");
  replica_.clear();
  for (std::size_t l = 0; l < model.layer_count(); ++l) {
    replica_.push_back({backend_.adopt(model.layer(l).weights.view()),
                        backend_.adopt(model.layer(l).bias.view())});
  }
  model_bound_ = true;
}

void MlpExecutor::bind_host_gradient(nn::Gradient& grad) {
  HETSGD_ASSERT(backend_.zero_copy(),
                "bind_host_gradient requires a zero-copy backend");
  HETSGD_ASSERT(grad.layer_count() == config_.layer_shapes().size(),
                "gradient/config layer count mismatch");
  gradient_.clear();
  for (std::size_t l = 0; l < grad.layer_count(); ++l) {
    gradient_.push_back({backend_.adopt(grad.layer(l).weights.view()),
                         backend_.adopt(grad.layer(l).bias.view())});
  }
  gradient_bound_ = true;
}

std::uint64_t MlpExecutor::device_bytes() const {
  std::uint64_t total = backend_.zero_copy() ? 0 : input_.bytes();
  for (std::size_t l = 0; l < acts_.size(); ++l) {
    if (!model_bound_ && l < replica_.size()) {
      total += replica_[l].weights.bytes() + replica_[l].bias.bytes();
    }
    if (!gradient_bound_ && l < gradient_.size()) {
      total += gradient_[l].weights.bytes() + gradient_[l].bias.bytes();
    }
    total += acts_[l].bytes() + deltas_[l].bytes();
  }
  return total;
}

double MlpExecutor::upload_model(const nn::Model& model, double issue_time) {
  if (model_bound_) return issue_time;  // the replica IS the model
  HETSGD_ASSERT(model.layer_count() == replica_.size(),
                "model/replica layer count mismatch");
  double t = issue_time;
  for (std::size_t l = 0; l < replica_.size(); ++l) {
    t = backend_.upload(model.layer(l).weights.view(), replica_[l].weights,
                        issue_time);
    t = backend_.upload(model.layer(l).bias.view(), replica_[l].bias,
                        issue_time);
  }
  return t;
}

void MlpExecutor::run_forward(tensor::ConstMatrixView x,
                              std::uint64_t target_bytes, double issue_time) {
  const Index batch = x.rows();
  HETSGD_ASSERT(batch > 0 && batch <= max_batch_, "batch exceeds max_batch");
  HETSGD_ASSERT(x.cols() == config_.input_dim, "batch width mismatch");
  HETSGD_ASSERT(!replica_.empty(),
                "executor not bound (zero-copy backends need bind_* first)");

  // H2D: the batch itself, the labels or targets riding along (charged
  // without a dedicated buffer — the loss kernel is the only consumer).
  backend_.stage_batch(x, input_, target_bytes, issue_time);

  // Forward: per layer one fused kernel out = act(A_prev * W^T + b); the
  // output layer keeps raw logits (bias only).
  const std::size_t layers = replica_.size();
  Buffer prev = input_;
  for (std::size_t l = 0; l < layers; ++l) {
    const tensor::Epilogue ep =
        l + 1 < layers ? nn::bias_act_epilogue(config_.hidden_activation)
                       : tensor::Epilogue::kBias;
    backend_.gemm_bias_act(prev, replica_[l].weights, replica_[l].bias,
                           acts_[l], batch, ep, issue_time);
    prev = acts_[l];
  }
}

void MlpExecutor::run_backward(Index batch, double issue_time,
                               double* completion_time) {
  HETSGD_ASSERT(!gradient_.empty(),
                "executor not bound (zero-copy backends need bind_* first)");
  for (std::size_t l = replica_.size(); l-- > 0;) {
    const Buffer& prev_act = l == 0 ? input_ : acts_[l - 1];
    // dW = delta^T * prev_act; db = column sums of delta.
    backend_.matmul_tn(deltas_[l], prev_act, batch, gradient_[l].weights,
                       issue_time);
    backend_.col_sums(deltas_[l], batch, gradient_[l].bias, issue_time);
    if (l > 0) {
      // delta_{l-1} = (delta_l * W^l) ⊙ act'(a_{l-1})
      backend_.matmul_nn(deltas_[l], replica_[l].weights, batch,
                         deltas_[l - 1], issue_time);
      backend_.activation_backward(config_.hidden_activation, acts_[l - 1],
                                   deltas_[l - 1], batch, issue_time);
    }
  }

  if (completion_time != nullptr) {
    *completion_time = backend_.synchronize(issue_time);
  }
}

Scalar MlpExecutor::compute_gradient(tensor::ConstMatrixView x,
                                     std::span<const std::int32_t> labels,
                                     double issue_time,
                                     double* completion_time) {
  const Index batch = x.rows();
  HETSGD_ASSERT(static_cast<Index>(labels.size()) == batch,
                "label count mismatch");
  run_forward(x, static_cast<std::uint64_t>(batch) * sizeof(std::int32_t),
              issue_time);
  // Loss + dLoss/dlogits (fused softmax-xent kernel).
  Scalar loss = 0;
  backend_.softmax_xent(acts_.back(), labels, deltas_.back(), batch, &loss,
                        issue_time);
  run_backward(batch, issue_time, completion_time);
  return loss;
}

Scalar MlpExecutor::compute_gradient(tensor::ConstMatrixView x,
                                     tensor::ConstMatrixView targets,
                                     double issue_time,
                                     double* completion_time) {
  const Index batch = x.rows();
  HETSGD_ASSERT(targets.rows() == batch &&
                    targets.cols() == config_.num_classes,
                "targets shape mismatch");
  run_forward(x, static_cast<std::uint64_t>(targets.size()) * sizeof(Scalar),
              issue_time);
  Scalar loss = 0;
  backend_.sigmoid_bce(acts_.back(), targets, deltas_.back(), batch, &loss,
                       issue_time);
  run_backward(batch, issue_time, completion_time);
  return loss;
}

tensor::ConstMatrixView MlpExecutor::forward(tensor::ConstMatrixView x) {
  run_forward(x, 0, 0.0);
  return backend_.view(acts_.back()).rows_view(0, x.rows());
}

double MlpExecutor::mean_loss(tensor::ConstMatrixView x,
                              std::span<const std::int32_t> labels) {
  const Index n = x.rows();
  HETSGD_ASSERT(static_cast<Index>(labels.size()) == n,
                "label count mismatch");
  double total = 0.0;
  for (Index begin = 0; begin < n; begin += nn::kEvalChunkRows) {
    const Index count = std::min(nn::kEvalChunkRows, n - begin);
    run_forward(x.rows_view(begin, count),
                static_cast<std::uint64_t>(count) * sizeof(std::int32_t), 0.0);
    // A null dlogits handle: the loss alone, no delta written.
    Scalar loss = 0;
    backend_.softmax_xent(acts_.back(),
                          labels.subspan(static_cast<std::size_t>(begin),
                                         static_cast<std::size_t>(count)),
                          Buffer{}, count, &loss, 0.0);
    total += static_cast<double>(loss) * static_cast<double>(count);
  }
  return total / static_cast<double>(n);
}

double MlpExecutor::apply_gradient(Scalar eta, double issue_time) {
  double t = issue_time;
  for (std::size_t l = 0; l < replica_.size(); ++l) {
    t = backend_.axpy(-eta, gradient_[l].weights, replica_[l].weights,
                      issue_time);
    t = backend_.axpy(-eta, gradient_[l].bias, replica_[l].bias, issue_time);
  }
  return t;
}

double MlpExecutor::download_gradient(nn::Gradient& grad, double issue_time) {
  if (gradient_bound_) return issue_time;  // already in host storage
  HETSGD_ASSERT(grad.layer_count() == gradient_.size(),
                "gradient layer count mismatch");
  double t = issue_time;
  for (std::size_t l = 0; l < gradient_.size(); ++l) {
    t = backend_.download(gradient_[l].weights, grad.layer(l).weights.view(),
                          issue_time);
    t = backend_.download(gradient_[l].bias, grad.layer(l).bias.view(),
                          issue_time);
  }
  return t;
}

double MlpExecutor::download_model(nn::Model& model, double issue_time) {
  if (model_bound_) return issue_time;
  HETSGD_ASSERT(model.layer_count() == replica_.size(),
                "model layer count mismatch");
  double t = issue_time;
  for (std::size_t l = 0; l < replica_.size(); ++l) {
    t = backend_.download(replica_[l].weights, model.layer(l).weights.view(),
                          issue_time);
    t = backend_.download(replica_[l].bias, model.layer(l).bias.view(),
                          issue_time);
  }
  return t;
}

void MlpExecutor::release_buffers() {
  for (auto& l : replica_) {
    backend_.free(l.weights);
    backend_.free(l.bias);
  }
  for (auto& l : gradient_) {
    backend_.free(l.weights);
    backend_.free(l.bias);
  }
  for (auto& b : acts_) backend_.free(b);
  for (auto& b : deltas_) backend_.free(b);
  backend_.free(input_);
  replica_.clear();
  gradient_.clear();
  acts_.clear();
  deltas_.clear();
  released_ = true;
}

}  // namespace hetsgd::backend

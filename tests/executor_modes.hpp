// Drives an MlpExecutor over a host model in either Backend mode, so one
// test body checks the replica workers' path (kDevice: upload, kernels,
// download) and the Hogwild lanes' path (kZeroCopy: the executor bound to
// the model in place) alike. The host model and gradient hold the current
// state after every call in both modes.
#pragma once

#include <ostream>
#include <span>

#include "backend/backend.hpp"
#include "backend/mlp_executor.hpp"
#include "nn/model.hpp"

namespace hetsgd::backend {

// Names the mode in test output. gtest finds PrintTo by argument-dependent
// lookup, so it lives in the mode's namespace.
inline void PrintTo(Backend::Mode mode, std::ostream* os) {
  *os << (mode == Backend::Mode::kDevice ? "kDevice" : "kZeroCopy");
}

inline gpusim::DeviceSpec spec_for(Backend::Mode mode) {
  return mode == Backend::Mode::kDevice ? gpusim::v100_spec()
                                           : gpusim::xeon56_spec();
}

inline constexpr Backend::Mode kBothModes[] = {Backend::Mode::kDevice,
                                               Backend::Mode::kZeroCopy};

class ModeRunner {
 public:
  ModeRunner(Backend::Mode mode, nn::Model& model, tensor::Index max_batch)
      : backend_(spec_for(mode), mode),
        model_(model),
        grad_(nn::make_zero_gradient(model)),
        exec_(backend_, model.config(), max_batch) {
    if (backend_.zero_copy()) {
      exec_.bind_shared_model(model_);
      exec_.bind_host_gradient(grad_);
    }
  }

  // The model's loss on the batch (class labels: softmax cross-entropy;
  // a 0/1 target matrix: sigmoid BCE); its gradient lands in grad().
  template <typename Targets>
  double gradient(tensor::BatchView x, const Targets& targets) {
    exec_.upload_model(model_);
    const double loss = exec_.compute_gradient(x, targets);
    exec_.download_gradient(grad_);
    return loss;
  }

  // model <- model - eta * grad() on the executor's side of the seam (a
  // bound model is the replica and already holds the result).
  void sgd(double eta) {
    exec_.upload_model(model_);
    exec_.apply_gradient(eta);
    if (!backend_.zero_copy()) model_ = exec_.replica();
  }

  tensor::ConstMatrixView forward(tensor::BatchView x) {
    exec_.upload_model(model_);
    return exec_.forward(x);
  }

  double mean_loss(tensor::BatchView x,
                   std::span<const std::int32_t> labels) {
    exec_.upload_model(model_);
    return exec_.mean_loss(x, labels);
  }

  const nn::Gradient& grad() const { return grad_; }

 private:
  Backend backend_;
  nn::Model& model_;
  nn::Gradient grad_;
  MlpExecutor exec_;
};

}  // namespace hetsgd::backend

#include "nn/optimizer.hpp"

#include <cmath>

#include "common/macros.hpp"
#include "nn/serialize.hpp"
#include "tensor/ops.hpp"

namespace hetsgd::nn {

using tensor::Index;
using tensor::Scalar;

const char* optimizer_name(OptimizerKind k) {
  switch (k) {
    case OptimizerKind::kSgd:      return "sgd";
    case OptimizerKind::kMomentum: return "momentum";
    case OptimizerKind::kAdam:     return "adam";
  }
  return "?";
}

bool parse_optimizer(const std::string& name, OptimizerKind& out) {
  if (name == "sgd")      { out = OptimizerKind::kSgd;      return true; }
  if (name == "momentum") { out = OptimizerKind::kMomentum; return true; }
  if (name == "adam")     { out = OptimizerKind::kAdam;     return true; }
  return false;
}

Optimizer::Optimizer(const OptimizerConfig& config, const Model& shape)
    : config_(config), shape_(&shape) {
  HETSGD_ASSERT(config_.momentum >= 0.0 && config_.momentum < 1.0,
                "momentum out of [0, 1)");
  HETSGD_ASSERT(config_.beta1 >= 0.0 && config_.beta1 < 1.0 &&
                    config_.beta2 >= 0.0 && config_.beta2 < 1.0,
                "Adam betas out of [0, 1)");
  HETSGD_ASSERT(config_.weight_decay >= 0.0, "negative weight decay");
}

void Optimizer::ensure_state(const Model& shape) {
  if (state_ready_) return;
  if (config_.kind != OptimizerKind::kSgd) {
    velocity_ = make_zero_gradient(shape);
  }
  if (config_.kind == OptimizerKind::kAdam) {
    second_ = make_zero_gradient(shape);
  }
  state_ready_ = true;
}

void Optimizer::step(Model& model, const Gradient& grad, tensor::Scalar eta) {
  HETSGD_ASSERT(model.same_shape(grad), "optimizer: model/grad mismatch");
  ensure_state(model);
  ++steps_;

  if (config_.weight_decay > 0.0) {
    // Decoupled decay: shrink weights toward zero before the step.
    const Scalar shrink =
        Scalar{1} - eta * static_cast<Scalar>(config_.weight_decay);
    for (std::size_t l = 0; l < model.layer_count(); ++l) {
      tensor::scale(shrink, model.layer(l).weights.view());
    }
  }

  switch (config_.kind) {
    case OptimizerKind::kSgd:
      model.axpy(-eta, grad);
      break;

    case OptimizerKind::kMomentum: {
      const Scalar mu = static_cast<Scalar>(config_.momentum);
      for (std::size_t l = 0; l < model.layer_count(); ++l) {
        auto apply = [&](tensor::MatrixView v, tensor::ConstMatrixView g,
                         tensor::MatrixView w) {
          Scalar* vs = v.data();
          const Scalar* gs = g.data();
          Scalar* ws = w.data();
          const Index n = v.size();
          for (Index i = 0; i < n; ++i) {
            vs[i] = mu * vs[i] + gs[i];
            ws[i] -= eta * vs[i];
          }
        };
        apply(velocity_.layer(l).weights.view(),
              grad.layer(l).weights.view(), model.layer(l).weights.view());
        apply(velocity_.layer(l).bias.view(), grad.layer(l).bias.view(),
              model.layer(l).bias.view());
      }
      break;
    }

    case OptimizerKind::kAdam: {
      const Scalar b1 = static_cast<Scalar>(config_.beta1);
      const Scalar b2 = static_cast<Scalar>(config_.beta2);
      const Scalar eps = static_cast<Scalar>(config_.epsilon);
      const Scalar bc1 =
          Scalar{1} - std::pow(b1, static_cast<Scalar>(steps_));
      const Scalar bc2 =
          Scalar{1} - std::pow(b2, static_cast<Scalar>(steps_));
      for (std::size_t l = 0; l < model.layer_count(); ++l) {
        auto apply = [&](tensor::MatrixView m1, tensor::MatrixView m2,
                         tensor::ConstMatrixView g, tensor::MatrixView w) {
          Scalar* ms = m1.data();
          Scalar* vs = m2.data();
          const Scalar* gs = g.data();
          Scalar* ws = w.data();
          const Index n = m1.size();
          for (Index i = 0; i < n; ++i) {
            ms[i] = b1 * ms[i] + (Scalar{1} - b1) * gs[i];
            vs[i] = b2 * vs[i] + (Scalar{1} - b2) * gs[i] * gs[i];
            const Scalar mhat = ms[i] / bc1;
            const Scalar vhat = vs[i] / bc2;
            ws[i] -= eta * mhat / (std::sqrt(vhat) + eps);
          }
        };
        apply(velocity_.layer(l).weights.view(),
              second_.layer(l).weights.view(), grad.layer(l).weights.view(),
              model.layer(l).weights.view());
        apply(velocity_.layer(l).bias.view(), second_.layer(l).bias.view(),
              grad.layer(l).bias.view(), model.layer(l).bias.view());
      }
      break;
    }
  }
}

void Optimizer::reset() {
  steps_ = 0;
  state_ready_ = false;
  velocity_ = Model();
  second_ = Model();
}

void Optimizer::serialize(ByteWriter& w) const {
  w.write_u64(steps_);
  w.write_u8(state_ready_ ? 1 : 0);
  if (!state_ready_) return;
  if (config_.kind != OptimizerKind::kSgd) write_params(w, velocity_);
  if (config_.kind == OptimizerKind::kAdam) write_params(w, second_);
}

bool Optimizer::deserialize(ByteReader& r, std::string* error) {
  std::uint64_t steps = 0;
  std::uint8_t has_state = 0;
  if (!r.read_u64(&steps) || !r.read_u8(&has_state)) {
    if (error) *error = "optimizer state truncated";
    return false;
  }
  reset();
  steps_ = steps;
  if (has_state == 0) return true;
  ensure_state(*shape_);
  if (config_.kind != OptimizerKind::kSgd &&
      !read_params(r, velocity_, error)) {
    return false;
  }
  if (config_.kind == OptimizerKind::kAdam &&
      !read_params(r, second_, error)) {
    return false;
  }
  return true;
}

bool parse_lr_schedule(const std::string& name, LrSchedule& out) {
  if (name == "constant")     { out = LrSchedule::kConstant;    return true; }
  if (name == "step")         { out = LrSchedule::kStepDecay;   return true; }
  if (name == "inverse-time") { out = LrSchedule::kInverseTime; return true; }
  return false;
}

double lr_multiplier(const LrScheduleConfig& schedule, double progress) {
  HETSGD_ASSERT(progress >= 0.0, "negative training progress");
  switch (schedule.kind) {
    case LrSchedule::kConstant:
      return 1.0;
    case LrSchedule::kStepDecay: {
      HETSGD_ASSERT(schedule.step_every > 0.0, "step_every must be positive");
      const double steps = std::floor(progress / schedule.step_every);
      return std::pow(schedule.decay, steps);
    }
    case LrSchedule::kInverseTime:
      return 1.0 / (1.0 + schedule.decay * progress);
  }
  HETSGD_UNREACHABLE("unknown schedule");
}

}  // namespace hetsgd::nn

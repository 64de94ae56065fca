// Optimizers over Model parameters.
//
// The framework is "a generic testbed to evaluate existing SGD algorithms
// and develop new ones" (§V); plain SGD is what the paper evaluates, and
// momentum/Adam are the most common drop-in alternatives a user of the
// testbed will want. The optimizer owns its state (velocity / moment
// estimates) shaped like the model, so each Hogwild lane or worker keeps
// an independent instance.
#pragma once

#include <string>

#include "common/atomic_file.hpp"
#include "nn/model.hpp"

namespace hetsgd::nn {

enum class OptimizerKind {
  kSgd,       // W -= eta * g                      (Eq. (3) of the paper)
  kMomentum,  // v = mu*v + g;  W -= eta * v       (Polyak heavy ball)
  kAdam,      // adaptive moments (Kingma & Ba)
};

const char* optimizer_name(OptimizerKind k);
bool parse_optimizer(const std::string& name, OptimizerKind& out);

struct OptimizerConfig {
  OptimizerKind kind = OptimizerKind::kSgd;
  double momentum = 0.9;    // kMomentum
  double beta1 = 0.9;       // kAdam
  double beta2 = 0.999;     // kAdam
  double epsilon = 1e-8;    // kAdam
  // Decoupled L2 penalty applied as W -= eta * weight_decay * W before the
  // gradient step (0 = off).
  double weight_decay = 0.0;
};

class Optimizer {
 public:
  // `shape` fixes the parameter layout; state buffers are allocated lazily
  // on the first step (SGD allocates none).
  Optimizer(const OptimizerConfig& config, const Model& shape);

  const OptimizerConfig& config() const { return config_; }

  // Applies one update with step size eta. For kSgd this is exactly
  // W <- W - eta * grad (Model::axpy, Eq. (3)); stateful optimizers also
  // advance their internal state. Hogwild-safe in the same sense as that
  // axpy: racy on a shared model by design, while the optimizer state
  // itself is lane-private.
  void step(Model& model, const Gradient& grad, tensor::Scalar eta);

  // Steps taken so far (drives Adam's bias correction).
  std::uint64_t step_count() const { return steps_; }

  void reset();

  // Checkpointing: appends step count + state buffers to `w`, or restores
  // them. deserialize expects the same optimizer kind and model shape the
  // state was saved under (enforced upstream by the config fingerprint);
  // false + *error on truncation or shape mismatch.
  void serialize(ByteWriter& w) const;
  bool deserialize(ByteReader& r, std::string* error);

 private:
  void ensure_state(const Model& shape);

  OptimizerConfig config_;
  const Model* shape_;
  std::uint64_t steps_ = 0;
  // kMomentum: velocity_; kAdam: velocity_ = first moment, second_ = second.
  Model velocity_;
  Model second_;
  bool state_ready_ = false;
};

// Learning-rate schedules: a multiplier on the configured rate as a
// function of training progress (epochs-equivalent).
enum class LrSchedule {
  kConstant,
  kStepDecay,     // factor^(floor(progress / step_every))
  kInverseTime,   // 1 / (1 + decay * progress)
};

bool parse_lr_schedule(const std::string& name, LrSchedule& out);

struct LrScheduleConfig {
  LrSchedule kind = LrSchedule::kConstant;
  double decay = 0.1;       // kInverseTime rate / kStepDecay factor
  double step_every = 1.0;  // kStepDecay: epochs per step
};

// Multiplier at the given progress (>= 0, in epochs-equivalent).
double lr_multiplier(const LrScheduleConfig& schedule, double progress);

}  // namespace hetsgd::nn

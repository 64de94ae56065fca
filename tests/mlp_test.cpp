// The MLP the executor runs — forward, loss kinds, back-propagation and the
// SGD step — in both Backend modes: device mode (the replica workers)
// bit for bit against zero-copy mode, both against finite differences of
// their own loss and against the independent reference in
// reference_mlp.hpp; and the Hogwild lanes' in-place step bit for bit
// against the gradient-then-axpy update it replaces.
#include <cmath>
#include <cstring>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "backend/mlp_executor.hpp"
#include "common/rng.hpp"
#include "executor_modes.hpp"
#include "obs/metrics.hpp"
#include "reference_mlp.hpp"
#include "tensor/ops.hpp"

namespace hetsgd::backend {
namespace {

using nn::Activation;
using nn::Gradient;
using nn::MlpConfig;
using nn::Model;
using tensor::Index;
using tensor::Matrix;
using tensor::Scalar;

// Gradients and losses against the reference: the two sum in different
// orders, so they agree to rounding, and over a long trajectory nearly so.
constexpr double kRefTol = 1e-12;
constexpr double kTrajectoryTol = 1e-9;

MlpConfig tiny_config(Activation act = Activation::kSigmoid) {
  MlpConfig c;
  c.input_dim = 6;
  c.num_classes = 3;
  c.hidden_layers = 2;
  c.hidden_units = 5;
  c.hidden_activation = act;
  return c;
}

struct Problem {
  Model model;
  Matrix x;
  std::vector<std::int32_t> y;
};

Problem make_problem(const MlpConfig& c, Index batch, std::uint64_t seed) {
  Rng rng(seed);
  Problem p{Model(c, rng), Matrix(batch, c.input_dim), {}};
  tensor::fill_normal(p.x.view(), rng, 0, 1);
  p.y.resize(static_cast<std::size_t>(batch));
  for (auto& label : p.y) {
    label = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(c.num_classes)));
  }
  return p;
}

// kBothModes runs device mode first: keeps its result so zero-copy mode's
// can be required to match it bit for bit.
class SameInBothModes {
 public:
  void check(Backend::Mode mode, const Model& result) {
    if (mode == Backend::Mode::kDevice) {
      device_ = result;
    } else {
      EXPECT_EQ(result.max_abs_diff(device_), 0.0);
    }
  }

 private:
  Model device_;
};

Matrix copy_of(tensor::ConstMatrixView v) {
  Matrix m(v.rows(), v.cols());
  for (Index i = 0; i < v.size(); ++i) m.data()[i] = v.data()[i];
  return m;
}

TEST(Forward, OutputShape) {
  Problem p = make_problem(tiny_config(), 7, 1);
  for (const auto mode : kBothModes) {
    ModeRunner run(mode, p.model, 8);
    const tensor::ConstMatrixView logits = run.forward(p.x.view());
    EXPECT_EQ(logits.rows(), 7);
    EXPECT_EQ(logits.cols(), 3);
  }
}

TEST(Forward, MatchesManualSingleLayer) {
  MlpConfig c;
  c.input_dim = 2;
  c.num_classes = 2;
  c.hidden_layers = 0;
  Rng rng(3);
  Model m(c, rng);
  m.layer(0).weights = Matrix{{1, 2}, {3, 4}};
  m.layer(0).bias = Matrix{{0.5, -0.5}};
  Matrix x{{1, 1}};
  for (const auto mode : kBothModes) {
    SCOPED_TRACE(static_cast<int>(mode));
    ModeRunner run(mode, m, 1);
    const tensor::ConstMatrixView logits = run.forward(x.view());
    EXPECT_DOUBLE_EQ(logits(0, 0), 3.5);  // 1+2+0.5
    EXPECT_DOUBLE_EQ(logits(0, 1), 6.5);  // 3+4-0.5
  }
}

TEST(Forward, MatchesReferenceLogits) {
  for (Activation act : {Activation::kSigmoid, Activation::kTanh,
                         Activation::kRelu, Activation::kIdentity}) {
    Problem p = make_problem(tiny_config(act), 9, 4);
    const ref::Rows want = ref::logits(p.model, p.x.view());
    Matrix device_logits;
    for (const auto mode : kBothModes) {
      ModeRunner run(mode, p.model, 9);
      const Matrix got = copy_of(run.forward(p.x.view()));
      for (Index r = 0; r < got.rows(); ++r) {
        for (Index c = 0; c < got.cols(); ++c) {
          EXPECT_NEAR(got(r, c), want[r][c], kRefTol);
        }
      }
      if (mode == Backend::Mode::kDevice) {
        device_logits = got;
      } else {
        EXPECT_EQ(tensor::max_abs_diff(got.view(), device_logits.view()), 0.0);
      }
    }
  }
}

// The reference itself, against finite differences of its own loss: the
// oracle the executor is compared with is checked independently too.
TEST(ReferenceMlp, GradientMatchesFiniteDifferences) {
  Problem p = make_problem(tiny_config(Activation::kTanh), 4, 7);
  Gradient grad = nn::make_zero_gradient(p.model);
  ref::softmax_xent(p.model, p.x.view(), p.y, &grad);
  const double eps = 1e-6;
  for (std::size_t l = 0; l < p.model.layer_count(); ++l) {
    Matrix& w = p.model.layer(l).weights;
    for (Index idx = 0; idx < w.size(); idx += 3) {
      const Scalar saved = w.data()[idx];
      w.data()[idx] = saved + eps;
      const double up = ref::softmax_xent(p.model, p.x.view(), p.y);
      w.data()[idx] = saved - eps;
      const double down = ref::softmax_xent(p.model, p.x.view(), p.y);
      w.data()[idx] = saved;
      EXPECT_NEAR(grad.layer(l).weights.data()[idx], (up - down) / (2 * eps),
                  1e-7);
    }
  }
}

// Central differences of the executor's own loss, in both modes. The
// gradients of the two modes are also compared bit for bit, and with the
// reference's to kRefTol.
class GradientCheck : public ::testing::TestWithParam<Activation> {};

TEST_P(GradientCheck, MatchesFiniteDifferences) {
  Problem p = make_problem(tiny_config(GetParam()), 4, 5);
  Gradient want = nn::make_zero_gradient(p.model);
  ref::softmax_xent(p.model, p.x.view(), p.y, &want);
  SameInBothModes same;
  for (const auto mode : kBothModes) {
    SCOPED_TRACE(static_cast<int>(mode));
    ModeRunner run(mode, p.model, 4);
    run.gradient(p.x.view(), p.y);
    const Gradient grad = run.grad();
    EXPECT_LT(grad.max_abs_diff(want), kRefTol);
    same.check(mode, grad);

    const double eps = 1e-6;
    auto loss = [&] { return run.mean_loss(p.x.view(), p.y); };
    // A spread of parameters in every layer (weights + biases).
    for (std::size_t l = 0; l < p.model.layer_count(); ++l) {
      auto& w = p.model.layer(l).weights;
      for (Index idx = 0; idx < w.size();
           idx += std::max<Index>(1, w.size() / 7)) {
        const Scalar saved = w.data()[idx];
        w.data()[idx] = saved + eps;
        const double up = loss();
        w.data()[idx] = saved - eps;
        const double down = loss();
        w.data()[idx] = saved;
        EXPECT_NEAR(grad.layer(l).weights.data()[idx], (up - down) / (2 * eps),
                    1e-7)
            << "layer " << l << " weight index " << idx;
      }
      auto& b = p.model.layer(l).bias;
      for (Index idx = 0; idx < b.size(); ++idx) {
        const Scalar saved = b.data()[idx];
        b.data()[idx] = saved + eps;
        const double up = loss();
        b.data()[idx] = saved - eps;
        const double down = loss();
        b.data()[idx] = saved;
        EXPECT_NEAR(grad.layer(l).bias.data()[idx], (up - down) / (2 * eps),
                    1e-7)
            << "layer " << l << " bias index " << idx;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Activations, GradientCheck,
                         ::testing::Values(Activation::kSigmoid,
                                           Activation::kTanh,
                                           Activation::kRelu,
                                           Activation::kIdentity));

// The in-place step (sgd_step) against the two passes it replaces on a
// Hogwild lane: compute_gradient, then Model::axpy(-eta, g). Every
// parameter must come out the same bit for bit, over several steps on the
// evolving model: on 1-row batches, whose weight updates are rank-1
// products, and 16-row ones; on a dense input and on a 96-wide input at
// 8% nonzero stored as CSR rows, whose first layer runs the CSR kernel pair
// (the weight product at beta = 1).
struct StepCase {
  Activation act;
  Index batch;
  bool sparse_input;
};

void PrintTo(const StepCase& c, std::ostream* os) {
  *os << "activation " << static_cast<int>(c.act) << "/batch " << c.batch
      << (c.sparse_input ? "/sparse" : "/dense");
}

bool same_bytes(const Model& a, const Model& b) {
  const auto same = [](const Matrix& x, const Matrix& y) {
    return x.same_shape(y) &&
           std::memcmp(x.data(), y.data(),
                       static_cast<std::size_t>(x.size()) * sizeof(Scalar)) ==
               0;
  };
  if (a.layer_count() != b.layer_count()) return false;
  for (std::size_t l = 0; l < a.layer_count(); ++l) {
    if (!same(a.layer(l).weights, b.layer(l).weights) ||
        !same(a.layer(l).bias, b.layer(l).bias)) {
      return false;
    }
  }
  return true;
}

std::uint64_t sparse_gemms() {
  return obs::MetricsRegistry::instance()
      .counter("hetsgd_sparse_gemms_total")
      .value();
}

class InPlaceStep : public ::testing::TestWithParam<StepCase> {};

TEST_P(InPlaceStep, MatchesGradientThenAxpyBitForBit) {
  const StepCase& c = GetParam();
  MlpConfig config = tiny_config(c.act);
  if (c.sparse_input) config.input_dim = 96;
  Problem p = make_problem(config, c.batch, 23);
  if (c.sparse_input) {
    Rng rng(29);
    for (Index i = 0; i < p.x.size(); ++i) {
      if (!rng.bernoulli(0.08)) p.x.data()[i] = 0;
    }
  }
  const tensor::CsrMatrix x_csr = tensor::CsrMatrix::from_dense(p.x.view());
  const tensor::BatchView x = c.sparse_input ? tensor::BatchView(x_csr.view())
                                             : tensor::BatchView(p.x.view());
  Model two_pass = p.model;
  Model in_place = p.model;
  Gradient g = nn::make_zero_gradient(two_pass);
  Backend grad_backend(gpusim::xeon56_spec(), Backend::Mode::kZeroCopy);
  MlpExecutor grad_exec(grad_backend, config, c.batch);
  grad_exec.bind_shared_model(two_pass);
  grad_exec.bind_host_gradient(g);
  Backend step_backend(gpusim::xeon56_spec(), Backend::Mode::kZeroCopy);
  MlpExecutor step_exec(step_backend, config, c.batch);
  step_exec.bind_shared_model(in_place);

  const Scalar eta = 0.3;
  for (int step = 0; step < 4; ++step) {
    const std::uint64_t before = sparse_gemms();
    const Scalar want_loss = grad_exec.compute_gradient(x, p.y);
    two_pass.axpy(-eta, g);
    const std::uint64_t between = sparse_gemms();
    const Scalar loss = step_exec.sgd_step(x, p.y, eta);
    EXPECT_EQ(loss, want_loss) << "step " << step;
    ASSERT_TRUE(same_bytes(in_place, two_pass)) << "step " << step;
    // Both passes ran the same kernels: on CSR rows, the first layer's
    // forward and weight products both skip zeros.
    EXPECT_EQ(sparse_gemms() - between, between - before);
    EXPECT_EQ(sparse_gemms() - between, c.sparse_input ? 2u : 0u);
  }
  EXPECT_GT(in_place.max_abs_diff(p.model), 0.0);
}

std::vector<StepCase> step_cases() {
  std::vector<StepCase> cases;
  for (Activation act : {Activation::kSigmoid, Activation::kTanh,
                         Activation::kRelu, Activation::kIdentity}) {
    for (Index batch : {1, 16}) {
      for (bool sparse_input : {false, true}) {
        cases.push_back({act, batch, sparse_input});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Cases, InPlaceStep,
                         ::testing::ValuesIn(step_cases()));

// sgd_step writes a zero-copy executor's bound model; a device replica
// has no host model to step.
TEST(InPlaceStepDeath, RequiresAZeroCopyBackend) {
  Problem p = make_problem(tiny_config(), 2, 31);
  Backend device(gpusim::v100_spec(), Backend::Mode::kDevice);
  MlpExecutor exec(device, p.model.config(), 2);
  EXPECT_DEATH(exec.sgd_step(p.x.view(), p.y, 0.1), "zero-copy");
}

// Sigmoid BCE over 0/1 targets: same checks as GradientCheck.
TEST(GradientBce, MatchesFiniteDifferences) {
  MlpConfig c = tiny_config();
  Rng rng(11);
  Model m(c, rng);
  Matrix x(3, c.input_dim);
  tensor::fill_normal(x.view(), rng, 0, 1);
  Matrix targets(3, c.num_classes);
  for (Index i = 0; i < targets.size(); ++i) {
    targets.data()[i] = rng.bernoulli(0.4) ? 1.0 : 0.0;
  }
  Gradient want = nn::make_zero_gradient(m);
  const double want_loss = ref::sigmoid_bce(m, x.view(), targets.view(), &want);
  SameInBothModes same;
  for (const auto mode : kBothModes) {
    SCOPED_TRACE(static_cast<int>(mode));
    ModeRunner run(mode, m, 3);
    EXPECT_NEAR(run.gradient(x.view(), targets.view()), want_loss, kRefTol);
    const Gradient grad = run.grad();
    EXPECT_LT(grad.max_abs_diff(want), kRefTol);
    same.check(mode, grad);

    const double eps = 1e-6;
    // The executor's own loss; the probe's gradient is discarded.
    ModeRunner probe(mode, m, 3);
    auto loss = [&] { return probe.gradient(x.view(), targets.view()); };
    for (std::size_t l = 0; l < m.layer_count(); ++l) {
      auto& w = m.layer(l).weights;
      for (Index idx = 0; idx < w.size(); idx += 3) {
        const Scalar saved = w.data()[idx];
        w.data()[idx] = saved + eps;
        const double up = loss();
        w.data()[idx] = saved - eps;
        const double down = loss();
        w.data()[idx] = saved;
        EXPECT_NEAR(grad.layer(l).weights.data()[idx], (up - down) / (2 * eps),
                    1e-7)
            << "layer " << l << " weight index " << idx;
      }
    }
  }
}

TEST(SgdStep, GradientDescentReducesLoss) {
  Problem start = make_problem(tiny_config(), 32, 13);
  // The same 1500 steps on the reference.
  Model want = start.model;
  Gradient want_grad = nn::make_zero_gradient(want);
  for (int step = 0; step < 1500; ++step) {
    ref::softmax_xent(want, start.x.view(), start.y, &want_grad);
    ref::sgd(want, want_grad, 0.5);
  }
  SameInBothModes same;
  for (const auto mode : kBothModes) {
    SCOPED_TRACE(static_cast<int>(mode));
    Model model = start.model;
    ModeRunner run(mode, model, 32);
    const double initial = run.gradient(start.x.view(), start.y);
    double last = initial;
    for (int step = 0; step < 1500; ++step) {
      run.sgd(0.5);
      last = run.gradient(start.x.view(), start.y);
    }
    // Full-batch gradient descent must make substantial progress on a
    // 32-example problem (sigmoid hidden layers learn slowly, hence the
    // generous step budget).
    EXPECT_LT(last, 0.5 * initial);
    EXPECT_LT(model.max_abs_diff(want), kTrajectoryTol);
    same.check(mode, model);
  }
}

TEST(Executor, ReusableAcrossBatchSizes) {
  Problem big = make_problem(tiny_config(), 16, 17);
  Problem small = make_problem(tiny_config(), 4, 17);
  Gradient want = nn::make_zero_gradient(big.model);
  ref::softmax_xent(big.model, small.x.view(), small.y, &want);
  SameInBothModes same;
  for (const auto mode : kBothModes) {
    SCOPED_TRACE(static_cast<int>(mode));
    // Large batch first, then small: buffers must not leak stale rows.
    ModeRunner reused(mode, big.model, 16);
    reused.gradient(big.x.view(), big.y);
    reused.gradient(small.x.view(), small.y);
    ModeRunner fresh(mode, big.model, 4);
    fresh.gradient(small.x.view(), small.y);
    EXPECT_EQ(reused.grad().max_abs_diff(fresh.grad()), 0.0);
    EXPECT_LT(reused.grad().max_abs_diff(want), kRefTol);
    same.check(mode, reused.grad());
  }
}

TEST(Mlp, BatchGradientIsMeanOfExampleGradients) {
  Problem p = make_problem(tiny_config(), 8, 19);
  Gradient want = nn::make_zero_gradient(p.model);
  ref::softmax_xent(p.model, p.x.view(), p.y, &want);
  SameInBothModes same;
  for (const auto mode : kBothModes) {
    SCOPED_TRACE(static_cast<int>(mode));
    ModeRunner run(mode, p.model, 8);
    run.gradient(p.x.view(), p.y);
    const Gradient batch_grad = run.grad();
    EXPECT_LT(batch_grad.max_abs_diff(want), kRefTol);
    same.check(mode, batch_grad);

    Gradient sum = nn::make_zero_gradient(p.model);
    for (Index i = 0; i < 8; ++i) {
      std::span<const std::int32_t> yi(p.y.data() + i, 1);
      run.gradient(p.x.rows_view(i, 1), yi);
      sum.axpy(1.0 / 8.0, run.grad());
    }
    EXPECT_LT(batch_grad.max_abs_diff(sum), 1e-10);
  }
}

TEST(Mlp, TrainingFlopsScalesWithBatchAndDepth) {
  MlpConfig c = tiny_config();
  const double f1 = nn::training_flops(c, 16);
  const double f2 = nn::training_flops(c, 32);
  EXPECT_NEAR(f2 / f1, 2.0, 1e-9);
  MlpConfig deeper = c;
  deeper.hidden_layers = 4;
  EXPECT_GT(nn::training_flops(deeper, 16), f1);
}

TEST(Mlp, InputWidthMismatchDies) {
  MlpConfig c = tiny_config();
  Problem p = make_problem(c, 2, 23);
  Matrix bad(2, c.input_dim + 1);
  EXPECT_DEATH(
      {
        ModeRunner run(Backend::Mode::kZeroCopy, p.model, 2);
        run.forward(bad.view());
      },
      "batch width mismatch");
}

// Acceptance check for the fused forward path: across several SGD steps
// (i.e. on evolving trained parameters), the loss computed through the
// fused gemm_bias_act forward matches the reference's unfused loops
// (product, then bias, then activation) within 1e-10 at every step, for
// every activation.
TEST(Mlp, FusedForwardMatchesUnfusedTrajectory) {
  for (Activation act : {Activation::kSigmoid, Activation::kTanh,
                         Activation::kRelu, Activation::kIdentity}) {
    const Problem start = make_problem(tiny_config(act), 16, 99);
    SameInBothModes same;
    for (const auto mode : kBothModes) {
      Model model = start.model;
      ModeRunner run(mode, model, 16);
      for (int step = 0; step < 8; ++step) {
        const Scalar fused = run.gradient(start.x.view(), start.y);
        const Scalar unfused =
            ref::softmax_xent(model, start.x.view(), start.y);
        EXPECT_NEAR(fused, unfused, 1e-10)
            << "activation=" << static_cast<int>(act) << " step=" << step;
        run.sgd(0.1);
      }
      same.check(mode, model);
    }
  }
}

}  // namespace
}  // namespace hetsgd::backend

// The replica workers' engine — Backend in device mode — checked bit for
// bit against zero-copy mode (the Hogwild lanes' host path) and, in both
// modes, against the independent reference MLP (reference_mlp.hpp), plus
// the contract a worker relies on: the device clock, pinned completion
// times, the transfer fault surface and its retry timing, device-memory
// accounting, and the device signals (trace spans and counters) the
// benchmarks read.
// Transfers and each kernel are also checked in both modes, per op,
// against references that share no code with them.
#include "backend/backend.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "backend/mlp_executor.hpp"
#include "common/rng.hpp"
#include "executor_modes.hpp"
#include "nn/activation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "reference_gemm.hpp"
#include "reference_mlp.hpp"
#include "tensor/ops.hpp"

namespace hetsgd::backend {
namespace {

using tensor::Index;
using tensor::Matrix;

// True when every entry of m is exactly zero.
bool all_zero(tensor::ConstMatrixView m) {
  return std::all_of(m.data(), m.data() + m.size(),
                     [](tensor::Scalar v) { return v == 0; });
}

nn::MlpConfig test_config() {
  nn::MlpConfig c;
  c.input_dim = 8;
  c.num_classes = 4;
  c.hidden_layers = 2;
  c.hidden_units = 6;
  return c;
}

nn::MlpConfig config_with_input(Index input_dim) {
  nn::MlpConfig c = test_config();
  c.input_dim = input_dim;
  return c;
}

struct Fixture {
  nn::MlpConfig config;
  Rng rng{42};
  nn::Model model;
  Matrix x;
  std::vector<std::int32_t> y;
  // x as CSR rows, for a fixture whose batches are stored CSR.
  tensor::CsrMatrix x_csr;
  bool stored_csr = false;

  // The batch the executor gets: x, dense or as its CSR rows.
  tensor::BatchView batch() const {
    if (stored_csr) return x_csr.view();
    return x.view();
  }

  // `density` < 1 zeroes input entries at random, as in a sparse dataset
  // stored dense (real-sim is ~1% nonzero).
  explicit Fixture(Index batch, Index input_dim = 8, double density = 1.0)
      : config(config_with_input(input_dim)),
        model(config, rng),
        x(batch, input_dim) {
    tensor::fill_normal(x.view(), rng, 0, 1);
    if (density < 1.0) {
      for (Index i = 0; i < x.rows(); ++i) {
        for (Index j = 0; j < x.cols(); ++j) {
          if (!rng.bernoulli(density)) x(i, j) = 0;
        }
      }
    }
    y.resize(static_cast<std::size_t>(batch));
    for (auto& label : y) {
      label = static_cast<std::int32_t>(rng.next_below(4));
    }
  }

  // The reference gradient of the fixture's model on its batch.
  nn::Gradient reference_gradient(double* loss = nullptr) const {
    nn::Gradient g = nn::make_zero_gradient(model);
    const double l = ref::softmax_xent(model, x.view(), y, &g);
    if (loss != nullptr) *loss = l;
    return g;
  }
};

// A 128-feature, ~1% nonzero input held dense.
Fixture sparse_fixture(Index batch = 16) { return Fixture(batch, 128, 0.01); }

// The same input stored as CSR rows, as data::Dataset stores it: the first
// layer's forward and weight-gradient products run the CSR kernel pair.
Fixture csr_fixture(Index batch = 16) {
  Fixture f = sparse_fixture(batch);
  f.x_csr = tensor::CsrMatrix::from_dense(f.x.view());
  f.stored_csr = true;
  return f;
}

// Executor results against the reference MLP, which sums in other orders:
// one gradient agrees to rounding, a 20-step trajectory a little looser.
constexpr double kRefTol = 1e-12;
constexpr double kTrajectoryTol = 1e-10;

// One executor gradient of the fixture in `mode` (ModeRunner: a device
// replica round trip, or zero-copy in place), sized for `max_batch`.
struct ModeGradient {
  double loss;
  nn::Gradient grad;
};

ModeGradient mode_gradient(const Fixture& f, Backend::Mode mode,
                           Index max_batch) {
  nn::Model model = f.model;
  ModeRunner run(mode, model, max_batch);
  const double loss = run.gradient(f.batch(), f.y);
  return {loss, run.grad()};
}

// Both modes' gradients of the fixture: equal bit for bit, and within
// kRefTol of the reference.
void expect_gradients_match(const Fixture& f, Index max_batch) {
  const ModeGradient device =
      mode_gradient(f, Backend::Mode::kDevice, max_batch);
  const ModeGradient host =
      mode_gradient(f, Backend::Mode::kZeroCopy, max_batch);
  EXPECT_EQ(device.loss, host.loss);
  EXPECT_EQ(device.grad.max_abs_diff(host.grad), 0.0);
  double want_loss = 0.0;
  const nn::Gradient want = f.reference_gradient(&want_loss);
  EXPECT_NEAR(device.loss, want_loss, kRefTol);
  EXPECT_LT(device.grad.max_abs_diff(want), kRefTol);
}

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

Backend device(const gpusim::DeviceSpec& spec = gpusim::v100_spec()) {
  return Backend(spec, Backend::Mode::kDevice);
}

TEST(DeviceBackend, GradientMatchesHostExactly) {
  for (const Fixture& f : {Fixture(16), sparse_fixture(), csr_fixture()}) {
    SCOPED_TRACE(f.config.input_dim);
    const std::uint64_t sparse_before = counter("hetsgd_sparse_gemms_total");
    expect_gradients_match(f, 16);
    // Only CSR rows run the CSR kernel pair.
    EXPECT_EQ(counter("hetsgd_sparse_gemms_total") > sparse_before,
              f.stored_csr);
  }
}

TEST(DeviceBackend, SmallerBatchThanMaxWorks) {
  for (const Fixture& f : {Fixture(5), csr_fixture(5)}) {
    SCOPED_TRACE(f.config.input_dim);
    expect_gradients_match(f, 32);
  }
}

// One SGD step on the executor's side of the seam (ModeRunner::sgd: the
// device-side axpy, or the zero-copy update of the model in place).
nn::Model mode_sgd_step(const Fixture& f, Backend::Mode mode, double eta) {
  nn::Model model = f.model;
  ModeRunner run(mode, model, f.x.rows());
  run.gradient(f.batch(), f.y);
  run.sgd(eta);
  return model;
}

// Both modes' updated models: equal bit for bit, and within kRefTol of the
// reference step.
void expect_sgd_steps_match(const Fixture& f, double eta) {
  const nn::Model device_model =
      mode_sgd_step(f, Backend::Mode::kDevice, eta);
  const nn::Model host_model =
      mode_sgd_step(f, Backend::Mode::kZeroCopy, eta);
  EXPECT_EQ(device_model.max_abs_diff(host_model), 0.0);
  nn::Model expected = f.model;
  ref::sgd(expected, f.reference_gradient(), eta);
  EXPECT_LT(device_model.max_abs_diff(expected), kRefTol);
}

TEST(DeviceBackend, ApplyGradientMatchesHostSgd) {
  for (const Fixture& f : {Fixture(8), csr_fixture(8)}) {
    SCOPED_TRACE(f.config.input_dim);
    expect_sgd_steps_match(f, 0.1);
  }
}

TEST(DeviceBackend, UploadFillsThePrivateReplica) {
  Fixture f(4);
  Backend b = device();
  MlpExecutor mlp(b, f.config, 4);
  mlp.upload_model(f.model);
  EXPECT_NE(&mlp.replica(), &f.model);
  EXPECT_EQ(mlp.replica().max_abs_diff(f.model), 0.0);
}

TEST(DeviceBackend, VirtualTimeAdvances) {
  Fixture f(8);
  Backend b = device();
  MlpExecutor mlp(b, f.config, 8);
  mlp.upload_model(f.model);
  const double t0 = b.now();
  EXPECT_GT(t0, 0.0);
  mlp.compute_gradient(f.x.view(), f.y);
  const double done = b.now();
  EXPECT_GT(done, t0);
  mlp.apply_gradient(0.1);
  EXPECT_GT(b.now(), done);
}

// The virtual-time contract of the replica path, pinned to the completion
// times the former standalone simulated-GPU engine produced for the same
// sequence (hex-float literals, so the match is exact): the one engine
// must keep every recorded schedule, for a dense input and for a sparse
// one that takes the zero-skipping GEMM path. Math is checked against
// zero-copy mode and the reference alongside.
TEST(DeviceBackend, PinnedVirtualTimeAndHostMath) {
  struct Expected {
    double t_upload, t_done, t_apply;
  };
  const std::vector<std::pair<Fixture, Expected>> cases = {
      {Fixture(16),
       {0x1.f8028b505b67ep-15, 0x1.3b171f31edap-13, 0x1.f8021f7e553bep-13}},
      {sparse_fixture(),
       {0x1.fc09561ac4824p-15, 0x1.3f946799c429ap-13,
        0x1.fd827c02df8f4p-13}},
  };
  for (const auto& [f, want] : cases) {
    SCOPED_TRACE(f.config.input_dim);
    Backend b = device();
    MlpExecutor mlp(b, f.config, 16);
    nn::Gradient grad = nn::make_zero_gradient(f.model);
    mlp.upload_model(f.model);
    const double t_upload = b.now();
    mlp.compute_gradient(f.x.view(), f.y);
    const double t_done = b.now();
    mlp.download_gradient(grad);
    mlp.apply_gradient(0.2);
    const double t_apply = b.now();
    const nn::Model& model_after = mlp.replica();

    EXPECT_EQ(t_upload, want.t_upload);
    EXPECT_EQ(t_done, want.t_done);
    EXPECT_EQ(t_apply, want.t_apply);

    EXPECT_EQ(
        grad.max_abs_diff(mode_gradient(f, Backend::Mode::kZeroCopy, 16)
                              .grad),
        0.0);
    EXPECT_LT(grad.max_abs_diff(f.reference_gradient()), kRefTol);
    EXPECT_EQ(model_after.max_abs_diff(
                  mode_sgd_step(f, Backend::Mode::kZeroCopy, 0.2)),
              0.0);
    nn::Model expected = f.model;
    ref::sgd(expected, f.reference_gradient(), 0.2);
    EXPECT_LT(model_after.max_abs_diff(expected), kRefTol);
  }
}

// The pinned sparse input above is held dense, so it now runs the dense
// kernels. Its CSR form: staging copies only its rows but charges and
// reserves the dense batch's bytes, and the CSR kernel pair charges the
// dense shapes, so every completion time is the dense-stored input's, bit
// for bit. Math is checked against zero-copy mode and the reference.
TEST(DeviceBackend, CsrBatchKeepsThePinnedVirtualTime) {
  struct Run {
    double t_upload = 0.0, t_done = 0.0, t_apply = 0.0;
    std::uint64_t reserved = 0;
    nn::Gradient grad;
  };
  const auto run = [](const Fixture& f) {
    Run r;
    Backend b = device();
    MlpExecutor mlp(b, f.config, 16);
    r.reserved = b.bytes_in_use();
    r.grad = nn::make_zero_gradient(f.model);
    mlp.upload_model(f.model);
    r.t_upload = b.now();
    mlp.compute_gradient(f.batch(), f.y);
    r.t_done = b.now();
    mlp.download_gradient(r.grad);
    mlp.apply_gradient(0.2);
    r.t_apply = b.now();
    return r;
  };
  const Fixture csr = csr_fixture();
  const Run want = run(sparse_fixture());
  const Run got = run(csr);
  EXPECT_EQ(got.t_upload, want.t_upload);
  EXPECT_EQ(got.t_done, want.t_done);
  EXPECT_EQ(got.t_apply, want.t_apply);
  EXPECT_EQ(got.reserved, want.reserved);
  EXPECT_EQ(got.grad.max_abs_diff(
                mode_gradient(csr, Backend::Mode::kZeroCopy, 16).grad),
            0.0);
  EXPECT_LT(got.grad.max_abs_diff(csr.reference_gradient()), kRefTol);
}

TEST(DeviceBackend, OpsRunBackToBackFromTheIssueTime) {
  Backend b = device();
  Matrix buf(16, 16);
  Matrix host(16, 16);
  const double cost =
      b.perf().transfer_seconds(16 * 16 * sizeof(tensor::Scalar));
  // Two ops issued at t=0: the second starts when the first completes.
  b.upload(host.view(), buf.view());
  EXPECT_DOUBLE_EQ(b.now(), cost);
  b.upload(host.view(), buf.view());
  EXPECT_DOUBLE_EQ(b.now(), 2 * cost);
  // Ops issued after the device went idle start at their issue time.
  b.wait_until(10.0);
  b.upload(host.view(), buf.view());
  EXPECT_DOUBLE_EQ(b.now(), 10.0 + cost);
}

TEST(DeviceBackend, WaitUntilNeverMovesTheClockBack) {
  Backend b = device();
  b.wait_until(5.0);
  EXPECT_DOUBLE_EQ(b.now(), 5.0);
  const Matrix x(4, 4);
  Matrix y(4, 4);
  b.axpy(2, x.view(), y.view());
  const double done = b.now();
  EXPECT_GT(done, 5.0);
  // Issued before the device drains: the next op queues behind the axpy.
  b.wait_until(5.0);
  EXPECT_DOUBLE_EQ(b.now(), done);
  b.wait_until(done + 1.0);
  EXPECT_DOUBLE_EQ(b.now(), done + 1.0);
}

// Worker::execute_replica's retry protocol: each attempt is issued at the
// worker's clock (wait_until), a failed copy charges nothing, and the
// backoff advances the worker's clock only. So after a fault injected
// mid-upload, the first retried copy starts at max(the copies queued
// before the fault, the clock after backoff).
TEST(DeviceBackend, RetriedCopyStartsAfterQueuedCopiesAndBackoff) {
  const Matrix host(16, 16);
  Matrix d(16, 16);
  const double cost =
      device().perf().transfer_seconds(16 * 16 * sizeof(tensor::Scalar));
  // Backoffs ending before and after the two queued copies.
  for (const double backoff_clock : {0.5 * cost, 5.0 * cost}) {
    SCOPED_TRACE(backoff_clock);
    Backend b = device();
    b.wait_until(0.0);
    b.upload(host.view(), d.view());
    b.upload(host.view(), d.view());
    b.inject_transfer_faults(1);
    EXPECT_THROW(b.upload(host.view(), d.view()), TransferError);
    EXPECT_EQ(b.now(), 2 * cost);
    b.wait_until(backoff_clock);
    const double start = b.now();
    EXPECT_EQ(start, std::max(2 * cost, backoff_clock));
    b.upload(host.view(), d.view());
    EXPECT_EQ(b.now(), start + cost);
  }
}

TEST(DeviceBackend, CopyShapeMismatchDies) {
  Backend b = device();
  Matrix buf(3, 2);
  Matrix host(2, 3);
  EXPECT_DEATH(b.upload(host.view(), buf.view()), "H2D copy shape mismatch");
  EXPECT_DEATH(b.download(buf.view(), host.view()),
               "D2H copy shape mismatch");
}

TEST(DeviceBackend, DeviceBytesAccounted) {
  Fixture f(4);
  Backend b = device();
  EXPECT_FALSE(b.zero_copy());
  const std::uint64_t before = b.bytes_in_use();
  auto mlp = std::make_unique<MlpExecutor>(b, f.config, 64);
  // The replica, its gradient, the activations, the deltas and the input
  // staging rows.
  const std::uint64_t widths = 6 + 6 + 4;  // the layers' output widths
  EXPECT_EQ(mlp->device_bytes(),
            (2 * f.config.parameter_count() + 2 * 64 * widths + 64 * 8) *
                sizeof(tensor::Scalar));
  EXPECT_EQ(b.bytes_in_use() - before, mlp->device_bytes());
  mlp.reset();
  EXPECT_EQ(b.bytes_in_use(), before);
}

TEST(DeviceBackend, OversizedModelTriggersOom) {
  gpusim::DeviceSpec tiny = gpusim::v100_spec();
  tiny.memory_capacity = 1 << 16;  // 64 KiB
  nn::MlpConfig big = test_config();
  big.hidden_units = 256;
  EXPECT_DEATH(
      {
        Backend b = device(tiny);
        MlpExecutor mlp(b, big, 1024);
      },
      "out of");
}

TEST(DeviceBackend, BatchBeyondMaxDies) {
  Fixture f(16);
  Backend b = device();
  MlpExecutor mlp(b, f.config, 8);
  mlp.upload_model(f.model);
  EXPECT_DEATH(mlp.compute_gradient(f.x.view(), f.y), "max_batch");
}

TEST(DeviceBackend, TrainingConvergesLikeHost) {
  for (const Fixture& f : {Fixture(32), csr_fixture(32)}) {
    SCOPED_TRACE(f.config.input_dim);
    // The replica stays resident for all 20 steps, as in
    // run_minibatch_reference.
    Backend b = device();
    MlpExecutor mlp(b, f.config, 32);
    mlp.upload_model(f.model);
    for (int step = 0; step < 20; ++step) {
      mlp.compute_gradient(f.batch(), f.y);
      mlp.apply_gradient(0.3);
    }
    const nn::Model& final_device = mlp.replica();

    nn::Model host_model = f.model;
    ModeRunner host(Backend::Mode::kZeroCopy, host_model, 32);
    nn::Model ref_model = f.model;
    nn::Gradient ref_grad = nn::make_zero_gradient(ref_model);
    for (int step = 0; step < 20; ++step) {
      host.gradient(f.batch(), f.y);
      host.sgd(0.3);
      ref::softmax_xent(ref_model, f.x.view(), f.y, &ref_grad);
      ref::sgd(ref_model, ref_grad, 0.3);
    }
    EXPECT_EQ(final_device.max_abs_diff(host_model), 0.0);
    EXPECT_LT(final_device.max_abs_diff(ref_model), kTrajectoryTol);
  }
}

TEST(DeviceBackend, NanPoisonedInputPropagatesToGradient) {
  Fixture f(8);
  f.x(0, 0) = std::numeric_limits<tensor::Scalar>::quiet_NaN();
  Backend b = device();
  MlpExecutor mlp(b, f.config, 8);
  mlp.upload_model(f.model);
  const double loss = mlp.compute_gradient(f.x.view(), f.y);
  nn::Gradient grad = nn::make_zero_gradient(f.model);
  mlp.download_gradient(grad);
  // NaN must flow through the kernels, not be masked: the coordinator's
  // divergence rollback depends on seeing it in the merge.
  EXPECT_TRUE(std::isnan(loss));
  EXPECT_FALSE(std::isfinite(
      static_cast<double>(grad.layer(0).weights.data()[0])));
}

TEST(DeviceBackend, InjectedTransferFaultThrowsOnce) {
  Fixture f(4);
  Backend b = device();
  MlpExecutor mlp(b, f.config, 4);
  b.inject_transfer_faults(1);
  const std::uint64_t transfers = counter("hetsgd_gpu_transfers_total");
  EXPECT_THROW(mlp.upload_model(f.model), TransferError);
  EXPECT_EQ(counter("hetsgd_gpu_transfers_total"), transfers);
  EXPECT_EQ(b.now(), 0.0);
  // The injection is consumed: the retry goes through.
  EXPECT_NO_THROW(mlp.upload_model(f.model));
  EXPECT_EQ(mlp.replica().max_abs_diff(f.model), 0.0);
}

TEST(DeviceBackend, BatchStagingIsNotAFaultSurface) {
  Fixture f(4);
  Backend b = device();
  MlpExecutor mlp(b, f.config, 4);
  mlp.upload_model(f.model);
  // Input staging is deliberately outside the injection surface (the model
  // upload and gradient download bracket every round trip); a pending
  // fault must survive compute_gradient and fire on the next transfer.
  b.inject_transfer_faults(1);
  EXPECT_NO_THROW(mlp.compute_gradient(f.x.view(), f.y));
  nn::Gradient grad = nn::make_zero_gradient(f.model);
  EXPECT_THROW(mlp.download_gradient(grad), TransferError);
  EXPECT_NO_THROW(mlp.download_gradient(grad));
}

// The kernels one compute_gradient issues for L layers: L fused forward
// GEMMs, the loss kernel, then per layer dW and db, and for every layer
// but the first the delta product and the activation derivative.
std::uint64_t kernels_per_gradient(const nn::MlpConfig& config) {
  const std::uint64_t layers = config.layer_shapes().size();
  return layers + 1 + 2 * layers + 2 * (layers - 1);
}

TEST(DeviceBackend, CountsKernelsAndTransfers) {
  Fixture f(16);
  Backend b = device();
  MlpExecutor mlp(b, f.config, 16);
  const std::uint64_t kernels = counter("hetsgd_gpu_kernels_total");
  const std::uint64_t transfers = counter("hetsgd_gpu_transfers_total");
  const std::uint64_t bytes = counter("hetsgd_gpu_transfer_bytes_total");
  mlp.upload_model(f.model);
  mlp.compute_gradient(f.x.view(), f.y);
  nn::Gradient grad = nn::make_zero_gradient(f.model);
  mlp.download_gradient(grad);
  EXPECT_EQ(counter("hetsgd_gpu_kernels_total") - kernels,
            kernels_per_gradient(f.config));
  // Model up + gradient down: weights and bias per layer, each way.
  EXPECT_EQ(counter("hetsgd_gpu_transfers_total") - transfers,
            4 * f.config.layer_shapes().size());
  EXPECT_EQ(counter("hetsgd_gpu_transfer_bytes_total") - bytes,
            2 * f.config.parameter_count() * sizeof(tensor::Scalar));
}

// The loss-only entry: compute_gradient's loss on the same batch, in both
// modes alike, the forward and one loss kernel per evaluation chunk, and
// the gradient left in place.
TEST(MlpExecutorEval, MeanLossMatchesComputeGradientAndWritesNoDelta) {
  for (const Fixture& f : {Fixture(16), csr_fixture()}) {
    SCOPED_TRACE(f.config.input_dim);
    // Another batch: negated, doubled inputs and shifted labels.
    Matrix other_x = f.x;
    for (Index i = 0; i < other_x.size(); ++i) other_x.data()[i] *= -2.0;
    const tensor::CsrMatrix other_csr =
        tensor::CsrMatrix::from_dense(other_x.view());
    const tensor::BatchView other =
        f.stored_csr ? tensor::BatchView(other_csr.view())
                     : tensor::BatchView(other_x.view());
    std::vector<std::int32_t> other_y = f.y;
    for (auto& label : other_y) label = (label + 1) % 4;
    Backend b = device();
    MlpExecutor mlp(b, f.config, 16);
    mlp.upload_model(f.model);
    const double loss = mlp.compute_gradient(f.batch(), f.y);
    nn::Gradient grad = nn::make_zero_gradient(f.model);
    mlp.download_gradient(grad);
    const std::size_t layers = f.config.layer_shapes().size();
    std::vector<Matrix> deltas;
    for (std::size_t l = 0; l < layers; ++l) deltas.push_back(mlp.delta(l));

    const std::uint64_t kernels = counter("hetsgd_gpu_kernels_total");
    // Evaluating another batch must leave the first one's deltas and
    // gradient in place (the loss kernel gets no dlogits to write).
    mlp.mean_loss(other, other_y);
    for (std::size_t l = 0; l < layers; ++l) {
      EXPECT_EQ(tensor::max_abs_diff(mlp.delta(l).view(), deltas[l].view()),
                0.0)
          << "delta " << l;
    }
    EXPECT_EQ(mlp.mean_loss(f.batch(), f.y), loss);
    EXPECT_EQ(counter("hetsgd_gpu_kernels_total") - kernels, 2 * (layers + 1));
    nn::Gradient grad_after = nn::make_zero_gradient(f.model);
    mlp.download_gradient(grad_after);
    EXPECT_EQ(grad_after.max_abs_diff(grad), 0.0);

    nn::Model model = f.model;
    ModeRunner host(Backend::Mode::kZeroCopy, model, 16);
    EXPECT_EQ(host.mean_loss(f.batch(), f.y), loss);
    EXPECT_NEAR(loss, ref::softmax_xent(f.model, f.x.view(), f.y), kRefTol);
  }
}

// Past one chunk, mean_loss weights each chunk's mean by its rows.
TEST(MlpExecutorEval, MeanLossWeightsChunksByRows) {
  constexpr Index kChunk = nn::kEvalChunkRows;
  constexpr Index kRows = kChunk + 188;
  const Fixture f(kRows);
  for (const auto mode : kBothModes) {
    SCOPED_TRACE(static_cast<int>(mode));
    nn::Model model = f.model;
    ModeRunner run(mode, model, kChunk);
    const std::span<const std::int32_t> y(f.y);
    const double head =
        run.gradient(f.x.rows_view(0, kChunk), y.subspan(0, kChunk));
    const double tail = run.gradient(f.x.rows_view(kChunk, kRows - kChunk),
                                     y.subspan(kChunk));
    EXPECT_EQ(run.mean_loss(f.x.view(), f.y),
              (head * static_cast<double>(kChunk) +
               tail * static_cast<double>(kRows - kChunk)) /
                  static_cast<double>(kRows));
    EXPECT_NEAR(run.mean_loss(f.x.view(), f.y),
                ref::softmax_xent(f.model, f.x.view(), f.y), kRefTol);
  }
}

TEST(ZeroCopyBackend, CountsNoDeviceKernelsOrTransfers) {
  Fixture f(16);
  const nn::Gradient device_grad =
      mode_gradient(f, Backend::Mode::kDevice, 16).grad;
  Backend b(gpusim::xeon56_spec(), Backend::Mode::kZeroCopy);
  MlpExecutor mlp(b, f.config, 16);
  nn::Gradient grad = nn::make_zero_gradient(f.model);
  mlp.bind_shared_model(f.model);
  mlp.bind_host_gradient(grad);
  const std::uint64_t kernels = counter("hetsgd_gpu_kernels_total");
  const std::uint64_t transfers = counter("hetsgd_gpu_transfers_total");
  mlp.upload_model(f.model);
  mlp.compute_gradient(f.x.view(), f.y);
  mlp.download_gradient(grad);
  EXPECT_EQ(grad.max_abs_diff(device_grad), 0.0);
  mlp.apply_gradient(0.1);  // updates the bound model in place
  // Evaluation, too, stays off the device signals.
  mlp.mean_loss(f.x.view(), f.y);
  mlp.forward(f.x.view());
  EXPECT_EQ(counter("hetsgd_gpu_kernels_total"), kernels);
  EXPECT_EQ(counter("hetsgd_gpu_transfers_total"), transfers);
  // Only the activations and deltas are the executor's own.
  EXPECT_EQ(b.bytes_in_use(), mlp.device_bytes());
  EXPECT_EQ(mlp.device_bytes(), 2 * 16 * (6 + 6 + 4) * sizeof(tensor::Scalar));
}

// --- Per-op checks in both modes -------------------------------------------
// The replica workers run kDevice and the Hogwild lanes kZeroCopy; both run
// the same tensor:: kernels. Each kernel runs through the backend on views
// of the first `m` rows of larger matrices and is checked against a
// reference that shares no code with it — ref::gemm_naive, ref::activate and
// ref::activate_slope, and plain loops accumulating in double for the
// losses, col_sums and axpy — within a tolerance per op. Rows past the
// batch must stay untouched, and the charge must be the op's PerfModel cost
// on the queue in device mode and nothing in zero-copy mode (the worker
// charges whole batches there).
//
// The operands come from seeded random shapes plus the ones the kernels
// have separate paths for: k = 1, m < 8 (the GEMMs' skinny path), CSR
// input rows (the first layer's kernel pair, against ref::gemm_naive on the
// densified rows: ragged and empty rows, one row and many, NaN and Inf in
// x, and a NaN weight in a column x stores), and inputs holding NaN and
// Inf.

using Rows = ref::Rows;

// Per-op tolerances, relative to max(1, |want|).
constexpr double kGemmTol = 1e-12;
constexpr double kLossTol = 1e-13;
constexpr double kElementwiseTol = 1e-15;

// got == want entry by entry: NaN where want is NaN, the same infinity
// where want is infinite, and within `tol` elsewhere.
void expect_close(tensor::ConstMatrixView got, const Rows& want, double tol) {
  ASSERT_EQ(got.rows(), static_cast<Index>(want.size()));
  for (Index r = 0; r < got.rows(); ++r) {
    for (Index c = 0; c < got.cols(); ++c) {
      const double g = got(r, c);
      const double w = want[r][c];
      SCOPED_TRACE(testing::Message() << "entry (" << r << ", " << c << ")");
      if (std::isnan(w)) {
        EXPECT_TRUE(std::isnan(g)) << g;
      } else if (std::isinf(w)) {
        EXPECT_EQ(g, w);
      } else {
        EXPECT_NEAR(g, w, tol * std::max(1.0, std::abs(w)));
      }
    }
  }
}

// m batch rows, inner width k, outer width n; `density` < 1 zeroes input
// entries at random, `non_finite` plants a NaN and an Inf in it, and
// `csr` hands the input to the CSR kernels as CSR rows (the last batch row
// then stores nothing).
struct OpShape {
  Index m, k, n;
  double density = 1.0;
  bool non_finite = false;
  bool csr = false;
};

std::ostream& operator<<(std::ostream& os, const OpShape& s) {
  return os << s.m << "x" << s.k << "x" << s.n << " density " << s.density
            << (s.non_finite ? " with NaN/Inf" : "") << (s.csr ? " CSR" : "");
}

std::vector<OpShape> op_shapes() {
  std::vector<OpShape> shapes = {
      {1, 1, 1},                   // k = 1, a single row
      {6, 1, 5},                   // k = 1
      {3, 7, 4},                   // m < 8: the skinny path
      {7, 12, 9},                  // m < 8
      {16, 128, 6, 0.05},          // sparse input stored dense
      {5, 6, 4, 1.0, true},        // NaN/Inf on the skinny path
      {12, 96, 5, 0.05, true},     // NaN/Inf in a sparse input stored dense
      {9, 10, 11, 1.0, true},      // NaN/Inf on the packed path
      {16, 128, 6, 0.05, false, true},  // CSR, ragged rows
      {16, 64, 6, 0.3, false, true},    // CSR, enough entries to transpose W
      {1, 96, 5, 0.1, false, true},     // CSR, one row: k = 1 steps
      {3, 70, 4, 0.1, false, true},     // CSR, m < 8
      {12, 96, 5, 0.05, true, true},    // CSR with NaN/Inf in x
  };
  Rng rng(2024);  // seeded random shapes
  for (int i = 0; i < 4; ++i) {
    shapes.push_back({1 + static_cast<Index>(rng.next_below(40)),
                      1 + static_cast<Index>(rng.next_below(40)),
                      1 + static_cast<Index>(rng.next_below(24))});
  }
  return shapes;
}

Matrix random_matrix(Index rows, Index cols, Rng& rng) {
  Matrix m(rows, cols);
  tensor::fill_normal(m.view(), rng, 0, 1);
  return m;
}

// The input operand of `s`: `rows` x `cols` with the shape's density and,
// when asked, a NaN in its first row and an Inf in its second (both inside
// every batch that plants them).
Matrix input_matrix(const OpShape& s, Index rows, Index cols, Rng& rng) {
  Matrix m = random_matrix(rows, cols, rng);
  for (Index i = 0; i < m.size(); ++i) {
    if (!rng.bernoulli(s.density)) m.data()[i] = 0;
  }
  if (s.csr && s.m > 1) std::fill(m.row(s.m - 1), m.row(s.m), 0.0);
  if (s.non_finite) {
    m(0, cols - 1) = std::numeric_limits<tensor::Scalar>::quiet_NaN();
    m(1, 0) = std::numeric_limits<tensor::Scalar>::infinity();
  }
  return m;
}

// C = op(a) * op(b) through ref::gemm_naive, as rows of doubles.
Rows naive_product(tensor::Trans ta, tensor::Trans tb,
                   tensor::ConstMatrixView a, tensor::ConstMatrixView b,
                   Index rows, Index cols) {
  Matrix c(rows, cols);
  ref::gemm_naive(ta, tb, 1, a, b, 0, c.view());
  return ref::to_rows(c.view());
}

class BothModes : public testing::TestWithParam<Backend::Mode> {
 protected:
  BothModes()
      : b_(spec_for(GetParam()), GetParam()),
        kernels_before_(counter("hetsgd_gpu_kernels_total")) {}

  bool device_mode() const { return GetParam() == Backend::Mode::kDevice; }

  // The clock after one op of `cost` that started at `start`.
  double done_after(double start, double cost) const {
    return device_mode() ? start + cost : start;
  }

  // Device kernels counted since the fixture was built.
  std::uint64_t kernels_counted() const {
    return counter("hetsgd_gpu_kernels_total") - kernels_before_;
  }

  Backend b_;
  std::uint64_t kernels_before_;
};

INSTANTIATE_TEST_SUITE_P(
    Modes, BothModes,
    testing::Values(Backend::Mode::kDevice, Backend::Mode::kZeroCopy),
    [](const testing::TestParamInfo<Backend::Mode>& mode) {
      return mode.param == Backend::Mode::kDevice ? "device" : "zero_copy";
    });

TEST_P(BothModes, GemmBiasActMatchesReference) {
  const tensor::Epilogue epilogues[] = {
      tensor::Epilogue::kBias, tensor::Epilogue::kBiasSigmoid,
      tensor::Epilogue::kBiasTanh, tensor::Epilogue::kBiasRelu};
  const nn::Activation acts[] = {nn::Activation::kIdentity,
                                 nn::Activation::kSigmoid,
                                 nn::Activation::kTanh, nn::Activation::kRelu};
  Rng rng(5);
  std::uint64_t launches = 0;
  for (const OpShape& s : op_shapes()) {
    SCOPED_TRACE(testing::Message() << s);
    // x holds two rows past the batch; the kernel runs on the first m.
    const Matrix x = input_matrix(s, s.m + 2, s.k, rng);
    const tensor::CsrMatrix x_csr = tensor::CsrMatrix::from_dense(x.view());
    Matrix w = random_matrix(s.n, s.k, rng);
    const Matrix bias = random_matrix(1, s.n, rng);
    Rows product = naive_product(tensor::Trans::kNo, tensor::Trans::kYes,
                                 x.rows_view(0, s.m), w.view(), s.m, s.n);
    if (s.csr && !s.non_finite) {
      // A NaN weight in a column the first row stores reaches the rows
      // storing that column and no other (CSR products skip x's zeros).
      Index p = 0;
      while (p < s.k && x(0, p) == 0) ++p;
      ASSERT_LT(p, s.k);
      w(0, p) = std::numeric_limits<tensor::Scalar>::quiet_NaN();
      for (Index i = 0; i < s.m; ++i) {
        if (x(i, p) != 0) {
          product[static_cast<std::size_t>(i)][0] =
              std::numeric_limits<double>::quiet_NaN();
        }
      }
    }
    for (int e = 0; e < 4; ++e) {
      SCOPED_TRACE(e);
      Matrix out(s.m + 2, s.n);
      const std::uint64_t sparse_before = counter("hetsgd_sparse_gemms_total");
      const double start = b_.now();
      if (s.csr) {
        b_.gemm_bias_act(x_csr.rows_view(0, s.m), w.view(), bias.view(),
                         out.rows_view(0, s.m), epilogues[e]);
      } else {
        b_.gemm_bias_act(x.rows_view(0, s.m), w.view(), bias.view(),
                         out.rows_view(0, s.m), epilogues[e]);
      }
      ++launches;
      Rows want = product;
      for (auto& row : want) {
        for (Index j = 0; j < s.n; ++j) {
          row[j] = ref::activate(acts[e], row[j] + bias(0, j));
        }
      }
      expect_close(out.rows_view(0, s.m), want, kGemmTol);
      EXPECT_TRUE(all_zero(out.rows_view(s.m, 2)));
      EXPECT_EQ(counter("hetsgd_sparse_gemms_total") > sparse_before, s.csr);
      EXPECT_DOUBLE_EQ(b_.now(),
                       done_after(start, b_.perf().gemm_seconds(s.m, s.n, s.k)));
    }
  }
  EXPECT_EQ(kernels_counted(), device_mode() ? launches : 0u);
}

TEST_P(BothModes, MatmulTnMatchesReference) {
  Rng rng(7);
  std::uint64_t launches = 0;
  for (const OpShape& s : op_shapes()) {
    SCOPED_TRACE(testing::Message() << s);
    // grad_w (n x k) = delta^T (n x m) * prev (m x k): the weight gradient,
    // whose sparse operand is the layer input prev.
    const Matrix delta = random_matrix(s.m + 2, s.n, rng);
    const Matrix prev = input_matrix(s, s.m + 2, s.k, rng);
    const tensor::CsrMatrix prev_csr =
        tensor::CsrMatrix::from_dense(prev.view());
    const auto product = [&](tensor::Scalar alpha, tensor::Scalar beta,
                             tensor::MatrixView out) {
      if (s.csr) {
        b_.matmul_tn(alpha, delta.rows_view(0, s.m),
                     prev_csr.rows_view(0, s.m), beta, out);
      } else {
        b_.matmul_tn(alpha, delta.rows_view(0, s.m), prev.rows_view(0, s.m),
                     beta, out);
      }
    };
    Matrix grad_w(s.n, s.k);
    const std::uint64_t sparse_before = counter("hetsgd_sparse_gemms_total");
    const double start = b_.now();
    product(tensor::Scalar{1}, tensor::Scalar{0}, grad_w.view());
    ++launches;
    expect_close(grad_w.view(),
                 naive_product(tensor::Trans::kYes, tensor::Trans::kNo,
                               delta.rows_view(0, s.m),
                               prev.rows_view(0, s.m), s.n, s.k),
                 kGemmTol);
    EXPECT_EQ(counter("hetsgd_sparse_gemms_total") > sparse_before, s.csr);
    EXPECT_DOUBLE_EQ(b_.now(),
                     done_after(start, b_.perf().gemm_seconds(s.n, s.k, s.m)));

    // The in-place SGD step's form, alpha = -eta and beta = 1:
    // w += -0.5 * delta^T * prev, at the same charge.
    const Matrix w0 = random_matrix(s.n, s.k, rng);
    Matrix w = w0;
    const double step_start = b_.now();
    product(tensor::Scalar{-0.5}, tensor::Scalar{1}, w.view());
    ++launches;
    Rows want = naive_product(tensor::Trans::kYes, tensor::Trans::kNo,
                              delta.rows_view(0, s.m), prev.rows_view(0, s.m),
                              s.n, s.k);
    for (Index i = 0; i < s.n; ++i) {
      for (Index j = 0; j < s.k; ++j) {
        want[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
            w0(i, j) -
            0.5 * want[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      }
    }
    expect_close(w.view(), want, kGemmTol);
    EXPECT_DOUBLE_EQ(b_.now(), done_after(step_start, b_.perf().gemm_seconds(
                                                          s.n, s.k, s.m)));
  }
  EXPECT_EQ(kernels_counted(), device_mode() ? launches : 0u);
}

TEST_P(BothModes, MatmulNnMatchesReference) {
  Rng rng(9);
  std::uint64_t launches = 0;
  for (const OpShape& s : op_shapes()) {
    SCOPED_TRACE(testing::Message() << s);
    // out (m x k) = delta (m x n) * w (n x k): the delta back-propagation.
    const Matrix delta = input_matrix(s, s.m + 2, s.n, rng);
    const Matrix w = random_matrix(s.n, s.k, rng);
    Matrix out(s.m + 2, s.k);
    const double start = b_.now();
    b_.matmul_nn(delta.rows_view(0, s.m), w.view(), out.rows_view(0, s.m));
    ++launches;
    expect_close(out.rows_view(0, s.m),
                 naive_product(tensor::Trans::kNo, tensor::Trans::kNo,
                               delta.rows_view(0, s.m), w.view(), s.m, s.k),
                 kGemmTol);
    EXPECT_TRUE(all_zero(out.rows_view(s.m, 2)));
    EXPECT_DOUBLE_EQ(b_.now(),
                     done_after(start, b_.perf().gemm_seconds(s.m, s.k, s.n)));
  }
  EXPECT_EQ(kernels_counted(), device_mode() ? launches : 0u);
}

TEST_P(BothModes, ColSumsMatchesReference) {
  Rng rng(8);
  std::uint64_t launches = 0;
  for (const OpShape& s : op_shapes()) {
    SCOPED_TRACE(testing::Message() << s);
    const Matrix m = input_matrix(s, s.m + 2, s.k, rng);
    Matrix out(1, s.k);
    const double start = b_.now();
    b_.col_sums(m.rows_view(0, s.m), out.view());
    ++launches;
    Rows want(1, std::vector<double>(static_cast<std::size_t>(s.k), 0.0));
    for (Index r = 0; r < s.m; ++r) {
      for (Index c = 0; c < s.k; ++c) want[0][c] += m(r, c);
    }
    expect_close(out.view(), want, kGemmTol);
    EXPECT_DOUBLE_EQ(
        b_.now(), done_after(start, b_.perf().elementwise_seconds(
                                        static_cast<std::uint64_t>(s.m * s.k))));
  }
  EXPECT_EQ(kernels_counted(), device_mode() ? launches : 0u);
}

TEST_P(BothModes, ActivationBackwardMatchesReference) {
  const nn::Activation acts[] = {nn::Activation::kIdentity,
                                 nn::Activation::kSigmoid,
                                 nn::Activation::kTanh, nn::Activation::kRelu};
  Rng rng(10);
  std::uint64_t launches = 0;
  for (const OpShape& s : op_shapes()) {
    for (const nn::Activation act : acts) {
      SCOPED_TRACE(testing::Message() << s << " activation "
                                      << static_cast<int>(act));
      // The activated values a hidden layer produces, and a delta holding
      // the shape's NaN/Inf entries.
      Matrix activated = random_matrix(s.m + 2, s.n, rng);
      for (Index i = 0; i < activated.size(); ++i) {
        activated.data()[i] = ref::activate(act, activated.data()[i]);
      }
      const Matrix delta_in = input_matrix(s, s.m + 2, s.n, rng);
      Matrix delta = delta_in;
      const double start = b_.now();
      b_.activation_backward(act, activated.rows_view(0, s.m),
                             delta.rows_view(0, s.m));
      ++launches;
      // The output y stands in for the pre-activation z: only relu's slope
      // reads z, and relu's y > 0 exactly where z > 0.
      Rows want = ref::to_rows(delta_in.view());
      for (Index r = 0; r < s.m; ++r) {
        for (Index c = 0; c < s.n; ++c) {
          const double y = activated(r, c);
          want[r][c] *= ref::activate_slope(act, y, y);
        }
      }
      // Rows past the batch keep their incoming delta.
      expect_close(delta.view(), want, kElementwiseTol);
      EXPECT_DOUBLE_EQ(
          b_.now(),
          done_after(start, b_.perf().elementwise_seconds(
                                static_cast<std::uint64_t>(s.m * s.n))));
    }
  }
  EXPECT_EQ(kernels_counted(), device_mode() ? launches : 0u);
}

TEST_P(BothModes, AxpyMatchesReference) {
  Rng rng(11);
  std::uint64_t launches = 0;
  for (const OpShape& s : op_shapes()) {
    SCOPED_TRACE(testing::Message() << s);
    const Matrix x = input_matrix(s, s.m, s.n, rng);
    Matrix y = random_matrix(s.m, s.n, rng);
    Rows want = ref::to_rows(y.view());
    const double alpha = -0.75;
    for (Index r = 0; r < s.m; ++r) {
      for (Index c = 0; c < s.n; ++c) want[r][c] += alpha * x(r, c);
    }
    const double start = b_.now();
    b_.axpy(alpha, x.view(), y.view());
    ++launches;
    expect_close(y.view(), want, kElementwiseTol);
    EXPECT_DOUBLE_EQ(
        b_.now(), done_after(start, b_.perf().elementwise_seconds(
                                        static_cast<std::uint64_t>(s.m * s.n))));
  }
  EXPECT_EQ(kernels_counted(), device_mode() ? launches : 0u);
}

// The loss kernels' charge: the kernel, then the one-scalar D2H return of
// the loss value.
double loss_cost(const gpusim::PerfModel& perf, Index elements) {
  return perf.elementwise_seconds(static_cast<std::uint64_t>(elements) * 6) +
         perf.transfer_seconds(sizeof(tensor::Scalar));
}

// Labels for `rows` examples of `classes` classes.
std::vector<std::int32_t> random_labels(Index rows, Index classes, Rng& rng) {
  std::vector<std::int32_t> labels(static_cast<std::size_t>(rows));
  for (auto& label : labels) {
    label = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(classes)));
  }
  return labels;
}

TEST_P(BothModes, SoftmaxXentMatchesReference) {
  Rng rng(6);
  std::uint64_t launches = 0;
  for (const OpShape& s : op_shapes()) {
    if (s.n < 2) continue;  // a classifier has at least two classes
    SCOPED_TRACE(testing::Message() << s);
    const Matrix logits = input_matrix(s, s.m + 1, s.n, rng);
    const std::vector<std::int32_t> labels = random_labels(s.m, s.n, rng);
    Matrix dlogits(s.m + 1, s.n);
    tensor::MatrixView dv = dlogits.rows_view(0, s.m);
    tensor::Scalar loss = 0;
    const double start = b_.now();
    b_.softmax_xent(logits.rows_view(0, s.m), labels, &dv, &loss);
    ++launches;
    // Mean -log softmax(z)[y] and (softmax(z) - onehot(y)) / m, with the
    // row maximum subtracted.
    double want_loss = 0.0;
    Rows want(static_cast<std::size_t>(s.m),
              std::vector<double>(static_cast<std::size_t>(s.n)));
    for (Index r = 0; r < s.m; ++r) {
      double mx = logits(r, 0);
      for (Index c = 1; c < s.n; ++c) mx = std::max(mx, logits(r, c));
      double sum = 0.0;
      for (Index c = 0; c < s.n; ++c) sum += std::exp(logits(r, c) - mx);
      const Index y = labels[static_cast<std::size_t>(r)];
      want_loss += mx + std::log(sum) - logits(r, y);
      for (Index c = 0; c < s.n; ++c) {
        want[r][c] = (std::exp(logits(r, c) - mx) / sum - (c == y ? 1.0 : 0.0)) /
                     static_cast<double>(s.m);
      }
    }
    want_loss /= static_cast<double>(s.m);
    expect_close(Matrix{{loss}}.view(), {{want_loss}}, kLossTol);
    expect_close(dv, want, kLossTol);
    EXPECT_TRUE(all_zero(dlogits.rows_view(s.m, 1)));
    EXPECT_DOUBLE_EQ(b_.now(),
                     done_after(start, loss_cost(b_.perf(), s.m * s.n)));
  }
  EXPECT_EQ(kernels_counted(), device_mode() ? launches : 0u);
}

TEST_P(BothModes, SigmoidBceMatchesReference) {
  Rng rng(16);
  std::uint64_t launches = 0;
  for (const OpShape& s : op_shapes()) {
    SCOPED_TRACE(testing::Message() << s);
    const Matrix logits = input_matrix(s, s.m + 1, s.n, rng);
    Matrix targets(s.m, s.n);
    for (Index i = 0; i < targets.size(); ++i) {
      targets.data()[i] = rng.bernoulli(0.4) ? 1.0 : 0.0;
    }
    Matrix dlogits(s.m + 1, s.n);
    tensor::Scalar loss = 0;
    const double start = b_.now();
    b_.sigmoid_bce(logits.rows_view(0, s.m), targets.view(),
                   dlogits.rows_view(0, s.m), &loss);
    ++launches;
    // Mean over examples of the summed -[t log p + (1-t) log(1-p)], in its
    // overflow-free form max(z,0) - z*t + log(1 + exp(-|z|)), and
    // (p - t) / m.
    double want_loss = 0.0;
    Rows want(static_cast<std::size_t>(s.m),
              std::vector<double>(static_cast<std::size_t>(s.n)));
    for (Index r = 0; r < s.m; ++r) {
      for (Index c = 0; c < s.n; ++c) {
        const double z = logits(r, c);
        const double t = targets(r, c);
        want_loss += (z > 0.0 ? z : 0.0) - z * t +
                     std::log(1.0 + std::exp(-std::abs(z)));
        want[r][c] = (1.0 / (1.0 + std::exp(-z)) - t) /
                     static_cast<double>(s.m);
      }
    }
    want_loss /= static_cast<double>(s.m);
    expect_close(Matrix{{loss}}.view(), {{want_loss}}, kLossTol);
    expect_close(dlogits.rows_view(0, s.m), want, kLossTol);
    EXPECT_TRUE(all_zero(dlogits.rows_view(s.m, 1)));
    EXPECT_DOUBLE_EQ(b_.now(),
                     done_after(start, loss_cost(b_.perf(), s.m * s.n)));
  }
  EXPECT_EQ(kernels_counted(), device_mode() ? launches : 0u);
}

// A null dlogits runs softmax-xent alone: the same loss and charge as with
// the gradient, and the logits untouched.
TEST_P(BothModes, LossOnlySoftmaxXentMatchesTheFullKernel) {
  Rng rng(17);
  const Matrix logits = random_matrix(3, 3, rng);
  const Matrix before = logits;
  const std::vector<std::int32_t> labels = {2, 0, 1};
  Matrix dlogits(3, 3);
  tensor::MatrixView dv = dlogits.view();
  tensor::Scalar full = 0;
  tensor::Scalar alone = 0;
  b_.wait_until(10.0);
  b_.softmax_xent(logits.view(), labels, &dv, &full);
  const double full_charge = b_.now() - 10.0;
  b_.wait_until(20.0);
  b_.softmax_xent(logits.view(), labels, nullptr, &alone);
  EXPECT_EQ(alone, full);
  EXPECT_DOUBLE_EQ(b_.now() - 20.0, full_charge);
  EXPECT_EQ(tensor::max_abs_diff(logits.view(), before.view()), 0.0);
  EXPECT_EQ(kernels_counted(), device_mode() ? 2u : 0u);
}

TEST_P(BothModes, ReserveIsAccounted) {
  EXPECT_EQ(b_.bytes_in_use(), 0u);
  b_.reserve(120);
  b_.reserve(32);
  EXPECT_EQ(b_.bytes_in_use(), 152u);
  b_.release(32);
  EXPECT_EQ(b_.bytes_in_use(), 120u);
  b_.release(0);  // releasing nothing is a no-op
  EXPECT_EQ(b_.bytes_in_use(), 120u);
  EXPECT_DEATH(b_.release(121), "released more than reserved");
}

TEST_P(BothModes, ReserveFillsCapacityExactly) {
  gpusim::DeviceSpec spec = spec_for(GetParam());
  spec.memory_capacity = 100 * sizeof(tensor::Scalar);
  Backend small(spec, GetParam());
  small.reserve(60 * sizeof(tensor::Scalar));
  small.reserve(40 * sizeof(tensor::Scalar));  // the last 40 fit exactly
  EXPECT_EQ(small.bytes_in_use(), spec.memory_capacity);
  EXPECT_DEATH(small.reserve(sizeof(tensor::Scalar)), "out of modeled memory");
  // Released capacity is available again.
  small.release(60 * sizeof(tensor::Scalar));
  small.reserve(60 * sizeof(tensor::Scalar));
  EXPECT_EQ(small.bytes_in_use(), spec.memory_capacity);
}

// The device transfer counters' movement since `transfers`/`bytes` were
// read: (copies, bytes).
std::pair<std::uint64_t, std::uint64_t> transfers_since(std::uint64_t transfers,
                                                        std::uint64_t bytes) {
  return {counter("hetsgd_gpu_transfers_total") - transfers,
          counter("hetsgd_gpu_transfer_bytes_total") - bytes};
}

TEST_P(BothModes, RoundTripCountsTransfers) {
  Rng rng(3);
  const Matrix host = random_matrix(13, 7, rng);
  const std::uint64_t bytes = 13 * 7 * sizeof(tensor::Scalar);
  Matrix d(13, 7);
  const std::uint64_t transfers = counter("hetsgd_gpu_transfers_total");
  const std::uint64_t moved = counter("hetsgd_gpu_transfer_bytes_total");
  b_.wait_until(1.0);
  b_.upload(host.view(), d.view());
  EXPECT_DOUBLE_EQ(b_.now(),
                   done_after(1.0, b_.perf().transfer_seconds(bytes)));
  Matrix back(13, 7);
  b_.download(d.view(), back.view());
  EXPECT_EQ(tensor::max_abs_diff(host.view(), back.view()), 0.0);
  // Only device copies are device traffic.
  const std::pair<std::uint64_t, std::uint64_t> none{0, 0};
  const std::pair<std::uint64_t, std::uint64_t> both{2, 2 * bytes};
  EXPECT_EQ(transfers_since(transfers, moved), device_mode() ? both : none);
}

TEST_P(BothModes, FailedTransferMovesNothing) {
  const Matrix host{{1, 2}, {3, 4}};
  Matrix d(2, 2);
  Matrix back{{9, 9}, {9, 9}};
  const std::uint64_t transfers = counter("hetsgd_gpu_transfers_total");
  const std::uint64_t moved = counter("hetsgd_gpu_transfer_bytes_total");
  b_.inject_transfer_faults(2);
  b_.wait_until(1.0);
  EXPECT_THROW(b_.upload(host.view(), d.view()), TransferError);
  EXPECT_THROW(b_.download(d.view(), back.view()), TransferError);
  EXPECT_TRUE(all_zero(d.view()));
  EXPECT_DOUBLE_EQ(back(1, 1), 9.0);
  EXPECT_EQ(transfers_since(transfers, moved),
            (std::pair<std::uint64_t, std::uint64_t>{0, 0}));
  EXPECT_DOUBLE_EQ(b_.now(), 1.0);  // nothing was charged
  // Both injections are consumed.
  EXPECT_NO_THROW(b_.upload(host.view(), d.view()));
  EXPECT_NO_THROW(b_.download(d.view(), back.view()));
  EXPECT_DOUBLE_EQ(back(1, 1), 4.0);
}

TEST(DeviceBackend, UploadCopiesIntoPrivateMemory) {
  Backend b = device();
  Matrix host{{1, 2}, {3, 4}};
  Matrix d(2, 2);
  b.upload(host.view(), d.view());
  host(0, 0) = 100;  // a later host write does not reach the device copy
  Matrix back(2, 2);
  b.download(d.view(), back.view());
  EXPECT_DOUBLE_EQ(back(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(back(1, 1), 4.0);
}

TEST(DeviceBackend, StageBatchCopiesRowsAndChargesLabels) {
  Backend b = device();
  Matrix in(8, 3);
  Rng rng(11);
  const Matrix x = random_matrix(5, 3, rng);
  const std::uint64_t label_bytes = 5 * sizeof(std::int32_t);
  const std::uint64_t transfers = counter("hetsgd_gpu_transfers_total");
  b.wait_until(1.0);
  b.stage_batch(x.view(), in.rows_view(0, 5), label_bytes);
  const std::uint64_t x_bytes =
      static_cast<std::uint64_t>(x.size()) * sizeof(tensor::Scalar);
  EXPECT_DOUBLE_EQ(b.now(),
                   1.0 + b.perf().transfer_seconds(x_bytes + label_bytes));
  // Only the batch rows are written, and staging is no counted transfer.
  EXPECT_EQ(tensor::max_abs_diff(in.rows_view(0, 5), x.view()), 0.0);
  EXPECT_TRUE(all_zero(in.rows_view(5, 3)));
  EXPECT_EQ(counter("hetsgd_gpu_transfers_total"), transfers);
}

TEST(DeviceBackend, StageBatchShapeMismatchDies) {
  Backend b = device();
  Matrix in(4, 3);
  Matrix too_many(5, 3);
  Matrix too_wide(4, 4);
  EXPECT_DEATH(b.stage_batch(too_many.view(), in.view(), 0),
               "staged batch shape mismatch");
  EXPECT_DEATH(b.stage_batch(too_wide.view(), in.view(), 0),
               "staged batch shape mismatch");
}

TEST(DeviceBackend, BackendsHaveIndependentClocks) {
  Backend busy = device();
  Backend idle = device();
  const Matrix x(64, 64);
  Matrix y(64, 64);
  busy.axpy(1, x.view(), y.view());
  EXPECT_GT(busy.now(), 0.0);
  // One replica's queued work never delays another's.
  EXPECT_DOUBLE_EQ(idle.now(), 0.0);
  idle.axpy(1, x.view(), y.view());
  EXPECT_DOUBLE_EQ(idle.now(), busy.now());
}

Backend zero_copy() {
  return Backend(gpusim::xeon56_spec(), Backend::Mode::kZeroCopy);
}

TEST(ZeroCopyBackend, ChargesNoVirtualTime) {
  Backend b = zero_copy();
  const Matrix x(64, 64);
  Matrix y(64, 64);
  b.wait_until(10.0);
  b.axpy(1, x.view(), y.view());
  // The kernel ran on the host at its issue time: nothing is queued.
  EXPECT_DOUBLE_EQ(b.now(), 10.0);
}

TEST(ZeroCopyBackend, ApplyGradientUpdatesTheSharedModel) {
  for (const Fixture& f : {Fixture(8), csr_fixture(8)}) {
    SCOPED_TRACE(f.config.input_dim);
    Backend b = zero_copy();
    MlpExecutor mlp(b, f.config, 8);
    nn::Model shared = f.model;
    nn::Gradient grad = nn::make_zero_gradient(f.model);
    mlp.bind_shared_model(shared);
    mlp.bind_host_gradient(grad);
    mlp.compute_gradient(f.batch(), f.y);
    mlp.apply_gradient(0.1);
    // The replica is the shared model: the update lands there, no
    // download — the same model the device replica's round trip produces.
    EXPECT_EQ(
        shared.max_abs_diff(mode_sgd_step(f, Backend::Mode::kDevice, 0.1)),
        0.0);
    nn::Model expected = f.model;
    ref::sgd(expected, f.reference_gradient(), 0.1);
    EXPECT_LT(shared.max_abs_diff(expected), kRefTol);
  }
}

TEST(DeviceBackend, TransfersEmitDeviceCopySpans) {
  auto& tracer = obs::Tracer::instance();
  tracer.start();
  {
    Backend b = device();
    Matrix buf(4, 4);
    Matrix host(4, 4);
    b.upload(host.view(), buf.view());
    b.download(buf.view(), host.view());
  }
  const std::string path = testing::TempDir() + "backend_test_trace.json";
  std::string error;
  ASSERT_TRUE(tracer.stop_and_write(path, &error)) << error;
  std::ifstream in(path);
  std::ostringstream json;
  json << in.rdbuf();
  EXPECT_NE(json.str().find("\"cat\":\"gpusim\""), std::string::npos);
  EXPECT_NE(json.str().find("\"name\":\"h2d_copy\""), std::string::npos);
  EXPECT_NE(json.str().find("\"name\":\"d2h_copy\""), std::string::npos);
}

}  // namespace
}  // namespace hetsgd::backend

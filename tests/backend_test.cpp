// The replica workers' engine — CpuBackend in device mode — checked against
// the host reference path (nn::compute_gradient, nn::sgd_step), plus the
// contract a worker relies on: the FIFO virtual-time queue, pinned
// completion times, the transfer fault surface, buffer ownership, and the
// device signals (trace spans and counters) the benchmarks read. Buffers,
// transfers and each kernel are also checked in both modes, zero-copy
// (the Hogwild lanes) included.
#include "backend/cpu_backend.hpp"

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
#include "nn/activation.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace hetsgd::backend {

// Names the mode in test output. gtest finds PrintTo by argument-dependent
// lookup, so it lives in the mode's namespace, not the unnamed one.
static void PrintTo(CpuBackend::Mode mode, std::ostream* os) {
  *os << (mode == CpuBackend::Mode::kDevice ? "kDevice" : "kZeroCopy");
}

namespace {

using tensor::Index;
using tensor::Matrix;

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

  // The host reference gradient of the fixture's model on its batch.
  nn::Gradient host_gradient(double* loss = nullptr) const {
    nn::Workspace ws;
    nn::Gradient g = nn::make_zero_gradient(model);
    const double l = nn::compute_gradient(model, x.view(), y, ws, g);
    if (loss != nullptr) *loss = l;
    return g;
  }
};

// A 128-feature, ~1% nonzero input: wide and sparse enough that the first
// layer's forward and weight-gradient products take the zero-skipping GEMM
// path (tensor/gemm.cpp).
Fixture sparse_fixture() { return Fixture(16, 128, 0.01); }

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

CpuBackend device(const gpusim::DeviceSpec& spec = gpusim::v100_spec()) {
  return CpuBackend(spec, CpuBackend::Mode::kDevice);
}

TEST(DeviceBackend, GradientMatchesHostExactly) {
  for (Fixture f : {Fixture(16), sparse_fixture()}) {
    SCOPED_TRACE(f.config.input_dim);
    CpuBackend b = device();
    MlpExecutor mlp(b, f.config, 16);
    mlp.upload_model(f.model, 0.0);
    const std::uint64_t sparse_before = counter("hetsgd_sparse_gemms_total");
    double done = 0.0;
    const double device_loss =
        mlp.compute_gradient(f.x.view(), f.y, 0.0, &done);
    nn::Gradient device_grad = nn::make_zero_gradient(f.model);
    mlp.download_gradient(device_grad, done);
    // The sparse input's first layer runs the zero-skipping path.
    EXPECT_EQ(counter("hetsgd_sparse_gemms_total") > sparse_before,
              f.config.input_dim == 128);

    double host_loss = 0.0;
    const nn::Gradient host_grad = f.host_gradient(&host_loss);
    // Same kernel sequence as the host path: results are bit-identical.
    EXPECT_DOUBLE_EQ(device_loss, host_loss);
    EXPECT_EQ(device_grad.max_abs_diff(host_grad), 0.0);
  }
}

TEST(DeviceBackend, SmallerBatchThanMaxWorks) {
  Fixture f(5);
  CpuBackend b = device();
  MlpExecutor mlp(b, f.config, 32);
  mlp.upload_model(f.model, 0.0);
  double done = 0.0;
  mlp.compute_gradient(f.x.view(), f.y, 0.0, &done);
  nn::Gradient device_grad = nn::make_zero_gradient(f.model);
  mlp.download_gradient(device_grad, done);
  EXPECT_EQ(device_grad.max_abs_diff(f.host_gradient()), 0.0);
}

TEST(DeviceBackend, ApplyGradientMatchesHostSgd) {
  Fixture f(8);
  CpuBackend b = device();
  MlpExecutor mlp(b, f.config, 8);
  mlp.upload_model(f.model, 0.0);
  double done = 0.0;
  mlp.compute_gradient(f.x.view(), f.y, 0.0, &done);
  mlp.apply_gradient(0.1, done);
  nn::Model replica = f.model;
  mlp.download_model(replica, done);

  nn::Model expected = f.model;
  nn::sgd_step(expected, f.host_gradient(), 0.1);
  EXPECT_LT(replica.max_abs_diff(expected), 1e-15);
}

TEST(DeviceBackend, UploadDownloadRoundTrip) {
  Fixture f(4);
  CpuBackend b = device();
  MlpExecutor mlp(b, f.config, 4);
  mlp.upload_model(f.model, 0.0);
  nn::Model back(f.config, f.rng);  // different values
  mlp.download_model(back, 0.0);
  EXPECT_EQ(back.max_abs_diff(f.model), 0.0);
}

TEST(DeviceBackend, VirtualTimeAdvances) {
  Fixture f(8);
  CpuBackend b = device();
  MlpExecutor mlp(b, f.config, 8);
  const double t0 = mlp.upload_model(f.model, 0.0);
  EXPECT_GT(t0, 0.0);
  double done = 0.0;
  mlp.compute_gradient(f.x.view(), f.y, t0, &done);
  EXPECT_GT(done, t0);
  const double t1 = mlp.apply_gradient(0.1, done);
  EXPECT_GT(t1, done);
}

// The virtual-time contract of the replica path, pinned to the completion
// times the former standalone simulated-GPU engine produced for the same
// sequence (hex-float literals, so the match is exact): the one engine
// must keep every recorded schedule, for a dense input and for a sparse
// one that takes the zero-skipping GEMM path. Math is checked against the
// host path alongside.
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
    CpuBackend b = device();
    MlpExecutor mlp(b, f.config, 16);
    nn::Gradient grad = nn::make_zero_gradient(f.model);
    nn::Model model_after = f.model;
    const double t_upload = mlp.upload_model(f.model, 0.0);
    double t_done = 0.0;
    mlp.compute_gradient(f.x.view(), f.y, t_upload, &t_done);
    mlp.download_gradient(grad, t_done);
    const double t_apply = mlp.apply_gradient(0.2, t_done);
    mlp.download_model(model_after, t_apply);

    EXPECT_EQ(t_upload, want.t_upload);
    EXPECT_EQ(t_done, want.t_done);
    EXPECT_EQ(t_apply, want.t_apply);

    const nn::Gradient host_grad = f.host_gradient();
    EXPECT_EQ(grad.max_abs_diff(host_grad), 0.0);
    nn::Model expected = f.model;
    nn::sgd_step(expected, host_grad, 0.2);
    EXPECT_EQ(model_after.max_abs_diff(expected), 0.0);
  }
}

TEST(DeviceBackend, QueueIsFifoInVirtualTime) {
  CpuBackend b = device();
  const Buffer buf = b.alloc(16, 16);
  Matrix host(16, 16);
  const double cost = b.perf().transfer_seconds(buf.bytes());
  // Two ops issued at t=0: the second queues behind the first.
  const double t1 = b.upload(host.view(), buf, 0.0);
  const double t2 = b.upload(host.view(), buf, 0.0);
  EXPECT_DOUBLE_EQ(t1, cost);
  EXPECT_DOUBLE_EQ(t2, t1 + cost);
  // An op issued after the queue drains starts at its issue time.
  const double t3 = b.upload(host.view(), buf, 10.0);
  EXPECT_DOUBLE_EQ(t3, 10.0 + cost);
}

TEST(DeviceBackend, SynchronizeReturnsMaxOfIssueAndQueue) {
  CpuBackend b = device();
  EXPECT_DOUBLE_EQ(b.synchronize(5.0), 5.0);
  const Buffer x = b.alloc(4, 4);
  const Buffer y = b.alloc(4, 4);
  const double done = b.axpy(2, x, y, 10.0);
  EXPECT_GT(done, 10.0);
  EXPECT_DOUBLE_EQ(b.synchronize(5.0), done);
  EXPECT_DOUBLE_EQ(b.synchronize(done + 1.0), done + 1.0);
}

TEST(DeviceBackend, CopyShapeMismatchDies) {
  CpuBackend b = device();
  const Buffer buf = b.alloc(3, 2);
  Matrix host(2, 3);
  EXPECT_DEATH(b.upload(host.view(), buf, 0.0), "H2D copy shape mismatch");
  EXPECT_DEATH(b.download(buf, host.view(), 0.0), "D2H copy shape mismatch");
}

TEST(DeviceBackend, FreedHandleCopiesDie) {
  CpuBackend b = device();
  Buffer buf = b.alloc(2, 2);
  Buffer copy = buf;  // handles are values; the backend owns the storage
  b.free(buf);
  EXPECT_FALSE(buf.valid());
  EXPECT_EQ(b.bytes_in_use(), 0u);
  EXPECT_DEATH(b.free(copy), "used after free");
  EXPECT_DEATH(b.view(copy), "used after free");
}

TEST(DeviceBackend, DeviceBytesAccounted) {
  Fixture f(4);
  CpuBackend b = device();
  EXPECT_FALSE(b.zero_copy());
  const std::uint64_t before = b.bytes_in_use();
  auto mlp = std::make_unique<MlpExecutor>(b, f.config, 64);
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
        CpuBackend b = device(tiny);
        MlpExecutor mlp(b, big, 1024);
      },
      "out of");
}

TEST(DeviceBackend, BatchBeyondMaxDies) {
  Fixture f(16);
  CpuBackend b = device();
  MlpExecutor mlp(b, f.config, 8);
  mlp.upload_model(f.model, 0.0);
  double done = 0.0;
  EXPECT_DEATH(mlp.compute_gradient(f.x.view(), f.y, 0.0, &done), "max_batch");
}

TEST(DeviceBackend, TrainingConvergesLikeHost) {
  Fixture f(32);
  CpuBackend b = device();
  MlpExecutor mlp(b, f.config, 32);
  nn::Model host_model = f.model;
  nn::Workspace ws;
  nn::Gradient host_grad = nn::make_zero_gradient(host_model);

  double clock = mlp.upload_model(f.model, 0.0);
  for (int step = 0; step < 20; ++step) {
    double done = clock;
    mlp.compute_gradient(f.x.view(), f.y, clock, &done);
    clock = mlp.apply_gradient(0.3, done);
    nn::compute_gradient(host_model, f.x.view(), f.y, ws, host_grad);
    nn::sgd_step(host_model, host_grad, 0.3);
  }
  nn::Model final_device = f.model;
  mlp.download_model(final_device, clock);
  EXPECT_LT(final_device.max_abs_diff(host_model), 1e-12);
}

TEST(DeviceBackend, NanPoisonedInputPropagatesToGradient) {
  Fixture f(8);
  f.x(0, 0) = std::numeric_limits<tensor::Scalar>::quiet_NaN();
  CpuBackend b = device();
  MlpExecutor mlp(b, f.config, 8);
  mlp.upload_model(f.model, 0.0);
  double done = 0.0;
  const double loss = mlp.compute_gradient(f.x.view(), f.y, 0.0, &done);
  nn::Gradient grad = nn::make_zero_gradient(f.model);
  mlp.download_gradient(grad, done);
  // NaN must flow through the kernels, not be masked: the coordinator's
  // divergence rollback depends on seeing it in the merge.
  EXPECT_TRUE(std::isnan(loss));
  EXPECT_FALSE(std::isfinite(
      static_cast<double>(grad.layer(0).weights.data()[0])));
}

TEST(DeviceBackend, InjectedTransferFaultThrowsOnceAndCounts) {
  Fixture f(4);
  CpuBackend b = device();
  MlpExecutor mlp(b, f.config, 4);
  b.inject_transfer_faults(1);
  EXPECT_THROW(mlp.upload_model(f.model, 0.0), TransferError);
  EXPECT_EQ(b.failed_transfers(), 1u);
  // The injection is consumed: the retry goes through.
  EXPECT_NO_THROW(mlp.upload_model(f.model, 0.0));
}

TEST(DeviceBackend, BatchStagingIsNotAFaultSurface) {
  Fixture f(4);
  CpuBackend b = device();
  MlpExecutor mlp(b, f.config, 4);
  mlp.upload_model(f.model, 0.0);
  // Input staging is deliberately outside the injection surface (the model
  // upload and gradient download bracket every round trip); a pending
  // fault must survive compute_gradient and fire on the next transfer.
  b.inject_transfer_faults(1);
  double done = 0.0;
  EXPECT_NO_THROW(mlp.compute_gradient(f.x.view(), f.y, 0.0, &done));
  nn::Gradient grad = nn::make_zero_gradient(f.model);
  EXPECT_THROW(mlp.download_gradient(grad, done), TransferError);
  EXPECT_EQ(b.failed_transfers(), 1u);
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
  CpuBackend b = device();
  MlpExecutor mlp(b, f.config, 16);
  const std::uint64_t kernels = counter("hetsgd_gpu_kernels_total");
  const std::uint64_t transfers = counter("hetsgd_gpu_transfers_total");
  const std::uint64_t bytes = counter("hetsgd_gpu_transfer_bytes_total");
  double done = mlp.upload_model(f.model, 0.0);
  mlp.compute_gradient(f.x.view(), f.y, done, &done);
  nn::Gradient grad = nn::make_zero_gradient(f.model);
  mlp.download_gradient(grad, done);
  EXPECT_EQ(counter("hetsgd_gpu_kernels_total") - kernels,
            kernels_per_gradient(f.config));
  EXPECT_EQ(counter("hetsgd_gpu_transfers_total") - transfers,
            b.transfer_count());
  EXPECT_EQ(counter("hetsgd_gpu_transfer_bytes_total") - bytes,
            b.bytes_transferred());
  // Model up + gradient down: weights and bias per layer, each way.
  EXPECT_EQ(b.transfer_count(), 4 * f.config.layer_shapes().size());
}

TEST(ZeroCopyBackend, CountsNoDeviceKernelsOrTransfers) {
  Fixture f(16);
  CpuBackend b(gpusim::xeon56_spec(), CpuBackend::Mode::kZeroCopy);
  MlpExecutor mlp(b, f.config, 16);
  nn::Gradient grad = nn::make_zero_gradient(f.model);
  mlp.bind_shared_model(f.model);
  mlp.bind_host_gradient(grad);
  const std::uint64_t kernels = counter("hetsgd_gpu_kernels_total");
  const std::uint64_t transfers = counter("hetsgd_gpu_transfers_total");
  double done = mlp.upload_model(f.model, 0.0);
  mlp.compute_gradient(f.x.view(), f.y, done, &done);
  mlp.download_gradient(grad, done);
  EXPECT_EQ(grad.max_abs_diff(f.host_gradient()), 0.0);
  mlp.apply_gradient(0.1, done);  // updates the bound model in place
  EXPECT_EQ(counter("hetsgd_gpu_kernels_total"), kernels);
  EXPECT_EQ(counter("hetsgd_gpu_transfers_total"), transfers);
}

// --- Buffers, transfers and kernels in both modes --------------------------
// The replica workers run kDevice and the Hogwild lanes kZeroCopy; both run
// the same tensor:: kernels. Each kernel is checked against the host call it
// wraps, on the first `batch` rows of larger buffers, and against its
// virtual-time charge: its PerfModel cost on the queue in device mode,
// nothing in zero-copy mode (the worker charges whole batches there).

gpusim::DeviceSpec spec_for(CpuBackend::Mode mode) {
  return mode == CpuBackend::Mode::kDevice ? gpusim::v100_spec()
                                           : gpusim::xeon56_spec();
}

Matrix random_matrix(Index rows, Index cols, Rng& rng) {
  Matrix m(rows, cols);
  tensor::fill_normal(m.view(), rng, 0, 1);
  return m;
}

class BothModes : public testing::TestWithParam<CpuBackend::Mode> {
 protected:
  BothModes()
      : b_(spec_for(GetParam()), GetParam()),
        kernels_before_(counter("hetsgd_gpu_kernels_total")) {}

  bool device_mode() const { return GetParam() == CpuBackend::Mode::kDevice; }

  // Completion time of one op of `cost` issued at `issue` on an idle queue.
  double done_after(double issue, double cost) const {
    return device_mode() ? issue + cost : issue;
  }

  // Device kernels counted since the fixture was built.
  std::uint64_t kernels_counted() const {
    return counter("hetsgd_gpu_kernels_total") - kernels_before_;
  }

  // A buffer holding `host`, written through view(): no transfer, no time.
  Buffer put(const Matrix& host) {
    const Buffer buf = b_.alloc(host.rows(), host.cols());
    std::copy_n(host.data(), host.size(), b_.view(buf).data());
    return buf;
  }

  Matrix get(const Buffer& buf) {
    Matrix m(buf.rows, buf.cols);
    std::copy_n(b_.view(buf).data(), m.size(), m.data());
    return m;
  }

  CpuBackend b_;
  std::uint64_t kernels_before_;
};

INSTANTIATE_TEST_SUITE_P(
    Modes, BothModes,
    testing::Values(CpuBackend::Mode::kDevice, CpuBackend::Mode::kZeroCopy),
    [](const testing::TestParamInfo<CpuBackend::Mode>& mode) {
      return mode.param == CpuBackend::Mode::kDevice ? "device" : "zero_copy";
    });

TEST_P(BothModes, GemmBiasActMatchesHost) {
  Rng rng(5);
  // Buffers hold 7 rows; the kernel runs on the first 5.
  const Matrix x = random_matrix(7, 6, rng);
  const Matrix w = random_matrix(4, 6, rng);
  const Matrix bias = random_matrix(1, 4, rng);
  const Buffer out = b_.alloc(7, 4);
  const double done = b_.gemm_bias_act(put(x), put(w), put(bias), out, 5,
                                       tensor::Epilogue::kBiasTanh, 1.0);
  Matrix want(5, 4);
  tensor::gemm_bias_act(tensor::Trans::kNo, tensor::Trans::kYes, 1,
                        x.rows_view(0, 5), w.view(), want.view(), bias.view(),
                        tensor::Epilogue::kBiasTanh);
  const Matrix got = get(out);
  EXPECT_EQ(tensor::max_abs_diff(got.rows_view(0, 5), want.view()), 0.0);
  EXPECT_EQ(tensor::frobenius_norm(got.rows_view(5, 2)), 0.0);
  EXPECT_DOUBLE_EQ(done, done_after(1.0, b_.perf().gemm_seconds(5, 4, 6)));
  EXPECT_EQ(kernels_counted(), device_mode() ? 1u : 0u);
}

TEST_P(BothModes, SoftmaxXentMatchesHost) {
  Rng rng(6);
  const Matrix logits = random_matrix(4, 3, rng);
  const std::vector<std::int32_t> labels = {2, 0, 1};
  const Buffer dlogits = b_.alloc(4, 3);
  tensor::Scalar loss = 0;
  const double done =
      b_.softmax_xent(put(logits), labels, dlogits, 3, &loss, 1.0);
  Matrix want(3, 3);
  tensor::MatrixView want_view = want.view();
  const tensor::Scalar want_loss =
      nn::softmax_cross_entropy(logits.rows_view(0, 3), labels, &want_view);
  EXPECT_EQ(loss, want_loss);
  const Matrix got = get(dlogits);
  EXPECT_EQ(tensor::max_abs_diff(got.rows_view(0, 3), want.view()), 0.0);
  EXPECT_EQ(tensor::frobenius_norm(got.rows_view(3, 1)), 0.0);
  // The kernel, then the one-scalar D2H return of the loss.
  const double kernel = b_.perf().elementwise_seconds(3 * 3 * 6);
  const double loss_copy = b_.perf().transfer_seconds(sizeof(tensor::Scalar));
  EXPECT_DOUBLE_EQ(done, device_mode() ? 1.0 + kernel + loss_copy : 1.0);
  EXPECT_EQ(kernels_counted(), device_mode() ? 1u : 0u);
}

TEST_P(BothModes, MatmulTnMatchesHost) {
  Rng rng(7);
  const Matrix delta = random_matrix(7, 4, rng);
  const Matrix prev = random_matrix(7, 6, rng);
  const Buffer grad_w = b_.alloc(4, 6);
  const double done = b_.matmul_tn(put(delta), put(prev), 5, grad_w, 1.0);
  Matrix want(4, 6);
  tensor::matmul_tn(delta.rows_view(0, 5), prev.rows_view(0, 5), want.view());
  EXPECT_EQ(tensor::max_abs_diff(get(grad_w).view(), want.view()), 0.0);
  EXPECT_DOUBLE_EQ(done, done_after(1.0, b_.perf().gemm_seconds(4, 6, 5)));
  EXPECT_EQ(kernels_counted(), device_mode() ? 1u : 0u);
}

TEST_P(BothModes, ColSumsMatchesHost) {
  Rng rng(8);
  const Matrix m = random_matrix(7, 4, rng);
  const Buffer out = b_.alloc(1, 4);
  const double done = b_.col_sums(put(m), 5, out, 1.0);
  Matrix want(1, 4);
  tensor::col_sums(m.rows_view(0, 5), want.view());
  EXPECT_EQ(tensor::max_abs_diff(get(out).view(), want.view()), 0.0);
  EXPECT_DOUBLE_EQ(done, done_after(1.0, b_.perf().elementwise_seconds(20)));
  EXPECT_EQ(kernels_counted(), device_mode() ? 1u : 0u);
}

TEST_P(BothModes, MatmulNnMatchesHost) {
  Rng rng(9);
  const Matrix delta = random_matrix(7, 4, rng);
  const Matrix w = random_matrix(4, 6, rng);
  const Buffer out = b_.alloc(7, 6);
  const double done = b_.matmul_nn(put(delta), put(w), 5, out, 1.0);
  Matrix want(5, 6);
  tensor::matmul_nn(delta.rows_view(0, 5), w.view(), want.view());
  const Matrix got = get(out);
  EXPECT_EQ(tensor::max_abs_diff(got.rows_view(0, 5), want.view()), 0.0);
  EXPECT_EQ(tensor::frobenius_norm(got.rows_view(5, 2)), 0.0);
  EXPECT_DOUBLE_EQ(done, done_after(1.0, b_.perf().gemm_seconds(5, 6, 4)));
  EXPECT_EQ(kernels_counted(), device_mode() ? 1u : 0u);
}

TEST_P(BothModes, ActivationBackwardMatchesHost) {
  Rng rng(10);
  const nn::Activation acts[] = {nn::Activation::kIdentity,
                                 nn::Activation::kSigmoid,
                                 nn::Activation::kTanh, nn::Activation::kRelu};
  double issue = 1.0;
  for (const nn::Activation act : acts) {
    SCOPED_TRACE(static_cast<int>(act));
    Matrix activated(7, 4);
    tensor::fill_uniform(activated.view(), rng, -1, 1);
    const Matrix delta = random_matrix(7, 4, rng);
    const Buffer d = put(delta);
    const double done =
        b_.activation_backward(act, put(activated), d, 5, issue);
    Matrix want = delta;
    nn::activation_backward(act, activated.rows_view(0, 5),
                            want.rows_view(0, 5));
    // Rows past the batch keep their incoming delta.
    EXPECT_EQ(tensor::max_abs_diff(get(d).view(), want.view()), 0.0);
    EXPECT_DOUBLE_EQ(done,
                     done_after(issue, b_.perf().elementwise_seconds(20)));
    issue += 1.0;
  }
  EXPECT_EQ(kernels_counted(), device_mode() ? 4u : 0u);
}

TEST_P(BothModes, AxpyMatchesHost) {
  const Buffer x = put(Matrix{{1, 2, 3}, {4, 5, 6}});
  const Buffer y = put(Matrix{{10, 10, 10}, {10, 10, 10}});
  const double done = b_.axpy(2, x, y, 1.0);
  const Matrix got = get(y);
  EXPECT_DOUBLE_EQ(got(0, 0), 12.0);  // 10 + 2*1
  EXPECT_DOUBLE_EQ(got(1, 2), 22.0);  // 10 + 2*6
  EXPECT_DOUBLE_EQ(done, done_after(1.0, b_.perf().elementwise_seconds(6)));
  EXPECT_EQ(kernels_counted(), device_mode() ? 1u : 0u);
}

TEST_P(BothModes, AllocIsZeroedAndAccounted) {
  const Buffer a = b_.alloc(3, 5);
  Buffer c = b_.alloc(2, 2);
  EXPECT_EQ(a.bytes(), 15 * sizeof(tensor::Scalar));
  EXPECT_EQ(b_.bytes_in_use(), a.bytes() + c.bytes());
  EXPECT_EQ(tensor::frobenius_norm(b_.view(a)), 0.0);
  b_.free(c);
  EXPECT_FALSE(c.valid());
  EXPECT_EQ(b_.bytes_in_use(), a.bytes());
  b_.free(c);  // freeing a null handle is a no-op
  EXPECT_EQ(b_.bytes_in_use(), a.bytes());
}

TEST_P(BothModes, AllocFillsCapacityExactly) {
  gpusim::DeviceSpec spec = spec_for(GetParam());
  spec.memory_capacity = 100 * sizeof(tensor::Scalar);
  CpuBackend small(spec, GetParam());
  Buffer first = small.alloc(6, 10);
  small.alloc(4, 10);  // the last 40 elements fit exactly
  EXPECT_EQ(small.bytes_in_use(), spec.memory_capacity);
  EXPECT_DEATH(small.alloc(1, 1), "out of modeled memory");
  // Freed capacity is available again.
  small.free(first);
  EXPECT_TRUE(small.alloc(6, 10).valid());
  EXPECT_EQ(small.bytes_in_use(), spec.memory_capacity);
}

TEST_P(BothModes, BufferRoundTripCountsTransfers) {
  Rng rng(3);
  const Matrix host = random_matrix(13, 7, rng);
  const Buffer d = b_.alloc(13, 7);
  const double t = b_.upload(host.view(), d, 1.0);
  EXPECT_DOUBLE_EQ(t, done_after(1.0, b_.perf().transfer_seconds(d.bytes())));
  Matrix back(13, 7);
  b_.download(d, back.view(), t);
  EXPECT_EQ(tensor::max_abs_diff(host.view(), back.view()), 0.0);
  EXPECT_EQ(b_.transfer_count(), 2u);
  EXPECT_EQ(b_.bytes_transferred(), 2 * d.bytes());
}

TEST_P(BothModes, FailedTransferMovesNothing) {
  const Matrix host{{1, 2}, {3, 4}};
  const Buffer d = b_.alloc(2, 2);
  Matrix back{{9, 9}, {9, 9}};
  b_.inject_transfer_faults(2);
  EXPECT_THROW(b_.upload(host.view(), d, 1.0), TransferError);
  EXPECT_THROW(b_.download(d, back.view(), 1.0), TransferError);
  EXPECT_EQ(b_.failed_transfers(), 2u);
  EXPECT_EQ(tensor::frobenius_norm(b_.view(d)), 0.0);
  EXPECT_DOUBLE_EQ(back(1, 1), 9.0);
  EXPECT_EQ(b_.transfer_count(), 0u);
  EXPECT_EQ(b_.bytes_transferred(), 0u);
  EXPECT_DOUBLE_EQ(b_.synchronize(1.0), 1.0);  // nothing was queued
  // Both injections are consumed.
  EXPECT_NO_THROW(b_.upload(host.view(), d, 1.0));
  EXPECT_EQ(b_.failed_transfers(), 2u);
}

TEST(DeviceBackend, AdoptNeedsZeroCopyMode) {
  CpuBackend b = device();
  Matrix host(2, 2);
  EXPECT_DEATH(b.adopt(host.view()), "requires a zero-copy backend");
}

TEST(DeviceBackend, InvalidHandleDies) {
  CpuBackend b = device();
  EXPECT_DEATH(b.view(Buffer{}), "invalid buffer handle");
  const Buffer foreign{7, 2, 2};  // an id this backend never issued
  EXPECT_DEATH(b.view(foreign), "invalid buffer handle");
}

TEST(DeviceBackend, UploadCopiesIntoPrivateMemory) {
  CpuBackend b = device();
  Matrix host{{1, 2}, {3, 4}};
  const Buffer d = b.alloc(2, 2);
  b.upload(host.view(), d, 0.0);
  EXPECT_NE(b.view(d).data(), host.data());
  host(0, 0) = 100;  // a later host write does not reach the device copy
  Matrix back(2, 2);
  b.download(d, back.view(), 0.0);
  EXPECT_DOUBLE_EQ(back(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(back(1, 1), 4.0);
}

TEST(DeviceBackend, StageBatchCopiesRowsAndChargesLabels) {
  CpuBackend b = device();
  Buffer in = b.alloc(8, 3);
  Rng rng(11);
  const Matrix x = random_matrix(5, 3, rng);
  const std::uint64_t label_bytes = 5 * sizeof(std::int32_t);
  const double done = b.stage_batch(x.view(), in, label_bytes, 1.0);
  const std::uint64_t x_bytes =
      static_cast<std::uint64_t>(x.size()) * sizeof(tensor::Scalar);
  EXPECT_DOUBLE_EQ(done,
                   1.0 + b.perf().transfer_seconds(x_bytes + label_bytes));
  // The handle keeps its max-batch shape; only the batch rows are written.
  EXPECT_EQ(in.rows, 8);
  const tensor::MatrixView v = b.view(in);
  EXPECT_EQ(tensor::max_abs_diff(tensor::ConstMatrixView(v.data(), 5, 3),
                                 x.view()),
            0.0);
  EXPECT_EQ(tensor::frobenius_norm(
                tensor::ConstMatrixView(v.data() + 5 * 3, 3, 3)),
            0.0);
}

TEST(DeviceBackend, StageBatchBeyondBufferDies) {
  CpuBackend b = device();
  Buffer in = b.alloc(4, 3);
  Matrix too_many(5, 3);
  Matrix too_wide(4, 4);
  EXPECT_DEATH(b.stage_batch(too_many.view(), in, 0, 0.0),
               "staged batch exceeds input buffer");
  EXPECT_DEATH(b.stage_batch(too_wide.view(), in, 0, 0.0),
               "staged batch exceeds input buffer");
}

TEST(DeviceBackend, BackendsHaveIndependentQueues) {
  CpuBackend busy = device();
  CpuBackend idle = device();
  const double t = busy.axpy(1, busy.alloc(64, 64), busy.alloc(64, 64), 0.0);
  EXPECT_GT(t, 0.0);
  // One replica's queued work never delays another's.
  EXPECT_DOUBLE_EQ(idle.synchronize(0.0), 0.0);
  EXPECT_DOUBLE_EQ(idle.axpy(1, idle.alloc(64, 64), idle.alloc(64, 64), 0.0),
                   t);
}

CpuBackend zero_copy() {
  return CpuBackend(gpusim::xeon56_spec(), CpuBackend::Mode::kZeroCopy);
}

TEST(ZeroCopyBackend, AdoptAliasesHostStorage) {
  CpuBackend b = zero_copy();
  Matrix x{{1, 2, 3}, {4, 5, 6}};
  Matrix y{{10, 10, 10}, {10, 10, 10}};
  const Buffer dx = b.adopt(x.view());
  Buffer dy = b.adopt(y.view());
  EXPECT_EQ(b.view(dx).data(), x.data());
  EXPECT_EQ(b.bytes_in_use(), 0u);  // adopted storage is not an allocation
  b.axpy(2, dx, dy, 0.0);
  EXPECT_DOUBLE_EQ(y(0, 0), 12.0);  // the kernel wrote the host storage
  b.free(dy);
  EXPECT_FALSE(dy.valid());
  EXPECT_DOUBLE_EQ(y(1, 2), 22.0);  // freeing an adoption keeps the storage
  EXPECT_EQ(b.bytes_in_use(), 0u);
}

TEST(ZeroCopyBackend, StageBatchAliasesTheInputRows) {
  CpuBackend b = zero_copy();
  Matrix placeholder(1, 3);
  Buffer in = b.adopt(placeholder.view());
  Rng rng(12);
  const Matrix x = random_matrix(5, 3, rng);
  EXPECT_DOUBLE_EQ(b.stage_batch(x.view(), in, 20, 1.0), 1.0);
  EXPECT_EQ(in.rows, 5);
  EXPECT_EQ(in.cols, 3);
  EXPECT_EQ(b.view(in).data(), x.data());
}

TEST(ZeroCopyBackend, StageBatchNeedsAnAdoptedBuffer) {
  CpuBackend b = zero_copy();
  Buffer in = b.alloc(5, 3);
  Matrix x(5, 3);
  EXPECT_DEATH(b.stage_batch(x.view(), in, 0, 0.0),
               "zero-copy staging needs an adopted buffer");
}

TEST(ZeroCopyBackend, SynchronizeReturnsIssue) {
  CpuBackend b = zero_copy();
  const Buffer x = b.alloc(64, 64);
  const Buffer y = b.alloc(64, 64);
  EXPECT_DOUBLE_EQ(b.axpy(1, x, y, 10.0), 10.0);
  // No queue: the host never waits on kernels it already ran.
  EXPECT_DOUBLE_EQ(b.synchronize(5.0), 5.0);
}

TEST(ZeroCopyBackend, ApplyGradientUpdatesTheSharedModel) {
  Fixture f(8);
  CpuBackend b = zero_copy();
  MlpExecutor mlp(b, f.config, 8);
  nn::Model shared = f.model;
  nn::Gradient grad = nn::make_zero_gradient(f.model);
  mlp.bind_shared_model(shared);
  mlp.bind_host_gradient(grad);
  double done = 0.0;
  mlp.compute_gradient(f.x.view(), f.y, 0.0, &done);
  mlp.apply_gradient(0.1, done);
  // The replica is the shared model: the update lands there, no download.
  nn::Model expected = f.model;
  nn::sgd_step(expected, f.host_gradient(), 0.1);
  EXPECT_LT(shared.max_abs_diff(expected), 1e-15);
}

#if !defined(HETSGD_TRACE_DISABLED)
TEST(DeviceBackend, TransfersEmitDeviceCopySpans) {
  auto& tracer = obs::Tracer::instance();
  tracer.start(1 << 10);
  {
    CpuBackend b = device();
    const Buffer buf = b.alloc(4, 4);
    Matrix host(4, 4);
    const double t = b.upload(host.view(), buf, 0.0);
    b.download(buf, host.view(), t);
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
#endif

}  // namespace
}  // namespace hetsgd::backend

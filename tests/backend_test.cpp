// Cross-backend equivalence suite: every registered Backend must run the
// identical forward/backward/update sequence and produce bit-identical
// results (math) and identical virtual completion times (cost model), so a
// training trajectory is independent of which engine executes it.
//
// Replaces the old mlp_test / device_mlp_test duplication: the checks run
// once per backend via gtest value-parameterization over the registry, so
// a newly registered backend is automatically under the full suite.
#include "backend/backend.hpp"

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "backend/mlp_executor.hpp"
#include "common/rng.hpp"
#include "nn/mlp.hpp"
#include "obs/metrics.hpp"
#include "tensor/ops.hpp"

namespace hetsgd::backend {
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
};

// A 128-feature, ~1% nonzero input: wide and sparse enough that the first
// layer's forward and weight-gradient products take the zero-skipping GEMM
// path (tensor/gemm.cpp).
Fixture sparse_fixture() { return Fixture(16, 128, 0.01); }

std::uint64_t sparse_gemms() {
  return obs::MetricsRegistry::instance()
      .counter("hetsgd_sparse_gemms_total")
      .value();
}

class BackendSuite : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<Backend> make(const DeviceSpec& spec = v100_spec()) {
    auto b = make_backend(GetParam(), spec);
    EXPECT_NE(b, nullptr);
    return b;
  }
};

TEST_P(BackendSuite, RegisteredUnderItsName) {
  auto b = make();
  EXPECT_EQ(b->name(), GetParam());
  EXPECT_TRUE(backend_registered(GetParam()));
  // Registry-built backends hold a private replica (the Hogwild zero-copy
  // mode is constructed directly by the CPU worker, not by name).
  EXPECT_FALSE(b->zero_copy());
}

TEST_P(BackendSuite, GradientMatchesHostExactly) {
  for (Fixture f : {Fixture(16), sparse_fixture()}) {
    SCOPED_TRACE(f.config.input_dim);
    auto b = make();
    MlpExecutor mlp(*b, f.config, 16);
    mlp.upload_model(f.model, 0.0);
    const std::uint64_t sparse_before = sparse_gemms();
    double done = 0.0;
    const double device_loss =
        mlp.compute_gradient(f.x.view(), f.y, 0.0, &done);
    nn::Gradient device_grad = nn::make_zero_gradient(f.model);
    mlp.download_gradient(device_grad, done);
    // The sparse input's first layer runs the zero-skipping path.
    EXPECT_EQ(sparse_gemms() > sparse_before, f.config.input_dim == 128);

    nn::Workspace ws;
    nn::Gradient host_grad = nn::make_zero_gradient(f.model);
    const double host_loss =
        nn::compute_gradient(f.model, f.x.view(), f.y, ws, host_grad);

    // Same kernel sequence on every backend: results are bit-identical.
    EXPECT_DOUBLE_EQ(device_loss, host_loss);
    EXPECT_EQ(device_grad.max_abs_diff(host_grad), 0.0);
  }
}

TEST_P(BackendSuite, SmallerBatchThanMaxWorks) {
  Fixture f(5);
  auto b = make();
  MlpExecutor mlp(*b, f.config, 32);
  mlp.upload_model(f.model, 0.0);
  double done = 0.0;
  mlp.compute_gradient(f.x.view(), f.y, 0.0, &done);
  nn::Gradient device_grad = nn::make_zero_gradient(f.model);
  mlp.download_gradient(device_grad, done);

  nn::Workspace ws;
  nn::Gradient host_grad = nn::make_zero_gradient(f.model);
  nn::compute_gradient(f.model, f.x.view(), f.y, ws, host_grad);
  EXPECT_EQ(device_grad.max_abs_diff(host_grad), 0.0);
}

TEST_P(BackendSuite, ApplyGradientMatchesHostSgd) {
  Fixture f(8);
  auto b = make();
  MlpExecutor mlp(*b, f.config, 8);
  mlp.upload_model(f.model, 0.0);
  double done = 0.0;
  mlp.compute_gradient(f.x.view(), f.y, 0.0, &done);
  mlp.apply_gradient(0.1, done);
  nn::Model replica = f.model;
  mlp.download_model(replica, done);

  nn::Workspace ws;
  nn::Gradient host_grad = nn::make_zero_gradient(f.model);
  nn::compute_gradient(f.model, f.x.view(), f.y, ws, host_grad);
  nn::Model expected = f.model;
  nn::sgd_step(expected, host_grad, 0.1);
  EXPECT_LT(replica.max_abs_diff(expected), 1e-15);
}

TEST_P(BackendSuite, UploadDownloadRoundTrip) {
  Fixture f(4);
  auto b = make();
  MlpExecutor mlp(*b, f.config, 4);
  mlp.upload_model(f.model, 0.0);
  nn::Model back(f.config, f.rng);  // different values
  mlp.download_model(back, 0.0);
  EXPECT_EQ(back.max_abs_diff(f.model), 0.0);
}

TEST_P(BackendSuite, VirtualTimeAdvances) {
  Fixture f(8);
  auto b = make();
  MlpExecutor mlp(*b, f.config, 8);
  const double t0 = mlp.upload_model(f.model, 0.0);
  EXPECT_GT(t0, 0.0);
  double done = 0.0;
  mlp.compute_gradient(f.x.view(), f.y, t0, &done);
  EXPECT_GT(done, t0);
  const double t1 = mlp.apply_gradient(0.1, done);
  EXPECT_GT(t1, done);
}

TEST_P(BackendSuite, DeviceBytesAccounted) {
  Fixture f(4);
  auto b = make();
  const std::uint64_t before = b->bytes_in_use();
  auto mlp = std::make_unique<MlpExecutor>(*b, f.config, 64);
  EXPECT_EQ(b->bytes_in_use() - before, mlp->device_bytes());
  mlp.reset();
  EXPECT_EQ(b->bytes_in_use(), before);
}

TEST_P(BackendSuite, OversizedModelTriggersOom) {
  DeviceSpec tiny = v100_spec();
  tiny.memory_capacity = 1 << 16;  // 64 KiB
  nn::MlpConfig big = test_config();
  big.hidden_units = 256;
  EXPECT_DEATH(
      {
        auto b = make(tiny);
        MlpExecutor mlp(*b, big, 1024);
      },
      "out of");
}

TEST_P(BackendSuite, BatchBeyondMaxDies) {
  Fixture f(16);
  auto b = make();
  MlpExecutor mlp(*b, f.config, 8);
  mlp.upload_model(f.model, 0.0);
  double done = 0.0;
  EXPECT_DEATH(mlp.compute_gradient(f.x.view(), f.y, 0.0, &done), "max_batch");
}

TEST_P(BackendSuite, TrainingConvergesLikeHost) {
  Fixture f(32);
  auto b = make();
  MlpExecutor mlp(*b, f.config, 32);
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

TEST_P(BackendSuite, NanPoisonedInputPropagatesToGradient) {
  Fixture f(8);
  f.x(0, 0) = std::numeric_limits<tensor::Scalar>::quiet_NaN();
  auto b = make();
  MlpExecutor mlp(*b, f.config, 8);
  mlp.upload_model(f.model, 0.0);
  double done = 0.0;
  const double loss = mlp.compute_gradient(f.x.view(), f.y, 0.0, &done);
  nn::Gradient grad = nn::make_zero_gradient(f.model);
  mlp.download_gradient(grad, done);
  // NaN must flow through every backend's kernels, not be masked: the
  // coordinator's divergence rollback depends on seeing it in the merge.
  EXPECT_TRUE(std::isnan(loss));
  EXPECT_FALSE(std::isfinite(
      static_cast<double>(grad.layer(0).weights.data()[0])));
}

TEST_P(BackendSuite, InjectedTransferFaultThrowsOnceAndCounts) {
  Fixture f(4);
  auto b = make();
  MlpExecutor mlp(*b, f.config, 4);
  b->inject_transfer_faults(1);
  EXPECT_THROW(mlp.upload_model(f.model, 0.0), TransferError);
  EXPECT_EQ(b->failed_transfers(), 1u);
  // The injection is consumed: the retry goes through.
  EXPECT_NO_THROW(mlp.upload_model(f.model, 0.0));
}

TEST_P(BackendSuite, BatchStagingIsNotAFaultSurface) {
  Fixture f(4);
  auto b = make();
  MlpExecutor mlp(*b, f.config, 4);
  mlp.upload_model(f.model, 0.0);
  // Input staging is deliberately outside the injection surface (the model
  // upload and gradient download bracket every round trip); a pending
  // fault must survive compute_gradient and fire on the next transfer.
  b->inject_transfer_faults(1);
  double done = 0.0;
  EXPECT_NO_THROW(mlp.compute_gradient(f.x.view(), f.y, 0.0, &done));
  nn::Gradient grad = nn::make_zero_gradient(f.model);
  EXPECT_THROW(mlp.download_gradient(grad, done), TransferError);
  EXPECT_EQ(b->failed_transfers(), 1u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendSuite,
                         ::testing::ValuesIn(registered_backends()),
                         [](const auto& param_info) { return param_info.param; });

// The seam's core promise, checked across the whole registry at once:
// identical math AND identical virtual completion times on every backend,
// so --backend never changes a training trajectory — for a dense input
// and for a sparse one that takes the zero-skipping GEMM path.
TEST(BackendEquivalence, AllBackendsAgreeOnMathAndVirtualTime) {
  for (Fixture f : {Fixture(16), sparse_fixture()}) {
    SCOPED_TRACE(f.config.input_dim);
    struct Run {
      std::string name;
      double t_upload, t_done, t_apply;
      nn::Gradient grad;
      nn::Model model_after;
    };
    std::vector<Run> runs;
    for (const std::string& name : registered_backends()) {
      auto b = make_backend(name, v100_spec());
      ASSERT_NE(b, nullptr);
      MlpExecutor mlp(*b, f.config, 16);
      Run r{name, 0.0, 0.0, 0.0, nn::make_zero_gradient(f.model), f.model};
      r.t_upload = mlp.upload_model(f.model, 0.0);
      mlp.compute_gradient(f.x.view(), f.y, r.t_upload, &r.t_done);
      mlp.download_gradient(r.grad, r.t_done);
      r.t_apply = mlp.apply_gradient(0.2, r.t_done);
      mlp.download_model(r.model_after, r.t_apply);
      runs.push_back(std::move(r));
    }
    ASSERT_GE(runs.size(), 2u);
    for (std::size_t i = 1; i < runs.size(); ++i) {
      SCOPED_TRACE(runs[0].name + " vs " + runs[i].name);
      EXPECT_DOUBLE_EQ(runs[i].t_upload, runs[0].t_upload);
      EXPECT_DOUBLE_EQ(runs[i].t_done, runs[0].t_done);
      EXPECT_DOUBLE_EQ(runs[i].t_apply, runs[0].t_apply);
      EXPECT_EQ(runs[i].grad.max_abs_diff(runs[0].grad), 0.0);
      EXPECT_EQ(runs[i].model_after.max_abs_diff(runs[0].model_after), 0.0);
    }
  }
}

}  // namespace
}  // namespace hetsgd::backend

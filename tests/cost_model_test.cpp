#include "core/cost_model.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "backend/backend.hpp"
#include "backend/mlp_executor.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "nn/model.hpp"
#include "tensor/matrix.hpp"

namespace hetsgd::core {
namespace {

nn::MlpConfig paper_covtype_mlp() {
  // §VII-A: covtype uses 6 hidden layers of 512 units; binary labels.
  nn::MlpConfig c;
  c.input_dim = 54;
  c.num_classes = 2;
  c.hidden_layers = 6;
  c.hidden_units = 512;
  return c;
}

TEST(CostModel, ModelBytes) {
  nn::MlpConfig c;
  c.input_dim = 10;
  c.num_classes = 2;
  c.hidden_layers = 1;
  c.hidden_units = 4;
  // params: 10*4+4 + 4*2+2 = 54 -> 54*8 bytes
  EXPECT_EQ(model_bytes(c), 54u * sizeof(tensor::Scalar));
}

TEST(HogwildSplit, BatchBelowLaneCountRunsOneExamplePerLane) {
  // 3 examples over 4 lanes: three one-example sub-batches, one lane idle.
  const HogwildSplit split = hogwild_split(3, 4);
  EXPECT_EQ(split.sub_batch, 1);
  EXPECT_EQ(split.count, 3);
  const HogwildSplit single = hogwild_split(1, 56);
  EXPECT_EQ(single.sub_batch, 1);
  EXPECT_EQ(single.count, 1);
}

TEST(HogwildSplit, MultipleOfLaneCountFillsEveryLane) {
  const HogwildSplit split = hogwild_split(8, 4);
  EXPECT_EQ(split.sub_batch, 2);
  EXPECT_EQ(split.count, 4);
  // The paper's largest CPU batch: 64 examples on each of 56 threads.
  const HogwildSplit paper = hogwild_split(56 * 64, 56);
  EXPECT_EQ(paper.sub_batch, 64);
  EXPECT_EQ(paper.count, 56);
  // One lane takes the whole batch as one update.
  const HogwildSplit one = hogwild_split(37, 1);
  EXPECT_EQ(one.sub_batch, 37);
  EXPECT_EQ(one.count, 1);
}

TEST(HogwildSplit, TailBatchGetsAShorterLastSubBatch) {
  // 11 over 4 lanes: sub-batches of 2, the sixth holding the last example.
  const HogwildSplit split = hogwild_split(11, 4);
  EXPECT_EQ(split.sub_batch, 2);
  EXPECT_EQ(split.count, 6);
  // Every tail size covers the batch exactly: all but the last sub-batch
  // are full, and the last is not empty.
  for (tensor::Index batch = 1; batch <= 200; ++batch) {
    for (const int lanes : {1, 3, 4, 56}) {
      const HogwildSplit s = hogwild_split(batch, lanes);
      EXPECT_EQ(s.sub_batch, std::max<tensor::Index>(1, batch / lanes));
      EXPECT_LT((s.count - 1) * s.sub_batch, batch) << batch << "/" << lanes;
      EXPECT_GE(s.count * s.sub_batch, batch) << batch << "/" << lanes;
    }
  }
}

TEST(CostModel, CpuBatchMonotoneInSubBatch) {
  gpusim::PerfModel perf(gpusim::xeon56_spec());
  nn::MlpConfig mlp = paper_covtype_mlp();
  double prev = 0;
  for (tensor::Index sub : {1, 2, 8, 32, 64}) {
    double t = cpu_batch_seconds(perf, mlp, sub, 56);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(CostModel, CpuWavesBeyondSimulatedLanes) {
  gpusim::PerfModel perf(gpusim::xeon56_spec());
  nn::MlpConfig mlp = paper_covtype_mlp();
  double one_wave = cpu_batch_seconds(perf, mlp, 1, 56);
  double two_waves = cpu_batch_seconds(perf, mlp, 1, 57);
  EXPECT_NEAR(two_waves, 2.0 * one_wave, 1e-12);
}

TEST(CostModel, GpuBatchMonotone) {
  gpusim::PerfModel perf(gpusim::v100_spec());
  nn::MlpConfig mlp = paper_covtype_mlp();
  double prev = 0;
  for (tensor::Index b : {64, 256, 1024, 4096, 8192}) {
    double t = gpu_batch_seconds(perf, mlp, b, 2e10);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(CostModel, GpuLargeBatchAmortizesOverheads) {
  gpusim::PerfModel perf(gpusim::v100_spec());
  nn::MlpConfig mlp = paper_covtype_mlp();
  // Per-example cost must drop sharply with batch size — the reason the
  // paper keeps large batches on the GPU.
  double small = gpu_batch_seconds(perf, mlp, 64, 2e10) / 64.0;
  double large = gpu_batch_seconds(perf, mlp, 8192, 2e10) / 8192.0;
  EXPECT_GT(small / large, 10.0);
}

// The coordinator's frontier and dispatch deadlines read gpu_batch_seconds,
// so it must track what a replica batch is really charged: upload_model,
// compute_gradient and download_gradient through a device-mode executor,
// then the host merge. Checked on the four bench shapes as
// bench::build_config sets them (48 tanh units, the V100 with its
// half-saturation batch at the lower GPU threshold), at every power-of-two
// batch in the GPU range: the estimate runs 3-9% over the charge.
TEST(CostModel, GpuBatchEstimateTracksDeviceCharges) {
  struct Shape {
    const char* name;
    tensor::Index inputs;
    std::int32_t classes;
    std::int32_t hidden_layers;
    tensor::Index min_batch;
    tensor::Index max_batch;
  };
  const Shape shapes[] = {
      {"covtype", 54, 2, 6, 128, 1024},
      {"w8a", 300, 2, 8, 64, 512},
      {"delicious", 500, 201, 8, 64, 512},
      {"real-sim", 2963, 2, 4, 64, 512},
  };
  const double merge_bandwidth = GpuWorkerConfig{}.host_merge_bandwidth;
  for (const Shape& shape : shapes) {
    nn::MlpConfig mlp;
    mlp.input_dim = shape.inputs;
    mlp.num_classes = shape.classes;
    mlp.hidden_layers = shape.hidden_layers;
    mlp.hidden_units = 48;
    mlp.hidden_activation = nn::Activation::kTanh;
    gpusim::DeviceSpec spec = gpusim::v100_spec();
    spec.half_saturation_batch = static_cast<double>(shape.min_batch);
    const gpusim::PerfModel perf(spec);
    Rng rng(1);
    const nn::Model model(mlp, rng);
    nn::Gradient gradient(mlp);
    for (tensor::Index batch = shape.min_batch; batch <= shape.max_batch;
         batch *= 2) {
      SCOPED_TRACE(std::string(shape.name) + " batch " +
                   std::to_string(batch));
      backend::Backend device(spec, backend::Backend::Mode::kDevice);
      backend::MlpExecutor executor(device, mlp, batch);
      const tensor::Matrix x(batch, shape.inputs);
      const std::vector<std::int32_t> labels(
          static_cast<std::size_t>(batch), 0);
      executor.upload_model(model);
      executor.compute_gradient(x.view(), labels);
      executor.download_gradient(gradient);
      const double charged =
          device.now() +
          2.0 * static_cast<double>(model_bytes(mlp)) / merge_bandwidth;
      const double ratio =
          gpu_batch_seconds(perf, mlp, batch, merge_bandwidth) / charged;
      EXPECT_GT(ratio, 1.0);
      EXPECT_LT(ratio, 1.10);
    }
  }
}

TEST(CostModel, IntensityBounds) {
  for (tensor::Index sub : {1, 2, 16, 64}) {
    double x = cpu_batch_intensity(56, 64, sub, 64);
    EXPECT_GT(x, 0.5);
    EXPECT_LT(x, 1.0);
  }
  // Larger sub-batches slightly decrease CPU utilization (Fig. 7).
  EXPECT_LT(cpu_batch_intensity(56, 64, 64, 64),
            cpu_batch_intensity(56, 64, 1, 64));
}

TEST(CostModel, EpochSeconds) {
  gpusim::PerfModel cpu(gpusim::xeon56_spec());
  nn::MlpConfig mlp = paper_covtype_mlp();
  double one = cpu_epoch_seconds(cpu, mlp, 56 * 100, 1, 56);
  double batch = cpu_batch_seconds(cpu, mlp, 1, 56);
  EXPECT_NEAR(one, 100.0 * batch, 1e-9);
}

// The calibration test: the modeled epoch-time ratio between CPU Hogwild
// and GPU mini-batch on the paper's covtype configuration must land in the
// measured 236-317x band (§VII-B: "Hogwild CPU takes considerably longer —
// from 236x to 317x — to execute an SGD epoch than GPU").
TEST(CostModel, PaperEpochRatioWithinMeasuredBand) {
  gpusim::PerfModel cpu(gpusim::xeon56_spec());
  gpusim::PerfModel gpu(gpusim::v100_spec());
  nn::MlpConfig mlp = paper_covtype_mlp();
  const tensor::Index n = 581012;
  const double cpu_epoch = cpu_epoch_seconds(cpu, mlp, n, 1, 56);
  const double gpu_epoch = gpu_epoch_seconds(gpu, mlp, n, 8192, 2e10);
  const double ratio = cpu_epoch / gpu_epoch;
  EXPECT_GE(ratio, 236.0) << "cpu=" << cpu_epoch << " gpu=" << gpu_epoch;
  EXPECT_LE(ratio, 317.0) << "cpu=" << cpu_epoch << " gpu=" << gpu_epoch;
}

// CPU Hogwild must nonetheless produce *more updates per second* than the
// GPU — the foundation of the heterogeneous algorithms (§II: "small
// batches generate more model updates, thus faster convergence").
TEST(CostModel, CpuUpdateRateExceedsGpu) {
  gpusim::PerfModel cpu(gpusim::xeon56_spec());
  gpusim::PerfModel gpu(gpusim::v100_spec());
  nn::MlpConfig mlp = paper_covtype_mlp();
  const double cpu_updates_per_sec =
      56.0 / cpu_batch_seconds(cpu, mlp, 1, 56);
  const double gpu_updates_per_sec =
      1.0 / gpu_batch_seconds(gpu, mlp, 8192, 2e10);
  EXPECT_GT(cpu_updates_per_sec, 5.0 * gpu_updates_per_sec);
}

}  // namespace
}  // namespace hetsgd::core

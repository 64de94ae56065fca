// Integration tests: full training runs through the framework for every
// algorithm on a small synthetic problem.
#include "core/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "obs/metrics.hpp"

namespace hetsgd::core {
namespace {

data::Dataset small_dataset(std::uint64_t seed = 11) {
  data::SyntheticSpec spec;
  spec.name = "integration";
  spec.examples = 1024;
  spec.dim = 16;
  spec.classes = 3;
  spec.feature_noise = 0.5;
  spec.seed = seed;
  return data::make_synthetic(spec);
}

TrainingConfig small_config(Algorithm a) {
  TrainingConfig config;
  config.algorithm = a;
  config.mlp.hidden_layers = 1;
  config.mlp.hidden_units = 16;
  config.learning_rate = 1e-3;
  config.time_budget_vseconds = 0.01;
  config.eval_interval_vseconds = 0.002;
  config.gpu.batch = 256;
  config.gpu.min_batch = 64;
  config.gpu.max_batch = 256;
  config.cpu.sim_lanes = 8;  // keep real work small in tests
  config.real_threads = 2;
  return config;
}

class AlgorithmRun : public ::testing::TestWithParam<Algorithm> {};

TEST_P(AlgorithmRun, LossDecreasesWithinBudget) {
  Trainer trainer(small_dataset(), small_config(GetParam()));
  TrainingResult r = trainer.run();
  ASSERT_GE(r.loss_curve.size(), 2u);
  EXPECT_GT(r.initial_loss, 0.0);
  EXPECT_LT(r.final_loss, r.initial_loss) << algorithm_name(GetParam());
  EXPECT_GT(r.epochs, 0.0);
  EXPECT_GT(r.total_vtime, 0.0);
}

TEST_P(AlgorithmRun, UpdatesAttributedToTheRightDevices) {
  Trainer trainer(small_dataset(), small_config(GetParam()));
  TrainingResult r = trainer.run();
  const Algorithm a = GetParam();
  if (algorithm_uses_cpu(a)) {
    EXPECT_GT(r.cpu_updates, 0u);
  } else {
    EXPECT_EQ(r.cpu_updates, 0u);
  }
  if (algorithm_uses_gpu(a)) {
    EXPECT_GT(r.gpu_updates, 0u);
  } else {
    EXPECT_EQ(r.gpu_updates, 0u);
  }
}

TEST_P(AlgorithmRun, BudgetRespected) {
  TrainingConfig config = small_config(GetParam());
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  // Clocks may overshoot by at most one batch; allow 100% slack.
  EXPECT_LT(r.total_vtime, 2.0 * config.time_budget_vseconds);
}

TEST_P(AlgorithmRun, LossCurveTimesMonotone) {
  Trainer trainer(small_dataset(), small_config(GetParam()));
  TrainingResult r = trainer.run();
  for (std::size_t i = 1; i < r.loss_curve.size(); ++i) {
    EXPECT_GE(r.loss_curve[i].vtime, r.loss_curve[i - 1].vtime);
    EXPECT_GE(r.loss_curve[i].epochs, r.loss_curve[i - 1].epochs);
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AlgorithmRun,
                         ::testing::Values(Algorithm::kHogwildCpu,
                                           Algorithm::kMinibatchGpu,
                                           Algorithm::kCpuGpuHogbatch,
                                           Algorithm::kAdaptiveHogbatch,
                                           Algorithm::kTensorFlow),
                         [](const auto& param_info) {
                           std::string name = algorithm_name(param_info.param);
                           for (auto& c : name) {
                             if (c == '-' || c == '+') c = '_';
                           }
                           return name;
                         });

TEST(Trainer, MaxEpochsStopsTraining) {
  TrainingConfig config = small_config(Algorithm::kMinibatchGpu);
  config.time_budget_vseconds = 1e9;
  config.max_epochs = 3;
  config.eval_interval_vseconds = 0.0;  // evaluate at epoch boundaries
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  EXPECT_NEAR(r.epochs, 3.0, 0.01);
}

// The CSR kernel pair (tensor/csr.hpp) runs where the dataset stores its
// inputs as CSR rows: a run on real-sim's shape (937 inputs at this scale,
// ~1% nonzero) takes it, one on covtype's (54 dense inputs) never does.
TEST(Trainer, SparseGemmPathFollowsTheDataset) {
  obs::Counter& sparse_gemms =
      obs::MetricsRegistry::instance().counter("hetsgd_sparse_gemms_total");
  const auto run = [&](data::PaperDataset dataset) {
    const std::uint64_t before = sparse_gemms.value();
    Trainer trainer(data::make_paper_dataset(dataset, 0.002, 5),
                    small_config(Algorithm::kMinibatchGpu));
    trainer.run();
    return sparse_gemms.value() - before;
  };
  EXPECT_EQ(run(data::PaperDataset::kCovtype), 0u);
  EXPECT_GT(run(data::PaperDataset::kRealSim), 0u);
}

TEST(Trainer, ReferenceIsDeterministic) {
  TrainingConfig config = small_config(Algorithm::kTensorFlow);
  Trainer trainer(small_dataset(), config);
  TrainingResult a = trainer.run();
  TrainingResult b = trainer.run();
  ASSERT_EQ(a.loss_curve.size(), b.loss_curve.size());
  for (std::size_t i = 0; i < a.loss_curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.loss_curve[i].loss, b.loss_curve[i].loss);
    EXPECT_DOUBLE_EQ(a.loss_curve[i].vtime, b.loss_curve[i].vtime);
  }
}

// The reference's loss evaluations cost it nothing (§VII-A excludes them
// from the measured time): evaluated every budget/60 or only at epoch
// ends, it takes the same steps and ends at the same virtual time.
TEST(Trainer, ReferenceEvaluationChargesNoDeviceTime) {
  TrainingConfig config = small_config(Algorithm::kTensorFlow);
  config.eval_interval_vseconds = config.time_budget_vseconds / 60.0;
  const TrainingResult often = Trainer(small_dataset(), config).run();
  config.eval_interval_vseconds = 0.0;
  const TrainingResult per_epoch = Trainer(small_dataset(), config).run();
  EXPECT_GT(often.loss_curve.size(), per_epoch.loss_curve.size());
  EXPECT_EQ(often.gpu_updates, per_epoch.gpu_updates);
  EXPECT_EQ(often.total_vtime, per_epoch.total_vtime);
}

TEST(Trainer, TensorFlowMirrorsGpuMinibatchStatistically) {
  // Fig. 6: "The overlapped curves confirm that our implementation and
  // TensorFlow are identical" — same per-epoch loss trajectory.
  TrainingConfig config = small_config(Algorithm::kTensorFlow);
  config.eval_interval_vseconds = 0.0;
  config.max_epochs = 3;
  config.time_budget_vseconds = 1e9;
  Trainer tf(small_dataset(), config);
  TrainingResult tf_result = tf.run();

  config.algorithm = Algorithm::kMinibatchGpu;
  Trainer gpu(small_dataset(), config);
  TrainingResult gpu_result = gpu.run();

  // Loss after the same number of epochs should be close (the framework
  // shuffles through a different RNG path, so allow statistical slack).
  EXPECT_NEAR(tf_result.final_loss, gpu_result.final_loss,
              0.15 * tf_result.initial_loss);
}

TEST(Trainer, CpuGpuUpdateDistributionSkewsToCpu) {
  // Fig. 8: under CPU+GPU Hogbatch, CPU updates dominate.
  TrainingConfig config = small_config(Algorithm::kCpuGpuHogbatch);
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  ASSERT_GT(r.gpu_updates, 0u);
  EXPECT_GT(r.cpu_updates, r.gpu_updates);
}

TEST(Trainer, AdaptiveBalancesUpdatesBetterThanStatic) {
  // Fig. 8: Adaptive moves the distribution toward uniformity.
  TrainingConfig config = small_config(Algorithm::kCpuGpuHogbatch);
  Trainer static_trainer(small_dataset(), config);
  TrainingResult static_r = static_trainer.run();

  config.algorithm = Algorithm::kAdaptiveHogbatch;
  Trainer adaptive_trainer(small_dataset(), config);
  TrainingResult adaptive_r = adaptive_trainer.run();

  auto imbalance = [](const TrainingResult& r) {
    const double total = static_cast<double>(r.cpu_updates + r.gpu_updates);
    return std::abs(static_cast<double>(r.cpu_updates) / total - 0.5);
  };
  EXPECT_LE(imbalance(adaptive_r), imbalance(static_r) + 1e-9);
}

TEST(Trainer, AdaptiveKeepsBatchesWithinThresholds) {
  TrainingConfig config = small_config(Algorithm::kAdaptiveHogbatch);
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  for (const auto& w : r.workers) {
    if (w.kind == gpusim::DeviceKind::kGpu) {
      EXPECT_GE(w.final_batch, config.gpu.min_batch);
      EXPECT_LE(w.final_batch, config.gpu.max_batch);
    } else {
      EXPECT_GE(w.final_batch,
                config.cpu.sim_lanes * config.cpu.min_examples_per_thread);
      EXPECT_LE(w.final_batch,
                config.cpu.sim_lanes * config.cpu.max_examples_per_thread);
    }
  }
}

TEST(Trainer, UtilizationWithinBounds) {
  TrainingConfig config = small_config(Algorithm::kCpuGpuHogbatch);
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  for (const auto& w : r.workers) {
    EXPECT_GE(w.mean_utilization, 0.0);
    EXPECT_LE(w.mean_utilization, 1.0);
    EXPECT_GT(w.busy_vtime, 0.0);
    EXPECT_FALSE(w.segments.empty());
  }
}

TEST(Trainer, WorkerSummariesConsistentWithTotals) {
  TrainingConfig config = small_config(Algorithm::kAdaptiveHogbatch);
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  std::uint64_t updates = 0, examples = 0;
  for (const auto& w : r.workers) {
    updates += w.updates;
    examples += w.examples;
  }
  EXPECT_EQ(updates, r.cpu_updates + r.gpu_updates);
  EXPECT_NEAR(r.epochs,
              static_cast<double>(examples) /
                  static_cast<double>(trainer.dataset().example_count()),
              1e-9);
}

TEST(Trainer, StaticAlgorithmConsumesWholeEpochs) {
  // Algorithm 1 hands out partial tails, so every example of every epoch
  // is processed exactly once.
  TrainingConfig config = small_config(Algorithm::kCpuGpuHogbatch);
  config.time_budget_vseconds = 1e9;
  config.max_epochs = 2;
  config.eval_interval_vseconds = 0.0;
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  std::uint64_t examples = 0;
  for (const auto& w : r.workers) examples += w.examples;
  EXPECT_EQ(examples, 2u * 1024u);
}

TEST(Trainer, AdaptiveMaySkipEpochTails) {
  // Algorithm 2 only serves full batches; leftovers smaller than every
  // worker's batch are skipped until the reshuffle.
  TrainingConfig config = small_config(Algorithm::kAdaptiveHogbatch);
  config.time_budget_vseconds = 1e9;
  config.max_epochs = 3;
  config.eval_interval_vseconds = 0.0;
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  std::uint64_t examples = 0;
  for (const auto& w : r.workers) examples += w.examples;
  EXPECT_LE(examples, 3u * 1024u);
  EXPECT_GT(examples, 2u * 1024u);  // tails are small relative to epochs
}

TEST(Trainer, GpuWorkerReportsStalenessUnderConcurrency) {
  TrainingConfig config = small_config(Algorithm::kCpuGpuHogbatch);
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  for (const auto& w : r.workers) {
    if (w.kind == gpusim::DeviceKind::kGpu) {
      // CPU lanes race with the GPU's upload->merge window; some staleness
      // must be observed across the run.
      EXPECT_GE(w.max_staleness, 0.0);
      EXPECT_GE(w.max_staleness, w.mean_staleness);
    } else {
      EXPECT_EQ(w.mean_staleness, 0.0);
    }
  }
}

TEST(Trainer, MultiGpuWorkersAllContribute) {
  // The paper's future-work extension: multiple GPU workers, one shared
  // model.
  TrainingConfig config = small_config(Algorithm::kMinibatchGpu);
  config.gpu.worker_count = 3;
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  std::size_t gpu_workers = 0;
  for (const auto& w : r.workers) {
    if (w.kind == gpusim::DeviceKind::kGpu) {
      ++gpu_workers;
      EXPECT_GT(w.updates, 0u) << w.name;
    }
  }
  EXPECT_EQ(gpu_workers, 3u);
  EXPECT_LT(r.final_loss, r.initial_loss);
}

TEST(Trainer, MoreGpusProcessMoreExamplesPerVirtualSecond) {
  TrainingConfig config = small_config(Algorithm::kMinibatchGpu);
  config.eval_interval_vseconds = config.time_budget_vseconds;  // cheap
  Trainer one(small_dataset(), config);
  TrainingResult r1 = one.run();

  config.gpu.worker_count = 2;
  Trainer two(small_dataset(), config);
  TrainingResult r2 = two.run();

  const double rate1 = r1.epochs / r1.total_vtime;
  const double rate2 = r2.epochs / r2.total_vtime;
  EXPECT_GT(rate2, 1.5 * rate1);
}

TEST(Trainer, MultiGpuAdaptiveStaysWithinThresholds) {
  TrainingConfig config = small_config(Algorithm::kAdaptiveHogbatch);
  config.gpu.worker_count = 2;
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  for (const auto& w : r.workers) {
    if (w.kind == gpusim::DeviceKind::kGpu) {
      EXPECT_GE(w.final_batch, config.gpu.min_batch);
      EXPECT_LE(w.final_batch, config.gpu.max_batch);
    }
  }
  EXPECT_LT(r.final_loss, r.initial_loss);
}

TEST(Trainer, LossAtAndTimeToLossHelpers) {
  TrainingResult r;
  r.loss_curve = {{0.0, 0.0, 1.0}, {1.0, 0.5, 0.6}, {2.0, 1.0, 0.3}};
  EXPECT_DOUBLE_EQ(r.loss_at(0.5), 1.0);
  EXPECT_DOUBLE_EQ(r.loss_at(1.5), 0.6);
  EXPECT_DOUBLE_EQ(r.loss_at(10.0), 0.3);
  EXPECT_DOUBLE_EQ(r.time_to_loss(0.6), 1.0);
  EXPECT_TRUE(std::isinf(r.time_to_loss(0.1)));
}

TEST(Trainer, HeterogeneousBeatsGpuOnlyInTimeToLoss) {
  // The paper's headline: CPU+GPU reaches a given loss faster than
  // GPU-only on the same budget (Fig. 5).
  TrainingConfig config = small_config(Algorithm::kMinibatchGpu);
  config.time_budget_vseconds = 0.02;
  Trainer gpu_trainer(small_dataset(), config);
  TrainingResult gpu_r = gpu_trainer.run();

  config.algorithm = Algorithm::kCpuGpuHogbatch;
  Trainer het_trainer(small_dataset(), config);
  TrainingResult het_r = het_trainer.run();

  // Heterogeneous must end at least as low (small statistical slack: the
  // async interleaving differs between runs).
  EXPECT_LE(het_r.best_loss, gpu_r.best_loss * 1.2);
  // And it performs far more model updates per virtual second — the
  // paper's core premise: the otherwise-idle CPU contributes a stream of
  // small-batch updates on top of the GPU's.
  const double het_rate = static_cast<double>(het_r.cpu_updates +
                                              het_r.gpu_updates) /
                          het_r.total_vtime;
  const double gpu_rate =
      static_cast<double>(gpu_r.gpu_updates) / gpu_r.total_vtime;
  EXPECT_GT(het_rate, 2.0 * gpu_rate);
}

// The value of metric `name` in one metrics JSONL line (NaN if absent).
double jsonl_metric(const std::string& line, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(line.c_str() + at + key.size(), nullptr);
}

// The ledger and the coordinator publish their gauges where the values
// change, so the exporter's final snapshot ends on the run's results.
TEST(Trainer, MetricsJsonlEndsOnTheResultsStats) {
  TrainingConfig config = small_config(Algorithm::kAdaptiveHogbatch);
  config.obs.metrics_out =
      (std::filesystem::temp_directory_path() / "trainer_test_metrics.jsonl")
          .string();
  config.obs.metrics_interval_ms = 5.0;
  // A joiner's gauges, plus injected (plan) and detected (ledger) records.
  config.elastic_plan = "join:kind=gpu,atfrac=0.2";
  config.fault.plan = "nan:worker=1,atfrac=0.3";
  Trainer trainer(small_dataset(), config);
  const TrainingResult r = trainer.run();

  std::ifstream in(config.obs.metrics_out);
  std::string line;
  std::string last;
  while (std::getline(in, line)) last = line;
  ASSERT_FALSE(last.empty());

  ASSERT_EQ(r.workers.size(), 3u);
  for (std::size_t i = 0; i < r.workers.size(); ++i) {
    const WorkerSummary& w = r.workers[i];
    const std::string p = "hetsgd_worker" + std::to_string(i) + "_";
    // JSONL prints 10 significant digits.
    const auto near = [](double v) { return 1e-9 * std::max(1.0, v); };
    EXPECT_EQ(jsonl_metric(last, p + "updates"),
              static_cast<double>(w.updates)) << p;
    EXPECT_EQ(jsonl_metric(last, p + "examples"),
              static_cast<double>(w.examples)) << p;
    EXPECT_EQ(jsonl_metric(last, p + "batch"),
              static_cast<double>(w.final_batch)) << p;
    EXPECT_NEAR(jsonl_metric(last, p + "busy_vseconds"), w.busy_vtime,
                near(w.busy_vtime)) << p;
    EXPECT_NEAR(jsonl_metric(last, p + "clock_vseconds"), w.final_clock,
                near(w.final_clock)) << p;
    EXPECT_NEAR(jsonl_metric(last, p + "max_staleness"), w.max_staleness,
                near(w.max_staleness)) << p;
  }
  std::size_t detected = 0;
  for (const FaultRecord& e : r.fault_events) {
    if (e.kind > FaultKind::kCrash) ++detected;  // not an injection
  }
  EXPECT_GT(detected, 0u);
  EXPECT_LT(detected, r.fault_events.size());
  EXPECT_EQ(jsonl_metric(last, "hetsgd_fault_records"),
            static_cast<double>(detected));
  ASSERT_FALSE(r.loss_curve.empty());
  EXPECT_EQ(jsonl_metric(last, "hetsgd_loss_points"),
            static_cast<double>(r.loss_curve.size()));
  EXPECT_NEAR(jsonl_metric(last, "hetsgd_loss_latest"),
              r.loss_curve.back().loss, 1e-9);
  std::filesystem::remove(config.obs.metrics_out);
}

}  // namespace
}  // namespace hetsgd::core

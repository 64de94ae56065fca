// Fault injection and self-healing: worker death, stalls, transient
// transfer failures, gradient corruption, and recoverable checkpoint
// loading. The central invariant, asserted after every faulty run:
//
//   examples_dispatched == examples_reported + examples_reclaimed
//
// i.e. every dispatched batch is either accounted for by a worker report
// or explicitly reclaimed by the coordinator — nothing is silently lost.
#include "core/fault.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/cli.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "nn/serialize.hpp"

namespace hetsgd::core {
namespace {

data::Dataset small_dataset(std::uint64_t seed = 11) {
  data::SyntheticSpec spec;
  spec.name = "fault";
  spec.examples = 1024;
  spec.dim = 16;
  spec.classes = 3;
  spec.feature_noise = 0.5;
  spec.seed = seed;
  return data::make_synthetic(spec);
}

TrainingConfig small_config() {
  TrainingConfig config;
  config.algorithm = Algorithm::kAdaptiveHogbatch;
  config.mlp.hidden_layers = 1;
  config.mlp.hidden_units = 16;
  config.learning_rate = 1e-3;
  config.time_budget_vseconds = 0.01;
  config.eval_interval_vseconds = 0.002;
  config.gpu.batch = 256;
  config.gpu.min_batch = 64;
  config.gpu.max_batch = 256;
  config.cpu.sim_lanes = 8;
  config.real_threads = 2;
  return config;
}

std::uint64_t reported_examples(const TrainingResult& r) {
  std::uint64_t total = 0;
  for (const auto& w : r.workers) total += w.examples;
  return total;
}

std::uint64_t count_kind(const TrainingResult& r, FaultKind kind) {
  std::uint64_t n = 0;
  for (const auto& e : r.fault_events) {
    if (e.kind == kind) ++n;
  }
  return n;
}

// Every dispatched example is either reported by a worker or reclaimed.
void expect_ledger_invariant(const TrainingResult& r) {
  EXPECT_EQ(r.examples_dispatched, reported_examples(r) + r.examples_reclaimed)
      << "dispatched=" << r.examples_dispatched
      << " reported=" << reported_examples(r)
      << " reclaimed=" << r.examples_reclaimed;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// --- fault flags and names -----------------------------------------------

TEST(FaultFlags, ParseIntoTheFaultConfig) {
  FaultToleranceConfig fault;
  CliParser cli("prog", "test");
  register_fault_flags(cli, &fault);
  std::vector<std::string> args{
      "--fault-plan", "die:worker=1,atfrac=0.5",
      "--fault-deadline-factor", "3.5",
      "--fault-quarantine-after", "4",
      "--fault-max-retries", "6",
      "--fault-grace-ticks", "9",
      "--fault-abort",
      "--fault-lr-backoff=0.25",
      "--checkpoint-interval", "0.125",
      "--checkpoint-dir", "ckpts",
      "--checkpoint-retain", "5",
      "--resume", "old-ckpts"};
  std::vector<char*> argv{const_cast<char*>("prog")};
  for (std::string& a : args) argv.push_back(a.data());
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(fault.plan, "die:worker=1,atfrac=0.5");
  EXPECT_EQ(fault.deadline_factor, 3.5);
  EXPECT_EQ(fault.quarantine_after, 4);
  EXPECT_EQ(fault.max_transfer_retries, 6);
  EXPECT_EQ(fault.stall_grace_ticks, 9);
  EXPECT_TRUE(fault.abort_on_divergence);
  EXPECT_EQ(fault.lr_backoff, 0.25);
  EXPECT_EQ(fault.checkpoint_interval_vseconds, 0.125);
  EXPECT_EQ(fault.checkpoint_dir, "ckpts");
  EXPECT_EQ(fault.checkpoint_retain, 5);
  EXPECT_EQ(fault.resume_dir, "old-ckpts");
}

TEST(FaultKindName, NamesEveryKindDistinctly) {
  // The names label ledger records, trace instants and CSV rows, so two
  // kinds must never share one.
  std::vector<std::string> names;
  for (int k = 0; k <= static_cast<int>(FaultKind::kWorkerRetire); ++k) {
    const std::string name = fault_kind_name(static_cast<FaultKind>(k));
    EXPECT_NE(name, "?") << k;
    EXPECT_FALSE(name.empty()) << k;
    for (const std::string& seen : names) EXPECT_NE(name, seen) << k;
    names.push_back(name);
  }
  EXPECT_STREQ(fault_kind_name(FaultKind::kDivergenceRollback),
               "divergence-rollback");
}

// --- FaultPlan parsing ----------------------------------------------------

TEST(FaultPlan, ParsesMultiEventSpec) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::parse(
      "stall:worker=0,atfrac=0.2,factor=8,sleep=50;die:worker=1,at=0.013;"
      "transfer:worker=1,atfrac=0.5,count=2;nan:worker=0,atfrac=0.3",
      7, &plan, &error))
      << error;
  EXPECT_TRUE(plan.contains(FaultKind::kStall));
  EXPECT_TRUE(plan.contains(FaultKind::kDeath));
  EXPECT_TRUE(plan.contains(FaultKind::kTransferFailure));
  EXPECT_TRUE(plan.contains(FaultKind::kGradientCorruption));
  EXPECT_FALSE(plan.contains(FaultKind::kDeadlineMiss));
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  FaultPlan plan;
  std::string error;
  EXPECT_FALSE(FaultPlan::parse("explode:worker=0", 7, &plan, &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(FaultPlan::parse("die:bogus=1", 7, &plan, &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(FaultPlan::parse("die:worker=notanum", 7, &plan, &error));
  EXPECT_FALSE(error.empty());
}

// Numbers a plan cannot hold are rejected, not narrowed or clamped: a
// worker id past int32 would alias another worker (4294967296 -> 0), and
// a count past int64 would inject INT64_MAX faults.
TEST(FaultPlan, RejectsWorkerIdsAndCountsOutOfRange) {
  for (const char* spec :
       {"die:worker=4294967296,at=0.1", "die:worker=2147483648,at=0.1",
        "die:worker=-1,at=0.1",
        "transfer:worker=0,at=0.1,count=99999999999999999999",
        "stall:worker=0,at=0.1,sleep=99999999999999999999"}) {
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(FaultPlan::parse(spec, 7, &plan, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
  FaultPlan plan;
  std::string error;
  EXPECT_TRUE(FaultPlan::parse("die:worker=2147483647,at=0.1", 7, &plan,
                               &error))
      << error;
}

// NaN compares false against every bound check, so it used to slip
// through as a trigger time that never (or always) fires.
TEST(FaultPlan, RejectsNonFiniteNumbers) {
  for (const char* spec :
       {"die:worker=0,at=nan", "die:worker=0,atfrac=nan",
        "die:worker=0,at=inf", "die:worker=0,at=1e999",
        "stall:worker=0,at=0.1,factor=inf",
        "stall:worker=0,at=0.1,factor=nan"}) {
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(FaultPlan::parse(spec, 7, &plan, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

TEST(FaultPlan, StallsArePersistentAndCumulative) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::parse(
      "stall:worker=0,at=1.0,factor=4,sleep=10;stall:worker=0,at=2.0,factor=2",
      7, &plan, &error))
      << error;
  plan.resolve_times(10.0);
  EXPECT_DOUBLE_EQ(plan.stall(0, 0.5).factor, 1.0);
  EXPECT_DOUBLE_EQ(plan.stall(0, 1.5).factor, 4.0);
  EXPECT_EQ(plan.stall(0, 1.5).sleep_ms, 10);
  EXPECT_DOUBLE_EQ(plan.stall(0, 2.5).factor, 8.0);  // 4 * 2, cumulative
  EXPECT_DOUBLE_EQ(plan.stall(1, 2.5).factor, 1.0);  // other worker untouched
}

TEST(FaultPlan, DeathFiresExactlyOnce) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::parse("die:worker=1,at=1.0", 7, &plan, &error));
  plan.resolve_times(10.0);
  EXPECT_FALSE(plan.death_due(1, 0.5));
  EXPECT_FALSE(plan.death_due(0, 1.5));  // other worker unaffected
  EXPECT_TRUE(plan.death_due(1, 1.5));
  EXPECT_FALSE(plan.death_due(1, 2.0));  // consumed
  ASSERT_EQ(plan.fired().size(), 1u);
  EXPECT_EQ(plan.fired()[0].kind, FaultKind::kDeath);
}

// --- end-to-end recovery --------------------------------------------------

TEST(FaultRecovery, NoFaultRunWithLayerEnabledIsClean) {
  // The deadline/reclamation layer must be behavior-neutral when nothing
  // faults: no misses, no reclaims, loss still improves.
  TrainingConfig config = small_config();
  config.fault.deadline_factor = 2.0;
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  EXPECT_LT(r.final_loss, r.initial_loss);
  EXPECT_EQ(r.examples_reclaimed, 0u);
  EXPECT_EQ(r.quarantined_workers, 0u);
  EXPECT_TRUE(r.fault_events.empty());
  expect_ledger_invariant(r);
}

TEST(FaultRecovery, GpuWorkerDeathMidEpochCompletesOnSurvivor) {
  TrainingConfig config = small_config();
  config.fault.plan = "die:worker=1,atfrac=0.3";
  config.fault.deadline_factor = 2.0;
  config.fault.quarantine_after = 1;
  config.fault.stall_grace_ticks = 3;
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();  // must not hang on the dead actor
  EXPECT_TRUE(std::isfinite(r.final_loss));
  EXPECT_FALSE(r.diverged);
  EXPECT_GT(r.cpu_updates, 0u);  // the survivor kept training
  EXPECT_GE(r.quarantined_workers, 1u);
  EXPECT_GT(r.examples_reclaimed, 0u);  // the dead worker's batch came back
  EXPECT_GE(count_kind(r, FaultKind::kDeath), 1u);
  EXPECT_GE(count_kind(r, FaultKind::kReclaim), 1u);
  EXPECT_GE(count_kind(r, FaultKind::kRedispatch), 1u);
  expect_ledger_invariant(r);
}

TEST(FaultRecovery, CpuWorkerDeathMidEpochCompletesOnSurvivor) {
  TrainingConfig config = small_config();
  config.fault.plan = "die:worker=0,atfrac=0.3";
  config.fault.deadline_factor = 2.0;
  config.fault.quarantine_after = 1;
  config.fault.stall_grace_ticks = 3;
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  EXPECT_TRUE(std::isfinite(r.final_loss));
  EXPECT_GT(r.gpu_updates, 0u);
  EXPECT_GE(r.quarantined_workers, 1u);
  EXPECT_GE(count_kind(r, FaultKind::kDeath), 1u);
  expect_ledger_invariant(r);
}

TEST(FaultRecovery, StalledWorkerMissesDeadlineAndIsQuarantined) {
  TrainingConfig config = small_config();
  // factor inflates the virtual cost past the deadline; sleep makes the
  // real-time grace fallback deterministic as well — whichever detection
  // path fires first, the batch must be reclaimed.
  config.fault.plan = "stall:worker=0,atfrac=0.2,factor=50,sleep=120";
  config.fault.deadline_factor = 1.5;
  config.fault.quarantine_after = 1;
  config.fault.stall_grace_ticks = 2;
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  EXPECT_TRUE(std::isfinite(r.final_loss));
  EXPECT_GE(count_kind(r, FaultKind::kStall), 1u);
  EXPECT_GE(count_kind(r, FaultKind::kDeadlineMiss), 1u);
  EXPECT_GE(count_kind(r, FaultKind::kReclaim), 1u);
  EXPECT_GE(r.quarantined_workers, 1u);
  // The stalled worker eventually wakes and reports a batch that was
  // already reclaimed; the ledger must book it as late, not double-count.
  EXPECT_GT(r.late_examples, 0u);
  expect_ledger_invariant(r);
}

TEST(FaultRecovery, InjectedNanRollsBackToFiniteLoss) {
  TrainingConfig config = small_config();
  config.fault.plan = "nan:worker=0,atfrac=0.3";
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  EXPECT_TRUE(std::isfinite(r.final_loss));
  EXPECT_FALSE(r.diverged);
  EXPECT_GE(r.rollbacks, 1u);
  EXPECT_LE(r.final_lr_scale, 0.5);  // at least one halving
  EXPECT_GE(count_kind(r, FaultKind::kGradientCorruption), 1u);
  EXPECT_GE(count_kind(r, FaultKind::kDivergenceRollback), 1u);
  for (const auto& p : r.loss_curve) EXPECT_TRUE(std::isfinite(p.loss));
  expect_ledger_invariant(r);
}

// The divergence guard reads the model, not only the loss. On a dataset
// stored CSR the first layer's products skip the inputs' zeros, so a NaN
// first-layer weight in a column that no example stores never reaches a
// loss; the injection poisons exactly such a weight here (W[0][0], and
// column 0 is zero in every row), and the run must still roll back.
TEST(FaultRecovery, NanWeightNoExampleReachesRollsBack) {
  data::SyntheticSpec spec;
  spec.name = "sparse-fault";
  spec.examples = 1024;
  spec.dim = 96;
  spec.classes = 3;
  spec.density = 0.05;
  spec.seed = 11;
  tensor::Matrix x = tensor::to_dense(data::make_synthetic(spec).features());
  for (tensor::Index r = 0; r < x.rows(); ++r) x(r, 0) = 0;
  const data::Dataset generated = data::make_synthetic(spec);
  data::Dataset dataset(
      "sparse-fault", std::move(x),
      std::vector<std::int32_t>(generated.labels().begin(),
                                generated.labels().end()),
      spec.classes);
  ASSERT_TRUE(dataset.csr());
  TrainingConfig config = small_config();
  config.fault.plan = "nan:worker=0,atfrac=0.3";
  Trainer trainer(std::move(dataset), config);
  TrainingResult r = trainer.run();
  EXPECT_TRUE(std::isfinite(r.final_loss));
  EXPECT_FALSE(r.diverged);
  EXPECT_GE(count_kind(r, FaultKind::kGradientCorruption), 1u);
  EXPECT_GE(r.rollbacks, 1u);
  EXPECT_GE(count_kind(r, FaultKind::kDivergenceRollback), 1u);
  for (const auto& p : r.loss_curve) EXPECT_TRUE(std::isfinite(p.loss));
  expect_ledger_invariant(r);
}

TEST(FaultRecovery, InjectedNanAbortsCleanlyWhenConfigured) {
  TrainingConfig config = small_config();
  config.fault.plan = "nan:worker=0,atfrac=0.3";
  config.fault.abort_on_divergence = true;
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();  // must terminate, not hang
  EXPECT_TRUE(r.diverged);
  EXPECT_GE(count_kind(r, FaultKind::kDivergenceAbort), 1u);
  // Shutdown reclaims in-flight batches so the accounting closes even on
  // an aborted run.
  expect_ledger_invariant(r);
}

TEST(FaultRecovery, TransientTransferFailureRetriesWithoutCoordinator) {
  TrainingConfig config = small_config();
  config.fault.plan = "transfer:worker=1,atfrac=0.4,count=2";
  config.fault.deadline_factor = 2.0;
  config.fault.max_transfer_retries = 4;
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  EXPECT_TRUE(std::isfinite(r.final_loss));
  EXPECT_GT(r.gpu_updates, 0u);
  EXPECT_GE(count_kind(r, FaultKind::kTransferFailure), 1u);
  // Retries succeed locally: the coordinator never hears about it.
  EXPECT_EQ(count_kind(r, FaultKind::kWorkerFault), 0u);
  EXPECT_EQ(count_kind(r, FaultKind::kReclaim), 0u);
  EXPECT_EQ(r.examples_reclaimed, 0u);
  EXPECT_EQ(r.quarantined_workers, 0u);
  expect_ledger_invariant(r);
}

TEST(FaultRecovery, ExhaustedTransferRetriesEscalateToCoordinator) {
  TrainingConfig config = small_config();
  // More consecutive failures than the retry budget: the worker escalates
  // a WorkerFault and the coordinator degrades to the CPU survivor.
  config.fault.plan = "transfer:worker=1,atfrac=0.4,count=20";
  config.fault.deadline_factor = 2.0;
  config.fault.max_transfer_retries = 2;
  config.fault.stall_grace_ticks = 3;
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  EXPECT_TRUE(std::isfinite(r.final_loss));
  EXPECT_GT(r.cpu_updates, 0u);
  EXPECT_GE(count_kind(r, FaultKind::kWorkerFault), 1u);
  EXPECT_GE(r.quarantined_workers, 1u);
  expect_ledger_invariant(r);
}

TEST(FaultRecovery, FaultEventsCsvIsWritten) {
  const std::string path = temp_path("hetsgd_fault_events.csv");
  TrainingConfig config = small_config();
  config.fault.plan = "nan:worker=0,atfrac=0.3";
  Trainer trainer(small_dataset(), config);
  TrainingResult r = trainer.run();
  ASSERT_FALSE(r.fault_events.empty());
  write_fault_events_csv(r, path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("vtime"), std::string::npos);
  EXPECT_NE(header.find("kind"), std::string::npos);
  std::size_t rows = 0;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, r.fault_events.size());
  std::remove(path.c_str());
}

// --- recoverable checkpoint loading ---------------------------------------

nn::Model tiny_model() {
  nn::MlpConfig c;
  c.input_dim = 8;
  c.num_classes = 3;
  c.hidden_layers = 1;
  c.hidden_units = 4;
  Rng rng(3);
  return nn::Model(c, rng);
}

TEST(TryLoadModel, MissingFileReturnsError) {
  std::string error;
  EXPECT_FALSE(
      nn::try_load_model(temp_path("hetsgd_no_such_file.ckpt"), &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(TryLoadModel, GarbageFileReturnsError) {
  const std::string path = temp_path("hetsgd_garbage.ckpt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is definitely not a checkpoint, not even close";
  }
  std::string error;
  EXPECT_FALSE(nn::try_load_model(path, &error));
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(TryLoadModel, ImplausibleHeaderReturnsErrorWithoutAllocating) {
  const std::string path = temp_path("hetsgd_implausible.ckpt");
  {
    // Valid magic and version followed by a hostile header: dimensions
    // that would demand terabytes must be rejected before any allocation.
    std::ofstream out(path, std::ios::binary);
    out.write("HSGD", 4);
    const std::uint32_t version = nn::kCheckpointVersion;
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    const std::int64_t huge = std::int64_t{1} << 60;
    out.write(reinterpret_cast<const char*>(&huge), sizeof(huge));  // input
    out.write(reinterpret_cast<const char*>(&huge), sizeof(huge));  // classes
    const std::uint32_t layers = 9999999;
    out.write(reinterpret_cast<const char*>(&layers), sizeof(layers));
    out.write(reinterpret_cast<const char*>(&huge), sizeof(huge));  // units
    const std::uint32_t junk = 0xdeadbeef;
    out.write(reinterpret_cast<const char*>(&junk), sizeof(junk));
    out.write(reinterpret_cast<const char*>(&junk), sizeof(junk));
  }
  std::string error;
  EXPECT_FALSE(nn::try_load_model(path, &error));
  EXPECT_NE(error.find("implausible"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(TryLoadModel, TruncatedFileReturnsError) {
  const std::string path = temp_path("hetsgd_truncated.ckpt");
  nn::Model model = tiny_model();
  nn::save_model(model, path);
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full / 2);
  std::string error;
  EXPECT_FALSE(nn::try_load_model(path, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(TryLoadModel, UnsupportedVersionReturnsError) {
  const std::string path = temp_path("hetsgd_badversion.ckpt");
  nn::Model model = tiny_model();
  nn::save_model(model, path);
  {
    // Bump the version field in place.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(4);
    const std::uint32_t bad = nn::kCheckpointVersion + 41;
    f.write(reinterpret_cast<const char*>(&bad), sizeof(bad));
  }
  std::string error;
  EXPECT_FALSE(nn::try_load_model(path, &error));
  EXPECT_NE(error.find("unsupported checkpoint version"), std::string::npos)
      << error;
  std::remove(path.c_str());
}

TEST(TryLoadModel, RoundTripRestoresParameters) {
  const std::string path = temp_path("hetsgd_roundtrip.ckpt");
  nn::Model model = tiny_model();
  nn::save_model(model, path);
  std::string error;
  std::optional<nn::Model> loaded = nn::try_load_model(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->max_abs_diff(model), 0.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hetsgd::core

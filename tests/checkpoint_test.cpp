// Crash-consistent checkpoint/resume and elastic membership.
//
// Three layers under test, bottom up: (1) the byte/envelope machinery —
// bounds-checked readers, CRC rejection, atomic writes; (2) the
// CheckpointManager — sequence numbering, retention, corrupt-newest
// fallback; (3) the end-to-end contract the whole subsystem exists for —
// a resumed run's trajectory is bitwise identical to the uninterrupted
// run, and elastic join/retire preserves the example-accounting
// invariant dispatched == reported + reclaimed.
#include "core/checkpoint.hpp"

#include "core/elastic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/atomic_file.hpp"
#include "common/rng.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "nn/serialize.hpp"

namespace hetsgd::core {
namespace {

std::string temp_dir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

data::Dataset small_dataset(std::uint64_t seed = 11) {
  data::SyntheticSpec spec;
  spec.name = "ckpt";
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

// A config whose trajectory is fully deterministic: one GPU worker, no
// Hogwild races, no wall-clock dependence. The vehicle for the
// bitwise-resume tests.
TrainingConfig deterministic_config() {
  TrainingConfig config = small_config();
  config.algorithm = Algorithm::kMinibatchGpu;
  config.time_budget_vseconds = 0.02;
  return config;
}

nn::Model tiny_model(std::uint64_t seed = 3) {
  nn::MlpConfig c;
  c.input_dim = 8;
  c.num_classes = 3;
  c.hidden_layers = 1;
  c.hidden_units = 4;
  Rng rng(seed);
  return nn::Model(c, rng);
}

std::uint64_t reported_examples(const TrainingResult& r) {
  std::uint64_t total = 0;
  for (const auto& w : r.workers) total += w.examples;
  return total;
}

void expect_ledger_invariant(const TrainingResult& r) {
  EXPECT_EQ(r.examples_dispatched, reported_examples(r) + r.examples_reclaimed)
      << "dispatched=" << r.examples_dispatched
      << " reported=" << reported_examples(r)
      << " reclaimed=" << r.examples_reclaimed;
}

void expect_same_trajectory(const TrainingResult& a, const TrainingResult& b) {
  if (a.loss_curve.size() != b.loss_curve.size()) {
    for (const auto& p : a.loss_curve)
      std::printf("A t=%.8f e=%.4f l=%.6f\n", p.vtime, p.epochs, p.loss);
    for (const auto& p : b.loss_curve)
      std::printf("B t=%.8f e=%.4f l=%.6f\n", p.vtime, p.epochs, p.loss);
  }
  ASSERT_EQ(a.loss_curve.size(), b.loss_curve.size());
  for (std::size_t i = 0; i < a.loss_curve.size(); ++i) {
    EXPECT_EQ(a.loss_curve[i].vtime, b.loss_curve[i].vtime) << "point " << i;
    EXPECT_EQ(a.loss_curve[i].epochs, b.loss_curve[i].epochs) << "point " << i;
    EXPECT_EQ(a.loss_curve[i].loss, b.loss_curve[i].loss) << "point " << i;
  }
  EXPECT_EQ(a.final_model_bytes, b.final_model_bytes)
      << "final model parameters differ bitwise";
}

// The first record of `kind` in the run's fault log, or nullptr.
const FaultRecord* find_record(const TrainingResult& r, FaultKind kind) {
  for (const FaultRecord& e : r.fault_events) {
    if (e.kind == kind) return &e;
  }
  return nullptr;
}

// --- byte I/O -------------------------------------------------------------

TEST(ByteIo, RoundTripAllTypes) {
  ByteWriter w;
  w.write_u8(0xAB);
  w.write_u32(0xDEADBEEF);
  w.write_u64(0x0123456789ABCDEFull);
  w.write_i64(-42);
  w.write_f64(3.14159);
  w.write_string("hello checkpoint");

  ByteReader r(w.data());
  std::uint8_t u8 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::int64_t i64 = 0;
  double f64 = 0.0;
  std::string s;
  EXPECT_TRUE(r.read_u8(&u8));
  EXPECT_TRUE(r.read_u32(&u32));
  EXPECT_TRUE(r.read_u64(&u64));
  EXPECT_TRUE(r.read_i64(&i64));
  EXPECT_TRUE(r.read_f64(&f64));
  EXPECT_TRUE(r.read_string(&s));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i64, -42);
  EXPECT_DOUBLE_EQ(f64, 3.14159);
  EXPECT_EQ(s, "hello checkpoint");
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.ok());
}

TEST(ByteIo, TruncationFailsSoftAndPoisons) {
  ByteWriter w;
  w.write_u64(7);
  ByteReader r(w.data().data(), w.size() - 1);  // one byte short
  std::uint64_t v = 0;
  EXPECT_FALSE(r.read_u64(&v));
  EXPECT_FALSE(r.ok());
  // Poisoned: even a read that would fit must now fail.
  std::uint8_t b = 0;
  EXPECT_FALSE(r.read_u8(&b));
}

TEST(ByteIo, HostileStringLengthRejected) {
  // A corrupt length field claiming more bytes than the payload holds must
  // fail the read, not attempt a giant allocation.
  ByteWriter w;
  w.write_u64(std::uint64_t{1} << 40);
  ByteReader r(w.data());
  std::string s;
  EXPECT_FALSE(r.read_string(&s));
  EXPECT_FALSE(r.ok());
}

TEST(ByteIo, Crc32MatchesReferenceVector) {
  // The canonical IEEE 802.3 check value for "123456789".
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
}

// --- atomic file writes -----------------------------------------------------

std::string read_text(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  std::string error;
  EXPECT_TRUE(read_file(path, &bytes, &error)) << error;
  return std::string(bytes.begin(), bytes.end());
}

TEST(AtomicFile, WriteThenReadRoundTrips) {
  const std::string dir = temp_dir("hetsgd_atomic_round_trip");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/blob.bin";
  const std::string payload("ab\0cd\xff", 6);  // embedded NUL, high byte
  std::string error;
  ASSERT_TRUE(atomic_write_file(path, payload.data(), payload.size(), &error))
      << error;
  EXPECT_EQ(read_text(path), payload);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove_all(dir);
}

TEST(AtomicFile, ReplacesTheWholeFile) {
  const std::string dir = temp_dir("hetsgd_atomic_replace");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/blob.bin";
  const std::string longer(100, 'x');
  std::string error;
  ASSERT_TRUE(atomic_write_file(path, longer.data(), longer.size(), &error))
      << error;
  // A shorter payload leaves no tail of the file it replaces.
  ASSERT_TRUE(atomic_write_file(path, "new", 3, &error)) << error;
  EXPECT_EQ(read_text(path), "new");
  std::filesystem::remove_all(dir);
}

TEST(AtomicFile, FailedOpenLeavesThePreviousFile) {
  const std::string dir = temp_dir("hetsgd_atomic_failed_open");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/blob.bin";
  std::string error;
  ASSERT_TRUE(atomic_write_file(path, "old", 3, &error)) << error;
  // A directory where the temp file goes: the temp file cannot be opened.
  std::filesystem::create_directory(path + ".tmp");
  EXPECT_FALSE(atomic_write_file(path, "new", 3, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
  EXPECT_EQ(read_text(path), "old");
  std::filesystem::remove_all(dir);
}

TEST(AtomicFile, FailedRenameRemovesTheTempFile) {
  const std::string dir = temp_dir("hetsgd_atomic_failed_rename");
  // The target is a non-empty directory, so renaming over it fails.
  const std::string path = dir + "/target";
  std::filesystem::create_directories(path + "/keep");
  std::string error;
  EXPECT_FALSE(atomic_write_file(path, "new", 3, &error));
  EXPECT_NE(error.find("rename"), std::string::npos) << error;
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_TRUE(std::filesystem::is_directory(path + "/keep"));
  std::filesystem::remove_all(dir);
}

TEST(ReadFile, MissingFileReportsError) {
  const std::string path =
      temp_dir("hetsgd_read_missing") + "/no_such_file.bin";
  std::vector<std::uint8_t> out;
  std::string error;
  EXPECT_FALSE(read_file(path, &out, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(ReadFile, EmptyFileReadsAsEmpty) {
  const std::string dir = temp_dir("hetsgd_read_empty");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/empty.bin";
  std::string error;
  ASSERT_TRUE(atomic_write_file(path, "", 0, &error)) << error;
  std::vector<std::uint8_t> out{1, 2, 3};
  ASSERT_TRUE(read_file(path, &out, &error)) << error;
  EXPECT_TRUE(out.empty());
  std::filesystem::remove_all(dir);
}

TEST(Envelope, CorruptPayloadByteIsRejected) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "hetsgd_env_corrupt.bin")
          .string();
  std::vector<std::uint8_t> payload(64, 0x5A);
  std::string error;
  ASSERT_TRUE(nn::write_envelope_file(path, payload, &error)) << error;

  {
    // Flip one payload bit behind the envelope's back.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(0xA5));
  }
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(nn::read_envelope_file(path, &out, &error));
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;
  std::remove(path.c_str());
}

// --- checkpoint payload ---------------------------------------------------

TrainingCheckpoint sample_checkpoint() {
  TrainingCheckpoint ckpt;
  ckpt.fingerprint = 0xFEEDFACE;
  ckpt.seed = 7;
  ckpt.model = tiny_model();
  Rng rng(99);
  rng.next_double();  // advance off the seed state
  ckpt.rng = rng.state();
  ckpt.epoch = 5;
  ckpt.epoch_start_vtime = 1.25;
  ckpt.next_eval_vtime = 1.5;
  ckpt.next_checkpoint_vtime = 2.0;
  ckpt.lr_scale = 0.5;
  ckpt.rollbacks = 1;
  ckpt.examples_dispatched = 4096;
  ckpt.examples_reclaimed = 128;
  ckpt.late_reports = 2;
  ckpt.late_examples = 64;
  ckpt.checkpoints_written = 3;
  ckpt.last_good_loss = 0.87;
  ckpt.curve = {{0.0, 0.0, 1.1}, {0.5, 1.0, 0.9}};
  WorkerCheckpoint wc;
  wc.id = 0;
  wc.kind = 1;
  wc.stats.id = 0;
  wc.stats.updates = 11;
  wc.adaptive_batch = 256;
  wc.adaptive_updates = 11;
  ckpt.workers.push_back(wc);
  return ckpt;
}

TEST(CheckpointPayload, RoundTripRestoresEveryField) {
  TrainingCheckpoint ckpt = sample_checkpoint();
  ByteWriter w;
  write_training_checkpoint(w, ckpt);

  TrainingCheckpoint out;
  std::string error;
  ByteReader r(w.data());
  ASSERT_TRUE(read_training_checkpoint(r, &out, &error)) << error;

  EXPECT_EQ(out.fingerprint, ckpt.fingerprint);
  EXPECT_EQ(out.seed, ckpt.seed);
  EXPECT_EQ(out.model.max_abs_diff(ckpt.model), 0.0);
  EXPECT_TRUE(out.rng == ckpt.rng);
  EXPECT_EQ(out.epoch, ckpt.epoch);
  EXPECT_EQ(out.epoch_start_vtime, ckpt.epoch_start_vtime);
  EXPECT_EQ(out.next_eval_vtime, ckpt.next_eval_vtime);
  EXPECT_EQ(out.next_checkpoint_vtime, ckpt.next_checkpoint_vtime);
  EXPECT_EQ(out.lr_scale, ckpt.lr_scale);
  EXPECT_EQ(out.rollbacks, ckpt.rollbacks);
  EXPECT_EQ(out.examples_dispatched, ckpt.examples_dispatched);
  EXPECT_EQ(out.examples_reclaimed, ckpt.examples_reclaimed);
  EXPECT_EQ(out.late_reports, ckpt.late_reports);
  EXPECT_EQ(out.late_examples, ckpt.late_examples);
  EXPECT_EQ(out.checkpoints_written, ckpt.checkpoints_written);
  EXPECT_EQ(out.last_good_loss, ckpt.last_good_loss);
  ASSERT_EQ(out.curve.size(), ckpt.curve.size());
  EXPECT_EQ(out.curve[1].loss, ckpt.curve[1].loss);
  ASSERT_EQ(out.workers.size(), 1u);
  EXPECT_EQ(out.workers[0].id, ckpt.workers[0].id);
  EXPECT_EQ(out.workers[0].kind, ckpt.workers[0].kind);
  EXPECT_EQ(out.workers[0].stats.updates, ckpt.workers[0].stats.updates);
  EXPECT_EQ(out.workers[0].adaptive_batch, ckpt.workers[0].adaptive_batch);
  EXPECT_EQ(out.workers[0].adaptive_updates,
            ckpt.workers[0].adaptive_updates);
}

// Worker-state blobs as workers serialized them before checkpoints took
// worker progress from the ledger: a 4-lane Hogwild worker and a replica
// worker after one batch each, in version 1 (which ended in plain SGD's
// per-lane step records) and version 2. Blobs hold host-order values;
// these are little-endian.
const std::vector<std::uint8_t> kHogwildBlobV1 = {
    'C', 0x01, 0x00, 0x00, 0x00,                      // tag, version 1
    0x6c, 0x02, 0xa0, 0x08, 0xff, 0x1d, 0xf5, 0x3e,  // clock
    0x6c, 0x02, 0xa0, 0x08, 0xff, 0x1d, 0xf5, 0x3e,  // busy time
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x40,  // updates_scaled 4.0
    0x04, 0x00, 0x00, 0x00,                          // 4 lanes
    // Per lane: a u64 step count of 1 and a u8 flag of 1.
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
};
const std::vector<std::uint8_t> kReplicaBlobV1 = {
    'G', 0x01, 0x00, 0x00, 0x00,                      // tag, version 1
    0x09, 0x4a, 0xe8, 0x80, 0xd5, 0x18, 0x23, 0x3f,  // clock
    0x09, 0x4a, 0xe8, 0x80, 0xd5, 0x18, 0x23, 0x3f,  // busy time
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // 1 update
    // A u64 step count of 1 and a u8 flag of 1.
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
};

// The version-2 blob of the same state: the version-1 blob without its
// step records.
std::vector<std::uint8_t> blob_as_version2(
    const std::vector<std::uint8_t>& v1) {
  std::vector<std::uint8_t> v2(v1.begin(), v1.begin() + 29);
  v2[1] = 0x02;
  return v2;
}

TEST(CheckpointPayload, SkipsWorkerBlobsCutBeforeTheChange) {
  TrainingCheckpoint ckpt = sample_checkpoint();
  ckpt.workers.clear();
  const std::vector<std::vector<std::uint8_t>> blobs = {
      kHogwildBlobV1, blob_as_version2(kHogwildBlobV1), kReplicaBlobV1,
      blob_as_version2(kReplicaBlobV1), {}};
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    WorkerCheckpoint wc;
    wc.id = static_cast<msg::WorkerId>(i);
    wc.kind = blobs[i].empty() || blobs[i][0] == 'G' ? 1 : 0;
    wc.stats.id = wc.id;
    wc.stats.name = "worker-" + std::to_string(i);
    wc.stats.updates = 100 + i;
    wc.stats.batches = 10 + i;
    wc.stats.examples = 1000 + i;
    wc.stats.busy_vtime = 0.5 + static_cast<double>(i);
    wc.stats.clock = 1.5 + static_cast<double>(i);
    wc.stats.current_batch = static_cast<tensor::Index>(56 * (i + 1));
    wc.stats.staleness_sum = 0.25 * static_cast<double>(i);
    wc.stats.max_staleness = 0.125 * static_cast<double>(i);
    wc.adaptive_batch = static_cast<tensor::Index>(64 * (i + 1));
    wc.adaptive_updates = 100 + i;
    ckpt.workers.push_back(wc);
  }
  // The payload as the blob-carrying writer laid it out: this writer's run
  // header, model and curve, then each worker record with its blob.
  TrainingCheckpoint header = ckpt;
  header.workers.clear();
  ByteWriter head;
  write_training_checkpoint(head, header);
  ByteWriter w;
  w.write_bytes(head.data().data(), head.size() - 4);  // drop the count
  w.write_u32(static_cast<std::uint32_t>(ckpt.workers.size()));
  for (std::size_t i = 0; i < ckpt.workers.size(); ++i) {
    const WorkerCheckpoint& wc = ckpt.workers[i];
    w.write_u32(static_cast<std::uint32_t>(wc.id));
    w.write_u8(wc.kind);
    w.write_string(wc.stats.name);
    w.write_u64(wc.stats.updates);
    w.write_u64(wc.stats.batches);
    w.write_u64(wc.stats.examples);
    w.write_f64(wc.stats.busy_vtime);
    w.write_f64(wc.stats.clock);
    w.write_i64(wc.stats.current_batch);
    w.write_f64(wc.stats.staleness_sum);
    w.write_f64(wc.stats.max_staleness);
    w.write_i64(wc.adaptive_batch);
    w.write_u64(wc.adaptive_updates);
    w.write_u64(static_cast<std::uint64_t>(blobs[i].size()));
    w.write_bytes(blobs[i].data(), blobs[i].size());
  }

  TrainingCheckpoint out;
  std::string error;
  ByteReader r(w.data());
  ASSERT_TRUE(read_training_checkpoint(r, &out, &error)) << error;
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(out.epoch, ckpt.epoch);
  EXPECT_EQ(out.curve.size(), ckpt.curve.size());
  ASSERT_EQ(out.workers.size(), ckpt.workers.size());
  for (std::size_t i = 0; i < ckpt.workers.size(); ++i) {
    const WorkerCheckpoint& want = ckpt.workers[i];
    const WorkerCheckpoint& got = out.workers[i];
    EXPECT_EQ(got.id, want.id) << i;
    EXPECT_EQ(got.kind, want.kind) << i;
    EXPECT_EQ(got.stats.id, want.stats.id) << i;
    EXPECT_EQ(got.stats.name, want.stats.name) << i;
    EXPECT_EQ(got.stats.updates, want.stats.updates) << i;
    EXPECT_EQ(got.stats.batches, want.stats.batches) << i;
    EXPECT_EQ(got.stats.examples, want.stats.examples) << i;
    EXPECT_EQ(got.stats.busy_vtime, want.stats.busy_vtime) << i;
    EXPECT_EQ(got.stats.clock, want.stats.clock) << i;
    EXPECT_EQ(got.stats.current_batch, want.stats.current_batch) << i;
    EXPECT_EQ(got.stats.staleness_sum, want.stats.staleness_sum) << i;
    EXPECT_EQ(got.stats.max_staleness, want.stats.max_staleness) << i;
    EXPECT_EQ(got.adaptive_batch, want.adaptive_batch) << i;
    EXPECT_EQ(got.adaptive_updates, want.adaptive_updates) << i;
  }
  // A blob length past the end of the payload is still a truncation.
  std::vector<std::uint8_t> cut = w.data();
  cut.resize(cut.size() - 1);
  ByteReader short_reader(cut);
  EXPECT_FALSE(read_training_checkpoint(short_reader, &out, &error));
  EXPECT_NE(error.find("worker state"), std::string::npos) << error;
}

TEST(CheckpointPayload, TruncatedPayloadFailsSoft) {
  TrainingCheckpoint ckpt = sample_checkpoint();
  ByteWriter w;
  write_training_checkpoint(w, ckpt);
  TrainingCheckpoint out;
  std::string error;
  ByteReader r(w.data().data(), w.size() / 2);
  EXPECT_FALSE(read_training_checkpoint(r, &out, &error));
  EXPECT_FALSE(error.empty());
}

// --- config fingerprint ---------------------------------------------------

TEST(Fingerprint, StableForIdenticalInputs) {
  TrainingConfig config = small_config();
  data::Dataset d = small_dataset();
  EXPECT_EQ(config_fingerprint(config, d), config_fingerprint(config, d));
}

TEST(Fingerprint, SensitiveToTrajectoryShapingKnobs) {
  const TrainingConfig base = small_config();
  const data::Dataset d = small_dataset();
  const std::uint64_t fp = config_fingerprint(base, d);

  TrainingConfig c = base;
  c.seed = base.seed + 1;
  EXPECT_NE(config_fingerprint(c, d), fp);

  c = base;
  c.mlp.hidden_units = 32;
  EXPECT_NE(config_fingerprint(c, d), fp);

  c = base;
  c.algorithm = Algorithm::kMinibatchGpu;
  EXPECT_NE(config_fingerprint(c, d), fp);

  c = base;
  c.learning_rate *= 2.0;
  EXPECT_NE(config_fingerprint(c, d), fp);

  // A different dataset (shape or content seed) must also refuse.
  EXPECT_NE(config_fingerprint(base, small_dataset(12)), fp);
}

TEST(Fingerprint, IgnoresTimeBudget) {
  // Resuming with a longer horizon is the point of resuming.
  TrainingConfig a = small_config();
  TrainingConfig b = a;
  b.time_budget_vseconds *= 10.0;
  const data::Dataset d = small_dataset();
  EXPECT_EQ(config_fingerprint(a, d), config_fingerprint(b, d));
}

TEST(Fingerprint, MatchesCheckpointsCutBeforeTheBackendFlagWasRetired) {
  // Pinned to the value computed when configs still carried a --backend
  // name (default "sim"), so checkpoints cut then keep resuming.
  tensor::Matrix x{{0.5, -1.25, 2.0},
                   {0.0, 3.5, -0.75},
                   {1.0, 0.25, -2.5},
                   {-0.5, 0.0, 4.0}};
  const data::Dataset d("pinned", std::move(x), {0, 1, 2, 1}, 3);
  EXPECT_EQ(config_fingerprint(small_config(), d), 0x1853304e5aa2fe7fULL);
}

// Pinned to the values computed when every dataset was held dense: the
// fingerprint reads row[0] and row[d-1] of sampled rows as stored, so
// checkpoints of sparse runs cut before the CSR storage keep resuming.
TEST(Fingerprint, MatchesCheckpointsOfSparseRunsCutWhenStoredDense) {
  const data::Dataset realsim =
      data::make_paper_dataset(data::PaperDataset::kRealSim, 0.002, 1);
  const data::Dataset delicious =
      data::make_paper_dataset(data::PaperDataset::kDelicious, 0.002, 1);
  ASSERT_TRUE(realsim.csr());
  EXPECT_EQ(config_fingerprint(small_config(), realsim),
            0x18f922ee40be0da0ULL);
  EXPECT_EQ(config_fingerprint(small_config(), delicious),
            0x38b11a5d4664c632ULL);
}

// --- checkpoint manager ---------------------------------------------------

TEST(CheckpointManagerTest, SaveAssignsSequenceAndWritesManifest) {
  const std::string dir = temp_dir("hetsgd_mgr_basic");
  CheckpointManager mgr(dir, 3);
  TrainingCheckpoint ckpt = sample_checkpoint();
  std::string error;
  ASSERT_TRUE(mgr.save(ckpt, &error)) << error;
  EXPECT_EQ(ckpt.sequence, 1u);
  ASSERT_TRUE(mgr.save(ckpt, &error)) << error;
  EXPECT_EQ(ckpt.sequence, 2u);
  EXPECT_EQ(mgr.saves(), 2u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/MANIFEST"));

  auto latest = CheckpointManager::load_latest(dir, &error);
  ASSERT_TRUE(latest.has_value()) << error;
  EXPECT_EQ(latest->sequence, 2u);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointManagerTest, RetentionPrunesOldestFiles) {
  const std::string dir = temp_dir("hetsgd_mgr_retain");
  CheckpointManager mgr(dir, 2);
  TrainingCheckpoint ckpt = sample_checkpoint();
  std::string error;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(mgr.save(ckpt, &error)) << error;
  }
  std::size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".hetsgd") ++files;
  }
  EXPECT_EQ(files, 2u);
  auto latest = CheckpointManager::load_latest(dir, &error);
  ASSERT_TRUE(latest.has_value()) << error;
  EXPECT_EQ(latest->sequence, 4u);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointManagerTest, CorruptNewestFallsBackToPrevious) {
  const std::string dir = temp_dir("hetsgd_mgr_fallback");
  CheckpointManager mgr(dir, 3);
  TrainingCheckpoint ckpt = sample_checkpoint();
  ckpt.epoch = 1;
  std::string error;
  ASSERT_TRUE(mgr.save(ckpt, &error)) << error;
  ckpt.epoch = 2;
  ASSERT_TRUE(mgr.save(ckpt, &error)) << error;

  // Garble the newest file: the crash may have corrupted the very write
  // that was in flight. Resume must fall back, not fail.
  {
    std::ofstream out(dir + "/ckpt-2.hetsgd",
                      std::ios::binary | std::ios::trunc);
    out << "torn to shreds";
  }
  auto latest = CheckpointManager::load_latest(dir, &error);
  ASSERT_TRUE(latest.has_value()) << error;
  EXPECT_EQ(latest->sequence, 1u);
  EXPECT_EQ(latest->epoch, 1u);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointManagerTest, EmptyDirectoryReportsNothingUsable) {
  const std::string dir = temp_dir("hetsgd_mgr_empty");
  std::filesystem::create_directories(dir);
  std::string error;
  EXPECT_FALSE(CheckpointManager::load_latest(dir, &error).has_value());
  EXPECT_FALSE(error.empty());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointManagerTest, SequenceNumberingSurvivesRestart) {
  const std::string dir = temp_dir("hetsgd_mgr_restart");
  TrainingCheckpoint ckpt = sample_checkpoint();
  std::string error;
  {
    CheckpointManager mgr(dir, 3);
    ASSERT_TRUE(mgr.save(ckpt, &error)) << error;
    ASSERT_TRUE(mgr.save(ckpt, &error)) << error;
  }
  // A resumed run's manager must append after the survivors, not reuse
  // sequence numbers (reuse would silently overwrite resume targets).
  CheckpointManager mgr(dir, 3);
  ASSERT_TRUE(mgr.save(ckpt, &error)) << error;
  EXPECT_EQ(ckpt.sequence, 3u);
  std::filesystem::remove_all(dir);
}

// --- seed determinism -----------------------------------------------------

TEST(Determinism, SameSeedSameTrajectoryMinibatchGpu) {
  TrainingConfig config = deterministic_config();
  Trainer a(small_dataset(), config);
  Trainer b(small_dataset(), config);
  TrainingResult ra = a.run();
  TrainingResult rb = b.run();
  ASSERT_GT(ra.loss_curve.size(), 1u);
  expect_same_trajectory(ra, rb);
}

TEST(Determinism, SameSeedSameTrajectoryHogwildSingleLane) {
  // Hogwild is deterministic only when there is exactly one lane and one
  // real thread: no racing writes to the shared model.
  TrainingConfig config = small_config();
  config.algorithm = Algorithm::kHogwildCpu;
  config.cpu.sim_lanes = 1;
  config.real_threads = 1;
  Trainer a(small_dataset(), config);
  Trainer b(small_dataset(), config);
  TrainingResult ra = a.run();
  TrainingResult rb = b.run();
  ASSERT_GT(ra.loss_curve.size(), 1u);
  expect_same_trajectory(ra, rb);
}

// FNV-1a over a serialized model.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

// One real lane makes Hogwild deterministic, so its final model is pinned:
// these hashes were recorded while each lane still built its sub-batch
// gradient and applied it with Model::axpy, and the in-place SGD step must
// reproduce those bytes exactly, on 1-row sub-batches (whose weight updates
// are rank-1 products) and on 16-row ones. A 1-row forward runs the skinny
// NT kernel, whose `omp simd` reduction sums in an order that depends on
// how the compiler vectorizes it; the sanitizer builds compile it
// differently, so they have their own 1-row value, recorded the same way.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr std::uint64_t kOneRowModelHash = 0x3fad6b8649f3dda1ull;
#else
constexpr std::uint64_t kOneRowModelHash = 0x506765cbba3d1941ull;
#endif

TEST(Determinism, PinnedHogwildSingleLaneModelBytes) {
  const std::pair<tensor::Index, std::uint64_t> pins[] = {
      {1, kOneRowModelHash},
      {16, 0xf1e24d5cb70fb524ull},
  };
  for (const auto& [rows, want] : pins) {
    TrainingConfig config = small_config();
    config.algorithm = Algorithm::kHogwildCpu;
    config.mlp.hidden_layers = 2;
    config.cpu.examples_per_thread = rows;
    config.real_threads = 1;
    const TrainingResult r = Trainer(small_dataset(), config).run();
    ASSERT_EQ(r.workers.size(), 1u);
    ASSERT_GT(r.workers[0].updates, 2000u);  // 2688 and 2480 lane steps
    ASSERT_FALSE(r.final_model_bytes.empty());
    EXPECT_EQ(fnv1a(r.final_model_bytes), want)
        << rows << "-row sub-batches: 0x" << std::hex
        << fnv1a(r.final_model_bytes);
  }
}

TEST(Determinism, DifferentSeedDifferentModel) {
  TrainingConfig config = deterministic_config();
  Trainer a(small_dataset(), config);
  config.seed += 1;
  Trainer b(small_dataset(), config);
  EXPECT_NE(a.run().final_model_bytes, b.run().final_model_bytes);
}

// --- resume determinism (the tentpole acceptance test) --------------------

TEST(Resume, ResumedTrajectoryMatchesUninterruptedRun) {
  const std::string dir = temp_dir("hetsgd_resume_det");
  TrainingConfig config = deterministic_config();

  // Uninterrupted reference run over the full budget.
  Trainer reference(small_dataset(), config);
  TrainingResult full = reference.run();
  ASSERT_GT(full.loss_curve.size(), 1u);

  // Interrupted run: half the budget, cutting a checkpoint at every epoch
  // barrier (interval 0), then resume to the full horizon.
  TrainingConfig half = config;
  half.time_budget_vseconds = config.time_budget_vseconds / 2.0;
  half.fault.checkpoint_dir = dir;
  Trainer interrupted(small_dataset(), half);
  TrainingResult first_leg = interrupted.run();
  ASSERT_GE(first_leg.checkpoints_written, 1u)
      << "half-budget run never reached an epoch barrier";

  TrainingConfig resumed_config = config;
  resumed_config.fault.checkpoint_dir = dir;
  resumed_config.fault.resume_dir = dir;
  Trainer resumed(small_dataset(), resumed_config);
  TrainingResult second_leg = resumed.run();
  EXPECT_TRUE(second_leg.resumed);
  EXPECT_GE(second_leg.resume_epoch, 1u);

  // The spliced trajectory — checkpointed prefix plus recomputed suffix —
  // must be bitwise identical to never having stopped.
  expect_same_trajectory(full, second_leg);
  std::filesystem::remove_all(dir);
}

TEST(Resume, EmptyResumeDirStartsFresh) {
  const std::string dir = temp_dir("hetsgd_resume_fresh");
  TrainingConfig config = deterministic_config();
  config.fault.resume_dir = dir;  // nothing there
  Trainer t(small_dataset(), config);
  TrainingResult r = t.run();
  EXPECT_FALSE(r.resumed);
  EXPECT_TRUE(std::isfinite(r.final_loss));
}

TEST(Resume, FingerprintMismatchRefusesToResume) {
  const std::string dir = temp_dir("hetsgd_resume_fpmm");
  TrainingConfig config = deterministic_config();
  config.fault.checkpoint_dir = dir;
  Trainer t(small_dataset(), config);
  TrainingResult r = t.run();
  ASSERT_GE(r.checkpoints_written, 1u);

  // Same directory, different seed: resuming would fork the trajectory.
  TrainingConfig other = config;
  other.seed += 1;
  other.fault.checkpoint_dir.clear();
  other.fault.resume_dir = dir;
  Trainer t2(small_dataset(), other);
  EXPECT_DEATH(t2.run(), "fingerprint mismatch");
  std::filesystem::remove_all(dir);
}

TEST(Resume, CheckpointsAreCutUnderFaultyRunsToo) {
  // The manager keeps cutting through worker deaths: every worker's
  // record is persisted, the dead one's from its last ledger stats.
  const std::string dir = temp_dir("hetsgd_resume_faulty");
  TrainingConfig config = small_config();
  config.fault.checkpoint_dir = dir;
  config.fault.plan = "die:worker=1,atfrac=0.3";
  config.fault.deadline_factor = 2.0;
  config.fault.quarantine_after = 1;
  config.fault.stall_grace_ticks = 3;
  Trainer t(small_dataset(), config);
  TrainingResult r = t.run();
  EXPECT_TRUE(std::isfinite(r.final_loss));
  EXPECT_GE(r.checkpoints_written, 1u);
  std::string error;
  auto latest = CheckpointManager::load_latest(dir, &error);
  ASSERT_TRUE(latest.has_value()) << error;
  EXPECT_TRUE(latest->model.all_finite());
  expect_ledger_invariant(r);
  std::filesystem::remove_all(dir);
}

// Resumes a run cut in `dir` under `config` and checks that worker `id`,
// quarantined or dead at the cut, works again: its reports continue from
// the ledger stats it was cut with, so its count grows past them.
void expect_worker_revives_on_resume(const std::string& dir,
                                     const TrainingConfig& config,
                                     msg::WorkerId id) {
  std::string error;
  const auto latest = CheckpointManager::load_latest(dir, &error);
  ASSERT_TRUE(latest.has_value()) << error;
  ASSERT_LT(static_cast<std::size_t>(id), latest->workers.size());
  const std::uint64_t restored =
      latest->workers[static_cast<std::size_t>(id)].stats.updates;
  Trainer resumed(small_dataset(), config);
  const TrainingResult r = resumed.run();
  EXPECT_TRUE(r.resumed);
  EXPECT_TRUE(std::isfinite(r.final_loss));
  expect_ledger_invariant(r);
  ASSERT_LT(static_cast<std::size_t>(id), r.workers.size());
  EXPECT_GT(r.workers[static_cast<std::size_t>(id)].updates, restored);
}

TEST(Resume, QuarantinedStallerResumesUnderTheSameFlags) {
  const std::string dir = temp_dir("hetsgd_resume_quarantined");
  TrainingConfig config = small_config();
  config.fault.checkpoint_dir = dir;  // a cut at every epoch barrier
  config.fault.resume_dir = dir;
  config.fault.plan = "stall:worker=0,atfrac=0.3,factor=4,sleep=80";
  config.fault.deadline_factor = 1.5;
  config.fault.quarantine_after = 1;
  config.fault.stall_grace_ticks = 3;
  Trainer first(small_dataset(), config);
  const TrainingResult cut = first.run();
  ASSERT_FALSE(cut.resumed);
  ASSERT_GE(cut.quarantined_workers, 1u);
  ASSERT_GE(cut.checkpoints_written, 1u);
  expect_worker_revives_on_resume(dir, config, 0);
  std::filesystem::remove_all(dir);
}

TEST(Resume, DeadWorkerRejoinsWhenThePlanIsDropped) {
  const std::string dir = temp_dir("hetsgd_resume_dead");
  TrainingConfig config = small_config();
  config.fault.checkpoint_dir = dir;
  config.fault.plan = "die:worker=1,atfrac=0.3";
  config.fault.deadline_factor = 2.0;
  config.fault.quarantine_after = 1;
  config.fault.stall_grace_ticks = 3;
  Trainer first(small_dataset(), config);
  const TrainingResult cut = first.run();
  ASSERT_GE(cut.quarantined_workers, 1u);
  ASSERT_GE(cut.checkpoints_written, 1u);
  TrainingConfig again = config;
  again.fault.plan.clear();
  again.fault.resume_dir = dir;
  expect_worker_revives_on_resume(dir, again, 1);
  std::filesystem::remove_all(dir);
}

// One run of `config` uninterrupted, one to half its budget with a cut at
// every epoch barrier in `dir`, and one resumed from those cuts to the
// full budget under the same flags.
struct CutAndResume {
  TrainingResult full;
  TrainingResult first_leg;
  TrainingResult second_leg;
};

CutAndResume run_cut_and_resume(const TrainingConfig& config,
                                const std::string& dir) {
  CutAndResume out;
  out.full = Trainer(small_dataset(), config).run();
  TrainingConfig half = config;
  half.time_budget_vseconds = config.time_budget_vseconds / 2.0;
  half.fault.checkpoint_dir = dir;
  out.first_leg = Trainer(small_dataset(), half).run();
  TrainingConfig resumed = config;
  resumed.fault.checkpoint_dir = dir;
  resumed.fault.resume_dir = dir;
  out.second_leg = Trainer(small_dataset(), resumed).run();
  return out;
}

TEST(Resume, FiredInjectionDoesNotFireAgainUnderTheSamePlan) {
  const std::string dir = temp_dir("hetsgd_resume_nan");
  TrainingConfig config = deterministic_config();
  // An absolute trigger: `atfrac` would resolve against each leg's budget.
  config.fault.plan = "nan:worker=0,at=0.004";
  const CutAndResume r = run_cut_and_resume(config, dir);
  ASSERT_EQ(r.full.rollbacks, 1u);
  // The first leg fired the injection and rolled back before its last cut.
  ASSERT_EQ(r.first_leg.rollbacks, 1u);
  std::string error;
  const auto latest = CheckpointManager::load_latest(dir, &error);
  ASSERT_TRUE(latest.has_value()) << error;
  ASSERT_EQ(latest->rollbacks, 1u) << "no cut after the rollback";

  // Resumed under the same plan, the run neither re-fires the injection
  // nor rolls back again: it continues the uninterrupted trajectory.
  EXPECT_TRUE(r.second_leg.resumed);
  EXPECT_EQ(find_record(r.second_leg, FaultKind::kGradientCorruption),
            nullptr);
  EXPECT_EQ(r.second_leg.rollbacks, r.full.rollbacks);
  EXPECT_EQ(r.second_leg.final_lr_scale, r.full.final_lr_scale);
  expect_same_trajectory(r.full, r.second_leg);
  std::filesystem::remove_all(dir);
}

// A nan injection that lands after an epoch's last evaluation point
// poisons the model before the barrier's cut. That cut must not persist
// it: a resumed run would restore the poisoned model as its last-good
// one and roll back onto it again and again.
TEST(Resume, NoCutPersistsAPoisonedModel) {
  const std::string dir = temp_dir("hetsgd_resume_poisoned");
  TrainingConfig config = deterministic_config();
  config.fault.plan = "nan:worker=0,at=0.008";
  const CutAndResume r = run_cut_and_resume(config, dir);
  ASSERT_EQ(r.full.rollbacks, 1u);
  ASSERT_NE(find_record(r.first_leg, FaultKind::kGradientCorruption),
            nullptr);
  ASSERT_GE(r.first_leg.checkpoints_written, 1u);
  std::string error;
  const auto latest = CheckpointManager::load_latest(dir, &error);
  ASSERT_TRUE(latest.has_value()) << error;
  EXPECT_TRUE(latest->model.all_finite());

  EXPECT_TRUE(r.second_leg.resumed);
  EXPECT_LE(r.second_leg.rollbacks, r.full.rollbacks);
  EXPECT_TRUE(std::isfinite(r.second_leg.final_loss));
  ByteReader reader(r.second_leg.final_model_bytes);
  const auto final_model = nn::read_model(reader, &error);
  ASSERT_TRUE(final_model.has_value()) << error;
  EXPECT_TRUE(final_model->all_finite());
  std::filesystem::remove_all(dir);
}

TEST(Resume, MaturedStallKeepsSlowingWithoutASecondRecord) {
  const std::string dir = temp_dir("hetsgd_resume_stall");
  TrainingConfig config = deterministic_config();
  const TrainingResult unstalled = Trainer(small_dataset(), config).run();
  config.fault.plan = "stall:worker=0,at=0.004,factor=2";
  const CutAndResume r = run_cut_and_resume(config, dir);
  ASSERT_LT(r.full.epochs, unstalled.epochs) << "the stall slowed nothing";
  ASSERT_NE(find_record(r.first_leg, FaultKind::kStall), nullptr);
  // Stalls persist within a run: the resumed worker stays slowed, so the
  // trajectory is the uninterrupted one, and the stall is not recorded as
  // firing a second time.
  EXPECT_TRUE(r.second_leg.resumed);
  EXPECT_EQ(find_record(r.second_leg, FaultKind::kStall), nullptr);
  expect_same_trajectory(r.full, r.second_leg);
  std::filesystem::remove_all(dir);
}

// --- elastic membership ---------------------------------------------------

TEST(Elastic, PlanParsesAndRejects) {
  ElasticPlan plan;
  std::string error;
  ASSERT_TRUE(ElasticPlan::parse(
      "join:kind=gpu,atfrac=0.3;retire:worker=1,atfrac=0.6;join:kind=cpu,at=1",
      &plan, &error))
      << error;
  EXPECT_EQ(plan.events.size(), 3u);
  EXPECT_FALSE(ElasticPlan::parse("join:kind=tpu,atfrac=0.3", &plan, &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(ElasticPlan::parse("retire:atfrac=0.5", &plan, &error));
  EXPECT_FALSE(error.empty());
}

// A worker id past int32 must not narrow onto another worker
// (4294967297 -> 1), and a NaN time must not resolve to an event that
// fires at once or sorts out of order.
TEST(Elastic, PlanRejectsOutOfRangeIdsAndNonFiniteTimes) {
  for (const char* spec :
       {"retire:worker=4294967297,at=0.1", "retire:worker=2147483648,at=0.1",
        "join:kind=gpu,at=nan", "join:kind=cpu,atfrac=nan",
        "retire:worker=1,at=inf",
        "join:kind=gpu,atfrac=0.5;retire:worker=1,atfrac=nan;"
        "join:kind=cpu,atfrac=0.2"}) {
    ElasticPlan plan;
    std::string error;
    EXPECT_FALSE(ElasticPlan::parse(spec, &plan, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

TEST(Elastic, PlanResolvesInTriggerOrder) {
  ElasticPlan plan;
  std::string error;
  ASSERT_TRUE(ElasticPlan::parse(
      "join:kind=gpu,atfrac=0.5;retire:worker=2147483647,atfrac=0.9;"
      "join:kind=cpu,at=0.05",
      &plan, &error))
      << error;
  plan.resolve_times(1.0);
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_DOUBLE_EQ(plan.events[0].at_vtime, 0.05);
  EXPECT_DOUBLE_EQ(plan.events[1].at_vtime, 0.5);
  EXPECT_DOUBLE_EQ(plan.events[2].at_vtime, 0.9);
  EXPECT_EQ(plan.events[2].worker, 2147483647);
}

TEST(Elastic, MidRunJoinContributesUpdates) {
  TrainingConfig config = small_config();
  config.time_budget_vseconds = 0.02;
  config.elastic_plan = "join:kind=gpu,atfrac=0.25";
  Trainer t(small_dataset(), config);
  TrainingResult r = t.run();
  EXPECT_TRUE(std::isfinite(r.final_loss));
  EXPECT_EQ(r.workers_joined, 1u);
  // Original CPU + GPU plus the joiner all appear in the ledger.
  EXPECT_EQ(r.workers.size(), 3u);
  bool joiner_worked = false;
  for (const auto& w : r.workers) {
    if (w.name.find("joined") != std::string::npos ||
        w.updates > 0) {
      joiner_worked = true;
    }
  }
  EXPECT_TRUE(joiner_worked);
  expect_ledger_invariant(r);
}

TEST(Elastic, MidRunRetireReclaimsAndPreservesLedger) {
  TrainingConfig config = small_config();
  config.time_budget_vseconds = 0.02;
  config.elastic_plan = "retire:worker=1,atfrac=0.3";
  Trainer t(small_dataset(), config);
  TrainingResult r = t.run();
  EXPECT_TRUE(std::isfinite(r.final_loss));
  EXPECT_EQ(r.workers_retired, 1u);
  EXPECT_GT(r.cpu_updates, 0u);  // the survivor finishes the run
  expect_ledger_invariant(r);
}

TEST(Elastic, JoinThenRetireKeepsTraining) {
  TrainingConfig config = small_config();
  config.time_budget_vseconds = 0.03;
  config.elastic_plan =
      "join:kind=gpu,atfrac=0.2;retire:worker=1,atfrac=0.5";
  Trainer t(small_dataset(), config);
  TrainingResult r = t.run();
  EXPECT_TRUE(std::isfinite(r.final_loss));
  EXPECT_EQ(r.workers_joined, 1u);
  EXPECT_EQ(r.workers_retired, 1u);
  expect_ledger_invariant(r);
}

double longest_busy_segment(const TrainingResult& r) {
  double longest = 0.0;
  for (const WorkerSummary& w : r.workers) {
    for (const BusySegment& s : w.segments) {
      longest = std::max(longest, s.t1 - s.t0);
    }
  }
  return longest;
}

// An elastic event fires in the handler of the first report that carries
// the virtual frontier to its trigger T. That report's batch started
// before T, so the event's record, stamped with the frontier, lies in
// [T, T + the batch's busy segment).
void expect_fired_at_frontier(const TrainingResult& r, FaultKind kind,
                              double trigger) {
  const FaultRecord* e = find_record(r, kind);
  ASSERT_NE(e, nullptr) << fault_kind_name(kind);
  EXPECT_GE(e->vtime, trigger) << fault_kind_name(kind);
  EXPECT_LT(e->vtime, trigger + longest_busy_segment(r))
      << fault_kind_name(kind);
}

TEST(Elastic, JoinFiresAtTheVirtualFrontier) {
  TrainingConfig config = small_config();
  config.time_budget_vseconds = 0.02;
  config.elastic_plan = "join:kind=gpu,atfrac=0.25";
  Trainer t(small_dataset(), config);
  const TrainingResult r = t.run();
  EXPECT_EQ(r.workers_joined, 1u);
  expect_fired_at_frontier(r, FaultKind::kWorkerJoin, 0.005);
}

TEST(Elastic, RetireFiresAtTheVirtualFrontier) {
  TrainingConfig config = small_config();
  config.time_budget_vseconds = 0.02;
  config.elastic_plan = "retire:worker=1,atfrac=0.4";
  Trainer t(small_dataset(), config);
  const TrainingResult r = t.run();
  EXPECT_EQ(r.workers_retired, 1u);
  expect_fired_at_frontier(r, FaultKind::kWorkerRetire, 0.008);
}

TEST(Elastic, EventsAtZeroFireBeforeTheFirstDispatch) {
  TrainingConfig config = small_config();
  config.elastic_plan = "retire:worker=1,at=0;join:kind=gpu,at=0";
  Trainer t(small_dataset(), config);
  const TrainingResult r = t.run();
  ASSERT_EQ(r.workers.size(), 3u);
  const FaultRecord* retire = find_record(r, FaultKind::kWorkerRetire);
  const FaultRecord* join = find_record(r, FaultKind::kWorkerJoin);
  ASSERT_NE(retire, nullptr);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(retire->vtime, 0.0);
  EXPECT_EQ(join->vtime, 0.0);
  // The retiree never received a batch, so nothing was reclaimed from it.
  EXPECT_EQ(r.workers[1].updates, 0u);
  EXPECT_EQ(r.workers[1].batches, 0u);
  EXPECT_EQ(r.examples_reclaimed, 0u);
  EXPECT_EQ(find_record(r, FaultKind::kReclaim), nullptr);
  // The joiner took its first batch at the start of the run.
  ASSERT_FALSE(r.workers[2].segments.empty());
  EXPECT_EQ(r.workers[2].segments.front().t0, 0.0);
  EXPECT_GT(r.workers[2].updates, 0u);
  expect_ledger_invariant(r);
}

}  // namespace
}  // namespace hetsgd::core

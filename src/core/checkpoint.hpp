// Full-run checkpointing: everything needed to resume a training run
// after the process dies mid-flight.
//
// A model-only checkpoint (nn::save_model) restarts *a* run; resuming
// *the same* run additionally needs the coordinator's RNG stream (dataset
// permutation), the virtual clocks, the update ledger, and each worker's
// adaptive batch size — ABS-SGD (arXiv:2308.15164) shows adaptive batch
// state must travel with the model for recovery to preserve convergence
// behaviour. Each worker's own progress (clock, busy time, update count)
// is the ledger's copy: workers report it with every batch, and a resumed
// worker continues from the ledger stats it was cut with. The
// TrainingCheckpoint struct is that closure of state; CheckpointManager
// owns a directory of CRC-checked, atomically-written checkpoint files
// plus a human-readable MANIFEST, prunes old files per the retention
// policy, and on resume loads the newest file that validates — a torn or
// corrupt newest file (the crash may have hit mid-rename) falls back to
// the previous one instead of failing the restart.
//
// Checkpoints are cut at epoch barriers, where every worker is idle: the
// model is quiescent, no batch is in flight, and the whole run state is a
// small closed set of scalars. Cutting mid-epoch would require persisting
// in-flight dispatches and the reclaim pool; the barrier makes the format
// simple and the resumed trajectory bit-identical.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/rng.hpp"
#include "core/config.hpp"
#include "core/update_ledger.hpp"
#include "data/dataset.hpp"
#include "msg/message.hpp"
#include "nn/model.hpp"

namespace hetsgd::core {

// Per-worker persisted state: ledger counters (which the resumed worker
// also continues its clock, busy time and update count from) and its
// Algorithm 2 fields. On disk each record ends in a length-prefixed
// blob slot: checkpoints cut before the ledger became the only copy of a
// worker's progress kept a private worker-state blob there; the writer
// now puts a zero length and the reader skips whatever the slot holds.
struct WorkerCheckpoint {
  msg::WorkerId id = 0;
  std::uint8_t kind = 0;  // gpusim::DeviceKind
  WorkerStats stats;
  tensor::Index adaptive_batch = 0;  // stats.current_batch
  // The count Algorithm 2 compared at the cut (core::compared_updates);
  // restore reads stats.updates instead.
  std::uint64_t adaptive_updates = 0;
};

// The complete resumable state of a run, cut at an epoch barrier.
struct TrainingCheckpoint {
  // Guards against resuming under a different config/seed/dataset: the
  // trajectory would silently diverge instead of continuing.
  std::uint64_t fingerprint = 0;
  std::uint64_t seed = 0;
  std::uint64_t sequence = 0;  // manager-assigned, monotone per directory

  nn::Model model;
  // Coordinator RNG at the cut — after epoch_ - 1 dataset shuffles. The
  // resume path replays those shuffles on a fresh generator and verifies
  // it lands on exactly this state (integrity check doubling as a
  // config-mismatch detector).
  RngState rng;

  std::uint64_t epoch = 0;
  double epoch_start_vtime = 0.0;
  double next_eval_vtime = 0.0;
  double next_checkpoint_vtime = 0.0;
  double lr_scale = 1.0;
  std::uint64_t rollbacks = 0;
  std::uint64_t examples_dispatched = 0;
  std::uint64_t examples_reclaimed = 0;
  std::uint64_t late_reports = 0;
  std::uint64_t late_examples = 0;
  std::uint64_t checkpoints_written = 0;
  double last_good_loss = 0.0;

  std::vector<LossPoint> curve;
  std::vector<WorkerCheckpoint> workers;
};

// Hash of everything that shapes the training trajectory: algorithm,
// seed, architecture, learning rate, batch thresholds, worker set,
// dataset shape and sampled content. Deliberately EXCLUDES the time budget and max_epochs (resuming
// with a longer horizon is the point of resuming) and the fault plan
// (the entries a plan already fired are recorded beside the checkpoints,
// keyed to those entries, and a resume does not fire them again; see
// FaultPlan::load_record).
std::uint64_t config_fingerprint(const TrainingConfig& config,
                                 const data::Dataset& dataset);

// Payload (de)serialization, exposed for tests. The envelope (magic,
// version, CRC) is added by nn::write_envelope_file.
void write_training_checkpoint(ByteWriter& w, const TrainingCheckpoint& ckpt);
bool read_training_checkpoint(ByteReader& r, TrainingCheckpoint* ckpt,
                              std::string* error);

// Owns a checkpoint directory: numbered `ckpt-<seq>.hetsgd` files, a
// MANIFEST, and a retention policy. Not internally synchronized — the
// coordinator thread is the only writer after start(), the same
// confinement as the coordinator's own state; load_latest is static and
// runs before any actor starts.
class CheckpointManager {
 public:
  // Creates `dir` if needed and continues sequence numbering after any
  // checkpoints already present (a resumed run keeps appending).
  CheckpointManager(std::string dir, std::int64_t retain);

  const std::string& dir() const { return dir_; }

  // Assigns the next sequence number to `ckpt`, atomically writes the
  // file, rewrites the MANIFEST, and prunes files beyond the retention
  // limit. False + *error on I/O failure (the run continues; checkpoint
  // durability degrades, correctness does not).
  bool save(TrainingCheckpoint& ckpt, std::string* error);

  std::uint64_t saves() const { return saves_; }

  // Loads the newest checkpoint in `dir` that passes envelope + payload
  // validation, falling back to older files when the newest is torn or
  // corrupt. nullopt + *error when nothing usable exists.
  static std::optional<TrainingCheckpoint> load_latest(
      const std::string& dir, std::string* error);

 private:
  void write_manifest();

  std::string dir_;
  std::int64_t retain_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t saves_ = 0;
  // seq -> "epoch E vtime T" summaries of retained checkpoints.
  std::vector<std::pair<std::uint64_t, std::string>> retained_;
};

}  // namespace hetsgd::core

#include "core/checkpoint.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string_view>

#include "common/logging.hpp"
#include "common/macros.hpp"
#include "nn/serialize.hpp"

namespace hetsgd::core {

namespace {

namespace fs = std::filesystem;

constexpr const char* kFilePrefix = "ckpt-";
constexpr const char* kFileSuffix = ".hetsgd";

// Mixes one 64-bit value into a running hash (splitmix64 finalizer).
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  std::uint64_t z = h;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t mix_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return mix(h, bits);
}

// Parses the sequence number out of a "ckpt-<seq>.hetsgd" filename;
// false for anything else in the directory (MANIFEST, temp files, ...).
bool parse_checkpoint_name(const std::string& name, std::uint64_t* seq) {
  const std::string prefix = kFilePrefix;
  const std::string suffix = kFileSuffix;
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  char* end = nullptr;
  const unsigned long long v = std::strtoull(digits.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || end == digits.c_str()) return false;
  *seq = static_cast<std::uint64_t>(v);
  return true;
}

std::string checkpoint_path(const std::string& dir, std::uint64_t seq) {
  return dir + "/" + kFilePrefix + std::to_string(seq) + kFileSuffix;
}

// Sequence numbers of the checkpoint files in `dir`, newest first.
std::vector<std::uint64_t> list_checkpoints(const std::string& dir) {
  std::vector<std::uint64_t> seqs;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::uint64_t seq = 0;
    if (parse_checkpoint_name(entry.path().filename().string(), &seq)) {
      seqs.push_back(seq);
    }
  }
  std::sort(seqs.rbegin(), seqs.rend());
  return seqs;
}

void write_rng_state(ByteWriter& w, const RngState& st) {
  for (std::uint64_t s : st.s) w.write_u64(s);
  w.write_f64(st.cached_normal);
  w.write_u8(st.has_cached_normal ? 1 : 0);
}

bool read_rng_state(ByteReader& r, RngState* st) {
  for (std::uint64_t& s : st->s) {
    if (!r.read_u64(&s)) return false;
  }
  std::uint8_t cached = 0;
  if (!r.read_f64(&st->cached_normal) || !r.read_u8(&cached)) return false;
  st->has_cached_normal = cached != 0;
  return true;
}

}  // namespace

std::uint64_t config_fingerprint(const TrainingConfig& config,
                                 const data::Dataset& dataset) {
  std::uint64_t h = 0x48455453ULL;  // "HETS"
  h = mix(h, static_cast<std::uint64_t>(config.algorithm));
  h = mix(h, config.seed);
  h = mix(h, static_cast<std::uint64_t>(config.mlp.input_dim));
  h = mix(h, static_cast<std::uint64_t>(config.mlp.num_classes));
  h = mix(h, static_cast<std::uint64_t>(config.mlp.hidden_layers));
  h = mix(h, static_cast<std::uint64_t>(config.mlp.hidden_units));
  h = mix(h, static_cast<std::uint64_t>(config.mlp.hidden_activation));
  h = mix(h, static_cast<std::uint64_t>(config.mlp.init));
  h = mix_double(h, config.learning_rate);
  h = mix(h, config.scale_lr_with_batch ? 1 : 0);
  h = mix_double(h, config.max_effective_lr);
  // The retired optimizer and LR-schedule settings at the defaults every
  // checkpoint was cut with (plain SGD, constant rate), so those still match.
  h = mix(h, 0);             // optimizer kind: SGD
  h = mix_double(h, 0.9);    // momentum
  h = mix_double(h, 0.9);    // Adam beta1
  h = mix_double(h, 0.999);  // Adam beta2
  h = mix_double(h, 1e-8);   // Adam epsilon
  h = mix_double(h, 0.0);    // weight decay
  h = mix(h, 0);             // LR schedule: constant
  h = mix_double(h, 0.1);    // schedule decay
  h = mix_double(h, 1.0);    // schedule step_every
  h = mix_double(h, config.eval_interval_vseconds);
  h = mix(h, config.charge_loss_eval_to_gpu ? 1 : 0);
  h = mix_double(h, config.alpha);
  h = mix_double(h, config.beta);
  h = mix_double(h, 0.0);  // retired run-ahead window (0 = none)
  h = mix(h, static_cast<std::uint64_t>(config.cpu.sim_lanes));
  h = mix(h, static_cast<std::uint64_t>(config.cpu.examples_per_thread));
  h = mix(h, static_cast<std::uint64_t>(config.cpu.min_examples_per_thread));
  h = mix(h, static_cast<std::uint64_t>(config.cpu.max_examples_per_thread));
  h = mix(h, static_cast<std::uint64_t>(config.gpu.batch));
  h = mix(h, static_cast<std::uint64_t>(config.gpu.min_batch));
  h = mix(h, static_cast<std::uint64_t>(config.gpu.max_batch));
  h = mix_double(h, config.gpu.host_merge_bandwidth);
  h = mix(h, static_cast<std::uint64_t>(config.gpu.worker_count));
  // The retired --backend name's default, so older checkpoints still match.
  for (const char c : std::string_view("sim")) {
    h = mix(h, static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  h = mix(h, static_cast<std::uint64_t>(dataset.example_count()));
  h = mix(h, static_cast<std::uint64_t>(dataset.dim()));
  h = mix(h, static_cast<std::uint64_t>(dataset.num_classes()));
  // Dataset content, not just shape: a same-shaped but different dataset
  // (another synthetic seed, a re-downloaded file) must refuse to resume.
  // A strided sample of feature values + labels keeps this O(1)-ish while
  // still catching any global regeneration of the data.
  // Values are read as stored (dense or CSR), so the hash does not depend
  // on the storage form.
  const tensor::Index n = dataset.example_count();
  const tensor::Index d = dataset.dim();
  const tensor::Index stride = std::max<tensor::Index>(1, n / 257);
  const tensor::BatchView rows = dataset.features();
  for (tensor::Index r = 0; r < n; r += stride) {
    h = mix_double(h, static_cast<double>(rows.at(r, 0)));
    h = mix_double(h, static_cast<double>(rows.at(r, d - 1)));
    h = mix(h, static_cast<std::uint64_t>(
                   dataset.labels()[static_cast<std::size_t>(r)]));
  }
  return h;
}

void write_training_checkpoint(ByteWriter& w, const TrainingCheckpoint& c) {
  w.write_u64(c.fingerprint);
  w.write_u64(c.seed);
  w.write_u64(c.sequence);
  write_rng_state(w, c.rng);
  w.write_u64(c.epoch);
  w.write_f64(c.epoch_start_vtime);
  w.write_f64(c.next_eval_vtime);
  w.write_f64(c.next_checkpoint_vtime);
  w.write_f64(c.lr_scale);
  w.write_u64(c.rollbacks);
  w.write_u64(c.examples_dispatched);
  w.write_u64(c.examples_reclaimed);
  w.write_u64(c.late_reports);
  w.write_u64(c.late_examples);
  w.write_u64(c.checkpoints_written);
  w.write_f64(c.last_good_loss);
  nn::write_model(w, c.model);

  w.write_u64(static_cast<std::uint64_t>(c.curve.size()));
  for (const LossPoint& p : c.curve) {
    w.write_f64(p.vtime);
    w.write_f64(p.epochs);
    w.write_f64(p.loss);
  }

  w.write_u32(static_cast<std::uint32_t>(c.workers.size()));
  for (const WorkerCheckpoint& wc : c.workers) {
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
    w.write_u64(0);  // the retired worker-state blob slot, empty
  }
}

bool read_training_checkpoint(ByteReader& r, TrainingCheckpoint* c,
                              std::string* error) {
  auto fail = [&](const char* what) {
    if (error != nullptr) *error = what;
    return false;
  };
  if (!r.read_u64(&c->fingerprint) || !r.read_u64(&c->seed) ||
      !r.read_u64(&c->sequence) || !read_rng_state(r, &c->rng) ||
      !r.read_u64(&c->epoch) || !r.read_f64(&c->epoch_start_vtime) ||
      !r.read_f64(&c->next_eval_vtime) ||
      !r.read_f64(&c->next_checkpoint_vtime) || !r.read_f64(&c->lr_scale) ||
      !r.read_u64(&c->rollbacks) || !r.read_u64(&c->examples_dispatched) ||
      !r.read_u64(&c->examples_reclaimed) || !r.read_u64(&c->late_reports) ||
      !r.read_u64(&c->late_examples) ||
      !r.read_u64(&c->checkpoints_written) ||
      !r.read_f64(&c->last_good_loss)) {
    return fail("checkpoint truncated (run header)");
  }
  std::optional<nn::Model> model = nn::read_model(r, error);
  if (!model.has_value()) return false;
  c->model = std::move(*model);

  std::uint64_t curve_size = 0;
  if (!r.read_u64(&curve_size)) return fail("checkpoint truncated (curve)");
  // 24 bytes per point: a corrupt count cannot exceed the payload.
  if (curve_size > r.remaining() / 24) {
    return fail("checkpoint curve count is implausible");
  }
  c->curve.resize(static_cast<std::size_t>(curve_size));
  for (LossPoint& p : c->curve) {
    if (!r.read_f64(&p.vtime) || !r.read_f64(&p.epochs) ||
        !r.read_f64(&p.loss)) {
      return fail("checkpoint truncated (curve)");
    }
  }

  std::uint32_t worker_count = 0;
  if (!r.read_u32(&worker_count) || worker_count > 4096) {
    return fail("checkpoint worker count is implausible");
  }
  c->workers.resize(worker_count);
  for (WorkerCheckpoint& wc : c->workers) {
    std::uint32_t id = 0;
    if (!r.read_u32(&id) || !r.read_u8(&wc.kind) ||
        !r.read_string(&wc.stats.name) || !r.read_u64(&wc.stats.updates) ||
        !r.read_u64(&wc.stats.batches) || !r.read_u64(&wc.stats.examples) ||
        !r.read_f64(&wc.stats.busy_vtime) || !r.read_f64(&wc.stats.clock) ||
        !r.read_i64(&wc.stats.current_batch) ||
        !r.read_f64(&wc.stats.staleness_sum) ||
        !r.read_f64(&wc.stats.max_staleness) ||
        !r.read_i64(&wc.adaptive_batch) || !r.read_u64(&wc.adaptive_updates)) {
      return fail("checkpoint truncated (worker)");
    }
    wc.id = static_cast<msg::WorkerId>(id);
    wc.stats.id = wc.id;
    // Skip the blob slot: older checkpoints kept a copy of the stats'
    // clock, busy time and update count there.
    std::uint64_t blob = 0;
    if (!r.read_u64(&blob) || blob > r.remaining()) {
      return fail("checkpoint truncated (worker state)");
    }
    std::vector<std::uint8_t> skipped(static_cast<std::size_t>(blob));
    if (blob > 0 && !r.read_bytes(skipped.data(), skipped.size())) {
      return fail("checkpoint truncated (worker state)");
    }
  }
  return true;
}

CheckpointManager::CheckpointManager(std::string dir, std::int64_t retain)
    : dir_(std::move(dir)), retain_(std::max<std::int64_t>(retain, 1)) {
  HETSGD_ASSERT(!dir_.empty(), "checkpoint directory must be non-empty");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  const std::vector<std::uint64_t> seqs = list_checkpoints(dir_);
  if (!seqs.empty()) next_seq_ = seqs.front() + 1;
}

bool CheckpointManager::save(TrainingCheckpoint& ckpt, std::string* error) {
  ckpt.sequence = next_seq_;
  ByteWriter w;
  write_training_checkpoint(w, ckpt);
  const std::string path = checkpoint_path(dir_, next_seq_);
  if (!nn::write_envelope_file(path, w.data(), error)) return false;
  retained_.emplace_back(
      next_seq_, "epoch " + std::to_string(ckpt.epoch) + " vtime " +
                     std::to_string(ckpt.epoch_start_vtime));
  ++next_seq_;
  ++saves_;

  // Retention: prune oldest files beyond the limit. Pruning failures are
  // ignored (stale files only cost disk; the manifest stays accurate).
  const std::vector<std::uint64_t> seqs = list_checkpoints(dir_);
  for (std::size_t i = static_cast<std::size_t>(retain_); i < seqs.size();
       ++i) {
    std::error_code ec;
    fs::remove(checkpoint_path(dir_, seqs[i]), ec);
  }
  while (retained_.size() > static_cast<std::size_t>(retain_)) {
    retained_.erase(retained_.begin());
  }
  write_manifest();
  return true;
}

void CheckpointManager::write_manifest() {
  // Metadata only: resume scans the directory and validates CRCs rather
  // than trusting this file, so a stale manifest can never corrupt a run.
  std::string text = "# hetsgd checkpoint manifest\n";
  text += "# columns: seq file summary\n";
  for (const auto& [seq, summary] : retained_) {
    text += std::to_string(seq) + " " + kFilePrefix + std::to_string(seq) +
            kFileSuffix + " " + summary + "\n";
  }
  std::string error;
  if (!atomic_write_file(dir_ + "/MANIFEST", text.data(), text.size(),
                         &error)) {
    HETSGD_LOG_WARN("checkpoint", "manifest write failed: %s", error.c_str());
  }
}

std::optional<TrainingCheckpoint> CheckpointManager::load_latest(
    const std::string& dir, std::string* error) {
  const std::vector<std::uint64_t> seqs = list_checkpoints(dir);
  if (seqs.empty()) {
    if (error != nullptr) *error = "no checkpoints in " + dir;
    return std::nullopt;
  }
  std::string reasons;
  for (std::uint64_t seq : seqs) {
    const std::string path = checkpoint_path(dir, seq);
    std::string why;
    std::vector<std::uint8_t> payload;
    if (nn::read_envelope_file(path, &payload, &why)) {
      ByteReader r(payload);
      TrainingCheckpoint ckpt;
      if (read_training_checkpoint(r, &ckpt, &why)) {
        return ckpt;
      }
    }
    // Fall back to the previous checkpoint: the newest file may be the
    // one the crash tore.
    HETSGD_LOG_WARN("checkpoint", "rejecting %s: %s", path.c_str(),
                    why.c_str());
    if (!reasons.empty()) reasons += "; ";
    reasons += path + ": " + why;
  }
  if (error != nullptr) *error = "no usable checkpoint (" + reasons + ")";
  return std::nullopt;
}

}  // namespace hetsgd::core

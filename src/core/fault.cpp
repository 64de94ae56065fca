#include "core/fault.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>

#include "common/atomic_file.hpp"
#include "common/cli.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"

namespace hetsgd::core {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kStall:              return "stall";
    case FaultKind::kDeath:              return "death";
    case FaultKind::kTransferFailure:    return "transfer-failure";
    case FaultKind::kGradientCorruption: return "gradient-corruption";
    case FaultKind::kCrash:              return "crash";
    case FaultKind::kDeadlineMiss:       return "deadline-miss";
    case FaultKind::kSendFailure:        return "send-failure";
    case FaultKind::kWorkerFault:        return "worker-fault";
    case FaultKind::kQuarantine:         return "quarantine";
    case FaultKind::kReclaim:            return "reclaim";
    case FaultKind::kRedispatch:         return "redispatch";
    case FaultKind::kDivergenceRollback: return "divergence-rollback";
    case FaultKind::kDivergenceAbort:    return "divergence-abort";
    case FaultKind::kWorkerJoin:         return "worker-join";
    case FaultKind::kWorkerRetire:       return "worker-retire";
  }
  return "?";
}

namespace {

bool parse_kind(const std::string& name, FaultKind& out) {
  if (name == "stall")    { out = FaultKind::kStall; return true; }
  if (name == "die")      { out = FaultKind::kDeath; return true; }
  if (name == "transfer") { out = FaultKind::kTransferFailure; return true; }
  if (name == "nan")      { out = FaultKind::kGradientCorruption; return true; }
  if (name == "crash")    { out = FaultKind::kCrash; return true; }
  return false;
}

constexpr std::int64_t kMaxWorkerId =
    std::numeric_limits<msg::WorkerId>::max();
constexpr std::int64_t kMaxInt = std::numeric_limits<std::int64_t>::max();

// The fired-entry record's file name inside the checkpoint directory.
constexpr const char* kRecordFile = "/FAULTS";
constexpr const char* kRecordHeader = "# hetsgd fault-plan entries fired\n";

}  // namespace

bool FaultPlan::parse(const std::string& spec, std::uint64_t seed,
                      FaultPlan* out, std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  MutexLock lock(out->mutex_);
  out->events_.clear();
  out->fired_.clear();
  out->seed_ = seed;
  std::vector<SpecEvent> items;
  if (!tokenize_spec(spec, "fault", &items, error)) return false;
  for (const SpecEvent& item : items) {
    FaultEvent ev;
    if (!parse_kind(item.kind, ev.kind)) {
      return fail("unknown fault kind '" + item.kind +
                  "' (stall|die|transfer|nan|crash)");
    }
    bool have_worker = false;
    for (const auto& [key, value] : item.params) {
      const std::string kv = key + "=" + value;
      std::int64_t iv = 0;
      double dv = 0.0;
      if (key == "worker") {
        if (parse_int(value, 0, kMaxWorkerId, &iv) != nullptr) {
          return fail("bad worker id — " + kv);
        }
        ev.worker = static_cast<msg::WorkerId>(iv);
        have_worker = true;
      } else if (key == "at") {
        if (parse_finite(value, &dv) != nullptr || dv < 0.0) {
          return fail("bad trigger time — " + kv);
        }
        ev.at_vtime = dv;
      } else if (key == "atfrac") {
        if (parse_finite(value, &dv) != nullptr || dv < 0.0) {
          return fail("bad trigger fraction — " + kv);
        }
        ev.at_fraction = dv;
      } else if (key == "factor") {
        if (parse_finite(value, &dv) != nullptr || dv <= 0.0) {
          return fail("bad stall factor — " + kv);
        }
        ev.factor = dv;
      } else if (key == "sleep") {
        if (parse_int(value, 0, kMaxInt, &iv) != nullptr) {
          return fail("bad sleep ms — " + kv);
        }
        ev.sleep_ms = iv;
      } else if (key == "count") {
        if (parse_int(value, 1, kMaxInt, &iv) != nullptr) {
          return fail("bad failure count — " + kv);
        }
        ev.count = iv;
      } else {
        return fail("unknown fault parameter '" + key + "'");
      }
    }
    if (!have_worker) {
      return fail("fault event missing worker= — " + item.text);
    }
    out->events_.push_back(ev);
  }
  return true;
}

void FaultPlan::resolve_times(double budget_vseconds) {
  MutexLock lock(mutex_);
  Rng rng(seed_ ^ 0xfa5717);
  for (FaultEvent& ev : events_) {
    if (ev.at_vtime >= 0.0) continue;
    const double frac =
        ev.at_fraction >= 0.0 ? ev.at_fraction : rng.uniform(0.0, 1.0);
    ev.at_vtime = frac * budget_vseconds;
  }
}

bool FaultPlan::empty() const {
  MutexLock lock(mutex_);
  return events_.empty();
}

bool FaultPlan::contains(FaultKind kind) const {
  MutexLock lock(mutex_);
  for (const FaultEvent& e : events_) {
    if (e.kind == kind) return true;
  }
  return false;
}

FaultPlan::StallState FaultPlan::stall(msg::WorkerId w, double vtime) {
  MutexLock lock(mutex_);
  StallState state;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& ev = events_[i];
    if (ev.kind != FaultKind::kStall || ev.worker != w) continue;
    if (ev.at_vtime < 0.0 || vtime < ev.at_vtime) continue;
    if (!ev.fired) fire(i, w, vtime, "factor=" + std::to_string(ev.factor));
    state.factor *= ev.factor;
    state.sleep_ms += ev.sleep_ms;
  }
  return state;
}

bool FaultPlan::consume(FaultKind kind, msg::WorkerId w, double vtime,
                        FaultEvent* out) {
  MutexLock lock(mutex_);
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& ev = events_[i];
    if (ev.kind != kind || ev.worker != w || ev.fired) continue;
    if (ev.at_vtime < 0.0 || vtime < ev.at_vtime) continue;
    fire(i, w, vtime, "");
    if (out != nullptr) *out = ev;
    return true;
  }
  return false;
}

void FaultPlan::fire(std::size_t i, msg::WorkerId w, double vtime,
                     std::string detail) {
  FaultEvent& ev = events_[i];
  ev.fired = true;
  fired_.push_back({vtime, w, ev.kind, 0, std::move(detail)});
  if (record_path_.empty()) return;
  recorded_.push_back(key(i));
  write_record();
}

std::string FaultPlan::key(std::size_t i) const {
  const FaultEvent& ev = events_[i];
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "%zu %s worker=%d at=%.17g factor=%.17g sleep=%lld count=%lld",
                i, fault_kind_name(ev.kind), ev.worker, ev.at_vtime, ev.factor,
                static_cast<long long>(ev.sleep_ms),
                static_cast<long long>(ev.count));
  return buf;
}

void FaultPlan::write_record() {
  std::string text = kRecordHeader;
  for (const std::string& k : recorded_) text += k + "\n";
  std::string error;
  if (!atomic_write_file(record_path_, text.data(), text.size(), &error)) {
    // Like a failed checkpoint save: the run goes on, and a resume may
    // fire this entry again.
    HETSGD_LOG_WARN("fault", "fault record write failed: %s", error.c_str());
  }
}

void FaultPlan::load_record(const std::string& dir) {
  std::ifstream in(dir + kRecordFile);  // a missing record reads as empty
  MutexLock lock(mutex_);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line.front() != '#') recorded_.push_back(line);
  }
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (std::find(recorded_.begin(), recorded_.end(), key(i)) !=
        recorded_.end()) {
      events_[i].fired = true;
    }
  }
}

void FaultPlan::record_in(const std::string& dir) {
  MutexLock lock(mutex_);
  record_path_ = dir + kRecordFile;
  write_record();
}

bool FaultPlan::death_due(msg::WorkerId w, double vtime) {
  return consume(FaultKind::kDeath, w, vtime, nullptr);
}

bool FaultPlan::corruption_due(msg::WorkerId w, double vtime) {
  return consume(FaultKind::kGradientCorruption, w, vtime, nullptr);
}

bool FaultPlan::crash_due(msg::WorkerId w, double vtime) {
  return consume(FaultKind::kCrash, w, vtime, nullptr);
}

std::int64_t FaultPlan::transfer_failures_due(msg::WorkerId w, double vtime) {
  FaultEvent ev;
  if (!consume(FaultKind::kTransferFailure, w, vtime, &ev)) return 0;
  return ev.count;
}

std::vector<FaultRecord> FaultPlan::fired() const {
  MutexLock lock(mutex_);
  return fired_;
}

void register_fault_flags(CliParser& cli, FaultToleranceConfig* fault) {
  cli.add_string("fault-plan", &fault->plan,
                 "fault injections, e.g. 'die:worker=1,atfrac=0.3;"
                 "stall:worker=0,atfrac=0.2,factor=8'");
  cli.add_double("fault-deadline-factor", &fault->deadline_factor,
                 "dispatch deadline = k * estimated cost (0 = off)");
  cli.add_int("fault-quarantine-after", &fault->quarantine_after,
              "faults before a worker is quarantined");
  cli.add_int("fault-max-retries", &fault->max_transfer_retries,
              "transfer retries before a worker escalates");
  cli.add_int("fault-grace-ticks", &fault->stall_grace_ticks,
              "idle ticks (~20ms) before real-time stall fallback");
  cli.add_flag("fault-abort", &fault->abort_on_divergence,
               "abort instead of rolling back on non-finite loss");
  cli.add_double("fault-lr-backoff", &fault->lr_backoff,
                 "learning-rate multiplier applied on each rollback");
  cli.add_double("checkpoint-interval", &fault->checkpoint_interval_vseconds,
                 "full-checkpoint cadence under --checkpoint-dir in virtual "
                 "seconds (0 = every epoch flip)");
  cli.add_string("checkpoint-dir", &fault->checkpoint_dir,
                 "directory for full crash-consistent checkpoints "
                 "(model+RNG+ledger+worker clocks; empty = off)");
  cli.add_int("checkpoint-retain", &fault->checkpoint_retain,
              "checkpoint files kept in --checkpoint-dir (oldest pruned)");
  cli.add_string("resume", &fault->resume_dir,
                 "resume from the newest valid checkpoint in this directory");
}

}  // namespace hetsgd::core

#include "core/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hpp"
#include "common/macros.hpp"
#include "core/cost_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hetsgd::core {

using tensor::Index;

namespace {

// Hot-path metric handles, resolved once (registration takes the
// registry mutex; the handles themselves are lock-free).
struct SchedulerMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  obs::Counter& dispatches = reg.counter("hetsgd_dispatches_total");
  obs::Counter& examples = reg.counter("hetsgd_examples_dispatched_total");
  obs::Counter& reclaims = reg.counter("hetsgd_reclaims_total");
  obs::Counter& redispatches = reg.counter("hetsgd_redispatches_total");
  obs::Counter& quarantines = reg.counter("hetsgd_quarantines_total");
  obs::Counter& late_reports = reg.counter("hetsgd_late_reports_total");
  obs::Counter& epoch_flips = reg.counter("hetsgd_epoch_flips_total");
  obs::Counter& resizes = reg.counter("hetsgd_batch_resizes_total");
  obs::Histogram& batch_cost = reg.histogram("hetsgd_batch_cost_vseconds");
};

SchedulerMetrics& metrics() {
  // hetsgd-lint: allow(naked-new) leaked singleton: metric refs must
  // outlive static destruction of every instrumented thread
  static SchedulerMetrics* m = new SchedulerMetrics();
  return *m;
}

// A worker's batch thresholds, from the config and its device kind.
BatchLimits worker_limits(const TrainingConfig& config,
                          gpusim::DeviceKind kind) {
  BatchLimits limits;
  if (kind == gpusim::DeviceKind::kCpu) {
    const Index lanes = config.cpu.sim_lanes;
    limits.quantum = lanes;
    limits.min = lanes * config.cpu.min_examples_per_thread;
    limits.max = lanes * config.cpu.max_examples_per_thread;
    // "The CPU worker starts with a batch size of 1 example per thread —
    // it performs Hogwild" (§VII-A).
    limits.initial = lanes * config.cpu.examples_per_thread;
    return limits;
  }
  limits.quantum = 1;
  limits.min = config.gpu.min_batch;
  limits.max = config.gpu.max_batch;
  // "The initial batch size is set to the upper threshold on the GPU
  // workers" (§VII-A) — for the static algorithms, gpu.batch applies.
  limits.initial = config.algorithm == Algorithm::kAdaptiveHogbatch
                       ? config.gpu.max_batch
                       : std::clamp(config.gpu.batch, config.gpu.min_batch,
                                    config.gpu.max_batch);
  return limits;
}

}  // namespace

Index clamp_batch(Index b, const BatchLimits& limits) {
  const Index q = limits.quantum;
  Index rounded = (b + q / 2) / q * q;
  if (rounded < q) rounded = q;
  return std::clamp(rounded, limits.min, limits.max);
}

std::uint64_t compared_updates(const WorkerStats& stats,
                               const WorkerSchedule& schedule, double beta) {
  if (stats.kind != gpusim::DeviceKind::kCpu) {
    return schedule.credit + stats.updates;
  }
  return schedule.credit +
         static_cast<std::uint64_t>(
             std::floor(beta * static_cast<double>(stats.updates)));
}

Resize adaptive_batch(const std::vector<WorkerStats>& stats,
                      const std::vector<WorkerSchedule>& schedule,
                      msg::WorkerId e, double alpha, double beta) {
  HETSGD_ASSERT(stats.size() == schedule.size() && e >= 0 &&
                    static_cast<std::size_t>(e) < stats.size(),
                "unknown worker");
  const auto self = static_cast<std::size_t>(e);
  const WorkerSchedule& w = schedule[self];
  const Index b = stats[self].current_batch;
  if (w.retired) return {b, false};

  // min_u / max_u over the other (non-retired) workers' compared counts.
  std::uint64_t min_u = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_u = 0;
  bool any_other = false;
  for (std::size_t i = 0; i < stats.size(); ++i) {
    if (i == self || schedule[i].retired) continue;
    const std::uint64_t u = compared_updates(stats[i], schedule[i], beta);
    min_u = std::min(min_u, u);
    max_u = std::max(max_u, u);
    any_other = true;
  }
  if (!any_other) return {b, false};  // nothing to balance against

  const std::uint64_t u_e = compared_updates(stats[self], w, beta);
  if (u_e < min_u) {
    // Slowest worker: shrink the batch to produce updates faster.
    const auto shrunk =
        static_cast<Index>(std::floor(static_cast<double>(b) / alpha));
    return {clamp_batch(std::max(shrunk, w.limits.min), w.limits),
            shrunk < w.limits.min};
  }
  if (u_e > max_u) {
    // Fastest worker: grow the batch to slow its update rate.
    const auto grown =
        static_cast<Index>(std::ceil(static_cast<double>(b) * alpha));
    return {clamp_batch(std::min(grown, w.limits.max), w.limits),
            grown > w.limits.max};
  }
  return {b, false};
}

Scheduler::Scheduler(const TrainingConfig& config, Index examples)
    : config_(config), examples_(examples),
      adaptive_(config.algorithm == Algorithm::kAdaptiveHogbatch),
      cpu_perf_(config.cpu.spec), gpu_perf_(config.gpu.spec) {
  HETSGD_ASSERT(config.alpha > 1.0, "alpha must exceed 1 (default 2)");
}

msg::WorkerId Scheduler::add_worker(std::string name, gpusim::DeviceKind kind,
                                    bool joining) {
  WorkerSchedule w;
  w.limits = worker_limits(config_, kind);
  if (joining) {
    // Cost-match the newcomer's first dispatch to its peers' batches.
    w.limits.initial = seed_batch(kind, w.limits);
    bool have_credit = false;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const WorkerSchedule& peer = workers_[i];
      if (peer.failed || peer.quarantined || peer.retired) continue;
      const std::uint64_t u =
          compared_updates(ledger_.all()[i], peer, config_.beta);
      if (!have_credit || u < w.credit) {
        w.credit = u;
        have_credit = true;
      }
    }
  }
  const BatchLimits& limits = w.limits;
  HETSGD_ASSERT(limits.quantum >= 1, "quantum must be positive");
  HETSGD_ASSERT(limits.min >= limits.quantum, "min batch below quantum");
  HETSGD_ASSERT(limits.min <= limits.max, "min batch exceeds max");
  HETSGD_ASSERT(limits.initial >= limits.min && limits.initial <= limits.max,
                "initial batch outside thresholds");
  w.waiting = true;  // every worker starts idle and ready for work
  const auto id = static_cast<msg::WorkerId>(workers_.size());
  workers_.push_back(w);
  ledger_.register_worker(id, std::move(name), kind,
                          clamp_batch(limits.initial, limits));
  monitor_.add_worker();
  if (joining) {
    ledger_.record_fault({ledger_.max_clock(), id, FaultKind::kWorkerJoin, 0,
                          "worker joined (batch seeded from cost model)"});
  }
  return id;
}

double Scheduler::epochs_completed() const {
  return static_cast<double>(ledger_.total_examples()) /
         static_cast<double>(examples_);
}

void Scheduler::on_report(const msg::ScheduleWork& report) {
  const msg::WorkerId id = report.worker;
  HETSGD_ASSERT(id >= 0 && static_cast<std::size_t>(id) < workers_.size(),
                "report from unknown worker");
  WorkerSchedule& w = workers_[static_cast<std::size_t>(id)];
  const bool late =
      report.examples > 0 && report.sequence <= w.reclaimed_through;

  if (report.examples > 0) {
    // Busy segment: [clock_after - batch_busy, clock_after].
    const double prev_busy = ledger_.stats(id).busy_vtime;
    const double seg_len = report.busy_vtime - prev_busy;
    HETSGD_ASSERT(seg_len >= 0.0, "busy time went backwards");
    monitor_.record(id, report.clock_vtime - seg_len, report.clock_vtime,
                    std::clamp(report.intensity, 0.0, 1.0));
  }
  // A late report's range was reclaimed and re-dispatched: its Hogwild
  // updates really happened, but its examples must not count twice.
  ledger_.on_report(report, late);
  if (late) {
    ++late_reports_;
    late_examples_ += report.examples;
    metrics().late_reports.inc();
    HETSGD_LOG_WARN("coordinator",
                    "late report from worker %d (seq %llu <= reclaimed %llu)",
                    id, static_cast<unsigned long long>(report.sequence),
                    static_cast<unsigned long long>(w.reclaimed_through));
  } else if (report.examples > 0) {
    // Straggler detection: the worker's own completion clock is the only
    // sound virtual-time signal. Judging a dispatch by how far *other*
    // workers' clocks ran past its deadline misfires under heterogeneous
    // batch costs (a GPU report can legally leapfrog a tiny Hogwild
    // batch's deadline by a whole clock window), so lateness is only ever
    // charged against the straggler's own report.
    const bool straggler = deadlines_enabled() && w.inflight_size > 0 &&
                           report.clock_vtime > w.deadline_vtime;
    w.inflight_size = 0;  // the in-flight dispatch completed
    if (straggler) {
      ledger_.record_fault({report.clock_vtime, id, FaultKind::kDeadlineMiss,
                            0, "straggler: batch finished past deadline"});
      HETSGD_LOG_WARN("coordinator",
                      "worker %d finished past its deadline (%.6f > %.6f)",
                      id, report.clock_vtime, w.deadline_vtime);
      note_fault(id, report.clock_vtime);
    } else {
      w.fault_count = 0;  // an on-time report proves health
    }
  }
  w.busy = false;
  w.waiting = !w.failed && !w.retired;  // a live worker is asking for more
  if (!adaptive_) return;

  // Algorithm 2's decision, traced at the report's virtual time.
  const Index before = ledger_.stats(id).current_batch;
  const Resize r =
      adaptive_batch(ledger_.all(), workers_, id, config_.alpha, config_.beta);
  const std::uint64_t flow =
      report.examples > 0 ? obs::batch_flow_id(id, report.sequence) : 0;
  if (r.batch != before) {
    metrics().resizes.inc();
    HETSGD_TRACE_INSTANT("coordinator",
                         r.batch > before ? "batch_grow" : "batch_shrink",
                         report.clock_vtime, flow);
  }
  if (r.clamped) {
    HETSGD_TRACE_INSTANT("coordinator", "batch_clamped", report.clock_vtime,
                         flow);
  }
  ledger_.set_current_batch(id, r.batch);
}

void Scheduler::on_worker_fault(const msg::WorkerFault& fault) {
  const msg::WorkerId id = fault.worker;
  HETSGD_ASSERT(id >= 0 && static_cast<std::size_t>(id) < workers_.size(),
                "fault from unknown worker");
  WorkerSchedule& w = workers_[static_cast<std::size_t>(id)];
  HETSGD_LOG_WARN("coordinator", "worker %d reported fault: %s", id,
                  fault.detail.c_str());
  ledger_.record_fault(
      {fault.vtime, id, FaultKind::kWorkerFault, 0, fault.detail});

  // The worker's actor loop exits after escalating: treat it as dead.
  reclaim_inflight(id, fault.vtime, fault.detail);
  w.failed = true;
  w.waiting = false;
  if (!w.quarantined) {
    w.quarantined = true;
    ledger_.record_fault(
        {fault.vtime, id, FaultKind::kQuarantine, 0, "fatal worker fault"});
  }
}

bool Scheduler::retire(msg::WorkerId id, double vtime) {
  if (id < 0 || static_cast<std::size_t>(id) >= workers_.size() ||
      workers_[static_cast<std::size_t>(id)].retired) {
    return false;
  }
  WorkerSchedule& w = workers_[static_cast<std::size_t>(id)];
  w.retired = true;
  // Its in-flight batch (if any) goes back to the pool for the survivors;
  // the ledger invariant dispatched == reported + reclaimed is preserved,
  // and a report it sends for the reclaimed range folds in as late.
  reclaim_inflight(id, vtime, "worker retired");
  w.waiting = false;
  ledger_.record_fault({vtime, id, FaultKind::kWorkerRetire, 0,
                        "worker retired from membership"});
  return true;
}

bool Scheduler::reclaim_overdue(bool extended) {
  // Silence alone doesn't condemn anyone — a healthy worker may simply be
  // grinding through a big batch — so a worker loses its dispatch only
  // when it is ALSO virtually overdue: the frontier passed its deadline
  // and it still hasn't reported.
  const double frontier = ledger_.max_clock();
  const auto lose = [&](std::size_t i, const char* silent, const char* detail,
                        const char* why) {
    const auto id = static_cast<msg::WorkerId>(i);
    HETSGD_LOG_WARN("coordinator", "worker %d silent past %s; reclaiming "
                    "dispatch", id, silent);
    ledger_.record_fault({frontier, id, FaultKind::kDeadlineMiss, 0, detail});
    reclaim_inflight(id, frontier, why);
    note_fault(id, frontier);
  };
  bool reclaimed = false;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (!workers_[i].busy || frontier <= workers_[i].deadline_vtime) continue;
    lose(i, "grace window and overdue",
         "silent past grace window, virtually overdue", "grace window expired");
    reclaimed = true;
  }
  if (reclaimed || !extended) return reclaimed;

  // Frozen frontier: nobody reads as overdue because every busy worker is
  // lost and the clocks cannot advance (the gater is itself dead). After
  // an extended window, force the oldest outstanding deadline lost.
  std::size_t victim = workers_.size();
  double earliest = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i].busy && workers_[i].deadline_vtime < earliest) {
      earliest = workers_[i].deadline_vtime;
      victim = i;
    }
  }
  if (victim == workers_.size()) return false;
  lose(victim, "extended grace window",
       "extended real-time grace window expired",
       "extended grace window expired");
  return true;
}

void Scheduler::reclaim_all() {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i].busy) {
      reclaim_inflight(static_cast<msg::WorkerId>(i), ledger_.max_clock(),
                       "run shutting down");
    }
  }
}

double Scheduler::estimate_cost(gpusim::DeviceKind kind, Index batch) const {
  if (kind == gpusim::DeviceKind::kCpu) {
    const HogwildSplit split = hogwild_split(batch, config_.cpu.sim_lanes);
    return cpu_batch_seconds(cpu_perf_, config_.mlp, split.sub_batch,
                             static_cast<int>(split.count));
  }
  return gpu_batch_seconds(gpu_perf_, config_.mlp, batch,
                           config_.gpu.host_merge_bandwidth);
}

void Scheduler::reclaim_inflight(msg::WorkerId id, double vtime,
                                 const std::string& why) {
  WorkerSchedule& w = workers_[static_cast<std::size_t>(id)];
  if (w.inflight_size <= 0) return;
  const Index begin = w.inflight_begin;
  const Index size = w.inflight_size;
  reclaim_pool_.push_back({begin, size});
  examples_reclaimed_ += static_cast<std::uint64_t>(size);
  metrics().reclaims.inc();
  HETSGD_TRACE_INSTANT("coordinator", "reclaim", vtime,
                       obs::batch_flow_id(id, w.dispatch_seq));
  w.reclaimed_through = w.dispatch_seq;
  w.inflight_size = 0;
  w.busy = false;
  ledger_.record_fault({vtime, id, FaultKind::kReclaim,
                        static_cast<std::uint64_t>(size), why});
  HETSGD_LOG_WARN("coordinator",
                  "reclaimed [%lld, +%lld) from worker %d (%s)",
                  static_cast<long long>(begin), static_cast<long long>(size),
                  id, why.c_str());
}

void Scheduler::note_fault(msg::WorkerId id, double vtime) {
  WorkerSchedule& w = workers_[static_cast<std::size_t>(id)];
  ++w.fault_count;
  if (!w.quarantined && !w.failed &&
      w.fault_count >=
          std::max<std::int64_t>(1, config_.fault.quarantine_after)) {
    w.quarantined = true;
    w.waiting = false;
    metrics().quarantines.inc();
    HETSGD_TRACE_INSTANT("coordinator", "quarantine", vtime);
    ledger_.record_fault({vtime, id, FaultKind::kQuarantine, 0,
                          "repeated deadline misses"});
    HETSGD_LOG_WARN("coordinator", "worker %d quarantined after %lld faults",
                    id, static_cast<long long>(w.fault_count));
  }
}

bool Scheduler::dispatch(const Send& send, bool* anyone_active) {
  // Retire workers that reached the time budget first: a stale
  // not-yet-finished flag would otherwise hold the epoch barrier open for
  // a worker that will never take another batch.
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    WorkerSchedule& w = workers_[i];
    if (w.failed || w.quarantined) continue;
    if (!w.finished && !w.busy &&
        ledger_.all()[i].clock >= config_.time_budget_vseconds) {
      w.finished = true;
      w.waiting = false;
    }
  }

  bool progressed = true;
  while (progressed) {
    progressed = false;
    if (barrier(anyone_active)) return true;

    // Earliest estimated completion among busy workers: the virtual
    // frontier idle workers may not overtake.
    double frontier = std::numeric_limits<double>::max();
    for (const auto& w : workers_) {
      if (w.busy) frontier = std::min(frontier, w.est_completion);
    }

    // Candidates: idle, unserved, unfinished, healthy — in clock order.
    std::vector<msg::WorkerId> idle;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const WorkerSchedule& w = workers_[i];
      if (!w.waiting || w.busy || !schedulable(w)) continue;
      idle.push_back(static_cast<msg::WorkerId>(i));
    }
    std::sort(idle.begin(), idle.end(), [&](msg::WorkerId a, msg::WorkerId b) {
      return ledger_.stats(a).clock < ledger_.stats(b).clock;
    });

    for (msg::WorkerId id : idle) {
      const WorkerSchedule& w = workers_[static_cast<std::size_t>(id)];
      if (ledger_.stats(id).clock > frontier) {
        continue;  // would run ahead of the frontier
      }

      if (!reclaim_pool_.empty()) {
        // Reclaimed ranges first: they are this epoch's lost work and must
        // finish before the barrier can flip. Partial pieces are fine —
        // this is tail recovery, not steady-state batching.
        auto [r_begin, r_size] = reclaim_pool_.back();
        reclaim_pool_.pop_back();
        const Index piece = std::min<Index>(r_size, batch_for(id));
        if (piece < r_size) {
          reclaim_pool_.push_back({r_begin + piece, r_size - piece});
        }
        dispatch_range(id, r_begin, piece, /*reclaimed=*/true, send);
      } else {
        // Dispatch rule. Algorithm 2 (Adaptive) serves a worker only if a
        // *full* batch remains ("if b^E <= |B| then extract batch"), so
        // small-batch workers sweep the epoch tail — the mechanism that
        // balances the update distribution (Fig. 8). Algorithm 1 (the
        // static variants) hands out whatever remains ("if B != 0 extract
        // next batch"), so the tail goes to the next requester as one
        // partial batch instead of stalling the epoch behind a slow
        // 56-example sweep.
        const Index remaining = examples_ - cursor_;
        if (adaptive_ ? batch_for(id) > remaining : remaining <= 0) continue;
        const Index batch = std::min<Index>(batch_for(id), remaining);
        dispatch_range(id, cursor_, batch, /*reclaimed=*/false, send);
        cursor_ += batch;
      }
      // The newly busy worker tightens the frontier for later candidates;
      // a failed send left it idle.
      if (w.busy) frontier = std::min(frontier, w.est_completion);
      progressed = true;
    }
  }

  // The last pass sent nothing, so what held the barrier, always an active
  // worker, still holds it: every run ends at an epoch flip.
  return false;
}

Index Scheduler::batch_for(msg::WorkerId id) const {
  // A configured batch larger than the dataset degrades to one full pass.
  return std::min<Index>(ledger_.stats(id).current_batch, examples_);
}

void Scheduler::dispatch_range(msg::WorkerId id, Index begin, Index size,
                               bool reclaimed, const Send& send) {
  WorkerSchedule& w = workers_[static_cast<std::size_t>(id)];
  HETSGD_ASSERT(size > 0, "dispatch with empty range");

  msg::ExecuteWork work;
  work.batch_begin = static_cast<std::uint64_t>(begin);
  work.batch_size = static_cast<std::uint64_t>(size);
  work.not_before = epoch_start_vtime_;
  work.sequence = ++w.dispatch_seq;

  const double start = std::max(ledger_.stats(id).clock, epoch_start_vtime_);
  const double cost = estimate_cost(ledger_.stats(id).kind, size);
  w.est_completion = start + cost;
  w.deadline_vtime = deadlines_enabled()
                         ? start + config_.fault.deadline_factor * cost
                         : std::numeric_limits<double>::max();
  w.inflight_begin = begin;
  w.inflight_size = size;
  w.busy = true;
  w.waiting = false;
  examples_dispatched_ += static_cast<std::uint64_t>(size);
  metrics().dispatches.inc();
  metrics().examples.inc(static_cast<std::uint64_t>(size));
  metrics().batch_cost.observe(cost);
  // Flow start: the batch's journey across threads begins here; workers
  // derive the same id from (worker, sequence) to continue it.
  obs::trace_flow_begin("batch", obs::batch_flow_id(id, work.sequence),
                        start);
  HETSGD_TRACE_INSTANT("coordinator",
                       reclaimed ? "redispatch" : "dispatch", start,
                       obs::batch_flow_id(id, work.sequence));
  if (reclaimed) {
    metrics().redispatches.inc();
    ledger_.record_fault({start, id, FaultKind::kRedispatch,
                          static_cast<std::uint64_t>(size),
                          "reclaimed range re-dispatched"});
  }

  if (!send(id, work)) {
    // Dead mailbox: the worker exited without telling us. Take the batch
    // straight back and drop the worker from the healthy set.
    ledger_.record_fault({start, id, FaultKind::kSendFailure, 0,
                          "dispatch send failed: mailbox closed"});
    HETSGD_LOG_WARN("coordinator", "dispatch to worker %d failed; dropping it",
                    id);
    reclaim_inflight(id, start, "dispatch send failed");
    w.failed = true;
    w.waiting = false;
    if (!w.quarantined) {
      w.quarantined = true;
      ledger_.record_fault(
          {start, id, FaultKind::kQuarantine, 0, "mailbox closed"});
    }
  }
}

bool Scheduler::barrier(bool* anyone_active) {
  // The epoch ends when no unfinished worker's full batch fits into the
  // remainder (Algorithm 1: "when there are no more batches and all the
  // workers are done") and every in-flight batch has completed. Any
  // leftover examples smaller than the smallest batch rejoin the pool at
  // the reshuffle. Reclaimed ranges hold the barrier open while a healthy
  // worker remains to re-run them.
  const Index remaining = examples_ - cursor_;
  *anyone_active = false;
  bool anyone_schedulable = false;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const WorkerSchedule& w = workers_[i];
    if (!schedulable(w) || suspended(w)) continue;
    anyone_schedulable = true;
    if (w.waiting || w.busy) *anyone_active = true;
    // Algorithm 2: the epoch lasts while anyone's full batch fits;
    // Algorithm 1: while any example remains.
    const Index needed =
        adaptive_ ? batch_for(static_cast<msg::WorkerId>(i)) : Index{1};
    if (needed <= remaining) {
      return false;  // someone can still take a batch this epoch
    }
  }
  if (!reclaim_pool_.empty() && anyone_schedulable) {
    return false;  // lost ranges must be re-dispatched before the flip
  }
  if (any_busy()) return false;  // wait for in-flight batches

  if (!reclaim_pool_.empty()) {
    // No healthy worker is left to re-run the lost ranges; they stay
    // accounted as reclaimed and are dropped with the old permutation.
    HETSGD_LOG_WARN("coordinator",
                    "dropping %zu unreclaimable range(s) at epoch flip",
                    reclaim_pool_.size());
    reclaim_pool_.clear();
  }
  ++epoch_;
  metrics().epoch_flips.inc();
  HETSGD_TRACE_INSTANT("coordinator", "epoch_flip", ledger_.max_clock());
  return true;
}

void Scheduler::begin_epoch(double boundary) {
  if (config_.charge_loss_eval_to_gpu) {
    // A forward pass over the dataset on every GPU worker.
    const double eval_cost = nn::training_flops(config_.mlp, examples_) /
                             3.0 /
                             (gpu_perf_.spec().peak_flops *
                              gpu_perf_.spec().max_efficiency);
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      if (ledger_.all()[i].kind == gpusim::DeviceKind::kGpu) {
        monitor_.record(static_cast<msg::WorkerId>(i), boundary,
                        boundary + eval_cost, 1.0);
      }
    }
    boundary += eval_cost;
  }
  epoch_start_vtime_ = boundary;
  cursor_ = 0;
}

void Scheduler::checkpoint(TrainingCheckpoint* ckpt) const {
  ckpt->epoch = epoch_;
  ckpt->epoch_start_vtime = epoch_start_vtime_;
  ckpt->examples_dispatched = examples_dispatched_;
  ckpt->examples_reclaimed = examples_reclaimed_;
  ckpt->late_reports = late_reports_;
  ckpt->late_examples = late_examples_;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const WorkerStats& stats = ledger_.all()[i];
    WorkerCheckpoint wc;
    wc.id = stats.id;
    wc.kind = static_cast<std::uint8_t>(stats.kind);
    wc.stats = stats;
    wc.adaptive_batch = stats.current_batch;
    wc.adaptive_updates = compared_updates(stats, workers_[i], config_.beta);
    ckpt->workers.push_back(std::move(wc));
  }
}

bool Scheduler::restore(const TrainingCheckpoint& ckpt, std::string* error) {
  epoch_ = ckpt.epoch;
  epoch_start_vtime_ = ckpt.epoch_start_vtime;
  examples_dispatched_ = ckpt.examples_dispatched;
  examples_reclaimed_ = ckpt.examples_reclaimed;
  late_reports_ = ckpt.late_reports;
  late_examples_ = ckpt.late_examples;
  for (const WorkerCheckpoint& wc : ckpt.workers) {
    if (wc.id < 0 || static_cast<std::size_t>(wc.id) >= workers_.size()) {
      *error = "checkpoint names unknown worker " + std::to_string(wc.id);
      return false;
    }
    if (static_cast<std::uint8_t>(ledger_.stats(wc.id).kind) != wc.kind) {
      *error = "worker " + std::to_string(wc.id) +
               " device kind differs from the checkpointing run";
      return false;
    }
    // The checkpoint file is outside input: its batch is held inside this
    // worker's limits. Restore counts from stats.updates; the compared
    // count adaptive_updates carries no join credit in any checkpoint a
    // resume accepts (membership must match), so the credit goes.
    WorkerSchedule& w = workers_[static_cast<std::size_t>(wc.id)];
    WorkerStats stats = wc.stats;
    stats.current_batch = clamp_batch(wc.adaptive_batch, w.limits);
    ledger_.restore_stats(stats);
    w.credit = 0;
  }
  return true;
}

Index Scheduler::seed_batch(gpusim::DeviceKind kind,
                            const BatchLimits& limits) const {
  // Mean estimated batch cost over the active peers.
  double total_cost = 0.0;
  int peers = 0;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const WorkerSchedule& peer = workers_[i];
    if (peer.failed || peer.quarantined || peer.retired || peer.finished) {
      continue;
    }
    const WorkerStats& stats = ledger_.all()[i];
    total_cost += estimate_cost(stats.kind, stats.current_batch);
    ++peers;
  }
  const Index quantum = std::max<Index>(1, limits.quantum);
  if (peers == 0) return limits.initial;
  const double target = total_cost / peers;

  // estimate_cost is monotone in the batch size: binary-search the
  // smallest quantum multiple whose cost reaches the target, then take the
  // nearer of it and its predecessor.
  Index klo = std::max<Index>(1, (limits.min + quantum - 1) / quantum);
  Index khi = std::max<Index>(klo, limits.max / quantum);
  while (klo < khi) {
    const Index kmid = klo + (khi - klo) / 2;
    if (estimate_cost(kind, kmid * quantum) < target) {
      klo = kmid + 1;
    } else {
      khi = kmid;
    }
  }
  Index best = klo * quantum;
  if (klo > 1) {
    const Index below = (klo - 1) * quantum;
    if (std::abs(estimate_cost(kind, below) - target) <
        std::abs(estimate_cost(kind, best) - target)) {
      best = below;
    }
  }
  return std::clamp(best, limits.min, limits.max);
}

bool Scheduler::any_busy() const {
  for (const auto& w : workers_) {
    if (w.busy) return true;
  }
  return false;
}

}  // namespace hetsgd::core

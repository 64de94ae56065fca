// The Scheduler without threads: scripted reports stand in for workers,
// and a recording send function for their mailboxes.
#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/cost_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hetsgd::core {
namespace {

using tensor::Index;
constexpr auto kCpu = gpusim::DeviceKind::kCpu;
constexpr auto kGpu = gpusim::DeviceKind::kGpu;

// A small model; the CPU worker has 4 lanes (batches of 4 to 256
// examples), the GPU worker batches of 8 to 64.
TrainingConfig small_config(Algorithm algorithm) {
  TrainingConfig config;
  config.algorithm = algorithm;
  config.mlp.input_dim = 16;
  config.mlp.num_classes = 4;
  config.mlp.hidden_units = 32;
  config.cpu.sim_lanes = 4;
  config.gpu.min_batch = 8;
  config.gpu.max_batch = 64;
  config.gpu.batch = 32;
  config.time_budget_vseconds = 1e9;
  return config;
}

// The scheduler's cost estimate of a `batch`-example GPU batch.
double gpu_cost(const TrainingConfig& config, Index batch) {
  return gpu_batch_seconds(gpusim::PerfModel(config.gpu.spec), config.mlp,
                           batch, config.gpu.host_merge_bandwidth);
}

// A dispatch the scheduler sent.
struct Sent {
  msg::WorkerId worker = 0;
  msg::ExecuteWork work;
};

// What a scripted worker has reported so far.
struct Progress {
  double clock = 0.0;
  double busy = 0.0;
  std::uint64_t updates = 0;
  std::uint64_t reported = 0;  // sequence of the last batch reported
};

// Drives a Scheduler as Coordinator does, with scripted reports in place of
// worker threads. Sends to a worker in `closed` fail.
class Harness {
 public:
  Harness(const TrainingConfig& config, Index examples)
      : config_(config), s(config_, examples) {}
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  msg::WorkerId add(gpusim::DeviceKind kind, bool joining = false) {
    progress.emplace_back();
    return s.add_worker("worker", kind, joining);
  }

  // True when the epoch barrier passed; `active` then says whether a
  // worker still asks for or runs work.
  bool dispatch() {
    return s.dispatch(
        [this](msg::WorkerId id, msg::ExecuteWork work) {
          sent.push_back({id, work});
          return closed.count(id) == 0;
        },
        &active);
  }

  // The last dispatch sent to worker `id`.
  const msg::ExecuteWork& last(msg::WorkerId id) const {
    for (auto it = sent.rbegin(); it != sent.rend(); ++it) {
      if (it->worker == id) return it->work;
    }
    ADD_FAILURE() << "nothing sent to worker " << id;
    return sent.front().work;
  }

  // Worker `id` reports its last dispatch finished at `clock`, with
  // `updates` more updates.
  void complete(msg::WorkerId id, double clock, std::uint64_t updates = 1) {
    const msg::ExecuteWork& work = last(id);
    Progress& p = progress[static_cast<std::size_t>(id)];
    const double start = std::max(p.clock, work.not_before);
    ASSERT_GE(clock, start);
    ASSERT_NE(p.reported, work.sequence) << "reported twice";
    p.reported = work.sequence;
    p.busy += clock - start;
    p.clock = clock;
    p.updates += updates;
    msg::ScheduleWork report;
    report.worker = id;
    report.updates = p.updates;
    report.busy_vtime = p.busy;
    report.clock_vtime = clock;
    report.intensity = 0.5;
    report.examples = work.batch_size;
    report.sequence = work.sequence;
    s.on_report(report);
  }

  std::size_t records(FaultKind kind) const {
    const auto& log = s.ledger().fault_records();
    return static_cast<std::size_t>(
        std::count_if(log.begin(), log.end(),
                      [&](const FaultRecord& r) { return r.kind == kind; }));
  }

  // dispatched == reported + reclaimed, counting what is still in flight.
  void expect_accounting() const {
    std::uint64_t in_flight = 0;
    for (std::size_t i = 0; i < s.ledger().all().size(); ++i) {
      in_flight += static_cast<std::uint64_t>(
          s.schedule(static_cast<msg::WorkerId>(i)).inflight_size);
    }
    EXPECT_EQ(s.examples_dispatched(),
              s.ledger().total_examples() + s.examples_reclaimed() + in_flight);
  }

 private:
  TrainingConfig config_;

 public:
  Scheduler s;
  std::vector<Sent> sent;
  std::set<msg::WorkerId> closed;
  std::vector<Progress> progress;
  bool active = false;
};

// The frontier rule: an idle worker gets work only while its clock does not
// run ahead of the earliest estimated completion among busy workers, and
// each newly busy worker tightens that frontier.
TEST(Scheduler, IdleWorkerWaitsBehindTheFrontier) {
  Harness h(small_config(Algorithm::kCpuGpuHogbatch), 100000);
  h.add(kCpu);
  h.add(kGpu);
  ASSERT_FALSE(h.dispatch());
  ASSERT_EQ(h.sent.size(), 2u);  // both idle at clock 0
  EXPECT_EQ(h.sent[0].worker, 0);
  EXPECT_EQ(h.sent[0].work.batch_size, 4u);
  EXPECT_EQ(h.sent[1].worker, 1);
  EXPECT_EQ(h.sent[1].work.batch_size, 32u);
  const double g = h.s.schedule(1).est_completion;  // the GPU's estimate
  EXPECT_EQ(g, gpu_cost(small_config(Algorithm::kCpuGpuHogbatch), 32));

  h.complete(0, g / 2);  // behind the frontier: more work
  h.dispatch();
  ASSERT_EQ(h.sent.size(), 3u);
  EXPECT_EQ(h.sent[2].worker, 0);

  h.complete(0, 1.5 * g);  // past the frontier: held
  h.dispatch();
  EXPECT_EQ(h.sent.size(), 3u);
  EXPECT_TRUE(h.s.schedule(0).waiting);

  // The GPU reports at g and, the earlier clock, goes first; its next
  // estimate, 2g, releases the CPU at 1.5g.
  h.complete(1, g);
  h.dispatch();
  ASSERT_EQ(h.sent.size(), 5u);
  EXPECT_EQ(h.sent[3].worker, 1);
  EXPECT_EQ(h.sent[3].work.batch_begin, 40u);
  EXPECT_EQ(h.s.schedule(1).est_completion, 2 * g);
  EXPECT_EQ(h.sent[4].worker, 0);
  EXPECT_EQ(h.sent[4].work.batch_begin, 72u);
}

// Algorithm 2 serves only a full batch, so the epoch's tail is left for
// the reshuffle; Algorithm 1 hands the tail out as one partial batch.
TEST(Scheduler, FullBatchRuleAgainstPartialTail) {
  Harness adaptive(small_config(Algorithm::kAdaptiveHogbatch), 100);
  adaptive.add(kGpu);  // starts at the upper threshold, 64
  adaptive.dispatch();
  adaptive.complete(0, 1.0);
  EXPECT_TRUE(adaptive.dispatch());
  EXPECT_TRUE(adaptive.active);
  ASSERT_EQ(adaptive.sent.size(), 1u);
  EXPECT_EQ(adaptive.sent[0].work.batch_size, 64u);

  TrainingConfig config = small_config(Algorithm::kMinibatchGpu);
  config.gpu.batch = 64;
  Harness fixed(config, 100);
  fixed.add(kGpu);
  fixed.dispatch();
  fixed.complete(0, 1.0);
  EXPECT_FALSE(fixed.dispatch());
  ASSERT_EQ(fixed.sent.size(), 2u);
  EXPECT_EQ(fixed.sent[1].work.batch_begin, 64u);
  EXPECT_EQ(fixed.sent[1].work.batch_size, 36u);
  fixed.complete(0, 2.0);
  EXPECT_TRUE(fixed.dispatch());

  // The next epoch starts at the flip's boundary, from example 0.
  fixed.s.begin_epoch(2.5);
  fixed.dispatch();
  ASSERT_EQ(fixed.sent.size(), 3u);
  EXPECT_EQ(fixed.sent[2].work.batch_begin, 0u);
  EXPECT_EQ(fixed.sent[2].work.not_before, 2.5);
  EXPECT_EQ(fixed.s.epoch(), 1u);
}

// A reclaimed range goes out before fresh work, and holds the epoch
// barrier open while a schedulable worker remains to run it.
TEST(Scheduler, ReclaimedRangeGoesFirstAndHoldsTheBarrier) {
  Harness h(small_config(Algorithm::kMinibatchGpu), 64);
  h.add(kGpu);
  h.add(kGpu);
  h.dispatch();  // [0, 32) and [32, 64): the epoch is all handed out
  h.s.on_worker_fault({0, 0.0, "injected"});
  EXPECT_EQ(h.s.examples_reclaimed(), 32u);
  EXPECT_FALSE(h.dispatch());
  EXPECT_EQ(h.sent.size(), 2u);

  // Nothing is left and nothing is busy, but the lost range is run first.
  h.complete(1, 1.0);
  EXPECT_FALSE(h.dispatch());
  ASSERT_EQ(h.sent.size(), 3u);
  EXPECT_EQ(h.sent[2].worker, 1);
  EXPECT_EQ(h.sent[2].work.batch_begin, 0u);
  EXPECT_EQ(h.sent[2].work.batch_size, 32u);
  EXPECT_EQ(h.records(FaultKind::kRedispatch), 1u);
  h.complete(1, 2.0);
  EXPECT_TRUE(h.dispatch());
  h.expect_accounting();
  EXPECT_EQ(h.s.examples_dispatched(), 96u);
}

// Worker 0's dispatch is reclaimed by the real-time grace path after worker
// 1 ran the rest of a 96-example epoch past worker 0's deadline: worker 0
// is suspended. Returns the cost e of one 32-example batch.
double strand_worker_zero(Harness& h) {
  h.add(kGpu);
  h.add(kGpu);
  h.dispatch();  // worker 0: [0, 32), due by 2e; worker 1: [32, 64)
  const double e = h.s.schedule(0).est_completion;
  h.complete(1, e);
  h.dispatch();  // worker 1: [64, 96), due by 3e
  h.complete(1, 2.5 * e);
  EXPECT_FALSE(h.dispatch());
  EXPECT_TRUE(h.s.reclaim_overdue(false));
  EXPECT_EQ(h.records(FaultKind::kDeadlineMiss), 1u);
  EXPECT_EQ(h.s.schedule(0).fault_count, 1);
  EXPECT_FALSE(h.s.schedule(0).busy);
  EXPECT_FALSE(h.s.schedule(0).waiting);
  return e;
}

TrainingConfig deadline_config(double budget) {
  TrainingConfig config = small_config(Algorithm::kMinibatchGpu);
  config.fault.deadline_factor = 2.0;
  config.time_budget_vseconds = budget;
  return config;
}

// A suspended worker holds neither the epoch barrier nor the end of the
// run: with worker 1 at the budget, nobody is left to re-run the lost
// range, so the epoch ends and the run with it.
TEST(Scheduler, SuspendedWorkerReleasesTheBarrierAndShutdown) {
  const double e = gpu_cost(small_config(Algorithm::kMinibatchGpu), 32);
  Harness h(deadline_config(2.5 * e), 96);
  ASSERT_EQ(strand_worker_zero(h), e);
  const std::size_t sent = h.sent.size();
  EXPECT_TRUE(h.dispatch());
  EXPECT_FALSE(h.active);  // the run ends
  EXPECT_EQ(h.sent.size(), sent);
  const WorkerSchedule& w0 = h.s.schedule(0);
  EXPECT_FALSE(w0.failed || w0.quarantined || w0.finished || w0.retired);
  h.expect_accounting();
}

// A late report advances the worker's clock and count but not its
// examples, and re-activates the worker.
TEST(Scheduler, LateReportIsFoldedWithoutDoubleCounting) {
  Harness h(deadline_config(1e9), 96);
  const double e = strand_worker_zero(h);
  h.dispatch();
  h.complete(1, 3.5 * e);
  ASSERT_EQ(h.s.ledger().total_examples(), 96u);
  h.complete(0, 5 * e);  // worker 0's reclaimed [0, 32)
  EXPECT_EQ(h.s.ledger().total_examples(), 96u);
  EXPECT_EQ(h.s.ledger().stats(0).examples, 0u);
  EXPECT_EQ(h.s.ledger().stats(0).updates, 1u);
  EXPECT_EQ(h.s.ledger().stats(0).clock, 5 * e);
  EXPECT_EQ(h.s.late_examples(), 32u);
  EXPECT_TRUE(h.s.schedule(0).waiting);
  EXPECT_EQ(h.s.examples_dispatched(),
            h.s.ledger().total_examples() + h.s.examples_reclaimed());
}

// A report past its own deadline is a strike; an on-time report clears
// the count; quarantine_after consecutive strikes quarantine the worker.
TEST(Scheduler, StragglerStrikesQuarantineAtTheThreshold) {
  TrainingConfig config = deadline_config(1e9);
  config.fault.quarantine_after = 2;
  Harness h(config, 100000);
  h.add(kGpu);
  h.dispatch();
  const double e = h.s.schedule(0).est_completion;
  EXPECT_EQ(h.s.schedule(0).deadline_vtime, 2 * e);
  h.complete(0, 3 * e);  // deadline 2e
  EXPECT_EQ(h.s.schedule(0).fault_count, 1);
  h.dispatch();
  h.complete(0, 4 * e);  // deadline 5e: on time
  EXPECT_EQ(h.s.schedule(0).fault_count, 0);
  h.dispatch();
  h.complete(0, 7 * e);  // deadline 6e
  EXPECT_FALSE(h.s.schedule(0).quarantined);
  h.dispatch();
  h.complete(0, 10 * e);  // deadline 9e
  EXPECT_TRUE(h.s.schedule(0).quarantined);
  EXPECT_EQ(h.records(FaultKind::kDeadlineMiss), 3u);
  EXPECT_EQ(h.records(FaultKind::kQuarantine), 1u);
  const std::size_t sent = h.sent.size();
  EXPECT_TRUE(h.dispatch());
  EXPECT_EQ(h.sent.size(), sent);
  EXPECT_FALSE(h.active);
}

// A send to a closed mailbox takes the range straight back, drops the
// worker, and the next candidate of the same pass runs the range.
TEST(Scheduler, FailedSendReclaimsAndRedispatches) {
  Harness h(small_config(Algorithm::kMinibatchGpu), 1000);
  h.add(kGpu);
  h.add(kGpu);
  h.closed.insert(0);
  EXPECT_FALSE(h.dispatch());
  ASSERT_EQ(h.sent.size(), 2u);
  EXPECT_EQ(h.sent[0].worker, 0);
  EXPECT_EQ(h.sent[1].worker, 1);
  EXPECT_EQ(h.sent[1].work.batch_begin, h.sent[0].work.batch_begin);
  EXPECT_EQ(h.sent[1].work.batch_size, 32u);
  EXPECT_TRUE(h.s.schedule(0).failed);
  EXPECT_TRUE(h.s.schedule(0).quarantined);
  EXPECT_EQ(h.records(FaultKind::kSendFailure), 1u);
  EXPECT_EQ(h.records(FaultKind::kQuarantine), 1u);
  EXPECT_EQ(h.records(FaultKind::kRedispatch), 1u);
  EXPECT_EQ(h.s.examples_reclaimed(), 32u);
  h.expect_accounting();
}

// Retirement reclaims the in-flight range for the survivors; the retired
// worker's report for it folds in as late and asks for nothing more.
TEST(Scheduler, RetirementReclaimsTheInFlightRange) {
  Harness h(small_config(Algorithm::kMinibatchGpu), 1000);
  h.add(kGpu);
  h.add(kGpu);
  h.dispatch();
  EXPECT_TRUE(h.s.retire(0, 0.5));
  EXPECT_FALSE(h.s.retire(0, 0.5));  // already retired
  EXPECT_FALSE(h.s.retire(7, 0.5));  // unknown
  EXPECT_EQ(h.s.examples_reclaimed(), 32u);
  EXPECT_EQ(h.records(FaultKind::kWorkerRetire), 1u);
  h.complete(1, 1.0);
  h.dispatch();
  EXPECT_EQ(h.sent.back().worker, 1);
  EXPECT_EQ(h.sent.back().work.batch_begin, 0u);
  h.complete(0, 1.5);
  EXPECT_EQ(h.s.late_examples(), 32u);
  EXPECT_FALSE(h.s.schedule(0).waiting);
  h.dispatch();
  EXPECT_NE(h.sent.back().worker, 0);
  h.expect_accounting();
}

// A joiner's first batch is the one whose estimated cost best matches its
// active peers' mean, and its count is credited with the smallest active
// peer count, in compared units.
TEST(Scheduler, JoinIsSeededFromCostAndCreditedWithThePeerMinimum) {
  TrainingConfig config = small_config(Algorithm::kAdaptiveHogbatch);
  config.beta = 0.5;
  Harness h(config, 100000);
  h.add(kCpu);
  h.add(kGpu);
  h.dispatch();
  h.complete(0, 1.0, 30);  // compared as 15
  h.complete(1, 1.0, 20);
  const msg::WorkerId id = h.add(kGpu, /*joining=*/true);
  EXPECT_EQ(id, 2);
  EXPECT_EQ(h.s.schedule(id).credit, 15u);
  EXPECT_EQ(h.records(FaultKind::kWorkerJoin), 1u);

  const Index cpu_batch = h.s.ledger().stats(0).current_batch;
  const HogwildSplit split = hogwild_split(cpu_batch, config.cpu.sim_lanes);
  const double target =
      (cpu_batch_seconds(gpusim::PerfModel(config.cpu.spec), config.mlp,
                         split.sub_batch, static_cast<int>(split.count)) +
       gpu_cost(config, h.s.ledger().stats(1).current_batch)) /
      2;
  const Index b = h.s.ledger().stats(id).current_batch;
  ASSERT_GE(b, config.gpu.min_batch);
  ASSERT_LE(b, config.gpu.max_batch);
  const double miss = std::abs(gpu_cost(config, b) - target);
  for (Index other = config.gpu.min_batch; other <= config.gpu.max_batch;
       ++other) {
    EXPECT_LE(miss, std::abs(gpu_cost(config, other) - target)) << other;
  }
  EXPECT_TRUE(h.s.schedule(id).waiting);
  h.dispatch();
  EXPECT_EQ(h.sent.back().worker, id);
}

// The written trace's instants of category "coordinator" named batch_*,
// as (name, vt) in trace order.
std::vector<std::pair<std::string, double>> resize_instants(
    const std::string& path) {
  std::vector<std::pair<std::string, double>> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"ph\":\"i\"") == std::string::npos ||
        line.find("\"cat\":\"coordinator\"") == std::string::npos) {
      continue;
    }
    const std::string key = "\"name\":\"";
    const std::size_t at = line.find(key) + key.size();
    const std::string name = line.substr(at, line.find('"', at) - at);
    if (name.rfind("batch_", 0) != 0) continue;
    const std::size_t vt = line.find("\"vt0\":") + 6;
    out.emplace_back(name, std::stod(line.substr(vt)));
  }
  return out;
}

// Algorithm 2 reports its decisions: a resize emits batch_grow or
// batch_shrink at the report's virtual time and ticks the resize counter;
// a resize a threshold stops emits batch_clamped; the batch gauge follows.
TEST(Scheduler, Algorithm2DecisionsAreTraced) {
  obs::Counter& resizes =
      obs::MetricsRegistry::instance().counter("hetsgd_batch_resizes_total");
  const std::uint64_t resized = resizes.value();
  obs::Tracer::instance().start();
  {
    Harness h(small_config(Algorithm::kAdaptiveHogbatch), 100000);
    h.add(kCpu);  // batch 4
    h.add(kGpu);  // batch 64, the upper threshold
    h.dispatch();
    h.complete(1, 0.5, 5);  // fastest, but already at max_b
    EXPECT_EQ(h.s.ledger().stats(1).current_batch, 64);
    h.dispatch();
    h.complete(0, 0.75, 10);  // 10 > 5: fastest, grows
    EXPECT_EQ(h.s.ledger().stats(0).current_batch, 8);
    h.dispatch();
    h.complete(1, 1.25, 1);  // 6 < 10: slowest, shrinks
    EXPECT_EQ(h.s.ledger().stats(1).current_batch, 32);
  }
  const std::string path = testing::TempDir() + "scheduler_test_trace.json";
  std::string error;
  ASSERT_TRUE(obs::Tracer::instance().stop_and_write(path, &error)) << error;
  const std::vector<std::pair<std::string, double>> want = {
      {"batch_clamped", 0.5}, {"batch_grow", 0.75}, {"batch_shrink", 1.25}};
  EXPECT_EQ(resize_instants(path), want);
  EXPECT_EQ(resizes.value() - resized, 2u);
  EXPECT_EQ(obs::MetricsRegistry::instance()
                .gauge("hetsgd_worker1_batch")
                .value(),
            32.0);
}

// --- seeded invariant sweep -------------------------------------------------

// A scripted worker in the sweep: what it holds and what it has reported.
struct SimWorker {
  bool alive = true;  // its actor runs and reports
  bool closed = false;  // its mailbox is closed: sends fail
  bool holds = false;  // has a dispatch it has not reported
  msg::ExecuteWork work;
  double estimate = 0.0;  // the scheduler's estimated cost of `work`
  Progress progress;
};

// The count Algorithm 2 should compare, from the sweep's own raw counts.
std::uint64_t expected_count(const Scheduler& s, const std::vector<SimWorker>& sim,
                             msg::WorkerId id, double beta) {
  const auto i = static_cast<std::size_t>(id);
  const std::uint64_t u = sim[i].progress.updates;
  const std::uint64_t credit = s.schedule(id).credit;
  if (s.ledger().stats(id).kind == kCpu) {
    return credit +
           static_cast<std::uint64_t>(std::floor(beta * static_cast<double>(u)));
  }
  return credit + u;
}

// Algorithm 2's decision for worker e, whose batch was `b`, derived from
// the rule's statement: the slowest shrinks to floor(b / alpha), the fastest
// grows to ceil(alpha * b), each held in [min, max], then rounded and
// clamped.
Index expected_batch(const Scheduler& s, const std::vector<SimWorker>& sim,
                     msg::WorkerId e, Index b, const TrainingConfig& config) {
  const WorkerSchedule& w = s.schedule(e);
  if (w.retired) return b;
  bool others = false;
  std::uint64_t lo = 0, hi = 0;
  for (std::size_t i = 0; i < s.ledger().all().size(); ++i) {
    const auto id = static_cast<msg::WorkerId>(i);
    if (id == e || s.schedule(id).retired) continue;
    const std::uint64_t u = expected_count(s, sim, id, config.beta);
    lo = others ? std::min(lo, u) : u;
    hi = others ? std::max(hi, u) : u;
    others = true;
  }
  if (!others) return b;
  const std::uint64_t u = expected_count(s, sim, e, config.beta);
  const BatchLimits& l = w.limits;
  if (u < lo) {
    const auto shrunk =
        static_cast<Index>(std::floor(static_cast<double>(b) / config.alpha));
    return clamp_batch(std::max(shrunk, l.min), l);
  }
  if (u > hi) {
    const auto grown =
        static_cast<Index>(std::ceil(static_cast<double>(b) * config.alpha));
    return clamp_batch(std::min(grown, l.max), l);
  }
  return b;
}

class SchedulerSweep {
 public:
  explicit SchedulerSweep(std::uint64_t seed)
      : rng_(seed), config_(make_config(rng_)),
        examples_(static_cast<Index>(40 + rng_.next_below(400))),
        s_(config_, examples_) {}

  void run() {
    const int initial = 2 + static_cast<int>(rng_.next_below(2));
    for (int i = 0; i < initial; ++i) add(/*joining=*/false);
    settle();
    for (int event = 0; event < 400 && !ended_; ++event) {
      step();
      check();
      if (::testing::Test::HasFatalFailure()) return;
    }
    if (!ended_) stop();
    // Whatever is still out reports late, after the run stopped.
    for (std::size_t i = 0; i < sim_.size(); ++i) {
      if (sim_[i].alive && sim_[i].holds) report(static_cast<msg::WorkerId>(i));
    }
    check();
    EXPECT_EQ(s_.examples_dispatched(),
              s_.ledger().total_examples() + s_.examples_reclaimed());
  }

 private:
  static TrainingConfig make_config(Rng& rng) {
    TrainingConfig config = small_config(
        rng.bernoulli(0.7) ? Algorithm::kAdaptiveHogbatch
                           : Algorithm::kCpuGpuHogbatch);
    const double alphas[] = {1.5, 2.0, 3.0};
    const double betas[] = {1.0, 0.5, 0.1};
    config.alpha = alphas[rng.next_below(3)];
    config.beta = betas[rng.next_below(3)];
    config.fault.deadline_factor = rng.bernoulli(0.7) ? 2.0 : 0.0;
    config.fault.quarantine_after =
        1 + static_cast<std::int64_t>(rng.next_below(4));
    config.charge_loss_eval_to_gpu = rng.bernoulli(0.3);
    config.max_epochs = 3 + rng.next_below(20);
    config.time_budget_vseconds =
        gpu_cost(config, 64) * static_cast<double>(20 + rng.next_below(200));
    return config;
  }

  void add(bool joining) {
    const auto kind = rng_.bernoulli(0.5) ? kCpu : kGpu;
    if (joining) {
      // The credit: the smallest compared count among active peers.
      std::uint64_t credit = 0;
      bool any = false;
      for (std::size_t i = 0; i < sim_.size(); ++i) {
        const auto id = static_cast<msg::WorkerId>(i);
        const WorkerSchedule& w = s_.schedule(id);
        if (w.failed || w.quarantined || w.retired) continue;
        const std::uint64_t u = expected_count(s_, sim_, id, config_.beta);
        credit = any ? std::min(credit, u) : u;
        any = true;
      }
      sim_.emplace_back();
      const msg::WorkerId id = s_.add_worker("joiner", kind, true);
      EXPECT_EQ(s_.schedule(id).credit, credit) << "join credit";
    } else {
      sim_.emplace_back();
      s_.add_worker("w", kind, false);
    }
  }

  Scheduler::Send send() {
    return [this](msg::WorkerId id, msg::ExecuteWork work) {
      SimWorker& w = sim_[static_cast<std::size_t>(id)];
      if (w.closed) return false;
      EXPECT_FALSE(w.holds) << "two dispatches to worker " << id;
      w.holds = true;
      w.work = work;
      const double start = std::max(w.progress.clock, work.not_before);
      w.estimate = s_.schedule(id).est_completion - start;
      return true;
    };
  }

  // Coordinator::try_dispatch_all and its epoch flip.
  void settle() {
    for (int guard = 0; !ended_; ++guard) {
      ASSERT_LT(guard, 10000) << "dispatch does not settle";
      bool active = false;
      if (!s_.dispatch(send(), &active)) return;
      s_.begin_epoch(s_.ledger().max_clock());
      if (s_.epoch() >= config_.max_epochs || !active) stop();
    }
  }

  void stop() {
    ended_ = true;
    s_.reclaim_all();
  }

  // Worker `id` finishes the dispatch it holds.
  void report(msg::WorkerId id) {
    SimWorker& w = sim_[static_cast<std::size_t>(id)];
    Progress& p = w.progress;
    const double start = std::max(p.clock, w.work.not_before);
    // Mostly near the estimate; now and then a straggler.
    const double stretch = rng_.bernoulli(0.05) ? rng_.uniform(2.5, 4.5)
                                                : rng_.uniform(0.5, 1.5);
    const double clock = start + w.estimate * stretch;
    p.busy += clock - start;
    p.clock = clock;
    const auto size = static_cast<Index>(w.work.batch_size);
    p.updates += s_.ledger().stats(id).kind == kCpu
                     ? static_cast<std::uint64_t>(
                           hogwild_split(size, config_.cpu.sim_lanes).count)
                     : 1;
    w.holds = false;
    if (s_.schedule(id).retired) w.alive = false;  // then takes its Shutdown

    msg::ScheduleWork r;
    r.worker = id;
    r.updates = p.updates;
    r.busy_vtime = p.busy;
    r.clock_vtime = clock;
    r.intensity = 0.5;
    r.examples = w.work.batch_size;
    r.sequence = w.work.sequence;
    const Index before = s_.ledger().stats(id).current_batch;
    s_.on_report(r);
    const Index expected =
        config_.algorithm == Algorithm::kAdaptiveHogbatch
            ? expected_batch(s_, sim_, id, before, config_)
            : before;
    EXPECT_EQ(s_.ledger().stats(id).current_batch, expected)
        << "batch decision for worker " << id;
  }

  void step() {
    const auto n = static_cast<std::uint64_t>(sim_.size());
    const std::uint64_t roll = rng_.next_below(100);
    if (roll < 72) {  // a report, on time, straggling or late
      std::vector<msg::WorkerId> holders;
      for (std::size_t i = 0; i < sim_.size(); ++i) {
        if (sim_[i].alive && sim_[i].holds) {
          holders.push_back(static_cast<msg::WorkerId>(i));
        }
      }
      if (holders.empty()) return;
      report(holders[rng_.next_below(holders.size())]);
      settle();
      return;
    }
    const auto id = static_cast<msg::WorkerId>(rng_.next_below(n));
    SimWorker& w = sim_[static_cast<std::size_t>(id)];
    if (roll < 75) {  // a fatal worker fault
      if (!w.alive) return;
      w.alive = false;
      s_.on_worker_fault({id, w.progress.clock, "injected"});
      settle();
    } else if (roll < 77) {  // the worker exits silently
      if (!w.alive || w.holds) return;
      w.alive = false;
      w.closed = true;
      settle();
    } else if (roll < 82) {  // an elastic join
      if (sim_.size() >= 6) return;
      add(/*joining=*/true);
      settle();
    } else if (roll < 85) {  // an elastic retirement, maybe refused
      const auto target = static_cast<msg::WorkerId>(rng_.next_below(n + 1));
      const bool ok = s_.retire(target, s_.ledger().max_clock());
      if (ok && !sim_[static_cast<std::size_t>(target)].holds) {
        sim_[static_cast<std::size_t>(target)].alive = false;
      }
      settle();
    } else if (roll < 90) {  // the real-time grace window expires
      if (config_.fault.deadline_factor <= 0.0 || !s_.any_busy()) return;
      if (s_.reclaim_overdue(rng_.bernoulli(0.3))) settle();
    } else {  // a spurious wake-up
      settle();
    }
  }

  void check() {
    std::uint64_t in_flight = 0;
    for (std::size_t i = 0; i < s_.ledger().all().size(); ++i) {
      const auto id = static_cast<msg::WorkerId>(i);
      const WorkerSchedule& w = s_.schedule(id);
      const Index b = s_.ledger().stats(id).current_batch;
      ASSERT_GE(b, w.limits.min) << "worker " << id;
      ASSERT_LE(b, w.limits.max) << "worker " << id;
      ASSERT_EQ(b % w.limits.quantum, 0) << "worker " << id;
      ASSERT_EQ(compared_updates(s_.ledger().stats(id), w, config_.beta),
                expected_count(s_, sim_, id, config_.beta))
          << "worker " << id;
      in_flight += static_cast<std::uint64_t>(w.inflight_size);
    }
    ASSERT_EQ(s_.examples_dispatched(),
              s_.ledger().total_examples() + s_.examples_reclaimed() +
                  in_flight);
  }

  Rng rng_;
  const TrainingConfig config_;
  const Index examples_;
  Scheduler s_;
  std::vector<SimWorker> sim_;
  bool ended_ = false;
};

// Seeded random sequences of reports, late reports, faults, failed sends,
// joins, retirements and epoch flips; after every event, dispatched ==
// reported + reclaimed (plus what is in flight), every batch lies in its
// limits on its quantum, every resize is Algorithm 2's alpha step, and a
// CPU worker's count compares as floor(beta * u) plus its credit.
TEST(SchedulerSweep, InvariantsHoldAfterEveryEvent) {
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SchedulerSweep(seed).run();
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace hetsgd::core

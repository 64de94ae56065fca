// Per-worker bookkeeping of model updates, batches, and virtual time.
//
// The coordinator's Scheduler maintains this from ScheduleWork messages;
// it is the data behind Fig. 8 (update distribution), and the one record
// of each worker's progress (clock, busy time, update count, batch size)
// that Algorithm 2 reads, checkpoints persist and resumed workers continue
// from.
//
// Each mutating method also publishes what it changed to the metrics
// registry: the hetsgd_worker<id>_{updates,examples,busy_vseconds,
// clock_vseconds,batch,max_staleness} gauges and hetsgd_fault_records.
// Exporter threads read those gauges, never the ledger.
//
// Concurrency contract (DESIGN.md §10, regime 2): not synchronized. After
// the coordinator starts, only its actor thread touches its ledger; the
// Trainer reads it after Actor::join(), the happens-before edge.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/fault.hpp"
#include "gpusim/perf_model.hpp"
#include "msg/message.hpp"
#include "tensor/types.hpp"

namespace hetsgd::obs {
class Gauge;
}  // namespace hetsgd::obs

namespace hetsgd::core {

// One sample of the loss trajectory: virtual seconds, epochs-equivalent
// of processed examples, and the (sampled) training loss. Lives here —
// with the rest of the run bookkeeping — so the checkpoint layer can
// persist loss curves without pulling in the coordinator.
struct LossPoint {
  double vtime = 0.0;
  double epochs = 0.0;
  double loss = 0.0;
};

struct WorkerStats {
  msg::WorkerId id = 0;
  std::string name;
  gpusim::DeviceKind kind = gpusim::DeviceKind::kCpu;

  std::uint64_t updates = 0;   // cumulative model updates (u^E)
  std::uint64_t batches = 0;   // ExecuteWork messages completed
  std::uint64_t examples = 0;  // training examples processed
  double busy_vtime = 0.0;     // virtual seconds spent computing
  double clock = 0.0;          // worker's logical clock
  tensor::Index current_batch = 0;  // last assigned batch size

  // Replica staleness (GPU workers): accumulated and maximum per-batch
  // max |w_merge - w_upload| of the shared model.
  double staleness_sum = 0.0;
  double max_staleness = 0.0;

  // Mean per-batch staleness over completed batches.
  double mean_staleness() const {
    return batches > 0 ? staleness_sum / static_cast<double>(batches) : 0.0;
  }
};

class UpdateLedger {
 public:
  // Zeroes hetsgd_fault_records: the gauge is process-global.
  UpdateLedger();

  // Registers a worker; ids must be dense [0, n).
  void register_worker(msg::WorkerId id, std::string name,
                       gpusim::DeviceKind kind, tensor::Index initial_batch);

  const WorkerStats& stats(msg::WorkerId id) const;
  const std::vector<WorkerStats>& all() const { return workers_; }

  // Records the batch size Algorithm 2 just assigned.
  void set_current_batch(msg::WorkerId id, tensor::Index batch);

  // Folds a completed-batch report into the ledger. A `late` report's
  // batch was already reclaimed after a deadline miss: its clock and update
  // count advance (the Hogwild updates really happened), but examples,
  // batches and staleness do NOT — the reclaimed range was re-dispatched
  // elsewhere and counting it twice would break
  // `dispatched == reported + reclaimed`.
  void on_report(const msg::ScheduleWork& report, bool late = false);

  // Checkpoint restore: overwrites the counters of an already-registered
  // worker (matched by stats.id) with the persisted values. Name and kind
  // keep the freshly-registered values — they describe this process's
  // workers, not the dead one's.
  void restore_stats(const WorkerStats& stats);

  // --- fault / recovery event log ---------------------------------------
  // Coordinator-side detections and recovery actions, in detection order;
  // injections recorded by the FaultPlan are merged in by the Trainer.
  void record_fault(FaultRecord record);
  const std::vector<FaultRecord>& fault_records() const { return faults_; }

  std::uint64_t total_examples() const;
  std::uint64_t updates_by_kind(gpusim::DeviceKind kind) const;

  // Largest clock among all workers: the virtual frontier.
  double max_clock() const;

 private:
  // One worker's gauges, resolved at registration.
  struct Gauges {
    obs::Gauge* updates = nullptr;
    obs::Gauge* examples = nullptr;
    obs::Gauge* busy = nullptr;
    obs::Gauge* clock = nullptr;
    obs::Gauge* batch = nullptr;
    obs::Gauge* max_staleness = nullptr;
  };

  WorkerStats& at(msg::WorkerId id);
  // Sets worker `s.id`'s gauges from its stats.
  void publish(const WorkerStats& s) const;

  std::vector<WorkerStats> workers_;
  std::vector<Gauges> gauges_;  // parallel to workers_
  std::vector<FaultRecord> faults_;
  obs::Gauge* fault_records_;  // hetsgd_fault_records
};

}  // namespace hetsgd::core

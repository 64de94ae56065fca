// Control messages exchanged between the coordinator and workers.
//
// This is the vocabulary of the paper's Figure 4: workers request work with
// ScheduleWork (carrying their update count, which Adaptive Hogbatch uses),
// the coordinator answers with ExecuteWork (carrying a batch reference —
// an index range into the shared training data, never a copy), and
// Shutdown tears the loop down. Data always travels by reference through
// shared memory; only these small structs flow through the queues.
// Elastic membership changes are not messages: the coordinator fires them
// on its own thread when the virtual frontier reaches their triggers.
#pragma once

#include <cstdint>
#include <string>
#include <variant>

namespace hetsgd::msg {

// Worker identifiers. The coordinator is not a worker; kCoordinator is used
// as the `from` field of coordinator-originated envelopes.
using WorkerId = std::int32_t;
inline constexpr WorkerId kCoordinator = -1;

// Worker -> coordinator: "I applied my update(s); give me the next batch."
// `updates` is the worker's cumulative number of model updates u^E —
// Algorithm 2's only input. `busy_vtime` is the virtual time
// the worker has spent computing, used by the utilization monitor.
struct ScheduleWork {
  WorkerId worker = 0;
  std::uint64_t updates = 0;
  double busy_vtime = 0.0;
  double clock_vtime = 0.0;  // worker's logical clock after the last batch
  // Average device utilization during the last batch (0 = initial request),
  // recorded by the utilization monitor for Fig. 7.
  double intensity = 0.0;
  // Examples processed in the last batch (0 = initial request).
  std::uint64_t examples = 0;
  // Replica staleness observed for the last batch: max |w_merge - w_upload|
  // over all parameters of the shared model (GPU workers only; §VI-B
  // "merging a local stale replica requires careful consideration").
  double staleness = 0.0;
  // Dispatch sequence number echoed from the completed ExecuteWork
  // (0 = no completed work). Lets the coordinator recognize late reports
  // for batches it already reclaimed after a deadline miss.
  std::uint64_t sequence = 0;
};

// Coordinator -> worker: "process examples [batch_begin, batch_begin+batch_size)
// of the current epoch's permutation, with your effective learning rate
// scaled by lr_scale."
struct ExecuteWork {
  std::uint64_t batch_begin = 0;
  std::uint64_t batch_size = 0;
  // 1 until a divergence rollback backs the rate off (fault.lr_backoff per
  // rollback).
  double lr_scale = 1.0;
  // Earliest virtual time the batch may start (epoch flips introduce real
  // idle time: a worker that waited for the epoch barrier resumes at the
  // barrier's virtual time, not at its own stale clock).
  double not_before = 0.0;
  // Per-worker dispatch sequence number (1-based), echoed back in the
  // completion report for deadline/reclamation bookkeeping.
  std::uint64_t sequence = 0;
};

// Worker -> coordinator: "I hit a fault I cannot recover from locally"
// (e.g. device transfers still failing after capped-backoff retries, or an
// exception escaping the message handler). The coordinator reclaims the
// worker's in-flight batch and quarantines it.
struct WorkerFault {
  WorkerId worker = 0;
  // Worker's logical clock when the fault surfaced.
  double vtime = 0.0;
  std::string detail;
};

// Coordinator -> worker: drain and exit the message loop.
struct Shutdown {};

// Worker -> coordinator: acknowledges Shutdown (lets the coordinator join
// cleanly while workers own resources like device memory).
struct ShutdownAck {
  WorkerId worker = 0;
};

using Message = std::variant<ScheduleWork, ExecuteWork, Shutdown, ShutdownAck,
                             WorkerFault>;

// A message plus its sender.
struct Envelope {
  WorkerId from = kCoordinator;
  Message message;
};

}  // namespace hetsgd::msg

// Dual-clock span tracer.
//
// Each instrumented thread appends its events to its own buffer, and
// nothing reads them until stop_and_write() reads every buffer once.
// Events carry BOTH clocks: wall nanoseconds from obs::wall_now_ns()
// and, where available, gpusim virtual time, so a Perfetto timeline can
// be cross-referenced against the simulated schedule. Batch-id flow
// events ('s'/'t'/'f') correlate one batch's journey dispatch -> H2D ->
// kernel -> report -> ledger apply across threads.
//
// Cost model:
//  - Not started: one atomic load per probe.
//  - Started: one wall_now_ns() read per edge plus an append under the
//    thread's own buffer lock. Only start() and stop_and_write() take
//    that lock from another thread, once per session each, so it is
//    uncontended while a session records. A buffer grows by fixed-size
//    chunks, so an append never moves a recorded event and never drops one.
//
// Thread-safety: a thread's buffer is created on its first event (or
// set_thread_name) and kept for the life of the process. A producer that
// races stop() or start() appends into live memory under the buffer's
// lock; start() discards every buffer's earlier events. A thread that
// exits before stop_and_write() keeps its events and its name.
#pragma once

#include <cstdint>
#include <string>

namespace hetsgd::obs {

// Sentinel for "no virtual-time stamp".
inline constexpr double kNoVt = -1.0;

// Stable flow id for one dispatched batch: workers and coordinator both
// know (worker, sequence), so either side can derive the same id
// without extra message plumbing.
inline constexpr std::uint64_t batch_flow_id(int worker,
                                             std::uint64_t sequence) {
  return (static_cast<std::uint64_t>(worker + 1) << 40) ^ sequence;
}

class Tracer {
 public:
  static Tracer& instance();

  // Begins a session, discarding every buffer's events from the last
  // one. Idempotent while running.
  void start();

  // Stops collection and writes the session's events as Chrome
  // trace_event JSON ("traceEvents" array, ts/dur in microseconds,
  // virtual times under args; one thread_name record per thread that
  // recorded in the session). Safe to call when never started (writes an
  // empty but valid trace). Returns false and fills *error on I/O failure.
  bool stop_and_write(const std::string& path, std::string* error);

  // Stop without writing (tests / abandoning a trace).
  void stop();

  static bool enabled();

  // Names the calling thread's track in the exported trace.
  static void set_thread_name(const std::string& name);

 private:
  Tracer() = default;
};

// RAII span: records one 'X' complete event on destruction.
class TraceSpan {
 public:
  TraceSpan(const char* cat, const char* name, double vt = kNoVt,
            std::uint64_t flow = 0);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void set_end_vt(double vt) { vt1_ = vt; }
  void set_flow(std::uint64_t id) { flow_ = id; }

 private:
  const char* cat_;
  const char* name_;
  std::uint64_t start_ns_ = 0;
  double vt0_;
  double vt1_;
  std::uint64_t flow_;
  bool active_ = false;
};

void trace_instant(const char* cat, const char* name, double vt = kNoVt,
                   std::uint64_t flow = 0);
void trace_flow_begin(const char* name, std::uint64_t id, double vt = kNoVt);
void trace_flow_step(const char* name, std::uint64_t id, double vt = kNoVt);
void trace_flow_end(const char* name, std::uint64_t id, double vt = kNoVt);
void trace_counter(const char* name, double value);

}  // namespace hetsgd::obs

// Instrumentation macros. `name`/`cat` must be string literals (the
// tracer stores the pointers, not copies).
#define HETSGD_TRACE_CONCAT2(a, b) a##b
#define HETSGD_TRACE_CONCAT(a, b) HETSGD_TRACE_CONCAT2(a, b)
// Span covering the rest of the enclosing scope.
#define HETSGD_TRACE_SCOPE(cat, name) \
  ::hetsgd::obs::TraceSpan HETSGD_TRACE_CONCAT(hetsgd_trace_span_, \
                                               __LINE__)(cat, name)
// Named span object, for setting vt/flow before it closes.
#define HETSGD_TRACE_SPAN(var, cat, name, ...) \
  ::hetsgd::obs::TraceSpan var(cat, name, ##__VA_ARGS__)
#define HETSGD_TRACE_INSTANT(...) ::hetsgd::obs::trace_instant(__VA_ARGS__)
#define HETSGD_TRACE_COUNTER(name, value) \
  ::hetsgd::obs::trace_counter(name, value)

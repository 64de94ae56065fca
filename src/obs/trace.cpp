#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/thread_annotations.hpp"
#include "obs/clock.hpp"

namespace hetsgd::obs {
namespace {

struct TraceEvent {
  const char* name = nullptr;  // static-lifetime strings only
  const char* cat = nullptr;
  std::uint64_t ts_ns = 0;   // wall, obs::wall_now_ns() epoch
  std::uint64_t dur_ns = 0;  // 'X' spans only
  double vt0 = kNoVt;        // virtual time at begin (kNoVt = unset)
  double vt1 = kNoVt;        // virtual time at end
  std::uint64_t flow = 0;    // batch flow id, 0 = none
  double value = 0.0;        // 'C' counter samples
  char phase = 'i';          // 'X','i','s','t','f','C'
};

// Events per chunk. A chunk is reserved whole and never grows past it, so
// an append never moves an event already recorded.
constexpr std::size_t kChunkEvents = 1024;

// One thread's events and track name. The owning thread appends under
// `mu`; start() and stop_and_write() take it once per session each.
struct ThreadBuffer {
  AnnotatedMutex mu;
  std::vector<std::vector<TraceEvent>> chunks HETSGD_GUARDED_BY(mu);
  std::string name HETSGD_GUARDED_BY(mu);
};

struct Registry {
  AnnotatedMutex mu;
  // Every thread that ever recorded or named itself, in registration
  // order. Never freed: a thread's pointer to its buffer stays valid for
  // the life of the process, whatever sessions start and stop around it.
  std::vector<std::unique_ptr<ThreadBuffer>> buffers HETSGD_GUARDED_BY(mu);
  std::uint64_t base_ns HETSGD_GUARDED_BY(mu) = 0;
};

Registry& registry() {
  // hetsgd-lint: allow(naked-new) leaked singleton: outlives all threads
  static Registry* r = new Registry();
  return *r;
}

// The probes' fast-path flag. Constant-initialized, so reading it is the
// one atomic load an idle probe costs.
constinit std::atomic<bool> g_enabled{false};

thread_local ThreadBuffer* tls_buffer = nullptr;

ThreadBuffer& this_thread_buffer() {
  if (tls_buffer == nullptr) {
    Registry& r = registry();
    MutexLock lock(r.mu);
    r.buffers.push_back(std::make_unique<ThreadBuffer>());
    tls_buffer = r.buffers.back().get();
  }
  return *tls_buffer;
}

void record(const TraceEvent& event) {
  ThreadBuffer& buf = this_thread_buffer();
  MutexLock lock(buf.mu);
  if (buf.chunks.empty() || buf.chunks.back().size() == kChunkEvents) {
    buf.chunks.emplace_back().reserve(kChunkEvents);
  }
  buf.chunks.back().push_back(event);
}

void json_escape(std::string* out, const char* str) {
  for (const char* p = str; *p; ++p) {
    const char c = *p;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else {
      out->push_back(c);
    }
  }
}

void append_event_json(std::string* out, const TraceEvent& e, int tid,
                       std::uint64_t base_ns) {
  char buf[256];
  const double ts_us =
      static_cast<double>(e.ts_ns - std::min(e.ts_ns, base_ns)) / 1000.0;
  *out += "{\"name\":\"";
  json_escape(out, e.name != nullptr ? e.name : "");
  *out += "\",\"cat\":\"";
  json_escape(out, e.cat != nullptr ? e.cat : "hetsgd");
  std::snprintf(buf, sizeof(buf), "\",\"ph\":\"%c\",\"pid\":1,\"tid\":%d,\"ts\":%.3f",
                e.phase, tid, ts_us);
  *out += buf;
  if (e.phase == 'X') {
    std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f",
                  static_cast<double>(e.dur_ns) / 1000.0);
    *out += buf;
  }
  if (e.phase == 's' || e.phase == 't' || e.phase == 'f') {
    std::snprintf(buf, sizeof(buf), ",\"id\":\"0x%llx\"",
                  static_cast<unsigned long long>(e.flow));
    *out += buf;
    if (e.phase == 'f') *out += ",\"bp\":\"e\"";
  }
  if (e.phase == 'i') *out += ",\"s\":\"t\"";
  // args: both clocks plus flow/counter payload.
  *out += ",\"args\":{";
  bool first = true;
  auto arg = [&](const char* key, double v) {
    if (!first) *out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf), "\"%s\":%.9g", key, v);
    *out += buf;
  };
  if (e.phase == 'C') {
    arg("value", e.value);
  }
  if (e.vt0 != kNoVt) arg("vt0", e.vt0);
  if (e.vt1 != kNoVt) arg("vt1", e.vt1);
  if (e.flow != 0 && e.phase == 'X') {
    arg("flow", static_cast<double>(e.flow));
  }
  *out += "}}";
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

bool Tracer::enabled() { return g_enabled.load(std::memory_order_acquire); }

void Tracer::start() {
  if (enabled()) return;
  Registry& r = registry();
  {
    MutexLock lock(r.mu);
    for (const auto& buf : r.buffers) {
      MutexLock buf_lock(buf->mu);
      buf->chunks.clear();
    }
    r.base_ns = wall_now_ns();
  }
  g_enabled.store(true, std::memory_order_release);
}

void Tracer::stop() { g_enabled.store(false, std::memory_order_release); }

bool Tracer::stop_and_write(const std::string& path, std::string* error) {
  stop();
  struct Placed {
    const TraceEvent* event;
    int tid;
  };
  std::vector<Placed> events;
  std::string body;
  {
    // Held throughout, so no start() frees the events read below. A
    // producer still appending after stop() only adds to its own chunks.
    Registry& r = registry();
    MutexLock lock(r.mu);
    int tid = 0;
    for (const auto& buf : r.buffers) {
      MutexLock buf_lock(buf->mu);
      if (buf->chunks.empty()) continue;
      ++tid;
      // The fixed prefix alone is 62 chars; leave generous room for the
      // tid digits so multi-digit track ids never truncate the JSON.
      char meta[128];
      std::snprintf(meta, sizeof(meta),
                    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                    "\"tid\":%d,\"args\":{\"name\":\"",
                    tid);
      body += meta;
      json_escape(&body, buf->name.empty() ? "thread" : buf->name.c_str());
      body += "\"}},\n";
      for (const auto& chunk : buf->chunks) {
        for (const TraceEvent& e : chunk) events.push_back({&e, tid});
      }
    }
    // Stable timeline order helps diffing and downstream tooling.
    std::stable_sort(events.begin(), events.end(),
                     [](const Placed& a, const Placed& b) {
                       return a.event->ts_ns < b.event->ts_ns;
                     });
    for (const Placed& p : events) {
      append_event_json(&body, *p.event, p.tid, r.base_ns);
      body += ",\n";
    }
  }
  if (!body.empty()) body.resize(body.size() - 2);  // trailing ",\n"
  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
  char hdr[96];
  std::snprintf(hdr, sizeof(hdr), "\"collected\":%zu},\n\"traceEvents\":[\n",
                events.size());
  out += hdr;
  out += body;
  out += "\n]}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open trace output: " + path;
    return false;
  }
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  std::fclose(f);
  if (!ok && error != nullptr) *error = "short write to " + path;
  return ok;
}

void Tracer::set_thread_name(const std::string& name) {
  ThreadBuffer& buf = this_thread_buffer();
  MutexLock lock(buf.mu);
  buf.name = name;
}

TraceSpan::TraceSpan(const char* cat, const char* name, double vt,
                     std::uint64_t flow)
    : cat_(cat), name_(name), vt0_(vt), vt1_(kNoVt), flow_(flow) {
  // A null name means "untraced" — callers use it to gate spans on data
  // (e.g. GEMM size thresholds) without an #if around the declaration.
  if (name_ == nullptr || !Tracer::enabled()) return;
  active_ = true;
  start_ns_ = wall_now_ns();
}

TraceSpan::~TraceSpan() {
  if (!active_ || !Tracer::enabled()) return;
  TraceEvent e;
  e.name = name_;
  e.cat = cat_;
  e.phase = 'X';
  e.ts_ns = start_ns_;
  e.dur_ns = wall_now_ns() - start_ns_;
  e.vt0 = vt0_;
  e.vt1 = vt1_;
  e.flow = flow_;
  record(e);
}

void trace_instant(const char* cat, const char* name, double vt,
                   std::uint64_t flow) {
  if (!Tracer::enabled()) return;
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.phase = 'i';
  e.ts_ns = wall_now_ns();
  e.vt0 = vt;
  e.flow = flow;
  record(e);
}

namespace {
void trace_flow(char phase, const char* name, std::uint64_t id, double vt) {
  if (!Tracer::enabled()) return;
  TraceEvent e;
  e.name = name;
  e.cat = "flow";
  e.phase = phase;
  e.ts_ns = wall_now_ns();
  e.vt0 = vt;
  e.flow = id;
  record(e);
}
}  // namespace

void trace_flow_begin(const char* name, std::uint64_t id, double vt) {
  trace_flow('s', name, id, vt);
}
void trace_flow_step(const char* name, std::uint64_t id, double vt) {
  trace_flow('t', name, id, vt);
}
void trace_flow_end(const char* name, std::uint64_t id, double vt) {
  trace_flow('f', name, id, vt);
}

void trace_counter(const char* name, double value) {
  if (!Tracer::enabled()) return;
  TraceEvent e;
  e.name = name;
  e.cat = "metric";
  e.phase = 'C';
  e.ts_ns = wall_now_ns();
  e.value = value;
  record(e);
}

}  // namespace hetsgd::obs

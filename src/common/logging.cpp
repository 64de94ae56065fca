#include "common/logging.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace hetsgd {
namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kInfo)};
std::mutex g_io_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo:  return "INFO ";
    case LogLevel::kWarn:  return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff:   return "OFF  ";
  }
  return "?????";
}

}  // namespace

void set_log_level(LogLevel level) {
  // Release/acquire so a thread that observes the new level also observes
  // everything the configuring thread did before raising it (free on
  // x86-64; a relaxed level read is not worth an unordered visibility
  // surprise on weaker machines).
  g_level.store(static_cast<int>(level), std::memory_order_release);
}

LogLevel log_level() {
  return static_cast<LogLevel>(g_level.load(std::memory_order_acquire));
}

void log_message(LogLevel level, const char* tag, const char* fmt, ...) {
  if (static_cast<int>(level) < g_level.load(std::memory_order_acquire)) {
    return;
  }
  char body[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(body, sizeof(body), fmt, args);
  va_end(args);

  std::lock_guard<std::mutex> lock(g_io_mutex);
  std::fprintf(stderr, "[%s][%s] %s\n", level_name(level), tag, body);
}

}  // namespace hetsgd

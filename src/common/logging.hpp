// Minimal thread-safe leveled logger.
//
// The framework's coordinator and workers run as free-standing threads; all
// diagnostics funnel through here so interleaved lines stay intact.
#pragma once

#include <cstdarg>

namespace hetsgd {

enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

// Global threshold; messages below it are dropped. Defaults to kInfo.
void set_log_level(LogLevel level);
LogLevel log_level();

// printf-style logging. `tag` identifies the subsystem ("coord", "cpu0", ...).
void log_message(LogLevel level, const char* tag, const char* fmt, ...)
    __attribute__((format(printf, 3, 4)));

#define HETSGD_LOG_TRACE(tag, ...) \
  ::hetsgd::log_message(::hetsgd::LogLevel::kTrace, tag, __VA_ARGS__)
#define HETSGD_LOG_DEBUG(tag, ...) \
  ::hetsgd::log_message(::hetsgd::LogLevel::kDebug, tag, __VA_ARGS__)
#define HETSGD_LOG_INFO(tag, ...) \
  ::hetsgd::log_message(::hetsgd::LogLevel::kInfo, tag, __VA_ARGS__)
#define HETSGD_LOG_WARN(tag, ...) \
  ::hetsgd::log_message(::hetsgd::LogLevel::kWarn, tag, __VA_ARGS__)
#define HETSGD_LOG_ERROR(tag, ...) \
  ::hetsgd::log_message(::hetsgd::LogLevel::kError, tag, __VA_ARGS__)

}  // namespace hetsgd

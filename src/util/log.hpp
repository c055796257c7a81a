// Minimal leveled logger. Off by default so simulations stay quiet and fast;
// tests and examples raise the level to trace protocol behaviour.
#pragma once

#include <sstream>
#include <string>
#include <utility>

namespace scmp {

enum class LogLevel { kOff = 0, kError, kInfo, kDebug, kTrace };

/// Process-wide log level. Reads and writes are atomic (relaxed), so any
/// thread may log concurrently with a level change without a data race.
LogLevel log_level();
void set_log_level(LogLevel level);

/// Writes one line to stderr if `level` is enabled.
void log_line(LogLevel level, const std::string& msg);

namespace detail {

template <typename... Args>
std::string concat(Args&&... args) {
  std::ostringstream ss;
  ((void)(ss << std::forward<Args>(args)), ...);
  return ss.str();
}

}  // namespace detail

template <typename... Args>
void log_error(Args&&... args) {
  if (log_level() >= LogLevel::kError)
    log_line(LogLevel::kError, detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
void log_info(Args&&... args) {
  if (log_level() >= LogLevel::kInfo)
    log_line(LogLevel::kInfo, detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
void log_debug(Args&&... args) {
  if (log_level() >= LogLevel::kDebug)
    log_line(LogLevel::kDebug, detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
void log_trace(Args&&... args) {
  if (log_level() >= LogLevel::kTrace)
    log_line(LogLevel::kTrace, detail::concat(std::forward<Args>(args)...));
}

}  // namespace scmp

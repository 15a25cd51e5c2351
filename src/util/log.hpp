// Lightweight leveled logger, modelled on the role Log4j plays in the paper's
// prototype (§5.1): continuous extraction of human-readable progress lines.
// Structured metrics go through metrics::Registry instead; this logger is for
// narration and diagnostics only.
#pragma once

#include <iosfwd>
#include <sstream>
#include <string>
#include <string_view>

namespace roadrunner::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global logger configuration. Emission and reconfiguration are both
/// serialized with one internal mutex: set_sink may be called mid-run from
/// any thread, and an in-flight message finishes against the old sink
/// before the swap takes effect. The *old* sink must stay alive until
/// set_sink returns (after that it is never touched again).
class Log {
 public:
  static void set_level(LogLevel level);

  /// Redirects output (default: std::clog). Pass nullptr to restore default.
  /// Serialized with the emission mutex — safe to call while other threads
  /// are logging.
  static void set_sink(std::ostream* sink);

  static void write(LogLevel level, std::string_view component,
                    std::string_view message);
};

/// Builds a message with ostream syntax and emits it on destruction.
class LogLine {
 public:
  LogLine(LogLevel level, std::string_view component)
      : level_{level}, component_{component} {}
  ~LogLine() { Log::write(level_, component_, stream_.str()); }

  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  std::ostringstream stream_;
};

}  // namespace roadrunner::util

#define RR_LOG_DEBUG(component) \
  ::roadrunner::util::LogLine(::roadrunner::util::LogLevel::kDebug, component)
#define RR_LOG_INFO(component) \
  ::roadrunner::util::LogLine(::roadrunner::util::LogLevel::kInfo, component)
#define RR_LOG_WARN(component) \
  ::roadrunner::util::LogLine(::roadrunner::util::LogLevel::kWarn, component)
#define RR_LOG_ERROR(component) \
  ::roadrunner::util::LogLine(::roadrunner::util::LogLevel::kError, component)

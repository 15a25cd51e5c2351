#include "util/log.hpp"

#include <atomic>
#include <iostream>

#include "util/sync.hpp"

namespace roadrunner::util {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};
// Guarded by g_emit_mutex (not atomic): a sink swap must wait for the
// message currently being written, or the old stream could be destroyed
// mid-emission. The annotation makes clang verify that discipline.
Mutex g_emit_mutex;
std::ostream* g_sink RR_GUARDED_BY(g_emit_mutex) = nullptr;

constexpr std::string_view level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?????";
}
}  // namespace

void Log::set_level(LogLevel level) { g_level.store(level); }
void Log::set_sink(std::ostream* sink) {
  MutexLock lock{g_emit_mutex};
  g_sink = sink;
}

void Log::write(LogLevel level, std::string_view component,
                std::string_view message) {
  if (level < g_level.load()) return;
  MutexLock lock{g_emit_mutex};
  std::ostream* sink = g_sink;
  if (sink == nullptr) sink = &std::clog;
  (*sink) << '[' << level_name(level) << "] [" << component << "] " << message
          << '\n';
}

}  // namespace roadrunner::util

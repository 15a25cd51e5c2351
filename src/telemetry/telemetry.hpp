// Wall-clock telemetry: where does the *host* time of a run go? The
// simulated-time side of observability is covered by metrics::Registry
// (timestamped series/counters) and core::EventTrace (typed sim events);
// this layer profiles the simulator itself — RAII spans with categories,
// process-wide counters and gauges, per-thread event buffers drained into
// one sink, and two exporters: Chrome trace_event JSON (loadable in
// chrome://tracing or Perfetto) and a plain-text per-category summary.
//
// Compiled in but disabled by default: until telemetry::set_enabled(true),
// every instrumentation site costs one relaxed atomic load and a branch —
// no clock read, no allocation, no lock. The ledger's trace.overhead_frac
// (traced wall / untraced wall - 1) measures what recording costs.
// Recording is thread-safe: each thread appends to its own buffer, so hot
// paths never contend on a global lock; buffers flush to the central store
// when full and are drained on export.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/sync.hpp"

namespace roadrunner::telemetry {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// The fast-path gate every span/counter site checks first. Relaxed load:
/// enabling mid-run takes effect "soon", which is all profiling needs.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Turns recording on or off process-wide. Spans that started while enabled
/// record on destruction even if disabled meanwhile (start-gated).
void set_enabled(bool on);

/// One completed span. Times are relative to the process telemetry epoch
/// (the steady-clock instant the sink was first touched).
struct SpanEvent {
  std::string name;
  std::string category;
  std::string args;  ///< freeform detail shown in the trace viewer; may be ""
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;  ///< small per-thread id assigned on first record
};

/// Process-wide telemetry sink. All methods are thread-safe.
class Telemetry {
 public:
  static Telemetry& instance();

  /// Appends a finished span to the calling thread's buffer (sets tid).
  void record(SpanEvent event);

  /// Atomically adds `delta` to the named counter (exact for integer
  /// deltas under any thread interleaving; see telemetry_test).
  void counter_add(std::string_view name, double delta = 1.0);

  /// Overwrites the named gauge (last writer wins).
  void gauge_set(std::string_view name, double value);

  /// Drains every thread buffer into the central store and returns a copy
  /// of all spans recorded so far (unordered across threads).
  [[nodiscard]] std::vector<SpanEvent> snapshot();

  [[nodiscard]] std::map<std::string, double> counters() const;
  [[nodiscard]] std::map<std::string, double> gauges() const;

  /// Chrome trace_event JSON (object format): complete "X" events with
  /// name/cat/ph/ts/dur/pid/tid (+args.detail when set), counters as final
  /// "C" events. ts/dur are microseconds. Loads in chrome://tracing and
  /// https://ui.perfetto.dev.
  void export_chrome_trace(std::ostream& out);

  /// Per-category profile: span count, total/mean/p95 wall milliseconds,
  /// and % of the observed window (first span start to last span end).
  /// Nested spans both count toward their categories, so percentages need
  /// not sum to 100.
  void write_summary(std::ostream& out);

  /// Drops all recorded spans and zeroes counters/gauges. Counter cells
  /// stay allocated, so cached Counter handles remain valid (tests).
  void clear();

  /// Stable cell for a counter name; lives until process exit.
  std::atomic<double>& counter_cell(std::string_view name);

  /// Steady-clock instant all span timestamps are relative to.
  [[nodiscard]] std::chrono::steady_clock::time_point epoch() const {
    return epoch_;
  }

 private:
  struct ThreadBuffer {
    util::Mutex mutex;  ///< owner appends; exporters drain
    std::vector<SpanEvent> events RR_GUARDED_BY(mutex);
    std::uint32_t tid = 0;  ///< written once at registration, then read-only
  };

  Telemetry() = default;

  ThreadBuffer& local_buffer() RR_EXCLUDES(registry_mutex_);
  void flush_locked(ThreadBuffer& buffer)
      RR_REQUIRES(buffer.mutex) RR_EXCLUDES(store_mutex_);

  // Lock order (outer to inner): registry -> buffer -> store; scalar
  // independent.
  mutable util::Mutex registry_mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_
      RR_GUARDED_BY(registry_mutex_);
  std::uint32_t next_tid_ RR_GUARDED_BY(registry_mutex_) = 1;

  util::Mutex store_mutex_;
  std::vector<SpanEvent> store_ RR_GUARDED_BY(store_mutex_);

  mutable util::Mutex scalar_mutex_;
  std::map<std::string, std::unique_ptr<std::atomic<double>>> counters_
      RR_GUARDED_BY(scalar_mutex_);
  std::map<std::string, double> gauges_ RR_GUARDED_BY(scalar_mutex_);

  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

/// RAII scoped wall-clock timer. Constructing one while telemetry is
/// disabled is a single branch; while enabled it reads the steady clock
/// twice and appends one event to the thread-local buffer. `category` and
/// `name` must be string literals (or otherwise outlive the span).
class Span {
 public:
  Span(const char* category, const char* name) : active_{enabled()} {
    if (active_) {
      category_ = category;
      name_ = name;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~Span() {
    if (active_) finish();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches freeform detail ("hash=1f2e... point=vehicles=50"). Callers
  /// should build the string only under telemetry::enabled().
  void set_args(std::string args) {
    if (active_) args_ = std::move(args);
  }

  [[nodiscard]] bool active() const { return active_; }

 private:
  void finish();

  bool active_;
  const char* category_ = "";
  const char* name_ = "";
  std::string args_;
  std::chrono::steady_clock::time_point start_;
};

/// Named counter handle that caches its cell after the first add, so hot
/// paths pay one atomic fetch_add instead of a map lookup. Safe to declare
/// `static` at the instrumentation site and share across threads.
class Counter {
 public:
  explicit constexpr Counter(const char* name) : name_{name} {}

  void add(double delta = 1.0) {
    if (!enabled()) return;
    std::atomic<double>* cell = cell_.load(std::memory_order_acquire);
    if (cell == nullptr) {
      cell = &Telemetry::instance().counter_cell(name_);
      cell_.store(cell, std::memory_order_release);
    }
    cell->fetch_add(delta, std::memory_order_relaxed);
  }

 private:
  const char* name_;
  std::atomic<std::atomic<double>*> cell_{nullptr};
};

/// Named gauge handle (thin sugar over Telemetry::gauge_set).
class Gauge {
 public:
  explicit constexpr Gauge(const char* name) : name_{name} {}

  void set(double value) {
    if (enabled()) Telemetry::instance().gauge_set(name_, value);
  }

 private:
  const char* name_;
};

/// CLI wiring shared by roadrunner_campaign and the benches: enables
/// telemetry when either output is requested, and on destruction writes
/// the Chrome trace to `trace_path` (if non-empty) and/or the per-category
/// summary to stderr (if `profile`). Declare one at the top of main().
class TraceSession {
 public:
  TraceSession(std::string trace_path, bool profile);
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

 private:
  std::string trace_path_;
  bool profile_;
};

}  // namespace roadrunner::telemetry

#define RR_TELEMETRY_CONCAT_INNER(a, b) a##b
#define RR_TELEMETRY_CONCAT(a, b) RR_TELEMETRY_CONCAT_INNER(a, b)

/// Scoped wall-clock span: RR_TSPAN("sim", "sim.mobility_tick");
#define RR_TSPAN(category, name)                              \
  ::roadrunner::telemetry::Span RR_TELEMETRY_CONCAT(          \
      rr_tspan_, __LINE__) {                                  \
    (category), (name)                                        \
  }

#include "telemetry/telemetry.hpp"

namespace roadrunner::telemetry {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {
/// Events a thread accumulates before pushing them to the central store;
/// bounds per-thread memory for span-heavy runs with many threads (pool
/// workers, campaign workers, and the threads that wait on them).
constexpr std::size_t kFlushThreshold = 4096;
}  // namespace

void set_enabled(bool on) {
  if (on) {
    // Touch the sink first so the epoch predates every recorded span.
    (void)Telemetry::instance();
  }
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

Telemetry& Telemetry::instance() {
  static Telemetry sink;
  return sink;
}

Telemetry::ThreadBuffer& Telemetry::local_buffer() {
  // Raw pointer into the sink-owned registry: the buffer outlives the
  // thread, so exporting after a worker exits still sees its spans.
  thread_local ThreadBuffer* t_buffer = nullptr;
  ThreadBuffer* buf = t_buffer;
  if (buf == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    buf = owned.get();
    util::MutexLock lock{registry_mutex_};
    buf->tid = next_tid_++;
    buffers_.push_back(std::move(owned));
    t_buffer = buf;
  }
  return *buf;
}

void Telemetry::flush_locked(ThreadBuffer& buffer) {
  util::MutexLock store_lock{store_mutex_};
  store_.insert(store_.end(), std::make_move_iterator(buffer.events.begin()),
                std::make_move_iterator(buffer.events.end()));
  buffer.events.clear();
}

void Telemetry::record(SpanEvent event) {
  ThreadBuffer& buffer = local_buffer();
  util::MutexLock lock{buffer.mutex};
  event.tid = buffer.tid;
  buffer.events.push_back(std::move(event));
  if (buffer.events.size() >= kFlushThreshold) flush_locked(buffer);
}

std::atomic<double>& Telemetry::counter_cell(std::string_view name) {
  util::MutexLock lock{scalar_mutex_};
  auto it = counters_.find(std::string{name});
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string{name},
                      std::make_unique<std::atomic<double>>(0.0))
             .first;
  }
  return *it->second;
}

void Telemetry::counter_add(std::string_view name, double delta) {
  counter_cell(name).fetch_add(delta, std::memory_order_relaxed);
}

void Telemetry::gauge_set(std::string_view name, double value) {
  util::MutexLock lock{scalar_mutex_};
  gauges_[std::string{name}] = value;
}

std::vector<SpanEvent> Telemetry::snapshot() {
  util::MutexLock registry_lock{registry_mutex_};
  for (auto& buffer : buffers_) {
    util::MutexLock lock{buffer->mutex};
    if (!buffer->events.empty()) flush_locked(*buffer);
  }
  util::MutexLock store_lock{store_mutex_};
  return store_;
}

std::map<std::string, double> Telemetry::counters() const {
  util::MutexLock lock{scalar_mutex_};
  std::map<std::string, double> out;
  for (const auto& [name, cell] : counters_) {
    out[name] = cell->load(std::memory_order_relaxed);
  }
  return out;
}

std::map<std::string, double> Telemetry::gauges() const {
  util::MutexLock lock{scalar_mutex_};
  return gauges_;
}

void Telemetry::clear() {
  util::MutexLock registry_lock{registry_mutex_};
  for (auto& buffer : buffers_) {
    util::MutexLock lock{buffer->mutex};
    buffer->events.clear();
  }
  {
    util::MutexLock store_lock{store_mutex_};
    store_.clear();
  }
  util::MutexLock scalar_lock{scalar_mutex_};
  for (auto& [name, cell] : counters_) {
    cell->store(0.0, std::memory_order_relaxed);
  }
  gauges_.clear();
}

void Span::finish() {
  const auto end = std::chrono::steady_clock::now();
  Telemetry& sink = Telemetry::instance();
  SpanEvent event;
  event.name = name_;
  event.category = category_;
  event.args = std::move(args_);
  // set_enabled touches the sink before raising the flag, so the epoch
  // predates every span; clamp anyway in case of direct instance() use.
  const auto since_epoch =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start_ -
                                                           sink.epoch());
  event.start_ns = since_epoch.count() < 0
                       ? 0
                       : static_cast<std::uint64_t>(since_epoch.count());
  event.dur_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
          .count());
  sink.record(std::move(event));
}

}  // namespace roadrunner::telemetry

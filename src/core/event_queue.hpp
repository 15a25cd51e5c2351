// Discrete-event queue: the Core Simulator "proceeds in discrete steps
// through the simulation time" (§4). Events at equal times execute in
// scheduling order (FIFO tie-break via a sequence number), which is what
// makes whole runs deterministic.
//
// BasicEventQueue is generic over the event payload. The Simulator
// instantiates it with a *typed* payload (core::SimEvent) so the pending
// queue can be serialized into a checkpoint and rebuilt bit-identically —
// closures cannot be persisted, typed descriptors can.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/sim_time.hpp"

namespace roadrunner::core {

template <typename Payload>
class BasicEventQueue {
 public:
  struct Entry {
    SimTime at = 0.0;
    std::uint64_t seq = 0;
    Payload payload;
  };

  /// Schedules `payload` at absolute time `at`. Scheduling in the past
  /// (before the last popped event) throws std::logic_error — it would
  /// violate causality.
  void schedule(SimTime at, Payload payload) {
    if (at < current_time_) {
      throw std::logic_error{"EventQueue: scheduling into the past"};
    }
    heap_.emplace_back(at, next_seq_++, std::move(payload));
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Time of the next event; empty() must be false.
  [[nodiscard]] SimTime next_time() const {
    if (heap_.empty()) throw std::logic_error{"EventQueue::next_time: empty"};
    return heap_.front().at;
  }

  /// Pops the next event, advances the causality watermark, and returns its
  /// payload.
  Payload pop_next() {
    if (heap_.empty()) throw std::logic_error{"EventQueue::pop_next: empty"};
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    current_time_ = entry.at;
    ++executed_;
    return std::move(entry.payload);
  }

  /// Time of the most recently executed event (0 before any).
  [[nodiscard]] SimTime current_time() const { return current_time_; }

  [[nodiscard]] std::uint64_t executed_count() const { return executed_; }

  // ----- checkpoint support -------------------------------------------------
  /// The pending entries in unspecified (heap) order. Execution order is a
  /// strict total order on (at, seq), so serializing in any order and
  /// re-scheduling via restore() reproduces the exact pop sequence.
  [[nodiscard]] const std::vector<Entry>& entries() const { return heap_; }

  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }

  /// Reinstates a saved queue: pending entries (any order, seq values
  /// preserved) plus the three progress counters.
  void restore(std::vector<Entry> entries, std::uint64_t next_seq,
               std::uint64_t executed, SimTime current_time) {
    heap_ = std::move(entries);
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    next_seq_ = next_seq;
    executed_ = executed;
    current_time_ = current_time;
  }

 private:
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.at > b.at || (a.at == b.at && a.seq > b.seq);
    }
  };

  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  SimTime current_time_ = 0.0;
};

}  // namespace roadrunner::core

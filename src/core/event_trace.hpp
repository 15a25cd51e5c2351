// Structured event trace: the simulator's audit log. Where the paper's
// prototype streams Log4j lines "to represent the state of every actor ...
// at every point in simulated time" (§5.1), this records typed events
// (messages, trainings, encounters, power flips) that tests and analysts
// can filter and export as CSV. Disabled by default (zero overhead beyond
// one branch per event); enable via SimulatorConfig::trace_events.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/agent.hpp"
#include "core/sim_time.hpp"

namespace roadrunner::core {

enum class TraceKind : std::uint8_t {
  kMessageSent,
  kMessageDelivered,
  kMessageFailed,
  kTrainingStarted,
  kTrainingCompleted,
  kTrainingDiscarded,
  kEncounterBegin,
  kEncounterEnd,
  kPowerOn,
  kPowerOff,
  kVehicleCrash,       ///< scripted crash fired (detail: lost state)
  kMessageCorrupted,   ///< delivered payload flagged corrupted by a fault
};

std::string to_string(TraceKind kind);

struct TraceEvent {
  SimTime time_s = 0.0;
  TraceKind kind = TraceKind::kMessageSent;
  AgentId a = kNoAgent;  ///< primary agent (sender, trainee, ...)
  AgentId b = kNoAgent;  ///< secondary agent (receiver, peer) if any
  std::string detail;    ///< tag, failure reason, ...

  template <class Ar>
  void fields(Ar& ar) {
    ar(time_s, kind, a, b, detail);
    ar.check(kind <= TraceKind::kMessageCorrupted, "bad trace kind");
  }
};

class EventTrace {
 public:
  explicit EventTrace(bool enabled = false) : enabled_{enabled} {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  void record(SimTime time_s, TraceKind kind, AgentId a,
              AgentId b = kNoAgent, std::string detail = {});

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }

  /// Events of one kind, in order.
  [[nodiscard]] std::vector<TraceEvent> filter(TraceKind kind) const;

  /// time_s,kind,a,b,detail — cloud/absent agents print as "-".
  void export_csv(std::ostream& out) const;

  void clear() { events_.clear(); }

  /// The recorded events as an archive field list (util/archive.hpp). A
  /// disabled trace (e.g. a fork that turns tracing off) reads the saved
  /// history and drops it.
  template <class Ar>
  void fields(Ar& ar) {
    ar(events_);
    if (!enabled_) events_.clear();
  }

 private:
  bool enabled_;
  std::vector<TraceEvent> events_;
};

}  // namespace roadrunner::core

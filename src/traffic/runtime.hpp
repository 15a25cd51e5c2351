// Runtime side of the traffic subsystem. The generator bakes queue/platoon
// behaviour into the FleetModel (replay stays the contract); TrafficRuntime
// replays the static TrafficTimeline on the Simulator's deterministic event
// queue — one kSignalPhase event per phase change, one kPlatoonManeuver per
// membership transition — maintaining the live signal phases, queue
// occupancy, and platoon membership that checkpoint format v5 carries, and
// feeding the traffic_* / platoon_* metrics.
//
// Like FaultInjector and AdversaryController, a default-constructed runtime
// is inert; the timeline itself is rebuilt deterministically from the
// embedded INI on restore, so only cursors/counters are serialized.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "metrics/registry.hpp"
#include "traffic/traffic_model.hpp"

namespace roadrunner::traffic {

class TrafficRuntime {
 public:
  TrafficRuntime() = default;
  explicit TrafficRuntime(TrafficTimeline timeline);

  /// True when there are timeline events to replay (signals or platoons).
  [[nodiscard]] bool enabled() const { return !timeline_.empty(); }
  /// True when a traffic plan was present at all (even regime=free_flow):
  /// traffic_* counters are exported, as zeros if nothing fired.
  [[nodiscard]] bool configured() const { return timeline_.configured; }

  [[nodiscard]] const TrafficTimeline& timeline() const { return timeline_; }

  /// Applies phase change `index` (dispatch of a kSignalPhase event):
  /// updates the live phase + queue occupancy and emits the
  /// traffic_queue_len series point at its true timestamp.
  void apply_phase(std::size_t index, metrics::Registry& metrics);

  /// Applies maneuver `index` (dispatch of a kPlatoonManeuver event):
  /// updates platoon membership and the platoon_members series.
  void apply_maneuver(std::size_t index, metrics::Registry& metrics);

  /// End-of-run export. Sets every traffic_*/platoon_* counter (zeros
  /// materialized) so sweep points share one column set. No-op unless
  /// configured().
  void export_counters(metrics::Registry& metrics) const;

  // ---- live state (checkpoint section v5) --------------------------------
  [[nodiscard]] bool ns_green(std::size_t signal) const {
    return ns_green_[signal] != 0;
  }
  [[nodiscard]] std::uint32_t queue_len(std::size_t signal) const {
    return ns_queue_[signal] + ew_queue_[signal];
  }
  [[nodiscard]] std::uint32_t platoon_size(std::size_t platoon) const {
    return platoon_size_[platoon];
  }
  [[nodiscard]] std::uint64_t phases_applied() const {
    return phases_applied_;
  }
  [[nodiscard]] std::uint64_t maneuvers_applied() const {
    return maneuvers_applied_;
  }

  /// The dynamic state only (phases, occupancy, membership, counters) as
  /// an archive field list (util/archive.hpp); the timeline is static per
  /// (seed, plan). A signal or platoon count that differs from this
  /// timeline's throws std::runtime_error: the plan must not change across
  /// a restore.
  template <class Ar>
  void fields(Ar& ar) {
    if (ar.length(ns_green_.size()) != ns_green_.size()) {
      throw std::runtime_error{
          "traffic: snapshot signal count mismatch; the traffic plan must "
          "not change across a restore"};
    }
    ar.items(ns_green_);
    ar.items(ns_queue_);
    ar.items(ew_queue_);
    if (ar.length(platoon_size_.size()) != platoon_size_.size()) {
      throw std::runtime_error{
          "traffic: snapshot platoon count mismatch; the traffic plan must "
          "not change across a restore"};
    }
    ar.items(platoon_size_);
    ar(phases_applied_, maneuvers_applied_, joins_, leaves_, splits_);
  }

 private:
  TrafficTimeline timeline_;
  // Live state, indexed by signal / platoon. u8 instead of bool so the
  // vector serializes without bit-packing surprises.
  std::vector<std::uint8_t> ns_green_;
  std::vector<std::uint32_t> ns_queue_;
  std::vector<std::uint32_t> ew_queue_;
  std::vector<std::uint32_t> platoon_size_;
  std::uint64_t phases_applied_ = 0;
  std::uint64_t maneuvers_applied_ = 0;
  std::uint64_t joins_ = 0;
  std::uint64_t leaves_ = 0;
  std::uint64_t splits_ = 0;
};

}  // namespace roadrunner::traffic

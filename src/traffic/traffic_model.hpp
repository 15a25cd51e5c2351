// Queue-aware city fleet generation (ROADMAP 3a/3b). `make_traffic_fleet`
// replaces `make_city_fleet` when a TrafficPlan is active: vehicles follow
// the same staircase trips drawn from the same per-vehicle RNG forks, but a
// joint event-driven pass routes them through signalized intersections —
// decelerating into FIFO queues at red, draining head-first on green — and
// derives platoon followers as headway-shifted replays of their leader. The
// output is still a plain FleetModel (the replay contract of DESIGN.md §4
// holds: the Simulator never mutates mobility), plus a TrafficTimeline of
// signal-phase changes and platoon maneuvers that TrafficRuntime schedules
// on the deterministic event queue for metrics and checkpointing.
//
// Determinism: every vehicle keeps its own "vehicle-i" fork and the exact
// draw order of make_city_vehicle, so enabling traffic never perturbs the
// random stream of any vehicle — queue delays shift *times*, not draws, and
// a vehicle that never stops at a signal keeps a bit-identical track.
// Platoon maneuvers draw from the master seed's "platoon" fork.
#pragma once

#include <cstdint>
#include <vector>

#include "mobility/city_model.hpp"
#include "mobility/fleet_model.hpp"
#include "traffic/traffic_plan.hpp"

namespace roadrunner::traffic {

/// One signal phase transition. Emitted at generation time, replayed as a
/// kSignalPhase event; queue occupancy is sampled at the switch instant.
struct PhaseChange {
  double time_s = 0.0;
  std::uint32_t signal = 0;
  bool ns_green = true;
  std::uint32_t ns_queue = 0;
  std::uint32_t ew_queue = 0;
};

enum class ManeuverKind : std::uint8_t {
  kFormation = 0,
  kJoin = 1,
  kLeave = 2,
  kSplit = 3,
};

/// One platoon membership transition, replayed as a kPlatoonManeuver event.
struct Maneuver {
  double time_s = 0.0;
  std::uint32_t platoon = 0;
  ManeuverKind kind = ManeuverKind::kFormation;
  std::uint32_t vehicle = 0;     ///< leader (formation) or the moving member
  std::uint32_t size_after = 0;  ///< active members after the maneuver
};

/// One completed stop at a signal (generation-time log; feeds the
/// traffic_total_stops / stop-time aggregates and the FIFO-order tests).
struct StopRecord {
  double arrive_s = 0.0;
  double depart_s = 0.0;
  std::uint32_t signal = 0;
  std::uint32_t vehicle = 0;
  bool ns_axis = false;  ///< true when the vehicle approached along y
};

struct TrafficTimeline {
  /// Plan was present at all (even regime=free_flow): gates traffic_* metric
  /// export so a regime sweep keeps one column set.
  bool configured = false;
  std::uint32_t signal_count = 0;
  std::uint32_t platoon_count = 0;
  std::vector<PhaseChange> phases;      ///< time-ordered
  std::vector<Maneuver> maneuvers;      ///< time-ordered
  std::vector<StopRecord> stops;        ///< ordered by depart_s
  double total_stop_time_s = 0.0;
  std::uint64_t total_stops = 0;
  std::uint32_t max_queue_len = 0;      ///< per-approach maximum

  [[nodiscard]] bool empty() const {
    return phases.empty() && maneuvers.empty();
  }
};

struct TrafficFleet {
  mobility::FleetModel fleet;
  TrafficTimeline timeline;
};

/// Generates the city fleet under `plan`. With nothing active this is
/// exactly `make_city_fleet` (bit-identical) plus an empty timeline.
/// Signals must sit on the city grid ((gx, gy) within bounds) and platoons
/// must fit the vehicle range (count * size <= vehicle_count); violations
/// throw std::invalid_argument.
TrafficFleet make_traffic_fleet(std::size_t vehicle_count,
                                const mobility::CityModelConfig& config,
                                const TrafficPlan& plan);

}  // namespace roadrunner::traffic

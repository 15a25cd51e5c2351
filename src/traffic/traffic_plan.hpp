// Traffic infrastructure plan (ROADMAP 3a/3b): signalized intersections and
// platoon formations parsed from INI sections. Like FaultPlan/AdversaryPlan,
// the plan is pure data — `make_traffic_fleet` interprets it at fleet
// generation time (mobility replay stays the runtime contract, the same way
// drift is baked into the workload stream), and TrafficRuntime replays the
// resulting signal/maneuver timeline on the deterministic event queue for
// metrics and checkpointing.
//
// Plan grammar:
//
//   [traffic]
//   regime = auto             # auto | free_flow | signalized | platooned
//   headway_s = 1.5           # queue drain headway between departures
//   startup_s = 2.0           # head-of-queue startup lag at green
//   spacing_m = 7.0           # stopped-vehicle spacing behind the stop line
//
//   [traffic.0]               # one signalized intersection on the city grid
//   gx = 5                    # grid column (intersection x = gx * block_m)
//   gy = 5                    # grid row
//   controller = fixed        # fixed | actuated
//   green_ns_s = 30           # fixed: green duration for the NS axis
//   green_ew_s = 30           # fixed: green duration for the EW axis
//   offset_s = 0              # fixed: first switch at offset + green_ns
//   min_green_s = 8           # actuated: shortest green before a decision
//   max_green_s = 60          # actuated: hard cap on one green
//   extend_s = 4              # actuated: extension granted while draining
//
//   [platoon]
//   count = 2                 # number of platoons (leaders + followers are
//   size = 4                  # taken from the tail of the vehicle range)
//   headway_s = 1.0           # constant time gap between members
//   join_probability = 0.5    # tail join maneuver mid-run
//   leave_probability = 0.5   # tail leave maneuver
//   split_probability = 0.25  # rear half detaches
//
// `regime` gates what is active without editing the sections — it is the
// campaign sweep axis (`traffic.regime`) behind the free-flow / signalized /
// signalized+platoons ablation in examples/traffic.ini. `auto` activates
// whatever is configured; `free_flow` disables everything while keeping the
// plan "configured" so `traffic_*` counters still materialize (zeros) and
// sweep points share one column set.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/ini.hpp"

namespace roadrunner::traffic {

enum class Regime : std::uint8_t {
  kAuto = 0,
  kFreeFlow = 1,
  kSignalized = 2,
  kPlatooned = 3,
};

enum class ControllerKind : std::uint8_t {
  kFixedTime = 0,
  kActuated = 1,
};

/// One signalized intersection at city-grid node (gx, gy). Two phases:
/// NS-axis green and EW-axis green (no amber — the queue model absorbs it
/// into startup_s).
struct SignalSpec {
  int gx = 0;
  int gy = 0;
  ControllerKind controller = ControllerKind::kFixedTime;
  double green_ns_s = 30.0;
  double green_ew_s = 30.0;
  double offset_s = 0.0;
  double min_green_s = 8.0;
  double max_green_s = 60.0;
  double extend_s = 4.0;
};

/// Platoon formation parameters ([platoon]). Platoon members are allocated
/// deterministically from the tail of the vehicle index range: platoon p
/// owns vehicles [V - count*size + p*size, ... + size), the first being the
/// leader. Maneuver draws come from the master seed's "platoon" fork.
struct PlatoonSpec {
  std::size_t count = 0;
  std::size_t size = 4;
  double headway_s = 1.0;
  double join_probability = 0.0;
  double leave_probability = 0.0;
  double split_probability = 0.0;
};

struct TrafficPlan {
  Regime regime = Regime::kAuto;
  /// Queue drain parameters shared by every intersection.
  double headway_s = 1.5;
  double startup_s = 2.0;
  double spacing_m = 7.0;
  std::vector<SignalSpec> signals;
  PlatoonSpec platoons;

  /// True when any traffic configuration is present (even regime=free_flow):
  /// gates whether traffic_* metrics are exported at all, so a regime sweep
  /// keeps one column set while untouched experiments see no new metrics.
  [[nodiscard]] bool configured() const {
    return regime != Regime::kAuto || !signals.empty() || platoons.count > 0;
  }

  /// Signalized intersections shape the fleet in this regime.
  [[nodiscard]] bool signals_active() const {
    return regime != Regime::kFreeFlow && !signals.empty();
  }

  /// Platoons form in this regime (signalized-only suppresses them so the
  /// ablation isolates the queueing effect).
  [[nodiscard]] bool platoons_active() const {
    return (regime == Regime::kAuto || regime == Regime::kPlatooned) &&
           platoons.count > 0;
  }

  [[nodiscard]] bool active() const {
    return signals_active() || platoons_active();
  }
};

/// Parses `[traffic]`, all `[traffic.N]` sections, and `[platoon]`. Unknown
/// keys, kinds, or a numbering gap throw std::runtime_error naming the
/// section (same contract as fault/adversary plans).
TrafficPlan plan_from_ini(const util::IniFile& ini);

}  // namespace roadrunner::traffic

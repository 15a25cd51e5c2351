// Scripted concept-drift timelines for the streaming telemetry workload
// (DESIGN.md §13). A DriftPlan is an ordered list of typed drift events
// parsed from `[drift.N]` INI sections; it is pure data — the stream
// generator (workload/stream) interprets it when synthesizing telemetry,
// and the simulator's drift scorer reads shift_times() to measure
// time-to-readapt.
//
// Plan grammar (all keys per `[drift.N]` section, N = 0, 1, ...):
//
//   [drift]
//   severity = 1.0          # scales every magnitude below; 0 disables
//
//   [drift.0]
//   kind = abrupt           # instantaneous regime switch at at_s
//   at_s = 300
//   magnitude = 2.0         # mean displacement in feature units
//   component = all         # affected mixture component index, or "all"
//
//   [drift.1]
//   kind = gradual_front    # weather front expanding from (x_m, y_m):
//   x_m = 0, y_m = 0        # vehicles inside the growing disc sample the
//   start_s = 200           # shifted regime; by end_s the front has swept
//   end_s = 400             # the whole city (radius reach_m)
//   reach_m = 3000
//   magnitude = 2.0
//   component = all
//
//   [drift.2]
//   kind = periodic         # day/night-style sinusoidal modulation
//   start_s = 0, end_s = 1e9
//   period_s = 600
//   magnitude = 1.0
//   component = 0
//
// The displacement *direction* is not part of the plan: the generator draws
// one deterministic unit vector per (event, component) from a dedicated
// forked RNG stream, so the plan stays scale-only (and the `drift.severity`
// campaign axis is a single scalar).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/ini.hpp"

namespace roadrunner::workload {

enum class DriftKind : std::uint8_t {
  kAbrupt = 0,
  kGradualFront = 1,
  kPeriodic = 2,
};

/// Affects every mixture component (the `component = all` default).
inline constexpr std::int32_t kAllComponents = -1;

/// One scripted drift event. A single plain struct for all kinds (tagged by
/// `kind`) keeps plans trivially serializable and severity-scalable;
/// irrelevant fields stay at their defaults.
struct DriftEvent {
  DriftKind kind = DriftKind::kAbrupt;

  /// Mean displacement applied to the affected components, in feature
  /// units. This is the magnitude `severity` scales.
  double magnitude = 1.0;
  /// Affected component index, or kAllComponents.
  std::int32_t component = kAllComponents;

  // --- abrupt ---------------------------------------------------------------
  double at_s = 0.0;

  // --- gradual_front & periodic: active window ------------------------------
  double start_s = 0.0;
  double end_s = std::numeric_limits<double>::infinity();

  // --- gradual_front --------------------------------------------------------
  double x_m = 0.0;
  double y_m = 0.0;
  /// Front radius at end_s; must cover the city for the sweep to complete.
  double reach_m = 0.0;

  // --- periodic -------------------------------------------------------------
  double period_s = 0.0;

  /// Window membership (half-open; a zero-length window is never active).
  [[nodiscard]] bool active_at(double time_s) const {
    return time_s >= start_s && time_s < end_s;
  }

  /// Front radius at `time_s`: 0 before start_s, reach_m from end_s on,
  /// linear in between. Only meaningful for kGradualFront.
  [[nodiscard]] double front_radius_at(double time_s) const;
};

/// An ordered drift timeline plus the severity scalar that scales it.
struct DriftPlan {
  std::vector<DriftEvent> events;
  /// Campaign axis (`drift.severity`): 1 = the plan as written, 0 = no
  /// drift, >1 = harsher shifts. Applied by scaled().
  double severity = 1.0;

  [[nodiscard]] bool empty() const { return events.empty(); }

  /// Applies `severity` to every magnitude and returns the concrete plan
  /// (result severity == 1). Only magnitudes scale — geometry and timing
  /// stay as written, so shift *times* are severity-invariant and readapt
  /// numbers compare across severities. severity <= 0 yields an empty plan.
  [[nodiscard]] DriftPlan scaled() const;

  /// The discrete distribution-shift instants the readapt metrics score:
  /// abrupt events contribute at_s, gradual fronts their completion end_s;
  /// periodic modulation has no discrete shift. Sorted ascending, deduped,
  /// restricted to (0, horizon_s).
  [[nodiscard]] std::vector<double> shift_times(double horizon_s) const;
};

/// Parses `[drift]` (severity) and all `[drift.N]` sections. Unknown kinds
/// or keys and numbering gaps throw std::runtime_error naming the section.
DriftPlan plan_from_ini(const util::IniFile& ini);

}  // namespace roadrunner::workload

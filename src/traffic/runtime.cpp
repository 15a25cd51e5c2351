#include "traffic/runtime.hpp"

#include <numeric>
#include <stdexcept>
#include <utility>

namespace roadrunner::traffic {

TrafficRuntime::TrafficRuntime(TrafficTimeline timeline)
    : timeline_{std::move(timeline)},
      ns_green_(timeline_.signal_count, 1),
      ns_queue_(timeline_.signal_count, 0),
      ew_queue_(timeline_.signal_count, 0),
      platoon_size_(timeline_.platoon_count, 0) {}

void TrafficRuntime::apply_phase(std::size_t index,
                                 metrics::Registry& metrics) {
  if (index >= timeline_.phases.size()) {
    throw std::logic_error{"traffic: phase event index out of range"};
  }
  const PhaseChange& pc = timeline_.phases[index];
  ns_green_[pc.signal] = pc.ns_green ? 1 : 0;
  ns_queue_[pc.signal] = pc.ns_queue;
  ew_queue_[pc.signal] = pc.ew_queue;
  ++phases_applied_;
  std::uint64_t queued = 0;
  for (std::size_t i = 0; i < ns_queue_.size(); ++i) {
    queued += ns_queue_[i] + ew_queue_[i];
  }
  metrics.add_point("traffic_queue_len", pc.time_s,
                    static_cast<double>(queued));
}

void TrafficRuntime::apply_maneuver(std::size_t index,
                                    metrics::Registry& metrics) {
  if (index >= timeline_.maneuvers.size()) {
    throw std::logic_error{"traffic: maneuver event index out of range"};
  }
  const Maneuver& m = timeline_.maneuvers[index];
  platoon_size_[m.platoon] = m.size_after;
  ++maneuvers_applied_;
  switch (m.kind) {
    case ManeuverKind::kFormation: break;
    case ManeuverKind::kJoin: ++joins_; break;
    case ManeuverKind::kLeave: ++leaves_; break;
    case ManeuverKind::kSplit: ++splits_; break;
  }
  const std::uint64_t members = std::accumulate(
      platoon_size_.begin(), platoon_size_.end(), std::uint64_t{0});
  metrics.add_point("platoon_members", m.time_s,
                    static_cast<double>(members));
}

void TrafficRuntime::export_counters(metrics::Registry& metrics) const {
  if (!configured()) return;
  // Fixed column set: every counter is set (zeros included) so campaign CSVs
  // keep identical columns across free_flow/signalized/platooned points.
  metrics.set_counter("traffic_signals",
                      static_cast<double>(timeline_.signal_count));
  metrics.set_counter("traffic_phase_changes",
                      static_cast<double>(phases_applied_));
  metrics.set_counter("traffic_total_stops",
                      static_cast<double>(timeline_.total_stops));
  metrics.set_counter("traffic_total_stop_time_s",
                      timeline_.total_stop_time_s);
  metrics.set_counter("traffic_max_queue_len",
                      static_cast<double>(timeline_.max_queue_len));
  const double mean_stop =
      timeline_.total_stops == 0
          ? 0.0
          : timeline_.total_stop_time_s /
                static_cast<double>(timeline_.total_stops);
  metrics.set_counter("traffic_mean_stop_s", mean_stop);
  metrics.set_counter("platoon_count",
                      static_cast<double>(timeline_.platoon_count));
  metrics.set_counter("platoon_maneuvers",
                      static_cast<double>(maneuvers_applied_));
  metrics.set_counter("platoon_joins", static_cast<double>(joins_));
  metrics.set_counter("platoon_leaves", static_cast<double>(leaves_));
  metrics.set_counter("platoon_splits", static_cast<double>(splits_));
  const std::uint64_t members = std::accumulate(
      platoon_size_.begin(), platoon_size_.end(), std::uint64_t{0});
  metrics.set_counter("platoon_members_final",
                      static_cast<double>(members));
}

}  // namespace roadrunner::traffic

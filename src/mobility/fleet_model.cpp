#include "mobility/fleet_model.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "telemetry/telemetry.hpp"

namespace roadrunner::mobility {

FleetModel::FleetModel(std::vector<VehicleTrack> vehicles)
    : vehicles_{std::move(vehicles)} {
  segments_.reserve(vehicles_.size());
  power_.reserve(vehicles_.size());
  for (const auto& v : vehicles_) {
    if (v.trace.empty()) {
      throw std::invalid_argument{"FleetModel: vehicle with empty trace"};
    }
    // Cursor 0, as a fresh Trace starts; the window is filled on first use.
    const std::vector<TraceSample>& s = v.trace.samples();
    const TraceSample& b = s[s.size() > 1 ? 1 : 0];
    segments_.push_back({s[0].time_s, b.time_s, s[0].position, b.position, 0});
    power_.push_back({false, 0.0, 0.0});
  }
}

NodeId FleetModel::add_static_node(Position position) {
  static_nodes_.push_back(position);
  return vehicles_.size() + static_nodes_.size() - 1;
}

const VehicleTrack& FleetModel::vehicle(NodeId id) const {
  if (!is_vehicle(id)) throw std::out_of_range{"FleetModel::vehicle"};
  return vehicles_[id];
}

void FleetModel::check_node(NodeId id, const char* who) const {
  if (id >= node_count()) throw std::out_of_range{who};
}

inline Position FleetModel::vehicle_position(NodeId id, double time_s) const {
  // Strictly inside the cached segment every cursor history interpolates on
  // it, with Trace::position_at's arithmetic; anything else (sample times,
  // other segments, the clamped ends) replays position_at's cursor rule.
  const Segment& s = segments_[id];
  if (s.t0 < time_s && time_s < s.t1) {
    return lerp(s.p0, s.p1, (time_s - s.t0) / (s.t1 - s.t0));
  }
  return seek_position(id, time_s);
}

Position FleetModel::seek_position(NodeId id, double time_s) const {
  const Trace& trace = vehicles_[id].trace;
  Segment& s = segments_[id];
  const Position p = trace.position_at(time_s, s.cursor);
  if (trace.sample_count() > 1) {
    const TraceSample& a = trace.samples()[s.cursor];
    const TraceSample& b = trace.samples()[s.cursor + 1];
    s = {a.time_s, b.time_s, a.position, b.position, s.cursor};
  }
  return p;
}

inline const PowerState& FleetModel::vehicle_power(NodeId id,
                                                   double time_s) const {
  PowerState& w = power_[id];
  if (!(w.from_s <= time_s && time_s < w.until_s)) {
    w = vehicles_[id].ignition.state_at(time_s);
  }
  return w;
}

Position FleetModel::position_of(NodeId id, double time_s) const {
  if (is_vehicle(id)) return vehicle_position(id, time_s);
  check_node(id, "FleetModel::position_of");
  return static_nodes_[id - vehicles_.size()];
}

bool FleetModel::is_on(NodeId id, double time_s) const {
  if (is_vehicle(id)) return vehicle_power(id, time_s).on;
  check_node(id, "FleetModel::is_on");
  return true;
}

double FleetModel::power_until(NodeId id, double time_s) const {
  if (is_vehicle(id)) return vehicle_power(id, time_s).until_s;
  check_node(id, "FleetModel::power_until");
  return std::numeric_limits<double>::infinity();
}

double FleetModel::duration() const {
  double end = 0.0;
  for (const auto& v : vehicles_) {
    end = std::max(end, v.trace.end_time());
  }
  return end;
}

FleetModel::Snapshot FleetModel::snapshot(double time_s) const {
  Snapshot snap;
  snap.time_s = time_s;
  snap.positions.reserve(node_count());
  snap.on.reserve(node_count());
  for (NodeId id = 0; id < vehicles_.size(); ++id) {
    snap.positions.push_back(vehicle_position(id, time_s));
    snap.on.push_back(vehicle_power(id, time_s).on);
  }
  for (const auto& p : static_nodes_) {
    snap.positions.push_back(p);
    snap.on.push_back(true);
  }
  return snap;
}

std::vector<std::pair<NodeId, NodeId>> FleetModel::encounters(
    double time_s, double radius) const {
  {
    // Compact to powered-on nodes; a parked vehicle's position is never
    // interpolated.
    RR_TSPAN("mobility", "mobility.compact");
    // The powered vehicles' ids first, without a branch on the power state
    // (about half the fleet is on, so it would mispredict), then their
    // positions. Static nodes are always on.
    on_ids_.resize(vehicles_.size());
    std::size_t on = 0;
    for (NodeId id = 0; id < vehicles_.size(); ++id) {
      on_ids_[on] = id;
      on += vehicle_power(id, time_s).on ? 1 : 0;
    }
    on_ids_.resize(on);
    on_positions_.clear();
    for (const NodeId id : on_ids_) {
      on_positions_.push_back(vehicle_position(id, time_s));
    }
    for (std::size_t s = 0; s < static_nodes_.size(); ++s) {
      on_positions_.push_back(static_nodes_[s]);
      on_ids_.push_back(vehicles_.size() + s);
    }
  }
  if (on_positions_.size() < 2) return {};
  {
    RR_TSPAN("mobility", "mobility.index_build");
    index_.rebuild(on_positions_, std::max(radius, 1.0));
  }
  RR_TSPAN("mobility", "mobility.pair_scan");
  index_.pair_keys_within(radius, pair_keys_);
  // on_ids_ is ascending, so mapping keeps the pairs ordered and a < b.
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(pair_keys_.size());
  for (const std::uint64_t key : pair_keys_) {
    out.emplace_back(on_ids_[key >> 32], on_ids_[key & 0xffffffffU]);
  }
  return out;
}

}  // namespace roadrunner::mobility

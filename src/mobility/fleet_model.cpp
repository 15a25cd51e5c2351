#include "mobility/fleet_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/telemetry.hpp"

namespace roadrunner::mobility {

FleetModel::FleetModel(std::vector<VehicleTrack> vehicles)
    : vehicles_{std::move(vehicles)} {
  for (const auto& v : vehicles_) {
    if (v.trace.empty()) {
      throw std::invalid_argument{"FleetModel: vehicle with empty trace"};
    }
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

Position FleetModel::position_of(NodeId id, double time_s) const {
  if (is_vehicle(id)) return vehicles_[id].trace.position_at(time_s);
  const std::size_t s = id - vehicles_.size();
  if (s >= static_nodes_.size()) {
    throw std::out_of_range{"FleetModel::position_of"};
  }
  return static_nodes_[s];
}

bool FleetModel::is_on(NodeId id, double time_s) const {
  if (is_vehicle(id)) return vehicles_[id].ignition.is_on(time_s);
  if (id - vehicles_.size() >= static_nodes_.size()) {
    throw std::out_of_range{"FleetModel::is_on"};
  }
  return true;
}

std::optional<double> FleetModel::next_power_transition(double time_s) const {
  std::optional<double> best;
  for (const auto& v : vehicles_) {
    const auto t = v.ignition.next_transition(time_s);
    if (t && (!best || *t < *best)) best = t;
  }
  return best;
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
  for (const auto& v : vehicles_) {
    snap.positions.push_back(v.trace.position_at(time_s));
    snap.on.push_back(v.ignition.is_on(time_s));
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
    on_positions_.clear();
    on_ids_.clear();
    for (NodeId id = 0; id < vehicles_.size(); ++id) {
      const VehicleTrack& v = vehicles_[id];
      if (!v.ignition.is_on(time_s)) continue;
      on_positions_.push_back(v.trace.position_at(time_s));
      on_ids_.push_back(id);
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
  auto raw = index_.pairs_within(radius);
  // on_ids_ is ascending, so mapping keeps the pairs ordered and a < b.
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(raw.size());
  for (const auto& [a, b] : raw) out.emplace_back(on_ids_[a], on_ids_[b]);
  return out;
}

}  // namespace roadrunner::mobility

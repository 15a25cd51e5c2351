// Fleet model (paper Req. 1): every mobile agent's trajectory and power
// state over simulated time, plus static nodes (road-side units), with
// proximity queries used for V2X encounter detection.
#pragma once

#include <cstdint>
#include <vector>

#include "mobility/ignition.hpp"
#include "mobility/spatial_index.hpp"
#include "mobility/trace.hpp"

namespace roadrunner::mobility {

/// A vehicle's full mobility record: where it is and when it is powered.
struct VehicleTrack {
  Trace trace;
  IgnitionSchedule ignition;
};

/// Index into the fleet: vehicles first (0..vehicle_count-1), then static
/// nodes (RSUs) in insertion order.
using NodeId = std::size_t;

class FleetModel {
 public:
  FleetModel() = default;
  explicit FleetModel(std::vector<VehicleTrack> vehicles);

  /// Adds a static, always-on node (an RSU); returns its NodeId.
  NodeId add_static_node(Position position);

  [[nodiscard]] std::size_t vehicle_count() const { return vehicles_.size(); }
  [[nodiscard]] std::size_t static_count() const {
    return static_nodes_.size();
  }
  [[nodiscard]] std::size_t node_count() const {
    return vehicles_.size() + static_nodes_.size();
  }
  [[nodiscard]] bool is_vehicle(NodeId id) const {
    return id < vehicles_.size();
  }

  [[nodiscard]] const VehicleTrack& vehicle(NodeId id) const;

  /// Position of any node at `time_s` (static nodes ignore the time).
  [[nodiscard]] Position position_of(NodeId id, double time_s) const;

  /// Powered state of any node at `time_s` (static nodes are always on).
  [[nodiscard]] bool is_on(NodeId id, double time_s) const;

  /// Earliest time strictly after `time_s` at which any vehicle's power
  /// state flips; nullopt when none will.
  [[nodiscard]] std::optional<double> next_power_transition(
      double time_s) const;

  /// Latest trace end across vehicles (0 when there are none).
  [[nodiscard]] double duration() const;

  struct Snapshot {
    double time_s = 0.0;
    std::vector<Position> positions;  ///< indexed by NodeId
    std::vector<bool> on;             ///< indexed by NodeId
  };
  [[nodiscard]] Snapshot snapshot(double time_s) const;

  /// Unordered node pairs within `radius` at `time_s`, both powered on —
  /// the candidates for V2X communication. Includes vehicle-RSU pairs.
  /// Sorted ascending. Reuses this model's scratch buffers, as the traces
  /// and ignition schedules reuse their cursors, so one FleetModel must not
  /// serve concurrent calls.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> encounters(
      double time_s, double radius) const;

 private:
  std::vector<VehicleTrack> vehicles_;
  std::vector<Position> static_nodes_;
  // encounters() scratch: the powered nodes and their grid, reused per tick.
  mutable std::vector<Position> on_positions_;
  mutable std::vector<NodeId> on_ids_;
  mutable SpatialIndex index_;
};

}  // namespace roadrunner::mobility

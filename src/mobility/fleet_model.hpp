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

/// Every query reads through a per-vehicle cache (flat arrays built with
/// the fleet) and updates it, and encounters() reuses scratch buffers, so
/// one FleetModel must not serve concurrent calls.
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

  /// The instant up to which (exclusive) is_on(id, ·) keeps its value at
  /// `time_s`: the next real power flip, or infinity when there is none
  /// (static nodes, always-on vehicles, after the last interval).
  [[nodiscard]] double power_until(NodeId id, double time_s) const;

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
  /// Sorted ascending.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> encounters(
      double time_s, double radius) const;

 private:
  /// A vehicle's current trace segment: the cursor Trace::position_at would
  /// hold after this model's queries, and that segment's end samples. A
  /// single-sample trace keeps t0 == t1, so the fast path never applies.
  struct Segment {
    double t0 = 0.0;
    double t1 = 0.0;
    Position p0;
    Position p1;
    std::size_t cursor = 0;
  };

  [[nodiscard]] Position vehicle_position(NodeId id, double time_s) const;
  [[nodiscard]] Position seek_position(NodeId id, double time_s) const;
  [[nodiscard]] const PowerState& vehicle_power(NodeId id,
                                                double time_s) const;
  void check_node(NodeId id, const char* who) const;

  std::vector<VehicleTrack> vehicles_;
  std::vector<Position> static_nodes_;
  /// Per vehicle, indexed by NodeId. One cursor serves every query, so
  /// positions at exact sample times depend on this model's query history
  /// exactly as they did on each Trace's own cursor; the power windows
  /// cache a pure function, so any history gives the same answers.
  mutable std::vector<Segment> segments_;
  mutable std::vector<PowerState> power_;
  // encounters() scratch: the powered nodes, their grid and pair keys.
  mutable std::vector<Position> on_positions_;
  mutable std::vector<NodeId> on_ids_;
  mutable std::vector<std::uint64_t> pair_keys_;
  mutable SpatialIndex index_;
};

}  // namespace roadrunner::mobility

// Simulated agents: vehicles, road-side units, and the cloud server
// (paper Fig. 1). An agent couples a communication endpoint (mobility
// NodeId or the virtual cloud endpoint), a Hardware Unit, an optional local
// dataset, and the agent's current ML model.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/network.hpp"
#include "hu/hardware_unit.hpp"
#include "ml/dataset.hpp"
#include "ml/net.hpp"
#include "ml/serialize.hpp"

namespace roadrunner::core {

using AgentId = std::size_t;
inline constexpr AgentId kNoAgent = static_cast<AgentId>(-1);

enum class AgentKind : std::uint8_t { kVehicle, kRoadsideUnit, kCloudServer };

std::string to_string(AgentKind kind);

struct Agent {
  AgentId id = kNoAgent;
  AgentKind kind = AgentKind::kVehicle;
  /// Communication endpoint: a fleet NodeId, or comm::kCloudEndpoint for
  /// the cloud server.
  mobility::NodeId node = comm::kCloudEndpoint;
  hu::HardwareUnit hu;
  /// Local training data (empty for agents that only aggregate).
  ml::DatasetView data;
  /// Current model; empty until the strategy assigns one.
  ml::Weights model;
  /// Data amount "behind" the current model (FedAvg weighting, §3).
  double model_data_amount = 0.0;
  /// Simulated time the current model was last replaced or retrained; feeds
  /// the stale-model-age resilience metric (a vehicle cut off by faults
  /// keeps serving an ever-older model).
  double model_updated_s = 0.0;
  /// True while a training operation occupies the agent (§4: "while an
  /// agent is busy training, it may not be available for other operations").
  bool training = false;

  Agent(AgentId id_, AgentKind kind_, mobility::NodeId node_,
        hu::DeviceClass device)
      : id{id_}, kind{kind_}, node{node_}, hu{std::move(device)} {}

  /// Run state as an archive field list (util/archive.hpp): the model and
  /// its bookkeeping, the data view's indices, and HU occupancy. Restored
  /// indices attach to this agent's dataset, or to `fallback` when the
  /// fresh agent has none (e.g. the cloud under centralized ML); an index
  /// past the dataset throws std::runtime_error.
  template <class Ar>
  void fields(Ar& ar, const std::shared_ptr<const ml::Dataset>& fallback) {
    ar(model, model_data_amount, model_updated_s, training);
    if constexpr (Ar::kLoading) {
      std::vector<std::uint32_t> indices;
      ar(indices);
      if (indices.empty()) {
        data = ml::DatasetView{};
      } else {
        const auto& base = data.base_ptr() ? data.base_ptr() : fallback;
        if (!base) {
          throw std::runtime_error{
              "checkpoint: no dataset to attach restored data view"};
        }
        for (std::uint32_t idx : indices) {
          if (idx >= base->size()) {
            throw std::runtime_error{
                "checkpoint: data index out of range in snapshot"};
          }
        }
        data = ml::DatasetView{base, std::move(indices)};
      }
    } else {
      ar(data.indices());
    }
    ar(hu);
  }
};

}  // namespace roadrunner::core

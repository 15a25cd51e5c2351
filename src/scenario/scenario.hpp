// Scenario builder: the framework's top-level convenience API. A
// ScenarioConfig describes the whole experiment — fleet, learning problem,
// data distribution, communication, hardware — exactly the dimensions the
// paper lists in §1 (on-board capabilities, communication channels, usage
// patterns, data distribution, fleet size). Examples and benches construct
// a Scenario, pick a LearningStrategy, and run.
#pragma once

#include <memory>
#include <string>

#include "adversary/adversary_plan.hpp"
#include "comm/network.hpp"
#include "core/simulator.hpp"
#include "data/gaussian_blobs.hpp"
#include "fault/fault_plan.hpp"
#include "data/partition.hpp"
#include "data/synthetic_images.hpp"
#include "mobility/city_model.hpp"
#include "strategy/learning_strategy.hpp"
#include "traffic/traffic_model.hpp"
#include "workload/stream.hpp"
#include "workload/workload.hpp"

namespace roadrunner::scenario {

struct ScenarioConfig {
  // ----- fleet -------------------------------------------------------------
  std::size_t vehicles = 50;
  std::size_t rsus = 0;
  mobility::CityModelConfig city;
  /// Optional pre-built fleet (e.g. loaded from trace CSVs); when set, it
  /// replaces the synthetic city fleet and must contain >= `vehicles`
  /// vehicle tracks plus >= `rsus` static nodes.
  std::shared_ptr<mobility::FleetModel> external_fleet;

  // ----- learning problem --------------------------------------------------
  /// "images" (the CIFAR-10 stand-in) or "blobs" (fast Gaussian problem).
  std::string dataset = "images";
  std::size_t train_pool_size = 12000;
  std::size_t test_size = 2000;
  data::SyntheticImageConfig image_config;
  data::GaussianBlobConfig blob_config;

  /// "class_skew" (paper Fig. 4), "iid", or "dirichlet".
  std::string partition = "class_skew";
  std::size_t samples_per_vehicle = 80;  ///< paper §5.2
  std::size_t classes_per_vehicle = 2;   ///< "highly skewed"
  double dirichlet_alpha = 0.5;

  /// "paper_cnn", "mlp", or "logreg".
  std::string model = "paper_cnn";
  ml::TrainConfig train;

  // ----- communication & hardware ------------------------------------------
  comm::Network::Config net;
  /// Share of the city carved into random V2C dead zones
  /// (comm::carve_dead_zones) from the seed's "coverage" stream; when
  /// above 0 the carved zones replace `net.coverage`.
  double dead_area_fraction = 0.0;
  hu::DeviceClass vehicle_device = hu::obu_device();
  hu::DeviceClass rsu_device = hu::rsu_device();
  hu::DeviceClass cloud_device = hu::cloud_device();

  // ----- simulation ---------------------------------------------------------
  std::uint64_t seed = 1;
  double horizon_s = 0.0;  ///< 0 = the fleet's trace duration
  double mobility_tick_s = 1.0;
  bool trace_events = false;
  /// Enable wall-clock telemetry spans for this run (process-global sink;
  /// see core::SimulatorConfig::telemetry).
  bool telemetry = false;
  /// Samples arriving per vehicle per second (0 = all data at t=0);
  /// models fleets that sense continuously (paper §1, "fresh data").
  double data_arrival_per_s = 0.0;
  /// Autosave a crash-recovery snapshot every this many simulated seconds
  /// (0 = no autosaves). Only effective through checkpoint::run_resumable
  /// or the campaign engine, which install the autosave hook.
  double checkpoint_every_s = 0.0;
  /// Where autosaved snapshots land (empty = current directory).
  std::string checkpoint_dir;

  // ----- fault injection -----------------------------------------------------
  /// Scripted fault timeline ([fault.N] INI sections). Symbolic targets
  /// (cloud, rsu:K) are resolved against this scenario's nodes when the
  /// simulator is built; `faults.severity` scales all magnitudes (the
  /// `fault.severity` campaign axis).
  fault::FaultPlan faults;

  // ----- adversary ----------------------------------------------------------
  /// Scripted attack timeline ([adversary.N] INI sections), resolved against
  /// this scenario's vehicle count when the simulator is built;
  /// `adversaries.fraction` scales the compromise level (the
  /// `adversary.fraction` campaign axis).
  adversary::AdversaryPlan adversaries;

  // ----- workload -----------------------------------------------------------
  /// `workload.kind = telemetry` swaps the frozen dataset + partition for
  /// the drift-aware stream generator ([workload] / [drift.N] INI sections);
  /// `drift.severity` scales all drift magnitudes (the `drift.severity`
  /// campaign axis). The static default leaves everything above untouched.
  workload::WorkloadConfig workload;

  // ----- traffic ------------------------------------------------------------
  /// Traffic-infrastructure plan ([traffic] / [traffic.N] / [platoon] INI
  /// sections). When active the synthetic city fleet is generated through
  /// traffic::make_traffic_fleet — vehicles queue at signalized
  /// intersections and platoons form headway-held convoys — and the
  /// resulting timeline is replayed by the simulator for traffic_* metrics
  /// and checkpoint state. Incompatible with external_fleet.
  traffic::TrafficPlan traffic;
};

/// Everything a caller needs from one finished run.
struct RunResult {
  std::string strategy_name;
  core::Simulator::RunReport report;
  metrics::Registry metrics;
  std::array<comm::ChannelStats, comm::kChannelKindCount> channel_stats;
  double final_accuracy = 0.0;
  /// Properties of the scenario, not of the run: the mean total-variation
  /// distance of each vehicle's class mix from the fleet's
  /// (data::partition_skewness) and the serialized model size.
  double partition_skewness = 0.0;
  std::uint64_t model_bytes = 0;

  [[nodiscard]] const comm::ChannelStats& channel(
      comm::ChannelKind kind) const {
    return channel_stats[static_cast<std::size_t>(kind)];
  }
};

class Scenario {
 public:
  /// Builds the fleet, dataset, partition, and model prototype. Throws
  /// std::invalid_argument on unknown names or infeasible partitions.
  explicit Scenario(ScenarioConfig config);

  /// A fresh simulator over this scenario's (shared, immutable) fleet and
  /// data, with the cloud, all vehicles, and all RSUs registered. Each call
  /// yields an independent simulator, so strategies can be compared on an
  /// identical substrate. The Scenario must outlive it.
  [[nodiscard]] std::unique_ptr<core::Simulator> make_simulator() const;

  /// Convenience: make_simulator + set_strategy + run + collect results.
  RunResult run(std::shared_ptr<strategy::LearningStrategy> strategy) const;

  /// Collects a RunResult from a simulator of this scenario that has
  /// finished run() — shared by Scenario::run and the checkpoint
  /// subsystem's resumed runs.
  [[nodiscard]] RunResult collect_result(
      const core::Simulator& sim, const std::string& strategy_name,
      core::Simulator::RunReport report) const;

  [[nodiscard]] const mobility::FleetModel& fleet() const { return *fleet_; }
  [[nodiscard]] const ml::DatasetView& test_set() const { return test_set_; }
  [[nodiscard]] const std::vector<ml::DatasetView>& vehicle_data() const {
    return vehicle_data_;
  }
  [[nodiscard]] const ScenarioConfig& config() const { return config_; }
  /// Serialized model size in bytes (drives communication volumes).
  [[nodiscard]] std::uint64_t model_bytes() const { return model_bytes_; }
  /// Timestamped held-out eval windows (telemetry workloads only; empty for
  /// the static datasets).
  [[nodiscard]] const std::vector<workload::EvalWindow>& eval_windows() const {
    return eval_windows_;
  }
  /// Signal-phase / platoon-maneuver timeline recorded at fleet generation
  /// (empty unless the traffic plan is active).
  [[nodiscard]] const traffic::TrafficTimeline& traffic_timeline() const {
    return traffic_timeline_;
  }

 private:
  ScenarioConfig config_;
  std::shared_ptr<mobility::FleetModel> fleet_;
  std::vector<mobility::NodeId> rsu_nodes_;
  std::shared_ptr<const ml::Dataset> dataset_;
  ml::DatasetView test_set_;
  std::vector<ml::DatasetView> vehicle_data_;
  std::vector<workload::EvalWindow> eval_windows_;
  traffic::TrafficTimeline traffic_timeline_;
  /// Unused (layerless) for the density objective — GMM weights carry their
  /// own shape through the suff-stat codec.
  ml::Network prototype_;
  std::uint64_t model_bytes_ = 0;
  double partition_skewness_ = 0.0;
};

}  // namespace roadrunner::scenario

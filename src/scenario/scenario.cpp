#include "scenario/scenario.hpp"

#include <stdexcept>

#include <optional>

#include "data/gaussian_blobs.hpp"
#include "data/synthetic_images.hpp"
#include "ml/gmm.hpp"
#include "ml/models.hpp"
#include "util/log.hpp"

namespace roadrunner::scenario {

Scenario::Scenario(ScenarioConfig config) : config_{std::move(config)} {
  if (config_.vehicles == 0) {
    throw std::invalid_argument{"Scenario: zero vehicles"};
  }
  util::Rng master{config_.seed};
  if (config_.dead_area_fraction > 0.0) {
    util::Rng coverage_rng = master.fork("coverage");
    config_.net.coverage = comm::carve_dead_zones(
        config_.city.city_size_m, config_.dead_area_fraction, coverage_rng);
  }

  // ----- fleet ---------------------------------------------------------------
  if (config_.external_fleet) {
    if (config_.traffic.active()) {
      throw std::invalid_argument{
          "Scenario: a traffic plan shapes the synthetic city fleet and "
          "cannot be combined with an external fleet"};
    }
    fleet_ = config_.external_fleet;
    if (fleet_->vehicle_count() < config_.vehicles) {
      throw std::invalid_argument{"Scenario: external fleet too small"};
    }
    for (std::size_t i = 0; i < config_.rsus; ++i) {
      const mobility::NodeId node = fleet_->vehicle_count() + i;
      if (node >= fleet_->node_count()) {
        throw std::invalid_argument{"Scenario: external fleet lacks RSUs"};
      }
      rsu_nodes_.push_back(node);
    }
  } else {
    mobility::CityModelConfig city = config_.city;
    city.seed = config_.seed ^ 0xF1EE7ULL;
    // make_traffic_fleet degenerates to make_city_fleet (bit-identical) when
    // nothing in the plan is active, so one path serves both; the timeline
    // stays empty in that case.
    traffic::TrafficFleet tf =
        traffic::make_traffic_fleet(config_.vehicles, city, config_.traffic);
    traffic_timeline_ = std::move(tf.timeline);
    auto fleet = std::make_shared<mobility::FleetModel>(std::move(tf.fleet));
    rsu_nodes_ = mobility::add_grid_rsus(*fleet, city, config_.rsus);
    fleet_ = std::move(fleet);
  }

  // ----- telemetry workload --------------------------------------------------
  // Replaces the frozen dataset + partition below: every vehicle's data is
  // its own arrival-ordered stream slice, and held-out eval windows follow
  // the drifting distribution.
  if (config_.workload.telemetry()) {
    workload::WorkloadConfig wcfg = config_.workload;
    wcfg.drift = wcfg.drift.scaled();
    const double horizon =
        config_.horizon_s > 0.0 ? config_.horizon_s : fleet_->duration();
    util::Rng stream_rng = master.fork("workload");
    workload::TelemetryStream stream = workload::make_telemetry_stream(
        wcfg, *fleet_, config_.vehicles, horizon, config_.city.city_size_m,
        stream_rng);
    dataset_ = stream.dataset;
    vehicle_data_ = std::move(stream.vehicle_data);
    eval_windows_ = std::move(stream.eval_windows);
    test_set_ = eval_windows_.front().data;
    if (config_.workload.density()) {
      model_bytes_ = ml::weights_byte_size(ml::gmm_zero_weights(
          wcfg.effective_gmm_components(), wcfg.dims));
    } else {
      if (config_.model == "paper_cnn") {
        throw std::invalid_argument{
            "Scenario: the telemetry workload has flat features; pick "
            "model=mlp or model=logreg for objective=supervised"};
      }
      prototype_ = ml::make_model(config_.model, dataset_->sample_shape(),
                                  dataset_->num_classes());
      util::Rng model_rng = master.fork("model-init");
      ml::prime_and_init(prototype_, dataset_->sample_shape(), model_rng);
      model_bytes_ = ml::weights_byte_size(prototype_.weights());
    }
    partition_skewness_ = data::partition_skewness(vehicle_data_);
    RR_LOG_INFO("scenario")
        << "fleet=" << fleet_->vehicle_count() << " vehicles +"
        << rsu_nodes_.size() << " RSUs; telemetry stream=" << dataset_->size()
        << " samples, " << eval_windows_.size() << " eval windows, "
        << config_.workload.drift.events.size() << " drift events (severity "
        << config_.workload.drift.severity << "); objective="
        << config_.workload.objective << " (" << model_bytes_ << " B)";
    return;
  }

  // ----- data ---------------------------------------------------------------
  // The split and the partition read labels only. For images they run on a
  // labels-only stand-in (samples of zero floats) of the planned pool, and
  // only the rows the test set and the vehicles reference are rendered.
  const std::size_t total = config_.train_pool_size + config_.test_size;
  std::optional<data::SyntheticImagePlan> plan;
  if (config_.dataset == "images") {
    data::SyntheticImageConfig ic = config_.image_config;
    ic.seed = config_.seed ^ 0xDA7A5EEDULL;
    plan = data::plan_synthetic_images(total, ic);
    dataset_ = std::make_shared<const ml::Dataset>(
        ml::Tensor{{total, 0}}, plan->labels, ic.num_classes);
  } else if (config_.dataset == "blobs") {
    data::GaussianBlobConfig bc = config_.blob_config;
    bc.seed = config_.seed ^ 0xDA7A5EEDULL;
    dataset_ =
        std::make_shared<ml::Dataset>(data::make_gaussian_blobs(total, bc));
  } else {
    throw std::invalid_argument{"Scenario: unknown dataset '" +
                                config_.dataset + "'"};
  }
  util::Rng data_rng = master.fork("partition");
  auto split_rng = master.fork("split");
  const double test_fraction =
      static_cast<double>(config_.test_size) /
      static_cast<double>(dataset_->size());
  data::TrainTestSplit split =
      data::train_test_split(dataset_, test_fraction, split_rng);
  test_set_ = std::move(split.test);

  if (config_.partition == "class_skew") {
    vehicle_data_ = data::partition_class_skew(
        split.train, config_.vehicles, config_.samples_per_vehicle,
        config_.classes_per_vehicle, data_rng);
  } else if (config_.partition == "iid") {
    vehicle_data_ = data::partition_iid(split.train, config_.vehicles,
                                        config_.samples_per_vehicle, data_rng);
  } else if (config_.partition == "dirichlet") {
    vehicle_data_ = data::partition_dirichlet(
        split.train, config_.vehicles, config_.dirichlet_alpha, data_rng);
  } else {
    throw std::invalid_argument{"Scenario: unknown partition '" +
                                config_.partition + "'"};
  }

  if (plan) {
    std::vector<std::uint32_t> rows = test_set_.indices();
    for (const ml::DatasetView& v : vehicle_data_) {
      rows.insert(rows.end(), v.indices().begin(), v.indices().end());
    }
    dataset_ = std::make_shared<const ml::Dataset>(
        data::render_synthetic_images(*plan, std::move(rows)));
    test_set_ = ml::DatasetView{dataset_, test_set_.indices()};
    for (ml::DatasetView& v : vehicle_data_) {
      v = ml::DatasetView{dataset_, v.indices()};
    }
  }

  // ----- model ----------------------------------------------------------------
  prototype_ = ml::make_model(config_.model, dataset_->sample_shape(),
                              dataset_->num_classes());
  util::Rng model_rng = master.fork("model-init");
  ml::prime_and_init(prototype_, dataset_->sample_shape(), model_rng);
  model_bytes_ = ml::weights_byte_size(prototype_.weights());
  partition_skewness_ = data::partition_skewness(vehicle_data_);

  RR_LOG_INFO("scenario") << "fleet=" << fleet_->vehicle_count()
                          << " vehicles +" << rsu_nodes_.size()
                          << " RSUs; dataset=" << dataset_->size()
                          << " samples, " << dataset_->features().dim(0)
                          << " rendered; model=" << prototype_.summary() << " ("
                          << prototype_.parameter_count() << " params, "
                          << model_bytes_ << " B)";
}

std::unique_ptr<core::Simulator> Scenario::make_simulator() const {
  core::SimulatorConfig sim_cfg;
  sim_cfg.horizon_s =
      config_.horizon_s > 0.0 ? config_.horizon_s : fleet_->duration();
  sim_cfg.mobility_tick_s = config_.mobility_tick_s;
  sim_cfg.train = config_.train;
  sim_cfg.seed = config_.seed;
  sim_cfg.trace_events = config_.trace_events;
  sim_cfg.telemetry = config_.telemetry;
  sim_cfg.data_arrival_per_s = config_.workload.telemetry()
                                   ? config_.workload.rate_per_s
                                   : config_.data_arrival_per_s;
  sim_cfg.data_recent_window =
      config_.workload.telemetry() ? config_.workload.recent_window : 0;
  sim_cfg.checkpoint_every_s = config_.checkpoint_every_s;
  sim_cfg.checkpoint_dir = config_.checkpoint_dir;
  sim_cfg.faults = config_.faults.resolved(rsu_nodes_, config_.vehicles);
  sim_cfg.adversaries =
      config_.adversaries.resolved(rsu_nodes_, config_.vehicles);
  sim_cfg.drift = config_.workload.drift.scaled();
  sim_cfg.drift_recovery_fraction = config_.workload.recovery_fraction;
  sim_cfg.traffic = traffic_timeline_;

  std::optional<core::MlService> ml_service;
  if (config_.workload.telemetry() && config_.workload.density()) {
    core::DensitySpec spec;
    spec.components = config_.workload.effective_gmm_components();
    spec.dims = config_.workload.dims;
    spec.em_iterations = config_.workload.em_iterations;
    spec.var_floor = config_.workload.var_floor;
    ml_service.emplace(spec, test_set_);
  } else {
    ml_service.emplace(prototype_, test_set_);
  }
  if (!eval_windows_.empty()) {
    std::vector<core::EvalWindow> windows;
    windows.reserve(eval_windows_.size());
    for (const workload::EvalWindow& w : eval_windows_) {
      windows.push_back(core::EvalWindow{w.start_s, w.data});
    }
    ml_service->set_eval_windows(std::move(windows));
  }
  auto sim = std::make_unique<core::Simulator>(
      *fleet_, config_.net, std::move(*ml_service), sim_cfg);
  sim->add_cloud(config_.cloud_device);
  for (std::size_t v = 0; v < config_.vehicles; ++v) {
    sim->add_vehicle(v, vehicle_data_[v], config_.vehicle_device);
  }
  for (mobility::NodeId node : rsu_nodes_) {
    sim->add_rsu(node, config_.rsu_device);
  }
  return sim;
}

RunResult Scenario::run(
    std::shared_ptr<strategy::LearningStrategy> strategy) const {
  auto sim = make_simulator();
  const std::string name = strategy->name();
  sim->set_strategy(std::move(strategy));
  core::Simulator::RunReport report = sim->run();
  return collect_result(*sim, name, report);
}

RunResult Scenario::collect_result(const core::Simulator& sim,
                                   const std::string& strategy_name,
                                   core::Simulator::RunReport report) const {
  RunResult result;
  result.strategy_name = strategy_name;
  result.report = report;
  result.metrics = sim.metrics_view();
  for (std::size_t k = 0; k < comm::kChannelKindCount; ++k) {
    result.channel_stats[k] =
        sim.network().stats(static_cast<comm::ChannelKind>(k));
  }
  result.final_accuracy = result.metrics.counter("final_accuracy");
  result.partition_skewness = partition_skewness_;
  result.model_bytes = model_bytes_;
  return result;
}

}  // namespace roadrunner::scenario

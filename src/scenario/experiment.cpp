#include "scenario/experiment.hpp"

#include <cmath>
#include <stdexcept>

#include "adversary/adversary_plan.hpp"
#include "traffic/traffic_plan.hpp"
#include "strategy/centralized.hpp"
#include "strategy/federated.hpp"
#include "strategy/federated_clustering.hpp"
#include "strategy/gossip.hpp"
#include "strategy/opportunistic.hpp"
#include "strategy/rsu_assisted.hpp"

namespace roadrunner::scenario {

namespace {

using util::IniFile;

std::size_t get_size(const IniFile& ini, const std::string& section,
                     const std::string& key, std::size_t fallback) {
  return static_cast<std::size_t>(
      ini.get_int(section, key, static_cast<std::int64_t>(fallback)));
}

}  // namespace

ScenarioConfig scenario_from_ini(const IniFile& ini) {
  ScenarioConfig cfg;

  // [scenario]
  cfg.seed = ini.get_uint64("scenario", "seed", cfg.seed);
  cfg.vehicles = get_size(ini, "scenario", "vehicles", cfg.vehicles);
  cfg.rsus = get_size(ini, "scenario", "rsus", cfg.rsus);
  cfg.horizon_s = ini.get_double("scenario", "horizon_s", cfg.horizon_s);
  cfg.mobility_tick_s =
      ini.get_double("scenario", "mobility_tick_s", cfg.mobility_tick_s);
  cfg.data_arrival_per_s = ini.get_double("scenario", "data_arrival_per_s",
                                          cfg.data_arrival_per_s);
  cfg.trace_events =
      ini.get_bool("scenario", "trace_events", cfg.trace_events);
  cfg.telemetry = ini.get_bool("scenario", "telemetry", cfg.telemetry);
  cfg.checkpoint_every_s = ini.get_double("scenario", "checkpoint_every_s",
                                          cfg.checkpoint_every_s);
  cfg.checkpoint_dir =
      ini.get("scenario", "checkpoint_dir", cfg.checkpoint_dir);

  // [city]
  cfg.city.city_size_m =
      ini.get_double("city", "size_m", cfg.city.city_size_m);
  cfg.city.block_size_m =
      ini.get_double("city", "block_m", cfg.city.block_size_m);
  cfg.city.duration_s =
      ini.get_double("city", "duration_s", cfg.city.duration_s);
  cfg.city.speed_mean_mps =
      ini.get_double("city", "speed_mps", cfg.city.speed_mean_mps);
  cfg.city.dwell_mean_s =
      ini.get_double("city", "dwell_s", cfg.city.dwell_mean_s);
  cfg.city.initial_on_probability = ini.get_double(
      "city", "initial_on", cfg.city.initial_on_probability);
  cfg.city.dwell_on_probability =
      ini.get_double("city", "dwell_on", cfg.city.dwell_on_probability);

  // [data]
  cfg.dataset = ini.get("data", "dataset", cfg.dataset);
  cfg.train_pool_size =
      get_size(ini, "data", "train_pool", cfg.train_pool_size);
  cfg.test_size = get_size(ini, "data", "test_size", cfg.test_size);
  cfg.partition = ini.get("data", "partition", cfg.partition);
  cfg.samples_per_vehicle =
      get_size(ini, "data", "samples_per_vehicle", cfg.samples_per_vehicle);
  cfg.classes_per_vehicle =
      get_size(ini, "data", "classes_per_vehicle", cfg.classes_per_vehicle);
  cfg.dirichlet_alpha =
      ini.get_double("data", "dirichlet_alpha", cfg.dirichlet_alpha);
  cfg.image_config.noise_sigma = ini.get_double(
      "data", "image_noise", cfg.image_config.noise_sigma);
  cfg.image_config.gain_jitter = ini.get_double(
      "data", "image_gain_jitter", cfg.image_config.gain_jitter);
  if (!(std::isfinite(cfg.image_config.gain_jitter) &&
        cfg.image_config.gain_jitter >= 0.0)) {
    throw std::runtime_error{"experiment: data.image_gain_jitter must be a "
                             "finite number >= 0"};
  }
  cfg.blob_config.num_classes = get_size(
      ini, "data", "blob_classes", cfg.blob_config.num_classes);
  cfg.blob_config.dimensions = get_size(
      ini, "data", "blob_dimensions", cfg.blob_config.dimensions);
  cfg.blob_config.center_radius = ini.get_double(
      "data", "blob_radius", cfg.blob_config.center_radius);
  cfg.blob_config.spread =
      ini.get_double("data", "blob_spread", cfg.blob_config.spread);

  // [train]
  cfg.model = ini.get("train", "model", cfg.model);
  cfg.train.epochs = static_cast<int>(
      ini.get_int("train", "epochs", cfg.train.epochs));
  cfg.train.batch_size = get_size(ini, "train", "batch", cfg.train.batch_size);
  cfg.train.learning_rate = static_cast<float>(
      ini.get_double("train", "lr", cfg.train.learning_rate));
  cfg.train.momentum = static_cast<float>(
      ini.get_double("train", "momentum", cfg.train.momentum));
  cfg.train.proximal_mu = static_cast<float>(
      ini.get_double("train", "proximal_mu", cfg.train.proximal_mu));
  const std::string optimizer = ini.get("train", "optimizer", "sgd");
  if (optimizer == "sgd") {
    cfg.train.optimizer = ml::OptimizerKind::kSgdMomentum;
  } else if (optimizer == "adam") {
    cfg.train.optimizer = ml::OptimizerKind::kAdam;
  } else {
    throw std::runtime_error{"experiment: unknown optimizer '" + optimizer +
                             "'"};
  }

  // [network]
  cfg.net.v2c.bandwidth_bytes_per_s = ini.get_double(
      "network", "v2c_bandwidth", cfg.net.v2c.bandwidth_bytes_per_s);
  cfg.net.v2c.setup_latency_s = ini.get_double(
      "network", "v2c_latency", cfg.net.v2c.setup_latency_s);
  cfg.net.v2c.loss_probability = ini.get_double(
      "network", "v2c_loss", cfg.net.v2c.loss_probability);
  cfg.net.v2x.bandwidth_bytes_per_s = ini.get_double(
      "network", "v2x_bandwidth", cfg.net.v2x.bandwidth_bytes_per_s);
  cfg.net.v2x.range_m =
      ini.get_double("network", "v2x_range", cfg.net.v2x.range_m);
  cfg.net.v2x.loss_probability = ini.get_double(
      "network", "v2x_loss", cfg.net.v2x.loss_probability);
  cfg.net.v2x.range_degradation = ini.get_double(
      "network", "v2x_range_degradation", cfg.net.v2x.range_degradation);
  cfg.dead_area_fraction = ini.get_double("network", "dead_area_fraction",
                                          cfg.dead_area_fraction);
  if (!(cfg.dead_area_fraction >= 0.0 && cfg.dead_area_fraction <= 1.0)) {
    throw std::runtime_error{"experiment: network.dead_area_fraction must be "
                             "in [0, 1]"};
  }
  cfg.net.v2c.max_concurrent_per_agent = get_size(
      ini, "network", "v2c_max_concurrent",
      cfg.net.v2c.max_concurrent_per_agent);
  cfg.net.v2x.max_concurrent_per_agent = get_size(
      ini, "network", "v2x_max_concurrent",
      cfg.net.v2x.max_concurrent_per_agent);

  // [workload]
  cfg.workload.kind = ini.get("workload", "kind", cfg.workload.kind);
  cfg.workload.objective =
      ini.get("workload", "objective", cfg.workload.objective);
  cfg.workload.dims = get_size(ini, "workload", "dims", cfg.workload.dims);
  cfg.workload.components =
      get_size(ini, "workload", "components", cfg.workload.components);
  cfg.workload.gmm_components = get_size(ini, "workload", "gmm_components",
                                         cfg.workload.gmm_components);
  cfg.workload.em_iterations = static_cast<int>(ini.get_int(
      "workload", "em_iterations", cfg.workload.em_iterations));
  cfg.workload.var_floor =
      ini.get_double("workload", "var_floor", cfg.workload.var_floor);
  cfg.workload.rate_per_s =
      ini.get_double("workload", "rate_per_s", cfg.workload.rate_per_s);
  cfg.workload.recent_window = get_size(ini, "workload", "recent_window",
                                        cfg.workload.recent_window);
  cfg.workload.eval_every_s =
      ini.get_double("workload", "eval_every_s", cfg.workload.eval_every_s);
  cfg.workload.eval_samples =
      get_size(ini, "workload", "eval_samples", cfg.workload.eval_samples);
  cfg.workload.recovery_fraction = ini.get_double(
      "workload", "recovery_fraction", cfg.workload.recovery_fraction);
  cfg.workload.spread =
      ini.get_double("workload", "spread", cfg.workload.spread);
  cfg.workload.placement_radius = ini.get_double(
      "workload", "placement_radius", cfg.workload.placement_radius);

  // [fault] + [fault.N]
  cfg.faults = fault::plan_from_ini(ini);
  // [adversary] + [adversary.N]
  cfg.adversaries = adversary::plan_from_ini(ini);
  // [drift] + [drift.N]
  cfg.workload.drift = workload::plan_from_ini(ini);
  // [traffic] + [traffic.N] + [platoon]
  cfg.traffic = traffic::plan_from_ini(ini);
  return cfg;
}

namespace {

/// Robust-aggregation knobs shared by the merge-based strategies
/// ([strategy] aggregation=mean|trimmed_mean|median|norm_clip|krum).
ml::AggregatorConfig aggregator_from_ini(const IniFile& ini) {
  ml::AggregatorConfig agg;
  if (ini.has("strategy", "aggregation")) {
    agg.kind = ml::aggregator_from_string(
        ini.get("strategy", "aggregation", "mean"));
  }
  agg.trim_fraction =
      ini.get_double("strategy", "trim_fraction", agg.trim_fraction);
  agg.clip_norm = ini.get_double("strategy", "clip_norm", agg.clip_norm);
  agg.krum_select = get_size(ini, "strategy", "krum_select", agg.krum_select);
  agg.krum_assume_fraction = ini.get_double(
      "strategy", "krum_assume_fraction", agg.krum_assume_fraction);
  return agg;
}

}  // namespace

std::shared_ptr<strategy::LearningStrategy> strategy_from_ini(
    const IniFile& ini) {
  const std::string name = ini.get("strategy", "name", "federated");

  strategy::RoundConfig round;
  round.rounds = static_cast<int>(
      ini.get_int("strategy", "rounds", round.rounds));
  round.participants =
      get_size(ini, "strategy", "participants", round.participants);
  round.round_duration_s = ini.get_double("strategy", "round_duration_s",
                                          round.round_duration_s);
  round.collect_timeout_s = ini.get_double("strategy", "collect_timeout_s",
                                           round.collect_timeout_s);
  if (ini.get("strategy", "selection", "random") == "round_robin") {
    round.selection = strategy::SelectionPolicy::kRoundRobin;
  }
  round.aggregator = aggregator_from_ini(ini);

  if (name == "federated") {
    return std::make_shared<strategy::FederatedStrategy>(round);
  }
  if (name == "opportunistic") {
    strategy::OpportunisticConfig cfg;
    cfg.round = round;
    return std::make_shared<strategy::OpportunisticStrategy>(cfg);
  }
  if (name == "rsu_assisted") {
    strategy::RsuAssistedConfig cfg;
    cfg.round = round;
    cfg.aggregate_at_rsu =
        ini.get_bool("strategy", "aggregate_at_rsu", false);
    return std::make_shared<strategy::RsuAssistedStrategy>(cfg);
  }
  if (name == "federated_clustering") {
    strategy::FederatedClusteringConfig cfg;
    cfg.round = round;
    cfg.clusters = get_size(ini, "strategy", "clusters", cfg.clusters);
    cfg.local_iterations =
        get_size(ini, "strategy", "local_iterations", cfg.local_iterations);
    return std::make_shared<strategy::FederatedClusteringStrategy>(cfg);
  }
  if (name == "gossip") {
    strategy::GossipConfig cfg;
    cfg.duration_s = ini.get_double("strategy", "duration_s", cfg.duration_s);
    cfg.retrain_interval_s = ini.get_double(
        "strategy", "retrain_interval_s", cfg.retrain_interval_s);
    cfg.merge_weight =
        ini.get_double("strategy", "merge_weight", cfg.merge_weight);
    cfg.eval_interval_s = ini.get_double("strategy", "eval_interval_s",
                                         cfg.eval_interval_s);
    cfg.aggregator = aggregator_from_ini(ini);
    return std::make_shared<strategy::GossipStrategy>(cfg);
  }
  if (name == "centralized") {
    strategy::CentralizedConfig cfg;
    cfg.duration_s = ini.get_double("strategy", "duration_s", cfg.duration_s);
    cfg.train_interval_s = ini.get_double("strategy", "train_interval_s",
                                          cfg.train_interval_s);
    cfg.server_epochs = static_cast<int>(
        ini.get_int("strategy", "server_epochs", cfg.server_epochs));
    return std::make_shared<strategy::CentralizedStrategy>(cfg);
  }
  throw std::runtime_error{"experiment: unknown strategy '" + name + "'"};
}

RunResult run_experiment(const IniFile& ini) {
  Scenario scenario{scenario_from_ini(ini)};
  return scenario.run(strategy_from_ini(ini));
}

}  // namespace roadrunner::scenario

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

using util::IniFile;

ScenarioConfig scenario_from_ini(const IniFile& ini) {
  ScenarioConfig cfg;

  // [scenario]
  ini.check_keys("scenario",
                 {"seed", "vehicles", "rsus", "horizon_s", "mobility_tick_s",
                  "data_arrival_per_s", "trace_events", "telemetry",
                  "checkpoint_every_s", "checkpoint_dir"});
  cfg.seed = ini.get_uint64("scenario", "seed", cfg.seed);
  cfg.vehicles = ini.get_size("scenario", "vehicles", cfg.vehicles);
  cfg.rsus = ini.get_size("scenario", "rsus", cfg.rsus);
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
  ini.check_keys("city", {"size_m", "block_m", "duration_s", "speed_mps",
                          "dwell_s", "initial_on", "dwell_on"});
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
  ini.check_keys("data",
                 {"dataset", "train_pool", "test_size", "partition",
                  "samples_per_vehicle", "classes_per_vehicle",
                  "dirichlet_alpha", "image_noise", "image_gain_jitter",
                  "blob_classes", "blob_dimensions", "blob_radius",
                  "blob_spread"});
  cfg.dataset = ini.get("data", "dataset", cfg.dataset);
  cfg.train_pool_size =
      ini.get_size("data", "train_pool", cfg.train_pool_size);
  cfg.test_size = ini.get_size("data", "test_size", cfg.test_size);
  cfg.partition = ini.get("data", "partition", cfg.partition);
  cfg.samples_per_vehicle =
      ini.get_size("data", "samples_per_vehicle", cfg.samples_per_vehicle);
  cfg.classes_per_vehicle =
      ini.get_size("data", "classes_per_vehicle", cfg.classes_per_vehicle);
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
  cfg.blob_config.num_classes =
      ini.get_size("data", "blob_classes", cfg.blob_config.num_classes);
  cfg.blob_config.dimensions =
      ini.get_size("data", "blob_dimensions", cfg.blob_config.dimensions);
  cfg.blob_config.center_radius = ini.get_double(
      "data", "blob_radius", cfg.blob_config.center_radius);
  cfg.blob_config.spread =
      ini.get_double("data", "blob_spread", cfg.blob_config.spread);

  // [train]
  ini.check_keys("train", {"model", "epochs", "batch", "lr", "momentum",
                           "proximal_mu", "optimizer"});
  cfg.model = ini.get("train", "model", cfg.model);
  cfg.train.epochs = static_cast<int>(
      ini.get_int("train", "epochs", cfg.train.epochs));
  cfg.train.batch_size = ini.get_size("train", "batch", cfg.train.batch_size);
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
  ini.check_keys("network",
                 {"v2c_bandwidth", "v2c_latency", "v2c_loss", "v2x_bandwidth",
                  "v2x_range", "v2x_loss", "v2x_range_degradation",
                  "dead_area_fraction", "v2c_max_concurrent",
                  "v2x_max_concurrent"});
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
  cfg.net.v2c.max_concurrent_per_agent = ini.get_size(
      "network", "v2c_max_concurrent", cfg.net.v2c.max_concurrent_per_agent);
  cfg.net.v2x.max_concurrent_per_agent = ini.get_size(
      "network", "v2x_max_concurrent", cfg.net.v2x.max_concurrent_per_agent);

  // [workload]
  ini.check_keys("workload",
                 {"kind", "objective", "dims", "components", "gmm_components",
                  "em_iterations", "var_floor", "rate_per_s", "recent_window",
                  "eval_every_s", "eval_samples", "recovery_fraction",
                  "spread", "placement_radius"});
  cfg.workload.kind = ini.get("workload", "kind", cfg.workload.kind);
  cfg.workload.objective =
      ini.get("workload", "objective", cfg.workload.objective);
  cfg.workload.dims = ini.get_size("workload", "dims", cfg.workload.dims);
  cfg.workload.components =
      ini.get_size("workload", "components", cfg.workload.components);
  cfg.workload.gmm_components = ini.get_size("workload", "gmm_components",
                                              cfg.workload.gmm_components);
  cfg.workload.em_iterations = static_cast<int>(ini.get_int(
      "workload", "em_iterations", cfg.workload.em_iterations));
  cfg.workload.var_floor =
      ini.get_double("workload", "var_floor", cfg.workload.var_floor);
  cfg.workload.rate_per_s =
      ini.get_double("workload", "rate_per_s", cfg.workload.rate_per_s);
  cfg.workload.recent_window = ini.get_size("workload", "recent_window",
                                             cfg.workload.recent_window);
  cfg.workload.eval_every_s =
      ini.get_double("workload", "eval_every_s", cfg.workload.eval_every_s);
  cfg.workload.eval_samples =
      ini.get_size("workload", "eval_samples", cfg.workload.eval_samples);
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
  agg.krum_select = ini.get_size("strategy", "krum_select", agg.krum_select);
  agg.krum_assume_fraction = ini.get_double(
      "strategy", "krum_assume_fraction", agg.krum_assume_fraction);
  return agg;
}

}  // namespace

std::shared_ptr<strategy::LearningStrategy> strategy_from_ini(
    const IniFile& ini) {
  // The union of every strategy's keys: a campaign zip sets a column on
  // every row, also on rows whose strategy ignores it.
  ini.check_keys(
      "strategy",
      {"name", "rounds", "participants", "round_duration_s",
       "collect_timeout_s", "selection", "aggregation", "trim_fraction",
       "clip_norm", "krum_select", "krum_assume_fraction", "aggregate_at_rsu",
       "clusters", "local_iterations", "duration_s", "retrain_interval_s",
       "merge_weight", "eval_interval_s", "train_interval_s",
       "server_epochs"});
  const std::string name = ini.get("strategy", "name", "federated");

  strategy::RoundConfig round;
  round.rounds = static_cast<int>(
      ini.get_int("strategy", "rounds", round.rounds));
  round.participants =
      ini.get_size("strategy", "participants", round.participants);
  round.round_duration_s = ini.get_double("strategy", "round_duration_s",
                                          round.round_duration_s);
  round.collect_timeout_s = ini.get_double("strategy", "collect_timeout_s",
                                           round.collect_timeout_s);
  const std::string selection = ini.get("strategy", "selection", "random");
  if (selection == "round_robin") {
    round.selection = strategy::SelectionPolicy::kRoundRobin;
  } else if (selection != "random") {
    throw std::runtime_error{"experiment: unknown selection '" + selection +
                             "'"};
  }
  round.aggregator = aggregator_from_ini(ini);

  if (name == "federated") {
    return std::make_shared<strategy::FederatedStrategy>(round);
  }
  if (name == "opportunistic") {
    return std::make_shared<strategy::OpportunisticStrategy>(round);
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
    cfg.clusters = ini.get_size("strategy", "clusters", cfg.clusters);
    cfg.local_iterations =
        ini.get_size("strategy", "local_iterations", cfg.local_iterations);
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

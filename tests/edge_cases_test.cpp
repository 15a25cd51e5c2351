// Remaining edge cases across modules: wired-channel durations, commute
// fleet helpers, OPP reporter loss handling, and registry export quoting.
#include <gtest/gtest.h>

#include <sstream>

#include "comm/network.hpp"
#include "metrics/registry.hpp"
#include "mobility/commute_model.hpp"
#include "scenario/scenario.hpp"
#include "strategy/opportunistic.hpp"

namespace roadrunner {
namespace {

TEST(Network, DurationBetweenIgnoresDegradationForCloudAndWired) {
  mobility::CityModelConfig city;
  city.duration_s = 100.0;
  const auto fleet = mobility::make_city_fleet(2, city);
  comm::Network::Config cfg;
  cfg.v2x.range_degradation = 0.9;
  cfg.v2c.range_degradation = 0.9;  // nonsensical for V2C; must be ignored
  cfg.v2c.range_m = 0.0;
  comm::Network net{fleet, cfg, util::Rng{1}};
  // Cloud endpoint: falls back to the flat duration.
  EXPECT_DOUBLE_EQ(
      net.duration_between(comm::kCloudEndpoint, 0, comm::ChannelKind::kV2C,
                           1000, 0.0),
      net.duration(comm::ChannelKind::kV2C, 1000));
  // Wired: flat as well.
  EXPECT_DOUBLE_EQ(net.duration_between(0, 1, comm::ChannelKind::kWired,
                                        1000, 0.0),
                   net.duration(comm::ChannelKind::kWired, 1000));
}

TEST(CommuteModel, FleetOnFractionEdgeCases) {
  mobility::FleetModel empty;
  EXPECT_DOUBLE_EQ(mobility::fleet_on_fraction(empty, 0.0), 0.0);
  mobility::CommuteModelConfig cfg;
  cfg.day_length_s = 4000.0;
  const auto fleet = mobility::make_commute_fleet(4, cfg);
  const double f = mobility::fleet_on_fraction(fleet, 100.0);
  EXPECT_GE(f, 0.0);
  EXPECT_LE(f, 1.0);
}

TEST(Metrics, CsvExportQuotesAwkwardNames) {
  metrics::Registry reg;
  reg.add_point("series,with comma", 1.0, 2.0);
  std::ostringstream out;
  reg.export_csv(out);
  EXPECT_NE(out.str().find("\"series,with comma\""), std::string::npos);
}

TEST(Opportunistic, ReporterPowerOffDiscardsItsCollection) {
  // Reporters that die mid-round take their collected models with them
  // (paper §5.2); the server finalizes with whatever other reporters sent.
  scenario::ScenarioConfig cfg;
  cfg.seed = 95;
  cfg.vehicles = 8;
  cfg.dataset = "blobs";
  cfg.train_pool_size = 1200;
  cfg.test_size = 240;
  cfg.partition = "iid";
  cfg.samples_per_vehicle = 30;
  cfg.model = "logreg";
  cfg.city.duration_s = 5000.0;
  cfg.city.dwell_mean_s = 120.0;  // frequent power cycling
  cfg.city.initial_on_probability = 0.6;
  cfg.city.dwell_on_probability = 0.0;
  cfg.net.v2c.loss_probability = 0.3;  // force visible churn
  scenario::Scenario scenario{cfg};
  strategy::RoundConfig opp;
  opp.rounds = 6;
  opp.participants = 3;
  opp.round_duration_s = 150.0;
  const auto result =
      scenario.run(std::make_shared<strategy::OpportunisticStrategy>(opp));
  EXPECT_DOUBLE_EQ(result.metrics.counter("rounds_completed"), 6.0);
  // With this much churn some work is necessarily discarded or lost.
  const double churn = result.metrics.counter("trainings_discarded") +
                       result.metrics.counter("opp_returns_discarded") +
                       result.metrics.counter("messages_failed");
  EXPECT_GT(churn, 0.0);
}

TEST(Scenario, RsuAgentsRegisteredFromConfig) {
  scenario::ScenarioConfig cfg;
  cfg.seed = 96;
  cfg.vehicles = 5;
  cfg.rsus = 3;
  cfg.dataset = "blobs";
  cfg.train_pool_size = 600;
  cfg.test_size = 120;
  cfg.partition = "iid";
  cfg.samples_per_vehicle = 20;
  cfg.model = "logreg";
  cfg.city.duration_s = 500.0;
  scenario::Scenario scenario{cfg};
  auto sim = scenario.make_simulator();
  EXPECT_EQ(sim->rsu_ids().size(), 3U);
  EXPECT_EQ(sim->agent_count(), 1U + 5U + 3U);
  for (core::AgentId rsu : sim->rsu_ids()) {
    EXPECT_EQ(sim->agent(rsu).kind, core::AgentKind::kRoadsideUnit);
    EXPECT_TRUE(sim->is_on(rsu));
  }
}

}  // namespace
}  // namespace roadrunner

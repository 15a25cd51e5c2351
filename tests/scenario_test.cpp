// Scenario-builder and whole-system integration tests, including the
// byte-for-byte determinism guarantee (DESIGN.md §4, decision 1).
#include <gtest/gtest.h>

#include <sstream>

#include "scenario/scenario.hpp"
#include "strategy/federated.hpp"
#include "strategy/opportunistic.hpp"

namespace roadrunner::scenario {
namespace {

ScenarioConfig small_config(std::uint64_t seed = 2) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.vehicles = 10;
  cfg.dataset = "blobs";
  cfg.train_pool_size = 1500;
  cfg.test_size = 300;
  cfg.partition = "class_skew";
  cfg.samples_per_vehicle = 30;
  cfg.classes_per_vehicle = 2;
  cfg.model = "logreg";
  cfg.city.duration_s = 2000.0;
  return cfg;
}

strategy::RoundConfig small_rounds() {
  strategy::RoundConfig round;
  round.rounds = 5;
  round.participants = 3;
  round.round_duration_s = 30.0;
  return round;
}

TEST(Scenario, BuildsFleetDataAndModel) {
  Scenario s{small_config()};
  EXPECT_EQ(s.fleet().vehicle_count(), 10U);
  EXPECT_EQ(s.vehicle_data().size(), 10U);
  for (const auto& view : s.vehicle_data()) {
    EXPECT_EQ(view.size(), 30U);
  }
  EXPECT_EQ(s.test_set().size(), 300U);
  EXPECT_GT(s.model_bytes(), 0U);
}

TEST(Scenario, DeadAreaFractionCarvesZonesFromTheSeed) {
  auto cfg = small_config();
  EXPECT_TRUE(Scenario{cfg}.config().net.coverage.dead_zones().empty());
  cfg.dead_area_fraction = 0.1;
  const auto zones = Scenario{cfg}.config().net.coverage.dead_zones();
  ASSERT_FALSE(zones.empty());
  const auto again = Scenario{cfg}.config().net.coverage.dead_zones();
  ASSERT_EQ(again.size(), zones.size());
  EXPECT_EQ(again.front().center.x, zones.front().center.x);
  // Each replicate seed gets its own map.
  cfg.seed += 1;
  const auto moved = Scenario{cfg}.config().net.coverage.dead_zones();
  EXPECT_NE(moved.front().center.x, zones.front().center.x);
}

TEST(Scenario, ValidatesNames) {
  auto cfg = small_config();
  cfg.dataset = "mnist";
  EXPECT_THROW(Scenario{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.partition = "zipf";
  EXPECT_THROW(Scenario{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.model = "resnet";
  EXPECT_THROW(Scenario{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.vehicles = 0;
  EXPECT_THROW(Scenario{cfg}, std::invalid_argument);
}

TEST(Scenario, RunProducesStandardMetrics) {
  Scenario s{small_config()};
  const RunResult result =
      s.run(std::make_shared<strategy::FederatedStrategy>(small_rounds()));
  EXPECT_EQ(result.strategy_name, "federated");
  EXPECT_TRUE(result.metrics.has_series("accuracy"));
  EXPECT_GT(result.final_accuracy, 0.0);
  EXPECT_GT(result.report.events_executed, 0U);
  EXPECT_GT(result.channel(comm::ChannelKind::kV2C).bytes_delivered, 0U);
}

TEST(Scenario, ChannelCountersMatchNetworkStats) {
  Scenario s{small_config()};
  const RunResult result =
      s.run(std::make_shared<strategy::FederatedStrategy>(small_rounds()));
  EXPECT_DOUBLE_EQ(
      result.metrics.counter("bytes_V2C_delivered"),
      static_cast<double>(
          result.channel(comm::ChannelKind::kV2C).bytes_delivered));
  EXPECT_DOUBLE_EQ(
      result.metrics.counter("bytes_V2X_delivered"),
      static_cast<double>(
          result.channel(comm::ChannelKind::kV2X).bytes_delivered));
}

TEST(Scenario, IndependentRunsOnSameSubstrate) {
  // Two strategies on one Scenario see identical fleet and data.
  Scenario s{small_config()};
  const auto a =
      s.run(std::make_shared<strategy::FederatedStrategy>(small_rounds()));
  const auto b =
      s.run(std::make_shared<strategy::FederatedStrategy>(small_rounds()));
  // Identical strategy + identical substrate + same seed => identical run.
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.channel(comm::ChannelKind::kV2C).bytes_delivered,
            b.channel(comm::ChannelKind::kV2C).bytes_delivered);
}

// --------------------------------------------------------- determinism ----

std::string metrics_fingerprint(const RunResult& r) {
  std::ostringstream out;
  r.metrics.export_csv(out);
  return out.str();
}

TEST(Determinism, SameSeedIsByteIdentical) {
  Scenario s1{small_config(7)};
  Scenario s2{small_config(7)};
  const auto a =
      s1.run(std::make_shared<strategy::FederatedStrategy>(small_rounds()));
  const auto b =
      s2.run(std::make_shared<strategy::FederatedStrategy>(small_rounds()));
  EXPECT_EQ(metrics_fingerprint(a), metrics_fingerprint(b));
}

TEST(Determinism, DifferentSeedsDiffer) {
  Scenario s1{small_config(7)};
  Scenario s2{small_config(8)};
  const auto a =
      s1.run(std::make_shared<strategy::FederatedStrategy>(small_rounds()));
  const auto b =
      s2.run(std::make_shared<strategy::FederatedStrategy>(small_rounds()));
  EXPECT_NE(metrics_fingerprint(a), metrics_fingerprint(b));
}

TEST(Determinism, OpportunisticRunIsReproducible) {
  auto cfg = small_config(9);
  cfg.city.duration_s = 4000.0;
  strategy::OpportunisticConfig opp;
  opp.round.rounds = 3;
  opp.round.participants = 2;
  opp.round.round_duration_s = 120.0;
  Scenario s1{cfg};
  Scenario s2{cfg};
  const auto a =
      s1.run(std::make_shared<strategy::OpportunisticStrategy>(opp));
  const auto b =
      s2.run(std::make_shared<strategy::OpportunisticStrategy>(opp));
  EXPECT_EQ(metrics_fingerprint(a), metrics_fingerprint(b));
}

// ---------------------------------------------------- external fleet path --

TEST(Scenario, AcceptsExternalFleet) {
  mobility::CityModelConfig city;
  city.duration_s = 1000.0;
  auto fleet = std::make_shared<mobility::FleetModel>(
      mobility::make_city_fleet(12, city));
  auto cfg = small_config();
  cfg.vehicles = 12;
  cfg.external_fleet = fleet;
  Scenario s{cfg};
  EXPECT_EQ(&s.fleet(), fleet.get());
  const auto result =
      s.run(std::make_shared<strategy::FederatedStrategy>(small_rounds()));
  EXPECT_GT(result.report.events_executed, 0U);
}

TEST(Scenario, RejectsTooSmallExternalFleet) {
  mobility::CityModelConfig city;
  city.duration_s = 500.0;
  auto fleet = std::make_shared<mobility::FleetModel>(
      mobility::make_city_fleet(3, city));
  auto cfg = small_config();
  cfg.vehicles = 10;
  cfg.external_fleet = fleet;
  EXPECT_THROW(Scenario{cfg}, std::invalid_argument);
}

TEST(Scenario, DirichletAndIidPartitions) {
  auto cfg = small_config();
  cfg.partition = "iid";
  EXPECT_NO_THROW(Scenario{cfg});
  cfg.partition = "dirichlet";
  cfg.dirichlet_alpha = 0.3;
  Scenario s{cfg};
  std::size_t total = 0;
  for (const auto& v : s.vehicle_data()) total += v.size();
  EXPECT_EQ(total, cfg.train_pool_size);  // dirichlet assigns whole pool
}

}  // namespace
}  // namespace roadrunner::scenario

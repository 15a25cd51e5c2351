// Scenario-builder and whole-system integration tests, including the
// byte-for-byte determinism guarantee (DESIGN.md §4, decision 1).
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <sstream>

#include "data/synthetic_images.hpp"
#include "scenario/scenario.hpp"
#include "strategy/federated.hpp"
#include "strategy/opportunistic.hpp"
#include "util/thread_pool.hpp"

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
  strategy::RoundConfig opp;
  opp.rounds = 3;
  opp.participants = 2;
  opp.round_duration_s = 120.0;
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

// ------------------------------------------------------ row-mapped images --

// The image scenario splits and partitions on the planned labels, then
// renders only the rows its test set and vehicles reference. The dense pool
// is the oracle: every referenced sample carries the dense pool's bytes at
// the same index, and the rendered dataset keeps every label.

/// The ledger's fl_cnn data: 9000 + 500 images; 40 vehicles of 80 samples
/// from two classes each.
ScenarioConfig image_config(const std::string& partition) {
  ScenarioConfig cfg;
  cfg.seed = 31;
  cfg.vehicles = 40;
  cfg.dataset = "images";
  cfg.train_pool_size = 9000;
  cfg.test_size = 500;
  cfg.partition = partition;
  cfg.samples_per_vehicle = 80;
  cfg.classes_per_vehicle = 2;
  cfg.model = "logreg";
  cfg.city.duration_s = 2000.0;
  return cfg;
}

const ml::Dataset& dense_pool() {
  static const ml::Dataset pool = [] {
    const ScenarioConfig cfg = image_config("iid");
    data::SyntheticImageConfig ic = cfg.image_config;
    ic.seed = cfg.seed ^ 0xDA7A5EEDULL;
    return data::make_synthetic_images(cfg.train_pool_size + cfg.test_size,
                                       ic);
  }();
  return pool;
}

void expect_dense_bytes(const ml::DatasetView& view) {
  const ml::Dataset& dense = dense_pool();
  for (std::size_t i = 0; i < view.size(); ++i) {
    const std::uint32_t idx = view.indices()[i];
    ASSERT_EQ(0, std::memcmp(view.sample(i), dense.sample(idx),
                             dense.sample_size() * sizeof(float)))
        << "index " << idx;
  }
}

struct RenderCase {
  const char* name;
  const char* partition;
  bool one_worker;
  std::size_t rendered;  ///< rows the build must render, no more
};

// gtest would otherwise print the case's raw bytes, pointers included, into
// the registered test name, which then changes with every address layout.
void PrintTo(const RenderCase& c, std::ostream* os) { *os << c.name; }

class RowMappedImages : public ::testing::TestWithParam<RenderCase> {};

TEST_P(RowMappedImages, ViewsReadTheDensePoolBytes) {
  const RenderCase& c = GetParam();
  std::optional<Scenario> s;
  if (c.one_worker) {
    // Called from one of its own workers, the global pool runs the render
    // inline on that one thread.
    util::ThreadPool::global().parallel_for(
        1, [&](std::size_t) { s.emplace(image_config(c.partition)); });
  } else {
    s.emplace(image_config(c.partition));
  }
  const ml::Dataset& base = s->test_set().base();
  EXPECT_EQ(base.labels(), dense_pool().labels());
  EXPECT_EQ(base.features().dim(0), c.rendered);
  EXPECT_EQ(s->test_set().size(), 500U);
  expect_dense_bytes(s->test_set());
  for (const ml::DatasetView& v : s->vehicle_data()) {
    ASSERT_EQ(&v.base(), &base);
    expect_dense_bytes(v);
  }
}

// class_skew and iid hand out 40 x 80 disjoint rows plus the 500 test rows;
// dirichlet assigns the whole train pool, so every row is rendered.
INSTANTIATE_TEST_SUITE_P(
    Partitions, RowMappedImages,
    ::testing::Values(RenderCase{"class_skew_1", "class_skew", true, 3700},
                      RenderCase{"class_skew_pool", "class_skew", false, 3700},
                      RenderCase{"iid_1", "iid", true, 3700},
                      RenderCase{"iid_pool", "iid", false, 3700},
                      RenderCase{"dirichlet_1", "dirichlet", true, 9500},
                      RenderCase{"dirichlet_pool", "dirichlet", false, 9500}),
    [](const ::testing::TestParamInfo<RenderCase>& info) {
      return std::string{info.param.name};
    });

}  // namespace
}  // namespace roadrunner::scenario

// Assorted edge-case coverage: message wire accounting, agent/channel
// string helpers, round-machinery corner cases (idle rounds, collect
// timeout, reply round mismatches), gossip merge cooldown, and simulator
// API misuse.
#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "data/gaussian_blobs.hpp"
#include "ml/models.hpp"
#include "scenario/scenario.hpp"
#include "strategy/federated.hpp"
#include "strategy/gossip.hpp"

namespace roadrunner {
namespace {

// ------------------------------------------------------------- messages --

TEST(Message, WireBytesAccountsHeaderModelAndExtras) {
  core::Message msg;
  EXPECT_EQ(msg.wire_bytes(), core::Message::kHeaderBytes + 4U);  // empty w
  msg.extra_bytes = 1000;
  EXPECT_EQ(msg.wire_bytes(), core::Message::kHeaderBytes + 4U + 1000U);
  msg.model.emplace_back(std::vector<std::size_t>{10});
  EXPECT_EQ(msg.wire_bytes(), core::Message::kHeaderBytes +
                                  ml::weights_byte_size(msg.model) + 1000U);
}

TEST(Strings, AgentAndChannelNames) {
  EXPECT_EQ(core::to_string(core::TraceKind::kEncounterBegin),
            "encounter-begin");
}

// ----------------------------------------------------- round-base corners --

scenario::ScenarioConfig tiny_world(std::uint64_t seed,
                                    double initial_on = 1.0) {
  scenario::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.vehicles = 6;
  cfg.dataset = "blobs";
  cfg.train_pool_size = 900;
  cfg.test_size = 200;
  cfg.partition = "iid";
  cfg.samples_per_vehicle = 30;
  cfg.model = "logreg";
  cfg.city.duration_s = 5000.0;
  cfg.city.initial_on_probability = initial_on;
  cfg.city.dwell_on_probability = initial_on;
  return cfg;
}

TEST(RoundBase, IdleRoundsWhenFleetUnavailableThenRecovers) {
  // Everyone starts parked-off; the server idles rounds until trips begin,
  // then completes its quota before the horizon.
  auto cfg = tiny_world(71, /*initial_on=*/0.0);
  cfg.city.dwell_mean_s = 150.0;
  scenario::Scenario scenario{cfg};
  strategy::RoundConfig round;
  round.rounds = 3;
  round.participants = 2;
  round.round_duration_s = 40.0;
  const auto result =
      scenario.run(std::make_shared<strategy::FederatedStrategy>(round));
  EXPECT_DOUBLE_EQ(result.metrics.counter("rounds_completed"), 3.0);
  // The first accuracy point is at t=0; the first *round* point comes later
  // than 3 nominal rounds would take, because of the idle retries.
  const auto& acc = result.metrics.series("accuracy");
  EXPECT_GT(acc.back().time_s, 3 * 40.0);
}

TEST(RoundBase, StaleRepliesFromOldRoundsIgnored) {
  // A strategy stub that captures the server's state transitions is
  // overkill here; instead assert the invariant the guard produces: the
  // contributions series never exceeds the participants cap even when
  // replies straggle across round boundaries (forced by a collect timeout
  // shorter than the reply transfer time).
  auto cfg = tiny_world(72);
  cfg.net.v2c.bandwidth_bytes_per_s = 2e4;  // model reply takes ~4 s
  scenario::Scenario scenario{cfg};
  strategy::RoundConfig round;
  round.rounds = 5;
  round.participants = 3;
  round.round_duration_s = 20.0;
  round.collect_timeout_s = 1.0;  // most replies arrive too late
  const auto result =
      scenario.run(std::make_shared<strategy::FederatedStrategy>(round));
  EXPECT_DOUBLE_EQ(result.metrics.counter("rounds_completed"), 5.0);
  for (const auto& p : result.metrics.series("contributions_per_round")) {
    EXPECT_LE(p.value, 3.0);
  }
}

TEST(RoundBase, ProvenanceNeverExceedsFleet) {
  scenario::Scenario scenario{tiny_world(73)};
  strategy::RoundConfig round;
  round.rounds = 6;
  round.participants = 4;
  const auto result =
      scenario.run(std::make_shared<strategy::FederatedStrategy>(round));
  for (const auto& p :
       result.metrics.series("unique_data_contributors")) {
    EXPECT_LE(p.value, 6.0);
  }
}

// ------------------------------------------------------- gossip cooldown --

TEST(Gossip, MergeCooldownBoundsMergeRate) {
  // Two vehicles permanently in range: without a cooldown every mobility
  // tick could trigger a merge; with cooldown C over horizon T, merges per
  // vehicle are bounded by ~T/C.
  scenario::ScenarioConfig cfg = tiny_world(74);
  cfg.vehicles = 2;
  cfg.city.city_size_m = 150.0;  // both inside one V2X cell
  cfg.city.block_size_m = 100.0;
  cfg.horizon_s = 1000.0;
  scenario::Scenario scenario{cfg};
  strategy::GossipConfig gossip;
  gossip.merge_cooldown_s = 100.0;
  gossip.retrain_interval_s = 50.0;
  gossip.eval_interval_s = 500.0;
  gossip.duration_s = 990.0;
  const auto result =
      scenario.run(std::make_shared<strategy::GossipStrategy>(gossip));
  // Upper bound: 2 vehicles x (1000 / 100) merges, plus slack for the
  // first exchange.
  EXPECT_LE(result.metrics.counter("gossip_merges"), 22.0);
}

// --------------------------------------------------------- simulator API --

TEST(SimulatorApi, MisuseThrows) {
  mobility::CityModelConfig city;
  city.duration_s = 100.0;
  auto fleet = std::make_shared<mobility::FleetModel>(
      mobility::make_city_fleet(2, city));
  auto dataset = std::make_shared<ml::Dataset>(data::make_gaussian_blobs(8));
  ml::Network proto = ml::make_logreg(16, 4);
  util::Rng rng{5};
  ml::prime_and_init(proto, {16}, rng);
  core::SimulatorConfig cfg;
  cfg.horizon_s = 50.0;

  core::Simulator sim{*fleet, comm::Network::Config{},
                      core::MlService{proto, ml::DatasetView::all(dataset)},
                      cfg};
  // No strategy set.
  sim.add_cloud();
  EXPECT_THROW(sim.run(), std::logic_error);

  // Out-of-range agent queries.
  EXPECT_THROW((void)sim.agent(99), std::out_of_range);
  // The cloud has no position.
  EXPECT_THROW((void)sim.position_of(0), std::logic_error);

  // Bad mobility tick.
  core::SimulatorConfig bad = cfg;
  bad.mobility_tick_s = 0.0;
  EXPECT_THROW(
      (core::Simulator{*fleet, comm::Network::Config{},
                       core::MlService{proto, ml::DatasetView::all(dataset)},
                       bad}),
      std::invalid_argument);
}

TEST(SimulatorApi, CloudIdWithoutCloudThrows) {
  mobility::CityModelConfig city;
  city.duration_s = 100.0;
  auto fleet = std::make_shared<mobility::FleetModel>(
      mobility::make_city_fleet(1, city));
  auto dataset = std::make_shared<ml::Dataset>(data::make_gaussian_blobs(8));
  ml::Network proto = ml::make_logreg(16, 4);
  util::Rng rng{6};
  ml::prime_and_init(proto, {16}, rng);
  core::SimulatorConfig cfg;
  core::Simulator sim{*fleet, comm::Network::Config{},
                      core::MlService{proto, ml::DatasetView::all(dataset)},
                      cfg};
  EXPECT_THROW((void)sim.cloud_id(), std::logic_error);
}

// ----------------------------------------------------------- ml service --

TEST(MlService, RejectsEmptyPrototypeAndPrimingFixesConvFlops) {
  auto dataset = std::make_shared<ml::Dataset>(data::make_gaussian_blobs(8));
  ml::Network empty;
  EXPECT_THROW((core::MlService{empty, ml::DatasetView::all(dataset)}),
               std::invalid_argument);
  // Before priming, a CNN's conv layers report 0 FLOPs (spatial dims
  // unknown) and only the FC layers count; priming must raise the figure.
  ml::Network cnn = ml::make_paper_cnn();
  const std::uint64_t before = cnn.flops_per_sample();
  util::Rng rng{9};
  ml::prime_and_init(cnn, {3, 32, 32}, rng);
  EXPECT_GT(cnn.flops_per_sample(), before);
}

TEST(MlService, TestWithoutTestSetThrows) {
  ml::Network proto = ml::make_logreg(16, 4);
  util::Rng rng{7};
  ml::prime_and_init(proto, {16}, rng);
  core::MlService svc{proto, ml::DatasetView{}};
  EXPECT_THROW((void)svc.test(proto.weights()), std::logic_error);
}

TEST(MlService, FlopEstimateMatchesTrainerReport) {
  auto dataset =
      std::make_shared<ml::Dataset>(data::make_gaussian_blobs(64));
  ml::Network proto = ml::make_logreg(16, 4);
  util::Rng rng{8};
  ml::prime_and_init(proto, {16}, rng);
  core::MlService svc{proto, ml::DatasetView::all(dataset)};
  ml::TrainConfig cfg;
  cfg.epochs = 3;
  const auto result = svc.train(proto.weights(),
                                ml::DatasetView::all(dataset), cfg,
                                util::Rng{9});
  EXPECT_EQ(svc.estimate_train_flops(64, 3), result.report.flops);
}

}  // namespace
}  // namespace roadrunner

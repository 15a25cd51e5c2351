// Strategy-level tests: each of the five learning strategies runs end-to-end
// on a miniature controlled scenario, and OPP's central claim — that a round
// with V2X-gathered contributions aggregates to exactly the flat FedAvg over
// every contributor (paper Fig. 3, step 7) — is verified on the live system.
#include <gtest/gtest.h>

#include "core/simulator.hpp"
#include "data/gaussian_blobs.hpp"
#include "ml/fedavg.hpp"
#include "ml/models.hpp"
#include "strategy/centralized.hpp"
#include "strategy/federated.hpp"
#include "strategy/gossip.hpp"
#include "strategy/opportunistic.hpp"
#include "strategy/rsu_assisted.hpp"

namespace roadrunner::strategy {
namespace {

using core::AgentId;
using core::MlService;
using core::Simulator;
using core::SimulatorConfig;
using mobility::IgnitionSchedule;
using mobility::Position;
using mobility::Trace;
using mobility::VehicleTrack;

/// A controlled world: `n` stationary, always-on vehicles in a row, 50 m
/// apart (all within the 200 m V2X range of their neighbours), each with a
/// disjoint slice of a blob dataset; lossless channels; logreg model.
struct MiniWorld {
  std::shared_ptr<mobility::FleetModel> fleet;
  std::shared_ptr<const ml::Dataset> dataset;
  std::unique_ptr<Simulator> sim;
  AgentId cloud{};
  std::vector<AgentId> vehicles;
  std::vector<mobility::NodeId> rsu_nodes;

  explicit MiniWorld(std::size_t n, double horizon, std::size_t rsus = 0,
                     std::uint64_t seed = 11, double spacing = 50.0) {
    std::vector<VehicleTrack> tracks;
    for (std::size_t v = 0; v < n; ++v) {
      const Position p{spacing * static_cast<double>(v), 0.0};
      tracks.push_back({Trace{{{0.0, p}, {horizon + 1000.0, p}}},
                        IgnitionSchedule::always_on()});
    }
    fleet = std::make_shared<mobility::FleetModel>(std::move(tracks));
    for (std::size_t r = 0; r < rsus; ++r) {
      rsu_nodes.push_back(fleet->add_static_node(
          Position{spacing * static_cast<double>(r) + 10.0, 30.0}));
    }

    data::GaussianBlobConfig bc;
    bc.seed = seed;
    dataset = std::make_shared<ml::Dataset>(
        data::make_gaussian_blobs(40 * n + 200, bc));

    ml::Network proto = ml::make_logreg(16, 4);
    util::Rng rng{seed};
    ml::prime_and_init(proto, {16}, rng);
    // Last 200 samples form the test set.
    std::vector<std::uint32_t> test_idx;
    for (std::size_t i = 40 * n; i < 40 * n + 200; ++i) {
      test_idx.push_back(static_cast<std::uint32_t>(i));
    }
    MlService ml_service{proto, ml::DatasetView{dataset, test_idx}};

    comm::Network::Config net;
    net.v2c.loss_probability = 0.0;
    net.v2x.loss_probability = 0.0;

    SimulatorConfig cfg;
    cfg.horizon_s = horizon;
    cfg.seed = seed;
    sim = std::make_unique<Simulator>(*fleet, net, std::move(ml_service),
                                      cfg);
    cloud = sim->add_cloud();
    for (std::size_t v = 0; v < n; ++v) {
      std::vector<std::uint32_t> idx;
      for (std::size_t i = 40 * v; i < 40 * (v + 1); ++i) {
        idx.push_back(static_cast<std::uint32_t>(i));
      }
      vehicles.push_back(
          sim->add_vehicle(v, ml::DatasetView{dataset, std::move(idx)}));
    }
    for (mobility::NodeId node : rsu_nodes) sim->add_rsu(node);
  }
};

// ------------------------------------------------------------- federated --

TEST(FederatedStrategy, CompletesRoundsAndLearns) {
  MiniWorld world{6, 4000.0};
  RoundConfig cfg;
  cfg.rounds = 8;
  cfg.participants = 3;
  cfg.round_duration_s = 30.0;
  auto fl = std::make_shared<FederatedStrategy>(cfg);
  world.sim->set_strategy(fl);
  const auto report = world.sim->run();

  const auto& metrics = world.sim->metrics_view();
  EXPECT_TRUE(report.stopped_by_strategy);
  EXPECT_DOUBLE_EQ(metrics.counter("rounds_completed"), 8.0);
  const auto& acc = metrics.series("accuracy");
  ASSERT_EQ(acc.size(), 9U);  // initial + one per round
  EXPECT_GT(acc.back().value, acc.front().value);
  EXPECT_GT(acc.back().value, 0.5);  // blobs + logreg learn quickly
  // Contributions never exceed the participant cap.
  for (const auto& p : metrics.series("contributions_per_round")) {
    EXPECT_LE(p.value, 3.0);
    EXPECT_GE(p.value, 1.0);
  }
}

TEST(FederatedStrategy, UsesOnlyV2c) {
  MiniWorld world{4, 2000.0};
  RoundConfig cfg;
  cfg.rounds = 3;
  cfg.participants = 2;
  world.sim->set_strategy(std::make_shared<FederatedStrategy>(cfg));
  world.sim->run();
  EXPECT_GT(world.sim->network().stats(comm::ChannelKind::kV2C)
                .bytes_delivered,
            0U);
  EXPECT_EQ(world.sim->network().stats(comm::ChannelKind::kV2X)
                .bytes_delivered,
            0U);
}

TEST(RoundConfigValidation, RejectsBadValues) {
  RoundConfig cfg;
  cfg.rounds = 0;
  EXPECT_THROW(FederatedStrategy{cfg}, std::invalid_argument);
  cfg = RoundConfig{};
  cfg.participants = 0;
  EXPECT_THROW(FederatedStrategy{cfg}, std::invalid_argument);
  cfg = RoundConfig{};
  cfg.round_duration_s = 0.0;
  EXPECT_THROW(FederatedStrategy{cfg}, std::invalid_argument);
}

// ---------------------------------------------------------- opportunistic --

TEST(OpportunisticStrategy, RoundAggregateEqualsFlatFedAvg) {
  // Paper Fig. 3 step 7: with one reporter and two in-range non-reporters,
  // the post-round global model must equal the flat FedAvg of all three
  // vehicles' retrained models. Every vehicle's own model still holds its
  // retrained weights at round end, so the expectation is reconstructible.
  MiniWorld world{3, 10000.0};
  RoundConfig cfg;
  cfg.rounds = 1;
  cfg.participants = 1;
  cfg.round_duration_s = 60.0;
  cfg.collect_timeout_s = 30.0;
  auto opp = std::make_shared<OpportunisticStrategy>(cfg);
  world.sim->set_strategy(opp);
  world.sim->run();

  EXPECT_EQ(opp->total_exchanges(), 2U);

  std::vector<ml::WeightedModel> contributions;
  double total_data = 0.0;
  for (AgentId v : world.vehicles) {
    const auto& agent = world.sim->agent(v);
    ASSERT_FALSE(agent.model.empty());
    ASSERT_GT(agent.model_data_amount, 0.0);
    contributions.push_back(
        ml::WeightedModel{agent.model, agent.model_data_amount});
    total_data += agent.model_data_amount;
  }
  const ml::WeightedModel expected = ml::fed_avg(contributions);
  const auto& global = world.sim->agent(world.cloud).model;
  ASSERT_EQ(global.size(), expected.weights.size());
  for (std::size_t t = 0; t < global.size(); ++t) {
    ASSERT_TRUE(global[t].same_shape(expected.weights[t]));
    for (std::size_t i = 0; i < global[t].size(); ++i) {
      ASSERT_NEAR(global[t][i], expected.weights[t][i], 1e-5)
          << "tensor " << t << " elem " << i;
    }
  }
  // The FA weighting must carry the full fleet's data amount once each.
  EXPECT_DOUBLE_EQ(world.sim->agent(world.cloud).model_data_amount,
                   total_data);
}

TEST(OpportunisticStrategy, VehicleContributesAtMostOncePerRound) {
  // Two reporters flanking one non-reporter: its data must enter exactly
  // one reporter's aggregate.
  MiniWorld world{3, 10000.0};
  RoundConfig cfg;
  cfg.rounds = 1;
  cfg.participants = 2;
  cfg.round_duration_s = 60.0;
  auto opp = std::make_shared<OpportunisticStrategy>(cfg);
  world.sim->set_strategy(opp);
  world.sim->run();
  EXPECT_EQ(opp->total_exchanges(), 1U);
  EXPECT_DOUBLE_EQ(world.sim->agent(world.cloud).model_data_amount, 120.0);
}

TEST(OpportunisticStrategy, UsesV2xForExchanges) {
  MiniWorld world{4, 10000.0};
  RoundConfig cfg;
  cfg.rounds = 2;
  cfg.participants = 1;
  cfg.round_duration_s = 60.0;
  auto opp = std::make_shared<OpportunisticStrategy>(cfg);
  world.sim->set_strategy(opp);
  world.sim->run();
  EXPECT_GT(opp->total_exchanges(), 0U);
  EXPECT_GT(world.sim->network().stats(comm::ChannelKind::kV2X)
                .bytes_delivered,
            0U);
  // The exchanges series matches the counter.
  double bar_sum = 0.0;
  for (const auto& p :
       world.sim->metrics_view().series("v2x_exchanges_per_round")) {
    bar_sum += p.value;
  }
  EXPECT_DOUBLE_EQ(bar_sum,
                   static_cast<double>(opp->total_exchanges()));
}

TEST(OpportunisticStrategy, NoExchangesWhenOutOfRange) {
  // Vehicles 5 km apart: no V2X possible -> OPP degrades to plain FL.
  MiniWorld world{3, 10000.0, 0, 11, /*spacing=*/5000.0};
  RoundConfig cfg;
  cfg.rounds = 2;
  cfg.participants = 1;
  cfg.round_duration_s = 60.0;
  auto opp = std::make_shared<OpportunisticStrategy>(cfg);
  world.sim->set_strategy(opp);
  world.sim->run();
  EXPECT_EQ(opp->total_exchanges(), 0U);
  EXPECT_EQ(world.sim->network().stats(comm::ChannelKind::kV2X)
                .bytes_attempted,
            0U);
}

// ----------------------------------------------------------------- gossip --

TEST(GossipStrategy, MergesAndLearnsWithoutCloud) {
  MiniWorld world{5, 2500.0};
  GossipConfig cfg;
  cfg.retrain_interval_s = 100.0;
  cfg.eval_interval_s = 500.0;
  cfg.duration_s = 2400.0;
  auto gossip = std::make_shared<GossipStrategy>(cfg);
  world.sim->set_strategy(gossip);
  world.sim->run();

  EXPECT_GT(gossip->total_merges(), 0U);
  const auto& acc = world.sim->metrics_view().series("accuracy");
  ASSERT_GE(acc.size(), 2U);
  EXPECT_GT(acc.back().value, 0.5);
  // Fully decentralized: zero V2C traffic.
  EXPECT_EQ(world.sim->network().stats(comm::ChannelKind::kV2C)
                .bytes_attempted,
            0U);
  EXPECT_GT(world.sim->network().stats(comm::ChannelKind::kV2X)
                .bytes_delivered,
            0U);
}

TEST(GossipStrategy, ValidatesConfig) {
  GossipConfig cfg;
  cfg.merge_weight = 0.0;
  EXPECT_THROW(GossipStrategy{cfg}, std::invalid_argument);
  cfg = GossipConfig{};
  cfg.retrain_interval_s = 0.0;
  EXPECT_THROW(GossipStrategy{cfg}, std::invalid_argument);
}

// ------------------------------------------------------------ centralized --

TEST(CentralizedStrategy, UploadsRawDataAndTrainsOnServer) {
  MiniWorld world{4, 1500.0};
  CentralizedConfig cfg;
  cfg.train_interval_s = 100.0;
  cfg.duration_s = 1400.0;
  auto central = std::make_shared<CentralizedStrategy>(cfg);
  world.sim->set_strategy(central);
  world.sim->run();

  EXPECT_EQ(central->uploads_completed(), 4U);
  // The server ends up owning all vehicles' data.
  EXPECT_EQ(world.sim->agent(world.cloud).data.size(), 160U);
  const auto& acc = world.sim->metrics_view().series("accuracy");
  EXPECT_GT(acc.back().value, 0.5);
  // Raw-data upload dwarfs a model: 40 samples x 16 floats each per car.
  const auto v2c = world.sim->network().stats(comm::ChannelKind::kV2C);
  EXPECT_GE(v2c.bytes_delivered, 4U * 40 * 16 * sizeof(float));
}

// ----------------------------------------------------------- rsu assisted --

TEST(RsuAssistedStrategy, RelaysThroughRsusAndSavesV2c) {
  // RSUs sit within range of every vehicle, so every contribution should
  // take the V2X+wired path and uplink V2C bytes stay at control size.
  MiniWorld world{4, 4000.0, /*rsus=*/4};
  RsuAssistedConfig cfg;
  cfg.round.rounds = 4;
  cfg.round.participants = 2;
  cfg.round.round_duration_s = 40.0;
  auto rsu = std::make_shared<RsuAssistedStrategy>(cfg);
  world.sim->set_strategy(rsu);
  world.sim->run();

  EXPECT_GT(rsu->rsu_relayed(), 0U);
  EXPECT_GT(world.sim->network().stats(comm::ChannelKind::kWired)
                .bytes_delivered,
            0U);
  const auto& metrics = world.sim->metrics_view();
  EXPECT_DOUBLE_EQ(metrics.counter("rounds_completed"), 4.0);
  EXPECT_GT(metrics.series("accuracy").back().value, 0.4);

  // Compare V2C volume against plain FL on the identical world.
  MiniWorld world2{4, 4000.0, /*rsus=*/4};
  RoundConfig fl_cfg = cfg.round;
  world2.sim->set_strategy(std::make_shared<FederatedStrategy>(fl_cfg));
  world2.sim->run();
  EXPECT_LT(world.sim->network().stats(comm::ChannelKind::kV2C)
                .bytes_delivered,
            world2.sim->network().stats(comm::ChannelKind::kV2C)
                .bytes_delivered);
}

}  // namespace
}  // namespace roadrunner::strategy

// Communication-model tests: channel durations, link viability in every
// failure mode (Req. 3: "communication may or may not be possible at a
// given point in time, and may fail at any time"), coverage dead zones, and
// byte accounting.
#include <gtest/gtest.h>

#include "comm/network.hpp"
#include "mobility/fleet_model.hpp"

namespace roadrunner::comm {
namespace {

using mobility::FleetModel;
using mobility::IgnitionSchedule;
using mobility::NodeId;
using mobility::Position;
using mobility::Trace;
using mobility::VehicleTrack;

/// Two vehicles 100 m apart: #0 always on, #1 on only during [50, 100).
/// One RSU at (1000, 0).
FleetModel tiny_fleet() {
  std::vector<VehicleTrack> tracks;
  tracks.push_back({Trace{{{0.0, {0, 0}}, {200.0, {0, 0}}}},
                    IgnitionSchedule::always_on()});
  tracks.push_back({Trace{{{0.0, {100, 0}}, {200.0, {100, 0}}}},
                    IgnitionSchedule{{{50.0, 100.0}}}});
  FleetModel fleet{std::move(tracks)};
  fleet.add_static_node({1000, 0});
  return fleet;
}

Network::Config lossless() {
  Network::Config cfg;
  cfg.v2c.loss_probability = 0.0;
  cfg.v2x.loss_probability = 0.0;
  return cfg;
}

TEST(Channel, TransferDurationFormula) {
  ChannelConfig c;
  c.bandwidth_bytes_per_s = 1000.0;
  c.setup_latency_s = 0.5;
  EXPECT_DOUBLE_EQ(transfer_duration(c, 2000), 2.5);
  c.bandwidth_bytes_per_s = 0.0;
  EXPECT_THROW(transfer_duration(c, 1), std::invalid_argument);
}

TEST(Channel, Defaults) {
  EXPECT_DOUBLE_EQ(default_v2x().range_m, 200.0);  // paper §5.2
  EXPECT_EQ(default_v2c().range_m, 0.0);           // unlimited
  EXPECT_EQ(to_string(ChannelKind::kV2C), "V2C");
  EXPECT_EQ(to_string(LinkStatus::kOutOfRange), "out-of-range");
}

TEST(Network, V2cConnectsCloudToAnyPoweredNode) {
  const auto fleet = tiny_fleet();
  Network net{fleet, lossless(), util::Rng{1}};
  EXPECT_TRUE(net.check_link(kCloudEndpoint, 0, ChannelKind::kV2C, 0.0).ok());
  EXPECT_TRUE(net.check_link(0, kCloudEndpoint, ChannelKind::kV2C, 0.0).ok());
  // Vehicle 1 is off at t=0 ...
  EXPECT_EQ(net.check_link(kCloudEndpoint, 1, ChannelKind::kV2C, 0.0).status,
            LinkStatus::kReceiverOff);
  EXPECT_EQ(net.check_link(1, kCloudEndpoint, ChannelKind::kV2C, 0.0).status,
            LinkStatus::kSenderOff);
  // ... and reachable at t=60.
  EXPECT_TRUE(net.check_link(kCloudEndpoint, 1, ChannelKind::kV2C, 60.0).ok());
}

TEST(Network, V2cRejectsNonCloudPairs) {
  const auto fleet = tiny_fleet();
  Network net{fleet, lossless(), util::Rng{1}};
  EXPECT_EQ(net.check_link(0, 1, ChannelKind::kV2C, 0.0).status,
            LinkStatus::kBadEndpoints);
  EXPECT_EQ(net.check_link(kCloudEndpoint, kCloudEndpoint,
                           ChannelKind::kV2C, 0.0)
                .status,
            LinkStatus::kBadEndpoints);
}

TEST(Network, V2xRangeGate) {
  const auto fleet = tiny_fleet();
  auto cfg = lossless();
  cfg.v2x.range_m = 150.0;
  Network net{fleet, cfg, util::Rng{1}};
  // 100 m apart, both on at t=60: within 150 m range.
  EXPECT_TRUE(net.check_link(0, 1, ChannelKind::kV2X, 60.0).ok());
  // RSU is 1000 m away: out of range.
  EXPECT_EQ(net.check_link(0, 2, ChannelKind::kV2X, 60.0).status,
            LinkStatus::kOutOfRange);
}

TEST(Network, V2xPowerGate) {
  const auto fleet = tiny_fleet();
  Network net{fleet, lossless(), util::Rng{1}};
  EXPECT_EQ(net.check_link(0, 1, ChannelKind::kV2X, 0.0).status,
            LinkStatus::kReceiverOff);
  EXPECT_EQ(net.check_link(1, 0, ChannelKind::kV2X, 0.0).status,
            LinkStatus::kSenderOff);
}

TEST(Network, V2xRejectsCloudAndSelf) {
  const auto fleet = tiny_fleet();
  Network net{fleet, lossless(), util::Rng{1}};
  EXPECT_EQ(net.check_link(0, kCloudEndpoint, ChannelKind::kV2X, 0.0).status,
            LinkStatus::kBadEndpoints);
  EXPECT_EQ(net.check_link(0, 0, ChannelKind::kV2X, 0.0).status,
            LinkStatus::kBadEndpoints);
}

TEST(Network, WiredConnectsOnlyRsuAndCloud) {
  const auto fleet = tiny_fleet();
  Network net{fleet, lossless(), util::Rng{1}};
  EXPECT_TRUE(net.check_link(2, kCloudEndpoint, ChannelKind::kWired, 0.0).ok());
  EXPECT_TRUE(net.check_link(kCloudEndpoint, 2, ChannelKind::kWired, 0.0).ok());
  EXPECT_EQ(net.check_link(0, kCloudEndpoint, ChannelKind::kWired, 0.0).status,
            LinkStatus::kBadEndpoints);
}

TEST(Network, CoverageDeadZoneBlocksV2c) {
  const auto fleet = tiny_fleet();
  auto cfg = lossless();
  cfg.coverage = CoverageModel{{DeadZone{{0, 0}, 50.0}}};  // tunnel at origin
  Network net{fleet, cfg, util::Rng{1}};
  EXPECT_EQ(net.check_link(kCloudEndpoint, 0, ChannelKind::kV2C, 0.0).status,
            LinkStatus::kNoCoverage);
  // Vehicle 1 at (100, 0) is outside the dead zone.
  EXPECT_TRUE(net.check_link(kCloudEndpoint, 1, ChannelKind::kV2C, 60.0).ok());
  // Dead zones do not affect V2X.
  EXPECT_TRUE(net.check_link(0, 1, ChannelKind::kV2X, 60.0).ok());
}

TEST(Network, RollDeliveryAppliesRandomLoss) {
  const auto fleet = tiny_fleet();
  auto cfg = lossless();
  cfg.v2c.loss_probability = 1.0;
  Network net{fleet, cfg, util::Rng{1}};
  EXPECT_EQ(net.roll_delivery(kCloudEndpoint, 0, ChannelKind::kV2C, 0.0).status,
            LinkStatus::kRandomLoss);
  cfg.v2c.loss_probability = 0.0;
  Network net2{fleet, cfg, util::Rng{1}};
  EXPECT_TRUE(
      net2.roll_delivery(kCloudEndpoint, 0, ChannelKind::kV2C, 0.0).ok());
}

TEST(Network, StatsAccounting) {
  const auto fleet = tiny_fleet();
  Network net{fleet, lossless(), util::Rng{1}};
  net.record_attempt(ChannelKind::kV2X, 1000);
  net.record_attempt(ChannelKind::kV2X, 500);
  net.record_delivery(ChannelKind::kV2X, 1000);
  net.record_failure(ChannelKind::kV2X, LinkStatus::kOutOfRange);
  const auto& s = net.stats(ChannelKind::kV2X);
  EXPECT_EQ(s.transfers_attempted, 2U);
  EXPECT_EQ(s.bytes_attempted, 1500U);
  EXPECT_EQ(s.transfers_delivered, 1U);
  EXPECT_EQ(s.bytes_delivered, 1000U);
  EXPECT_EQ(s.transfers_failed, 1U);
  EXPECT_EQ(s.failed_by_cause[static_cast<std::size_t>(
                LinkStatus::kOutOfRange)],
            1U);
  // Other channels untouched.
  EXPECT_EQ(net.stats(ChannelKind::kV2C).transfers_attempted, 0U);
}

TEST(Coverage, DefaultHasFullCoverage) {
  CoverageModel cov;
  EXPECT_TRUE(cov.has_coverage({1e9, -1e9}));
}

TEST(Coverage, DeadZoneBoundary) {
  CoverageModel cov{{DeadZone{{0, 0}, 100.0}}};
  EXPECT_FALSE(cov.has_coverage({0, 0}));
  EXPECT_FALSE(cov.has_coverage({100, 0}));  // boundary inclusive
  EXPECT_TRUE(cov.has_coverage({100.1, 0}));
  EXPECT_THROW((CoverageModel{{DeadZone{{0, 0}, -1.0}}}),
               std::invalid_argument);
}

TEST(Coverage, CarveDeadZonesIsEmptyAtZeroAndSeedStable) {
  util::Rng rng{5};
  const util::Rng before = rng;
  EXPECT_TRUE(carve_dead_zones(3400.0, 0.0, rng).dead_zones().empty());
  EXPECT_EQ(rng.state(), before.state());  // nothing drawn

  util::Rng a{5};
  util::Rng b{5};
  const auto zones_a = carve_dead_zones(3400.0, 0.25, a).dead_zones();
  const auto zones_b = carve_dead_zones(3400.0, 0.25, b).dead_zones();
  ASSERT_FALSE(zones_a.empty());
  ASSERT_EQ(zones_a.size(), zones_b.size());
  for (std::size_t i = 0; i < zones_a.size(); ++i) {
    EXPECT_EQ(zones_a[i].center.x, zones_b[i].center.x);
    EXPECT_EQ(zones_a[i].center.y, zones_b[i].center.y);
    EXPECT_EQ(zones_a[i].radius_m, 300.0);
    EXPECT_GE(zones_a[i].center.x, 0.0);
    EXPECT_LT(zones_a[i].center.x, 3400.0);
  }
  // Zones are added until their summed area reaches the fraction.
  const double zone_area = 3.14159 * 300.0 * 300.0;
  EXPECT_GE(static_cast<double>(zones_a.size()) * zone_area,
            0.25 * 3400.0 * 3400.0);
  EXPECT_LT(static_cast<double>(zones_a.size() - 1) * zone_area,
            0.25 * 3400.0 * 3400.0);

  util::Rng other{6};
  const auto zones_c = carve_dead_zones(3400.0, 0.25, other).dead_zones();
  EXPECT_NE(zones_a.front().center.x, zones_c.front().center.x);

  EXPECT_THROW((void)carve_dead_zones(3400.0, -0.1, rng),
               std::invalid_argument);
  EXPECT_THROW((void)carve_dead_zones(3400.0, 1.5, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace roadrunner::comm

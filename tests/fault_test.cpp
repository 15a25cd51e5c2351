// Fault subsystem unit tests: plan grammar (parsing + validation), severity
// scaling, symbolic target resolution, and the injector's window/crash/
// corruption/recovery logic including its checkpoint round trip.
#include <gtest/gtest.h>

#include <limits>

#include "comm/network.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "util/archive.hpp"
#include "util/binary_io.hpp"
#include "util/ini.hpp"
#include "util/rng.hpp"

namespace roadrunner::fault {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

util::IniFile parse(const std::string& text) {
  return util::IniFile::parse(text);
}

// ------------------------------------------------------------ parsing -----

TEST(FaultPlanParse, EmptyIniYieldsEmptyPlan) {
  const FaultPlan plan = plan_from_ini(parse("[scenario]\nvehicles = 3\n"));
  EXPECT_TRUE(plan.empty());
  EXPECT_DOUBLE_EQ(plan.severity, 1.0);
}

TEST(FaultPlanParse, FullGrammarRoundTrip) {
  const FaultPlan plan = plan_from_ini(parse(R"([fault]
severity = 1.5
[fault.0]
kind = channel_degrade
channel = v2c
start_s = 100
end_s = 400
loss = 0.3
bandwidth_factor = 0.5
latency_factor = 2.0
[fault.1]
kind = region_outage
x_m = 1000
y_m = 900
radius_m = 500
channels = v2c,v2x
start_s = 0
end_s = 600
[fault.2]
kind = node_outage
target = rsu:1
start_s = 200
end_s = 300
[fault.3]
kind = hu_straggler
vehicle = 3
slowdown = 4.0
[fault.4]
kind = vehicle_crash
vehicle = 7
at_s = 500
reboot_after_s = 60
lose_data = true
[fault.5]
kind = payload_corruption
channel = v2x
probability = 0.2
)"));
  ASSERT_EQ(plan.events.size(), 6U);
  EXPECT_DOUBLE_EQ(plan.severity, 1.5);

  const FaultEvent& deg = plan.events[0];
  EXPECT_EQ(deg.kind, FaultKind::kChannelDegrade);
  EXPECT_EQ(deg.channel, comm::ChannelKind::kV2C);
  EXPECT_DOUBLE_EQ(deg.start_s, 100.0);
  EXPECT_DOUBLE_EQ(deg.end_s, 400.0);
  EXPECT_DOUBLE_EQ(deg.loss_add, 0.3);
  EXPECT_DOUBLE_EQ(deg.bandwidth_factor, 0.5);
  EXPECT_DOUBLE_EQ(deg.latency_factor, 2.0);

  const FaultEvent& region = plan.events[1];
  EXPECT_EQ(region.kind, FaultKind::kRegionOutage);
  EXPECT_DOUBLE_EQ(region.center.x, 1000.0);
  EXPECT_DOUBLE_EQ(region.center.y, 900.0);
  EXPECT_DOUBLE_EQ(region.radius_m, 500.0);
  EXPECT_TRUE(region.channels[static_cast<std::size_t>(
      comm::ChannelKind::kV2C)]);
  EXPECT_TRUE(region.channels[static_cast<std::size_t>(
      comm::ChannelKind::kV2X)]);
  EXPECT_FALSE(region.channels[static_cast<std::size_t>(
      comm::ChannelKind::kWired)]);

  const FaultEvent& outage = plan.events[2];
  EXPECT_EQ(outage.kind, FaultKind::kNodeOutage);
  EXPECT_EQ(outage.target, OutageTarget::kRsu);
  EXPECT_EQ(outage.node, 1U);

  const FaultEvent& straggler = plan.events[3];
  EXPECT_EQ(straggler.kind, FaultKind::kHuStraggler);
  EXPECT_FALSE(straggler.all_vehicles);
  EXPECT_EQ(straggler.vehicle, 3U);
  EXPECT_DOUBLE_EQ(straggler.slowdown, 4.0);
  EXPECT_EQ(straggler.end_s, kInf);  // open-ended window

  const FaultEvent& crash = plan.events[4];
  EXPECT_EQ(crash.kind, FaultKind::kVehicleCrash);
  EXPECT_EQ(crash.vehicle, 7U);
  EXPECT_DOUBLE_EQ(crash.at_s, 500.0);
  EXPECT_DOUBLE_EQ(crash.reboot_after_s, 60.0);
  EXPECT_TRUE(crash.lose_model);  // default
  EXPECT_TRUE(crash.lose_data);

  const FaultEvent& corrupt = plan.events[5];
  EXPECT_EQ(corrupt.kind, FaultKind::kPayloadCorruption);
  EXPECT_EQ(corrupt.channel, comm::ChannelKind::kV2X);
  EXPECT_DOUBLE_EQ(corrupt.probability, 0.2);
}

TEST(FaultPlanParse, StragglerDefaultsToAllVehicles) {
  const FaultPlan plan = plan_from_ini(parse(
      "[fault.0]\nkind = hu_straggler\nslowdown = 2\n"));
  ASSERT_EQ(plan.events.size(), 1U);
  EXPECT_TRUE(plan.events[0].all_vehicles);
}

TEST(FaultPlanParse, RejectsMalformedPlans) {
  EXPECT_THROW(plan_from_ini(parse("[fault.0]\nkind = meteor_strike\n")),
               std::runtime_error);
  EXPECT_THROW(plan_from_ini(parse(
                   "[fault.0]\nkind = channel_degrade\nchannel = carrier\n")),
               std::runtime_error);
  EXPECT_THROW(plan_from_ini(parse(
                   "[fault.0]\nkind = node_outage\ntarget = moonbase\n")),
               std::runtime_error);
  EXPECT_THROW(
      plan_from_ini(parse(
          "[fault.0]\nkind = channel_degrade\nstart_s = 10\nend_s = 5\n")),
      std::runtime_error);
  EXPECT_THROW(plan_from_ini(parse(
                   "[fault.0]\nkind = payload_corruption\nprobability = 2\n")),
               std::runtime_error);
  EXPECT_THROW(plan_from_ini(parse(
                   "[fault.0]\nkind = hu_straggler\nslowdown = 0\n")),
               std::runtime_error);
  EXPECT_THROW(plan_from_ini(parse(
                   "[fault.0]\nkind = vehicle_crash\nvehicle = all\n")),
               std::runtime_error);
  EXPECT_THROW(plan_from_ini(parse(
                   "[fault.0]\nkind = vehicle_crash\nreboot_after_s = -1\n")),
               std::runtime_error);
}

TEST(FaultPlanParse, NumberingGapFailsLoudly) {
  EXPECT_THROW(plan_from_ini(parse(R"([fault.0]
kind = node_outage
[fault.2]
kind = node_outage
)")),
               std::runtime_error);
}

// ------------------------------------------------------------ resolve -----

TEST(FaultPlanResolve, MapsSymbolicTargets) {
  FaultPlan plan = plan_from_ini(parse(R"([fault.0]
kind = node_outage
target = cloud
[fault.1]
kind = node_outage
target = rsu:1
)"));
  const std::vector<mobility::NodeId> rsus{20, 21, 22};
  const FaultPlan resolved = plan.resolved(rsus, 10);
  EXPECT_EQ(resolved.events[0].node, comm::kCloudEndpoint);
  EXPECT_EQ(resolved.events[0].target, OutageTarget::kNode);
  EXPECT_EQ(resolved.events[1].node, 21U);
  // Resolving twice is a no-op.
  EXPECT_EQ(resolved.resolved(rsus, 10).events[1].node, 21U);
}

TEST(FaultPlanResolve, RejectsOutOfRangeTargets) {
  FaultPlan rsu_plan = plan_from_ini(
      parse("[fault.0]\nkind = node_outage\ntarget = rsu:5\n"));
  EXPECT_THROW((void)rsu_plan.resolved({20, 21}, 10), std::invalid_argument);

  FaultPlan crash_plan = plan_from_ini(
      parse("[fault.0]\nkind = vehicle_crash\nvehicle = 12\n"));
  EXPECT_THROW((void)crash_plan.resolved({}, 10), std::invalid_argument);
}

// ------------------------------------------------------------- scaling ----

TEST(FaultPlanScale, SeverityOneIsIdentity) {
  const FaultPlan plan = plan_from_ini(parse(
      "[fault.0]\nkind = channel_degrade\nloss = 0.3\n"
      "bandwidth_factor = 0.5\n"));
  const FaultPlan scaled = plan.scaled();
  ASSERT_EQ(scaled.events.size(), 1U);
  EXPECT_DOUBLE_EQ(scaled.events[0].loss_add, 0.3);
  EXPECT_DOUBLE_EQ(scaled.events[0].bandwidth_factor, 0.5);
  EXPECT_DOUBLE_EQ(scaled.severity, 1.0);
}

TEST(FaultPlanScale, ZeroSeverityDisablesEverything) {
  FaultPlan plan = plan_from_ini(parse(
      "[fault]\nseverity = 0\n[fault.0]\nkind = node_outage\n"));
  EXPECT_TRUE(plan.scaled().empty());
}

TEST(FaultPlanScale, MagnitudesScalePerKind) {
  FaultPlan plan = plan_from_ini(parse(R"([fault]
severity = 2
[fault.0]
kind = channel_degrade
loss = 0.3
bandwidth_factor = 0.5
latency_factor = 2.0
[fault.1]
kind = region_outage
radius_m = 100
[fault.2]
kind = node_outage
start_s = 100
end_s = 200
[fault.3]
kind = hu_straggler
slowdown = 3
[fault.4]
kind = vehicle_crash
vehicle = 0
reboot_after_s = 30
[fault.5]
kind = payload_corruption
probability = 0.6
)"));
  const FaultPlan s = plan.scaled();
  EXPECT_DOUBLE_EQ(s.events[0].loss_add, 0.6);
  // Factors interpolate from the identity, 1 + (f - 1) * s, clamped away
  // from zero: here the interpolation lands exactly on 0 and hits the floor.
  EXPECT_DOUBLE_EQ(s.events[0].bandwidth_factor, 0.01);
  EXPECT_DOUBLE_EQ(s.events[0].latency_factor, 3.0);
  EXPECT_DOUBLE_EQ(s.events[1].radius_m, 200.0);
  EXPECT_DOUBLE_EQ(s.events[2].end_s, 300.0);  // duration stretched
  EXPECT_DOUBLE_EQ(s.events[3].slowdown, 5.0);
  EXPECT_DOUBLE_EQ(s.events[4].reboot_after_s, 60.0);
  EXPECT_DOUBLE_EQ(s.events[5].probability, 1.0);  // clamped

  // Extreme severity cannot flip a factor negative.
  plan.severity = 10.0;
  EXPECT_GT(plan.scaled().events[0].bandwidth_factor, 0.0);
}

// ------------------------------------------------------------- injector ---

FaultInjector make_injector(const std::string& ini_text) {
  FaultPlan plan = plan_from_ini(parse(ini_text));
  return FaultInjector{plan.resolved({20, 21}, 10).scaled(),
                       util::Rng{7}.fork("fault")};
}

TEST(FaultInjector, InertByDefault) {
  FaultInjector inert;
  EXPECT_FALSE(inert.enabled());
  EXPECT_FALSE(inert.node_down(0, 100.0));
  EXPECT_DOUBLE_EQ(inert.hu_slowdown(0, 100.0), 1.0);
  EXPECT_FALSE(inert.roll_corruption(comm::ChannelKind::kV2C, 100.0));
}

TEST(FaultInjector, NodeOutageWindowIsHalfOpen) {
  FaultInjector inj = make_injector(
      "[fault.0]\nkind = node_outage\ntarget = cloud\n"
      "start_s = 100\nend_s = 200\n");
  EXPECT_FALSE(inj.node_down(comm::kCloudEndpoint, 99.9));
  EXPECT_TRUE(inj.node_down(comm::kCloudEndpoint, 100.0));
  EXPECT_TRUE(inj.node_down(comm::kCloudEndpoint, 199.9));
  EXPECT_FALSE(inj.node_down(comm::kCloudEndpoint, 200.0));
  EXPECT_FALSE(inj.node_down(3, 150.0));  // other nodes unaffected
}

TEST(FaultInjector, CrashRebootWindowCountsAsDown) {
  FaultInjector inj = make_injector(
      "[fault.0]\nkind = vehicle_crash\nvehicle = 4\nat_s = 500\n"
      "reboot_after_s = 60\n");
  EXPECT_FALSE(inj.node_down(4, 499.0));
  EXPECT_TRUE(inj.node_down(4, 500.0));
  EXPECT_TRUE(inj.node_down(4, 559.9));
  EXPECT_FALSE(inj.node_down(4, 560.0));
  ASSERT_EQ(inj.crash_indices().size(), 1U);
  // crashed_between is half-open (t_begin, t_end].
  EXPECT_TRUE(inj.crashed_between(4, 499.0, 500.0));
  EXPECT_FALSE(inj.crashed_between(4, 500.0, 600.0));
  EXPECT_FALSE(inj.crashed_between(5, 499.0, 600.0));
}

TEST(FaultInjector, RegionBlocksOnlyFlaggedChannelsInsideRadius) {
  FaultInjector inj = make_injector(
      "[fault.0]\nkind = region_outage\nx_m = 0\ny_m = 0\nradius_m = 100\n"
      "channels = v2x\nstart_s = 0\nend_s = 1000\n");
  const mobility::Position inside{50.0, 0.0};
  const mobility::Position outside{150.0, 0.0};
  EXPECT_TRUE(inj.region_blocked(comm::ChannelKind::kV2X, inside, 10.0));
  EXPECT_FALSE(inj.region_blocked(comm::ChannelKind::kV2C, inside, 10.0));
  EXPECT_FALSE(inj.region_blocked(comm::ChannelKind::kV2X, outside, 10.0));
  EXPECT_FALSE(inj.region_blocked(comm::ChannelKind::kV2X, inside, 1000.0));
}

TEST(FaultInjector, OverlappingDegradesCompose) {
  FaultInjector inj = make_injector(R"([fault.0]
kind = channel_degrade
channel = v2c
loss = 0.2
bandwidth_factor = 0.5
start_s = 0
end_s = 100
[fault.1]
kind = channel_degrade
channel = v2c
loss = 0.1
latency_factor = 3.0
start_s = 50
end_s = 100
)");
  const comm::ChannelMods both = inj.channel_mods(comm::ChannelKind::kV2C,
                                                  60.0);
  EXPECT_DOUBLE_EQ(both.loss_add, 0.3);
  EXPECT_DOUBLE_EQ(both.bandwidth_factor, 0.5);
  EXPECT_DOUBLE_EQ(both.latency_factor, 3.0);
  const comm::ChannelMods one = inj.channel_mods(comm::ChannelKind::kV2C,
                                                 10.0);
  EXPECT_DOUBLE_EQ(one.loss_add, 0.2);
  const comm::ChannelMods off = inj.channel_mods(comm::ChannelKind::kV2X,
                                                 60.0);
  EXPECT_DOUBLE_EQ(off.loss_add, 0.0);
  EXPECT_DOUBLE_EQ(off.bandwidth_factor, 1.0);
}

TEST(FaultInjector, StragglerSlowdownsMultiply) {
  FaultInjector inj = make_injector(R"([fault.0]
kind = hu_straggler
vehicle = all
slowdown = 2
start_s = 0
end_s = 100
[fault.1]
kind = hu_straggler
vehicle = 3
slowdown = 3
start_s = 0
end_s = 100
)");
  EXPECT_DOUBLE_EQ(inj.hu_slowdown(3, 50.0), 6.0);
  EXPECT_DOUBLE_EQ(inj.hu_slowdown(5, 50.0), 2.0);
  EXPECT_DOUBLE_EQ(inj.hu_slowdown(3, 150.0), 1.0);
}

TEST(FaultInjector, CorruptionDrawsRandomnessOnlyInsideWindows) {
  const std::string ini =
      "[fault.0]\nkind = payload_corruption\nchannel = v2c\n"
      "probability = 1.0\nstart_s = 100\nend_s = 200\n";
  FaultInjector a = make_injector(ini);
  FaultInjector b = make_injector(ini);
  // Outside the window (or off-channel): no corruption, no RNG consumption.
  EXPECT_FALSE(a.roll_corruption(comm::ChannelKind::kV2C, 50.0));
  EXPECT_FALSE(a.roll_corruption(comm::ChannelKind::kV2X, 150.0));
  // Inside the window with p=1 every delivery corrupts, and since `a`
  // consumed nothing so far the two injectors stay in lockstep.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(a.roll_corruption(comm::ChannelKind::kV2C, 150.0),
              b.roll_corruption(comm::ChannelKind::kV2C, 150.0));
  }
}

TEST(FaultInjector, RecoveryProbesFireOncePerOutageWindow) {
  FaultInjector inj = make_injector(
      "[fault.0]\nkind = node_outage\ntarget = cloud\n"
      "start_s = 100\nend_s = 200\n");
  // Deliveries during the window do not count as recovery.
  EXPECT_TRUE(inj.note_delivery(comm::ChannelKind::kV2C, 150.0).empty());
  // First delivery after the window closes the V2C probe...
  const auto first = inj.note_delivery(comm::ChannelKind::kV2C, 230.0);
  ASSERT_EQ(first.size(), 1U);
  EXPECT_DOUBLE_EQ(first[0], 30.0);
  // ...exactly once.
  EXPECT_TRUE(inj.note_delivery(comm::ChannelKind::kV2C, 240.0).empty());
  // The cloud outage also armed a wired probe, independent of V2C's.
  const auto wired = inj.note_delivery(comm::ChannelKind::kWired, 250.0);
  ASSERT_EQ(wired.size(), 1U);
  EXPECT_DOUBLE_EQ(wired[0], 50.0);
}

TEST(FaultInjector, StateRoundTripsThroughBinaryIo) {
  const std::string ini = R"([fault.0]
kind = node_outage
target = cloud
start_s = 0
end_s = 100
[fault.1]
kind = payload_corruption
channel = v2c
probability = 0.5
)";
  FaultInjector original = make_injector(ini);
  (void)original.note_delivery(comm::ChannelKind::kV2C, 150.0);  // pop probe
  for (int i = 0; i < 3; ++i) {
    (void)original.roll_corruption(comm::ChannelKind::kV2C, 10.0);  // advance
  }

  util::BinWriter out;
  util::save_fields(out, original);
  FaultInjector restored = make_injector(ini);
  util::BinReader in{out.buffer()};
  util::load_fields(in, restored, "fault");

  // Probe flags restored: the already-recovered V2C probe stays popped.
  EXPECT_TRUE(restored.note_delivery(comm::ChannelKind::kV2C, 160.0).empty());
  // RNG stream resumes exactly where the original left off.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(original.roll_corruption(comm::ChannelKind::kV2C, 10.0),
              restored.roll_corruption(comm::ChannelKind::kV2C, 10.0));
  }

  // A different plan (different probe count) refuses the snapshot.
  FaultInjector other = make_injector(
      "[fault.0]\nkind = payload_corruption\nprobability = 0.5\n");
  util::BinReader in2{out.buffer()};
  EXPECT_THROW(util::load_fields(in2, other, "fault"), std::runtime_error);
}

}  // namespace
}  // namespace roadrunner::fault

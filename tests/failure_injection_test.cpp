// Failure-injection tests: the framework must keep producing sound results
// when the environment degrades — heavy random loss, cellular dead zones,
// fleets that are mostly parked, and vehicles with extreme duty cycles
// (Req. 3: communication "may fail at any time"; Req. 1: vehicles become
// unavailable).
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "checkpoint/checkpoint.hpp"
#include "scenario/experiment.hpp"
#include "scenario/scenario.hpp"
#include "strategy/federated.hpp"
#include "strategy/gossip.hpp"
#include "strategy/opportunistic.hpp"

namespace roadrunner {
namespace {

scenario::ScenarioConfig harsh_base(std::uint64_t seed) {
  scenario::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.vehicles = 15;
  cfg.dataset = "blobs";
  cfg.train_pool_size = 2000;
  cfg.test_size = 400;
  cfg.partition = "class_skew";
  cfg.samples_per_vehicle = 40;
  cfg.classes_per_vehicle = 2;
  cfg.model = "logreg";
  cfg.city.duration_s = 8000.0;
  return cfg;
}

strategy::RoundConfig few_rounds() {
  strategy::RoundConfig round;
  round.rounds = 6;
  round.participants = 4;
  round.round_duration_s = 30.0;
  return round;
}

TEST(FailureInjection, HeavyRandomLossDegradesButNeverWedges) {
  auto cfg = harsh_base(41);
  cfg.net.v2c.loss_probability = 0.4;  // 40% of deliveries drop
  scenario::Scenario scenario{cfg};
  const auto result =
      scenario.run(std::make_shared<strategy::FederatedStrategy>(few_rounds()));
  // All rounds still complete (timeouts close out lost participants)...
  EXPECT_DOUBLE_EQ(result.metrics.counter("rounds_completed"), 6.0);
  // ...and failures actually happened.
  EXPECT_GT(result.channel(comm::ChannelKind::kV2C).transfers_failed, 0U);
  // Contributions per round may drop to zero in bad rounds but the series
  // exists for every finalized round.
  EXPECT_EQ(result.metrics.series("contributions_per_round").size(), 6U);
}

TEST(FailureInjection, TotalLossMeansNoContributionsButCleanTermination) {
  auto cfg = harsh_base(42);
  cfg.net.v2c.loss_probability = 1.0;  // nothing ever arrives
  scenario::Scenario scenario{cfg};
  const auto result =
      scenario.run(std::make_shared<strategy::FederatedStrategy>(few_rounds()));
  EXPECT_DOUBLE_EQ(result.metrics.counter("rounds_completed"), 6.0);
  for (const auto& p : result.metrics.series("contributions_per_round")) {
    EXPECT_DOUBLE_EQ(p.value, 0.0);
  }
  // The global model never improves beyond its initialization.
  const auto& acc = result.metrics.series("accuracy");
  EXPECT_NEAR(acc.back().value, acc.front().value, 1e-12);
}

TEST(FailureInjection, CityWideDeadZoneBlocksAllV2c) {
  auto cfg = harsh_base(43);
  cfg.net.coverage = comm::CoverageModel{
      {comm::DeadZone{{cfg.city.city_size_m / 2, cfg.city.city_size_m / 2},
                      cfg.city.city_size_m * 2}}};
  scenario::Scenario scenario{cfg};
  const auto result =
      scenario.run(std::make_shared<strategy::FederatedStrategy>(few_rounds()));
  EXPECT_EQ(result.channel(comm::ChannelKind::kV2C).bytes_delivered, 0U);
  EXPECT_DOUBLE_EQ(result.metrics.counter("rounds_completed"), 6.0);
}

TEST(FailureInjection, MostlyParkedFleetStillFinishes) {
  auto cfg = harsh_base(44);
  cfg.city.initial_on_probability = 0.05;
  cfg.city.dwell_mean_s = 2000.0;  // long parked periods
  cfg.city.dwell_on_probability = 0.0;
  scenario::Scenario scenario{cfg};
  const auto result =
      scenario.run(std::make_shared<strategy::FederatedStrategy>(few_rounds()));
  // Rounds may idle waiting for an available vehicle, but the run
  // terminates (either all rounds done or the horizon hit) without hanging.
  EXPECT_LE(result.metrics.counter("rounds_completed"), 6.0);
  EXPECT_LE(result.report.sim_end_time_s, cfg.city.duration_s + 1.0);
}

TEST(FailureInjection, OppSurvivesFlakyV2x) {
  auto cfg = harsh_base(45);
  cfg.net.v2x.loss_probability = 0.5;
  scenario::Scenario scenario{cfg};
  strategy::RoundConfig opp;
  opp.rounds = 4;
  opp.participants = 3;
  opp.round_duration_s = 120.0;
  const auto result =
      scenario.run(std::make_shared<strategy::OpportunisticStrategy>(opp));
  EXPECT_DOUBLE_EQ(result.metrics.counter("rounds_completed"), 4.0);
  // Lost offers/returns are accounted, not silently dropped.
  const double offers_lost = result.metrics.counter("opp_offers_lost");
  const double returns_lost =
      result.metrics.counter("opp_returns_discarded");
  const double exchanges = result.metrics.counter("opp_v2x_exchanges");
  EXPECT_GE(offers_lost + returns_lost + exchanges, 0.0);
  // Conservation: every delivered V2X transfer is an offer, a return, or a
  // gossip-free control message — in OPP only offers and returns exist, so
  // deliveries >= successful exchanges * 2 is impossible to violate.
  EXPECT_GE(
      result.channel(comm::ChannelKind::kV2X).transfers_delivered,
      static_cast<std::uint64_t>(exchanges));
}

TEST(FailureInjection, ZeroV2xRangeDisablesEncounters) {
  auto cfg = harsh_base(46);
  cfg.net.v2x.range_m = 0.0;  // V2X radio absent (V2C-only fleet, §1)
  scenario::Scenario scenario{cfg};
  strategy::RoundConfig opp;
  opp.rounds = 3;
  opp.participants = 3;
  opp.round_duration_s = 60.0;
  const auto result =
      scenario.run(std::make_shared<strategy::OpportunisticStrategy>(opp));
  EXPECT_DOUBLE_EQ(result.metrics.counter("encounters"), 0.0);
  EXPECT_DOUBLE_EQ(result.metrics.counter("opp_v2x_exchanges"), 0.0);
  EXPECT_DOUBLE_EQ(result.metrics.counter("rounds_completed"), 3.0);
}

// ===================================================================
// Scripted faults (src/fault/): determinism, per-cause accounting,
// checkpointing across a fault window, crash state loss, stragglers, and
// payload corruption.

/// Small experiment INI with a hole for `[fault.N]` sections.
std::string fault_ini(const std::string& strategy,
                      const std::string& fault_sections) {
  return R"([scenario]
vehicles = 10
seed = 11
horizon_s = 900
trace_events = true
[city]
duration_s = 900
[data]
dataset = blobs
train_pool = 600
test_size = 120
partition = iid
samples_per_vehicle = 40
[train]
model = logreg
epochs = 1
[strategy]
name = )" + strategy +
         R"(
rounds = 6
participants = 3
round_duration_s = 120
)" + fault_sections;
}

constexpr const char* kMixedFaults = R"([fault.0]
kind = node_outage
target = cloud
start_s = 100
end_s = 400
[fault.1]
kind = channel_degrade
channel = v2c
loss = 0.3
bandwidth_factor = 0.5
start_s = 400
end_s = 700
[fault.2]
kind = payload_corruption
channel = v2c
probability = 0.5
start_s = 500
end_s = 900
[fault.3]
kind = vehicle_crash
vehicle = 2
at_s = 450
reboot_after_s = 60
lose_model = true
lose_data = true
)";

struct FaultRunDigest {
  std::string trace_csv;
  std::string metrics_csv;
  std::uint64_t events = 0;
};

/// Runs `ini` start to finish; optionally snapshots once at the first
/// autosave tick and keeps running (same shape as the checkpoint tests).
FaultRunDigest run_ini(const util::IniFile& ini,
                       const std::string& snap_path = {}) {
  scenario::Scenario scn{scenario::scenario_from_ini(ini)};
  auto sim = scn.make_simulator();
  sim->set_strategy(scenario::strategy_from_ini(ini));
  bool saved = false;
  if (!snap_path.empty()) {
    sim->set_autosave(150.0, [&](core::Simulator& s) {
      if (saved) return;
      saved = true;
      checkpoint::save(s, ini, snap_path);
    });
  }
  const auto report = sim->run();
  FaultRunDigest d;
  std::ostringstream trace;
  sim->trace().export_csv(trace);
  d.trace_csv = trace.str();
  std::ostringstream metrics;
  sim->metrics_view().export_csv(metrics);
  d.metrics_csv = metrics.str();
  d.events = report.events_executed;
  return d;
}

TEST(ScriptedFaults, SameSeedAndPlanReproduceTheExactRun) {
  const auto ini = util::IniFile::parse(fault_ini("federated", kMixedFaults));
  const FaultRunDigest first = run_ini(ini);
  const FaultRunDigest second = run_ini(ini);
  EXPECT_FALSE(first.trace_csv.empty());
  EXPECT_EQ(first.trace_csv, second.trace_csv);
  EXPECT_EQ(first.metrics_csv, second.metrics_csv);
  EXPECT_EQ(first.events, second.events);
}

TEST(ScriptedFaults, PerCauseCountersExplainEveryFailure) {
  auto cfg = scenario::scenario_from_ini(
      util::IniFile::parse(fault_ini("federated", kMixedFaults)));
  scenario::Scenario scenario{cfg};
  strategy::RoundConfig round;
  round.rounds = 6;
  round.participants = 3;
  round.round_duration_s = 120.0;
  const auto result =
      scenario.run(std::make_shared<strategy::FederatedStrategy>(round));

  // The cloud outage shows up under its own cause...
  const auto& v2c = result.channel(comm::ChannelKind::kV2C);
  EXPECT_GT(v2c.failed_by_cause[static_cast<std::size_t>(
                comm::LinkStatus::kFaultOutage)],
            0U);
  // ...and every failure on every channel is attributed to exactly one
  // cause (the kOk slot stays empty).
  for (std::size_t k = 0; k < comm::kChannelKindCount; ++k) {
    const auto& s = result.channel(static_cast<comm::ChannelKind>(k));
    std::uint64_t attributed = 0;
    for (std::uint64_t count : s.failed_by_cause) attributed += count;
    EXPECT_EQ(attributed, s.transfers_failed);
    EXPECT_EQ(s.failed_by_cause[0], 0U);
  }
  // The breakdown is surfaced in the metrics registry too.
  EXPECT_GT(result.metrics.counter("transfers_V2C_failed_fault-outage"), 0.0);
  // Time-to-recover was measured for the finite outage windows.
  EXPECT_FALSE(result.metrics.series("fault_recovery_s").empty());
  // Model staleness percentiles exist and are ordered.
  const double p50 = result.metrics.counter("stale_model_age_p50_s");
  const double p90 = result.metrics.counter("stale_model_age_p90_s");
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, result.metrics.counter("stale_model_age_max_s"));
}

TEST(ScriptedFaults, CheckpointTakenMidOutageResumesBitIdentically) {
  const auto ini = util::IniFile::parse(fault_ini("federated", kMixedFaults));
  const auto snap =
      std::filesystem::temp_directory_path() / "rr_fault_mid_outage.rrck";
  std::filesystem::remove(snap);

  const FaultRunDigest uninterrupted = run_ini(ini);
  // The snapshot fires at t=150, inside the 100..400 s cloud outage.
  const FaultRunDigest snapshotting = run_ini(ini, snap.string());
  EXPECT_EQ(uninterrupted.trace_csv, snapshotting.trace_csv);
  ASSERT_TRUE(std::filesystem::exists(snap));
  const auto info = checkpoint::peek(snap.string());
  EXPECT_GE(info.sim_time_s, 100.0);
  EXPECT_LT(info.sim_time_s, 400.0);

  checkpoint::RestoredRun resumed = checkpoint::restore(snap.string());
  const auto report = resumed.simulator->run();
  std::ostringstream trace;
  resumed.simulator->trace().export_csv(trace);
  std::ostringstream metrics;
  resumed.simulator->metrics_view().export_csv(metrics);
  EXPECT_EQ(uninterrupted.trace_csv, trace.str());
  EXPECT_EQ(uninterrupted.metrics_csv, metrics.str());
  EXPECT_EQ(uninterrupted.events, report.events_executed);
  std::filesystem::remove(snap);
}

/// A fleet that cycles its ignition often: short dwells, and vehicles that
/// start parked with the engine on and then drive off, which gives
/// back-to-back ignition intervals. Outages and crash reboots on vehicles
/// have edges between the 0.75 s ticks.
constexpr const char* kPowerIni = R"([scenario]
vehicles = 12
seed = 11
horizon_s = 900
mobility_tick_s = 0.75
trace_events = true
[city]
duration_s = 900
dwell_s = 60
initial_on = 0.3
dwell_on = 0.5
[data]
dataset = blobs
train_pool = 600
test_size = 120
partition = iid
samples_per_vehicle = 40
[train]
model = logreg
epochs = 1
[strategy]
name = federated
rounds = 50
participants = 3
round_duration_s = 120
[fault.0]
kind = node_outage
target = 1
start_s = 100.3
end_s = 260.6
[fault.1]
kind = node_outage
target = 4
start_s = 140.2
end_s = 175.9
[fault.2]
kind = vehicle_crash
vehicle = 2
at_s = 300.1
reboot_after_s = 45.4
[fault.3]
kind = vehicle_crash
vehicle = 1
at_s = 500.5
reboot_after_s = 90
[fault.4]
kind = node_outage
target = cloud
start_s = 50
end_s = 80
)";

using PowerRecord = std::tuple<double, core::TraceKind, core::AgentId>;

std::vector<PowerRecord> power_records(const core::EventTrace& trace) {
  std::vector<PowerRecord> out;
  for (const core::TraceEvent& ev : trace.events()) {
    if (ev.kind == core::TraceKind::kPowerOn ||
        ev.kind == core::TraceKind::kPowerOff) {
      out.emplace_back(ev.time_s, ev.kind, ev.a);
    }
  }
  return out;
}

// The tick diff asks a vehicle again only once its ignition window or a
// fault window edge has passed. Its power records must equal a replay that
// evaluates every vehicle's effective power at every tick, uninterrupted
// and resumed from a snapshot taken mid-run.
TEST(ScriptedFaults, PowerDiffMatchesPerTickReplay) {
  const auto ini = util::IniFile::parse(kPowerIni);
  const scenario::Scenario scn{scenario::scenario_from_ini(ini)};
  const mobility::FleetModel& fleet = scn.fleet();
  std::size_t back_to_back = 0;
  for (mobility::NodeId v = 0; v < fleet.vehicle_count(); ++v) {
    const auto& iv = fleet.vehicle(v).ignition.intervals();
    for (std::size_t k = 1; k < iv.size(); ++k) {
      if (iv[k - 1].end_s == iv[k].start_s) ++back_to_back;
    }
  }
  ASSERT_GT(back_to_back, 0U);

  const auto snap =
      std::filesystem::temp_directory_path() / "rr_power_diff_replay.rrck";
  std::filesystem::remove(snap);
  auto sim = scn.make_simulator();
  sim->set_strategy(scenario::strategy_from_ini(ini));
  bool saved = false;
  sim->set_autosave(150.0, [&](core::Simulator& s) {
    if (saved) return;
    saved = true;
    checkpoint::save(s, ini, snap.string());
  });
  (void)sim->run();

  const auto ignition = [&](core::AgentId id, double t) {
    return fleet.vehicle(sim->agent(id).node).ignition.is_on(t);
  };
  const auto effective = [&](core::AgentId id, double t) {
    return ignition(id, t) &&
           !sim->injector().node_down(sim->agent(id).node, t);
  };
  const std::vector<core::AgentId>& ids = sim->vehicle_ids();
  std::vector<bool> last;
  for (const core::AgentId id : ids) last.push_back(effective(id, 0.0));
  std::vector<PowerRecord> expected;
  std::size_t fault_flips = 0;
  const double tick = sim->config().mobility_tick_s;
  double prev = 0.0;
  for (double t = tick; t <= sim->config().horizon_s; t += tick) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const bool on = effective(ids[i], t);
      if (on == last[i]) continue;
      last[i] = on;
      expected.emplace_back(
          t, on ? core::TraceKind::kPowerOn : core::TraceKind::kPowerOff,
          ids[i]);
      if (ignition(ids[i], t) == ignition(ids[i], prev)) ++fault_flips;
    }
    prev = t;
  }
  EXPECT_GT(fault_flips, 2U);
  EXPECT_GT(expected.size(), 20U);
  EXPECT_EQ(power_records(sim->trace()), expected);

  ASSERT_TRUE(saved);
  checkpoint::RestoredRun resumed = checkpoint::restore(snap.string());
  (void)resumed.simulator->run();
  EXPECT_EQ(power_records(resumed.simulator->trace()), expected);
  std::filesystem::remove(snap);
}

TEST(ScriptedFaults, CrashLosesRoundBasedVehicleState) {
  // Round-based family: the crashed vehicle loses its data view (it always
  // has one) and any model it trained; the campaign still terminates.
  auto cfg = scenario::scenario_from_ini(util::IniFile::parse(
      fault_ini("federated", R"([fault.0]
kind = vehicle_crash
vehicle = 4
at_s = 300
reboot_after_s = 120
lose_model = true
lose_data = true
)")));
  scenario::Scenario scenario{cfg};
  strategy::RoundConfig round;
  round.rounds = 6;
  round.participants = 3;
  round.round_duration_s = 120.0;
  const auto result =
      scenario.run(std::make_shared<strategy::FederatedStrategy>(round));
  EXPECT_DOUBLE_EQ(result.metrics.counter("vehicle_crashes"), 1.0);
  EXPECT_DOUBLE_EQ(result.metrics.counter("crash_data_views_lost"), 1.0);
  EXPECT_DOUBLE_EQ(result.metrics.counter("rounds_completed"), 6.0);
}

TEST(ScriptedFaults, CrashLosesGossipModelState) {
  // Opportunistic/peer family: every vehicle trains a local model from the
  // start, so a late crash always destroys one.
  auto cfg = scenario::scenario_from_ini(util::IniFile::parse(
      fault_ini("gossip", R"([fault.0]
kind = vehicle_crash
vehicle = 4
at_s = 600
reboot_after_s = 60
lose_model = true
)")));
  scenario::Scenario scenario{cfg};
  strategy::GossipConfig gcfg;
  const auto result =
      scenario.run(std::make_shared<strategy::GossipStrategy>(gcfg));
  EXPECT_DOUBLE_EQ(result.metrics.counter("vehicle_crashes"), 1.0);
  EXPECT_DOUBLE_EQ(result.metrics.counter("crash_models_lost"), 1.0);
}

TEST(ScriptedFaults, ExtremeStragglersStopContributionsEntirely) {
  strategy::RoundConfig round;
  round.rounds = 4;
  round.participants = 3;
  round.round_duration_s = 120.0;

  auto base_cfg = scenario::scenario_from_ini(
      util::IniFile::parse(fault_ini("federated", "")));
  scenario::Scenario baseline{base_cfg};
  const auto healthy =
      baseline.run(std::make_shared<strategy::FederatedStrategy>(round));
  double healthy_contribs = 0.0;
  for (const auto& p : healthy.metrics.series("contributions_per_round")) {
    healthy_contribs += p.value;
  }
  EXPECT_GT(healthy_contribs, 0.0);

  // A fleet-wide 10^6x slowdown: no training ever finishes inside a round,
  // so every round closes empty — but the run still terminates cleanly.
  auto slow_cfg = scenario::scenario_from_ini(util::IniFile::parse(
      fault_ini("federated", R"([fault.0]
kind = hu_straggler
vehicle = all
slowdown = 1e6
)")));
  scenario::Scenario slowed{slow_cfg};
  const auto crawling =
      slowed.run(std::make_shared<strategy::FederatedStrategy>(round));
  for (const auto& p : crawling.metrics.series("contributions_per_round")) {
    EXPECT_DOUBLE_EQ(p.value, 0.0);
  }
}

TEST(ScriptedFaults, CorruptedPayloadsAreDetectedAndDiscarded) {
  auto cfg = scenario::scenario_from_ini(util::IniFile::parse(
      fault_ini("federated", R"([fault.0]
kind = payload_corruption
channel = v2c
probability = 1.0
)")));
  scenario::Scenario scenario{cfg};
  strategy::RoundConfig round;
  round.rounds = 4;
  round.participants = 3;
  round.round_duration_s = 120.0;
  const auto result =
      scenario.run(std::make_shared<strategy::FederatedStrategy>(round));
  const double corrupted = result.metrics.counter("messages_corrupted");
  EXPECT_GT(corrupted, 0.0);
  // Every corrupted delivery was caught by the strategy's integrity check.
  EXPECT_DOUBLE_EQ(result.metrics.counter("corrupted_payloads_discarded"),
                   corrupted);
  // With every V2C payload corrupted the global model never improves.
  const auto& acc = result.metrics.series("accuracy");
  EXPECT_NEAR(acc.back().value, acc.front().value, 1e-12);
}

}  // namespace
}  // namespace roadrunner

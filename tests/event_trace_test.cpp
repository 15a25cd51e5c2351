// Tests for the structured event trace.
#include <gtest/gtest.h>

#include <sstream>

#include "core/simulator.hpp"
#include "data/gaussian_blobs.hpp"
#include "ml/models.hpp"
#include "strategy/federated.hpp"
#include "util/csv.hpp"

namespace roadrunner {
namespace {

TEST(EventTrace, DisabledRecordsNothing) {
  core::EventTrace trace{false};
  trace.record(1.0, core::TraceKind::kPowerOn, 0);
  EXPECT_TRUE(trace.events().empty());
}

TEST(EventTrace, RecordsFiltersAndExports) {
  core::EventTrace trace{true};
  trace.record(1.0, core::TraceKind::kMessageSent, 0, 2, "global-model");
  trace.record(2.5, core::TraceKind::kMessageDelivered, 0, 2, "global-model");
  trace.record(3.0, core::TraceKind::kPowerOff, 2);
  ASSERT_EQ(trace.events().size(), 3U);
  EXPECT_EQ(trace.filter(core::TraceKind::kPowerOff).size(), 1U);
  EXPECT_EQ(trace.filter(core::TraceKind::kEncounterEnd).size(), 0U);

  std::ostringstream out;
  trace.export_csv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("time_s,kind,a,b,detail"), std::string::npos);
  EXPECT_NE(csv.find("2.5,message-delivered,0,2,global-model"),
            std::string::npos);
  EXPECT_NE(csv.find("3,power-off,2,-,"), std::string::npos);

  trace.clear();
  EXPECT_TRUE(trace.events().empty());
}

TEST(EventTrace, CsvExportRoundTripsHostileDetailStrings) {
  // Regression: detail strings carrying the CSV separator, quotes, and
  // newlines must survive export_csv -> read_csv unchanged (read_csv once
  // choked on quoted fields spanning lines).
  core::EventTrace trace{true};
  const std::string commas_and_quotes = "msg,tag=\"global\",round=2";
  const std::string multiline = "line one\nline \"two\",\nline three";
  trace.record(1.0, core::TraceKind::kMessageSent, 0, 1, commas_and_quotes);
  trace.record(2.0, core::TraceKind::kMessageDelivered, 0, 1, multiline);
  trace.record(3.0, core::TraceKind::kPowerOff, 1);

  std::ostringstream out;
  trace.export_csv(out);
  std::istringstream in{out.str()};
  const auto rows = util::read_csv(in);

  ASSERT_EQ(rows.size(), 4U);  // header + 3 records
  ASSERT_GE(rows[1].size(), 5U);
  EXPECT_EQ(rows[1][4], commas_and_quotes);
  EXPECT_EQ(rows[2][4], multiline);
  EXPECT_EQ(rows[2][0], "2");
  EXPECT_EQ(rows[3][1], "power-off");
}

TEST(EventTrace, SimulatorProducesCoherentTrace) {
  // A small FL run with tracing on: every delivered message must have a
  // matching earlier send, and trainings complete after they start.
  std::vector<mobility::VehicleTrack> tracks;
  for (int v = 0; v < 3; ++v) {
    const mobility::Position p{50.0 * v, 0.0};
    tracks.push_back({mobility::Trace{{{0.0, p}, {2000.0, p}}},
                      mobility::IgnitionSchedule::always_on()});
  }
  auto fleet = std::make_shared<mobility::FleetModel>(std::move(tracks));
  auto dataset =
      std::make_shared<ml::Dataset>(data::make_gaussian_blobs(160));
  ml::Network proto = ml::make_logreg(16, 4);
  util::Rng rng{3};
  ml::prime_and_init(proto, {16}, rng);

  std::vector<std::uint32_t> test_idx;
  for (std::uint32_t i = 120; i < 160; ++i) test_idx.push_back(i);
  core::SimulatorConfig cfg;
  cfg.horizon_s = 2000.0;
  cfg.trace_events = true;
  comm::Network::Config net;
  net.v2c.loss_probability = 0.0;
  core::Simulator sim{*fleet, net,
                      core::MlService{proto, ml::DatasetView{dataset,
                                                             test_idx}},
                      cfg};
  sim.add_cloud();
  for (std::uint32_t v = 0; v < 3; ++v) {
    std::vector<std::uint32_t> idx;
    for (std::uint32_t i = 40 * v; i < 40 * (v + 1); ++i) idx.push_back(i);
    sim.add_vehicle(v, ml::DatasetView{dataset, idx});
  }
  strategy::RoundConfig round;
  round.rounds = 3;
  round.participants = 2;
  round.round_duration_s = 30.0;
  sim.set_strategy(std::make_shared<strategy::FederatedStrategy>(round));
  sim.run();

  const auto& trace = sim.trace();
  ASSERT_FALSE(trace.events().empty());

  const auto sent = trace.filter(core::TraceKind::kMessageSent);
  const auto delivered = trace.filter(core::TraceKind::kMessageDelivered);
  const auto failed = trace.filter(core::TraceKind::kMessageFailed);
  EXPECT_EQ(sent.size(), delivered.size() + failed.size());
  // Every delivery has a preceding send of the same pair+tag.
  for (const auto& d : delivered) {
    bool found = false;
    for (const auto& s : sent) {
      if (s.a == d.a && s.b == d.b && s.detail == d.detail &&
          s.time_s <= d.time_s) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "unmatched delivery " << d.detail;
  }

  const auto started = trace.filter(core::TraceKind::kTrainingStarted);
  const auto completed = trace.filter(core::TraceKind::kTrainingCompleted);
  EXPECT_EQ(started.size(), completed.size());  // nobody powers off here
  EXPECT_GE(started.size(), 3U);                // >= 1 per round on average

  // Timestamps are non-decreasing.
  for (std::size_t i = 1; i < trace.events().size(); ++i) {
    EXPECT_LE(trace.events()[i - 1].time_s, trace.events()[i].time_s);
  }
}

TEST(EventTrace, DefaultOffInSimulator) {
  std::vector<mobility::VehicleTrack> tracks;
  tracks.push_back({mobility::Trace{{{0.0, {0, 0}}, {100.0, {0, 0}}}},
                    mobility::IgnitionSchedule::always_on()});
  auto fleet = std::make_shared<mobility::FleetModel>(std::move(tracks));
  auto dataset = std::make_shared<ml::Dataset>(data::make_gaussian_blobs(8));
  ml::Network proto = ml::make_logreg(16, 4);
  util::Rng rng{4};
  ml::prime_and_init(proto, {16}, rng);
  core::SimulatorConfig cfg;
  cfg.horizon_s = 50.0;
  core::Simulator sim{*fleet, comm::Network::Config{},
                      core::MlService{proto, ml::DatasetView::all(dataset)},
                      cfg};
  sim.add_cloud();
  sim.add_vehicle(0, ml::DatasetView::all(dataset));
  strategy::RoundConfig round;
  round.rounds = 1;
  round.participants = 1;
  sim.set_strategy(std::make_shared<strategy::FederatedStrategy>(round));
  sim.run();
  EXPECT_FALSE(sim.trace().enabled());
  EXPECT_TRUE(sim.trace().events().empty());
}

}  // namespace
}  // namespace roadrunner

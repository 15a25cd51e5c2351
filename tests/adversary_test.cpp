// Adversary subsystem tests: plan grammar (parsing, unknown-key rejection,
// dense numbering, fraction scaling), the robust aggregators' math and
// determinism, the controller's compromised-set draws / payload transforms /
// jamming geometry / checkpoint state, and the end-to-end guarantees: an
// adversarial run exports attack+defense counters, a robust aggregator
// measurably beats the undefended mean under byzantine updates, mid-attack
// snapshots round-trip bit-identically, the committed v2 golden
// snapshot still restores, and adversarial campaigns stay byte-identical
// across worker counts and across the distributed coordinator path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <sstream>
#include <thread>

#include "adversary/adversary_plan.hpp"
#include "adversary/controller.hpp"
#include "campaign/aggregate.hpp"
#include "campaign/engine.hpp"
#include "campaign/spec.hpp"
#include "checkpoint/checkpoint.hpp"
#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "dist/worker.hpp"
#include "fault/fault_plan.hpp"
#include "ml/robust.hpp"
#include "scenario/experiment.hpp"
#include "util/archive.hpp"
#include "util/binary_io.hpp"
#include "util/ini.hpp"
#include "util/rng.hpp"

#ifndef RR_TEST_DATA_DIR
#define RR_TEST_DATA_DIR "tests/data"
#endif

namespace roadrunner {
namespace {

namespace fs = std::filesystem;

constexpr double kInf = std::numeric_limits<double>::infinity();

util::IniFile parse(const std::string& text) {
  return util::IniFile::parse(text);
}

// ------------------------------------------------------------ parsing -----

TEST(AdversaryPlanParse, EmptyIniYieldsEmptyPlan) {
  const adversary::AdversaryPlan plan =
      adversary::plan_from_ini(parse("[scenario]\nvehicles = 3\n"));
  EXPECT_TRUE(plan.empty());
  EXPECT_DOUBLE_EQ(plan.fraction, 1.0);
}

TEST(AdversaryPlanParse, FullGrammarRoundTrip) {
  const adversary::AdversaryPlan plan = adversary::plan_from_ini(parse(R"(
[adversary]
fraction = 0.5
[adversary.0]
kind = model_poison
fraction = 0.3
scale = -2.5
label_flip = true
start_s = 100
end_s = 400
[adversary.1]
kind = byzantine
fraction = 0.2
magnitude = 15
weight_factor = 4
[adversary.2]
kind = jamming
x_m = 1000
y_m = 900
radius_m = 500
channels = v2c,v2x
start_s = 0
end_s = 600
[adversary.3]
kind = sybil
fraction = 0.1
clones = 3
)"));
  ASSERT_EQ(plan.events.size(), 4U);
  EXPECT_DOUBLE_EQ(plan.fraction, 0.5);

  const adversary::AdversaryEvent& poison = plan.events[0];
  EXPECT_EQ(poison.kind, adversary::AdversaryKind::kModelPoison);
  EXPECT_DOUBLE_EQ(poison.fraction, 0.3);
  EXPECT_DOUBLE_EQ(poison.scale, -2.5);
  EXPECT_TRUE(poison.label_flip);
  EXPECT_DOUBLE_EQ(poison.start_s, 100.0);
  EXPECT_DOUBLE_EQ(poison.end_s, 400.0);
  EXPECT_TRUE(poison.active_at(100.0));
  EXPECT_FALSE(poison.active_at(400.0));  // half-open window

  const adversary::AdversaryEvent& byz = plan.events[1];
  EXPECT_EQ(byz.kind, adversary::AdversaryKind::kByzantine);
  EXPECT_DOUBLE_EQ(byz.magnitude, 15.0);
  EXPECT_DOUBLE_EQ(byz.weight_factor, 4.0);
  EXPECT_EQ(byz.end_s, kInf);  // open-ended

  const adversary::AdversaryEvent& jam = plan.events[2];
  EXPECT_EQ(jam.kind, adversary::AdversaryKind::kJamming);
  EXPECT_DOUBLE_EQ(jam.center.x, 1000.0);
  EXPECT_DOUBLE_EQ(jam.radius_m, 500.0);
  EXPECT_TRUE(jam.channels[static_cast<std::size_t>(comm::ChannelKind::kV2C)]);
  EXPECT_TRUE(jam.channels[static_cast<std::size_t>(comm::ChannelKind::kV2X)]);
  EXPECT_FALSE(
      jam.channels[static_cast<std::size_t>(comm::ChannelKind::kWired)]);

  const adversary::AdversaryEvent& sybil = plan.events[3];
  EXPECT_EQ(sybil.kind, adversary::AdversaryKind::kSybil);
  EXPECT_EQ(sybil.clones, 3U);
}

TEST(AdversaryPlanParse, RejectsMalformedPlans) {
  EXPECT_THROW(
      adversary::plan_from_ini(parse("[adversary.0]\nkind = mind_control\n")),
      std::runtime_error);
  EXPECT_THROW(adversary::plan_from_ini(parse(
                   "[adversary.0]\nkind = model_poison\nfraction = 1.5\n")),
               std::runtime_error);
  EXPECT_THROW(adversary::plan_from_ini(parse(
                   "[adversary.0]\nkind = byzantine\nmagnitude = -1\n")),
               std::runtime_error);
  EXPECT_THROW(adversary::plan_from_ini(parse(
                   "[adversary.0]\nkind = byzantine\nweight_factor = 0\n")),
               std::runtime_error);
  EXPECT_THROW(adversary::plan_from_ini(parse(
                   "[adversary.0]\nkind = sybil\nclones = 0\n")),
               std::runtime_error);
  EXPECT_THROW(adversary::plan_from_ini(parse(
                   "[adversary.0]\nkind = jamming\nradius_m = -5\n")),
               std::runtime_error);
  EXPECT_THROW(
      adversary::plan_from_ini(parse(
          "[adversary.0]\nkind = model_poison\nstart_s = 10\nend_s = 5\n")),
      std::runtime_error);
}

TEST(AdversaryPlanParse, UnknownKeysFailLoudlyNamingTheSection) {
  // A typo'd key inside a typed event section.
  try {
    adversary::plan_from_ini(parse(
        "[adversary.0]\nkind = model_poison\nfractoin = 0.2\n"));
    FAIL() << "expected unknown-key rejection";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("adversary.0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("fractoin"), std::string::npos) << msg;
  }
  // A key valid for one kind is still unknown for another.
  EXPECT_THROW(adversary::plan_from_ini(parse(
                   "[adversary.0]\nkind = sybil\nscale = -4\n")),
               std::runtime_error);
  // The [adversary] header section only accepts `fraction`.
  EXPECT_THROW(adversary::plan_from_ini(parse(
                   "[adversary]\nfraction = 0.5\nseverity = 2\n")),
               std::runtime_error);
}

TEST(AdversaryPlanParse, NumberingGapFailsLoudly) {
  EXPECT_THROW(adversary::plan_from_ini(parse(R"([adversary.0]
kind = sybil
fraction = 0.1
[adversary.2]
kind = sybil
fraction = 0.1
)")),
               std::runtime_error);
}

TEST(FaultPlanParse, UnknownKeysFailLoudlyNamingTheSection) {
  // Same contract as [adversary.N]: a typo must not be silently ignored.
  try {
    (void)fault::plan_from_ini(parse(
        "[fault.0]\nkind = payload_corruption\nprobabilty = 0.3\n"));
    FAIL() << "expected unknown-key rejection";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("fault.0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("probabilty"), std::string::npos) << msg;
  }
  // Keys from a different kind are rejected too.
  EXPECT_THROW((void)fault::plan_from_ini(parse(
                   "[fault.0]\nkind = node_outage\nslowdown = 2\n")),
               std::runtime_error);
  // The [fault] header section only accepts `severity`.
  EXPECT_THROW((void)fault::plan_from_ini(parse(
                   "[fault]\nseverity = 1\nfraction = 0.5\n")),
               std::runtime_error);
  // Valid grammar still parses.
  EXPECT_NO_THROW((void)fault::plan_from_ini(parse(
      "[fault]\nseverity = 0.5\n[fault.0]\nkind = node_outage\n"
      "target = cloud\nstart_s = 1\nend_s = 2\n")));
}

// ------------------------------------------------------ resolve + scale ---

TEST(AdversaryPlanResolve, RejectsCompromiseWithNoVehicles) {
  adversary::AdversaryPlan plan = adversary::plan_from_ini(parse(
      "[adversary.0]\nkind = model_poison\nfraction = 0.4\n"));
  EXPECT_THROW((void)plan.resolved({}, 0), std::invalid_argument);
  const adversary::AdversaryPlan ok = plan.resolved({}, 10);
  EXPECT_EQ(ok.vehicle_count, 10U);
}

TEST(AdversaryPlanScale, FractionScalesCompromiseAndJammingRadius) {
  adversary::AdversaryPlan plan = adversary::plan_from_ini(parse(R"(
[adversary]
fraction = 0.5
[adversary.0]
kind = model_poison
fraction = 0.6
[adversary.1]
kind = jamming
radius_m = 400
)"));
  const adversary::AdversaryPlan scaled = plan.resolved({}, 10).scaled();
  ASSERT_EQ(scaled.events.size(), 2U);
  EXPECT_DOUBLE_EQ(scaled.events[0].fraction, 0.3);
  EXPECT_DOUBLE_EQ(scaled.events[1].radius_m, 200.0);
  EXPECT_DOUBLE_EQ(scaled.fraction, 1.0);  // baked in, not applied twice

  plan.fraction = 0.0;
  EXPECT_TRUE(plan.scaled().empty());  // one axis turns the attack off
}

// --------------------------------------------------- robust aggregation ---

ml::WeightedModel scalar(float value, double data_amount) {
  return ml::WeightedModel{{ml::Tensor{{1}, {value}}}, data_amount};
}

TEST(RobustAggregate, MeanIsBitIdenticalToFedAvg) {
  const std::vector<ml::WeightedModel> contributions{
      scalar(1.0F, 10.0), scalar(4.0F, 30.0), scalar(-2.0F, 5.0)};
  const ml::WeightedModel reference = ml::fed_avg(contributions);
  const ml::AggregateResult agg =
      ml::robust_aggregate(contributions, ml::AggregatorConfig{});
  EXPECT_EQ(agg.model.weights[0][0], reference.weights[0][0]);
  EXPECT_EQ(agg.model.data_amount, reference.data_amount);
  EXPECT_TRUE(agg.rejected.empty());
  EXPECT_EQ(agg.clipped, 0U);
}

TEST(RobustAggregate, TrimmedMeanDropsBothTails) {
  // 4 values, trim_fraction 0.25 -> drop 1 smallest + 1 largest: the
  // outlier (and one honest tail value) never touch the aggregate.
  const std::vector<ml::WeightedModel> contributions{
      scalar(1.0F, 1.0), scalar(2.0F, 1.0), scalar(3.0F, 1.0),
      scalar(1000.0F, 1.0)};
  ml::AggregatorConfig config;
  config.kind = ml::AggregatorKind::kTrimmedMean;
  config.trim_fraction = 0.25;
  const ml::AggregateResult agg = ml::robust_aggregate(contributions, config);
  EXPECT_FLOAT_EQ(agg.model.weights[0][0], 2.5F);
  // Evidence mass is still the full sum (rejection changes the value, not
  // the claimed data amount).
  EXPECT_DOUBLE_EQ(agg.model.data_amount, 4.0);
}

TEST(RobustAggregate, MedianIgnoresWeightsAndPermutation) {
  ml::AggregatorConfig config;
  config.kind = ml::AggregatorKind::kMedian;
  const std::vector<ml::WeightedModel> a{
      scalar(1.0F, 1.0), scalar(2.0F, 1.0), scalar(500.0F, 1000.0)};
  const std::vector<ml::WeightedModel> b{
      scalar(500.0F, 1000.0), scalar(1.0F, 1.0), scalar(2.0F, 1.0)};
  EXPECT_FLOAT_EQ(ml::robust_aggregate(a, config).model.weights[0][0], 2.0F);
  // Permutation invariant: coordinate-wise sort erases input order, and an
  // inflated data_amount buys no influence.
  EXPECT_EQ(ml::robust_aggregate(a, config).model.weights[0][0],
            ml::robust_aggregate(b, config).model.weights[0][0]);
}

TEST(RobustAggregate, NormClipCapsOversizedContributions) {
  ml::AggregatorConfig config;
  config.kind = ml::AggregatorKind::kNormClip;
  config.clip_norm = 2.0;
  const std::vector<ml::WeightedModel> contributions{
      scalar(1.0F, 1.0), scalar(1.0F, 1.0), scalar(100.0F, 1.0)};
  const ml::AggregateResult agg = ml::robust_aggregate(contributions, config);
  EXPECT_EQ(agg.clipped, 1U);
  // Third contribution scaled from 100 to norm 2: mean is (1 + 1 + 2) / 3.
  EXPECT_NEAR(agg.model.weights[0][0], 4.0F / 3.0F, 1e-5F);
  // Default cap (clip_norm = 0) uses the median contribution norm.
  config.clip_norm = 0.0;
  const ml::AggregateResult med = ml::robust_aggregate(contributions, config);
  EXPECT_EQ(med.clipped, 1U);
  EXPECT_NEAR(med.model.weights[0][0], 1.0F, 1e-5F);
}

TEST(RobustAggregate, KrumRejectsTheOutlier) {
  ml::AggregatorConfig config;
  config.kind = ml::AggregatorKind::kKrum;
  config.krum_select = 3;
  const std::vector<ml::WeightedModel> contributions{
      scalar(1.0F, 1.0), scalar(1.1F, 1.0), scalar(0.9F, 1.0),
      scalar(1.05F, 1.0), scalar(-50.0F, 1.0)};
  const ml::AggregateResult agg = ml::robust_aggregate(contributions, config);
  ASSERT_EQ(agg.rejected.size(), 2U);
  // The garbage contribution (index 4) is always among the rejected, and
  // the rejected list is sorted ascending.
  EXPECT_EQ(agg.rejected.back(), 4U);
  EXPECT_LT(agg.rejected.front(), agg.rejected.back());
  EXPECT_GT(agg.model.weights[0][0], 0.0F);
  EXPECT_LT(agg.model.weights[0][0], 2.0F);
  EXPECT_DOUBLE_EQ(agg.model.data_amount, 5.0);  // full evidence mass
}

TEST(RobustAggregate, KrumFallsBackToMeanBelowThree) {
  ml::AggregatorConfig config;
  config.kind = ml::AggregatorKind::kKrum;
  const std::vector<ml::WeightedModel> pair{scalar(1.0F, 10.0),
                                            scalar(4.0F, 30.0)};
  const ml::AggregateResult agg = ml::robust_aggregate(pair, config);
  EXPECT_EQ(agg.model.weights[0][0], ml::fed_avg(pair).weights[0][0]);
  EXPECT_TRUE(agg.rejected.empty());
}

TEST(RobustAggregate, ParsesAndValidatesKindNames) {
  EXPECT_EQ(ml::aggregator_from_string("mean"), ml::AggregatorKind::kMean);
  EXPECT_EQ(ml::aggregator_from_string("trimmed_mean"),
            ml::AggregatorKind::kTrimmedMean);
  EXPECT_EQ(ml::aggregator_from_string("median"), ml::AggregatorKind::kMedian);
  EXPECT_EQ(ml::aggregator_from_string("norm_clip"),
            ml::AggregatorKind::kNormClip);
  EXPECT_EQ(ml::aggregator_from_string("krum"), ml::AggregatorKind::kKrum);
  EXPECT_THROW((void)ml::aggregator_from_string("average"),
               std::invalid_argument);
  EXPECT_THROW(ml::robust_aggregate({}, ml::AggregatorConfig{}),
               std::invalid_argument);
}

// ----------------------------------------------------------- controller ---

adversary::AdversaryController make_controller(const std::string& ini_text,
                                               std::uint64_t seed = 7,
                                               std::size_t vehicles = 10) {
  adversary::AdversaryPlan plan = adversary::plan_from_ini(parse(ini_text));
  return adversary::AdversaryController{
      plan.resolved({}, vehicles).scaled(), util::Rng{seed}.fork("adversary")};
}

TEST(AdversaryController, InertByDefault) {
  adversary::AdversaryController inert;
  EXPECT_FALSE(inert.enabled());
  EXPECT_EQ(inert.compromised_count(), 0U);
  ml::Weights w{ml::Tensor{{1}, {1.0F}}};
  double amount = 5.0;
  const adversary::OutgoingEffect effect =
      inert.transform_outgoing(0, 100.0, w, amount);
  EXPECT_EQ(effect.clones, 0U);
  EXPECT_FALSE(effect.mutated);
  EXPECT_FLOAT_EQ(w[0][0], 1.0F);
}

TEST(AdversaryController, SameSeedDrawsTheSameCompromisedSet) {
  const std::string ini =
      "[adversary.0]\nkind = model_poison\nfraction = 0.4\n";
  adversary::AdversaryController a = make_controller(ini, 11);
  adversary::AdversaryController b = make_controller(ini, 11);
  adversary::AdversaryController c = make_controller(ini, 12);
  EXPECT_EQ(a.compromised_count(), 4U);  // floor-free: 0.4 * 10 vehicles
  std::size_t agreement = 0;
  for (std::size_t v = 0; v < 10; ++v) {
    EXPECT_EQ(a.compromised(v), b.compromised(v));
    if (a.compromised(v) == c.compromised(v)) ++agreement;
  }
  // A different seed draws a different set (10 choose 4 leaves collision
  // room, but full agreement on membership of all 10 is the same set).
  EXPECT_EQ(b.compromised_count(), 4U);
  EXPECT_EQ(c.compromised_count(), 4U);
}

TEST(AdversaryController, PoisonScalesWeightsInsideWindowOnly) {
  adversary::AdversaryController ctl = make_controller(
      "[adversary.0]\nkind = model_poison\nfraction = 1.0\nscale = -4\n"
      "start_s = 100\nend_s = 200\n");
  ASSERT_TRUE(ctl.compromised(3));
  ml::Weights w{ml::Tensor{{2}, {1.0F, -2.0F}}};
  double amount = 5.0;
  // Outside the window: untouched.
  adversary::OutgoingEffect effect = ctl.transform_outgoing(3, 50.0, w,
                                                            amount);
  EXPECT_FALSE(effect.mutated);
  EXPECT_FLOAT_EQ(w[0][0], 1.0F);
  // Inside: every coordinate multiplied by the (sign-flipping) scale.
  effect = ctl.transform_outgoing(3, 150.0, w, amount);
  EXPECT_TRUE(effect.mutated);
  EXPECT_FLOAT_EQ(w[0][0], -4.0F);
  EXPECT_FLOAT_EQ(w[0][1], 8.0F);
  EXPECT_DOUBLE_EQ(amount, 5.0);  // poisoning spoofs content, not volume
  EXPECT_EQ(ctl.counters().poisoned_updates, 1U);
}

TEST(AdversaryController, ByzantineGarbageInflatesClaimedData) {
  adversary::AdversaryController ctl = make_controller(
      "[adversary.0]\nkind = byzantine\nfraction = 1.0\nmagnitude = 10\n"
      "weight_factor = 4\n");
  ml::Weights w{ml::Tensor{{3}, {0.5F, 0.5F, 0.5F}}};
  double amount = 10.0;
  const adversary::OutgoingEffect effect =
      ctl.transform_outgoing(0, 100.0, w, amount);
  EXPECT_TRUE(effect.mutated);
  EXPECT_DOUBLE_EQ(amount, 40.0);  // buys trust under weighted mean
  bool changed = false;
  for (std::size_t i = 0; i < 3; ++i) {
    if (w[0][i] != 0.5F) changed = true;
    EXPECT_TRUE(std::isfinite(w[0][i]));  // garbage passes structural checks
  }
  EXPECT_TRUE(changed);
  EXPECT_EQ(ctl.counters().byzantine_updates, 1U);
}

TEST(AdversaryController, SybilRequestsClones) {
  adversary::AdversaryController ctl = make_controller(
      "[adversary.0]\nkind = sybil\nfraction = 1.0\nclones = 3\n");
  ml::Weights w{ml::Tensor{{1}, {1.0F}}};
  double amount = 5.0;
  const adversary::OutgoingEffect effect =
      ctl.transform_outgoing(2, 100.0, w, amount);
  EXPECT_EQ(effect.clones, 3U);
  EXPECT_FLOAT_EQ(w[0][0], 1.0F);  // clones amplify, they don't mutate
  EXPECT_EQ(ctl.counters().sybil_clones, 3U);
}

TEST(AdversaryController, JammingBlocksFlaggedChannelsInsideRadius) {
  adversary::AdversaryController ctl = make_controller(
      "[adversary.0]\nkind = jamming\nx_m = 0\ny_m = 0\nradius_m = 100\n"
      "channels = v2x\nstart_s = 0\nend_s = 1000\n");
  const mobility::Position inside{50.0, 0.0};
  const mobility::Position outside{150.0, 0.0};
  EXPECT_TRUE(ctl.jamming_blocked(comm::ChannelKind::kV2X, inside, 10.0));
  EXPECT_FALSE(ctl.jamming_blocked(comm::ChannelKind::kV2C, inside, 10.0));
  EXPECT_FALSE(ctl.jamming_blocked(comm::ChannelKind::kV2X, outside, 10.0));
  EXPECT_FALSE(ctl.jamming_blocked(comm::ChannelKind::kV2X, inside, 1000.0));
  // Jamming is pure geometry: the benign FaultHook queries stay inert.
  EXPECT_FALSE(ctl.node_down(0, 10.0));
  EXPECT_FALSE(ctl.region_blocked(comm::ChannelKind::kV2X, inside, 10.0));
}

TEST(AdversaryController, LabelFlipOnlyForFlaggedPoisonEvents) {
  adversary::AdversaryController flip = make_controller(
      "[adversary.0]\nkind = model_poison\nfraction = 1.0\n"
      "label_flip = true\nstart_s = 0\nend_s = 100\n");
  EXPECT_TRUE(flip.poison_training(0, 50.0));
  EXPECT_FALSE(flip.poison_training(0, 150.0));  // window over
  EXPECT_EQ(flip.counters().label_flip_trainings, 1U);

  adversary::AdversaryController noflip = make_controller(
      "[adversary.0]\nkind = model_poison\nfraction = 1.0\n");
  EXPECT_FALSE(noflip.poison_training(0, 50.0));
}

TEST(AdversaryController, StateRoundTripsThroughBinaryIo) {
  const std::string ini =
      "[adversary.0]\nkind = byzantine\nfraction = 1.0\nmagnitude = 5\n";
  adversary::AdversaryController original = make_controller(ini);
  ml::Weights w{ml::Tensor{{4}, {0.0F, 0.0F, 0.0F, 0.0F}}};
  double amount = 1.0;
  // Advance the RNG stream mid-attack.
  (void)original.transform_outgoing(0, 10.0, w, amount);
  (void)original.transform_outgoing(1, 11.0, w, amount);

  util::BinWriter out;
  util::save_fields(out, original);
  adversary::AdversaryController restored = make_controller(ini);
  util::BinReader in{out.buffer()};
  util::load_fields(in, restored, "adversary");
  EXPECT_EQ(restored.counters().byzantine_updates, 2U);

  // The garbage streams continue in lockstep: bit-identical resume.
  for (int i = 0; i < 5; ++i) {
    ml::Weights wa{ml::Tensor{{4}, {0.0F, 0.0F, 0.0F, 0.0F}}};
    ml::Weights wb{ml::Tensor{{4}, {0.0F, 0.0F, 0.0F, 0.0F}}};
    double da = 1.0, db = 1.0;
    (void)original.transform_outgoing(2, 20.0 + i, wa, da);
    (void)restored.transform_outgoing(2, 20.0 + i, wb, db);
    for (std::size_t k = 0; k < 4; ++k) EXPECT_EQ(wa[0][k], wb[0][k]);
  }

  // A snapshot taken under a different plan shape is refused.
  adversary::AdversaryController other = make_controller(
      "[adversary.0]\nkind = sybil\nfraction = 0.5\n[adversary.1]\n"
      "kind = byzantine\nfraction = 0.5\n");
  util::BinReader in2{out.buffer()};
  EXPECT_THROW(util::load_fields(in2, other, "adversary"),
               std::runtime_error);
}

// ---------------------------------------------------------- integration ---

// Full participation (always-on fleet, participants = vehicles) so every
// round aggregates all 10 contributions and the honest majority is a
// property of the attack fraction, not of per-round selection luck.
std::string adversarial_ini(const std::string& attack_sections,
                            const std::string& strategy_keys = {}) {
  return R"([scenario]
vehicles = 10
seed = 11
horizon_s = 800
trace_events = true
[city]
duration_s = 800
initial_on = 1.0
dwell_on = 1.0
[data]
dataset = blobs
train_pool = 600
test_size = 120
partition = iid
samples_per_vehicle = 40
[train]
model = logreg
epochs = 8
[strategy]
name = federated
rounds = 5
participants = 10
round_duration_s = 150
)" + strategy_keys + attack_sections;
}

TEST(AdversaryIntegration, AttackCountersAreExported) {
  const auto ini = parse(adversarial_ini(R"([adversary.0]
kind = model_poison
fraction = 0.3
scale = -4
label_flip = true
[adversary.1]
kind = sybil
fraction = 0.2
clones = 2
)"));
  const scenario::RunResult result = scenario::run_experiment(ini);
  EXPECT_EQ(result.metrics.counter("adversary_compromised_vehicles"), 4.0);
  EXPECT_GT(result.metrics.counter("adversary_poisoned_updates"), 0.0);
  EXPECT_GT(result.metrics.counter("adversary_label_flip_trainings"), 0.0);
  EXPECT_GT(result.metrics.counter("adversary_sybil_clones"), 0.0);
  // Under the undefended mean every reaching update is accepted.
  EXPECT_GT(result.metrics.counter("adversary_updates_accepted"), 0.0);
  EXPECT_DOUBLE_EQ(result.metrics.counter("adversary_updates_rejected"), 0.0);
  EXPECT_DOUBLE_EQ(result.metrics.counter("adversary_attack_success_rate"),
                   1.0);
}

TEST(AdversaryIntegration, RobustDefenseBeatsUndefendedMean) {
  // 30% byzantine reporters with inflated data_amount wreck the weighted
  // mean; the coordinate-median aggregate must stay usable. This is the
  // subsystem's headline claim, asserted end to end.
  const std::string attack = R"([adversary.0]
kind = byzantine
fraction = 0.3
magnitude = 25
weight_factor = 4
)";
  const scenario::RunResult undefended =
      scenario::run_experiment(parse(adversarial_ini(attack)));
  const scenario::RunResult defended = scenario::run_experiment(
      parse(adversarial_ini(attack, "aggregation = median\n")));
  EXPECT_GT(defended.final_accuracy, undefended.final_accuracy + 0.3)
      << "median=" << defended.final_accuracy
      << " mean=" << undefended.final_accuracy;
  // The clean baseline (no adversary sections) is not hurt by the defense
  // being available: defense counters stay zero without an attack.
  const scenario::RunResult clean =
      scenario::run_experiment(parse(adversarial_ini("")));
  EXPECT_GT(clean.final_accuracy, undefended.final_accuracy);
  EXPECT_DOUBLE_EQ(clean.metrics.counter("adversary_poisoned_updates"), 0.0);
}

TEST(AdversaryIntegration, KrumRejectionsAttributeToCompromisedSenders) {
  const auto ini = parse(adversarial_ini(R"([adversary.0]
kind = byzantine
fraction = 0.3
magnitude = 25
)",
                                         "aggregation = krum\n"
                                         "krum_select = 4\n"));
  const scenario::RunResult result = scenario::run_experiment(ini);
  EXPECT_GT(result.metrics.counter("defense_updates_rejected"), 0.0);
  EXPECT_GT(result.metrics.counter("adversary_updates_rejected"), 0.0);
  EXPECT_LT(result.metrics.counter("adversary_attack_success_rate"), 1.0);
}

TEST(AdversaryIntegration, JammingFailuresGetTheirOwnCause) {
  // A jamming disc over the whole map blocks V2C: failures must land on the
  // `jamming` cause, not on the benign region-outage bucket.
  const auto ini = parse(adversarial_ini(R"([adversary.0]
kind = jamming
x_m = 1000
y_m = 1000
radius_m = 100000
channels = v2c
start_s = 0
end_s = 450
)"));
  const scenario::RunResult result = scenario::run_experiment(ini);
  EXPECT_GT(result.metrics.counter("transfers_V2C_failed_jamming"), 0.0);
  EXPECT_DOUBLE_EQ(
      result.metrics.counter("transfers_V2C_failed_fault-outage"), 0.0);
}

// ------------------------------------------------------ merge accounting --

// One row per merge path that runs the defense: the server's round aggregate
// (federated), an OPP reporter's intermediate aggregate, an RSU's edge
// aggregate and a gossip pair. Each row runs a model_poison plan under an
// aggregator that fires on its path, and pins the four accounting counters
// exactly (an adversary plan materializes all four, zeros included).
struct MergePathCase {
  const char* name;
  const char* scenario_keys;
  const char* strategy_keys;
  double defense_clipped;
  double defense_rejected;
  double adversary_rejected;
  double adversary_accepted;
};

void PrintTo(const MergePathCase& c, std::ostream* os) { *os << c.name; }

class MergeAccounting : public ::testing::TestWithParam<MergePathCase> {};

TEST_P(MergeAccounting, CountersArePinned) {
  const MergePathCase& c = GetParam();
  const auto ini = parse(std::string{"[scenario]\n"
                                     "vehicles = 10\n"
                                     "seed = 11\n"
                                     "horizon_s = 800\n"} +
                         c.scenario_keys + R"([city]
duration_s = 800
size_m = 800
initial_on = 1.0
dwell_on = 1.0
[data]
dataset = blobs
train_pool = 600
test_size = 120
partition = iid
samples_per_vehicle = 40
[train]
model = logreg
epochs = 2
[strategy]
)" + c.strategy_keys + R"([adversary.0]
kind = model_poison
fraction = 0.3
scale = -4
)");
  const metrics::Registry& m = scenario::run_experiment(ini).metrics;
  const std::vector<std::string> names = m.counter_names();
  for (const char* counter :
       {"defense_updates_clipped", "defense_updates_rejected",
        "adversary_updates_rejected", "adversary_updates_accepted"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), counter), names.end())
        << counter;
  }
  EXPECT_EQ(m.counter("defense_updates_clipped"), c.defense_clipped);
  EXPECT_EQ(m.counter("defense_updates_rejected"), c.defense_rejected);
  EXPECT_EQ(m.counter("adversary_updates_rejected"), c.adversary_rejected);
  EXPECT_EQ(m.counter("adversary_updates_accepted"), c.adversary_accepted);
}

INSTANTIATE_TEST_SUITE_P(
    Paths, MergeAccounting,
    ::testing::Values(
        MergePathCase{"federated", "",
                      "name = federated\nrounds = 5\nparticipants = 10\n"
                      "round_duration_s = 150\naggregation = krum\n"
                      "krum_select = 4\n",
                      0, 28, 14, 0},
        MergePathCase{"opportunistic", "",
                      "name = opportunistic\nrounds = 4\nparticipants = 4\n"
                      "round_duration_s = 150\naggregation = krum\n"
                      "krum_select = 2\n",
                      0, 14, 7, 0},
        MergePathCase{"rsu_edge", "rsus = 2\n",
                      "name = rsu_assisted\naggregate_at_rsu = true\n"
                      "rounds = 4\nparticipants = 10\n"
                      "round_duration_s = 150\naggregation = krum\n"
                      "krum_select = 2\n",
                      0, 25, 11, 2},
        MergePathCase{"gossip", "",
                      "name = gossip\nduration_s = 800\n"
                      "aggregation = norm_clip\nclip_norm = 1\n",
                      77, 0, 0, 15}),
    [](const ::testing::TestParamInfo<MergePathCase>& info) {
      return std::string{info.param.name};
    });

// ------------------------------------------------------------ checkpoint --

TEST(AdversaryCheckpoint, MidAttackRoundTripIsBitIdentical) {
  const auto ini = parse(adversarial_ini(R"([adversary.0]
kind = model_poison
fraction = 0.3
scale = -4
label_flip = true
[adversary.1]
kind = byzantine
fraction = 0.2
magnitude = 10
)"));
  const fs::path snap =
      fs::temp_directory_path() / "rr_adversary_roundtrip.rrck";
  fs::remove(snap);

  auto run_full = [&](const std::string& snap_path) {
    scenario::Scenario scn{scenario::scenario_from_ini(ini)};
    auto strategy = scenario::strategy_from_ini(ini);
    auto sim = scn.make_simulator();
    sim->set_strategy(strategy);
    bool saved = false;
    if (!snap_path.empty()) {
      sim->set_autosave(150.0, [&](core::Simulator& s) {
        if (saved) return;
        saved = true;
        checkpoint::save(s, ini, snap_path);
      });
    }
    (void)sim->run();
    std::ostringstream trace, metrics;
    sim->trace().export_csv(trace);
    sim->metrics_view().export_csv(metrics);
    return std::pair<std::string, std::string>{trace.str(), metrics.str()};
  };

  const auto uninterrupted = run_full({});
  const auto snapshotting = run_full(snap.string());
  EXPECT_EQ(uninterrupted.first, snapshotting.first);
  ASSERT_TRUE(fs::exists(snap));
  const checkpoint::SnapshotInfo info = checkpoint::peek(snap.string());
  EXPECT_EQ(info.format_version, checkpoint::kFormatVersion);

  checkpoint::RestoredRun resumed = checkpoint::restore(snap.string());
  const auto report = resumed.simulator->run();
  (void)report;
  std::ostringstream trace, metrics;
  resumed.simulator->trace().export_csv(trace);
  resumed.simulator->metrics_view().export_csv(metrics);
  EXPECT_EQ(uninterrupted.first, trace.str());
  EXPECT_EQ(uninterrupted.second, metrics.str());
  fs::remove(snap);
}

TEST(AdversaryCheckpoint, PriorFormatGoldenSnapshotStillRestores) {
  // Committed fixture generated by the last release that wrote format v2,
  // BEFORE the adversary subsystem existed. Restoring it and finishing must
  // reproduce a fresh run of its embedded experiment byte-for-byte: format
  // v3 readers stay backward compatible one version.
  const fs::path dir{RR_TEST_DATA_DIR};
  const fs::path snap = dir / "checkpoint_v2_golden.rrck";
  const fs::path ini_path = dir / "checkpoint_v2_golden.ini";
  ASSERT_TRUE(fs::exists(snap)) << snap;
  ASSERT_TRUE(fs::exists(ini_path)) << ini_path;

  const checkpoint::SnapshotInfo info = checkpoint::peek(snap.string());
  EXPECT_EQ(info.format_version, 2U);
  EXPECT_LT(info.format_version, checkpoint::kFormatVersion);

  checkpoint::RestoredRun resumed = checkpoint::restore(snap.string());
  const scenario::RunResult finished = resumed.finish();
  const scenario::RunResult fresh =
      scenario::run_experiment(util::IniFile::load(ini_path.string()));
  EXPECT_DOUBLE_EQ(finished.final_accuracy, fresh.final_accuracy);
  std::ostringstream a, b;
  finished.metrics.export_csv(a);
  fresh.metrics.export_csv(b);
  EXPECT_EQ(a.str(), b.str());
}

// -------------------------------------------------- campaign determinism --

/// 2 points x 1 seed adversarial grid: undefended mean vs median under 30%
/// poisoning, small enough for loopback tests (~1 s per job).
campaign::CampaignSpec adversarial_spec() {
  campaign::CampaignSpec spec;
  spec.name = "adversary_determinism";
  spec.base = util::IniFile::parse(R"(
[scenario]
vehicles = 8
horizon_s = 600
[city]
duration_s = 600
[data]
dataset = blobs
train_pool = 400
test_size = 80
partition = iid
samples_per_vehicle = 20
[train]
model = logreg
epochs = 1
[strategy]
name = federated
rounds = 3
participants = 4
round_duration_s = 60
[adversary.0]
kind = model_poison
fraction = 0.3
scale = -4
)");
  spec.grid = {{"strategy", "aggregation", {"mean", "median"}}};
  spec.seeds_per_point = 1;
  spec.base_seed = 41;
  return spec;
}

std::string records_bytes(const std::vector<campaign::JobRecord>& records) {
  std::string out;
  for (campaign::JobRecord record : records) {
    record.wall_seconds = 0.0;  // host wall-clock: outside the contract
    dist::encode_record(record, out);
  }
  return out;
}

TEST(AdversaryCampaign, WorkerCountDoesNotChangeTheBytes) {
  const campaign::CampaignSpec spec = adversarial_spec();
  campaign::EngineOptions serial;
  serial.workers = 1;
  campaign::EngineOptions wide;
  wide.workers = 4;
  const campaign::CampaignResult one = campaign::run_campaign(spec, serial);
  const campaign::CampaignResult four = campaign::run_campaign(spec, wide);
  ASSERT_EQ(one.records.size(), 2U);
  EXPECT_EQ(records_bytes(one.records), records_bytes(four.records));
  std::ostringstream a, b;
  campaign::write_aggregate_csv(a, campaign::summarize(one.records));
  campaign::write_aggregate_csv(b, campaign::summarize(four.records));
  EXPECT_EQ(a.str(), b.str());
}

TEST(AdversaryCampaign, DistributedRunMatchesInProcessEngine) {
  const campaign::CampaignSpec spec = adversarial_spec();
  campaign::EngineOptions local;
  local.workers = 2;
  const campaign::CampaignResult reference =
      campaign::run_campaign(spec, local);

  dist::CoordinatorOptions copts;
  copts.host = "127.0.0.1";
  dist::Coordinator coordinator{spec, copts};
  const std::uint16_t port = coordinator.port();
  ASSERT_GT(port, 0);
  dist::CoordinatorResult result;
  std::thread serve_thread{[&] { result = coordinator.serve(); }};
  dist::WorkerOptions wopts;
  wopts.host = "127.0.0.1";
  wopts.port = port;
  wopts.name = "adversary-worker";
  const dist::WorkerReport report = dist::run_worker(wopts);
  serve_thread.join();

  EXPECT_EQ(report.shutdown_reason, "campaign complete");
  ASSERT_EQ(result.records.size(), reference.records.size());
  EXPECT_EQ(records_bytes(result.records), records_bytes(reference.records));
}

}  // namespace
}  // namespace roadrunner

// Tests for the campaign subsystem: spec expansion, job hashing, the
// resumable result store, parallel-execution determinism (the engine's
// core contract: per-job metrics are bit-identical under any worker
// count), resume-after-kill, statistical aggregation, and the `[report]`
// tables.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "util/csv.hpp"

#include "campaign/aggregate.hpp"
#include "campaign/engine.hpp"
#include "campaign/report.hpp"
#include "campaign/spec.hpp"
#include "campaign/store.hpp"

namespace roadrunner {
namespace {

namespace fs = std::filesystem;

/// A campaign small enough that the full determinism matrix stays fast:
/// 2 sweep points x 2 seeds on a 10-vehicle logreg problem.
campaign::CampaignSpec tiny_spec() {
  campaign::CampaignSpec spec;
  spec.name = "tiny";
  spec.base = util::IniFile::parse(R"(
[scenario]
vehicles = 10
horizon_s = 1200
[city]
duration_s = 1200
[data]
dataset = blobs
train_pool = 600
test_size = 120
partition = iid
samples_per_vehicle = 20
[train]
model = logreg
epochs = 1
[strategy]
name = federated
rounds = 2
participants = 3
round_duration_s = 30
)");
  spec.grid = {{"strategy", "participants", {"2", "3"}}};
  spec.seeds_per_point = 2;
  spec.base_seed = 77;
  return spec;
}

std::string temp_dir(const std::string& tag) {
  const auto dir =
      fs::path{::testing::TempDir()} / ("rr_campaign_" + tag);
  fs::remove_all(dir);
  return dir.string();
}

// ------------------------------------------------------------ expansion --

TEST(CampaignSpec, GridExpansionIsCartesianFirstAxisSlowest) {
  campaign::CampaignSpec spec;
  spec.base = util::IniFile::parse("[strategy]\nname = federated\n");
  spec.grid = {{"scenario", "vehicles", {"10", "20"}},
               {"strategy", "rounds", {"1", "2", "3"}}};
  const auto jobs = campaign::expand(spec);
  ASSERT_EQ(jobs.size(), 6U);
  EXPECT_EQ(campaign::point_count(spec), 6U);
  EXPECT_EQ(jobs[0].experiment.get("scenario", "vehicles", ""), "10");
  EXPECT_EQ(jobs[0].experiment.get("strategy", "rounds", ""), "1");
  EXPECT_EQ(jobs[1].experiment.get("strategy", "rounds", ""), "2");
  EXPECT_EQ(jobs[3].experiment.get("scenario", "vehicles", ""), "20");
  EXPECT_EQ(jobs[3].experiment.get("strategy", "rounds", ""), "1");
  EXPECT_EQ(jobs[5].point_index, 5U);
  EXPECT_EQ(jobs[0].point_label, "vehicles=10, rounds=1");
}

TEST(CampaignSpec, ZipAxesAdvanceTogetherAndCrossWithGrid) {
  campaign::CampaignSpec spec;
  spec.base = util::IniFile::parse("[scenario]\nvehicles = 10\n");
  spec.zipped = {{"strategy", "name", {"federated", "opportunistic"}},
                 {"strategy", "round_duration_s", {"30", "200"}}};
  spec.grid = {{"scenario", "vehicles", {"10", "20", "30"}}};
  const auto jobs = campaign::expand(spec);
  ASSERT_EQ(jobs.size(), 6U);
  // Zip rows are outermost: first 3 jobs are federated across fleet sizes.
  EXPECT_EQ(jobs[0].experiment.get("strategy", "name", ""), "federated");
  EXPECT_EQ(jobs[0].experiment.get("strategy", "round_duration_s", ""), "30");
  EXPECT_EQ(jobs[2].experiment.get("scenario", "vehicles", ""), "30");
  EXPECT_EQ(jobs[3].experiment.get("strategy", "name", ""), "opportunistic");
  EXPECT_EQ(jobs[3].experiment.get("strategy", "round_duration_s", ""),
            "200");
}

TEST(CampaignSpec, MismatchedZipLengthsThrow) {
  campaign::CampaignSpec spec;
  spec.zipped = {{"a", "x", {"1", "2"}}, {"a", "y", {"1"}}};
  EXPECT_THROW(campaign::expand(spec), std::invalid_argument);
}

TEST(CampaignSpec, EmptyAxisValuesAndZeroSeedsThrow) {
  campaign::CampaignSpec spec;
  spec.grid = {{"a", "x", {}}};
  EXPECT_THROW(campaign::expand(spec), std::invalid_argument);
  spec.grid = {{"a", "x", {"1"}}};
  spec.seeds_per_point = 0;
  EXPECT_THROW(campaign::expand(spec), std::invalid_argument);
}

TEST(CampaignSpec, SeedsDependOnlyOnJobIdentity) {
  const auto jobs_a = campaign::expand(tiny_spec());
  const auto jobs_b = campaign::expand(tiny_spec());
  ASSERT_EQ(jobs_a.size(), jobs_b.size());
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < jobs_a.size(); ++i) {
    EXPECT_EQ(jobs_a[i].seed, jobs_b[i].seed);
    EXPECT_EQ(jobs_a[i].hash, jobs_b[i].hash);
    seeds.insert(jobs_a[i].seed);
  }
  EXPECT_EQ(seeds.size(), jobs_a.size()) << "all job seeds distinct";
}

TEST(CampaignSpec, PairedSeedsShareReplicateSeedAcrossPoints) {
  auto spec = tiny_spec();
  spec.pair_seeds = true;
  const auto jobs = campaign::expand(spec);
  ASSERT_EQ(jobs.size(), 4U);
  EXPECT_EQ(jobs[0].seed, spec.base_seed);      // point 0, replicate 0
  EXPECT_EQ(jobs[2].seed, spec.base_seed);      // point 1, replicate 0
  EXPECT_EQ(jobs[1].seed, spec.base_seed + 1);  // point 0, replicate 1
  // Hashes still differ: the sweep point changes the experiment.
  EXPECT_NE(jobs[0].hash, jobs[2].hash);
}

TEST(CampaignSpec, HashReflectsEveryKeyAndSeed) {
  const auto jobs = campaign::expand(tiny_spec());
  std::set<std::string> hashes;
  for (const auto& job : jobs) hashes.insert(job.hash);
  EXPECT_EQ(hashes.size(), jobs.size());

  auto changed = tiny_spec();
  changed.base.set("train", "epochs", "2");
  const auto jobs_changed = campaign::expand(changed);
  EXPECT_NE(jobs[0].hash, jobs_changed[0].hash);
}

TEST(CampaignSpec, FromIniParsesSweepAndBase) {
  const auto ini = util::IniFile::parse(R"(
[campaign]
name = my_sweep
seeds = 2
base_seed = 9
pair_seeds = true
[sweep]
scenario.vehicles = 10, 20
[sweep.zip]
strategy.name = federated, opportunistic
strategy.round_duration_s = 30, 200
[data]
dataset = blobs
[strategy]
rounds = 3
)");
  const auto spec = campaign::campaign_from_ini(ini);
  EXPECT_EQ(spec.name, "my_sweep");
  EXPECT_EQ(spec.seeds_per_point, 2U);
  EXPECT_EQ(spec.base_seed, 9U);
  EXPECT_TRUE(spec.pair_seeds);
  ASSERT_EQ(spec.grid.size(), 1U);
  EXPECT_EQ(spec.grid[0].section, "scenario");
  EXPECT_EQ(spec.grid[0].key, "vehicles");
  EXPECT_EQ(spec.grid[0].values, (std::vector<std::string>{"10", "20"}));
  ASSERT_EQ(spec.zipped.size(), 2U);
  EXPECT_EQ(spec.base.get("data", "dataset", ""), "blobs");
  EXPECT_EQ(spec.base.get("strategy", "rounds", ""), "3");
  EXPECT_FALSE(spec.base.has("campaign", "name"));
  EXPECT_EQ(campaign::point_count(spec), 4U);
}

TEST(CampaignSpec, FromIniRejectsMalformedSweepKey) {
  const auto ini = util::IniFile::parse("[sweep]\nvehicles = 1, 2\n");
  EXPECT_THROW(campaign::campaign_from_ini(ini), std::runtime_error);
}

/// campaign_from_ini's error message for `text`, or "" if it parsed.
std::string from_ini_error(const std::string& text) {
  try {
    (void)campaign::campaign_from_ini(util::IniFile::parse(text));
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(CampaignSpec, FromIniRejectsZeroSeeds) {
  EXPECT_NE(from_ini_error("[campaign]\nseeds = 0\n").find("[campaign] seeds"),
            std::string::npos);
}

TEST(CampaignSpec, FromIniRejectsNegativeSeeds) {
  // Used to wrap through size_t into a 2^64-job vector::reserve.
  EXPECT_NE(
      from_ini_error("[campaign]\nseeds = -2\n").find("[campaign] seeds"),
      std::string::npos);
}

// --------------------------------------------------------------- report --

TEST(CampaignReport, FromIniParsesMetricsAndScorecard) {
  const auto spec = campaign::campaign_from_ini(util::IniFile::parse(R"(
[sweep]
scenario.vehicles = 10, 20
[report]
metrics = final_accuracy, purity:final
scorecard = transfers_V2C_failed_fault-outage
)"));
  EXPECT_EQ(spec.report.metrics,
            (std::vector<std::string>{"final_accuracy", "purity:final"}));
  EXPECT_EQ(spec.report.scorecard,
            (std::vector<std::string>{"transfers_V2C_failed_fault-outage"}));
  EXPECT_FALSE(spec.base.has("report", "metrics"));
}

TEST(CampaignReport, ReportSectionMovesNoJobHash) {
  const std::string campaign = R"(
[campaign]
seeds = 2
[sweep]
scenario.vehicles = 10, 20
[sweep.zip]
strategy.name = federated, gossip
[strategy]
rounds = 3
)";
  const auto plain =
      campaign::expand(campaign::campaign_from_ini(util::IniFile::parse(campaign)));
  const auto reported = campaign::expand(campaign::campaign_from_ini(
      util::IniFile::parse(campaign +
                           "[report]\nmetrics = final_accuracy\n"
                           "scorecard = uploads\n")));
  ASSERT_EQ(plain.size(), 8U);
  ASSERT_EQ(reported.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(reported[i].hash, plain[i].hash) << i;
    EXPECT_EQ(reported[i].seed, plain[i].seed) << i;
    EXPECT_EQ(reported[i].point_label, plain[i].point_label) << i;
  }
}

TEST(CampaignReport, UnknownKeyOrEmptyMetricsFailTheParse) {
  const std::string sweep = "[sweep]\nscenario.vehicles = 10, 20\n";
  for (const char* report :
       {"[report]\nmetrics = final_accuracy\nmetric = uploads\n",
        "[report]\nmetrics = final_accuracy\nscorecards = uploads\n",
        "[report]\nmetrics =\n", "[report]\n",
        "[report]\nscorecard = uploads\n",
        "[report]\nmetrics = final_accuracy,, uploads\n",
        "[report]\nmetrics = final_accuracy\nscorecard =\n"}) {
    EXPECT_NE(from_ini_error(sweep + report).find("[report]"),
              std::string::npos)
        << report;
  }
}

campaign::PointSummary point(std::size_t index,
                             const std::map<std::string, double>& means) {
  campaign::PointSummary summary;
  summary.point_index = index;
  for (const auto& [name, mean] : means) {
    summary.metrics[name].n = 1;
    summary.metrics[name].mean = mean;
  }
  return summary;
}

TEST(CampaignReport, RendersAxisLabelsAndDashesForMissingCells) {
  // 2 zip rows x 3 grid values; point 4 never ran, point 2 lacks
  // final_accuracy. krum_select is the same on every row, so it is not
  // part of the row label.
  campaign::CampaignSpec spec;
  spec.grid = {{"adversary", "fraction", {"0", "0.5", "1"}}};
  spec.zipped = {{"strategy", "aggregation", {"mean", "median"}},
                 {"strategy", "krum_select", {"5", "5"}},
                 {"strategy", "name", {"federated", "gossip"}}};
  spec.report.metrics = {"final_accuracy"};
  spec.report.scorecard = {"final_accuracy", "uploads"};
  const std::vector<campaign::PointSummary> summaries = {
      point(0, {{"final_accuracy", 0.9}, {"uploads", 10}}),
      point(1, {{"final_accuracy", 0.5}, {"uploads", 12}}),
      point(2, {{"uploads", 14}}),
      point(3, {{"final_accuracy", 0.875}, {"uploads", 8}}),
      point(5, {{"final_accuracy", 0.25}, {"uploads", 9.5}}),
  };
  std::ostringstream out;
  campaign::write_report(out, spec, summaries);
  EXPECT_EQ(out.str(),
            "\n"
            "final_accuracy by adversary.fraction (mean over seeds):\n"
            "name/aggregation         0       0.5         1\n"
            "federated/mean    0.900000  0.500000         -\n"
            "gossip/median     0.875000         -  0.250000\n"
            "\n"
            "scorecard at adversary.fraction=1 (mean over seeds):\n"
            "name/aggregation  final_accuracy    uploads\n"
            "federated/mean                 -  14.000000\n"
            "gossip/median           0.250000   9.500000\n");
}

TEST(CampaignReport, NoReportSectionWritesNothing) {
  std::ostringstream out;
  campaign::write_report(out, tiny_spec(), {point(0, {{"final_accuracy", 1}})});
  EXPECT_EQ(out.str(), "");
}

// ---------------------------------------------------------------- store --

TEST(ResultStore, SaveLoadRoundTripIncludingNastyNames) {
  campaign::ResultStore store{temp_dir("roundtrip")};
  campaign::JobRecord record;
  record.hash = "00deadbeef00cafe";
  record.point_index = 3;
  record.seed_index = 1;
  record.seed = 18446744073709551615ULL;  // uint64 max survives
  record.point_label = "vehicles=50, name=opportunistic";
  record.strategy_name = "opportunistic";
  record.wall_seconds = 1.25;
  record.metrics = {
      {"final_accuracy", 0.375},
      {"a,b", 1.0},            // comma must be escaped, not truncated
      {"quo\"ted", 2.5},       // embedded quote
      {"loss, val, test", -3.5},
  };
  store.save(record);

  ASSERT_TRUE(store.contains(record.hash));
  const auto loaded = store.load(record.hash);
  EXPECT_EQ(loaded.hash, record.hash);
  EXPECT_EQ(loaded.point_index, record.point_index);
  EXPECT_EQ(loaded.seed_index, record.seed_index);
  EXPECT_EQ(loaded.seed, record.seed);
  EXPECT_EQ(loaded.point_label, record.point_label);
  EXPECT_EQ(loaded.strategy_name, record.strategy_name);
  EXPECT_DOUBLE_EQ(loaded.wall_seconds, record.wall_seconds);
  ASSERT_EQ(loaded.metrics, record.metrics);
  EXPECT_DOUBLE_EQ(loaded.metric("a,b"), 1.0);
  EXPECT_DOUBLE_EQ(loaded.metric("absent", -1.0), -1.0);
}

TEST(ResultStore, MissingAndCorruptRecordsThrow) {
  campaign::ResultStore store{temp_dir("corrupt")};
  EXPECT_FALSE(store.contains("0123456789abcdef"));
  EXPECT_THROW(store.load("0123456789abcdef"), std::runtime_error);

  // A record whose embedded hash disagrees with its filename is corrupt.
  campaign::JobRecord record;
  record.hash = "aaaaaaaaaaaaaaaa";
  store.save(record);
  const auto good = fs::path{store.dir()} / "aaaaaaaaaaaaaaaa.csv";
  const auto bad = fs::path{store.dir()} / "bbbbbbbbbbbbbbbb.csv";
  fs::copy_file(good, bad);
  EXPECT_THROW(store.load("bbbbbbbbbbbbbbbb"), std::runtime_error);
}

TEST(ResultStore, LoadAllSortsByPointThenSeed) {
  campaign::ResultStore store{temp_dir("loadall")};
  for (const auto& [hash, point, seed_index] :
       {std::tuple{"cccccccccccccccc", 2UL, 0UL},
        std::tuple{"aaaaaaaaaaaaaaaa", 0UL, 1UL},
        std::tuple{"bbbbbbbbbbbbbbbb", 0UL, 0UL}}) {
    campaign::JobRecord record;
    record.hash = hash;
    record.point_index = point;
    record.seed_index = seed_index;
    store.save(record);
  }
  // A half-written record (killed mid-save) and a stray file are not
  // records: load_all skips both.
  std::ofstream{store.dir() / "dddddddddddddddd.csv.tmp"}
      << "field,name,value\nmeta,hash,dddd";
  std::ofstream{store.dir() / "notes.txt"} << "scratch";
  const auto all = store.load_all();
  ASSERT_EQ(all.size(), 3U);
  EXPECT_EQ(all[0].hash, "bbbbbbbbbbbbbbbb");
  EXPECT_EQ(all[1].hash, "aaaaaaaaaaaaaaaa");
  EXPECT_EQ(all[2].hash, "cccccccccccccccc");
}

// --------------------------------------------------------------- engine --

TEST(CampaignEngine, MetricsAreIdenticalAcrossWorkerCounts) {
  const auto spec = tiny_spec();
  campaign::EngineOptions serial;
  serial.workers = 1;
  const auto base = campaign::run_campaign(spec, serial);
  ASSERT_EQ(base.records.size(), 4U);
  EXPECT_EQ(base.executed, 4U);
  EXPECT_EQ(base.resumed, 0U);

  for (std::size_t workers : {2U, 4U}) {
    campaign::EngineOptions parallel;
    parallel.workers = workers;
    const auto run = campaign::run_campaign(spec, parallel);
    ASSERT_EQ(run.records.size(), base.records.size());
    for (std::size_t i = 0; i < run.records.size(); ++i) {
      EXPECT_EQ(run.records[i].hash, base.records[i].hash);
      // Bit-identical metric names AND values, independent of scheduling.
      ASSERT_EQ(run.records[i].metrics, base.records[i].metrics)
          << "job " << i << " with " << workers << " workers";
    }
  }
}

TEST(CampaignEngine, ResumeSkipsCompletedJobsAndFinishesTheRest) {
  const auto spec = tiny_spec();
  const auto jobs = campaign::expand(spec);

  // Simulate a killed campaign: the store already holds ONE finished job,
  // marked with a sentinel metric no real run produces.
  const std::string dir = temp_dir("resume");
  {
    campaign::ResultStore store{dir};
    campaign::JobRecord sentinel;
    sentinel.hash = jobs[1].hash;
    sentinel.point_index = jobs[1].point_index;
    sentinel.seed_index = jobs[1].seed_index;
    sentinel.seed = jobs[1].seed;
    sentinel.metrics = {{"sentinel", 42.0}};
    store.save(sentinel);
  }

  campaign::EngineOptions options;
  options.workers = 2;
  options.store_dir = dir;
  std::size_t progress_calls = 0;
  campaign::Progress last{};
  options.on_progress = [&](const campaign::Progress& p) {
    ++progress_calls;
    last = p;
  };
  const auto result = campaign::run_campaign(spec, options);

  EXPECT_EQ(result.resumed, 1U);
  EXPECT_EQ(result.executed, jobs.size() - 1);
  // The finished job was NOT re-run: its sentinel record survived.
  EXPECT_DOUBLE_EQ(result.records[1].metric("sentinel"), 42.0);
  EXPECT_EQ(progress_calls, jobs.size() - 1);
  EXPECT_EQ(last.total, jobs.size());
  EXPECT_EQ(last.resumed, 1U);
  EXPECT_EQ(last.completed, jobs.size() - 1);

  // Second invocation: everything resumes, nothing executes, records match.
  const auto again = campaign::run_campaign(spec, options);
  EXPECT_EQ(again.resumed, jobs.size());
  EXPECT_EQ(again.executed, 0U);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(again.records[i].metrics, result.records[i].metrics);
  }
}

TEST(CampaignEngine, RecordsCarryTheExpectedMetricFamilies) {
  auto spec = tiny_spec();
  spec.grid.clear();
  spec.seeds_per_point = 1;
  const auto result = campaign::run_campaign(spec, {});
  ASSERT_EQ(result.records.size(), 1U);
  const auto& record = result.records[0];
  EXPECT_EQ(record.strategy_name, "federated");
  EXPECT_GT(record.metric("rounds_completed"), 0.0);
  EXPECT_GT(record.metric("sim_end_time_s"), 0.0);
  EXPECT_GT(record.metric("accuracy:final", -1.0), -1.0);
  EXPECT_GT(record.metric("accuracy:mean", -1.0), -1.0);
  EXPECT_GT(record.metric("accuracy:timeavg", -1.0), -1.0);
  EXPECT_GE(record.metric("accuracy:max", -1.0),
            record.metric("accuracy:final"));
  EXPECT_GT(record.metric("v2c_bytes_delivered"), 0.0);
  // An iid split of 20 samples over 10 classes is still uneven.
  EXPECT_GT(record.metric("partition_skewness", -1.0), 0.0);
  EXPECT_LT(record.metric("partition_skewness", 2.0), 1.0);
  EXPECT_GT(record.metric("model_bytes"), 0.0);
  EXPECT_GE(record.wall_seconds, 0.0);
}

TEST(CampaignEngine, ResumedJobRecordsTheSameScenarioMetrics) {
  auto spec = tiny_spec();
  spec.grid.clear();
  spec.seeds_per_point = 1;
  const campaign::Job job = campaign::expand(spec).front();
  const campaign::JobRecord plain = campaign::run_job(job);

  // The last autosave stays on disk, so the second call resumes mid-run.
  const std::string ckpt = temp_dir("resumed_job") + ".rrck";
  std::filesystem::remove(ckpt);
  (void)campaign::run_job(job, ckpt, 20.0);
  ASSERT_TRUE(std::filesystem::exists(ckpt));
  const campaign::JobRecord resumed = campaign::run_job(job, ckpt, 20.0);
  std::filesystem::remove(ckpt);

  for (const char* name :
       {"partition_skewness", "model_bytes", "accuracy:max"}) {
    EXPECT_EQ(resumed.metric(name, -1.0), plain.metric(name, -2.0)) << name;
  }
  EXPECT_EQ(resumed.metrics, plain.metrics);
}

// ---------------------------------------------------------- aggregation --

TEST(Aggregate, StatsMatchHandComputedValues) {
  const auto stats = campaign::compute_stats({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(stats.n, 4U);
  EXPECT_DOUBLE_EQ(stats.mean, 2.5);
  EXPECT_NEAR(stats.stddev, 1.2909944487, 1e-9);
  // t(df=3, 95%) = 3.182; CI half-width = t * s / sqrt(n).
  EXPECT_NEAR(stats.ci95_half, 3.182 * 1.2909944487 / 2.0, 1e-6);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 4.0);

  const auto single = campaign::compute_stats({5.0});
  EXPECT_EQ(single.n, 1U);
  EXPECT_DOUBLE_EQ(single.mean, 5.0);
  EXPECT_DOUBLE_EQ(single.stddev, 0.0);
  EXPECT_DOUBLE_EQ(single.ci95_half, 0.0);

  EXPECT_EQ(campaign::compute_stats({}).n, 0U);
}

TEST(Aggregate, SummarizeGroupsByPointOverSeeds) {
  std::vector<campaign::JobRecord> records;
  for (std::size_t point = 0; point < 2; ++point) {
    for (std::size_t s = 0; s < 3; ++s) {
      campaign::JobRecord record;
      record.point_index = point;
      record.seed_index = s;
      record.point_label = "p";
      record.point_label += std::to_string(point);  // GCC 12's -Wrestrict
      record.strategy_name = "federated";
      record.metrics = {{"final_accuracy",
                         0.1 * static_cast<double>(point + 1) +
                             0.01 * static_cast<double>(s)}};
      records.push_back(std::move(record));
    }
  }
  const auto summaries = campaign::summarize(records);
  ASSERT_EQ(summaries.size(), 2U);
  EXPECT_EQ(summaries[0].label, "p0");
  EXPECT_EQ(summaries[0].metrics.at("final_accuracy").n, 3U);
  EXPECT_NEAR(summaries[0].metrics.at("final_accuracy").mean, 0.11, 1e-12);
  EXPECT_NEAR(summaries[1].metrics.at("final_accuracy").mean, 0.21, 1e-12);
}

TEST(Aggregate, SparseCounterCountsAsZeroWhereUnrecorded) {
  // Five replicates of one point; only two incremented the counter and
  // only two had points in the series behind `queue:max`.
  std::vector<campaign::JobRecord> records(5);
  for (std::size_t s = 0; s < records.size(); ++s) {
    records[s].seed_index = s;
    records[s].metrics = {{"final_accuracy", 0.5}};
  }
  records[1].metrics.emplace_back("trainings_discarded", 1.0);
  records[3].metrics.emplace_back("trainings_discarded", 1.0);
  records[0].metrics.emplace_back("queue:max", 2.0);
  records[4].metrics.emplace_back("queue:max", 4.0);

  const auto summaries = campaign::summarize(records);
  ASSERT_EQ(summaries.size(), 1U);
  const auto& counter = summaries[0].metrics.at("trainings_discarded");
  EXPECT_EQ(counter.n, 5U);
  EXPECT_DOUBLE_EQ(counter.mean, 0.4);
  EXPECT_DOUBLE_EQ(counter.min, 0.0);
  const auto& digest = summaries[0].metrics.at("queue:max");
  EXPECT_EQ(digest.n, 2U);
  EXPECT_DOUBLE_EQ(digest.mean, 3.0);
  EXPECT_EQ(summaries[0].metrics.at("final_accuracy").n, 5U);

  // No replicate of a point recorded it: the metric stays absent there.
  campaign::JobRecord other;
  other.point_index = 1;
  other.metrics = {{"final_accuracy", 0.25}};
  records.push_back(other);
  const auto two = campaign::summarize(records);
  ASSERT_EQ(two.size(), 2U);
  EXPECT_EQ(two[1].metrics.count("trainings_discarded"), 0U);
}

TEST(Aggregate, SeriesDigestsAreToldByTheirSuffix) {
  for (const char* name :
       {"accuracy:final", "accuracy:mean", "purity:timeavg", "queue:max"}) {
    EXPECT_TRUE(campaign::is_series_digest(name)) << name;
  }
  for (const char* name : {"final_accuracy", "max", ":max", "a:maximum",
                           "sim_end_time_s", "v2c_bytes_delivered"}) {
    EXPECT_FALSE(campaign::is_series_digest(name)) << name;
  }
}

TEST(Aggregate, CsvEscapesLabelsAndMetricNames) {
  std::vector<campaign::JobRecord> records(1);
  records[0].point_label = "a=1, b=2";
  records[0].strategy_name = "federated";
  records[0].metrics = {{"odd,name", 1.5}};
  std::ostringstream out;
  campaign::write_aggregate_csv(out, campaign::summarize(records));
  std::istringstream in{out.str()};
  const auto rows = util::read_csv(in);
  ASSERT_EQ(rows.size(), 2U);
  ASSERT_EQ(rows[1].size(), 10U);
  EXPECT_EQ(rows[1][1], "a=1, b=2");
  EXPECT_EQ(rows[1][3], "odd,name");
}

}  // namespace
}  // namespace roadrunner

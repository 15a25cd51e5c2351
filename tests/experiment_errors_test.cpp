// Error-path coverage for the INI -> experiment pipeline and for the
// CSV-safety guarantees underneath it: strict numeric parsing that names
// the offending `section.key`, rejection of unknown keys, negative counts
// and unknown strategy/selection/optimizer names, every committed INI
// parsing, and metrics::Registry name validation (commas survive export via
// RFC-4180 quoting; newlines are rejected at the source because the CSV
// readers are line-oriented), and the campaign CLI's refusal of flag
// combinations that would silently do nothing.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "campaign/spec.hpp"
#include "fault/fault_plan.hpp"
#include "metrics/registry.hpp"
#include "scenario/experiment.hpp"
#include "traffic/traffic_plan.hpp"
#include "util/csv.hpp"
#include "util/ini.hpp"

namespace roadrunner {
namespace {

/// EXPECT_THROW plus a substring check on the exception message.
template <typename Fn>
void expect_throw_containing(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected an exception mentioning '" << needle << "'";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string{e.what()}.find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

// ------------------------------------------------------- strict numerics --

TEST(IniStrictNumerics, MalformedIntegerNamesSectionAndKey) {
  const auto ini = util::IniFile::parse("[scenario]\nvehicles = abc\n");
  expect_throw_containing(
      [&] { (void)ini.get_int("scenario", "vehicles", 1); },
      "scenario.vehicles");
}

TEST(IniStrictNumerics, TrailingGarbageIsAnErrorNotATruncation) {
  const auto ini = util::IniFile::parse("[strategy]\nrounds = 12abc\n");
  EXPECT_THROW((void)ini.get_int("strategy", "rounds", 1),
               std::runtime_error);
  const auto bad_double =
      util::IniFile::parse("[city]\nduration_s = 3.5x\n");
  expect_throw_containing(
      [&] { (void)bad_double.get_double("city", "duration_s", 0.0); },
      "city.duration_s");
}

TEST(IniStrictNumerics, AbsentKeysStillFallBack) {
  const util::IniFile ini;
  EXPECT_EQ(ini.get_int("a", "b", 7), 7);
  EXPECT_DOUBLE_EQ(ini.get_double("a", "b", 2.5), 2.5);
  EXPECT_EQ(ini.get_uint64("a", "b", 9U), 9U);
}

TEST(IniStrictNumerics, Uint64CoversTheFullSeedRange) {
  // Derived campaign seeds routinely exceed int64; get_uint64 must accept
  // the full range and reject negatives rather than wrapping.
  const auto ini = util::IniFile::parse(
      "[scenario]\nseed = 18446744073709551615\nbad = -3\n");
  EXPECT_EQ(ini.get_uint64("scenario", "seed", 0),
            18446744073709551615ULL);
  expect_throw_containing(
      [&] { (void)ini.get_uint64("scenario", "bad", 0); }, "scenario.bad");
}

// ------------------------------------------------ experiment error paths --

TEST(ExperimentErrors, UnknownStrategyNameThrows) {
  const auto ini =
      util::IniFile::parse("[strategy]\nname = federated_quantum\n");
  expect_throw_containing(
      [&] { (void)scenario::strategy_from_ini(ini); }, "federated_quantum");
}

TEST(ExperimentErrors, UnknownSelectionThrows) {
  // Only `random` and `round_robin` exist; a misspelt value used to run
  // random selection silently.
  const auto ini =
      util::IniFile::parse("[strategy]\nselection = roundrobin\n");
  expect_throw_containing([&] { (void)scenario::strategy_from_ini(ini); },
                          "experiment: unknown selection 'roundrobin'");
  for (const char* valid : {"random", "round_robin"}) {
    const auto ok = util::IniFile::parse(
        std::string{"[strategy]\nselection = "} + valid + "\n");
    EXPECT_NO_THROW((void)scenario::strategy_from_ini(ok)) << valid;
  }
}

TEST(ExperimentErrors, UnknownOptimizerThrows) {
  const auto ini = util::IniFile::parse("[train]\noptimizer = adamax\n");
  expect_throw_containing([&] { (void)scenario::scenario_from_ini(ini); },
                          "adamax");
}

TEST(ExperimentErrors, MalformedScenarioNumericNamesTheKey) {
  const auto ini =
      util::IniFile::parse("[scenario]\nvehicles = twelve\n");
  expect_throw_containing(
      [&] { (void)scenario::scenario_from_ini(ini); },
      "scenario.vehicles");
}

TEST(ExperimentErrors, MalformedDataNumericNamesTheKey) {
  const auto ini = util::IniFile::parse("[data]\ntrain_pool = 10e\n");
  expect_throw_containing(
      [&] { (void)scenario::scenario_from_ini(ini); }, "data.train_pool");
}

TEST(ExperimentErrors, UnknownDatasetSurfacesFromScenarioBuild) {
  auto ini = util::IniFile::parse(
      "[scenario]\nvehicles = 4\n[data]\ndataset = imagenet\n");
  expect_throw_containing([&] { (void)scenario::run_experiment(ini); },
                          "imagenet");
}

TEST(ExperimentErrors, DeadAreaFractionOutsideTheUnitIntervalThrows) {
  for (const char* value : {"-0.1", "1.5", "nan"}) {
    const auto ini = util::IniFile::parse(
        std::string{"[network]\ndead_area_fraction = "} + value + "\n");
    expect_throw_containing([&] { (void)scenario::scenario_from_ini(ini); },
                            "network.dead_area_fraction");
  }
  const auto ok =
      util::IniFile::parse("[network]\ndead_area_fraction = 0.25\n");
  EXPECT_DOUBLE_EQ(scenario::scenario_from_ini(ok).dead_area_fraction, 0.25);
}

TEST(ExperimentErrors, NegativeImageGainJitterThrows) {
  const auto ini =
      util::IniFile::parse("[data]\nimage_gain_jitter = -0.05\n");
  expect_throw_containing([&] { (void)scenario::scenario_from_ini(ini); },
                          "data.image_gain_jitter");
  const auto ok = util::IniFile::parse("[data]\nimage_gain_jitter = 0.45\n");
  EXPECT_DOUBLE_EQ(scenario::scenario_from_ini(ok).image_config.gain_jitter,
                   0.45);
}

// ------------------------------------------------- registry name safety --

// ------------------------------------------------------------ key checks --

/// `text` through the parser that owns `section`: campaign_from_ini for
/// [campaign], strategy_from_ini for [strategy], scenario_from_ini else.
void parse_owner(const std::string& section, const std::string& text) {
  const auto ini = util::IniFile::parse(text);
  if (section == "campaign") {
    (void)campaign::campaign_from_ini(ini);
  } else if (section == "strategy") {
    (void)scenario::strategy_from_ini(ini);
  } else {
    (void)scenario::scenario_from_ini(ini);
  }
}

TEST(IniKeys, UnknownKeyInEachCoreSectionNamesSectionAndKey) {
  for (const char* section : {"scenario", "city", "data", "train", "network",
                              "workload", "strategy", "campaign"}) {
    SCOPED_TRACE(section);
    const std::string name = section;
    EXPECT_THROW(parse_owner(name, "[" + name + "]\nvehicels = 10\n"),
                 std::runtime_error);
    expect_throw_containing(
        [&] { parse_owner(name, "[" + name + "]\nvehicels = 10\n"); },
        "[" + name + "]: unknown key 'vehicels'");
  }
}

TEST(IniKeys, StrategyAcceptsEveryStrategysKeysOnAnyStrategy) {
  // A campaign zip sets a column on every row, also on rows whose
  // strategy ignores it (examples/drift.ini: aggregate_at_rsu on gossip).
  const auto ini = util::IniFile::parse(R"([strategy]
name = gossip
aggregate_at_rsu = true
round_duration_s = 30
clusters = 3
server_epochs = 2
)");
  EXPECT_EQ(scenario::strategy_from_ini(ini)->name(), "gossip");
}

TEST(IniKeys, CheckKeysPassesAbsentSectionsAndAllowedKeys) {
  const auto ini = util::IniFile::parse("[a]\nx = 1\ny = 2\n");
  EXPECT_NO_THROW(ini.check_keys("a", {"x", "y", "z"}));
  EXPECT_NO_THROW(ini.check_keys("missing", {}));
  expect_throw_containing([&] { ini.check_keys("a", {"x"}); },
                          "[a]: unknown key 'y'");
}

TEST(IniNumbered, ReturnsSectionsInNumericOrder) {
  std::string text;
  for (int n = 11; n >= 0; --n) {
    text += "[t." + std::to_string(n) + "]\nk = 1\n";
  }
  const auto ini =
      util::IniFile::parse(text + "[t]\nk = 1\n[tt.0]\nk = 1\n");
  const std::vector<std::string> sections = ini.numbered("t");
  ASSERT_EQ(sections.size(), 12U);
  for (std::size_t n = 0; n < sections.size(); ++n) {
    EXPECT_EQ(sections[n], "t." + std::to_string(n));
  }
  EXPECT_TRUE(ini.numbered("absent").empty());
}

TEST(IniNumbered, GapsAndBadSuffixesNameTheSection) {
  const auto gap = util::IniFile::parse("[t.0]\nk=1\n[t.2]\nk=1\n");
  expect_throw_containing([&] { (void)gap.numbered("t"); },
                          "[t.2]: breaks the contiguous");
  expect_throw_containing(
      [] { (void)util::IniFile::parse("[t.1]\nk=1\n").numbered("t"); },
      "[t.0] is missing");
  for (const std::string bad : {"t.x", "t.01", "t.", "t.1a", "t.+1", "t.0.1"}) {
    util::IniFile ini;
    ini.set("t.0", "k", "1");
    ini.set(bad, "k", "1");
    expect_throw_containing([&] { (void)ini.numbered("t"); },
                            "[" + bad + "]: bad section name");
  }
}

TEST(IniSectionKey, SplitsAtTheFirstDot) {
  EXPECT_EQ(util::split_section_key("network.v2c_loss", "test"),
            (std::pair<std::string, std::string>{"network", "v2c_loss"}));
  EXPECT_EQ(util::split_section_key("drift.0.kind", "test").second, "0.kind");
  for (const char* bad : {"vehicles", ".vehicles", "scenario.", ""}) {
    expect_throw_containing(
        [&] { (void)util::split_section_key(bad, "test"); },
        "test key '" + std::string{bad} + "' must have the form section.key");
  }
}

// --------------------------------------------------------- negative sizes --

TEST(IniSizes, NegativeCountsNameSectionAndKey) {
  const auto ini = util::IniFile::parse("[a]\nn = -1\nm = 7\n");
  expect_throw_containing([&] { (void)ini.get_size("a", "n", 3); }, "a.n");
  EXPECT_EQ(ini.get_size("a", "m", 3), 7U);
  EXPECT_EQ(ini.get_size("a", "absent", 3), 3U);
}

TEST(IniSizes, NegativeBatchIsRejected) {
  expect_throw_containing(
      [] {
        (void)scenario::scenario_from_ini(
            util::IniFile::parse("[train]\nbatch = -16\n"));
      },
      "train.batch");
}

TEST(IniSizes, NegativeVehicleCountIsRejected) {
  expect_throw_containing(
      [] {
        (void)scenario::scenario_from_ini(
            util::IniFile::parse("[scenario]\nvehicles = -1\n"));
      },
      "scenario.vehicles");
}

TEST(IniSizes, NegativeFaultVehicleIsRejected) {
  for (const char* kind : {"hu_straggler", "vehicle_crash"}) {
    expect_throw_containing(
        [&] {
          (void)fault::plan_from_ini(util::IniFile::parse(
              "[fault.0]\nkind = " + std::string{kind} + "\nvehicle = -1\n"));
        },
        "fault.0.vehicle");
  }
}

TEST(IniSizes, NegativePlatoonCountIsRejected) {
  expect_throw_containing(
      [] {
        (void)traffic::plan_from_ini(
            util::IniFile::parse("[platoon]\ncount = -1\n"));
      },
      "platoon.count");
}

// ------------------------------------------------------- committed INIs --

/// Every committed INI, read the way its program reads it: campaign INIs
/// (a [campaign] or [sweep] section) through campaign_from_ini, the rest
/// through scenario_from_ini and strategy_from_ini. The benchmark's own
/// [ledger*] sections are dropped first, as ledger/workload.cpp does, and
/// its `idle` strategy is its own too. The benchmark's INIs cannot change
/// with the program, so this is what keeps them loading.
TEST(CommittedInis, EveryOneParses) {
  namespace fs = std::filesystem;
  const fs::path root{RR_SOURCE_DIR};
  std::size_t parsed = 0;
  for (const char* dir : {"examples", "examples/paper", "tests/smoke",
                          "tests/data", "ledger/workloads"}) {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(root / dir)) {
      if (entry.path().extension() == ".ini") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    for (const fs::path& path : files) {
      SCOPED_TRACE(path.string());
      const util::IniFile file = util::IniFile::load(path.string());
      util::IniFile ini;
      bool is_campaign = false;
      for (const std::string& section : file.sections()) {
        if (section == "ledger" || section.starts_with("ledger.")) continue;
        is_campaign |= section == "campaign" || section.starts_with("sweep");
        for (const std::string& key : file.keys(section)) {
          ini.set(section, key, file.get(section, key));
        }
      }
      try {
        if (is_campaign) {
          (void)campaign::campaign_from_ini(ini);
        } else {
          (void)scenario::scenario_from_ini(ini);
          if (ini.get("strategy", "name", "") != "idle") {
            (void)scenario::strategy_from_ini(ini);
          }
        }
      } catch (const std::exception& e) {
        ADD_FAILURE() << e.what();
      }
      ++parsed;
    }
  }
  EXPECT_GE(parsed, 29U);
}

TEST(CommittedInis, TypoedSweepAxisFailsTheCampaignParse) {
  // tests/smoke/campaign.ini with a second axis misspelling
  // strategy.rounds: unchecked, both of its points run on the default.
  auto ini = util::IniFile::load(std::string{RR_SOURCE_DIR} +
                                 "/tests/smoke/campaign.ini");
  ini.set("sweep", "strategy.round", "1, 2");
  expect_throw_containing([&] { (void)campaign::campaign_from_ini(ini); },
                          "[strategy]: unknown key 'round'");
}

TEST(CommittedInis, DriftZipParsesWithColumnsSomeRowsIgnore) {
  const auto spec = campaign::campaign_from_ini(util::IniFile::load(
      std::string{RR_SOURCE_DIR} + "/examples/drift.ini"));
  bool sets_rsu_column = false;
  for (const auto& axis : spec.zipped) {
    sets_rsu_column |= axis.key == "aggregate_at_rsu";
  }
  EXPECT_TRUE(sets_rsu_column);
}

TEST(RegistryNames, NewlineAndEmptyNamesAreRejected) {
  metrics::Registry registry;
  EXPECT_THROW(registry.add_point("acc\nuracy", 0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(registry.add_point("acc\ruracy", 0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(registry.add_point("", 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(registry.increment("count\ner"), std::invalid_argument);
  EXPECT_THROW(registry.set_counter("", 3.0), std::invalid_argument);
  // Nothing leaked into the registry from the rejected calls.
  EXPECT_TRUE(registry.series_names().empty());
  EXPECT_TRUE(registry.counter_names().empty());
}

TEST(RegistryNames, CommaAndQuoteNamesRoundTripThroughExportCsv) {
  metrics::Registry registry;
  registry.add_point("loss, validation", 1.0, 0.5);
  registry.increment("odd \"quoted\" counter", 2.0);

  std::ostringstream out;
  registry.export_csv(out);
  std::istringstream in{out.str()};
  const auto rows = util::read_csv(in);

  ASSERT_EQ(rows.size(), 3U);  // header + 1 series point + 1 counter
  EXPECT_EQ(rows[0],
            (std::vector<std::string>{"kind", "name", "time_s", "value"}));
  EXPECT_EQ(rows[1][0], "series");
  EXPECT_EQ(rows[1][1], "loss, validation");  // comma intact, not sheared
  EXPECT_EQ(rows[2][0], "counter");
  EXPECT_EQ(rows[2][1], "odd \"quoted\" counter");
}

// ----------------------------------------------------------- campaign CLI --

/// Runs roadrunner_campaign with `flags` on the smoke campaign; returns its
/// exit status and its stdout and stderr together.
std::pair<int, std::string> run_campaign_cli(const std::string& flags) {
  const std::string command = std::string{RR_CAMPAIGN_EXE} + " " +
                              RR_SOURCE_DIR "/tests/smoke/campaign.ini " +
                              flags + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return {-1, "popen failed"};
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  const int status = pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

TEST(CampaignCli, FreshAutosavesWithoutACheckpointDirAreAUsageError) {
  // --fresh keeps no store, and job snapshots live under the store, so
  // these autosaves would go nowhere; the CLI says so before any job runs.
  const auto [status, out] =
      run_campaign_cli("--fresh --checkpoint-every=50 --dry-run");
  EXPECT_NE(status, 0) << out;
  EXPECT_NE(out.find("--checkpoint-every"), std::string::npos) << out;
  EXPECT_NE(out.find("--checkpoint-dir"), std::string::npos) << out;
}

TEST(CampaignCli, FreshAutosavesWithACheckpointDirAreAccepted) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "rr_fresh_ckpt_cli").string();
  const auto [status, out] = run_campaign_cli(
      "--fresh --checkpoint-every=50 --checkpoint-dir=" + dir + " --dry-run");
  EXPECT_EQ(status, 0) << out;
  const auto [plain, plain_out] = run_campaign_cli("--fresh --dry-run");
  EXPECT_EQ(plain, 0) << plain_out;
}

TEST(CampaignCli, FreshAutosavesOnACoordinatorAreAccepted) {
  // A coordinator sends the period to its workers, which write the
  // snapshots into their own stores; it needs no --checkpoint-dir.
  const auto [status, out] = run_campaign_cli(
      "--serve=127.0.0.1:0 --fresh --checkpoint-every=50 --dry-run");
  EXPECT_EQ(status, 0) << out;
}

}  // namespace
}  // namespace roadrunner

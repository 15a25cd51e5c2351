// Error-path coverage for the INI -> experiment pipeline and for the
// CSV-safety guarantees underneath it: strict numeric parsing that names
// the offending `section.key`, rejection of unknown strategy/optimizer
// names, and metrics::Registry name validation (commas survive export via
// RFC-4180 quoting; newlines are rejected at the source because the CSV
// readers are line-oriented).
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "metrics/registry.hpp"
#include "scenario/experiment.hpp"
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

}  // namespace
}  // namespace roadrunner

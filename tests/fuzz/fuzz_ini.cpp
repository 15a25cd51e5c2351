// Fuzz target: the INI parser and everything downstream that consumes
// analyst-written configuration. Contract under test: IniFile::parse and
// the typed getters throw std::runtime_error on malformed input, the
// experiment parsers and planners throw std::runtime_error or std::invalid_argument on bad
// config, and *accepted* text round-trips stably through to_string().
// Anything else — another exception type, a crash, UB — is a finding.

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "adversary/adversary_plan.hpp"
#include "campaign/spec.hpp"
#include "fault/fault_plan.hpp"
#include "scenario/experiment.hpp"
#include "traffic/traffic_plan.hpp"
#include "util/ini.hpp"
#include "workload/drift_plan.hpp"

#include "fuzz_main.hpp"

namespace {

template <typename Fn>
void expect_clean_rejection(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error&) {
    // Documented rejection path.
  } catch (const std::invalid_argument&) {
    // Documented rejection path (campaign / plan validation).
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);

  roadrunner::util::IniFile ini;
  try {
    ini = roadrunner::util::IniFile::parse(text);
  } catch (const std::runtime_error&) {
    return 0;  // clean rejection with a line number
  }

  // Accepted input must round-trip: parse(to_string()) re-emits the same
  // text (sections and keys sorted) — this is what lets checkpoints embed
  // their own rebuild recipe.
  const std::string once = ini.to_string();
  const std::string twice = roadrunner::util::IniFile::parse(once).to_string();
  if (once != twice) std::abort();

  // Typed getters must reject malformed values without leaking stoi/stod
  // exceptions.
  for (const std::string& section : ini.sections()) {
    for (const std::string& key : ini.keys(section)) {
      expect_clean_rejection([&] { (void)ini.get_int(section, key, 0); });
      expect_clean_rejection([&] { (void)ini.get_uint64(section, key, 0); });
      expect_clean_rejection([&] { (void)ini.get_double(section, key, 0.0); });
      expect_clean_rejection([&] { (void)ini.get_bool(section, key, false); });
    }
  }

  // Chain into every parser that consumes experiment INI directly.
  expect_clean_rejection(
      [&] { (void)roadrunner::scenario::scenario_from_ini(ini); });
  expect_clean_rejection(
      [&] { (void)roadrunner::scenario::strategy_from_ini(ini); });
  expect_clean_rejection([&] { (void)roadrunner::fault::plan_from_ini(ini); });
  expect_clean_rejection(
      [&] { (void)roadrunner::adversary::plan_from_ini(ini); });
  expect_clean_rejection(
      [&] { (void)roadrunner::traffic::plan_from_ini(ini); });
  expect_clean_rejection(
      [&] { (void)roadrunner::workload::plan_from_ini(ini); });
  expect_clean_rejection(
      [&] { (void)roadrunner::campaign::campaign_from_ini(ini); });
  return 0;
}

// Ledger workloads: each is a data-only INI file under ledger/workloads/.
// A `kind = scenario` file is an ordinary experiment INI (what
// scenario_from_ini and strategy_from_ini read) and a `kind = campaign` file
// an ordinary campaign INI (campaign_from_ini); the ledger's own sections
// ride alongside and are stripped before the program sees the file:
//
//   [ledger]            kind, campaign workers/autosave period, the
//                       representative job's strategy, the scaling sweep
//   [ledger.expect]     values pinned for the file's own seed at full size
//   [ledger.smoke]      section.key = value overrides for --smoke
//
// `[strategy] name = idle` selects the bench's no-op strategy, so the
// mobility workloads run the simulator with no learning at all.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "scenario/scenario.hpp"
#include "strategy/learning_strategy.hpp"
#include "util/ini.hpp"

namespace ledger {

namespace rr = roadrunner;

enum class Kind { kScenario, kCampaign };

struct Workload {
  Kind kind = Kind::kScenario;
  /// The program's input: experiment INI (scenario) or campaign INI, with
  /// the seed and any smoke overrides applied.
  rr::util::IniFile input;
  /// The [ledger] and [ledger.expect] sections.
  rr::util::IniFile ledger;
  std::uint64_t seed = 0;
  /// True at the file's own seed and full size: [ledger.expect] applies.
  bool pinned = false;
  /// FNV-1a hash of the whole workload file as parsed (run manifest).
  std::string file_hash;

  [[nodiscard]] std::size_t workers() const;
  [[nodiscard]] double checkpoint_every_s() const;
};

/// Reads `<dir>/<name>.ini`. `seed` replaces the file's seed when given;
/// `smoke` applies [ledger.smoke]. Throws on a missing or malformed file.
Workload load_workload(const std::string& dir, const std::string& name,
                       const std::string& seed, bool smoke);

/// Builds the strategy an experiment INI names (including `idle`).
std::shared_ptr<rr::strategy::LearningStrategy> make_strategy(
    const rr::util::IniFile& experiment);

/// What one run produced. A campaign run sums over its jobs.
struct RunStats {
  double wall_s = 0.0;
  double sim_s = 0.0;
  double vehicle_ticks = 0.0;
  std::size_t jobs = 1;
  /// Simulated statistics that do not depend on training arithmetic, under
  /// the names [ledger.expect] uses, plus `final_accuracy`.
  std::map<std::string, double> stats;
  /// The metrics CSV of each job (campaign: its result-store record without
  /// the wall time). Must be byte-identical across repetitions.
  std::vector<std::string> outputs;
};

/// One run of a scenario workload on a fresh simulator over `scenario`.
RunStats run_scenario(const rr::scenario::Scenario& scenario,
                      const rr::util::IniFile& experiment);

/// The start of a run of a scenario workload, stopped after about `wall_s`
/// host seconds: a warm-up whose outputs are not checked.
void warm_up(const rr::scenario::Scenario& scenario,
             const rr::util::IniFile& experiment, double wall_s);

/// The RunStats of a simulator over `scenario` that has finished run().
RunStats scenario_stats(const rr::scenario::Scenario& scenario,
                        const rr::core::Simulator& sim,
                        const rr::core::Simulator::RunReport& report,
                        double wall_s);

/// One run of a campaign workload into an empty result store at `store_dir`.
RunStats run_campaign(const Workload& workload,
                      const rr::campaign::CampaignSpec& spec,
                      const std::string& store_dir);

/// Pinned-value mismatches of `stats` against [ledger.expect], one
/// human-readable line each; empty when everything matches.
std::vector<std::string> check_pins(const Workload& workload,
                                    const RunStats& stats);

}  // namespace ledger

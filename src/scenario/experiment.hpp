// Config-file-driven experiments: maps an INI description to a Scenario and
// a LearningStrategy, so analysts iterate on learning strategies by editing
// text files (paper Req. 5) and regenerate metrics CSVs without
// recompiling. Used by the `roadrunner_run` tool; see
// examples/experiment.ini for a complete annotated file.
#pragma once

#include <memory>

#include "scenario/scenario.hpp"
#include "util/ini.hpp"

namespace roadrunner::scenario {

/// Builds a ScenarioConfig from the [scenario], [city], [data], [train],
/// [network] and [workload] sections and the plan sections (all keys
/// optional; defaults as in the structs). Throws std::runtime_error naming
/// the section on an unknown key, and std::runtime_error /
/// std::invalid_argument on unknown values.
ScenarioConfig scenario_from_ini(const util::IniFile& ini);

/// Builds a LearningStrategy from the [strategy] section. `name` selects
/// among: centralized, federated, opportunistic, gossip, rsu_assisted,
/// federated_clustering; remaining keys parameterize it. Any strategy's
/// key is accepted whichever `name` selects; any other key throws.
std::shared_ptr<strategy::LearningStrategy> strategy_from_ini(
    const util::IniFile& ini);

/// Full experiment: build scenario + strategy from `ini`, run, and return
/// the result.
RunResult run_experiment(const util::IniFile& ini);

}  // namespace roadrunner::scenario

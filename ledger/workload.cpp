#include "workload.hpp"

#include <cmath>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "campaign/engine.hpp"
#include "campaign/store.hpp"
#include "scenario/experiment.hpp"
#include "util/csv.hpp"
#include "util/stopwatch.hpp"

namespace ledger {

namespace {

using rr::util::IniFile;

/// Runs the simulator with no learning on top: mobility, encounter diffs
/// and the event queue are all that execute.
struct IdleStrategy final : rr::strategy::LearningStrategy {
  [[nodiscard]] std::string name() const override { return "idle"; }
};

/// Result-store names of the channels (campaign::run_job's prefixes).
constexpr const char* kChannelNames[] = {"v2c", "v2x", "wired"};
static_assert(std::size(kChannelNames) == rr::comm::kChannelKindCount);

bool is_ledger_section(const std::string& section) {
  return section == "ledger" || section.rfind("ledger.", 0) == 0;
}

std::uint64_t parse_seed(const std::string& text) {
  std::size_t end = 0;
  std::uint64_t seed = 0;
  try {
    seed = std::stoull(text, &end);
  } catch (const std::exception&) {
    end = 0;
  }
  if (end == 0 || end != text.size() || text.front() == '-') {
    throw std::invalid_argument{"bad --seed '" + text + "'"};
  }
  return seed;
}

double vehicle_ticks(const rr::scenario::ScenarioConfig& config,
                     double sim_end_s) {
  return static_cast<double>(config.vehicles) *
         std::floor(sim_end_s / config.mobility_tick_s);
}

}  // namespace

std::size_t Workload::workers() const {
  return static_cast<std::size_t>(ledger.get_int("ledger", "workers", 1));
}

double Workload::checkpoint_every_s() const {
  return ledger.get_double("ledger", "checkpoint_every_s", 0.0);
}

Workload load_workload(const std::string& dir, const std::string& name,
                       const std::string& seed, bool smoke) {
  // The name becomes a path component, so it may not climb out of `dir`.
  if (name.empty() ||
      name.find_first_not_of("abcdefghijklmnopqrstuvwxyz0123456789_") !=
          std::string::npos) {
    throw std::invalid_argument{"bad workload name '" + name + "'"};
  }
  const std::string path = dir + "/" + name + ".ini";
  if (!std::filesystem::is_regular_file(path)) {
    throw std::invalid_argument{"unknown workload '" + name + "' (no " +
                                path + ")"};
  }
  const IniFile file = IniFile::load(path);

  Workload w;
  w.file_hash = rr::campaign::job_hash(file);
  for (const std::string& section : file.sections()) {
    if (section == "ledger.smoke") continue;
    IniFile& target = is_ledger_section(section) ? w.ledger : w.input;
    for (const std::string& key : file.keys(section)) {
      target.set(section, key, file.get(section, key));
    }
  }

  const std::string kind = w.ledger.get("ledger", "kind", "scenario");
  if (kind == "campaign") {
    w.kind = Kind::kCampaign;
  } else if (kind != "scenario") {
    throw std::invalid_argument{path + ": unknown ledger.kind '" + kind +
                                "'"};
  }
  const char* seed_section = w.kind == Kind::kCampaign ? "campaign"
                                                       : "scenario";
  const char* seed_key = w.kind == Kind::kCampaign ? "base_seed" : "seed";
  const std::uint64_t own_seed = w.input.get_uint64(seed_section, seed_key, 1);
  w.seed = seed.empty() ? own_seed : parse_seed(seed);
  w.input.set(seed_section, seed_key, std::to_string(w.seed));

  if (smoke) {
    for (const std::string& key : file.keys("ledger.smoke")) {
      const auto dot = key.find('.');
      if (dot == std::string::npos || dot == 0 || dot + 1 == key.size()) {
        throw std::invalid_argument{path + ": [ledger.smoke] key '" + key +
                                    "' must be section.key"};
      }
      const std::string section = key.substr(0, dot);
      IniFile& target = is_ledger_section(section) ? w.ledger : w.input;
      target.set(section, key.substr(dot + 1), file.get("ledger.smoke", key));
    }
  }
  w.pinned = !smoke && w.seed == own_seed;
  return w;
}

std::shared_ptr<rr::strategy::LearningStrategy> make_strategy(
    const IniFile& experiment) {
  if (experiment.get("strategy", "name", "") == "idle") {
    return std::make_shared<IdleStrategy>();
  }
  return rr::scenario::strategy_from_ini(experiment);
}

RunStats scenario_stats(const rr::scenario::Scenario& scenario,
                        const rr::core::Simulator& sim,
                        const rr::core::Simulator::RunReport& report,
                        double wall_s) {
  RunStats out;
  out.wall_s = wall_s;
  out.sim_s = report.sim_end_time_s;
  out.vehicle_ticks = vehicle_ticks(scenario.config(), report.sim_end_time_s);

  const rr::metrics::Registry& metrics = sim.metrics_view();
  std::ostringstream csv;
  metrics.export_csv(csv);
  out.outputs.push_back(csv.str());

  out.stats["events_executed"] = static_cast<double>(report.events_executed);
  out.stats["sim_end_time_s"] = report.sim_end_time_s;
  out.stats["encounters"] = metrics.counter("encounters");
  for (std::size_t k = 0; k < rr::comm::kChannelKindCount; ++k) {
    const auto& channel =
        sim.network().stats(static_cast<rr::comm::ChannelKind>(k));
    const std::string prefix = kChannelNames[k];
    out.stats[prefix + "_transfers_attempted"] =
        static_cast<double>(channel.transfers_attempted);
    out.stats[prefix + "_transfers_delivered"] =
        static_cast<double>(channel.transfers_delivered);
    out.stats[prefix + "_bytes_delivered"] =
        static_cast<double>(channel.bytes_delivered);
  }
  out.stats["final_accuracy"] = metrics.counter("final_accuracy");
  return out;
}

RunStats run_scenario(const rr::scenario::Scenario& scenario,
                      const IniFile& experiment) {
  const rr::util::Stopwatch watch;
  auto sim = scenario.make_simulator();
  sim->set_strategy(make_strategy(experiment));
  const auto report = sim->run();
  return scenario_stats(scenario, *sim, report, watch.elapsed_s());
}

void warm_up(const rr::scenario::Scenario& scenario, const IniFile& experiment,
             double wall_s) {
  const rr::util::Stopwatch watch;
  auto sim = scenario.make_simulator();
  sim->set_strategy(make_strategy(experiment));
  // The autosave hook runs between events once per mobility tick; here it
  // only ends the run.
  sim->set_autosave(scenario.config().mobility_tick_s,
                    [&](rr::core::Simulator& live) {
                      if (watch.elapsed_s() >= wall_s) live.request_stop();
                    });
  (void)sim->run();
}

RunStats run_campaign(const Workload& workload,
                      const rr::campaign::CampaignSpec& spec,
                      const std::string& store_dir) {
  std::filesystem::remove_all(store_dir);
  rr::campaign::EngineOptions options;
  options.workers = workload.workers();
  options.store_dir = store_dir;
  options.checkpoint_every_s = workload.checkpoint_every_s();

  const rr::util::Stopwatch watch;
  const rr::campaign::CampaignResult result =
      rr::campaign::run_campaign(spec, options);
  RunStats out;
  out.wall_s = watch.elapsed_s();
  out.jobs = result.records.size();

  // Read back what the store persisted, so its write path is checked too.
  const std::vector<rr::campaign::JobRecord> records =
      rr::campaign::ResultStore{store_dir}.load_all();
  if (records.size() != result.records.size()) {
    throw std::runtime_error{"result store holds " +
                             std::to_string(records.size()) + " of " +
                             std::to_string(result.records.size()) +
                             " records"};
  }
  std::map<std::string, rr::scenario::ScenarioConfig> configs;
  for (const rr::campaign::Job& job : rr::campaign::expand(spec)) {
    configs.emplace(job.hash, rr::scenario::scenario_from_ini(job.experiment));
  }

  double accuracy = 0.0;
  for (const rr::campaign::JobRecord& record : records) {
    std::ostringstream text;
    rr::util::CsvWriter csv{text};
    csv.write_row({"meta", "hash", record.hash});
    csv.write_row({"meta", "point_label", record.point_label});
    csv.write_row({"meta", "seed", rr::util::CsvWriter::field(record.seed)});
    csv.write_row({"meta", "strategy", record.strategy_name});
    for (const auto& [name, value] : record.metrics) {
      csv.write_row({"metric", name, rr::util::CsvWriter::field(value)});
    }
    out.outputs.push_back(text.str());

    const double sim_end = record.metric("sim_end_time_s");
    out.sim_s += sim_end;
    out.vehicle_ticks += vehicle_ticks(configs.at(record.hash), sim_end);
    out.stats["events_executed"] += record.metric("events_executed");
    out.stats["sim_end_time_s"] += sim_end;
    out.stats["encounters"] += record.metric("encounters");
    for (const char* prefix : kChannelNames) {
      for (const char* suffix :
           {"_transfers_attempted", "_transfers_delivered",
            "_bytes_delivered"}) {
        const std::string name = std::string{prefix} + suffix;
        out.stats[name] += record.metric(name);
      }
    }
    accuracy += record.metric("final_accuracy");
  }
  out.stats["final_accuracy"] =
      records.empty() ? 0.0 : accuracy / static_cast<double>(records.size());
  return out;
}

std::vector<std::string> check_pins(const Workload& workload,
                                    const RunStats& stats) {
  std::vector<std::string> mismatches;
  if (!workload.pinned) return mismatches;
  const std::vector<std::string> keys = workload.ledger.keys("ledger.expect");
  if (keys.empty()) {
    mismatches.push_back("[ledger.expect] is empty");
    return mismatches;
  }
  for (const std::string& key : keys) {
    const double expected =
        workload.ledger.get_double("ledger.expect", key, 0.0);
    const auto it = stats.stats.find(key);
    if (it == stats.stats.end()) {
      mismatches.push_back(key + ": not a pinnable statistic");
      continue;
    }
    // Accuracy depends on training arithmetic, which a faster kernel may
    // legitimately reorder; every other pin is simulated bookkeeping.
    const double tolerance = key == "final_accuracy" ? 0.02 : 0.0;
    if (std::fabs(it->second - expected) > tolerance) {
      mismatches.push_back(key + " = " +
                           rr::util::CsvWriter::field(it->second) +
                           " (pinned " + rr::util::CsvWriter::field(expected) +
                           ")");
    }
  }
  return mismatches;
}

}  // namespace ledger

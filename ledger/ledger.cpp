// The performance ledger: one invocation measures one workload (README.md
// in this directory lists them, with every metric and its bound).
//
//   ledger --workload=NAME [--seed=N] [--seconds=S] [--smoke]
//          [--trace=PATH] [--json=PATH] [--workloads=DIR] [--scratch=DIR]
//
// Untraced (the default), it gives the end-to-end numbers: the scenario is
// built at least three times (median = setup_s), warmed up for about a
// second, then run repeatedly for at least S seconds and three repetitions,
// reporting medians; every repetition's outputs are checked. With --trace it
// gives the per-layer numbers instead (layers.hpp) and writes a Chrome trace.
// Either way the last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// and the exit code is 0 only when every check passed.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "layers.hpp"
#include "report.hpp"
#include "scenario/experiment.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/stopwatch.hpp"
#include "workload.hpp"

namespace ledger {

namespace {

std::string json_string(const std::string& raw) {
  std::string out = "\"";
  for (const char c : raw) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(metrics[i].name) +
           ": {\"value\": " + rr::util::CsvWriter::field(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// Restarts the kernel's peak-RSS mark (Linux clear_refs), so that the next
/// peak_rss_mb() covers one repetition rather than the whole process.
void reset_peak_rss() { std::ofstream{"/proc/self/clear_refs"} << "5"; }

/// Peak resident set size since the last reset_peak_rss(), in MB.
double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB
    }
  }
  throw std::runtime_error{"no VmHWM in /proc/self/status"};
}

/// The untraced measurement: set-up, warm-up, repetitions, checks.
std::vector<Metric> measure_end_to_end(const Workload& workload,
                                       double seconds, int min_reps,
                                       const std::string& scratch_dir,
                                       Tally& tally, int& reps,
                                       std::size_t& setup_builds) {
  const bool is_campaign = workload.kind == Kind::kCampaign;
  std::optional<rr::campaign::CampaignSpec> spec;
  std::size_t jobs_per_run = 1;
  rr::util::IniFile experiment = workload.input;
  if (is_campaign) {
    spec = rr::campaign::campaign_from_ini(workload.input);
    const std::vector<rr::campaign::Job> jobs = rr::campaign::expand(*spec);
    jobs_per_run = jobs.size();
    experiment = jobs.front().experiment;  // set-up of one job
  }
  const rr::scenario::ScenarioConfig config =
      rr::scenario::scenario_from_ini(experiment);

  // setup_s: three builds up front, then more after each repetition for as
  // long as set-up has taken under a tenth of the measuring time, so that a
  // set-up of a few milliseconds is sampled across the whole run rather
  // than in one burst a passing slowdown of the host could cover. Scenario
  // workloads run on the latest build.
  std::vector<double> setup_s;
  std::optional<rr::scenario::Scenario> scenario;
  const auto build = [&] {
    scenario.reset();
    const rr::util::Stopwatch watch;
    scenario.emplace(config);
    setup_s.push_back(watch.elapsed_s());
    if (is_campaign) scenario.reset();  // its jobs build their own
  };
  for (int i = 0; i < 3; ++i) build();

  // A short warm-up: about a second of the scenario, or the campaign on one
  // seed per sweep point. The first measured run is the reference every
  // other one must reproduce.
  const std::string store = scratch_dir + "/store";
  if (is_campaign) {
    rr::campaign::CampaignSpec warm = *spec;
    warm.seeds_per_point = 1;
    (void)run_campaign(workload, warm, store);
  } else {
    warm_up(*scenario, workload.input, 1.0);
  }
  std::optional<RunStats> reference;

  std::vector<double> speedup;
  std::vector<double> vehicle_ticks;
  std::vector<double> jobs;
  std::vector<double> rss;
  const rr::util::Stopwatch measuring;
  for (reps = 0; reps < min_reps || measuring.elapsed_s() < seconds;) {
    ++reps;
    reset_peak_rss();
    RunStats stats;
    try {
      stats = is_campaign ? run_campaign(workload, *spec, store)
                          : run_scenario(*scenario, workload.input);
    } catch (const std::exception& e) {
      tally.note(std::string{"run failed: "} + e.what());
      tally.record(jobs_per_run, false);
      continue;
    }
    if (!reference) reference = stats;
    const std::vector<std::string> pins = check_pins(workload, stats);
    for (const std::string& pin : pins) tally.note("pin: " + pin);
    for (std::size_t j = 0; j < jobs_per_run; ++j) {
      const bool same = stats.outputs.size() == reference->outputs.size() &&
                        stats.outputs[j] == reference->outputs[j];
      if (!same) tally.note("output differs from the reference run");
      tally.record(1, same && pins.empty());
    }
    speedup.push_back(stats.sim_s / stats.wall_s);
    vehicle_ticks.push_back(stats.vehicle_ticks / stats.wall_s);
    jobs.push_back(static_cast<double>(stats.jobs) / stats.wall_s);
    rss.push_back(peak_rss_mb());
    while (std::accumulate(setup_s.begin(), setup_s.end(), 0.0) <
           0.1 * measuring.elapsed_s()) {
      build();
    }
  }
  setup_builds = setup_s.size();

  return {
      {"setup_s", median(setup_s), "s"},
      {"sim_speedup", median(speedup), "sim_s/s"},
      {"vehicle_ticks_per_s", median(vehicle_ticks), "1/s"},
      {"jobs_per_s", median(jobs), "1/s"},
      {"peak_rss_mb", median(rss), "MB"},
  };
}

/// Removes the per-process scratch directory on every exit path.
class ScratchDir {
 public:
  explicit ScratchDir(std::filesystem::path path) : path_{std::move(path)} {
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

int run(int argc, char** argv) {
  const rr::util::CliArgs args{argc, argv};
  const std::string name = args.get("workload", "");
  if (name.empty()) {
    std::fprintf(stderr,
                 "usage: ledger --workload=NAME [--seed=N] [--seconds=S] "
                 "[--smoke] [--trace=PATH] [--json=PATH] [--workloads=DIR] "
                 "[--scratch=DIR]\n");
    return 2;
  }
  const bool smoke = args.get_bool("smoke", false);
  const double seconds = args.get_double("seconds", 10.0);
  const std::string trace_path = args.get("trace", "");
  const Workload workload =
      load_workload(args.get("workloads", LEDGER_WORKLOAD_DIR), name,
                    args.get("seed", ""), smoke);
  const ScratchDir scratch{std::filesystem::path{
      args.get("scratch", "ledger_scratch")} /
                           (name + "-" + std::to_string(getpid()))};

  Tally tally;
  int reps = 1;
  std::size_t setup_builds = 1;
  std::vector<Metric> metrics =
      trace_path.empty()
          ? measure_end_to_end(workload, seconds, smoke ? 2 : 3, scratch.str(),
                               tally, reps, setup_builds)
          : measure_layers(workload, trace_path, scratch.str(), tally);
  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      tally.note(m.name + " is not finite");
      m.value = 0.0;
    }
  }
  const bool correct = tally.failed == 0 && tally.problems.empty();

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf("ledger: workload %s, seed %llu%s%s, %s\n", name.c_str(),
              static_cast<unsigned long long>(workload.seed),
              workload.pinned ? " (pinned)" : "", smoke ? ", smoke" : "",
              trace_path.empty() ? "untraced" : "traced");
  std::printf("manifest: revision %s, %s build, %s, nproc %ld, workload hash "
              "%s\n",
              LEDGER_GIT_REV, LEDGER_BUILD_TYPE, LEDGER_COMPILER, nproc,
              workload.file_hash.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (trace_path.empty()) {
    std::printf("  (medians of %d repetitions; setup_s of %zu builds)\n", reps,
                setup_builds);
  } else {
    std::printf("  Chrome trace: %s\n", trace_path.c_str());
  }
  std::printf("checks: %zu attempted, %zu failed\n", tally.attempted,
              tally.failed);
  for (const std::string& problem : tally.problems) {
    std::printf("  FAILED %s\n", problem.c_str());
  }

  const std::string result =
      "{\"correct\": " + std::string{correct ? "true" : "false"} +
      ", \"attempted\": " + std::to_string(tally.attempted) +
      ", \"failed\": " + std::to_string(tally.failed) +
      ", \"metrics\": " + json_metrics(metrics) + "}";
  const std::string json_path = args.get("json", "");
  if (!json_path.empty()) {
    std::ofstream out{json_path};
    out << "{\"bench\": \"ledger\", \"workload\": " << json_string(name)
        << ", \"traced\": " << (trace_path.empty() ? "false" : "true")
        << ",\n \"manifest\": {\"revision\": " << json_string(LEDGER_GIT_REV)
        << ", \"build_type\": " << json_string(LEDGER_BUILD_TYPE)
        << ", \"compiler\": " << json_string(LEDGER_COMPILER)
        << ", \"nproc\": " << nproc << ", \"seed\": " << workload.seed
        << ", \"smoke\": " << (smoke ? "true" : "false")
        << ", \"workload_hash\": " << json_string(workload.file_hash)
        << "},\n \"result\": " << result << "}\n";
    if (!out) {
      std::fprintf(stderr, "ledger: cannot write %s\n", json_path.c_str());
      return 2;
    }
  }
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace ledger

int main(int argc, char** argv) {
  try {
    return ledger::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger: %s\n", e.what());
    return 2;
  }
}

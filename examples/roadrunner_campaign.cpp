// roadrunner_campaign — the multi-run orchestrator: expands an INI campaign
// spec (base experiment × sweep axes × replicate seeds) into jobs, runs
// them in parallel with live progress (jobs/s, ETA), lands every finished
// job in a resumable on-disk store, writes/prints the per-point aggregate
// (mean / stddev / 95% CI over seeds), and renders the spec's `[report]`
// tables (campaign/report.hpp): the resilience, adversarial, drift and
// traffic sweeps are examples/<name>.ini run through this binary.
//
//   ./examples/roadrunner_campaign spec.ini [--workers=N] [--store=DIR]
//        [--out=aggregate.csv] [--plot=metric] [--seeds=N] [--fresh]
//        [--trace-out=trace.json] [--profile] [--dry-run] [--list-metrics]
//        [--checkpoint-every=SIMSECONDS] [--checkpoint-dir=DIR]
//        [--serve=[HOST:]PORT] [--log-assign]
//
// --serve turns this process into a distributed-campaign coordinator: it
// expands the spec, listens on the endpoint, hands jobs to
// roadrunner_worker processes, and writes the same store and aggregate CSV
// a local run would — byte-identical, whatever the fleet looks like
// (DESIGN.md §11).
//
// --trace-out writes a Chrome trace_event JSON of the whole campaign
// (open in https://ui.perfetto.dev); --profile prints a per-category
// wall-clock summary to stderr. Either flag enables telemetry recording.
// --dry-run prints the expanded job list (hash, point, seed) without
// executing anything — the expansion is deterministic, so the printed
// hashes are exactly the store/checkpoint keys a real run will use.
// --list-metrics runs ONE job per distinct strategy in the spec and prints
// the sorted union of metric names those jobs emit — the valid values for
// --plot and for downstream analysis scripts, discovered rather than
// guessed (strategies emit different metric families). Conditional families
// appear when the spec enables them: adversary_*/defense_* need an active
// [adversary.N] timeline at the probed point, fault accounting a [fault.N]
// one — which the last-sweep-point probe below picks up for axes that rise
// from 0.
//
// Kill it mid-campaign and rerun: completed jobs are skipped, and with
// --checkpoint-every=N each in-flight job autosaves a snapshot every N
// simulated seconds, so the job that died mid-run resumes from its last
// snapshot instead of t=0 (snapshots land in --checkpoint-dir, default
// <store>/checkpoints, and are deleted once the job's record is stored).
// --fresh runs without a store, so nothing is resumed or written to disk
// (an existing store is left as it is). With no arguments it runs
// examples/campaign.ini if present, else a small built-in demo campaign.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "campaign/aggregate.hpp"
#include "campaign/engine.hpp"
#include "campaign/report.hpp"
#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "telemetry/telemetry.hpp"
#include "util/ascii_plot.hpp"
#include "util/cli.hpp"

using namespace roadrunner;

namespace {

constexpr const char* kDefaultCampaign = R"ini(
# Built-in demo: fleet-size sweep, FL vs OPP, 3 seeds per point.
[campaign]
name = demo_density
seeds = 3
base_seed = 100

[sweep]
scenario.vehicles = 20, 35, 50

[sweep.zip]
strategy.name = federated, opportunistic
strategy.round_duration_s = 30, 200

[scenario]
horizon_s = 4000
[city]
duration_s = 4000
[data]
dataset = blobs
train_pool = 2400
test_size = 480
partition = class_skew
samples_per_vehicle = 40
[train]
model = logreg
epochs = 1
[strategy]
rounds = 6
participants = 4
)ini";

std::string format_eta(double seconds) {
  char buf[32];
  if (seconds >= 3600.0) {
    std::snprintf(buf, sizeof buf, "%.1fh", seconds / 3600.0);
  } else if (seconds >= 60.0) {
    std::snprintf(buf, sizeof buf, "%.1fm", seconds / 60.0);
  } else {
    std::snprintf(buf, sizeof buf, "%.0fs", seconds);
  }
  return buf;
}

int usage_error(const char* program, const std::string& reason) {
  std::fprintf(stderr, "error: %s\n", reason.c_str());
  std::fprintf(stderr,
               "usage: %s [spec.ini] [--workers=N] [--store=DIR] "
               "[--out=FILE] [--seeds=N] [--fresh]\n"
               "       [--serve=[HOST:]PORT] [--log-assign]\n"
               "       [--checkpoint-every=SIMSECONDS] "
               "[--checkpoint-dir=DIR] [--dry-run] [--list-metrics]\n",
               program);
  return 2;
}

int run(int argc, char** argv) {
  util::CliArgs args{argc, argv};
  // Exports on scope exit, so the trace covers the entire campaign.
  telemetry::TraceSession telemetry_session{args.get("trace-out", ""),
                                            args.get_bool("profile", false)};

  // Validated up front (not just on the paths that use it) so a typo like
  // --workers=O fails fast even with --dry-run. 0 and negatives used to be
  // silently coerced to "auto-size"; now they are a usage error.
  std::size_t worker_count = 0;
  std::size_t seeds = 0;  // 0: keep the spec's [campaign] seeds
  try {
    worker_count = util::parse_worker_count(args, "workers");
    seeds = util::parse_positive_count(args, "seeds", 0);
  } catch (const std::invalid_argument& e) {
    return usage_error(argv[0], e.what());
  }

  util::IniFile ini;
  std::string spec_path;
  if (!args.positional().empty()) {
    spec_path = args.positional().front();
    ini = util::IniFile::load(spec_path);
  } else if (std::filesystem::exists("examples/campaign.ini")) {
    spec_path = "examples/campaign.ini";
    ini = util::IniFile::load(spec_path);
  } else {
    spec_path = "<built-in demo>";
    ini = util::IniFile::parse(kDefaultCampaign);
  }

  campaign::CampaignSpec spec = campaign::campaign_from_ini(ini);
  if (seeds > 0) spec.seeds_per_point = seeds;

  if (args.get_bool("dry-run", false)) {
    const std::vector<campaign::Job> jobs = campaign::expand(spec);
    std::printf("campaign  %s (%s)\n", spec.name.c_str(), spec_path.c_str());
    std::printf("%zu jobs:\n", jobs.size());
    std::printf("%-16s %6s %6s %20s  %s\n", "hash", "point", "seed#", "seed",
                "point label");
    for (const auto& job : jobs) {
      std::printf("%-16s %6zu %6zu %20llu  %s\n", job.hash.c_str(),
                  job.point_index, job.seed_index,
                  static_cast<unsigned long long>(job.seed),
                  job.point_label.c_str());
    }
    return 0;
  }

  if (args.get_bool("list-metrics", false)) {
    // One probe job per distinct strategy: metric families differ between
    // strategies (gossip_merges vs rounds_completed vs central_uploads), so
    // the union over one representative of each covers the whole campaign.
    // Per strategy we probe its LAST sweep point: event-driven counters
    // only exist once their event fires, and later points typically enable
    // more machinery (e.g. a fault.severity or adversary.fraction axis
    // rising from 0 — adversary_*/defense_* columns only exist once an
    // attack timeline is active).
    const std::vector<campaign::Job> jobs = campaign::expand(spec);
    std::map<std::string, const campaign::Job*> probe;
    for (const auto& job : jobs) {
      if (job.seed_index != 0) continue;
      probe[job.experiment.get("strategy", "name", "federated")] = &job;
    }
    std::set<std::string> metric_names;
    for (const auto& [strategy, job] : probe) {
      std::fprintf(stderr, "probing %s (job %s)...\n", strategy.c_str(),
                   job->hash.c_str());
      const campaign::JobRecord record = campaign::run_job(*job);
      for (const auto& [name, value] : record.metrics) {
        metric_names.insert(name);
      }
    }
    std::printf("%zu metrics emitted by this spec's jobs (%zu strategies "
                "probed):\n",
                metric_names.size(), probe.size());
    for (const auto& name : metric_names) std::printf("%s\n", name.c_str());
    return 0;
  }

  campaign::EngineOptions options;
  options.workers = worker_count;
  if (!args.get_bool("fresh", false)) {
    options.store_dir =
        args.get("store", ini.get("campaign", "store", spec.name + "_results"));
  }
  options.checkpoint_every_s = args.get_double("checkpoint-every", 0.0);
  options.checkpoint_dir = args.get("checkpoint-dir", "");

  const std::size_t points = campaign::point_count(spec);
  std::printf("campaign  %s (%s)\n", spec.name.c_str(), spec_path.c_str());
  std::printf("jobs      %zu points x %zu seeds = %zu\n", points,
              spec.seeds_per_point, points * spec.seeds_per_point);
  if (!options.store_dir.empty()) {
    std::printf("store     %s (resumable; delete to restart)\n",
                options.store_dir.c_str());
  }

  options.on_progress = [](const campaign::Progress& p) {
    std::printf("\r[%zu/%zu] %s%.2f jobs/s, eta %s   ",
                p.resumed + p.completed, p.total,
                p.resumed > 0 ? (std::to_string(p.resumed) + " resumed, ").c_str()
                              : "",
                p.jobs_per_s, format_eta(p.eta_s).c_str());
    std::fflush(stdout);
  };

  std::vector<campaign::JobRecord> records;
  if (args.has("serve")) {
    // Coordinator mode: same store, same aggregate outputs, but the jobs
    // run wherever a worker connects from.
    dist::CoordinatorOptions copts;
    std::tie(copts.host, copts.port) = dist::parse_endpoint(
        args.get("serve", ""), "127.0.0.1", /*allow_port_zero=*/true);
    copts.store_dir = options.store_dir;
    copts.checkpoint_every_s = options.checkpoint_every_s;
    copts.lease_s = args.get_double("lease", copts.lease_s);
    copts.on_progress = options.on_progress;
    if (args.get_bool("log-assign", false)) {
      // One line per hand-off, flushed immediately: fleet scripts (and the
      // kill-worker CI lane) tail the log to learn which worker holds a
      // job right now.
      copts.on_assign = [](const campaign::Job& job,
                           const std::string& worker) {
        std::printf("assign %s -> %s\n", job.hash.c_str(), worker.c_str());
        std::fflush(stdout);
      };
    }
    dist::Coordinator coordinator{spec, copts};
    std::printf("serving   %s:%u — join with --connect=%s:%u\n",
                copts.host.c_str(), static_cast<unsigned>(coordinator.port()),
                copts.host.c_str(), static_cast<unsigned>(coordinator.port()));
    std::fflush(stdout);  // fleet launch scripts wait for this line
    dist::CoordinatorResult result = coordinator.serve();
    std::printf("\rdone: %zu executed, %zu resumed in %.1f s%20s\n",
                result.executed, result.resumed, result.wall_seconds, "");
    std::printf("fleet     %zu workers seen, %zu jobs requeued, "
                "%zu duplicate results dropped\n",
                result.workers_seen, result.requeued, result.duplicates);
    records = std::move(result.records);
  } else {
    campaign::CampaignResult result = campaign::run_campaign(spec, options);
    std::printf(
        "\rdone: %zu executed, %zu resumed in %.1f s (%.2f jobs/s)%20s\n",
        result.executed, result.resumed, result.wall_seconds,
        result.executed > 0 && result.wall_seconds > 0.0
            ? static_cast<double>(result.executed) / result.wall_seconds
            : 0.0,
        "");
    records = std::move(result.records);
  }

  const auto summaries = campaign::summarize(records);

  // Aggregate CSV.
  const std::string out_path = args.get("out", spec.name + "_aggregate.csv");
  {
    std::ofstream out{out_path};
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    campaign::write_aggregate_csv(out, summaries);
  }
  std::printf("aggregate %s (%zu points)\n\n", out_path.c_str(),
              summaries.size());

  // Per-point table for the headline metric.
  const std::string metric = args.get("plot", "final_accuracy");
  // Column width follows the longest label: truncating would collapse
  // distinct sweep points into identical-looking rows.
  std::size_t width = 5;  // "point"
  for (const auto& s : summaries) width = std::max(width, s.label.size());
  const int w = static_cast<int>(width);
  std::printf("%-*s %10s %10s %16s\n", w, "point", metric.c_str(), "stddev",
              "95% CI");
  util::PlotSeries series;
  series.label = metric + " (mean over seeds)";
  for (const auto& s : summaries) {
    const auto it = s.metrics.find(metric);
    if (it == s.metrics.end()) continue;
    std::printf("%-*s %10.4f %10.4f %8.4f±%.4f\n", w, s.label.c_str(),
                it->second.mean, it->second.stddev, it->second.mean,
                it->second.ci95_half);
    series.points.emplace_back(static_cast<double>(s.point_index),
                               it->second.mean);
  }
  if (!series.points.empty()) {
    std::printf("\n%s vs sweep point:\n%s\n", metric.c_str(),
                util::ascii_chart({series}).c_str());
  }
  campaign::write_report(std::cout, spec, summaries);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

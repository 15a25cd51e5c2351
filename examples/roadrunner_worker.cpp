// roadrunner_worker — campaign fleet member: connects to a coordinator
// started with `roadrunner_campaign --serve`, pulls jobs one at a time,
// runs them, and streams the records back. Start as many as you like, on
// as many machines as you like, whenever you like — the coordinator's pull
// scheduling absorbs elastic join/leave, and the aggregate CSV it writes
// is byte-identical to a single-process run (DESIGN.md §11).
//
//   ./examples/roadrunner_worker --connect=HOST:PORT [--name=ID]
//        [--shard-store=DIR] [--checkpoint-dir=DIR] [--max-jobs=N]
//        [--hold-before-job=SECONDS] [--trace-out=trace.json] [--profile]
//
// --shard-store gives the worker its own crash-durable store: a worker
// that is killed and restarted against the same directory replays its
// finished jobs from disk instead of recomputing them (the coordinator's
// dedup drops a record it already holds). --max-jobs makes the worker
// leave the fleet after N jobs — handy for spot capacity and for tests.
#include <cstdio>
#include <stdexcept>
#include <tuple>

#include "dist/protocol.hpp"
#include "dist/worker.hpp"
#include "telemetry/telemetry.hpp"
#include "util/cli.hpp"

using namespace roadrunner;

namespace {

int run(int argc, char** argv) {
  util::CliArgs args{argc, argv};
  telemetry::TraceSession telemetry_session{args.get("trace-out", ""),
                                            args.get_bool("profile", false)};
  if (!args.has("connect")) {
    std::fprintf(stderr,
                 "usage: %s --connect=HOST:PORT [--name=ID] "
                 "[--shard-store=DIR]\n"
                 "       [--checkpoint-dir=DIR] [--max-jobs=N] "
                 "[--hold-before-job=SECONDS]\n"
                 "       [--trace-out=trace.json] [--profile]\n",
                 argv[0]);
    return 2;
  }

  dist::WorkerOptions options;
  std::tie(options.host, options.port) =
      dist::parse_endpoint(args.get("connect", ""));
  options.name = args.get("name", "worker");
  options.shard_store_dir = args.get("shard-store", "");
  options.checkpoint_dir = args.get("checkpoint-dir", "");
  options.heartbeat_s = args.get_double("heartbeat", 1.0);
  options.max_jobs = static_cast<std::size_t>(args.get_int("max-jobs", 0));
  // Fault-injection aid for kill-worker tests: hold each assignment this
  // long before running it (see WorkerOptions::hold_before_job_s).
  options.hold_before_job_s = args.get_double("hold-before-job", 0.0);

  std::printf("worker %s connecting to %s:%u\n", options.name.c_str(),
              options.host.c_str(), static_cast<unsigned>(options.port));
  std::fflush(stdout);
  const dist::WorkerReport report = dist::run_worker(options);
  std::printf("worker %s: %zu jobs run, %zu accepted, %zu duplicate (%s)\n",
              options.name.c_str(), report.jobs_run, report.results_accepted,
              report.results_duplicate, report.shutdown_reason.c_str());
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

#include "campaign/engine.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <system_error>

#include "checkpoint/checkpoint.hpp"
#include "metrics/analysis.hpp"
#include "scenario/experiment.hpp"
#include "telemetry/telemetry.hpp"
#include "util/stopwatch.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace roadrunner::campaign {

namespace {

// Progress accounting shared between campaign workers; annotated so clang's
// -Wthread-safety proves every access happens under the mutex (the TSan CI
// lane checks the same dynamically).
struct ProgressState {
  util::Mutex mutex;
  std::size_t completed RR_GUARDED_BY(mutex) = 0;
  // Serializes on_progress invocations so user callbacks never interleave.
  util::Mutex callback_mutex;
};

const char* channel_prefix(comm::ChannelKind kind) {
  switch (kind) {
    case comm::ChannelKind::kV2C:
      return "v2c";
    case comm::ChannelKind::kV2X:
      return "v2x";
    case comm::ChannelKind::kWired:
      return "wired";
  }
  return "unknown";
}

}  // namespace

JobRecord run_job(const Job& job) { return run_job(job, {}, 0.0); }

JobRecord run_job(const Job& job, const std::string& ckpt_path,
                  double checkpoint_every_s) {
  telemetry::Span span{"campaign", "campaign.job"};
  if (span.active()) {
    span.set_args("hash=" + job.hash + " point=" + job.point_label +
                  " seed=" + std::to_string(job.seed));
  }
  static telemetry::Counter jobs_counter{"campaign.jobs_executed"};
  jobs_counter.add();
  const util::Stopwatch watch;
  const scenario::RunResult result =
      ckpt_path.empty()
          ? scenario::run_experiment(job.experiment)
          : checkpoint::run_resumable(job.experiment, ckpt_path,
                                      checkpoint_every_s);

  JobRecord record;
  record.hash = job.hash;
  record.point_index = job.point_index;
  record.seed_index = job.seed_index;
  record.seed = job.seed;
  record.point_label = job.point_label;
  record.strategy_name = result.strategy_name;

  // Counters first (includes final_accuracy, rounds_completed, ...), then
  // per-series digests, then channel and report totals. All names come from
  // the Registry, which rejects newline-bearing names, and the store writes
  // through CsvWriter, which escapes commas — so any name stays parseable.
  for (const auto& name : result.metrics.counter_names()) {
    record.metrics.emplace_back(name, result.metrics.counter(name));
  }
  for (const auto& name : result.metrics.series_names()) {
    const auto& series = result.metrics.series(name);
    if (series.empty()) continue;
    record.metrics.emplace_back(name + ":final", series.back().value);
    double sum = 0.0;
    double max = series.front().value;
    for (const auto& point : series) {
      sum += point.value;
      max = std::max(max, point.value);
    }
    record.metrics.emplace_back(
        name + ":mean", sum / static_cast<double>(series.size()));
    record.metrics.emplace_back(name + ":timeavg",
                                metrics::time_average(series));
    record.metrics.emplace_back(name + ":max", max);
  }
  for (std::size_t k = 0; k < comm::kChannelKindCount; ++k) {
    const auto kind = static_cast<comm::ChannelKind>(k);
    const auto& stats = result.channel(kind);
    const std::string prefix = channel_prefix(kind);
    record.metrics.emplace_back(prefix + "_bytes_delivered",
                                static_cast<double>(stats.bytes_delivered));
    record.metrics.emplace_back(
        prefix + "_transfers_delivered",
        static_cast<double>(stats.transfers_delivered));
    record.metrics.emplace_back(
        prefix + "_transfers_attempted",
        static_cast<double>(stats.transfers_attempted));
  }
  record.metrics.emplace_back("sim_end_time_s", result.report.sim_end_time_s);
  // Scenario properties, kept out of the Registry so that no experiment's
  // metrics CSV changes.
  record.metrics.emplace_back("partition_skewness", result.partition_skewness);
  record.metrics.emplace_back("model_bytes",
                              static_cast<double>(result.model_bytes));
  record.metrics.emplace_back(
      "events_executed", static_cast<double>(result.report.events_executed));

  record.wall_seconds = watch.elapsed_s();
  return record;
}

CampaignResult run_campaign(const CampaignSpec& spec,
                            const EngineOptions& options) {
  telemetry::Span campaign_span{"campaign", "campaign.run"};
  const util::Stopwatch campaign_watch;
  const std::vector<Job> jobs = expand(spec);
  if (campaign_span.active()) {
    campaign_span.set_args("jobs=" + std::to_string(jobs.size()) +
                           " workers=" + std::to_string(options.workers));
  }

  std::optional<ResultStore> store;
  if (!options.store_dir.empty()) store.emplace(options.store_dir);

  // Mid-job snapshots, one per job hash. The store's resume pass skips
  // *finished* jobs; these resume *interrupted* ones mid-flight.
  std::filesystem::path ckpt_dir;
  if (options.checkpoint_every_s > 0.0) {
    if (!options.checkpoint_dir.empty()) {
      ckpt_dir = options.checkpoint_dir;
    } else if (!options.store_dir.empty()) {
      ckpt_dir = std::filesystem::path{options.store_dir} / "checkpoints";
    }
  }
  const auto job_ckpt_path = [&ckpt_dir](const Job& job) -> std::string {
    if (ckpt_dir.empty()) return {};
    return (ckpt_dir / (job.hash + ".rrck")).string();
  };

  CampaignResult result;
  result.records.resize(jobs.size());

  // Resume pass: satisfy whatever the store already holds, collect the rest.
  std::vector<std::size_t> pending;
  pending.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (store && store->contains(jobs[i].hash)) {
      result.records[i] = store->load(jobs[i].hash);
      ++result.resumed;
    } else {
      pending.push_back(i);
    }
  }

  ProgressState progress_state;
  auto report_progress = [&] {
    if (!options.on_progress) return;
    Progress progress;
    progress.total = jobs.size();
    progress.resumed = result.resumed;
    std::size_t done = 0;
    {
      util::MutexLock lock{progress_state.mutex};
      done = progress_state.completed;
    }
    progress.completed = done;
    progress.elapsed_s = campaign_watch.elapsed_s();
    progress.jobs_per_s = progress.elapsed_s > 0.0
                              ? static_cast<double>(done) / progress.elapsed_s
                              : 0.0;
    const std::size_t remaining = pending.size() - done;
    progress.eta_s = progress.jobs_per_s > 0.0
                         ? static_cast<double>(remaining) / progress.jobs_per_s
                         : 0.0;
    options.on_progress(progress);
  };

  // Dedicated pool: campaign workers block in run_job while the
  // process-global pool runs each job's evaluation batches and image
  // rendering underneath. Jobs on the global pool itself would not
  // deadlock (a nested parallel_for on a pool worker runs inline), but
  // every job's evaluation would then run serially on its own thread.
  util::ThreadPool pool{options.workers};
  pool.parallel_for(pending.size(), [&](std::size_t p) {
    const std::size_t i = pending[p];
    const std::string ckpt = job_ckpt_path(jobs[i]);
    JobRecord record = run_job(jobs[i], ckpt, options.checkpoint_every_s);
    if (store) {
      RR_TSPAN("campaign", "campaign.store_save");
      store->save(record);
    }
    if (!ckpt.empty()) {
      // The record is durable; the scratch snapshot has served its purpose.
      std::error_code ec;
      std::filesystem::remove(ckpt, ec);
    }
    result.records[i] = std::move(record);
    if (telemetry::enabled()) {
      // Scheduler saturation snapshot after each job: busy < workers with a
      // non-empty backlog would indicate hand-off latency in the pool.
      static telemetry::Gauge busy_gauge{"campaign.pool_busy"};
      static telemetry::Gauge pending_gauge{"campaign.pool_pending"};
      busy_gauge.set(static_cast<double>(pool.busy()));
      pending_gauge.set(static_cast<double>(pool.pending()));
    }
    {
      util::MutexLock lock{progress_state.mutex};
      ++progress_state.completed;
    }
    util::MutexLock lock{progress_state.callback_mutex};
    report_progress();
  });

  result.executed = pending.size();
  result.wall_seconds = campaign_watch.elapsed_s();
  return result;
}

}  // namespace roadrunner::campaign

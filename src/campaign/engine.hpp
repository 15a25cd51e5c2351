// Campaign execution engine: expands a CampaignSpec into jobs, skips the
// ones a ResultStore already holds (resume), and runs the rest in parallel
// on a dedicated util::ThreadPool — one simulator per worker. Each job's
// RNG seed derives from job identity alone, and each job owns its Scenario
// and Simulator, so per-job metrics are bit-identical under any worker
// count or scheduling order. The workers-level pool nests cleanly above the
// process-global pool that training, evaluation and image rendering use
// inside a run; a simulator waiting on a training job runs queued
// global-pool tasks meanwhile (util::ThreadPool::wait).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "campaign/store.hpp"

namespace roadrunner::campaign {

/// Snapshot handed to the progress callback after every finished job.
struct Progress {
  std::size_t total = 0;      ///< jobs in the campaign
  std::size_t resumed = 0;    ///< satisfied from the store before running
  std::size_t completed = 0;  ///< executed so far this run (excl. resumed)
  double elapsed_s = 0.0;     ///< wall time since the engine started
  double jobs_per_s = 0.0;    ///< completed / elapsed
  double eta_s = 0.0;         ///< remaining / jobs_per_s (0 when unknown)
};

struct EngineOptions {
  /// Parallel workers; 0 = hardware concurrency.
  std::size_t workers = 0;
  /// Result-store directory. Empty = in-memory only (no resume, nothing
  /// written to disk).
  std::string store_dir;
  /// Invoked (serialized, from worker threads) after each completed job.
  std::function<void(const Progress&)> on_progress;
  /// Mid-job autosave period in *simulated* seconds; 0 disables. With a
  /// store, a killed campaign then resumes interrupted jobs from their last
  /// snapshot instead of from t=0 (completed jobs are still skipped via the
  /// store as before).
  double checkpoint_every_s = 0.0;
  /// Snapshot directory. Empty = `<store_dir>/checkpoints` when a store is
  /// configured; checkpointing requires one of the two to be set.
  std::string checkpoint_dir;
};

struct CampaignResult {
  /// One record per job, in expansion order (resumed and freshly executed
  /// records interleaved exactly where their jobs sit).
  std::vector<JobRecord> records;
  std::size_t executed = 0;  ///< jobs actually run this invocation
  std::size_t resumed = 0;   ///< jobs satisfied from the store
  double wall_seconds = 0.0;
};

/// Runs one experiment INI (as produced by `expand`) and flattens the
/// result into a JobRecord: every Registry counter under its own name,
/// every series as `<name>:final` / `<name>:mean` (arithmetic mean of the
/// points) / `<name>:timeavg` (trapezoidal time-average) / `<name>:max`,
/// channel totals as `<kind>_bytes_delivered` / `<kind>_transfers_delivered`
/// / `<kind>_transfers_attempted`, the report as `sim_end_time_s` /
/// `events_executed`, and the scenario's `partition_skewness` and
/// `model_bytes`. Exposed for tests and custom drivers.
JobRecord run_job(const Job& job);

/// Like run_job, but crash-safe: resumes from `ckpt_path` if it exists and
/// autosaves there every `checkpoint_every_s` simulated seconds. An empty
/// path behaves exactly like run_job. The snapshot is left on disk; the
/// campaign loop deletes it once the job's record is durably stored.
JobRecord run_job(const Job& job, const std::string& ckpt_path,
                  double checkpoint_every_s);

/// Executes the whole campaign. Throws on spec errors; a job failure
/// (exception from the simulator) aborts the campaign with the first
/// error after in-flight jobs drain — completed records stay in the store,
/// so a fixed spec resumes past them.
CampaignResult run_campaign(const CampaignSpec& spec,
                            const EngineOptions& options = {});

}  // namespace roadrunner::campaign

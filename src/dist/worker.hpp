// Campaign worker: a thin network shell around campaign::run_job. Connects
// to a coordinator, pulls fully resolved experiment INIs one at a time, runs
// each on a private single-thread pool while the connection thread keeps
// heartbeating, persists every record to a shard-local ResultStore (same
// fsync-tmp-rename protocol as the canonical store), and streams it back.
//
// The shard store makes the worker itself crash-durable: a worker that dies
// and restarts against the same shard directory replays locally-finished
// jobs from disk instead of recomputing.
#pragma once

#include <cstdint>
#include <string>

namespace roadrunner::dist {

struct WorkerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Identity reported in the Hello (shows up in per-worker telemetry).
  std::string name = "worker";
  /// Shard-local result store. Empty = in-memory only.
  std::string shard_store_dir;
  /// Mid-job snapshot directory (used when the coordinator's Welcome asks
  /// for checkpointing). Empty = `<shard_store_dir>/checkpoints`.
  std::string checkpoint_dir;
  /// Heartbeat cadence while a job is running (wall seconds).
  double heartbeat_s = 1.0;
  /// Fault-injection aid: sleep this long (wall seconds) after accepting
  /// each assignment before running it. Guarantees the worker holds an
  /// in-flight job for a window tests can SIGKILL it in — the kill-worker
  /// CI lane pairs this with the coordinator's assignment log to make the
  /// requeue assertion deterministic. 0 disables.
  double hold_before_job_s = 0.0;
  /// Stop after this many executed jobs; 0 = run until Shutdown. (Tests
  /// use this to exercise elastic leave mid-campaign.)
  std::size_t max_jobs = 0;
  /// Connection attempts before giving up (the coordinator may still be
  /// binding when a fleet launches in parallel).
  int connect_attempts = 10;
  int connect_retry_ms = 200;
};

struct WorkerReport {
  std::size_t jobs_run = 0;           ///< executed on this worker
  std::size_t results_accepted = 0;   ///< merged by the coordinator
  std::size_t results_duplicate = 0;  ///< deduplicated (requeue races)
  std::string shutdown_reason;        ///< from the coordinator, or local
};

/// Runs the worker loop until the coordinator shuts the campaign down, the
/// connection drops, or max_jobs is reached. Throws on protocol violations
/// and unrecoverable local errors; a job that throws is reported and
/// re-thrown after the connection is torn down (the coordinator requeues it
/// for someone else via the disconnect path).
WorkerReport run_worker(const WorkerOptions& options);

}  // namespace roadrunner::dist

// Resumable on-disk result store: one CSV record per completed job, keyed
// by the job's stable hash. A killed campaign picks up where it left off —
// the engine consults `contains()` before running a job, and records are
// written atomically (tmp + rename) so a kill mid-write never leaves a
// half-record that would poison a resume.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

namespace roadrunner::campaign {

/// Everything a finished job leaves behind: identity metadata plus a flat
/// (name, value) metric list — every counter from metrics::Registry, the
/// final/time-average of every series, channel byte totals, and the
/// simulated end time. Metric order is deterministic (sorted by name).
struct JobRecord {
  std::string hash;
  std::size_t point_index = 0;
  std::size_t seed_index = 0;
  std::uint64_t seed = 0;
  std::string point_label;
  std::string strategy_name;
  /// Host wall-clock cost of the run. Informational only — never part of
  /// the determinism contract, so it lives outside `metrics`.
  double wall_seconds = 0.0;
  std::vector<std::pair<std::string, double>> metrics;

  /// Wire layout (dist protocol, util/archive.hpp): metric values travel
  /// as raw f64 bits, so records survive the wire bit-exactly.
  template <class Ar>
  void fields(Ar& ar) {
    ar(hash, point_index, seed_index, seed, point_label, strategy_name,
       wall_seconds, metrics);
  }

  /// Value of a metric by exact name; `fallback` when absent.
  [[nodiscard]] double metric(const std::string& name,
                              double fallback = 0.0) const;
};

class ResultStore {
 public:
  /// Opens (creating if needed) the store directory. Throws
  /// std::runtime_error if the path exists but is not a directory.
  explicit ResultStore(std::filesystem::path dir);

  [[nodiscard]] const std::filesystem::path& dir() const { return dir_; }

  /// True if a completed record for this job hash exists.
  [[nodiscard]] bool contains(const std::string& hash) const;

  /// Atomically persists the record under its hash (overwrites).
  void save(const JobRecord& record) const;

  /// Loads one record. Throws std::runtime_error if absent or malformed.
  [[nodiscard]] JobRecord load(const std::string& hash) const;

  /// All records in the store, sorted by (point_index, seed_index, hash).
  [[nodiscard]] std::vector<JobRecord> load_all() const;

 private:
  [[nodiscard]] std::filesystem::path record_path(
      const std::string& hash) const;

  std::filesystem::path dir_;
};

}  // namespace roadrunner::campaign

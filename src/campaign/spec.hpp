// Campaign specification: a parameter sweep over INI experiments. A
// campaign is the multi-run unit of work the paper's §5 implies but never
// systematizes — Opportunistic vs. Baseline across seeds and configurations
// — promoted to a first-class, deterministic object: a base experiment
// (any file `run_experiment` accepts), a set of sweep axes, and a number of
// replicate seeds per sweep point. Expansion yields a flat job list whose
// order, derived seeds, and identity hashes depend only on the spec, never
// on scheduling, so a campaign's results are reproducible under any worker
// count and resumable after a kill.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/ini.hpp"

namespace roadrunner::campaign {

/// One swept parameter: `section.key` takes each of `values` (verbatim INI
/// strings, so axes can sweep strategy names as easily as numerics).
struct SweepAxis {
  std::string section;
  std::string key;
  std::vector<std::string> values;
};

/// The `[report]` section: which tables `roadrunner_campaign` prints after
/// the aggregate CSV (campaign/report.hpp). Empty `metrics` = no report.
struct ReportSpec {
  /// One table each: zip rows x grid combinations of the metric's mean.
  std::vector<std::string> metrics;
  /// Optional: one table of zip rows x these metrics at the last grid point.
  std::vector<std::string> scorecard;
};

struct CampaignSpec {
  std::string name = "campaign";
  /// Base experiment template; sweep axes override keys on top of it.
  util::IniFile base;
  /// Cartesian-product axes (every combination of values is a point).
  std::vector<SweepAxis> grid;
  /// Zipped axes: advanced together row by row (all must share one length).
  /// Combined with `grid` as zip-row × grid-combination.
  std::vector<SweepAxis> zipped;
  /// Replicate runs per sweep point, each with a distinct derived seed.
  std::size_t seeds_per_point = 1;
  /// Master seed all per-job seeds derive from.
  std::uint64_t base_seed = 1;
  /// When true, replicate i uses the same seed (base_seed + i) at EVERY
  /// sweep point — a paired design: all points run on the identical fleet
  /// and data substrate, isolating the swept parameter (how the A1/A4/A5
  /// benches compare strategies "on one identical fleet"). When false
  /// (default), seeds also mix in the point index, so no two jobs share a
  /// substrate.
  bool pair_seeds = false;
  /// Presentation only: never part of a job's experiment or hash.
  ReportSpec report;
};

/// One executable unit: a fully resolved experiment INI (base + axis
/// overrides + derived `[scenario] seed`) plus identity metadata.
struct Job {
  std::size_t point_index = 0;  ///< which sweep point (0-based)
  std::size_t seed_index = 0;   ///< which replicate at that point
  std::uint64_t seed = 0;       ///< derived per-job RNG seed
  /// Human-readable "key=value, key=value" description of the sweep point
  /// (replicate seed excluded, so all seeds of a point share a label).
  std::string point_label;
  util::IniFile experiment;
  /// Stable 16-hex-digit FNV-1a hash of the resolved experiment; the
  /// resumable store's key. Identical spec => identical hashes.
  std::string hash;
};

/// Derives the RNG seed for (point, replicate) from the master seed. Pure
/// function of job identity — never of execution order or worker count.
std::uint64_t derive_job_seed(std::uint64_t base_seed, std::size_t point_index,
                              std::size_t seed_index);

/// Stable hash of a resolved experiment INI (all sections, sorted).
std::string job_hash(const util::IniFile& experiment);

/// Expands the spec into its deterministic job list: for each zip row
/// (outermost), for each grid combination (first axis slowest), for each
/// replicate seed. Throws std::invalid_argument on empty axes, mismatched
/// zip lengths, or zero seeds_per_point.
std::vector<Job> expand(const CampaignSpec& spec);

/// Number of sweep points the spec expands to (jobs / seeds_per_point):
/// zip_rows(spec) x grid_combos(spec).
std::size_t point_count(const CampaignSpec& spec);

/// Rows of the `[sweep.zip]` axes (1 when there are none).
std::size_t zip_rows(const CampaignSpec& spec);

/// Combinations of the `[sweep]` grid axes (1 when there are none).
std::size_t grid_combos(const CampaignSpec& spec);

/// The value index of each grid axis at flat grid combination `g`, first
/// axis slowest; point index = zip_row * grid_combos(spec) + g.
std::vector<std::size_t> grid_pick(const CampaignSpec& spec, std::size_t g);

/// Parses a campaign INI file:
///
///   [campaign]
///   name = density_sweep
///   seeds = 3            # replicates per point
///   base_seed = 100
///   pair_seeds = false   # true = same seed at every point (paired design)
///   [sweep]              # grid axes: section.key = v1, v2, v3
///   scenario.vehicles = 25, 50, 100
///   [sweep.zip]          # zipped axes (optional, equal lengths)
///   strategy.name = federated, opportunistic
///   strategy.round_duration_s = 30, 200
///   [report]             # tables printed after the aggregate (optional)
///   metrics = final_accuracy, rounds_completed   # one table each
///   scorecard = v2c_bytes_delivered   # optional: at the last grid point
///   ... every other section is the base experiment ...
///
/// `[campaign]`, `[sweep]`, `[sweep.zip]` and `[report]` never reach the
/// base experiment, so adding or editing a report moves no job hash.
/// Throws std::runtime_error / std::invalid_argument on malformed keys
/// (missing '.'), empty value lists, mismatched zip lengths, `seeds < 1`,
/// an unknown `[campaign]` or `[report]` key, a `[report]` without a
/// non-empty `metrics` list, or a sweep point whose experiment does not
/// parse (scenario_from_ini / strategy_from_ini), so a misspelt axis fails
/// before any job runs.
CampaignSpec campaign_from_ini(const util::IniFile& ini);

}  // namespace roadrunner::campaign

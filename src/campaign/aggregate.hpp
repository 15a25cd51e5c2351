// Statistical aggregation over a campaign's job records: per-sweep-point
// mean / sample stddev / 95% confidence interval over the replicate seeds,
// for every metric the jobs recorded (i.e. anything in metrics::Registry
// plus the engine's derived channel/report metrics). This is the layer that
// turns "N raw runs" into the numbers an analyst actually compares — the
// paper reports single runs (§5.2 "one experiment run"); real comparisons
// need replication and uncertainty.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "campaign/store.hpp"

namespace roadrunner::campaign {

struct Stats {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;     ///< sample standard deviation (n-1); 0 for n < 2
  double ci95_half = 0.0;  ///< half-width of the 95% CI (Student-t)
  double min = 0.0;
  double max = 0.0;
};

/// Mean / sample stddev / t-based 95% CI of a value list. Empty input
/// yields a zero Stats with n == 0.
Stats compute_stats(const std::vector<double>& values);

struct PointSummary {
  std::size_t point_index = 0;
  std::string label;
  std::string strategy_name;
  std::map<std::string, Stats> metrics;  ///< sorted by metric name
};

/// True for the series digests run_job records (`<series>:final`, `:mean`,
/// `:timeavg`, `:max`); every other record metric is a counter or a total.
bool is_series_digest(const std::string& name);

/// Groups records by sweep point and aggregates every metric over the
/// point's replicates. A counter some replicates recorded counts as 0 in
/// the others; a series digest aggregates over the replicates that have it.
/// Points come back sorted by point_index.
std::vector<PointSummary> summarize(const std::vector<JobRecord>& records);

/// Long-format aggregate CSV:
///   point_index,point_label,strategy,metric,n,mean,stddev,ci95_half,min,max
void write_aggregate_csv(std::ostream& out,
                         const std::vector<PointSummary>& summaries);

}  // namespace roadrunner::campaign

#include "campaign/aggregate.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <set>
#include <string_view>

#include "util/csv.hpp"

namespace roadrunner::campaign {

namespace {

/// Two-tailed Student-t critical values at 95% for df = 1..30; the normal
/// 1.96 beyond. Campaigns replicate with a handful of seeds, exactly the
/// regime where pretending t == z understates the interval badly.
double t_critical_95(std::size_t df) {
  static constexpr double kTable[30] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df == 0) return 0.0;
  if (df <= 30) return kTable[df - 1];
  return 1.96;
}

}  // namespace

bool is_series_digest(const std::string& name) {
  for (std::string_view suffix : {":final", ":mean", ":timeavg", ":max"}) {
    if (name.size() > suffix.size() && name.ends_with(suffix)) return true;
  }
  return false;
}

Stats compute_stats(const std::vector<double>& values) {
  Stats stats;
  stats.n = values.size();
  if (values.empty()) return stats;
  stats.min = *std::min_element(values.begin(), values.end());
  stats.max = *std::max_element(values.begin(), values.end());
  double sum = 0.0;
  for (double v : values) sum += v;
  stats.mean = sum / static_cast<double>(values.size());
  if (values.size() < 2) return stats;
  double sq = 0.0;
  for (double v : values) {
    const double d = v - stats.mean;
    sq += d * d;
  }
  stats.stddev = std::sqrt(sq / static_cast<double>(values.size() - 1));
  stats.ci95_half = t_critical_95(values.size() - 1) * stats.stddev /
                    std::sqrt(static_cast<double>(values.size()));
  return stats;
}

std::vector<PointSummary> summarize(const std::vector<JobRecord>& records) {
  std::map<std::size_t, std::vector<const JobRecord*>> by_point;
  for (const auto& record : records) {
    by_point[record.point_index].push_back(&record);
  }

  std::vector<PointSummary> summaries;
  summaries.reserve(by_point.size());
  for (const auto& [point_index, replicates] : by_point) {
    // A counter exists only once something increments it, so a replicate
    // that never did counts it as 0; a digest of an empty series stays
    // absent, and its n says how many replicates had one.
    std::set<std::string> counters;
    for (const JobRecord* record : replicates) {
      for (const auto& [name, value] : record->metrics) {
        if (!is_series_digest(name)) counters.insert(name);
      }
    }
    std::map<std::string, std::vector<double>> values;
    for (const JobRecord* record : replicates) {
      std::set<std::string> unrecorded = counters;
      for (const auto& [name, value] : record->metrics) {
        values[name].push_back(value);
        unrecorded.erase(name);
      }
      for (const auto& name : unrecorded) values[name].push_back(0.0);
    }

    // The lowest seed_index labels the point, so the summary is stable
    // however the records were collected.
    const JobRecord* representative = *std::min_element(
        replicates.begin(), replicates.end(),
        [](const JobRecord* a, const JobRecord* b) {
          return a->seed_index < b->seed_index;
        });
    PointSummary summary;
    summary.point_index = point_index;
    summary.label = representative->point_label;
    summary.strategy_name = representative->strategy_name;
    for (const auto& [name, list] : values) {
      summary.metrics[name] = compute_stats(list);
    }
    summaries.push_back(std::move(summary));
  }
  return summaries;
}

void write_aggregate_csv(std::ostream& out,
                         const std::vector<PointSummary>& summaries) {
  util::CsvWriter w{out};
  w.write_row({"point_index", "point_label", "strategy", "metric", "n",
               "mean", "stddev", "ci95_half", "min", "max"});
  for (const auto& summary : summaries) {
    for (const auto& [name, stats] : summary.metrics) {
      w.write_row({util::CsvWriter::field(
                       static_cast<std::uint64_t>(summary.point_index)),
                   summary.label, summary.strategy_name, name,
                   util::CsvWriter::field(static_cast<std::uint64_t>(stats.n)),
                   util::CsvWriter::field(stats.mean),
                   util::CsvWriter::field(stats.stddev),
                   util::CsvWriter::field(stats.ci95_half),
                   util::CsvWriter::field(stats.min),
                   util::CsvWriter::field(stats.max)});
    }
  }
}

}  // namespace roadrunner::campaign

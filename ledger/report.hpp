// Metric values and failure accounting shared by the untraced and traced
// halves of the ledger.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace ledger {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Runs (or campaign jobs) attempted and failed, with one line per distinct
/// problem for the report.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;

  void record(std::size_t runs, bool ok) {
    attempted += runs;
    if (!ok) failed += runs;
  }
  void note(std::string problem) {
    if (std::find(problems.begin(), problems.end(), problem) ==
        problems.end()) {
      problems.push_back(std::move(problem));
    }
  }
};

inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

/// a / b, or 0 when b is 0 (a layer the workload does not exercise).
inline double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

}  // namespace ledger

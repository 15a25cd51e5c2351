// The writer of BENCH_ml.json, the micro-benchmark file the CI perf lane
// compares with tools/perf_compare.py.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "util/csv.hpp"

namespace roadrunner::bench {

/// Machine-readable micro_ml output, in the shape perf_compare.py reads:
///
///   {"bench": <name>,
///    "runs": [{"label": <label>, <metric>: <value>, ...}, ...]}
///
/// Doubles are formatted with the CSV layer's shortest-round-trip helper,
/// so values survive a JSON round trip bit-exactly. Labels and metric keys
/// must not contain quotes or backslashes (they are emitted verbatim).
class BenchJson {
 public:
  explicit BenchJson(std::string bench) : bench_{std::move(bench)} {}

  /// Starts a new run entry; subsequent metric() calls attach to it.
  void begin_run(const std::string& label) {
    runs_.push_back(Run{label, {}});
  }
  void metric(const std::string& key, double value) {
    runs_.back().fields.emplace_back(key, util::CsvWriter::field(value));
  }
  void metric(const std::string& key, std::uint64_t value) {
    runs_.back().fields.emplace_back(key, std::to_string(value));
  }

  bool write(const std::string& path) const {
    std::ofstream out{path};
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    out << "{\n  \"bench\": \"" << bench_ << "\",\n  \"runs\": [\n";
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      out << "    {\"label\": \"" << runs_[i].label << "\"";
      for (const auto& [key, value] : runs_[i].fields) {
        out << ", \"" << key << "\": " << value;
      }
      out << "}" << (i + 1 < runs_.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  struct Run {
    std::string label;
    std::vector<std::pair<std::string, std::string>> fields;
  };

  std::string bench_;
  std::vector<Run> runs_;
};

}  // namespace roadrunner::bench

#include "metrics/registry.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "util/csv.hpp"

namespace roadrunner::metrics {

namespace {

// Commas and quotes in names survive export (CsvWriter applies RFC-4180
// quoting), but the CSV readers are line-oriented, so newline-bearing names
// would shear the long-format export apart. Reject them at the source.
void validate_name(const std::string& name, const char* what) {
  if (name.empty()) {
    throw std::invalid_argument{std::string{"Registry: empty "} + what +
                                " name"};
  }
  if (name.find('\n') != std::string::npos ||
      name.find('\r') != std::string::npos) {
    throw std::invalid_argument{std::string{"Registry: "} + what + " name '" +
                                name + "' contains a newline"};
  }
}

}  // namespace

bool Registry::valid_name(const std::string& name) {
  return !name.empty() && name.find_first_of("\r\n") == std::string::npos;
}

void Registry::add_point(const std::string& series, double time_s,
                         double value) {
  validate_name(series, "series");
  series_[series].emplace_back(time_s, value);
}

void Registry::increment(const std::string& counter, double delta) {
  validate_name(counter, "counter");
  counters_[counter] += delta;
}

void Registry::set_counter(const std::string& counter, double value) {
  validate_name(counter, "counter");
  counters_[counter] = value;
}

const std::vector<Point>& Registry::series(const std::string& name) const {
  const auto it = series_.find(name);
  if (it == series_.end()) {
    throw std::out_of_range{"Registry::series: unknown series " + name};
  }
  return it->second;
}

bool Registry::has_series(const std::string& name) const {
  return series_.contains(name);
}

std::vector<std::string> Registry::series_names() const {
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, points] : series_) names.push_back(name);
  return names;
}

double Registry::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::vector<std::string> Registry::counter_names() const {
  std::vector<std::string> names;
  names.reserve(counters_.size());
  for (const auto& [name, value] : counters_) names.push_back(name);
  return names;
}

double Registry::last_value(const std::string& series, double fallback) const {
  const auto it = series_.find(series);
  if (it == series_.end() || it->second.empty()) return fallback;
  return it->second.back().value;
}

void Registry::export_csv(std::ostream& out) const {
  util::CsvWriter w{out};
  w.write_row({"kind", "name", "time_s", "value"});
  double final_time = 0.0;
  for (const auto& [name, points] : series_) {
    for (const auto& p : points) {
      final_time = std::max(final_time, p.time_s);
      w.write_row({"series", name, util::CsvWriter::field(p.time_s),
                   util::CsvWriter::field(p.value)});
    }
  }
  for (const auto& [name, value] : counters_) {
    w.write_row({"counter", name, util::CsvWriter::field(final_time),
                 util::CsvWriter::field(value)});
  }
}

}  // namespace roadrunner::metrics

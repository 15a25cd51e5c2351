// Metrics registry (paper Req. 4): timestamped-in-simulated-time series and
// monotonic counters, exported as long-format CSV. The Core Simulator
// "outputs an experiment run's metrics timestamped in simulated time to
// enable analysis of the system's evolution" (§4); custom metrics are just
// new series names.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace roadrunner::metrics {

struct Point {
  double time_s = 0.0;
  double value = 0.0;

  template <class Ar>
  void fields(Ar& ar) {
    ar(time_s, value);
  }
};

class Registry {
 public:
  /// Appends (time, value) to the named series. Times need not be
  /// monotonic per series (they are in practice); export preserves order.
  /// Series/counter names may contain commas or quotes (export escapes
  /// them) but never newlines — names with '\n'/'\r', or empty names,
  /// throw std::invalid_argument so export_csv always stays parseable.
  void add_point(const std::string& series, double time_s, double value);

  /// Adds `delta` to a named counter (created at 0).
  void increment(const std::string& counter, double delta = 1.0);

  /// Sets a counter to an absolute value.
  void set_counter(const std::string& counter, double value);

  [[nodiscard]] const std::vector<Point>& series(
      const std::string& name) const;
  [[nodiscard]] bool has_series(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> series_names() const;

  [[nodiscard]] double counter(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> counter_names() const;

  /// Last value of a series, or fallback when empty/absent.
  [[nodiscard]] double last_value(const std::string& series,
                                  double fallback = 0.0) const;

  /// Long-format CSV: kind,name,time_s,value — counters emitted with the
  /// final simulated time (or 0) as their timestamp.
  void export_csv(std::ostream& out) const;

  void clear();

  /// Every series and counter as an archive field list (util/archive.hpp);
  /// the reader holds restored names to the rule add_point enforces.
  template <class Ar>
  void fields(Ar& ar) {
    ar(series_, counters_);
    if constexpr (Ar::kLoading) {
      for (const auto& entry : series_) {
        ar.check(valid_name(entry.first), "bad series name");
      }
      for (const auto& entry : counters_) {
        ar.check(valid_name(entry.first), "bad counter name");
      }
    }
  }

 private:
  [[nodiscard]] static bool valid_name(const std::string& name);

  std::map<std::string, std::vector<Point>> series_;
  std::map<std::string, double> counters_;
};

}  // namespace roadrunner::metrics

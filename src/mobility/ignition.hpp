// Vehicle power schedule. The paper's Req. 1 demands that "a vehicle could
// be turned off during the system's evolution by the driver, making it
// unavailable"; communication to/from a powered-off vehicle fails (§5.1).
// An IgnitionSchedule is a sorted list of [on, off) intervals.
#pragma once

#include <optional>
#include <vector>

namespace roadrunner::mobility {

struct OnInterval {
  double start_s = 0.0;  ///< inclusive
  double end_s = 0.0;    ///< exclusive
};

class IgnitionSchedule {
 public:
  IgnitionSchedule() = default;

  /// Intervals must be non-overlapping and sorted by start; throws otherwise.
  explicit IgnitionSchedule(std::vector<OnInterval> intervals);

  /// Vehicle always on — e.g. RSUs and the cloud server.
  static IgnitionSchedule always_on();

  /// Memoizes the last interval (like Trace::position_at), so one schedule
  /// must not serve concurrent calls.
  [[nodiscard]] bool is_on(double time_s) const;

  /// The next instant strictly after `time_s` at which the on/off state
  /// changes, or nullopt if the state is constant from there on.
  [[nodiscard]] std::optional<double> next_transition(double time_s) const;

  /// Total powered-on duration within [from, to).
  [[nodiscard]] double on_duration(double from_s, double to_s) const;

  [[nodiscard]] const std::vector<OnInterval>& intervals() const {
    return intervals_;
  }
  [[nodiscard]] bool is_always_on() const { return always_on_; }

 private:
  std::vector<OnInterval> intervals_;
  bool always_on_ = false;
  /// Memoized count of intervals starting at or before the last is_on()
  /// query, for the simulator's near-monotonic per-tick access.
  mutable std::size_t cursor_ = 0;
};

}  // namespace roadrunner::mobility

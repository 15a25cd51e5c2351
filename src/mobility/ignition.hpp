// Vehicle power schedule. The paper's Req. 1 demands that "a vehicle could
// be turned off during the system's evolution by the driver, making it
// unavailable"; communication to/from a powered-off vehicle fails (§5.1).
// An IgnitionSchedule is a sorted list of [on, off) intervals.
#pragma once

#include <vector>

namespace roadrunner::mobility {

struct OnInterval {
  double start_s = 0.0;  ///< inclusive
  double end_s = 0.0;    ///< exclusive
};

/// The power state at an instant and the window it holds over: is_on() is
/// `on` throughout [from_s, until_s) and differs at until_s and just before
/// from_s. The bounds are infinite where the state never changes.
struct PowerState {
  bool on = false;
  double from_s = 0.0;
  double until_s = 0.0;
};

class IgnitionSchedule {
 public:
  IgnitionSchedule() = default;

  /// Intervals must be finite, non-empty, non-overlapping and sorted by
  /// start; throws std::invalid_argument otherwise. Back-to-back intervals
  /// are allowed and power the vehicle without a gap.
  explicit IgnitionSchedule(std::vector<OnInterval> intervals);

  /// Vehicle always on — e.g. RSUs and the cloud server.
  static IgnitionSchedule always_on();

  /// A pure binary search; safe to call concurrently.
  [[nodiscard]] bool is_on(double time_s) const;

  /// is_on(time_s) with the maximal window it holds over: back-to-back
  /// intervals merge into one on-window, so until_s is the next instant the
  /// state really flips. A pure function, like is_on().
  [[nodiscard]] PowerState state_at(double time_s) const;

  /// Total powered-on duration within [from, to).
  [[nodiscard]] double on_duration(double from_s, double to_s) const;

  [[nodiscard]] const std::vector<OnInterval>& intervals() const {
    return intervals_;
  }
  [[nodiscard]] bool is_always_on() const { return always_on_; }

 private:
  /// Number of intervals starting at or before `time_s`; the last of them
  /// is the only one that can contain it.
  [[nodiscard]] std::size_t started_by(double time_s) const;

  std::vector<OnInterval> intervals_;
  bool always_on_ = false;
};

}  // namespace roadrunner::mobility

#include "mobility/ignition.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace roadrunner::mobility {

IgnitionSchedule::IgnitionSchedule(std::vector<OnInterval> intervals)
    : intervals_{std::move(intervals)} {
  for (std::size_t i = 0; i < intervals_.size(); ++i) {
    // NaN would pass the ordering checks below, since every comparison
    // with it is false, and break the binary search.
    if (!std::isfinite(intervals_[i].start_s) ||
        !std::isfinite(intervals_[i].end_s)) {
      throw std::invalid_argument{"IgnitionSchedule: non-finite interval"};
    }
    if (intervals_[i].end_s <= intervals_[i].start_s) {
      throw std::invalid_argument{"IgnitionSchedule: empty interval"};
    }
    if (i > 0 && intervals_[i].start_s < intervals_[i - 1].end_s) {
      throw std::invalid_argument{"IgnitionSchedule: overlapping intervals"};
    }
  }
}

IgnitionSchedule IgnitionSchedule::always_on() {
  IgnitionSchedule s;
  s.always_on_ = true;
  return s;
}

std::size_t IgnitionSchedule::started_by(double time_s) const {
  const auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), time_s,
      [](double t, const OnInterval& iv) { return t < iv.start_s; });
  return static_cast<std::size_t>(it - intervals_.begin());
}

bool IgnitionSchedule::is_on(double time_s) const {
  if (always_on_) return true;
  const std::size_t k = started_by(time_s);
  return k > 0 && time_s < intervals_[k - 1].end_s;
}

PowerState IgnitionSchedule::state_at(double time_s) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (always_on_) return {true, -kInf, kInf};
  const std::size_t n = intervals_.size();
  const std::size_t k = started_by(time_s);
  if (k > 0 && time_s < intervals_[k - 1].end_s) {
    std::size_t first = k - 1;
    std::size_t last = k - 1;
    while (first > 0 &&
           intervals_[first - 1].end_s == intervals_[first].start_s) {
      --first;
    }
    while (last + 1 < n &&
           intervals_[last].end_s == intervals_[last + 1].start_s) {
      ++last;
    }
    return {true, intervals_[first].start_s, intervals_[last].end_s};
  }
  // Off between the interval that ended before time_s and the next start.
  return {false, k > 0 ? intervals_[k - 1].end_s : -kInf,
          k < n ? intervals_[k].start_s : kInf};
}

double IgnitionSchedule::on_duration(double from_s, double to_s) const {
  if (to_s <= from_s) return 0.0;
  if (always_on_) return to_s - from_s;
  double total = 0.0;
  for (const auto& iv : intervals_) {
    const double lo = std::max(from_s, iv.start_s);
    const double hi = std::min(to_s, iv.end_s);
    if (hi > lo) total += hi - lo;
  }
  return total;
}

}  // namespace roadrunner::mobility

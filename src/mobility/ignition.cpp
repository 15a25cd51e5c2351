#include "mobility/ignition.hpp"

#include <algorithm>
#include <stdexcept>

namespace roadrunner::mobility {

IgnitionSchedule::IgnitionSchedule(std::vector<OnInterval> intervals)
    : intervals_{std::move(intervals)} {
  for (std::size_t i = 0; i < intervals_.size(); ++i) {
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

bool IgnitionSchedule::is_on(double time_s) const {
  if (always_on_) return true;
  // cursor_ counts the intervals starting at or before time_s, so the last
  // of them is the only one that can contain it. The simulator queries
  // near-monotonically: keep the last count while it is still right and
  // search only on a rewind or when time has passed the next start.
  if (cursor_ > 0 && time_s < intervals_[cursor_ - 1].start_s) cursor_ = 0;
  if (cursor_ < intervals_.size() && intervals_[cursor_].start_s <= time_s) {
    const auto it = std::upper_bound(
        intervals_.begin() + static_cast<std::ptrdiff_t>(cursor_),
        intervals_.end(), time_s,
        [](double t, const OnInterval& iv) { return t < iv.start_s; });
    cursor_ = static_cast<std::size_t>(it - intervals_.begin());
  }
  return cursor_ > 0 && time_s < intervals_[cursor_ - 1].end_s;
}

std::optional<double> IgnitionSchedule::next_transition(double time_s) const {
  if (always_on_) return std::nullopt;
  for (const auto& iv : intervals_) {
    if (iv.start_s > time_s) return iv.start_s;
    if (iv.end_s > time_s) return iv.end_s;
  }
  return std::nullopt;
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

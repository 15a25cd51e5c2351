#include "mobility/trace.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace roadrunner::mobility {

namespace {

// Cursors, binary searches and the fleet's segment cache all assume ordered
// times, which NaN defeats (every comparison with it is false).
void check_finite(const TraceSample& s, const char* who) {
  if (!std::isfinite(s.time_s) || !std::isfinite(s.position.x) ||
      !std::isfinite(s.position.y)) {
    throw std::invalid_argument{std::string{who} + ": non-finite sample"};
  }
}

}  // namespace

Trace::Trace(std::vector<TraceSample> samples) : samples_{std::move(samples)} {
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    check_finite(samples_[i], "Trace");
    if (i > 0 && samples_[i].time_s <= samples_[i - 1].time_s) {
      throw std::invalid_argument{"Trace: samples not strictly increasing"};
    }
  }
}

double Trace::end_time() const {
  if (samples_.empty()) throw std::logic_error{"Trace::end_time: empty"};
  return samples_.back().time_s;
}

Position Trace::position_at(double time_s) const {
  return position_at(time_s, cursor_);
}

Position Trace::position_at(double time_s, std::size_t& cursor) const {
  if (samples_.empty()) throw std::logic_error{"Trace::position_at: empty"};
  if (time_s <= samples_.front().time_s) return samples_.front().position;
  if (time_s >= samples_.back().time_s) return samples_.back().position;

  // The simulator queries near-monotonically; memoize the last segment and
  // fall back to binary search on rewind/jump.
  if (cursor >= samples_.size() - 1 || samples_[cursor].time_s > time_s) {
    cursor = 0;
  }
  if (samples_[cursor + 1].time_s < time_s) {
    const auto it = std::upper_bound(
        samples_.begin() + static_cast<std::ptrdiff_t>(cursor),
        samples_.end(), time_s,
        [](double t, const TraceSample& s) { return t < s.time_s; });
    cursor = static_cast<std::size_t>(it - samples_.begin()) - 1;
  }
  const TraceSample& a = samples_[cursor];
  const TraceSample& b = samples_[cursor + 1];
  const double t = (time_s - a.time_s) / (b.time_s - a.time_s);
  return lerp(a.position, b.position, t);
}

double Trace::path_length() const {
  double total = 0.0;
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    total += distance(samples_[i - 1].position, samples_[i].position);
  }
  return total;
}

void Trace::append(TraceSample sample) {
  check_finite(sample, "Trace::append");
  if (!samples_.empty() && sample.time_s <= samples_.back().time_s) {
    throw std::invalid_argument{"Trace::append: non-increasing time"};
  }
  samples_.push_back(sample);
}

}  // namespace roadrunner::mobility

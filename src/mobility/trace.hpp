// Spatial trajectories ("travel paths", paper Fig. 1): a time-ordered list
// of position samples per vehicle. Trajectories "enter the Core Simulator
// statically, e.g. as a file of GPS traces" and are replayed — the learning
// never influences them (§4).
#pragma once

#include <cstdint>
#include <vector>

#include "mobility/geo.hpp"

namespace roadrunner::mobility {

struct TraceSample {
  double time_s = 0.0;
  Position position;
};

/// One vehicle's trajectory. Samples must be finite and strictly increasing
/// in time; positions between samples are linearly interpolated, and the
/// trace is clamped (constant) outside its time span.
class Trace {
 public:
  Trace() = default;
  /// Throws std::invalid_argument on a non-finite time or coordinate, or
  /// on times that do not strictly increase.
  explicit Trace(std::vector<TraceSample> samples);

  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] std::size_t sample_count() const { return samples_.size(); }
  [[nodiscard]] const std::vector<TraceSample>& samples() const {
    return samples_;
  }

  [[nodiscard]] double end_time() const;

  /// Interpolated position at `time_s` (clamped to the span ends).
  /// Precondition: trace is non-empty.
  ///
  /// At an exact interior sample time the result depends on query history:
  /// the memoized segment is kept while its end equals `time_s`, giving
  /// lerp(a, b, 1), which may differ by an ulp from the next segment's
  /// lerp(b, c, 0) == b. Callers that replay a run must replay its queries.
  [[nodiscard]] Position position_at(double time_s) const;

  /// position_at() with the caller's memoized segment: `cursor` (the index
  /// of the segment's first sample) is read and updated exactly as the
  /// trace's own is. FleetModel's segment cache keeps one per vehicle.
  [[nodiscard]] Position position_at(double time_s, std::size_t& cursor) const;

  /// Total path length in meters.
  [[nodiscard]] double path_length() const;

  /// Throws std::invalid_argument unless `sample` is finite and later than
  /// the last one.
  void append(TraceSample sample);

 private:
  std::vector<TraceSample> samples_;
  mutable std::size_t cursor_ = 0;  // memoized segment for sequential access
};

}  // namespace roadrunner::mobility

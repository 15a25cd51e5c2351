// Cellular coverage model for V2C. The paper notes the cloud can connect to
// any powered-on vehicle "barring coverage issues stemming from e.g.
// tunnels" (§3) — we model those as circular dead zones in the city plane.
#pragma once

#include <vector>

#include "mobility/geo.hpp"
#include "util/rng.hpp"

namespace roadrunner::comm {

struct DeadZone {
  mobility::Position center;
  double radius_m = 0.0;
};

class CoverageModel {
 public:
  /// Full coverage everywhere.
  CoverageModel() = default;

  explicit CoverageModel(std::vector<DeadZone> dead_zones);

  [[nodiscard]] bool has_coverage(const mobility::Position& p) const;

  [[nodiscard]] const std::vector<DeadZone>& dead_zones() const {
    return dead_zones_;
  }

 private:
  std::vector<DeadZone> dead_zones_;
};

/// Random 300 m dead zones in a `city_size_m` square, drawn from `rng`
/// until their summed area reaches `fraction` of the city (overlaps are not
/// subtracted, so the covered share is approximate). `fraction` 0 gives
/// full coverage and draws nothing. Throws std::invalid_argument unless
/// `fraction` is in [0, 1].
CoverageModel carve_dead_zones(double city_size_m, double fraction,
                               util::Rng& rng);

}  // namespace roadrunner::comm

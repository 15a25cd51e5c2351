#include "comm/coverage.hpp"

#include <stdexcept>

namespace roadrunner::comm {

CoverageModel::CoverageModel(std::vector<DeadZone> dead_zones)
    : dead_zones_{std::move(dead_zones)} {
  for (const auto& z : dead_zones_) {
    if (z.radius_m < 0.0) {
      throw std::invalid_argument{"CoverageModel: negative radius"};
    }
  }
}

CoverageModel carve_dead_zones(double city_size_m, double fraction,
                               util::Rng& rng) {
  if (!(fraction >= 0.0 && fraction <= 1.0)) {
    throw std::invalid_argument{"carve_dead_zones: fraction out of [0, 1]"};
  }
  constexpr double kRadius = 300.0;
  const double zone_area = 3.14159 * kRadius * kRadius;
  const double target = fraction * city_size_m * city_size_m;
  std::vector<DeadZone> zones;
  for (double carved = 0.0; carved < target; carved += zone_area) {
    zones.push_back(DeadZone{
        {rng.uniform(0.0, city_size_m), rng.uniform(0.0, city_size_m)},
        kRadius});
  }
  return CoverageModel{std::move(zones)};
}

bool CoverageModel::has_coverage(const mobility::Position& p) const {
  for (const auto& z : dead_zones_) {
    if (mobility::distance_squared(p, z.center) <= z.radius_m * z.radius_m) {
      return false;
    }
  }
  return true;
}

}  // namespace roadrunner::comm

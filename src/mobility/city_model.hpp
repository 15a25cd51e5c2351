// Synthetic urban mobility generator — the substitute for the paper's
// proprietary "real-world GPS dataset of the city of Gothenburg" (§5.2).
//
// Vehicles live on a Manhattan street grid and alternate between parked
// (ignition off) dwell periods and trips to random intersections, driving
// staircase routes at urban speeds. What the learning experiment needs from
// mobility — time-varying encounter opportunities whose count per round
// fluctuates with density, speed, and V2X range, plus vehicles dropping out
// mid-round when drivers park — is produced by construction; the knobs below
// are calibrated in examples/paper/fig4.ini to land in the paper's regime
// (0–20 V2X exchanges per 200 s round, average just below 10; checked by
// fig4.claims).
// See DESIGN.md §1 for the substitution rationale.
#pragma once

#include <cstdint>

#include "mobility/fleet_model.hpp"
#include "util/rng.hpp"

namespace roadrunner::mobility {

struct CityModelConfig {
  double city_size_m = 4000.0;      ///< square city side
  double block_size_m = 200.0;      ///< street grid spacing
  double duration_s = 20000.0;      ///< how much mobility to generate
  double speed_mean_mps = 10.0;     ///< urban cruise speed (~36 km/h)
  double speed_stddev_mps = 2.0;
  double dwell_mean_s = 500.0;      ///< mean parked (off) period
  double initial_on_probability = 0.7;  ///< fraction driving at t=0
  int min_trip_blocks = 3;          ///< trip length in grid blocks
  int max_trip_blocks = 14;
  /// Probability a parked vehicle keeps its ignition on through the dwell
  /// (driver waiting); still stationary but reachable.
  double dwell_on_probability = 0.1;
  std::uint64_t seed = 1;
};

/// Generates `vehicle_count` independent vehicle tracks over the configured
/// duration. Deterministic given the config.
FleetModel make_city_fleet(std::size_t vehicle_count,
                           const CityModelConfig& config = {});

/// Generates a single vehicle's track (exposed for tests).
VehicleTrack make_city_vehicle(const CityModelConfig& config, util::Rng& rng);

/// Places `count` RSUs on a uniform sub-grid of intersections and registers
/// them as static nodes; returns their NodeIds.
std::vector<NodeId> add_grid_rsus(FleetModel& fleet,
                                  const CityModelConfig& config,
                                  std::size_t count);

}  // namespace roadrunner::mobility

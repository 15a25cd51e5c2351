// Flat uniform grid for proximity queries over the fleet.
//
// Encounter detection is the hot path of the mobility→communication coupling
// (V2X viability is "strongly dependent on the vehicles' spatial dynamics",
// §3): every mobility tick asks "which pairs are within V2X range?". The
// grid covers the bounding box of the indexed points with square cells at
// least the query radius wide, so each query scans only the 3x3
// neighbourhood. Points are binned by counting sort into flat buffers that
// rebuild() reuses, so a tick allocates nothing once the buffers have grown
// — O(n + cells + pairs) per build and scan, benchmarked in
// bench/micro_core.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "mobility/geo.hpp"

namespace roadrunner::mobility {

class SpatialIndex {
 public:
  /// An empty index; rebuild() before querying.
  SpatialIndex() = default;

  /// Builds an index over `positions` with cells sized `cell_size` meters
  /// (use the query radius for best performance; any positive value is
  /// correct).
  SpatialIndex(const std::vector<Position>& positions, double cell_size);

  /// Re-indexes `positions`, reusing this index's buffers. Throws on a
  /// non-positive `cell_size`, a non-finite coordinate, or more than 2^28
  /// points (ids are 32-bit). The grid's cells are `cell_size` wide unless
  /// the points' extent would need more than about 4 cells per point; then
  /// the cells grow, which keeps the buffers O(n) and every query exact.
  void rebuild(const std::vector<Position>& positions, double cell_size);

  /// Indices of all points within `radius` of `query` (excluding `exclude`
  /// if in range of the vector), in ascending index order — deterministic
  /// regardless of insertion order (DESIGN.md §10). `query` may lie outside
  /// the indexed extent. Requires radius <= cell_size for the 3x3
  /// neighbourhood scan to be exhaustive; throws otherwise.
  [[nodiscard]] std::vector<std::size_t> within(
      const Position& query, double radius,
      std::size_t exclude = static_cast<std::size_t>(-1)) const;

  /// All unordered pairs (i < j) with distance <= radius, sorted
  /// lexicographically — same determinism guarantee as within().
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> pairs_within(
      double radius) const;

  /// pairs_within() as packed keys `i << 32 | j`, ascending, written into
  /// `keys` (cleared first, so a caller's buffer keeps its capacity across
  /// ticks). Each slot, in cell order, tests the later slots of its own cell
  /// and the cell to its right, then the three cells above: a half stencil
  /// that tests every candidate pair once.
  void pair_keys_within(double radius, std::vector<std::uint64_t>& keys) const;

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  void check_radius(double radius, const char* who) const;

  std::size_t size_ = 0;
  double cell_size_ = 0.0;  ///< as requested: the largest valid radius
  Position origin_;         ///< lower-left corner of the grid
  double inv_cell_ = 0.0;   ///< 1 / the (possibly grown) binning cell side
  /// Columns and rows, counting an empty border one cell wide.
  std::uint32_t nx_ = 0, ny_ = 0;
  /// Cell id (row-major, cx + cy * nx_, border included) of every point.
  std::vector<std::uint32_t> point_cell_;
  /// Counting-sort output: cell c holds the slots [cell_start_[c],
  /// cell_start_[c + 1]) of `order_` (point indices, ascending within a
  /// cell) and of `sorted_` (their positions, for a cache-friendly scan).
  std::vector<std::uint32_t> cell_start_;
  std::vector<std::uint32_t> order_;
  std::vector<Position> sorted_;
  std::vector<std::uint32_t> slot_cell_;  ///< cell id of each slot
};

}  // namespace roadrunner::mobility

#include "mobility/spatial_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace roadrunner::mobility {

namespace {

// Grid cells allowed per indexed point before the cell side grows.
constexpr double kMaxCellsPerPoint = 4.0;

// Points are binned with cells this much wider than requested. Two points
// within the radius then differ by less than one cell in exact arithmetic
// by a margin far above the rounding of the key arithmetic (about 1e-16 per
// cell of grid extent), so they never land two cells apart and the 3x3
// scan stays exact even for pairs at exactly the radius.
constexpr double kBinSlack = 1.0 + 1e-6;

// Keeps point and cell ids (≤ kMaxCellsPerPoint per point) in 32 bits.
constexpr std::size_t kMaxPoints = std::size_t{1} << 28;

}  // namespace

SpatialIndex::SpatialIndex(const std::vector<Position>& positions,
                           double cell_size) {
  rebuild(positions, cell_size);
}

void SpatialIndex::rebuild(const std::vector<Position>& positions,
                           double cell_size) {
  if (!(cell_size > 0.0)) {
    throw std::invalid_argument{"SpatialIndex: cell_size <= 0"};
  }
  if (positions.size() > kMaxPoints) {
    throw std::length_error{"SpatialIndex: too many points"};
  }
  size_ = positions.size();
  cell_size_ = cell_size;
  const std::size_t n = size_;

  constexpr double kInf = std::numeric_limits<double>::infinity();
  Position lo{kInf, kInf};
  Position hi{-kInf, -kInf};
  for (const Position& p : positions) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
      throw std::invalid_argument{"SpatialIndex: non-finite position"};
    }
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y)};
  }
  if (n == 0) lo = hi = Position{};
  origin_ = lo;

  // Columns and rows use the same expression as the point keys below, so
  // the extreme points land in the last column and row exactly.
  const double max_cells =
      kMaxCellsPerPoint * static_cast<double>(std::max<std::size_t>(n, 1));
  double cell = cell_size * kBinSlack;
  double cols = 1.0;
  double rows = 1.0;
  for (;;) {
    inv_cell_ = 1.0 / cell;
    cols = std::floor((hi.x - lo.x) * inv_cell_) + 1.0;
    rows = std::floor((hi.y - lo.y) * inv_cell_) + 1.0;
    if (cols * rows <= max_cells) break;
    cell *= 2.0;
  }
  // An empty border one cell wide surrounds the points' cells, so every
  // occupied cell has all eight neighbours and scans need no clipping.
  nx_ = static_cast<std::uint32_t>(cols) + 2;
  ny_ = static_cast<std::uint32_t>(rows) + 2;
  const std::size_t cells = std::size_t{nx_} * ny_;

  // Counting sort: per-cell counts, prefix sums to cell ends, then a
  // backwards fill that leaves each cell's start in place and its points in
  // ascending index order.
  point_cell_.resize(n);
  cell_start_.assign(cells + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto cx =
        static_cast<std::uint32_t>((positions[i].x - lo.x) * inv_cell_);
    const auto cy =
        static_cast<std::uint32_t>((positions[i].y - lo.y) * inv_cell_);
    point_cell_[i] = (cx + 1) + (cy + 1) * nx_;
    ++cell_start_[point_cell_[i]];
  }
  for (std::size_t c = 1; c < cells; ++c) cell_start_[c] += cell_start_[c - 1];
  cell_start_[cells] = static_cast<std::uint32_t>(n);
  order_.resize(n);
  sorted_.resize(n);
  slot_cell_.resize(n);
  for (std::size_t i = n; i-- > 0;) {
    const std::uint32_t slot = --cell_start_[point_cell_[i]];
    order_[slot] = static_cast<std::uint32_t>(i);
    sorted_[slot] = positions[i];
    slot_cell_[slot] = point_cell_[i];
  }
}

void SpatialIndex::check_radius(double radius, const char* who) const {
  if (radius > cell_size_) {
    throw std::invalid_argument{std::string{who} + ": radius > cell_size"};
  }
}

std::vector<std::size_t> SpatialIndex::within(const Position& query,
                                              double radius,
                                              std::size_t exclude) const {
  check_radius(radius, "SpatialIndex::within");
  const double r2 = radius * radius;
  std::vector<std::size_t> out;
  if (size_ == 0) return out;
  // The 3x3 neighbourhood of the query's cell (border included), clipped
  // to the grid, as the query may lie outside it: one run of slots per row.
  const double cx = std::floor((query.x - origin_.x) * inv_cell_) + 1.0;
  const double cy = std::floor((query.y - origin_.y) * inv_cell_) + 1.0;
  const double x0 = std::max(cx - 1.0, 0.0);
  const double x1 = std::min(cx + 1.0, static_cast<double>(nx_) - 1.0);
  const double y0 = std::max(cy - 1.0, 0.0);
  const double y1 = std::min(cy + 1.0, static_cast<double>(ny_) - 1.0);
  if (!(x0 <= x1 && y0 <= y1)) return out;
  const auto first = static_cast<std::uint32_t>(x0);
  const auto last = static_cast<std::uint32_t>(x1);
  for (auto row = static_cast<std::uint32_t>(y0);
       row <= static_cast<std::uint32_t>(y1); ++row) {
    const std::size_t base = std::size_t{row} * nx_;
    for (std::uint32_t k = cell_start_[base + first];
         k < cell_start_[base + last + 1]; ++k) {
      if (order_[k] != exclude && distance_squared(sorted_[k], query) <= r2) {
        out.push_back(order_[k]);
      }
    }
  }
  // A run holds ascending indices per cell, not across its cells.
  std::sort(out.begin(), out.end());
  return out;
}

void SpatialIndex::pair_keys_within(double radius,
                                    std::vector<std::uint64_t>& keys) const {
  check_radius(radius, "SpatialIndex::pairs_within");
  const double r2 = radius * radius;
  // Per-thread scratch, reused across calls: the keys in scan order, and
  // per point the start of its run in `keys` (counted by first index).
  thread_local std::vector<std::uint64_t> found;
  thread_local std::vector<std::uint32_t> run;
  found.clear();
  run.assign(size_ + 1, 0);
  // Half stencil in slot order: cell c meets itself, its right neighbour
  // (the same row run) and the three cells above it (one run of the next
  // row), so each neighbouring cell pair is visited from exactly one side.
  // The empty border makes all of them exist; empty cells are never visited.
  for (std::uint32_t k = 0; k < size_;) {
    const std::size_t c = slot_cell_[k];
    const std::uint32_t end = cell_start_[c + 1];
    const std::uint32_t row_end = cell_start_[c + 2];
    const std::uint32_t above_begin = cell_start_[c + nx_ - 1];
    const std::uint32_t above_end = cell_start_[c + nx_ + 2];
    for (; k < end; ++k) {
      const Position p = sorted_[k];
      const std::uint32_t i = order_[k];
      const auto emit = [&](std::uint32_t l) {
        if (distance_squared(sorted_[l], p) <= r2) {
          const std::uint32_t j = order_[l];
          const std::uint64_t lo = std::min(i, j);
          found.push_back(lo << 32 | std::max(i, j));
          ++run[lo + 1];
        }
      };
      for (std::uint32_t l = k + 1; l < row_end; ++l) emit(l);
      for (std::uint32_t l = above_begin; l < above_end; ++l) emit(l);
    }
  }
  // Counting sort by first index, then each point's few partners by the
  // second: linear in pairs and points, where one sort of all keys is not.
  for (std::size_t i = 1; i <= size_; ++i) run[i] += run[i - 1];
  keys.resize(found.size());
  for (const std::uint64_t key : found) keys[run[key >> 32]++] = key;
  std::uint32_t first = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    if (run[i] - first > 1) {
      std::sort(keys.begin() + first, keys.begin() + run[i]);
    }
    first = run[i];
  }
}

std::vector<std::pair<std::size_t, std::size_t>> SpatialIndex::pairs_within(
    double radius) const {
  std::vector<std::uint64_t> keys;
  pair_keys_within(radius, keys);
  std::vector<std::pair<std::size_t, std::size_t>> out;
  out.reserve(keys.size());
  for (const std::uint64_t key : keys) {
    out.emplace_back(key >> 32, key & 0xffffffffU);
  }
  return out;
}

}  // namespace roadrunner::mobility

#include "mobility/spatial_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

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
  positions_ = positions;
  cell_size_ = cell_size;
  const std::size_t n = positions_.size();

  constexpr double kInf = std::numeric_limits<double>::infinity();
  Position lo{kInf, kInf};
  Position hi{-kInf, -kInf};
  for (const Position& p : positions_) {
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
  nx_ = static_cast<std::uint32_t>(cols);
  ny_ = static_cast<std::uint32_t>(rows);
  const std::size_t cells = std::size_t{nx_} * ny_;

  // Counting sort: per-cell counts, prefix sums to cell ends, then a
  // backwards fill that leaves each cell's start in place and its points in
  // ascending index order.
  point_cell_.resize(n);
  cell_start_.assign(cells + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto cx =
        static_cast<std::uint32_t>((positions_[i].x - lo.x) * inv_cell_);
    const auto cy =
        static_cast<std::uint32_t>((positions_[i].y - lo.y) * inv_cell_);
    point_cell_[i] = cx + cy * nx_;
    ++cell_start_[point_cell_[i]];
  }
  for (std::size_t c = 1; c < cells; ++c) cell_start_[c] += cell_start_[c - 1];
  cell_start_[cells] = static_cast<std::uint32_t>(n);
  order_.resize(n);
  sorted_.resize(n);
  for (std::size_t i = n; i-- > 0;) {
    const std::uint32_t slot = --cell_start_[point_cell_[i]];
    order_[slot] = static_cast<std::uint32_t>(i);
    sorted_[slot] = positions_[i];
  }
}

template <typename Fn>
void SpatialIndex::for_each_neighbour_run(double cx, double cy,
                                          Fn&& fn) const {
  const double x0 = std::max(cx - 1.0, 0.0);
  const double x1 = std::min(cx + 1.0, static_cast<double>(nx_) - 1.0);
  const double y0 = std::max(cy - 1.0, 0.0);
  const double y1 = std::min(cy + 1.0, static_cast<double>(ny_) - 1.0);
  if (!(x0 <= x1 && y0 <= y1)) return;
  const auto first = static_cast<std::uint32_t>(x0);
  const auto last = static_cast<std::uint32_t>(x1);
  for (auto row = static_cast<std::uint32_t>(y0);
       row <= static_cast<std::uint32_t>(y1); ++row) {
    const std::size_t base = std::size_t{row} * nx_;
    fn(cell_start_[base + first], cell_start_[base + last + 1]);
  }
}

std::vector<std::size_t> SpatialIndex::within(const Position& query,
                                              double radius,
                                              std::size_t exclude) const {
  if (radius > cell_size_) {
    throw std::invalid_argument{"SpatialIndex::within: radius > cell_size"};
  }
  const double r2 = radius * radius;
  std::vector<std::size_t> out;
  if (positions_.empty()) return out;
  for_each_neighbour_run(
      std::floor((query.x - origin_.x) * inv_cell_),
      std::floor((query.y - origin_.y) * inv_cell_),
      [&](std::uint32_t begin, std::uint32_t end) {
        for (std::uint32_t k = begin; k < end; ++k) {
          if (order_[k] != exclude &&
              distance_squared(sorted_[k], query) <= r2) {
            out.push_back(order_[k]);
          }
        }
      });
  // A run holds ascending indices per cell, not across its cells.
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::size_t, std::size_t>> SpatialIndex::pairs_within(
    double radius) const {
  if (radius > cell_size_) {
    throw std::invalid_argument{
        "SpatialIndex::pairs_within: radius > cell_size"};
  }
  const double r2 = radius * radius;
  std::vector<std::pair<std::size_t, std::size_t>> out;
  // Walking the points in index order and keeping only partners j > i
  // emits the pairs already sorted by their first index; only each point's
  // few partners need sorting.
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    const Position p = positions_[i];
    const std::size_t first = out.size();
    const std::uint32_t cell = point_cell_[i];
    for_each_neighbour_run(
        static_cast<double>(cell % nx_), static_cast<double>(cell / nx_),
        [&](std::uint32_t begin, std::uint32_t end) {
          for (std::uint32_t k = begin; k < end; ++k) {
            const std::size_t j = order_[k];
            if (j > i && distance_squared(sorted_[k], p) <= r2) {
              out.emplace_back(i, j);
            }
          }
        });
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
  }
  return out;
}

}  // namespace roadrunner::mobility

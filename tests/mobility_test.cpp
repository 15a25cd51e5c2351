// Tests for the fleet-model substrate: geometry, traces, ignition
// schedules, the spatial index (property-tested against brute force), the
// synthetic city generator, and the trace-file loader (round trips and
// its rejection of malformed files with file+line context).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "mobility/city_model.hpp"
#include "mobility/fleet_model.hpp"
#include "mobility/spatial_index.hpp"
#include "mobility/trace_file.hpp"

namespace roadrunner::mobility {
namespace {

// ------------------------------------------------------------------- geo --

TEST(Geo, DistanceAndLerp) {
  const Position a{0, 0}, b{3, 4};
  EXPECT_DOUBLE_EQ(distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(distance_squared(a, b), 25.0);
  const Position mid = lerp(a, b, 0.5);
  EXPECT_DOUBLE_EQ(mid.x, 1.5);
  EXPECT_DOUBLE_EQ(mid.y, 2.0);
}

TEST(Geo, ProjectUnprojectRoundTrip) {
  const GeoPoint ref = kGothenburgCenter;
  const GeoPoint p{57.72, 11.99};
  const Position xy = project(p, ref);
  const GeoPoint back = unproject(xy, ref);
  EXPECT_NEAR(back.latitude_deg, p.latitude_deg, 1e-9);
  EXPECT_NEAR(back.longitude_deg, p.longitude_deg, 1e-9);
  // ~1.1 km north, ~0.9 km east of the centre — sanity of magnitudes.
  EXPECT_NEAR(xy.y, 1236.0, 20.0);
  EXPECT_GT(xy.x, 500.0);
}

// ----------------------------------------------------------------- trace --

TEST(Trace, InterpolatesLinearly) {
  Trace t{{{0.0, {0, 0}}, {10.0, {100, 0}}, {20.0, {100, 50}}}};
  EXPECT_EQ(t.position_at(5.0), (Position{50, 0}));
  EXPECT_EQ(t.position_at(15.0), (Position{100, 25}));
}

TEST(Trace, ClampsOutsideSpan) {
  Trace t{{{10.0, {1, 2}}, {20.0, {3, 4}}}};
  EXPECT_EQ(t.position_at(0.0), (Position{1, 2}));
  EXPECT_EQ(t.position_at(99.0), (Position{3, 4}));
  EXPECT_DOUBLE_EQ(t.end_time(), 20.0);
}

TEST(Trace, RandomAccessAfterSequentialAccess) {
  std::vector<TraceSample> samples;
  for (int i = 0; i <= 100; ++i) {
    samples.push_back({static_cast<double>(i), {static_cast<double>(i), 0}});
  }
  Trace t{std::move(samples)};
  // Sweep forward (warms the cursor), then jump backwards.
  for (int i = 0; i <= 100; ++i) {
    EXPECT_DOUBLE_EQ(t.position_at(i + 0.5).x,
                     std::min(100.0, i + 0.5));
  }
  EXPECT_DOUBLE_EQ(t.position_at(3.25).x, 3.25);
  EXPECT_DOUBLE_EQ(t.position_at(97.75).x, 97.75);
  EXPECT_DOUBLE_EQ(t.position_at(3.25).x, 3.25);
}

TEST(Trace, RejectsNonMonotonicSamples) {
  EXPECT_THROW((Trace{{{1.0, {}}, {1.0, {}}}}), std::invalid_argument);
  Trace t{{{1.0, {}}}};
  EXPECT_THROW(t.append({0.5, {}}), std::invalid_argument);
  EXPECT_NO_THROW(t.append({1.5, {}}));

  // NaN compares false both ways, so an ordering check alone lets it in;
  // non-finite times and positions are rejected outright.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((Trace{{{nan, {}}}}), std::invalid_argument);
  EXPECT_THROW((Trace{{{0.0, {}}, {nan, {}}}}), std::invalid_argument);
  EXPECT_THROW((Trace{{{0.0, {}}, {inf, {}}}}), std::invalid_argument);
  EXPECT_THROW((Trace{{{-inf, {}}, {0.0, {}}}}), std::invalid_argument);
  EXPECT_THROW((Trace{{{0.0, {nan, 0.0}}}}), std::invalid_argument);
  EXPECT_THROW((Trace{{{0.0, {0.0, -inf}}}}), std::invalid_argument);
  EXPECT_THROW(t.append({nan, {}}), std::invalid_argument);
  EXPECT_THROW(t.append({inf, {}}), std::invalid_argument);
  EXPECT_THROW(t.append({2.0, {inf, 0.0}}), std::invalid_argument);
  EXPECT_THROW(t.append({2.0, {0.0, nan}}), std::invalid_argument);
  EXPECT_EQ(t.sample_count(), 2U);
}

TEST(Trace, PathLength) {
  Trace t{{{0.0, {0, 0}}, {10.0, {30, 40}}, {20.0, {30, 40}}}};
  EXPECT_DOUBLE_EQ(t.path_length(), 50.0);
}

TEST(Trace, EmptyTraceThrows) {
  Trace t;
  EXPECT_THROW((void)t.position_at(0.0), std::logic_error);
  EXPECT_THROW((void)t.end_time(), std::logic_error);
}

// -------------------------------------------------------------- ignition --

TEST(Ignition, IsOnWithinIntervals) {
  IgnitionSchedule s{{{10, 20}, {30, 40}}};
  EXPECT_FALSE(s.is_on(5));
  EXPECT_TRUE(s.is_on(10));
  EXPECT_TRUE(s.is_on(19.999));
  EXPECT_FALSE(s.is_on(20));  // end-exclusive
  EXPECT_TRUE(s.is_on(35));
  EXPECT_FALSE(s.is_on(45));
}

TEST(Ignition, AlwaysOn) {
  const auto s = IgnitionSchedule::always_on();
  EXPECT_TRUE(s.is_on(0));
  EXPECT_TRUE(s.is_on(1e9));
  const PowerState st = s.state_at(0);
  EXPECT_TRUE(st.on);
  EXPECT_EQ(st.from_s, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(st.until_s, std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(s.on_duration(3, 8), 5.0);
}

TEST(Ignition, NextTransition) {
  // state_at(t).until_s is the next instant the state really flips.
  const double inf = std::numeric_limits<double>::infinity();
  IgnitionSchedule s{{{10, 20}, {30, 40}}};
  EXPECT_DOUBLE_EQ(s.state_at(0).until_s, 10.0);
  EXPECT_DOUBLE_EQ(s.state_at(10).until_s, 20.0);
  EXPECT_DOUBLE_EQ(s.state_at(25).until_s, 30.0);
  EXPECT_EQ(s.state_at(40).until_s, inf);
  EXPECT_EQ(s.state_at(0).from_s, -inf);
  EXPECT_DOUBLE_EQ(s.state_at(25).from_s, 20.0);
  EXPECT_EQ(IgnitionSchedule{}.state_at(5).until_s, inf);
  EXPECT_FALSE(IgnitionSchedule{}.state_at(5).on);

  // Back-to-back intervals power the vehicle without a gap: one window.
  IgnitionSchedule joined{{{10, 20}, {20, 30}, {30, 35}, {50, 60}}};
  for (const double t : {10.0, 19.5, 20.0, 30.0, 34.0}) {
    const PowerState st = joined.state_at(t);
    EXPECT_TRUE(st.on) << t;
    EXPECT_DOUBLE_EQ(st.from_s, 10.0) << t;
    EXPECT_DOUBLE_EQ(st.until_s, 35.0) << t;
  }
  EXPECT_DOUBLE_EQ(joined.state_at(35).until_s, 50.0);
  EXPECT_DOUBLE_EQ(joined.state_at(35).from_s, 35.0);
}

TEST(Ignition, OnDuration) {
  IgnitionSchedule s{{{10, 20}, {30, 40}}};
  EXPECT_DOUBLE_EQ(s.on_duration(0, 50), 20.0);
  EXPECT_DOUBLE_EQ(s.on_duration(15, 35), 10.0);
  EXPECT_DOUBLE_EQ(s.on_duration(21, 29), 0.0);
  EXPECT_DOUBLE_EQ(s.on_duration(50, 10), 0.0);
}

TEST(Ignition, RejectsBadIntervals) {
  EXPECT_THROW((IgnitionSchedule{{{10, 10}}}), std::invalid_argument);
  EXPECT_THROW((IgnitionSchedule{{{10, 20}, {15, 25}}}),
               std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((IgnitionSchedule{{{nan, 5}}}), std::invalid_argument);
  EXPECT_THROW((IgnitionSchedule{{{0, nan}}}), std::invalid_argument);
  EXPECT_THROW((IgnitionSchedule{{{0, 5}, {nan, nan}}}),
               std::invalid_argument);
  EXPECT_THROW((IgnitionSchedule{{{0, inf}}}), std::invalid_argument);
  EXPECT_THROW((IgnitionSchedule{{{-inf, 0}}}), std::invalid_argument);
  EXPECT_NO_THROW((IgnitionSchedule{{{0, 5}, {5, 9}}}));
}

/// A plain binary search for the last interval starting at or before `t`:
/// the oracle for IgnitionSchedule::is_on and state_at.
bool reference_is_on(const IgnitionSchedule& s, double t) {
  if (s.is_always_on()) return true;
  const auto& iv = s.intervals();
  const auto it = std::upper_bound(
      iv.begin(), iv.end(), t,
      [](double x, const OnInterval& i) { return x < i.start_s; });
  return it != iv.begin() && t < std::prev(it)->end_s;
}

/// Up to 11 intervals in [-50, ~1250), some of them back to back.
IgnitionSchedule random_schedule(util::Rng& rng) {
  std::vector<OnInterval> intervals;
  double t = rng.uniform(-50.0, 50.0);
  const std::size_t count = rng.next_below(12);
  for (std::size_t i = 0; i < count; ++i) {
    if (!rng.bernoulli(0.2)) t += rng.uniform(0.5, 40.0);
    const double end = t + rng.uniform(0.5, 60.0);
    intervals.push_back({t, end});
    t = end;
  }
  return IgnitionSchedule{std::move(intervals)};
}

/// Every interval edge exactly and one ulp either side, plus random
/// instants before, inside and after the schedule; ascending.
std::vector<double> schedule_instants(const IgnitionSchedule& s,
                                      util::Rng& rng) {
  std::vector<double> instants;
  for (const OnInterval& iv : s.intervals()) {
    for (const double edge : {iv.start_s, iv.end_s}) {
      instants.push_back(edge);
      instants.push_back(std::nextafter(edge, -1e300));
      instants.push_back(std::nextafter(edge, 1e300));
    }
  }
  for (int i = 0; i < 40; ++i) instants.push_back(rng.uniform(-100.0, 1400.0));
  std::sort(instants.begin(), instants.end());
  return instants;
}

TEST(Ignition, StateAtWindowIsMaximalAndExact) {
  util::Rng rng{78};
  for (int trial = 0; trial < 300; ++trial) {
    const IgnitionSchedule s = trial % 10 == 0   ? IgnitionSchedule::always_on()
                               : trial % 10 == 1 ? IgnitionSchedule{}
                                                 : random_schedule(rng);
    for (const double t : schedule_instants(s, rng)) {
      const PowerState st = s.state_at(t);
      ASSERT_EQ(st.on, reference_is_on(s, t)) << "trial " << trial;
      ASSERT_EQ(st.on, s.is_on(t));
      ASSERT_LE(st.from_s, t);
      ASSERT_LT(t, st.until_s);
      // Constant on [from, until): both ends and random points inside...
      if (std::isfinite(st.from_s)) {
        ASSERT_EQ(reference_is_on(s, st.from_s), st.on);
        ASSERT_NE(reference_is_on(s, std::nextafter(st.from_s, -1e300)),
                  st.on)
            << "trial " << trial << " from " << st.from_s;
      }
      if (std::isfinite(st.until_s)) {
        ASSERT_EQ(reference_is_on(s, std::nextafter(st.until_s, -1e300)),
                  st.on);
        // ...and different at until, even across back-to-back intervals.
        ASSERT_NE(reference_is_on(s, st.until_s), st.on)
            << "trial " << trial << " until " << st.until_s;
      }
      for (int k = 0; k < 4; ++k) {
        const double lo = std::max(st.from_s, t - 500.0);
        const double hi = std::min(st.until_s, t + 500.0);
        const double u = rng.uniform(lo, hi);
        if (u >= st.from_s && u < st.until_s) {
          ASSERT_EQ(reference_is_on(s, u), st.on);
        }
      }
    }
  }
}

// The memo of a schedule's power is FleetModel's cached window: whatever
// the access order, fleet.is_on must equal the plain binary search.
TEST(Ignition, CursorMatchesBinarySearchOracle) {
  util::Rng rng{77};
  for (int trial = 0; trial < 300; ++trial) {
    const IgnitionSchedule s = trial % 10 == 0   ? IgnitionSchedule::always_on()
                               : trial % 10 == 1 ? IgnitionSchedule{}
                                                 : random_schedule(rng);
    const FleetModel fleet{{VehicleTrack{Trace{{{0.0, {}}}}, s}}};
    const auto check = [&](double t) {
      ASSERT_EQ(fleet.is_on(0, t), reference_is_on(s, t))
          << "trial " << trial << " t " << t;
      ASSERT_EQ(s.is_on(t), reference_is_on(s, t));
    };
    std::vector<double> instants = schedule_instants(s, rng);

    // Monotone sweep, each instant asked twice as a tick does.
    for (const double t : instants) {
      check(t);
      check(t);
    }
    // Fixed-step ticks, run twice: the second pass starts with a rewind.
    for (int pass = 0; pass < 2; ++pass) {
      for (double t = -60.0; t < 700.0; t += 1.0) check(t);
    }
    // Rewinds and jumps in every direction.
    rng.shuffle(instants);
    for (const double t : instants) check(t);
  }
}

// ---------------------------------------------------------- spatial index --

std::vector<std::pair<std::size_t, std::size_t>> brute_force_pairs(
    const std::vector<Position>& pts, double radius) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      if (distance(pts[i], pts[j]) <= radius) out.emplace_back(i, j);
    }
  }
  return out;
}

std::vector<std::size_t> brute_force_within(const std::vector<Position>& pts,
                                            const Position& query,
                                            double radius) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (distance(pts[i], query) <= radius) out.push_back(i);
  }
  return out;
}

/// `n` points in one of four layouts: 0 uniform, 1 sparse (clusters spread
/// over a 1e6 m square, far beyond 4 cells per point), 2 uniform at large
/// negative coordinates, 3 collinear on multiples of radius/2 with
/// coincident repeats.
std::vector<Position> random_layout(util::Rng& rng, std::size_t n,
                                    double radius, std::uint64_t mode) {
  std::vector<Position> pts(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (mode % 4) {
      case 0:
        pts[i] = {rng.uniform(0.0, 2000.0), rng.uniform(0.0, 2000.0)};
        break;
      case 1: {
        const double cx = static_cast<double>(rng.next_below(5)) * 2.5e5;
        const double cy = static_cast<double>(rng.next_below(5)) * 2.5e5;
        pts[i] = {cx + rng.uniform(0.0, 3.0 * radius),
                  cy + rng.uniform(0.0, 3.0 * radius)};
        break;
      }
      case 2:
        pts[i] = {-4.0e7 + rng.uniform(0.0, 3000.0),
                  -9.0e6 + rng.uniform(0.0, 3000.0)};
        break;
      default:
        pts[i] = {static_cast<double>(rng.next_below(40)) * radius * 0.5,
                  -123.0};
        break;
    }
  }
  return pts;
}

/// `n` points on the streets of a lattice with `spacing` between streets:
/// each on a random street at a random or whole-block offset along it.
std::vector<Position> street_lattice(util::Rng& rng, std::size_t n,
                                     double spacing) {
  std::vector<Position> pts(n);
  for (Position& p : pts) {
    const auto street = static_cast<double>(rng.next_below(8)) * spacing;
    const double along = rng.bernoulli(0.5)
                             ? static_cast<double>(rng.next_below(8)) * spacing
                             : rng.uniform(0.0, 7.0 * spacing);
    p = rng.bernoulli(0.5) ? Position{street, along} : Position{along, street};
  }
  return pts;
}

/// `index` over `pts` against brute force: all pairs in order, and within()
/// around indexed points, beside them, and far outside the extent.
void expect_matches_brute_force(const SpatialIndex& index,
                                const std::vector<Position>& pts,
                                double radius, util::Rng& rng) {
  EXPECT_EQ(index.pairs_within(radius), brute_force_pairs(pts, radius));
  std::vector<Position> queries{{0, 0}, {1e12, -1e12}, {-1e15, 3.0}};
  for (int i = 0; i < 6 && !pts.empty(); ++i) {
    const Position& p = pts[rng.next_below(pts.size())];
    queries.push_back(p);
    queries.push_back({p.x + rng.uniform(-radius, radius),
                       p.y + rng.uniform(-radius, radius)});
  }
  if (!pts.empty()) {
    // Just outside the extent, within range of its extreme points.
    const auto [xlo, xhi] = std::minmax_element(
        pts.begin(), pts.end(),
        [](const Position& a, const Position& b) { return a.x < b.x; });
    queries.push_back({xlo->x - 0.5 * radius, xlo->y});
    queries.push_back({xhi->x + 0.5 * radius, xhi->y});
  }
  for (const Position& q : queries) {
    EXPECT_EQ(index.within(q, radius), brute_force_within(pts, q, radius))
        << "query " << q.x << "," << q.y;
  }
}

class SpatialIndexProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpatialIndexProperty, PairsMatchBruteForce) {
  util::Rng rng{GetParam()};
  const std::size_t n = 20 + rng.next_below(180);
  const double radius = rng.uniform(20.0, 300.0);
  const std::vector<Position> pts = random_layout(rng, n, radius, GetParam());
  // Every third config queries at exactly the cell size, the rest below it.
  const double cell =
      GetParam() % 3 == 0 ? radius : radius * rng.uniform(1.0, 3.0);
  SpatialIndex index{pts, cell};
  expect_matches_brute_force(index, pts, radius, rng);

  // The city shape at radius == cell: vehicles on a street lattice one
  // radius apart, many of them at intersections, so pairs sit exactly on
  // cell edges and at exactly the range.
  const std::vector<Position> streets = street_lattice(rng, n, radius);
  expect_matches_brute_force(SpatialIndex{streets, radius}, streets, radius,
                             rng);
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, SpatialIndexProperty,
                         ::testing::Range<std::uint64_t>(0, 60));

TEST(SpatialIndex, WithinMatchesBruteForce) {
  util::Rng rng{123};
  std::vector<Position> pts(100);
  for (auto& p : pts) {
    p = {rng.uniform(0.0, 500.0), rng.uniform(0.0, 500.0)};
  }
  SpatialIndex index{pts, 60.0};
  const Position query{250, 250};
  auto got = index.within(query, 60.0);
  std::sort(got.begin(), got.end());
  std::vector<std::size_t> expect;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (distance(pts[i], query) <= 60.0) expect.push_back(i);
  }
  EXPECT_EQ(got, expect);
}

TEST(SpatialIndex, ExcludeParameter) {
  std::vector<Position> pts{{0, 0}, {1, 0}, {2, 0}};
  SpatialIndex index{pts, 10.0};
  const auto got = index.within({0, 0}, 10.0, /*exclude=*/0);
  EXPECT_EQ(got.size(), 2U);
  for (std::size_t i : got) EXPECT_NE(i, 0U);
}

// Regression for DESIGN.md §10: query results must come out in sorted-id
// order — a pure function of the geometric content — no matter how points
// were fed to the constructor (insertion order is what shapes the hash
// map's bucket layout, which used to leak into pairs_within's order).
TEST(SpatialIndex, DeterministicOrderUnderInsertionPermutation) {
  util::Rng rng{2026};
  std::vector<Position> pts(120);
  for (auto& p : pts) {
    p = {rng.uniform(0.0, 800.0), rng.uniform(0.0, 800.0)};
  }
  const double radius = 75.0;
  const std::vector<Position> queries{
      {100, 100}, {400, 400}, {799, 1}, {0, 0}, {250, 600}};

  std::vector<std::size_t> order(pts.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  // Canonical answers from the identity ordering, as position sequences.
  std::vector<std::vector<std::pair<double, double>>> canonical_within;
  std::vector<std::pair<double, double>> canonical_pair_points;

  for (int trial = 0; trial < 8; ++trial) {
    std::vector<Position> permuted(pts.size());
    for (std::size_t i = 0; i < order.size(); ++i) permuted[i] = pts[order[i]];
    SpatialIndex index{permuted, radius};

    // within(): exactly the brute-force answer in ascending id order —
    // not merely the same set.
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      const auto got = index.within(queries[qi], radius);
      std::vector<std::size_t> expect;
      for (std::size_t i = 0; i < permuted.size(); ++i) {
        if (distance(permuted[i], queries[qi]) <= radius) expect.push_back(i);
      }
      EXPECT_EQ(got, expect) << "trial " << trial << " query " << qi;
      // Cross-permutation: the answer identifies the same physical points.
      std::vector<std::pair<double, double>> points;
      points.reserve(got.size());
      for (std::size_t i : got) points.emplace_back(permuted[i].x, permuted[i].y);
      std::sort(points.begin(), points.end());
      if (trial == 0) {
        canonical_within.push_back(points);
      } else {
        EXPECT_EQ(points, canonical_within[qi]) << "trial " << trial;
      }
    }

    // pairs_within(): exactly the sorted brute-force pair list.
    auto got_pairs = index.pairs_within(radius);
    auto expect_pairs = brute_force_pairs(permuted, radius);
    std::sort(expect_pairs.begin(), expect_pairs.end());
    EXPECT_EQ(got_pairs, expect_pairs) << "trial " << trial;
    std::vector<std::pair<double, double>> pair_points;
    for (const auto& [i, j] : got_pairs) {
      pair_points.emplace_back(permuted[i].x + permuted[j].x,
                               permuted[i].y + permuted[j].y);
    }
    std::sort(pair_points.begin(), pair_points.end());
    if (trial == 0) {
      canonical_pair_points = pair_points;
    } else {
      EXPECT_EQ(pair_points, canonical_pair_points) << "trial " << trial;
    }

    rng.shuffle(order);
  }
}

TEST(SpatialIndex, RejectsRadiusBeyondCellSize) {
  std::vector<Position> pts{{0, 0}};
  SpatialIndex index{pts, 50.0};
  EXPECT_THROW(index.pairs_within(51.0), std::invalid_argument);
  EXPECT_THROW(index.within({0, 0}, 51.0), std::invalid_argument);
  EXPECT_THROW((SpatialIndex{pts, 0.0}), std::invalid_argument);
}

TEST(SpatialIndex, PairsAtExactlyTheRangeWithRadiusEqualToCell) {
  // Lattices spaced exactly one radius apart: axis neighbours sit at exactly
  // the range (included), diagonals at sqrt(2) times it (excluded). The
  // 3-4-5 triangles put pairs at exactly the range off the axes.
  const double r = 50.0;
  for (const Position offset :
       {Position{0, 0}, Position{-7.5e6, -3.25e6}, Position{12.0, -0.5}}) {
    std::vector<Position> pts;
    for (int i = 0; i < 12; ++i) {
      for (int j = 0; j < 12; ++j) {
        pts.push_back({offset.x + i * r, offset.y + j * r});
      }
    }
    pts.push_back({offset.x + 1000.0, offset.y + 1000.0});
    pts.push_back({offset.x + 1030.0, offset.y + 1040.0});
    pts.push_back({offset.x + 970.0, offset.y + 960.0});
    const SpatialIndex index{pts, r};
    const auto pairs = index.pairs_within(r);
    EXPECT_EQ(pairs, brute_force_pairs(pts, r));
    EXPECT_EQ(pairs.size(), 2U * 12U * 11U + 2U);
    // An inner lattice point: itself and its four axis neighbours.
    EXPECT_EQ(index.within({offset.x + 100.0, offset.y + 100.0}, r).size(), 5U);
  }
}

TEST(SpatialIndex, DegenerateInputs) {
  const SpatialIndex empty{{}, 10.0};
  EXPECT_EQ(empty.size(), 0U);
  EXPECT_TRUE(empty.pairs_within(10.0).empty());
  EXPECT_TRUE(empty.within({0, 0}, 10.0).empty());

  const SpatialIndex one{{{-3.0, 7.0}}, 10.0};
  EXPECT_TRUE(one.pairs_within(10.0).empty());
  EXPECT_EQ(one.within({0, 0}, 10.0), (std::vector<std::size_t>{0}));
  EXPECT_TRUE(one.within({-3.0, 7.0}, 10.0, /*exclude=*/0).empty());

  // Coincident points pair up at distance zero, even with a zero radius.
  const std::vector<Position> same(30, Position{5.0, -5.0});
  const auto all = SpatialIndex{same, 1.0}.pairs_within(0.0);
  EXPECT_EQ(all.size(), 30U * 29U / 2U);
  EXPECT_EQ(all, brute_force_pairs(same, 0.0));

  // Collinear along either axis: a one-row or one-column grid.
  util::Rng rng{8};
  std::vector<Position> row, column;
  for (int i = 0; i < 200; ++i) {
    const double u = rng.uniform(-500.0, 500.0);
    row.push_back({u, 42.0});
    column.push_back({-42.0, u});
  }
  expect_matches_brute_force(SpatialIndex{row, 7.0}, row, 7.0, rng);
  expect_matches_brute_force(SpatialIndex{column, 7.0}, column, 7.0, rng);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((SpatialIndex{{{nan, 0.0}}, 1.0}), std::invalid_argument);
  EXPECT_THROW((SpatialIndex{{{0.0, inf}}, 1.0}), std::invalid_argument);
}

TEST(SpatialIndex, SparseExtentGrowsCellsAndStaysExact) {
  // Clusters 1e7 m apart with a 1 m radius would need ~1e14 cells of the
  // radius; the grid grows its cells instead and must still find every pair.
  util::Rng rng{5};
  std::vector<Position> pts;
  for (int c = 0; c < 4; ++c) {
    const Position centre{c * 1e7 - 2e7, (c % 2) * 1e7};
    for (int i = 0; i < 50; ++i) {
      pts.push_back(
          {centre.x + rng.uniform(0.0, 5.0), centre.y + rng.uniform(0.0, 5.0)});
    }
  }
  const SpatialIndex index{pts, 1.0};
  expect_matches_brute_force(index, pts, 1.0, rng);
}

TEST(SpatialIndex, RebuildReusedAcrossSizesMatchesFreshIndex) {
  util::Rng rng{99};
  SpatialIndex reused;
  EXPECT_EQ(reused.size(), 0U);
  std::uint64_t mode = 0;
  for (const std::size_t n : {0U, 700U, 3U, 1500U, 1U, 40U, 0U, 900U}) {
    const double radius = rng.uniform(5.0, 120.0);
    const std::vector<Position> pts = random_layout(rng, n, radius, mode++);
    reused.rebuild(pts, radius);
    const SpatialIndex fresh{pts, radius};
    EXPECT_EQ(reused.size(), n);
    EXPECT_EQ(reused.pairs_within(radius), fresh.pairs_within(radius));
    expect_matches_brute_force(reused, pts, radius, rng);
  }
  EXPECT_THROW(reused.rebuild({}, 0.0), std::invalid_argument);
}

// -------------------------------------------------------------- city model --

TEST(CityModel, DeterministicGivenSeed) {
  CityModelConfig cfg;
  cfg.duration_s = 2000.0;
  const auto a = make_city_fleet(5, cfg);
  const auto b = make_city_fleet(5, cfg);
  for (NodeId v = 0; v < 5; ++v) {
    for (double t : {0.0, 500.0, 1500.0}) {
      EXPECT_EQ(a.position_of(v, t), b.position_of(v, t));
      EXPECT_EQ(a.is_on(v, t), b.is_on(v, t));
    }
  }
}

TEST(CityModel, VehiclesStayInsideCity) {
  CityModelConfig cfg;
  cfg.city_size_m = 2000.0;
  cfg.duration_s = 4000.0;
  const auto fleet = make_city_fleet(10, cfg);
  for (NodeId v = 0; v < 10; ++v) {
    for (double t = 0; t <= 4000.0; t += 50.0) {
      const Position p = fleet.position_of(v, t);
      EXPECT_GE(p.x, -1e-6);
      EXPECT_GE(p.y, -1e-6);
      EXPECT_LE(p.x, cfg.city_size_m + cfg.block_size_m);
      EXPECT_LE(p.y, cfg.city_size_m + cfg.block_size_m);
    }
  }
}

TEST(CityModel, SpeedsWithinConfiguredBand) {
  CityModelConfig cfg;
  cfg.duration_s = 3000.0;
  util::Rng rng{8};
  const auto track = make_city_vehicle(cfg, rng);
  const auto& samples = track.trace.samples();
  for (std::size_t i = 1; i < samples.size(); ++i) {
    const double dt = samples[i].time_s - samples[i - 1].time_s;
    const double d = distance(samples[i].position, samples[i - 1].position);
    if (d < 1e-9) continue;  // dwell segment
    const double speed = d / dt;
    EXPECT_GE(speed, 0.25 * cfg.speed_mean_mps - 1e-6);
    EXPECT_LE(speed, 2.0 * cfg.speed_mean_mps + 1e-6);
  }
}

TEST(CityModel, VehiclesAreOnWhileMoving) {
  CityModelConfig cfg;
  cfg.duration_s = 3000.0;
  util::Rng rng{9};
  const auto track = make_city_vehicle(cfg, rng);
  const auto& samples = track.trace.samples();
  for (std::size_t i = 1; i < samples.size(); ++i) {
    const double d = distance(samples[i].position, samples[i - 1].position);
    if (d < 1e-9) continue;
    const double mid =
        0.5 * (samples[i].time_s + samples[i - 1].time_s);
    if (mid >= cfg.duration_s) continue;
    EXPECT_TRUE(track.ignition.is_on(mid))
        << "vehicle moving while off at t=" << mid;
  }
}

TEST(CityModel, DutyCycleIsPlausible) {
  CityModelConfig cfg;
  cfg.duration_s = 20000.0;
  const auto fleet = make_city_fleet(30, cfg);
  double on_total = 0.0;
  for (NodeId v = 0; v < 30; ++v) {
    on_total += fleet.vehicle(v).ignition.on_duration(0, cfg.duration_s);
  }
  const double duty = on_total / (30 * cfg.duration_s);
  EXPECT_GT(duty, 0.1);
  EXPECT_LT(duty, 0.9);
}

TEST(CityModel, GridRsusWithinCity) {
  CityModelConfig cfg;
  cfg.duration_s = 100.0;
  auto fleet = make_city_fleet(2, cfg);
  const auto rsus = add_grid_rsus(fleet, cfg, 5);
  ASSERT_EQ(rsus.size(), 5U);
  EXPECT_EQ(fleet.node_count(), 7U);
  for (NodeId r : rsus) {
    EXPECT_FALSE(fleet.is_vehicle(r));
    EXPECT_TRUE(fleet.is_on(r, 0.0));
    const Position p = fleet.position_of(r, 0.0);
    EXPECT_GT(p.x, 0.0);
    EXPECT_LT(p.x, cfg.city_size_m);
  }
}

TEST(CityModel, TinyCityClampsTripLengthInsteadOfHanging) {
  // Regression: a city smaller than min_trip_blocks used to spin forever
  // in destination rejection sampling.
  CityModelConfig cfg;
  cfg.city_size_m = 150.0;  // 2x2 grid, Manhattan diameter 2
  cfg.block_size_m = 100.0;
  cfg.duration_s = 2000.0;
  cfg.min_trip_blocks = 3;   // larger than the whole city
  cfg.max_trip_blocks = 14;
  util::Rng rng{77};
  const auto track = make_city_vehicle(cfg, rng);
  EXPECT_GT(track.trace.sample_count(), 1U);
  // One-block city (single intersection) cannot host trips at all.
  cfg.city_size_m = 50.0;
  EXPECT_THROW(make_city_vehicle(cfg, rng), std::invalid_argument);
}

TEST(CityModel, ValidatesConfig) {
  CityModelConfig cfg;
  cfg.block_size_m = 0.0;
  util::Rng rng{1};
  EXPECT_THROW(make_city_vehicle(cfg, rng), std::invalid_argument);
  cfg = CityModelConfig{};
  cfg.min_trip_blocks = 5;
  cfg.max_trip_blocks = 3;
  EXPECT_THROW(make_city_vehicle(cfg, rng), std::invalid_argument);
}

// ------------------------------------------------------------- fleet model --

TEST(FleetModel, EncountersRequireBothOnAndInRange) {
  std::vector<VehicleTrack> tracks;
  // Two vehicles parked 100 m apart; one on, one off until t=50.
  tracks.push_back({Trace{{{0.0, {0, 0}}, {100.0, {0, 0}}}},
                    IgnitionSchedule{{{0.0, 100.0}}}});
  tracks.push_back({Trace{{{0.0, {100, 0}}, {100.0, {100, 0}}}},
                    IgnitionSchedule{{{50.0, 100.0}}}});
  FleetModel fleet{std::move(tracks)};

  EXPECT_TRUE(fleet.encounters(10.0, 200.0).empty());  // second vehicle off
  const auto at60 = fleet.encounters(60.0, 200.0);
  ASSERT_EQ(at60.size(), 1U);
  EXPECT_EQ(at60[0], (std::pair<NodeId, NodeId>{0, 1}));
  EXPECT_TRUE(fleet.encounters(60.0, 50.0).empty());  // out of range
}

TEST(FleetModel, StaticNodesAlwaysOnAndEncounterable) {
  std::vector<VehicleTrack> tracks;
  tracks.push_back({Trace{{{0.0, {0, 0}}, {10.0, {0, 0}}}},
                    IgnitionSchedule::always_on()});
  FleetModel fleet{std::move(tracks)};
  const NodeId rsu = fleet.add_static_node({50, 0});
  EXPECT_EQ(rsu, 1U);
  EXPECT_FALSE(fleet.is_vehicle(rsu));
  EXPECT_TRUE(fleet.is_on(rsu, 123.0));
  const auto enc = fleet.encounters(5.0, 100.0);
  ASSERT_EQ(enc.size(), 1U);
}

TEST(FleetModel, PowerUntilPerVehicle) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<VehicleTrack> tracks;
  tracks.push_back({Trace{{{0.0, {0, 0}}, {1.0, {0, 0}}}},
                    IgnitionSchedule{{{20.0, 30.0}}}});
  tracks.push_back({Trace{{{0.0, {9, 9}}, {1.0, {9, 9}}}},
                    IgnitionSchedule{{{5.0, 8.0}, {8.0, 12.0}}}});
  tracks.push_back({Trace{{{0.0, {1, 1}}}}, IgnitionSchedule::always_on()});
  FleetModel fleet{std::move(tracks)};
  const NodeId rsu = fleet.add_static_node({4, 4});
  EXPECT_DOUBLE_EQ(fleet.power_until(0, 0.0), 20.0);
  EXPECT_DOUBLE_EQ(fleet.power_until(0, 20.0), 30.0);
  EXPECT_EQ(fleet.power_until(0, 31.0), inf);
  EXPECT_DOUBLE_EQ(fleet.power_until(1, 0.0), 5.0);
  // Back-to-back intervals: the state first flips at 12, not at 8.
  EXPECT_DOUBLE_EQ(fleet.power_until(1, 6.0), 12.0);
  EXPECT_DOUBLE_EQ(fleet.power_until(1, 8.0), 12.0);
  EXPECT_EQ(fleet.power_until(1, 12.0), inf);
  // A rewind re-reads the window.
  EXPECT_DOUBLE_EQ(fleet.power_until(1, 4.0), 5.0);
  EXPECT_FALSE(fleet.is_on(1, 4.0));
  EXPECT_EQ(fleet.power_until(2, 3.0), inf);
  EXPECT_EQ(fleet.power_until(rsu, 3.0), inf);
  EXPECT_THROW((void)fleet.power_until(rsu + 1, 0.0), std::out_of_range);
  EXPECT_THROW((void)fleet.is_on(rsu + 1, 0.0), std::out_of_range);
  EXPECT_THROW((void)fleet.position_of(rsu + 1, 0.0), std::out_of_range);
}

TEST(FleetModel, RejectsEmptyTraces) {
  std::vector<VehicleTrack> tracks(1);
  EXPECT_THROW(FleetModel{std::move(tracks)}, std::invalid_argument);
}

class FleetEncountersOracle : public ::testing::TestWithParam<std::uint64_t> {
};

// Random fleets with RSUs, always-on, parked-all-run and cycling vehicles:
// encounters() over consecutive ticks (and a rewind) must equal a brute-force
// scan over the powered nodes, with power read by the binary-search oracle.
TEST_P(FleetEncountersOracle, ConsecutiveTicksMatchBruteForce) {
  util::Rng rng{GetParam()};
  // Every fourth fleet is small and dense with a 1 m radius: the radius is
  // exactly the grid's minimum cell.
  const bool dense = GetParam() % 4 == 0;
  const double extent = dense ? 25.0 : rng.uniform(300.0, 3000.0);
  const double radius = dense ? 1.0 : rng.uniform(0.5, 250.0);
  std::vector<VehicleTrack> tracks;
  const std::size_t vehicles = 1 + rng.next_below(120);
  for (std::size_t v = 0; v < vehicles; ++v) {
    std::vector<TraceSample> samples;
    double t = rng.uniform(-20.0, 20.0);
    const std::size_t legs = 1 + rng.next_below(8);
    for (std::size_t k = 0; k < legs; ++k) {
      samples.push_back(
          {t, {rng.uniform(0.0, extent), rng.uniform(0.0, extent)}});
      t += rng.uniform(5.0, 60.0);
    }
    const std::uint64_t kind = rng.next_below(10);
    tracks.push_back({Trace{std::move(samples)},
                      kind < 2   ? IgnitionSchedule::always_on()
                      : kind < 3 ? IgnitionSchedule{}
                                 : random_schedule(rng)});
  }
  FleetModel fleet{std::move(tracks)};
  const std::size_t rsus = rng.next_below(6);
  for (std::size_t i = 0; i < rsus; ++i) {
    fleet.add_static_node({rng.uniform(0.0, extent), rng.uniform(0.0, extent)});
  }

  const auto brute_force = [&](double t) {
    std::vector<Position> pos;
    std::vector<bool> on;
    for (NodeId id = 0; id < fleet.node_count(); ++id) {
      pos.push_back(fleet.position_of(id, t));
      on.push_back(!fleet.is_vehicle(id) ||
                   reference_is_on(fleet.vehicle(id).ignition, t));
    }
    std::vector<std::pair<NodeId, NodeId>> out;
    for (NodeId i = 0; i < pos.size(); ++i) {
      for (NodeId j = i + 1; j < pos.size(); ++j) {
        if (on[i] && on[j] && distance(pos[i], pos[j]) <= radius) {
          out.emplace_back(i, j);
        }
      }
    }
    return out;
  };
  std::vector<double> ticks;
  for (int tick = 0; tick <= 150; ++tick) ticks.push_back(tick);
  for (const double t : {40.0, 40.5, 12.0, 149.0, 600.0, -5.0}) {
    ticks.push_back(t);
  }
  for (const double t : ticks) {
    ASSERT_EQ(fleet.encounters(t, radius), brute_force(t)) << "t " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomFleets, FleetEncountersOracle,
                         ::testing::Range<std::uint64_t>(0, 16));

bool same_bits(const Position& a, const Position& b) {
  return std::memcmp(&a, &b, sizeof(Position)) == 0;
}

class FleetCacheOracle : public ::testing::TestWithParam<std::uint64_t> {};

// FleetModel reads positions and power through its per-vehicle cache. A
// second set of plain tracks, asked the same random sequence of queries
// through Trace::position_at and IgnitionSchedule::is_on on their own
// cursors, must give the same bits: one cursor per vehicle, advanced by
// position_at's rule, serves every FleetModel query. Integer sample times
// put many queries exactly on samples, where lerp(a, b, 1) and
// lerp(b, c, 0) may differ, so the query history matters there.
TEST_P(FleetCacheOracle, RandomQueriesMatchPlainTracesBitForBit) {
  util::Rng rng{GetParam()};
  const bool integer_times = GetParam() % 2 == 0;
  std::vector<VehicleTrack> tracks;
  std::vector<double> instants;
  const std::size_t vehicles = 1 + rng.next_below(40);
  for (std::size_t v = 0; v < vehicles; ++v) {
    std::vector<TraceSample> samples;
    double t = integer_times ? static_cast<double>(rng.next_below(20)) - 10.0
                             : rng.uniform(-10.0, 10.0);
    // A sixth of the traces hold a single sample.
    const std::size_t count = rng.next_below(6) == 0 ? 1 : 2 + rng.next_below(14);
    for (std::size_t k = 0; k < count; ++k) {
      // Irrational-looking coordinates so that interpolation rounds.
      samples.push_back({t, {rng.uniform(-500.0, 500.0) / 3.0,
                             rng.uniform(-500.0, 500.0) / 7.0}});
      for (const double u : {t, std::nextafter(t, -1e300),
                             std::nextafter(t, 1e300)}) {
        instants.push_back(u);
      }
      t += integer_times ? static_cast<double>(1 + rng.next_below(9))
                         : rng.uniform(0.1, 9.0);
    }
    const std::uint64_t kind = rng.next_below(8);
    const IgnitionSchedule ignition = kind == 0   ? IgnitionSchedule::always_on()
                                      : kind == 1 ? IgnitionSchedule{}
                                                  : random_schedule(rng);
    for (const OnInterval& iv : ignition.intervals()) {
      for (const double edge : {iv.start_s, iv.end_s}) {
        instants.push_back(edge);
        instants.push_back(std::nextafter(edge, -1e300));
        instants.push_back(std::nextafter(edge, 1e300));
      }
    }
    tracks.push_back({Trace{std::move(samples)}, ignition});
  }
  for (int i = 0; i < 60; ++i) instants.push_back(rng.uniform(-30.0, 140.0));
  for (int i = -20; i <= 140; ++i) instants.push_back(i);

  // The oracle's own copies: fresh cursors, like the fleet's cache.
  std::vector<VehicleTrack> plain = tracks;
  FleetModel fleet{std::move(tracks)};
  std::vector<Position> rsus;
  for (std::size_t i = rng.next_below(3); i > 0; --i) {
    rsus.push_back({rng.uniform(-150.0, 150.0), rng.uniform(-70.0, 70.0)});
    fleet.add_static_node(rsus.back());
  }
  const auto plain_position = [&](NodeId id, double t) {
    return id < plain.size() ? plain[id].trace.position_at(t)
                             : rsus[id - plain.size()];
  };
  const auto plain_on = [&](NodeId id, double t) {
    return id >= plain.size() || plain[id].ignition.is_on(t);
  };
  const double radius = rng.uniform(5.0, 60.0);

  // Time moves forward mostly in ticks over the sorted instants, with jumps
  // back and forth; each step asks one of the four query kinds.
  std::sort(instants.begin(), instants.end());
  std::size_t at = 0;
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t move = rng.next_below(20);
    if (move == 0) {
      at = rng.next_below(instants.size());  // rewind or jump
    } else if (move < 15 && at + 1 < instants.size()) {
      ++at;
    }
    const double t = instants[at];
    const NodeId id = rng.next_below(fleet.node_count());
    switch (rng.next_below(6)) {
      case 0:
      case 1:
        ASSERT_TRUE(same_bits(fleet.position_of(id, t), plain_position(id, t)))
            << "position_of " << id << " at " << t << " step " << step;
        break;
      case 2:
        ASSERT_EQ(fleet.is_on(id, t), plain_on(id, t))
            << "is_on " << id << " at " << t;
        break;
      case 3: {
        const FleetModel::Snapshot snap = fleet.snapshot(t);
        ASSERT_EQ(snap.positions.size(), fleet.node_count());
        for (NodeId n = 0; n < fleet.node_count(); ++n) {
          ASSERT_TRUE(same_bits(snap.positions[n], plain_position(n, t)))
              << "snapshot " << n << " at " << t << " step " << step;
          ASSERT_EQ(snap.on[n], plain_on(n, t));
        }
        break;
      }
      default: {
        // encounters() interpolates only powered vehicles; so does this.
        std::vector<NodeId> on;
        std::vector<Position> pos;
        for (NodeId n = 0; n < fleet.node_count(); ++n) {
          if (!plain_on(n, t)) continue;
          on.push_back(n);
          pos.push_back(plain_position(n, t));
        }
        std::vector<std::pair<NodeId, NodeId>> expected;
        for (const auto& [a, b] : brute_force_pairs(pos, radius)) {
          expected.emplace_back(on[a], on[b]);
        }
        ASSERT_EQ(fleet.encounters(t, radius), expected)
            << "encounters at " << t << " step " << step;
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomFleets, FleetCacheOracle,
                         ::testing::Range<std::uint64_t>(0, 24));

// -------------------------------------------------------------- trace file --

TEST(TraceFile, SaveLoadRoundTrip) {
  CityModelConfig cfg;
  cfg.duration_s = 1500.0;
  const auto fleet = make_city_fleet(4, cfg);
  const std::string traces = ::testing::TempDir() + "/rr_traces.csv";
  const std::string ignition = ::testing::TempDir() + "/rr_ignition.csv";
  save_fleet_csv(fleet, traces, ignition);
  const auto loaded = load_fleet_csv(traces, ignition);
  ASSERT_EQ(loaded.vehicle_count(), 4U);
  for (NodeId v = 0; v < 4; ++v) {
    for (double t : {0.0, 700.0, 1400.0}) {
      const Position a = fleet.position_of(v, t);
      const Position b = loaded.position_of(v, t);
      EXPECT_NEAR(a.x, b.x, 1e-6);
      EXPECT_NEAR(a.y, b.y, 1e-6);
      EXPECT_EQ(fleet.is_on(v, t), loaded.is_on(v, t));
    }
  }
  std::filesystem::remove(traces);
  std::filesystem::remove(ignition);
}

TEST(TraceFile, MissingFileThrows) {
  EXPECT_THROW(load_fleet_csv("/no/such/traces.csv", "/no/such/ign.csv"),
               std::runtime_error);
}

TEST(TraceFile, SparseVehicleIdsRejected) {
  const std::string traces = ::testing::TempDir() + "/rr_sparse.csv";
  const std::string ignition = ::testing::TempDir() + "/rr_sparse_ign.csv";
  {
    std::ofstream t{traces};
    t << "vehicle_id,time_s,x_m,y_m\n0,0,0,0\n0,1,1,1\n2,0,5,5\n2,1,6,6\n";
    std::ofstream i{ignition};
    i << "vehicle_id,start_s,end_s\n0,0,1\n";
  }
  EXPECT_THROW(load_fleet_csv(traces, ignition), std::runtime_error);
  std::filesystem::remove(traces);
  std::filesystem::remove(ignition);
}

TEST(TraceFile, GeoVariantProjectsAroundReference) {
  const std::string traces = ::testing::TempDir() + "/rr_geo.csv";
  const std::string ignition = ::testing::TempDir() + "/rr_geo_ign.csv";
  {
    std::ofstream t{traces};
    t << "vehicle_id,time_s,lat,lon\n";
    t << "0,0," << kGothenburgCenter.latitude_deg << ','
      << kGothenburgCenter.longitude_deg << "\n";
    t << "0,10,57.7179,11.9746\n";  // ~1 km north
    std::ofstream i{ignition};
    i << "vehicle_id,start_s,end_s\n0,0,10\n";
  }
  const auto fleet =
      load_fleet_csv_geo(traces, ignition, kGothenburgCenter);
  const Position start = fleet.position_of(0, 0.0);
  const Position end = fleet.position_of(0, 10.0);
  EXPECT_NEAR(start.x, 0.0, 1e-6);
  EXPECT_NEAR(start.y, 0.0, 1e-6);
  EXPECT_NEAR(end.y, 1000.0, 15.0);
  std::filesystem::remove(traces);
  std::filesystem::remove(ignition);
}

/// Writes `content` to a temp file named `name` and returns its path.
std::string write_tmp(const std::string& name, const std::string& content) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out{path};
  out << content;
  return path;
}

/// Asserts that `load()` throws std::runtime_error whose message contains
/// `path` (errors must say which file is bad) and every fragment.
template <typename Loader>
void expect_load_error(const Loader& load, const std::string& path,
                       const std::vector<std::string>& fragments) {
  try {
    load();
    FAIL() << "expected a parse error for " << path;
  } catch (const std::runtime_error& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    for (const std::string& fragment : fragments) {
      EXPECT_NE(what.find(fragment), std::string::npos)
          << "missing '" << fragment << "' in: " << what;
    }
  }
}

TEST(TraceFileHardening, NamesFileAndLineOnMalformedRows) {
  const std::string ignition =
      write_tmp("rr_csv_ok_ign.csv", "vehicle_id,start_s,end_s\n0,0,100\n");
  const std::string short_row = write_tmp(
      "rr_csv_short.csv", "vehicle_id,time_s,x_m,y_m\n0,0,10\n");
  expect_load_error(
      [&] { load_fleet_csv(short_row, ignition); }, short_row,
      {":2:", "traces row needs 4 fields"});

  const std::string bad_id = write_tmp(
      "rr_csv_badid.csv", "vehicle_id,time_s,x_m,y_m\n0,0,10,20\nX7,1,1,1\n");
  expect_load_error(
      [&] { load_fleet_csv(bad_id, ignition); }, bad_id,
      {":3:", "vehicle id 'X7' is not a whole number"});

  const std::string bad_num = write_tmp(
      "rr_csv_badnum.csv",
      "vehicle_id,time_s,x_m,y_m\n0,0,10,20\n0,five,1,1\n");
  expect_load_error(
      [&] { load_fleet_csv(bad_num, ignition); }, bad_num,
      {":3:", "'five' is not a number"});
  for (const auto& p : {ignition, short_row, bad_id, bad_num}) std::filesystem::remove(p);
}

TEST(TraceFileHardening, RejectsNonFiniteCoordinates) {
  const std::string ignition =
      write_tmp("rr_csv_fin_ign.csv", "vehicle_id,start_s,end_s\n0,0,100\n");
  // A finite latitude whose projection overflows to infinity.
  const std::string far = write_tmp(
      "rr_csv_geo_overflow.csv",
      "vehicle_id,time_s,lat,lon\n0,0,57.7,11.9\n0,1,1e308,11.9\n");
  expect_load_error(
      [&] {
        load_fleet_csv_geo(far, ignition, kGothenburgCenter);
      },
      far, {"vehicle 0", "non-finite"});
  std::filesystem::remove(far);
  for (const std::string bad : {"nan", "inf", "-inf"}) {
    const std::string traces = write_tmp(
        "rr_csv_nonfinite.csv",
        "vehicle_id,time_s,x_m,y_m\n0,0,10,20\n0,1," + bad + ",30\n");
    expect_load_error(
        [&] { load_fleet_csv(traces, ignition); }, traces,
        {":3:", "must be finite"});
    std::filesystem::remove(traces);
  }
  std::filesystem::remove(ignition);
}

TEST(TraceFileHardening, RejectsNonMonotoneIgnition) {
  const std::string traces = write_tmp(
      "rr_csv_mono_tr.csv", "vehicle_id,time_s,x_m,y_m\n0,0,10,20\n");
  // An interval that ends before (or at) its start names its row...
  const std::string backwards = write_tmp(
      "rr_csv_backwards.csv",
      "vehicle_id,start_s,end_s\n0,50,50\n");
  expect_load_error(
      [&] { load_fleet_csv(traces, backwards); }, backwards,
      {":2:", "must be after start"});
  // ...and overlapping intervals are rejected as a non-monotone schedule.
  const std::string overlap = write_tmp(
      "rr_csv_overlap.csv",
      "vehicle_id,start_s,end_s\n0,0,60\n0,40,90\n");
  expect_load_error(
      [&] { load_fleet_csv(traces, overlap); }, overlap,
      {"vehicle 0 has overlapping ignition intervals"});
  for (const auto& p : {traces, backwards, overlap}) std::filesystem::remove(p);
}

TEST(TraceFileHardening, WellFormedFilesStillLoad) {
  const std::string traces = write_tmp(
      "rr_csv_good_tr.csv",
      "vehicle_id,time_s,x_m,y_m\n0,0,10,20\n0,10,15,25\n1,0,0,0\n1,5,5,5\n");
  const std::string ignition = write_tmp(
      "rr_csv_good_ign.csv",
      "vehicle_id,start_s,end_s\n0,0,60\n0,80,100\n1,0,50\n");
  const FleetModel fleet =
      load_fleet_csv(traces, ignition);
  EXPECT_EQ(fleet.vehicle_count(), 2U);
  EXPECT_EQ(fleet.vehicle(0).ignition.intervals().size(), 2U);
  std::filesystem::remove(traces);
  std::filesystem::remove(ignition);
}

}  // namespace
}  // namespace roadrunner::mobility

// Micro-benchmarks for the Core Simulator substrates: event queue
// throughput, the mobility tick (trace interpolation + the flat-grid
// spatial index + encounter detection), and channel link checks. These set
// the floor for Req. 6.
#include <benchmark/benchmark.h>

#include "comm/network.hpp"
#include "core/event_queue.hpp"
#include "mobility/city_model.hpp"
#include "mobility/spatial_index.hpp"

namespace {

using namespace roadrunner;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    core::BasicEventQueue<std::size_t> q;
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < batch; ++i) {
      q.schedule(static_cast<double>((i * 7919) % batch), i);
    }
    while (!q.empty()) sink += q.pop_next();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

mobility::FleetModel bench_fleet(std::size_t vehicles) {
  mobility::CityModelConfig cfg;
  cfg.duration_s = 2000.0;
  cfg.seed = 9;
  return mobility::make_city_fleet(vehicles, cfg);
}

void BM_FleetSnapshot(benchmark::State& state) {
  const auto fleet = bench_fleet(static_cast<std::size_t>(state.range(0)));
  double t = 0.0;
  for (auto _ : state) {
    auto snap = fleet.snapshot(t);
    benchmark::DoNotOptimize(snap.positions.data());
    t += 1.0;
    if (t > 1900.0) t = 0.0;
  }
}
BENCHMARK(BM_FleetSnapshot)->Arg(100)->Arg(1000);

void BM_EncounterDetection(benchmark::State& state) {
  const auto fleet = bench_fleet(static_cast<std::size_t>(state.range(0)));
  double t = 0.0;
  for (auto _ : state) {
    auto pairs = fleet.encounters(t, 200.0);
    benchmark::DoNotOptimize(pairs.data());
    t += 1.0;
    if (t > 1900.0) t = 0.0;
  }
}
BENCHMARK(BM_EncounterDetection)->Arg(100)->Arg(500)->Arg(1000)->Arg(3200);

// Arg 0: point count. Arg 1: layout, 0 uniform over a 4 km square, 1 the
// city shape: vehicles on a street lattice with 200 m blocks (a third of
// them at intersections), so at radius == cell many pairs sit exactly on
// cell edges and at exactly the range.
void BM_SpatialIndexBuildQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool lattice = state.range(1) == 1;
  constexpr double kBlock = 200.0;
  util::Rng rng{11};
  std::vector<mobility::Position> pts(n);
  for (auto& p : pts) {
    if (!lattice) {
      p = {rng.uniform(0.0, 4000.0), rng.uniform(0.0, 4000.0)};
      continue;
    }
    const auto street = static_cast<double>(rng.next_below(21)) * kBlock;
    const double along =
        rng.next_below(3) == 0
            ? static_cast<double>(rng.next_below(21)) * kBlock
            : rng.uniform(0.0, 4000.0);
    p = rng.bernoulli(0.5) ? mobility::Position{street, along}
                           : mobility::Position{along, street};
  }
  // One index rebuilt per iteration, as FleetModel::encounters does per tick.
  mobility::SpatialIndex index;
  std::vector<std::uint64_t> keys;
  for (auto _ : state) {
    index.rebuild(pts, kBlock);
    index.pair_keys_within(kBlock, keys);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SpatialIndexBuildQuery)
    ->Args({100, 0})
    ->Args({1000, 0})
    ->Args({5000, 0})
    ->Args({1000, 1})
    ->Args({5000, 1});

void BM_LinkCheck(benchmark::State& state) {
  const auto fleet = bench_fleet(50);
  comm::Network net{fleet, comm::Network::Config{}, util::Rng{1}};
  double t = 0.0;
  for (auto _ : state) {
    auto check = net.check_link(3, 17, comm::ChannelKind::kV2X, t);
    benchmark::DoNotOptimize(check.status);
    t += 0.5;
    if (t > 1900.0) t = 0.0;
  }
}
BENCHMARK(BM_LinkCheck);

// FleetModel::position_of through the per-vehicle segment cache: mostly
// the strictly-inside fast path, a cursor advance every few steps.
void BM_TraceInterpolationSequential(benchmark::State& state) {
  const auto fleet = bench_fleet(1);
  double t = 0.0;
  for (auto _ : state) {
    auto p = fleet.position_of(0, t);
    benchmark::DoNotOptimize(p.x);
    t += 0.37;
    if (t > 1900.0) t = 0.0;
  }
}
BENCHMARK(BM_TraceInterpolationSequential);

}  // namespace

BENCHMARK_MAIN();

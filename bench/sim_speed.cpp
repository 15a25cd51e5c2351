// R6 (DESIGN.md): Requirement 6 — "the framework should realize a
// significant speed-up over an experiment in a real VCPS". Measures
// simulated-seconds per wall-second across configurations, with and
// without the ML workload (the ML computation is real, so it bounds the
// speed-up for learning experiments; pure fleet/communication simulation
// runs orders of magnitude faster).
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "checkpoint/checkpoint.hpp"
#include "scenario/scenario.hpp"
#include "strategy/federated.hpp"
#include "strategy/learning_strategy.hpp"
#include "traffic/traffic_plan.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/ini.hpp"

using namespace roadrunner;

namespace {

/// The mid-size urban world the MLP runs use: 60 vehicles, non-IID blobs,
/// MLP (the same world as examples/paper/a*.ini).
scenario::ScenarioConfig ablation_scenario(std::uint64_t seed) {
  scenario::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.vehicles = 60;
  cfg.dataset = "blobs";
  cfg.blob_config.num_classes = 10;
  cfg.blob_config.dimensions = 24;
  cfg.blob_config.center_radius = 2.2;  // overlapping classes: non-trivial
  cfg.blob_config.spread = 1.0;
  cfg.train_pool_size = 9000;
  cfg.test_size = 1500;
  cfg.partition = "class_skew";
  cfg.samples_per_vehicle = 60;
  cfg.classes_per_vehicle = 2;
  cfg.model = "mlp";
  cfg.train.learning_rate = 0.02F;

  cfg.city.city_size_m = 3400.0;
  cfg.city.dwell_mean_s = 250.0;
  cfg.city.initial_on_probability = 0.75;
  cfg.city.dwell_on_probability = 0.15;
  cfg.city.duration_s = 30000.0;
  cfg.horizon_s = 30000.0;
  return cfg;
}

/// A strategy that does nothing: isolates the core+mobility+comm cost.
struct IdleStrategy final : strategy::LearningStrategy {
  [[nodiscard]] std::string name() const override { return "idle"; }
};

struct RunLine {
  std::string label;
  double sim_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t events = 0;
};

std::vector<RunLine> g_runs;

void report(const char* label, const scenario::RunResult& r) {
  const double speedup =
      r.report.sim_end_time_s / std::max(1e-9, r.report.wall_seconds);
  std::printf("%-36s sim %8.0f s | wall %7.2f s | speed-up %9.0fx | "
              "%8llu events\n",
              label, r.report.sim_end_time_s, r.report.wall_seconds, speedup,
              static_cast<unsigned long long>(r.report.events_executed));
  g_runs.push_back(RunLine{label, r.report.sim_end_time_s,
                           r.report.wall_seconds,
                           r.report.events_executed});
}

/// Machine-readable companion to the human table, for CI regression
/// tracking: per-run events/s and wall seconds plus whole-bench totals.
/// Schema and formatting come from the shared bench::BenchJson writer.
void write_json(const std::string& path) {
  bench::BenchJson json{"sim_speed"};
  double total_wall = 0.0;
  std::uint64_t total_events = 0;
  for (const RunLine& r : g_runs) {
    total_wall += r.wall_s;
    total_events += r.events;
    json.begin_run(r.label);
    json.metric("sim_s", r.sim_s);
    json.metric("wall_s", r.wall_s);
    json.metric("events", r.events);
    json.metric("events_per_s",
                static_cast<double>(r.events) / std::max(1e-9, r.wall_s));
  }
  json.total("total_wall_s", total_wall);
  json.total("total_events", total_events);
  json.total("total_events_per_s",
             static_cast<double>(total_events) / std::max(1e-9, total_wall));
  std::printf("\n");
  json.write(path);
}

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs args{argc, argv};
  // --fast shrinks every workload (shorter horizons, fewer rounds, smaller
  // pools) for the CI perf lane: the measured events/s stays comparable
  // run-to-run because the labels and per-run mix are unchanged.
  const bool fast = args.get_bool("fast", false);
  std::printf("=== R6: simulation speed-up over real time%s ===\n\n",
              fast ? " (--fast)" : "");

  // 1. Pure fleet + encounter simulation, no learning.
  for (std::size_t vehicles : {50U, 200U}) {
    auto cfg = ablation_scenario(31);
    cfg.vehicles = vehicles;
    cfg.train_pool_size = std::max<std::size_t>(9000, vehicles * 60 * 2);
    cfg.horizon_s = fast ? 4000.0 : 20000.0;
    scenario::Scenario scenario{cfg};
    const auto result = scenario.run(std::make_shared<IdleStrategy>());
    char label[64];
    std::snprintf(label, sizeof label, "mobility only, %zu vehicles",
                  vehicles);
    report(label, result);
  }

  // 2. Full learning workload (FL over the MLP problem).
  {
    auto cfg = ablation_scenario(31);
    if (fast) cfg.horizon_s = 8000.0;
    scenario::Scenario scenario{cfg};
    strategy::RoundConfig round;
    round.rounds = fast ? 5 : 20;
    round.participants = 5;
    round.round_duration_s = 30.0;
    const auto result =
        scenario.run(std::make_shared<strategy::FederatedStrategy>(round));
    report("FL, MLP problem, 60 vehicles", result);
  }

  // 3. Full learning workload with the paper's CNN (heaviest realistic mix).
  {
    auto cfg = ablation_scenario(31);
    cfg.dataset = "images";
    cfg.train_pool_size = fast ? 2000 : 6000;
    cfg.test_size = fast ? 200 : 500;
    cfg.vehicles = 40;
    cfg.samples_per_vehicle = fast ? 40 : 80;
    cfg.model = "paper_cnn";
    cfg.train.learning_rate = 0.005F;
    scenario::Scenario scenario{cfg};
    strategy::RoundConfig round;
    round.rounds = fast ? 2 : 8;
    round.participants = 5;
    round.round_duration_s = 30.0;
    const auto result =
        scenario.run(std::make_shared<strategy::FederatedStrategy>(round));
    report("FL, paper CNN, 40 vehicles", result);
  }

  // 4. Checkpoint overhead (--checkpoint-every=N, simulated seconds): the
  // same FL workload with and without periodic autosaves, back to back in
  // one process. The acceptance bar for the checkpoint subsystem is < 5%
  // wall-clock overhead at a sane period.
  const double ckpt_every = args.get_double("checkpoint-every", 0.0);
  if (ckpt_every > 0.0) {
    // The CNN mix is the honest denominator: per-save cost is fixed
    // (serialize + fsync), so judging it against the toy MLP run — which
    // simulates three orders of magnitude faster than real time — would
    // overstate the overhead of any realistic deployment.
    auto cfg = ablation_scenario(31);
    cfg.dataset = "images";
    cfg.train_pool_size = 6000;
    cfg.test_size = 500;
    cfg.vehicles = 40;
    cfg.samples_per_vehicle = 80;
    cfg.model = "paper_cnn";
    cfg.train.learning_rate = 0.005F;
    scenario::Scenario scenario{cfg};
    strategy::RoundConfig round;
    round.rounds = 8;
    round.participants = 5;
    round.round_duration_s = 30.0;
    const std::string snap_path = "BENCH_ckpt.rrck";
    const auto run_once = [&](double every) {
      auto sim = scenario.make_simulator();
      auto strat = std::make_shared<strategy::FederatedStrategy>(round);
      const std::string name = strat->name();
      sim->set_strategy(strat);
      if (every > 0.0) {
        // The bench never restores, so an empty embedded experiment is fine:
        // we are timing the snapshot serialization + durable write alone.
        sim->set_autosave(every, [snap_path](core::Simulator& s) {
          checkpoint::save(s, util::IniFile{}, snap_path);
        });
      }
      auto run_report = sim->run();
      return scenario.collect_result(*sim, name, run_report);
    };
    const auto baseline = run_once(0.0);
    const auto checkpointed = run_once(ckpt_every);
    report("FL, CNN, no autosave (baseline)", baseline);
    char label[64];
    std::snprintf(label, sizeof label, "FL, CNN, autosave every %.0f sim-s",
                  ckpt_every);
    report(label, checkpointed);
    const double overhead = (checkpointed.report.wall_seconds -
                             baseline.report.wall_seconds) /
                            std::max(1e-9, baseline.report.wall_seconds);
    std::printf("checkpoint overhead: %+.2f%% wall clock\n", overhead * 100.0);
    std::remove(snap_path.c_str());
  }

  // 5. Traffic-shaped mobility (--traffic): the pure-mobility world from
  // run 1 routed through nine signalized intersections with ten 4-vehicle
  // platoon convoys on top. The joint queue-aware generation pass and the
  // signal/maneuver event replay are the only additions, so the delta
  // against "mobility only, 200 vehicles" is the cost of the traffic
  // subsystem itself.
  if (args.get_bool("traffic", false)) {
    auto cfg = ablation_scenario(31);
    cfg.vehicles = 200;
    cfg.train_pool_size = std::max<std::size_t>(9000, 200 * 60 * 2);
    cfg.horizon_s = fast ? 4000.0 : 20000.0;
    traffic::TrafficPlan plan;
    plan.regime = traffic::Regime::kAuto;
    // 3400 m city at 200 m blocks: an 18x18 intersection grid. Spread the
    // signals over the middle so the trips actually cross them.
    for (int gx : {4, 8, 12}) {
      for (int gy : {4, 8, 12}) {
        traffic::SignalSpec signal;
        signal.gx = gx;
        signal.gy = gy;
        signal.controller = (gx + gy) % 8 == 0
                                ? traffic::ControllerKind::kActuated
                                : traffic::ControllerKind::kFixedTime;
        plan.signals.push_back(signal);
      }
    }
    plan.platoons.count = 10;
    plan.platoons.size = 4;
    plan.platoons.join_probability = 0.5;
    plan.platoons.leave_probability = 0.5;
    plan.platoons.split_probability = 0.25;
    cfg.traffic = plan;
    scenario::Scenario scenario{cfg};
    const auto result = scenario.run(std::make_shared<IdleStrategy>());
    report("traffic: 9 signals + 10 platoons", result);
    std::printf("  (stops %.0f, phase changes %.0f, maneuvers %.0f)\n",
                result.metrics.counter("traffic_total_stops"),
                result.metrics.counter("traffic_phase_changes"),
                result.metrics.counter("platoon_maneuvers"));
  }

  std::printf(
      "\nReading: the BASE experiment of Fig. 4 covers 3 600 simulated "
      "seconds; at the\nmeasured speed-ups an analyst iterates a learning "
      "strategy in minutes instead\nof hours-on-the-road (Req. 6).\n");

  write_json(args.get("json", "BENCH_simspeed.json"));
  return 0;
}

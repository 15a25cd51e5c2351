#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>

#include "campaign/engine.hpp"
#include "checkpoint/checkpoint.hpp"
#include "data/gaussian_blobs.hpp"
#include "data/synthetic_images.hpp"
#include "ml/fedavg.hpp"
#include "ml/serialize.hpp"
#include "ml/trainer.hpp"
#include "scenario/experiment.hpp"
#include "telemetry/telemetry.hpp"
#include "traffic/traffic_model.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace ledger {

namespace {

namespace telemetry = rr::telemetry;
using rr::util::IniFile;
using rr::util::Stopwatch;

/// Turns the program's spans off for a run that must cost what the
/// untraced run costs. A bench span opened before it still records.
class Untraced {
 public:
  Untraced() { telemetry::set_enabled(false); }
  ~Untraced() { telemetry::set_enabled(true); }
  Untraced(const Untraced&) = delete;
  Untraced& operator=(const Untraced&) = delete;
};

/// Median seconds of one call to `fn`, repeated at least `min_reps` times
/// and for at least `min_s` seconds (capped at 1000 calls).
template <typename Fn>
double time_median(Fn&& fn, int min_reps, double min_s) {
  std::vector<double> times;
  const Stopwatch total;
  while (static_cast<int>(times.size()) < min_reps ||
         (total.elapsed_s() < min_s && times.size() < 1000)) {
    const Stopwatch one;
    fn();
    times.push_back(one.elapsed_s());
  }
  return median(times);
}

enum Callback {
  kMessage,
  kTimer,
  kEncounter,
  kPower,
  kTrainingComplete,
  kOtherCallback,
  kCallbackKinds
};

/// Wraps the workload's strategy and times every callback, inclusive of
/// whatever the simulator does inside it. The rare callbacks also leave a
/// bench span in the trace; encounter and power callbacks fire thousands of
/// times per tick on the mobility workloads, so those are only summed.
class TimedStrategy final : public rr::strategy::LearningStrategy {
 public:
  explicit TimedStrategy(std::shared_ptr<LearningStrategy> inner)
      : inner_{std::move(inner)} {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  void on_start(rr::strategy::StrategyContext& ctx) override {
    timed(kOtherCallback, "bench.strategy.on_start",
          [&] { inner_->on_start(ctx); });
  }
  void on_finish(rr::strategy::StrategyContext& ctx) override {
    timed(kOtherCallback, "bench.strategy.on_finish",
          [&] { inner_->on_finish(ctx); });
  }
  void on_timer(rr::strategy::StrategyContext& ctx, rr::core::AgentId id,
                int timer_id) override {
    timed(kTimer, "bench.strategy.on_timer",
          [&] { inner_->on_timer(ctx, id, timer_id); });
  }
  void on_message(rr::strategy::StrategyContext& ctx,
                  const rr::core::Message& msg) override {
    timed(kMessage, "bench.strategy.on_message",
          [&] { inner_->on_message(ctx, msg); });
  }
  void on_message_failed(rr::strategy::StrategyContext& ctx,
                         const rr::core::Message& msg,
                         rr::comm::LinkStatus reason) override {
    timed(kOtherCallback, "bench.strategy.on_message_failed",
          [&] { inner_->on_message_failed(ctx, msg, reason); });
  }
  void on_training_complete(
      rr::strategy::StrategyContext& ctx, rr::core::AgentId id,
      const rr::strategy::TrainingOutcome& outcome) override {
    ++train_jobs;
    train_samples += static_cast<double>(outcome.report.samples_seen);
    train_flops += static_cast<double>(outcome.report.flops);
    timed(kTrainingComplete, "bench.strategy.on_training_complete",
          [&] { inner_->on_training_complete(ctx, id, outcome); });
  }
  void on_training_failed(rr::strategy::StrategyContext& ctx,
                          rr::core::AgentId id, int round_tag) override {
    timed(kOtherCallback, "bench.strategy.on_training_failed",
          [&] { inner_->on_training_failed(ctx, id, round_tag); });
  }
  void on_encounter_begin(rr::strategy::StrategyContext& ctx,
                          rr::core::AgentId a, rr::core::AgentId b) override {
    timed(kEncounter, nullptr,
          [&] { inner_->on_encounter_begin(ctx, a, b); });
  }
  void on_encounter_end(rr::strategy::StrategyContext& ctx,
                        rr::core::AgentId a, rr::core::AgentId b) override {
    timed(kEncounter, nullptr, [&] { inner_->on_encounter_end(ctx, a, b); });
  }
  void on_power_on(rr::strategy::StrategyContext& ctx,
                   rr::core::AgentId id) override {
    timed(kPower, nullptr, [&] { inner_->on_power_on(ctx, id); });
  }
  void on_power_off(rr::strategy::StrategyContext& ctx,
                    rr::core::AgentId id) override {
    timed(kPower, nullptr, [&] { inner_->on_power_off(ctx, id); });
  }
  void on_computation_complete(rr::strategy::StrategyContext& ctx,
                               rr::core::AgentId id, int completion_tag,
                               bool success) override {
    timed(kOtherCallback, "bench.strategy.on_computation_complete", [&] {
      inner_->on_computation_complete(ctx, id, completion_tag, success);
    });
  }
  void save_state(rr::util::BinWriter& out) const override {
    inner_->save_state(out);
  }
  void load_state(rr::util::BinReader& in) override { inner_->load_state(in); }

  [[nodiscard]] double total_s() const {
    double sum = 0.0;
    for (double s : seconds) sum += s;
    return sum;
  }
  [[nodiscard]] double total_calls() const {
    double sum = 0.0;
    for (double n : calls) sum += n;
    return sum;
  }

  double seconds[kCallbackKinds] = {};
  double calls[kCallbackKinds] = {};
  double train_jobs = 0.0;
  double train_samples = 0.0;
  double train_flops = 0.0;

 private:
  template <typename Fn>
  void timed(Callback kind, const char* span_name, Fn&& fn) {
    std::optional<telemetry::Span> span;
    if (span_name != nullptr) span.emplace("bench", span_name);
    const Stopwatch watch;
    fn();
    seconds[kind] += watch.elapsed_s();
    ++calls[kind];
  }

  std::shared_ptr<LearningStrategy> inner_;
};

/// Seconds to generate the run's fleet through the public builder, with the
/// seed Scenario derives, so the replay builds the same fleet.
double fleet_build_s(const rr::scenario::ScenarioConfig& config) {
  rr::mobility::CityModelConfig city = config.city;
  city.seed = config.seed ^ 0xF1EE7ULL;
  const Stopwatch watch;
  const rr::traffic::TrafficFleet fleet =
      rr::traffic::make_traffic_fleet(config.vehicles, city, config.traffic);
  return watch.elapsed_s();
}

/// Seconds to synthesize the run's dataset through the public builder.
double data_build_s(const rr::scenario::ScenarioConfig& config) {
  const std::size_t total = config.train_pool_size + config.test_size;
  const std::uint64_t seed = config.seed ^ 0xDA7A5EEDULL;
  const Stopwatch watch;
  if (config.dataset == "images") {
    rr::data::SyntheticImageConfig images = config.image_config;
    images.seed = seed;
    (void)rr::data::make_synthetic_images(total, images);
  } else {
    rr::data::GaussianBlobConfig blobs = config.blob_config;
    blobs.seed = seed;
    (void)rr::data::make_gaussian_blobs(total, blobs);
  }
  return watch.elapsed_s();
}

/// Least-squares slope of ln(y) against ln(x).
double log_slope(const std::vector<double>& x, const std::vector<double>& y) {
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    mx += std::log(x[i]);
    my += std::log(y[i]);
  }
  mx /= static_cast<double>(x.size());
  my /= static_cast<double>(x.size());
  double sxy = 0.0;
  double sxx = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxy += (std::log(x[i]) - mx) * (std::log(y[i]) - my);
    sxx += (std::log(x[i]) - mx) * (std::log(x[i]) - mx);
  }
  return ratio(sxy, sxx);
}

/// Seconds of FleetModel::encounters over `ticks` mobility ticks.
double encounters_s(const rr::mobility::FleetModel& fleet, double tick_s,
                    std::size_t ticks, double range) {
  const Stopwatch watch;
  for (std::size_t i = 1; i <= ticks; ++i) {
    (void)fleet.encounters(static_cast<double>(i) * tick_s, range);
  }
  return watch.elapsed_s();
}

std::vector<double> parse_list(const std::string& text) {
  std::vector<double> values;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t comma = text.find(',', pos);
    values.push_back(std::stod(text.substr(
        pos, comma == std::string::npos ? comma : comma - pos)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return values;
}

struct CampaignLayer {
  IniFile representative;  ///< the job per-run layers are measured on
  double serial_job_s = 0.0;
  double parallel_efficiency = 0.0;
  double trace_overhead = 0.0;
  double saves = 0.0;
};

/// The whole campaign untraced and traced (identity-checked job by job),
/// then its first jobs one at a time.
CampaignLayer measure_campaign(const Workload& workload,
                               const std::string& scratch_dir, Tally& tally) {
  const rr::campaign::CampaignSpec spec =
      rr::campaign::campaign_from_ini(workload.input);
  const std::vector<rr::campaign::Job> jobs = rr::campaign::expand(spec);
  CampaignLayer out;
  // The first job running [ledger] representative_strategy.
  if (!workload.ledger.has("ledger", "representative_strategy")) {
    throw std::invalid_argument{
        "a campaign workload needs [ledger] representative_strategy"};
  }
  const std::string wanted =
      workload.ledger.get("ledger", "representative_strategy", "");
  const auto representative =
      std::find_if(jobs.begin(), jobs.end(), [&](const auto& job) {
        return job.experiment.get("strategy", "name", "federated") == wanted;
      });
  if (representative == jobs.end()) {
    throw std::invalid_argument{"no campaign job runs strategy '" + wanted +
                                "'"};
  }
  out.representative = representative->experiment;

  const std::string store = scratch_dir + "/store";
  RunStats untraced;
  RunStats traced;
  {
    // The traced campaign records every job's per-tick spans (tens of MB of
    // trace); they are counted and then dropped, and only this enclosing
    // span stays in the trace.
    telemetry::Span span{"bench", "bench.campaign.runs"};
    {
      const Untraced off;
      untraced = run_campaign(workload, spec, store);
    }
    traced = run_campaign(workload, spec, store);
    for (const telemetry::SpanEvent& event :
         telemetry::Telemetry::instance().snapshot()) {
      if (event.name == "checkpoint.autosave") ++out.saves;
    }
    telemetry::Telemetry::instance().clear();
  }
  tally.record(untraced.jobs, true);
  for (std::size_t j = 0; j < traced.jobs; ++j) {
    const bool same = j < untraced.outputs.size() &&
                      traced.outputs[j] == untraced.outputs[j];
    tally.record(1, same);
    if (!same) tally.note("traced campaign job output differs");
  }
  out.trace_overhead = ratio(traced.wall_s, untraced.wall_s) - 1.0;

  telemetry::Span span{"bench", "bench.campaign.serial_jobs"};
  const Untraced off;
  const std::string snapshot = scratch_dir + "/serial.rrck";
  std::vector<double> serial;
  for (std::size_t j = 0; j < std::min<std::size_t>(8, jobs.size()); ++j) {
    const Stopwatch watch;
    (void)rr::campaign::run_job(jobs[j], snapshot,
                                workload.checkpoint_every_s());
    serial.push_back(watch.elapsed_s());
    std::filesystem::remove(snapshot);
  }
  out.serial_job_s = median(serial);
  out.parallel_efficiency =
      ratio(static_cast<double>(untraced.jobs) * out.serial_job_s,
            static_cast<double>(workload.workers()) * untraced.wall_s);
  return out;
}

struct MobilityReplay {
  double ticks = 0.0;
  double snapshot_s = 0.0;
  double encounters_s = 0.0;
  double powered = 0.0;
  double pairs = 0.0;
};

/// Every tick of a run replayed on its fleet through the public calls the
/// simulator makes: snapshot() and encounters().
MobilityReplay replay_mobility(const rr::mobility::FleetModel& fleet,
                               double tick_s, std::size_t ticks,
                               double range) {
  telemetry::Span span{"bench", "bench.replay.mobility"};
  MobilityReplay out;
  out.ticks = static_cast<double>(ticks);
  for (std::size_t i = 1; i <= ticks; ++i) {
    const double time_s = static_cast<double>(i) * tick_s;
    Stopwatch watch;
    const rr::mobility::FleetModel::Snapshot snap = fleet.snapshot(time_s);
    out.snapshot_s += watch.elapsed_s();
    out.powered +=
        static_cast<double>(std::count(snap.on.begin(), snap.on.end(), true));
    watch.restart();
    out.pairs += static_cast<double>(fleet.encounters(time_s, range).size());
    out.encounters_s += watch.elapsed_s();
  }
  return out;
}

struct MlReplay {
  double train_job_s = 0.0;
  double train_job_flops = 0.0;
  double fwd_macs[2] = {};  ///< [conv, linear], one training batch
  double fwd_s[2] = {};
  double bwd_s[2] = {};
  double evaluate_s = 0.0;
  double fed_avg_s = 0.0;
  double serialize_mb_per_s = 0.0;
};

/// The run's model, first vehicle's data and TrainConfig, on this thread.
MlReplay replay_ml(const rr::core::MlService& ml,
                   const rr::ml::DatasetView& data,
                   const rr::scenario::ScenarioConfig& config,
                   std::size_t participants) {
  telemetry::Span span{"bench", "bench.replay.ml"};
  MlReplay out;
  rr::util::Rng init_rng{config.seed};
  const rr::ml::Weights start = ml.fresh_weights(init_rng);
  out.train_job_s = time_median(
      [&] {
        rr::ml::Network net = ml.prototype();
        net.set_weights(start);
        rr::util::Rng rng{config.seed};
        out.train_job_flops = static_cast<double>(
            rr::ml::train_sgd(net, data, config.train, rng).flops);
      },
      3, 0.2);

  rr::ml::Tensor x;
  std::vector<std::int32_t> labels;
  data.gather_batch(0, std::min(config.train.batch_size, data.size()), x,
                    labels);
  const double batch = static_cast<double>(x.dim(0));
  for (std::size_t i = 0; i < ml.prototype().layer_count(); ++i) {
    const auto layer = ml.prototype().layer(i).clone();
    rr::ml::Tensor y;
    const double forward =
        time_median([&] { y = layer->forward(x); }, 3, 0.02);
    const rr::ml::Tensor grad = rr::ml::Tensor::full(y.shape(), 1.0F);
    const double backward =
        time_median([&] { (void)layer->backward(grad); }, 3, 0.02);
    const int kind = layer->name() == "Conv2D"   ? 0
                     : layer->name() == "Linear" ? 1
                                                 : -1;
    if (kind >= 0) {
      out.fwd_macs[kind] +=
          static_cast<double>(layer->flops_per_sample()) * batch;
      out.fwd_s[kind] += forward;
      out.bwd_s[kind] += backward;
    }
    x = std::move(y);
  }

  out.evaluate_s = time_median([&] { (void)ml.test(start); }, 3, 0.0);
  const std::vector<rr::ml::WeightedModel> models(
      participants, rr::ml::WeightedModel{start, 1.0});
  out.fed_avg_s =
      time_median([&] { (void)rr::ml::fed_avg(models); }, 3, 0.02);
  double bytes = 0.0;
  const double serialize_s = time_median(
      [&] {
        bytes = static_cast<double>(rr::ml::serialize_weights(start).size());
      },
      3, 0.02);
  out.serialize_mb_per_s = ratio(bytes / 1e6, serialize_s);
  return out;
}

struct Scaling {
  double run_exponent = 0.0;
  double encounters_exponent = 0.0;
};

/// Vehicle-ticks simulated at each fleet size of the scaling fit.
constexpr double kScalingVehicleTicks = 4e6;

/// Whole untraced runs and encounters() alone over [ledger]
/// scaling_vehicles fleets at the run's density, each given the same
/// vehicle-tick budget; zeros when the workload lists no sizes.
Scaling fit_scaling(const Workload& workload,
                    const rr::scenario::ScenarioConfig& config,
                    const IniFile& experiment) {
  const std::vector<double> sizes =
      parse_list(workload.ledger.get("ledger", "scaling_vehicles", ""));
  if (sizes.size() < 2) return {};
  telemetry::Span span{"bench", "bench.replay.scaling"};
  const Untraced off;
  std::vector<double> run_s;
  std::vector<double> encounters_only_s;
  for (const double vehicles : sizes) {
    rr::scenario::ScenarioConfig point = config;
    point.vehicles = static_cast<std::size_t>(vehicles);
    point.city.city_size_m =
        config.city.city_size_m *
        std::sqrt(vehicles / static_cast<double>(config.vehicles));
    const auto ticks =
        static_cast<std::size_t>(std::llround(kScalingVehicleTicks / vehicles));
    point.horizon_s = static_cast<double>(ticks) * config.mobility_tick_s;
    point.city.duration_s = point.horizon_s;
    const rr::scenario::Scenario sized{point};
    run_s.push_back(run_scenario(sized, experiment).wall_s);
    encounters_only_s.push_back(encounters_s(
        sized.fleet(), config.mobility_tick_s, ticks, config.net.v2x.range_m));
  }
  // A fixed vehicle-tick budget makes wall ~ N^(k-1) when a tick costs N^k.
  return Scaling{1.0 + log_slope(sizes, run_s),
                 1.0 + log_slope(sizes, encounters_only_s)};
}

}  // namespace

std::vector<Metric> measure_layers(const Workload& workload,
                                   const std::string& trace_path,
                                   const std::string& scratch_dir,
                                   Tally& tally) {
  telemetry::TraceSession session{trace_path, /*profile=*/false};
  const bool is_campaign = workload.kind == Kind::kCampaign;

  // A campaign measures itself first (its traced run clears the spans
  // recorded so far), then picks the job the per-run layers run on.
  CampaignLayer campaign;
  if (is_campaign) campaign = measure_campaign(workload, scratch_dir, tally);
  const IniFile& experiment =
      is_campaign ? campaign.representative : workload.input;
  const double autosave_every_s =
      is_campaign ? workload.checkpoint_every_s() : 0.0;
  const rr::scenario::ScenarioConfig config =
      rr::scenario::scenario_from_ini(experiment);

  double fleet_s = 0.0;
  double data_s = 0.0;
  {
    telemetry::Span span{"bench", "bench.scenario.builders"};
    fleet_s = fleet_build_s(config);
    data_s = data_build_s(config);
  }
  std::optional<rr::scenario::Scenario> scenario;
  {
    telemetry::Span span{"bench", "bench.scenario.build"};
    scenario.emplace(config);
  }

  // A short warm-up and one untraced run with the program's spans off, then
  // the same run traced through the callback-timing decorator.
  const std::string snapshot = scratch_dir + "/representative.rrck";
  std::vector<double> save_times;
  const auto run = [&](std::shared_ptr<rr::strategy::LearningStrategy> s,
                       bool time_saves) {
    const Stopwatch watch;
    auto sim = scenario->make_simulator();
    sim->set_strategy(std::move(s));
    if (autosave_every_s > 0.0) {
      sim->set_autosave(autosave_every_s, [&](rr::core::Simulator& live) {
        const Stopwatch save;
        rr::checkpoint::save(live, experiment, snapshot);
        if (time_saves) save_times.push_back(save.elapsed_s());
      });
    }
    const auto report = sim->run();
    RunStats stats = scenario_stats(*scenario, *sim, report, watch.elapsed_s());
    return std::pair{std::move(stats), std::move(sim)};
  };
  RunStats untraced;
  {
    telemetry::Span span{"bench", "bench.run.untraced"};
    const Untraced off;
    warm_up(*scenario, experiment, 1.0);
    untraced = run(make_strategy(experiment), false).first;
  }
  const auto timer = std::make_shared<TimedStrategy>(make_strategy(experiment));
  std::optional<std::pair<RunStats, std::unique_ptr<rr::core::Simulator>>>
      traced_run;
  {
    telemetry::Span span{"bench", "bench.run.traced"};
    traced_run.emplace(run(timer, true));
  }
  const RunStats& traced = traced_run->first;
  const rr::core::Simulator& sim = *traced_run->second;
  const std::vector<std::string> pins =
      is_campaign ? std::vector<std::string>{} : check_pins(workload, untraced);
  for (const std::string& pin : pins) tally.note("pin: " + pin);
  tally.record(1, pins.empty());
  const bool same = traced.outputs == untraced.outputs;
  tally.record(1, same);
  if (!same) tally.note("traced run output differs from the untraced run");

  double save_s = 0.0;
  double restore_s = 0.0;
  {
    telemetry::Span span{"bench", "bench.replay.checkpoint"};
    // Without autosaves, snapshot the finished run instead.
    save_s = save_times.empty()
                 ? time_median(
                       [&] { rr::checkpoint::save(sim, experiment, snapshot); },
                       3, 0.0)
                 : median(save_times);
    // restore() rebuilds the strategy from the embedded experiment, which
    // knows only the program's strategies, not the bench's idle one.
    if (experiment.get("strategy", "name", "") != "idle") {
      restore_s = time_median(
          [&] { (void)rr::checkpoint::restore(snapshot); }, 3, 0.0);
    }
  }
  const double save_mb =
      static_cast<double>(std::filesystem::file_size(snapshot)) / 1e6;
  std::filesystem::remove(snapshot);

  const MobilityReplay mobility = replay_mobility(
      scenario->fleet(), config.mobility_tick_s,
      static_cast<std::size_t>(traced.sim_s / config.mobility_tick_s),
      config.net.v2x.range_m);
  const MlReplay ml =
      sim.ml().density()
          ? MlReplay{}
          : replay_ml(sim.ml(), scenario->vehicle_data().front(), config,
                      static_cast<std::size_t>(experiment.get_int(
                          "strategy", "participants", 5)));
  const Scaling scaling = fit_scaling(workload, config, experiment);

  const double callback_s = timer->total_s();
  const double changes = timer->calls[kEncounter];
  const double residual_s = traced.wall_s - mobility.encounters_s - callback_s;
  const double events = traced.stats.at("events_executed");
  const auto cores =
      static_cast<double>(rr::util::ThreadPool::global().size());
  const double trace_overhead =
      is_campaign ? campaign.trace_overhead
                  : ratio(traced.wall_s, untraced.wall_s) - 1.0;

  const std::vector<Metric> metrics = {
      {"scenario.fleet_build_s", fleet_s, "s"},
      {"scenario.data_build_s", data_s, "s"},

      {"mobility.snapshot_s", mobility.snapshot_s, "s"},
      {"mobility.encounters_s", mobility.encounters_s, "s"},
      {"mobility.powered_nodes_per_tick",
       ratio(mobility.powered, mobility.ticks), "count"},
      {"mobility.pairs_per_tick", ratio(mobility.pairs, mobility.ticks),
       "count"},
      {"mobility.pairs_per_s", ratio(mobility.pairs, mobility.encounters_s),
       "1/s"},
      {"mobility.scaling_exponent", scaling.run_exponent, "exponent"},
      {"mobility.encounters_exponent", scaling.encounters_exponent,
       "exponent"},

      {"core.events", events, "count"},
      {"core.events_per_s", ratio(events, untraced.wall_s), "1/s"},
      {"core.encounter_changes", changes, "count"},
      {"core.residual_s", residual_s, "s"},
      {"core.residual_share", ratio(residual_s, traced.wall_s), "ratio"},
      {"core.diff_yield", ratio(changes, mobility.pairs), "ratio"},

      {"strategy.callback_s", callback_s, "s"},
      {"strategy.callbacks", timer->total_calls(), "count"},
      {"strategy.on_message_s", timer->seconds[kMessage], "s"},
      {"strategy.on_timer_s", timer->seconds[kTimer], "s"},
      {"strategy.on_encounter_s", timer->seconds[kEncounter], "s"},
      {"strategy.on_power_s", timer->seconds[kPower], "s"},
      {"strategy.on_training_complete_s", timer->seconds[kTrainingComplete],
       "s"},

      {"ml.train_jobs", timer->train_jobs, "count"},
      {"ml.train_samples", timer->train_samples, "count"},
      {"ml.train_gflop", timer->train_flops / 1e9, "GFLOP"},
      {"ml.train_samples_per_s", ratio(timer->train_samples, untraced.wall_s),
       "1/s"},
      {"ml.train_job_s", ml.train_job_s, "s"},
      {"ml.train_gflops", ratio(ml.train_job_flops / 1e9, ml.train_job_s),
       "GFLOP/s"},
      {"ml.conv_fwd_gflops", ratio(ml.fwd_macs[0] / 1e9, ml.fwd_s[0]),
       "GFLOP/s"},
      {"ml.conv_bwd_gflops", ratio(2.0 * ml.fwd_macs[0] / 1e9, ml.bwd_s[0]),
       "GFLOP/s"},
      {"ml.linear_fwd_gflops", ratio(ml.fwd_macs[1] / 1e9, ml.fwd_s[1]),
       "GFLOP/s"},
      {"ml.linear_bwd_gflops", ratio(2.0 * ml.fwd_macs[1] / 1e9, ml.bwd_s[1]),
       "GFLOP/s"},
      {"ml.evaluate_s", ml.evaluate_s, "s"},
      {"ml.fed_avg_s", ml.fed_avg_s, "s"},
      {"ml.serialize_mb_per_s", ml.serialize_mb_per_s, "MB/s"},
      {"ml.train_cpu_share_est",
       ratio(timer->train_jobs * ml.train_job_s, untraced.wall_s * cores),
       "ratio"},

      {"checkpoint.save_s", save_s, "s"},
      {"checkpoint.save_mb", save_mb, "MB"},
      {"checkpoint.restore_s", restore_s, "s"},
      {"checkpoint.saves", campaign.saves, "count"},

      {"campaign.serial_job_s", campaign.serial_job_s, "s"},
      {"campaign.parallel_efficiency", campaign.parallel_efficiency, "ratio"},

      {"trace.overhead_frac", trace_overhead, "ratio"},
  };
  return metrics;
}

}  // namespace ledger

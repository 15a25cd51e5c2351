#include "core/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "telemetry/telemetry.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"
#include "workload/drift_metrics.hpp"

namespace roadrunner::core {

Simulator::Simulator(const mobility::FleetModel& fleet,
                     comm::Network::Config netcfg, MlService ml,
                     SimulatorConfig config)
    : fleet_{&fleet},
      network_{fleet, std::move(netcfg),
               util::Rng{config.seed}.fork("network")},
      ml_{std::move(ml)},
      config_{config},
      injector_{config.faults.scaled(), util::Rng{config.seed}.fork("fault")},
      adversary_{config.adversaries.scaled(),
                 util::Rng{config.seed}.fork("adversary")},
      traffic_{config.traffic},
      trace_{config.trace_events},
      master_rng_{config.seed},
      strategy_rng_{master_rng_.fork("strategy")} {
  if (config_.mobility_tick_s <= 0.0) {
    throw std::invalid_argument{"Simulator: mobility_tick_s <= 0"};
  }
  // Wired here (not in the init list) because the hooks point back into
  // this object; empty plans skip the hook so clean runs pay only the null
  // check the Network already had. The mux fans the single hook slot out to
  // the benign injector and the adversary's jammer.
  if (injector_.enabled() || adversary_.enabled()) {
    if (injector_.enabled()) hook_mux_.faults = &injector_;
    if (adversary_.enabled()) hook_mux_.adversary = &adversary_;
    network_.set_fault_hook(&hook_mux_);
  }
  node_to_agent_.assign(fleet.node_count(), kNoAgent);
}

AgentId Simulator::add_cloud(hu::DeviceClass device) {
  if (ran_ || running_) throw std::logic_error{"Simulator: already run"};
  if (cloud_id_ != kNoAgent) {
    throw std::logic_error{"Simulator: cloud already added"};
  }
  const AgentId id = agents_.size();
  agents_.emplace_back(id, AgentKind::kCloudServer, comm::kCloudEndpoint,
                       std::move(device));
  cloud_id_ = id;
  return id;
}

AgentId Simulator::add_vehicle(mobility::NodeId node, ml::DatasetView data,
                               hu::DeviceClass device) {
  if (ran_ || running_) throw std::logic_error{"Simulator: already run"};
  if (node >= fleet_->node_count() || !fleet_->is_vehicle(node)) {
    throw std::invalid_argument{"Simulator::add_vehicle: bad node"};
  }
  if (node_to_agent_[node] != kNoAgent) {
    throw std::invalid_argument{"Simulator::add_vehicle: node already bound"};
  }
  const AgentId id = agents_.size();
  agents_.emplace_back(id, AgentKind::kVehicle, node, std::move(device));
  agents_.back().data = std::move(data);
  vehicle_ids_.push_back(id);
  node_to_agent_[node] = id;
  return id;
}

AgentId Simulator::add_rsu(mobility::NodeId node, hu::DeviceClass device) {
  if (ran_ || running_) throw std::logic_error{"Simulator: already run"};
  if (node >= fleet_->node_count() || fleet_->is_vehicle(node)) {
    throw std::invalid_argument{"Simulator::add_rsu: bad node"};
  }
  if (node_to_agent_[node] != kNoAgent) {
    throw std::invalid_argument{"Simulator::add_rsu: node already bound"};
  }
  const AgentId id = agents_.size();
  agents_.emplace_back(id, AgentKind::kRoadsideUnit, node, std::move(device));
  rsu_ids_.push_back(id);
  node_to_agent_[node] = id;
  return id;
}

void Simulator::set_strategy(
    std::shared_ptr<strategy::LearningStrategy> strategy) {
  if (!strategy) throw std::invalid_argument{"Simulator: null strategy"};
  strategy_ = std::move(strategy);
}

void Simulator::set_autosave(double every_s,
                             std::function<void(Simulator&)> fn) {
  autosave_every_s_ = every_s;
  autosave_ = std::move(fn);
}

// ----- observation ---------------------------------------------------------

SimTime Simulator::now() const { return queue_.current_time(); }

std::size_t Simulator::agent_count() const { return agents_.size(); }

const Agent& Simulator::agent(AgentId id) const {
  if (id >= agents_.size()) throw std::out_of_range{"Simulator::agent"};
  return agents_[id];
}

Agent& Simulator::agent_mut(AgentId id) {
  if (id >= agents_.size()) throw std::out_of_range{"Simulator::agent"};
  return agents_[id];
}

AgentId Simulator::cloud_id() const {
  if (cloud_id_ == kNoAgent) {
    throw std::logic_error{"Simulator::cloud_id: no cloud agent"};
  }
  return cloud_id_;
}

const std::vector<AgentId>& Simulator::vehicle_ids() const {
  return vehicle_ids_;
}

const std::vector<AgentId>& Simulator::rsu_ids() const { return rsu_ids_; }

bool Simulator::is_on(AgentId id) const {
  const Agent& a = agent(id);
  // Effective power = ignition AND no injected outage/crash-reboot window;
  // the cloud is always ignited but can still suffer a node_outage.
  if (a.kind == AgentKind::kCloudServer) {
    return !injector_.enabled() ||
           !injector_.node_down(comm::kCloudEndpoint, now());
  }
  if (!fleet_->is_on(a.node, now())) return false;
  return !injector_.enabled() || !injector_.node_down(a.node, now());
}

bool Simulator::is_busy(AgentId id) const {
  const Agent& a = agent(id);
  return a.training || !a.hu.available(now());
}

mobility::Position Simulator::position_of(AgentId id) const {
  const Agent& a = agent(id);
  if (a.kind == AgentKind::kCloudServer) {
    throw std::logic_error{"Simulator::position_of: cloud has no position"};
  }
  return fleet_->position_of(a.node, now());
}

std::uint64_t Simulator::model_bytes() const { return ml_.model_bytes(); }

double Simulator::v2x_range_m() const {
  return network_.channel(comm::ChannelKind::kV2X).range_m;
}

const ml::TrainConfig& Simulator::train_config() const {
  return config_.train;
}

ml::DatasetView Simulator::available_data(AgentId id) const {
  const Agent& a = agent(id);
  if (config_.data_arrival_per_s <= 0.0 || a.data.empty() ||
      a.kind != AgentKind::kVehicle) {
    return a.data;
  }
  const auto arrived = static_cast<std::size_t>(
      std::floor(config_.data_arrival_per_s * now()));
  const std::size_t count = std::min(arrived, a.data.size());
  // With a recent window, keep only the last W arrived samples: under
  // drift the training data then tracks the current regime instead of
  // averaging over every regime seen so far.
  const std::size_t window = config_.data_recent_window;
  const std::size_t first = window > 0 && count > window ? count - window : 0;
  std::vector<std::uint32_t> rows(
      a.data.indices().begin() + static_cast<std::ptrdiff_t>(first),
      a.data.indices().begin() + static_cast<std::ptrdiff_t>(count));
  return ml::DatasetView{a.data.base_ptr(), std::move(rows)};
}

// ----- actions -------------------------------------------------------------

bool Simulator::send(Message msg) {
  if (msg.from >= agents_.size() || msg.to >= agents_.size()) {
    throw std::invalid_argument{"Simulator::send: bad agent id"};
  }
  std::size_t clones = 0;
  if (adversary_.enabled() &&
      agents_[msg.from].kind == AgentKind::kVehicle) {
    // Compromised senders mutate their payload exactly once per logical
    // send; sybil events report extra clones to inject behind it.
    const adversary::OutgoingEffect effect = adversary_.transform_outgoing(
        agents_[msg.from].node, now(), msg.model, msg.data_amount);
    clones = effect.clones;
    if (effect.mutated) {
      trace_.record(now(), TraceKind::kMessageSent, msg.from, msg.to,
                    "adversary-mutated");
    }
  }
  if (clones == 0) return dispatch_send(std::move(msg));
  // The original's outcome is what the (unsuspecting) strategy caller sees;
  // clones ride the same radio rules as any other send.
  std::vector<Message> copies(clones, msg);
  const bool ok = dispatch_send(std::move(msg));
  for (Message& copy : copies) dispatch_send(std::move(copy));
  return ok;
}

bool Simulator::dispatch_send(Message msg) {
  const std::size_t limit =
      network_.channel(msg.channel).max_concurrent_per_agent;
  if (limit > 0) {
    const auto key = std::pair{msg.from, msg.channel};
    if (active_transfers_[key] >= limit) {
      // Radio busy: the message is accepted and queued; it starts when a
      // slot frees (failures then arrive via on_message_failed).
      send_backlog_[key].push_back(std::move(msg));
      metrics_.increment("transfers_queued");
      return true;
    }
  }
  return begin_transfer(std::move(msg), /*queued=*/false);
}

bool Simulator::begin_transfer(Message msg, bool queued) {
  const mobility::NodeId from_node = agents_[msg.from].node;
  const mobility::NodeId to_node = agents_[msg.to].node;
  const std::uint64_t bytes = msg.wire_bytes();

  network_.record_attempt(msg.channel, bytes);
  const comm::LinkCheck check =
      network_.check_link(from_node, to_node, msg.channel, now());
  if (!check.ok()) {
    network_.record_failure(msg.channel, check.status);
    if (queued) {
      // The caller was told "accepted" at queue time; report the broken
      // link the same way a mid-transfer failure would surface.
      trace_.record(now(), TraceKind::kMessageFailed, msg.from, msg.to,
                    comm::to_string(check.status));
      strategy_->on_message_failed(*this, msg, check.status);
    }
    return false;
  }

  const double duration =
      network_.duration_between(from_node, to_node, msg.channel, bytes, now());
  const SimTime at = now() + duration;
  trace_.record(now(), TraceKind::kMessageSent, msg.from, msg.to, msg.tag);
  if (network_.channel(msg.channel).max_concurrent_per_agent > 0) {
    ++active_transfers_[std::pair{msg.from, msg.channel}];
  }
  SimEvent ev;
  ev.kind = SimEventKind::kDeliver;
  ev.msg = std::move(msg);
  queue_.schedule(at, std::move(ev));
  return true;
}

void Simulator::transfer_finished(AgentId sender, comm::ChannelKind kind) {
  if (network_.channel(kind).max_concurrent_per_agent == 0) return;
  const auto key = std::pair{sender, kind};
  auto active = active_transfers_.find(key);
  if (active != active_transfers_.end() && active->second > 0) {
    --active->second;
  }
  auto backlog = send_backlog_.find(key);
  while (backlog != send_backlog_.end() && !backlog->second.empty() &&
         active_transfers_[key] <
             network_.channel(kind).max_concurrent_per_agent) {
    Message next = std::move(backlog->second.front());
    backlog->second.pop_front();
    // A failed start does not occupy a slot; keep draining.
    begin_transfer(std::move(next), /*queued=*/true);
  }
}

void Simulator::deliver(Message msg) {
  RR_TSPAN("sim", "sim.deliver");
  const mobility::NodeId from_node = agents_[msg.from].node;
  const mobility::NodeId to_node = agents_[msg.to].node;
  const std::uint64_t bytes = msg.wire_bytes();
  transfer_finished(msg.from, msg.channel);
  const comm::LinkCheck check =
      network_.roll_delivery(from_node, to_node, msg.channel, now());
  if (check.ok()) {
    network_.record_delivery(msg.channel, bytes);
    metrics_.increment("messages_delivered");
    trace_.record(now(), TraceKind::kMessageDelivered, msg.from, msg.to,
                  msg.tag);
    if (injector_.enabled()) {
      // First delivery on a channel after an outage window closes it:
      // the gap is that window's time-to-recover.
      for (double delay : injector_.note_delivery(msg.channel, now())) {
        metrics_.add_point("fault_recovery_s", now(), delay);
      }
      if (injector_.roll_corruption(msg.channel, now())) {
        msg.corrupted = true;
        metrics_.increment("messages_corrupted");
        trace_.record(now(), TraceKind::kMessageCorrupted, msg.from, msg.to,
                      msg.tag);
      }
    }
    strategy_->on_message(*this, msg);
  } else {
    network_.record_failure(msg.channel, check.status);
    metrics_.increment("messages_failed");
    trace_.record(now(), TraceKind::kMessageFailed, msg.from, msg.to,
                  comm::to_string(check.status));
    strategy_->on_message_failed(*this, msg, check.status);
  }
}

bool Simulator::start_training(AgentId id, int round_tag) {
  return start_training(id, round_tag, config_.train);
}

bool Simulator::start_training(AgentId id, int round_tag,
                               const ml::TrainConfig& config) {
  Agent& a = agent_mut(id);
  if (!is_on(id) || a.training || a.model.empty()) {
    return false;
  }
  const ml::DatasetView data = available_data(id);
  if (data.empty()) return false;

  const std::uint64_t flops =
      ml_.estimate_train_flops(data.size(), config.epochs);
  const double duration =
      a.hu.operation_duration(flops) * compute_slowdown(a);
  if (!a.hu.reserve(now(), duration)) return false;
  a.training = true;

  // A compromised vehicle under an active label-flip poisoning event trains
  // against shifted labels — structurally an honest update, semantically a
  // targeted attack (checked only once training is committed, so the
  // counter matches trainings actually run).
  ml::TrainConfig effective = config;
  if (adversary_.enabled() && a.kind == AgentKind::kVehicle &&
      adversary_.poison_training(a.node, now())) {
    effective.label_flip = true;
  }

  // Job randomness forks deterministically from the master seed and an
  // invocation counter, so thread scheduling cannot change results.
  util::Rng job_rng = master_rng_.fork(
      "train-" + std::to_string(id) + "-" +
      std::to_string(train_job_counter_++));

  std::shared_future<TrainResult> job =
      ml_.train_async(a.model, data, effective, job_rng).share();

  SimEvent ev;
  ev.kind = SimEventKind::kFinishTraining;
  ev.agent = id;
  ev.tag = round_tag;
  ev.duration_s = duration;
  ev.data_amount = static_cast<double>(data.size());
  ev.job = std::move(job);
  queue_.schedule(now() + duration, std::move(ev));
  metrics_.increment("trainings_started");
  trace_.record(now(), TraceKind::kTrainingStarted, id, kNoAgent,
                "round=" + std::to_string(round_tag));
  return true;
}

void Simulator::finish_training(AgentId id, int round_tag, double duration_s,
                                double data_amount,
                                std::shared_future<TrainResult> job) {
  // Includes the potential wait on the job: a fat span here means the
  // simulated duration undershot the real training cost. While it waits,
  // this thread runs queued pool tasks (the round's other jobs) itself.
  RR_TSPAN("sim", "sim.finish_training");
  Agent& a = agent_mut(id);
  a.training = false;
  // A crash mid-training wipes the in-flight result even if the vehicle has
  // already rebooted by completion time (crash times are static plan data,
  // so this needs no extra mutable state).
  const bool crashed =
      injector_.enabled() && a.kind == AgentKind::kVehicle &&
      injector_.crashed_between(a.node, now() - duration_s, now());
  if (crashed) metrics_.increment("crash_trainings_lost");
  if (crashed || !is_on(id)) {
    // The driver powered the vehicle off mid-training: the result is lost
    // (paper §5.2: a reporter turning off "effectively discards" its work).
    metrics_.increment("trainings_discarded");
    trace_.record(now(), TraceKind::kTrainingDiscarded, id);
    strategy_->on_training_failed(*this, id, round_tag);
    return;
  }
  TrainResult result = MlService::await(job);
  a.model = std::move(result.weights);
  a.model_data_amount = data_amount;
  a.model_updated_s = now();

  strategy::TrainingOutcome outcome;
  outcome.round_tag = round_tag;
  outcome.duration_s = duration_s;
  outcome.report = result.report;
  outcome.data_amount = data_amount;
  metrics_.increment("trainings_completed");
  metrics_.increment("compute_seconds", duration_s);
  trace_.record(now(), TraceKind::kTrainingCompleted, id);
  strategy_->on_training_complete(*this, id, outcome);
}

void Simulator::set_model(AgentId id, ml::Weights weights,
                          double data_amount) {
  Agent& a = agent_mut(id);
  a.model = std::move(weights);
  a.model_data_amount = data_amount;
  a.model_updated_s = now();
}

void Simulator::set_data(AgentId id, ml::DatasetView data) {
  agent_mut(id).data = std::move(data);
}

ml::Weights Simulator::fresh_model() {
  return ml_.fresh_weights(strategy_rng_);
}

double Simulator::test_accuracy(const ml::Weights& weights) {
  // A wiped model (e.g. lost in a vehicle_crash fault) classifies nothing:
  // score it zero instead of faulting when loading empty weights.
  if (weights.empty()) return 0.0;
  if (ml_.has_eval_windows()) {
    // Drift scenarios score against the window covering *now*, and every
    // strategy evaluation feeds the readaptation series.
    const double score = ml_.test_at(weights, now()).accuracy;
    metrics_.add_point("drift_eval_score", now(), score);
    return score;
  }
  return ml_.test(weights).accuracy;
}

const ml::DatasetView& Simulator::test_set() const { return ml_.test_set(); }

std::optional<double> Simulator::reserve_computation(AgentId id,
                                                     std::uint64_t flops) {
  Agent& a = agent_mut(id);
  if (!is_on(id) || a.training) return std::nullopt;
  const double duration =
      a.hu.operation_duration(flops) * compute_slowdown(a);
  if (!a.hu.reserve(now(), duration)) return std::nullopt;
  a.training = true;
  return duration;
}

bool Simulator::start_computation(AgentId id, std::uint64_t flops,
                                  int completion_tag) {
  const std::optional<double> duration = reserve_computation(id, flops);
  if (!duration) return false;
  SimEvent ev;
  ev.kind = SimEventKind::kComputation;
  ev.agent = id;
  ev.tag = completion_tag;
  ev.duration_s = *duration;
  queue_.schedule(now() + *duration, std::move(ev));
  return true;
}

void Simulator::finish_computation(AgentId id, double duration_s, int tag) {
  Agent& a = agent_mut(id);
  a.training = false;
  const bool success = is_on(id);
  metrics_.increment(success  // rr-lint: allow(metric-name) two fixed names
                         ? "computations_completed"
                         : "computations_discarded");
  if (success) metrics_.increment("compute_seconds", duration_s);
  strategy_->on_computation_complete(*this, id, tag, success);
}

void Simulator::schedule_timer(AgentId id, double delay_s, int timer_id) {
  if (delay_s < 0.0) {
    throw std::invalid_argument{"schedule_timer: negative delay"};
  }
  SimEvent ev;
  ev.kind = SimEventKind::kTimer;
  ev.agent = id;
  ev.tag = timer_id;
  queue_.schedule(now() + delay_s, std::move(ev));
}

void Simulator::request_stop() { stop_requested_ = true; }

double Simulator::compute_slowdown(const Agent& a) const {
  // Stragglers target vehicles only; the all-vehicles wildcard must not
  // leak onto RSU/cloud nodes.
  if (!injector_.enabled() || a.kind != AgentKind::kVehicle) return 1.0;
  return injector_.hu_slowdown(a.node, now());
}

// ----- fault coupling -------------------------------------------------------

void Simulator::apply_crash(AgentId id, std::size_t plan_index) {
  const fault::FaultEvent& ev = injector_.event(plan_index);
  Agent& a = agent_mut(id);
  metrics_.increment("vehicle_crashes");
  std::string lost;
  if (ev.lose_model && !a.model.empty()) {
    a.model = {};
    a.model_data_amount = 0.0;
    a.model_updated_s = now();
    metrics_.increment("crash_models_lost");
    lost += "model";
  }
  if (ev.lose_data && !a.data.empty()) {
    a.data = ml::DatasetView{};
    metrics_.increment("crash_data_views_lost");
    lost += lost.empty() ? "data" : "+data";
  }
  trace_.record(now(), TraceKind::kVehicleCrash, id, kNoAgent,
                lost.empty() ? "lost=none" : "lost=" + lost);
  // No strategy notification here: the injector holds the node down for the
  // reboot window, so on_power_off/on fire through the next mobility tick's
  // regular diff — exactly like an ignition power cycle.
}

// ----- mobility coupling ---------------------------------------------------

void Simulator::mobility_tick() {
  RR_TSPAN("sim", "sim.mobility_tick");
  const SimTime t = now();

  // Power-state diff for vehicles. Uses the *effective* power state (is_on)
  // so injected outages and crash reboots surface as the same
  // on_power_off/on events an ignition cycle produces. A vehicle is only
  // asked again once its power window (or a fault window edge) has passed.
  for (std::size_t i = 0; i < vehicle_ids_.size(); ++i) {
    if (t < power_check_s_[i]) continue;
    const AgentId id = vehicle_ids_[i];
    power_check_s_[i] = power_stable_until(agents_[id].node, t);
    const bool on = is_on(id);
    if (on != last_power_[i]) {
      last_power_[i] = on;
      trace_.record(t, on ? TraceKind::kPowerOn : TraceKind::kPowerOff, id);
      if (on) {
        strategy_->on_power_on(*this, id);
      } else {
        strategy_->on_power_off(*this, id);
      }
    }
  }

  // Encounter diff, restricted to nodes that are bound to agents.
  const double range = network_.channel(comm::ChannelKind::kV2X).range_m;
  current_encounters_.clear();
  if (range > 0.0) {
    RR_TSPAN("sim", "sim.encounter_scan");
    for (const auto& [na, nb] : fleet_->encounters(t, range)) {
      const AgentId a = node_to_agent_[na];
      const AgentId b = node_to_agent_[nb];
      if (a == kNoAgent || b == kNoAgent) continue;
      current_encounters_.emplace_back(std::min(a, b), std::max(a, b));
    }
  }
  RR_TSPAN("sim", "sim.encounter_diff");
  // Node order need not match agent order, so sort after the mapping (it is
  // injective: no duplicates) unless it kept the fleet's order, as it does
  // when agents were registered in node order. With both lists ascending,
  // one forward walk each yields the begins, then the ends, in pair order.
  if (!std::is_sorted(current_encounters_.begin(), current_encounters_.end())) {
    std::sort(current_encounters_.begin(), current_encounters_.end());
  }
  const auto holds = [](const auto& sorted, std::size_t& cursor,
                        const std::pair<AgentId, AgentId>& pair) {
    while (cursor < sorted.size() && sorted[cursor] < pair) ++cursor;
    return cursor < sorted.size() && sorted[cursor] == pair;
  };
  std::size_t cursor = 0;
  for (const auto& [a, b] : current_encounters_) {
    if (holds(active_encounters_, cursor, {a, b})) continue;
    metrics_.increment("encounters");
    trace_.record(t, TraceKind::kEncounterBegin, a, b);
    strategy_->on_encounter_begin(*this, a, b);
  }
  cursor = 0;
  for (const auto& [a, b] : active_encounters_) {
    if (holds(current_encounters_, cursor, {a, b})) continue;
    trace_.record(t, TraceKind::kEncounterEnd, a, b);
    strategy_->on_encounter_end(*this, a, b);
  }
  active_encounters_.swap(current_encounters_);
}

double Simulator::power_stable_until(mobility::NodeId node, double t) const {
  double until = fleet_->power_until(node, t);
  // The first edge after t on this node: node_down() is a union of
  // half-open windows, so it is constant from t up to that edge.
  const auto it = std::upper_bound(fault_edges_.begin(), fault_edges_.end(),
                                   std::pair{node, t});
  if (it != fault_edges_.end() && it->first == node) {
    until = std::min(until, it->second);
  }
  return until;
}

void Simulator::schedule_next_tick(double at) {
  if (at > config_.horizon_s) return;
  SimEvent ev;
  ev.kind = SimEventKind::kMobilityTick;
  queue_.schedule(at, std::move(ev));
}

void Simulator::dispatch(SimEvent ev) {
  switch (ev.kind) {
    case SimEventKind::kMobilityTick:
      mobility_tick();
      // The event's own time is current_time() now; the cadence is
      // identical to the pre-refactor chained closures.
      schedule_next_tick(queue_.current_time() + config_.mobility_tick_s);
      break;
    case SimEventKind::kDeliver:
      deliver(std::move(ev.msg));
      break;
    case SimEventKind::kFinishTraining:
      finish_training(ev.agent, ev.tag, ev.duration_s, ev.data_amount,
                      std::move(ev.job));
      break;
    case SimEventKind::kComputation:
      finish_computation(ev.agent, ev.duration_s, ev.tag);
      break;
    case SimEventKind::kTimer:
      strategy_->on_timer(*this, ev.agent, ev.tag);
      break;
    case SimEventKind::kFaultCrash:
      apply_crash(ev.agent, static_cast<std::size_t>(ev.tag));
      break;
    case SimEventKind::kSignalPhase:
      traffic_.apply_phase(static_cast<std::size_t>(ev.tag), metrics_);
      break;
    case SimEventKind::kPlatoonManeuver:
      traffic_.apply_maneuver(static_cast<std::size_t>(ev.tag), metrics_);
      break;
  }
}

void Simulator::export_channel_counters() {
  for (std::size_t k = 0; k < comm::kChannelKindCount; ++k) {
    const auto kind = static_cast<comm::ChannelKind>(k);
    const auto& s = network_.stats(kind);
    const std::string prefix = "bytes_" + comm::to_string(kind);
    // Dynamic metric families keyed by channel kind / failure cause: the
    // name set is bounded by two small enums, so the schema stays closed.
    metrics_.set_counter(prefix + "_attempted",  // rr-lint: allow(metric-name)
                         static_cast<double>(s.bytes_attempted));
    metrics_.set_counter(prefix + "_delivered",  // rr-lint: allow(metric-name)
                         static_cast<double>(s.bytes_delivered));
    const std::string transfers = "transfers_" + comm::to_string(kind);
    metrics_.set_counter(transfers + "_failed",  // rr-lint: allow(metric-name)
                         static_cast<double>(s.transfers_failed));
    // Per-cause breakdown. Every cause is exported (zeros included) so
    // campaign CSV columns are identical across sweep points.
    for (std::size_t c = 1; c < comm::kLinkStatusCount; ++c) {
      const auto cause = static_cast<comm::LinkStatus>(c);
      metrics_.set_counter(  // rr-lint: allow(metric-name)
          transfers + "_failed_" + comm::to_string(cause),
          static_cast<double>(s.failed_by_cause[c]));
    }
  }
}

bool Simulator::is_adversary_compromised(AgentId id) const {
  if (!adversary_.enabled()) return false;
  const Agent& a = agent(id);
  if (a.kind != AgentKind::kVehicle) return false;
  return adversary_.compromised(a.node);
}

void Simulator::export_adversary_counters() {
  if (!adversary_.enabled()) return;
  const adversary::AttackCounters& c = adversary_.counters();
  // Zeros included so adversarial campaign CSVs keep identical columns
  // across sweep points (same contract as the channel counters).
  metrics_.set_counter("adversary_compromised_vehicles",
                       static_cast<double>(adversary_.compromised_count()));
  metrics_.set_counter("adversary_poisoned_updates",
                       static_cast<double>(c.poisoned_updates));
  metrics_.set_counter("adversary_byzantine_updates",
                       static_cast<double>(c.byzantine_updates));
  metrics_.set_counter("adversary_sybil_clones",
                       static_cast<double>(c.sybil_clones));
  metrics_.set_counter("adversary_label_flip_trainings",
                       static_cast<double>(c.label_flip_trainings));
  // Accepted/rejected are incremented by the aggregation sites; re-setting
  // them here materializes the zero columns on runs where no poisoned
  // update ever reached an aggregator.
  const double accepted = metrics_.counter("adversary_updates_accepted");
  const double rejected = metrics_.counter("adversary_updates_rejected");
  metrics_.set_counter("adversary_updates_accepted", accepted);
  metrics_.set_counter("adversary_updates_rejected", rejected);
  // Attack success rate: of the poisoned updates that reached a merge, the
  // share the defense let through. 0 when none arrived (fully suppressed).
  const double reached = accepted + rejected;
  metrics_.set_counter("adversary_attack_success_rate",
                       reached > 0.0 ? accepted / reached : 0.0);
  // Defense columns materialize even when the defense never fired.
  metrics_.set_counter("defense_updates_rejected",
                       metrics_.counter("defense_updates_rejected"));
  metrics_.set_counter("defense_updates_clipped",
                       metrics_.counter("defense_updates_clipped"));
}

void Simulator::export_model_age_metrics(double end_time_s) {
  // Age of each vehicle's serving model at end of run; percentiles via the
  // nearest-rank method on the sorted ages (deterministic, no interpolation).
  std::vector<double> ages;
  ages.reserve(vehicle_ids_.size());
  for (AgentId v : vehicle_ids_) {
    ages.push_back(end_time_s - agents_[v].model_updated_s);
  }
  if (ages.empty()) return;
  std::sort(ages.begin(), ages.end());
  auto percentile = [&](double p) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(ages.size())));
    return ages[std::min(rank == 0 ? 0 : rank - 1, ages.size() - 1)];
  };
  metrics_.set_counter("stale_model_age_p50_s", percentile(0.50));
  metrics_.set_counter("stale_model_age_p90_s", percentile(0.90));
  metrics_.set_counter("stale_model_age_max_s", ages.back());
}

void Simulator::export_drift_metrics(double end_time_s) {
  // Pure function of the recorded series + the (checkpointed) config, so a
  // snapshot-resumed run exports identical drift_* values.
  std::vector<workload::DriftScore> series;
  if (metrics_.has_series("drift_eval_score")) {
    const auto& points = metrics_.series("drift_eval_score");
    series.reserve(points.size());
    for (const metrics::Point& p : points) {
      series.push_back(workload::DriftScore{p.time_s, p.value});
    }
  }
  const double horizon =
      std::isfinite(config_.horizon_s) ? config_.horizon_s : end_time_s;
  const workload::DriftSummary summary = workload::summarize_drift(
      series, config_.drift.shift_times(horizon), horizon,
      config_.drift_recovery_fraction);
  metrics_.set_counter("drift_shifts_total",
                       static_cast<double>(summary.shifts.size()));
  metrics_.set_counter("drift_shifts_unrecovered",
                       static_cast<double>(summary.unrecovered));
  metrics_.set_counter("drift_mean_time_to_readapt_s",
                       summary.mean_time_to_readapt_s);
  metrics_.set_counter("drift_regret", summary.regret);
  for (const workload::DriftShiftOutcome& o : summary.shifts) {
    // One point per shift, timestamped at the shift instant.
    metrics_.add_point("drift_time_to_readapt_s", o.shift_s, o.readapt_s);
  }
}

// ----- run loop ------------------------------------------------------------

Simulator::RunReport Simulator::run() {
  if (ran_) throw std::logic_error{"Simulator::run: already run"};
  if (!strategy_) throw std::logic_error{"Simulator::run: no strategy set"};
  if (cloud_id_ == kNoAgent && vehicle_ids_.empty()) {
    throw std::logic_error{"Simulator::run: no agents"};
  }
  if (config_.telemetry) telemetry::set_enabled(true);
  running_ = true;
  const util::Stopwatch wall_watch;
  telemetry::Span run_span{"sim", "sim.run"};
  static telemetry::Counter events_counter{"sim.events_executed"};

  if (!restored_) {
    last_power_.resize(vehicle_ids_.size());
    for (std::size_t i = 0; i < vehicle_ids_.size(); ++i) {
      // Effective power (ignition AND no injected outage), matching the
      // mobility-tick diff.
      last_power_[i] = is_on(vehicle_ids_[i]);
    }
    strategy_->on_start(*this);
    schedule_next_tick(config_.mobility_tick_s);
    // Scripted crashes become regular queue events, so they serialize into
    // snapshots like everything else (a restored run must not re-schedule
    // them — pending ones are already in the reinstated queue).
    for (std::size_t idx : injector_.crash_indices()) {
      const fault::FaultEvent& fe = injector_.event(idx);
      if (fe.vehicle >= node_to_agent_.size() ||
          node_to_agent_[fe.vehicle] == kNoAgent) {
        throw std::invalid_argument{
            "Simulator: vehicle_crash targets unbound vehicle node " +
            std::to_string(fe.vehicle)};
      }
      SimEvent ev;
      ev.kind = SimEventKind::kFaultCrash;
      ev.agent = node_to_agent_[fe.vehicle];
      ev.tag = static_cast<int>(idx);
      queue_.schedule(fe.at_s, std::move(ev));
    }
    // Traffic phase changes and platoon maneuvers replay the same way:
    // ordinary queue events carrying only a timeline index, so they
    // serialize into snapshots and restored runs inherit the pending ones.
    if (traffic_.enabled()) {
      const traffic::TrafficTimeline& tl = traffic_.timeline();
      for (std::size_t i = 0; i < tl.phases.size(); ++i) {
        if (tl.phases[i].time_s > config_.horizon_s) continue;
        SimEvent ev;
        ev.kind = SimEventKind::kSignalPhase;
        ev.tag = static_cast<int>(i);
        queue_.schedule(tl.phases[i].time_s, std::move(ev));
      }
      for (std::size_t i = 0; i < tl.maneuvers.size(); ++i) {
        if (tl.maneuvers[i].time_s > config_.horizon_s) continue;
        SimEvent ev;
        ev.kind = SimEventKind::kPlatoonManeuver;
        ev.tag = static_cast<int>(i);
        queue_.schedule(tl.maneuvers[i].time_s, std::move(ev));
      }
    }
  }
  // A restored run continues mid-flight: on_start, initial power states,
  // and the tick chain are all part of the reinstated state.

  // The power-diff schedule is derived state: every vehicle is checked at
  // the next tick, which then learns how long its state holds.
  power_check_s_.assign(vehicle_ids_.size(),
                        -std::numeric_limits<double>::infinity());
  fault_edges_.clear();
  const auto add_edge = [&](mobility::NodeId node, double edge) {
    if (std::isfinite(edge)) fault_edges_.emplace_back(node, edge);
  };
  for (const fault::FaultEvent& ev : injector_.plan().events) {
    if (ev.kind == fault::FaultKind::kNodeOutage) {
      add_edge(ev.node, ev.start_s);
      add_edge(ev.node, ev.end_s);
    } else if (ev.kind == fault::FaultKind::kVehicleCrash &&
               ev.reboot_after_s > 0.0) {
      add_edge(ev.vehicle, ev.at_s);
      add_edge(ev.vehicle, ev.at_s + ev.reboot_after_s);
    }
  }
  std::sort(fault_edges_.begin(), fault_edges_.end());

  // Autosaves fire between events, outside the queue: they consume no
  // event slots, no seq numbers, and no randomness, so a snapshot-resumed
  // run replays exactly like an uninterrupted one.
  double next_autosave = std::numeric_limits<double>::infinity();
  if (autosave_ && autosave_every_s_ > 0.0) {
    next_autosave = queue_.current_time() + autosave_every_s_;
  }

  while (!queue_.empty() && !stop_requested_) {
    if (queue_.next_time() > config_.horizon_s) break;
    dispatch(queue_.pop_next());
    events_counter.add();
    // No save after the last event: the run ends right after it, so a
    // resume would start from the previous save, which is as exact.
    if (queue_.current_time() >= next_autosave && !queue_.empty() &&
        queue_.next_time() <= config_.horizon_s && !stop_requested_) {
      RR_TSPAN("checkpoint", "checkpoint.autosave");
      autosave_(*this);
      next_autosave = queue_.current_time() + autosave_every_s_;
    }
  }

  strategy_->on_finish(*this);
  export_channel_counters();
  export_adversary_counters();
  traffic_.export_counters(metrics_);
  export_model_age_metrics(queue_.current_time());
  if (ml_.has_eval_windows()) export_drift_metrics(queue_.current_time());

  // Per-vehicle computational workload (Req. 4): cumulative HU-busy time.
  double max_compute = 0.0;
  double total_compute = 0.0;
  for (AgentId v : vehicle_ids_) {
    const double busy = agents_[v].hu.total_busy_time();
    metrics_.set_counter(  // rr-lint: allow(metric-name) per-vehicle family
        "compute_s_vehicle_" + std::to_string(v), busy);
    max_compute = std::max(max_compute, busy);
    total_compute += busy;
  }
  metrics_.set_counter("compute_s_vehicle_max", max_compute);
  metrics_.set_counter("compute_s_vehicle_total", total_compute);

  running_ = false;
  ran_ = true;

  RunReport report;
  report.sim_end_time_s = queue_.current_time();
  report.events_executed = queue_.executed_count();
  report.stopped_by_strategy = stop_requested_;
  report.wall_seconds = wall_watch.elapsed_s();
  // Simulated-time metrics only: wall time lives in the RunReport so the
  // registry stays byte-identical across reruns of the same seed.
  metrics_.set_counter("events_executed",
                       static_cast<double>(report.events_executed));
  RR_LOG_INFO("core") << "run finished at sim time "
                      << format_time(report.sim_end_time_s) << " after "
                      << report.events_executed << " events ("
                      << report.wall_seconds << " s wall)";
  return report;
}

}  // namespace roadrunner::core

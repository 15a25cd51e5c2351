// The Core Simulator (paper §4, Fig. 2): creates virtual agents, proceeds
// in discrete steps through simulation time, and orchestrates the mobility,
// communication, ML, and learning-strategy modules.
//
// Responsibilities:
//  * agent registry (vehicles bound to fleet nodes, RSUs, the cloud);
//  * message passing through comm::Network with realistic durations and
//    mid-transfer failure (§5.1);
//  * local training through MlService + hu::HardwareUnit (real computation,
//    simulated duration, busy tracking);
//  * mobility ticks that diff encounter sets and power states into
//    strategy events;
//  * metrics output timestamped in simulated time.
//
// The pending-event queue carries typed SimEvent payloads (not closures),
// so a running simulation is fully serializable: checkpoint::SimulatorIo —
// a friend — snapshots and reinstates every private field. Autosaves are
// triggered *between* events by the run loop, never through the queue, so
// checkpointing is invisible to event counts, sequence numbers, and RNG
// streams (the determinism contract: a resumed run replays bit-identically).
#pragma once

#include <deque>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/agent.hpp"
#include "core/event_queue.hpp"
#include "core/event_trace.hpp"
#include "core/message.hpp"
#include "core/ml_service.hpp"
#include "adversary/controller.hpp"
#include "core/sim_event.hpp"
#include "fault/injector.hpp"
#include "strategy/learning_strategy.hpp"
#include "traffic/runtime.hpp"
#include "workload/drift_plan.hpp"

namespace roadrunner::checkpoint {
class SimulatorIo;
}

namespace roadrunner::core {

struct SimulatorConfig {
  /// Hard stop for the run; infinity means "until the queue drains or the
  /// strategy requests a stop". The fleet's trace duration is a natural
  /// choice.
  double horizon_s = std::numeric_limits<double>::infinity();
  /// Mobility sampling step for encounter/power detection (paper: "at each
  /// point in simulated time, the Core Simulator will change the state of
  /// participating agents according to their current position and state").
  double mobility_tick_s = 1.0;
  /// Default local-training configuration (paper §5.2: 2 epochs SGD).
  ml::TrainConfig train;
  /// Master seed; all component randomness forks from it.
  std::uint64_t seed = 1;
  /// Record a structured event trace (messages, trainings, encounters,
  /// power flips) retrievable via Simulator::trace(). Off by default.
  bool trace_events = false;
  /// Data-arrival rate in samples per second per vehicle: an agent's
  /// available training data at time t is the first min(all, floor(rate*t))
  /// samples of its assignment. 0 (default) = all data present from t=0.
  double data_arrival_per_s = 0.0;
  /// When > 0 (and data is arriving), a vehicle trains on only the *last*
  /// data_recent_window arrived samples — a sliding window, so under drift
  /// the local data tracks the current regime instead of averaging over
  /// every regime seen so far. 0 keeps the full arrived prefix.
  std::size_t data_recent_window = 0;
  /// Record wall-clock telemetry spans (telemetry::Telemetry) for this run.
  /// The sink is process-global, so enabling it here enables it for every
  /// concurrent run in the process; spans stay distinguishable by tid.
  /// Off by default: instrumented sites then cost a single branch.
  bool telemetry = false;
  /// Autosave period in *simulated* seconds; 0 disables. The scenario layer
  /// wires this into an actual checkpoint::save via set_autosave().
  double checkpoint_every_s = 0.0;
  /// Directory for autosaved snapshots (scenario layer default: the
  /// experiment's working directory).
  std::string checkpoint_dir;
  /// Scripted fault timeline (already resolved against the scenario; see
  /// fault::FaultPlan::resolved). The simulator applies `faults.severity`
  /// via scaled() and drives the injector from a dedicated "fault" RNG
  /// stream, so fault randomness never perturbs other components.
  fault::FaultPlan faults;
  /// Scripted attack timeline (already resolved; see
  /// adversary::AdversaryPlan::resolved). `adversaries.fraction` scales via
  /// scaled(), mirroring fault severity; the controller draws its
  /// compromised sets from a dedicated "adversary" RNG stream.
  adversary::AdversaryPlan adversaries;
  /// Scripted distribution-drift timeline (already scaled; the stream
  /// generator consumed it at scenario build time). The simulator only
  /// reads its discrete shift_times() when scoring readaptation at end of
  /// run — drift itself is baked into the data.
  workload::DriftPlan drift;
  /// Fraction of the post-shift drop that must be regained to count as
  /// readapted (workload::summarize_drift).
  double drift_recovery_fraction = 0.9;
  /// Traffic timeline produced at fleet-generation time (see
  /// traffic::make_traffic_fleet). Queue and platoon behaviour is already
  /// baked into the fleet traces; the simulator only replays the recorded
  /// phase changes and platoon maneuvers as queue events so live signal /
  /// membership state stays checkpointable and drives traffic_* metrics.
  traffic::TrafficTimeline traffic;
};

class Simulator final : public strategy::StrategyContext {
 public:
  /// `fleet` must outlive the simulator. Network and MlService are owned.
  Simulator(const mobility::FleetModel& fleet, comm::Network::Config netcfg,
            MlService ml, SimulatorConfig config);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // ----- scenario assembly (before run()) ---------------------------------
  /// Registers the cloud server agent; exactly one per simulation.
  AgentId add_cloud(hu::DeviceClass device = hu::cloud_device());

  /// Registers a vehicle agent bound to fleet node `node` with its local
  /// training data.
  AgentId add_vehicle(mobility::NodeId node, ml::DatasetView data,
                      hu::DeviceClass device = hu::obu_device());

  /// Registers a road-side unit bound to a static fleet node.
  AgentId add_rsu(mobility::NodeId node,
                  hu::DeviceClass device = hu::rsu_device());

  void set_strategy(std::shared_ptr<strategy::LearningStrategy> strategy);

  /// Installs the autosave hook: every `every_s` simulated seconds the run
  /// loop calls `fn` *between* events (never through the event queue, so
  /// snapshots perturb nothing — event counts, seq numbers, and RNG streams
  /// are exactly those of an uninterrupted run). No save follows the last
  /// event: one that would is skipped when the queue is empty, its next
  /// event lies past the horizon, or the strategy has requested a stop.
  /// every_s <= 0 disables.
  void set_autosave(double every_s, std::function<void(Simulator&)> fn);

  // ----- execution ---------------------------------------------------------
  struct RunReport {
    double sim_end_time_s = 0.0;
    std::uint64_t events_executed = 0;
    double wall_seconds = 0.0;  ///< for the Req.-6 speed-up metric
    bool stopped_by_strategy = false;
  };
  /// Runs to completion. May be called once. On a simulator reinstated from
  /// a snapshot this *continues* the original run: on_start and the initial
  /// mobility tick are skipped (they already happened before the snapshot).
  RunReport run();

  [[nodiscard]] const comm::Network& network() const { return network_; }
  [[nodiscard]] const MlService& ml() const { return ml_; }
  [[nodiscard]] const metrics::Registry& metrics_view() const {
    return metrics_;
  }
  [[nodiscard]] const EventTrace& trace() const { return trace_; }
  [[nodiscard]] const SimulatorConfig& config() const { return config_; }
  [[nodiscard]] const fault::FaultInjector& injector() const {
    return injector_;
  }
  [[nodiscard]] const adversary::AdversaryController& adversary() const {
    return adversary_;
  }
  [[nodiscard]] const traffic::TrafficRuntime& traffic() const {
    return traffic_;
  }
  [[nodiscard]] const strategy::LearningStrategy* strategy() const {
    return strategy_.get();
  }
  /// True once reinstated from a snapshot (run() then resumes mid-flight).
  [[nodiscard]] bool restored() const { return restored_; }

  // ----- StrategyContext implementation ------------------------------------
  [[nodiscard]] SimTime now() const override;
  [[nodiscard]] std::size_t agent_count() const override;
  [[nodiscard]] const Agent& agent(AgentId id) const override;
  [[nodiscard]] AgentId cloud_id() const override;
  [[nodiscard]] const std::vector<AgentId>& vehicle_ids() const override;
  [[nodiscard]] const std::vector<AgentId>& rsu_ids() const override;
  [[nodiscard]] bool is_on(AgentId id) const override;
  [[nodiscard]] bool is_busy(AgentId id) const override;
  [[nodiscard]] mobility::Position position_of(AgentId id) const override;
  [[nodiscard]] std::uint64_t model_bytes() const override;
  [[nodiscard]] double v2x_range_m() const override;
  [[nodiscard]] const ml::TrainConfig& train_config() const override;
  [[nodiscard]] ml::DatasetView available_data(AgentId id) const override;
  bool send(Message msg) override;
  bool start_training(AgentId id, int round_tag) override;
  bool start_training(AgentId id, int round_tag,
                      const ml::TrainConfig& config) override;
  void set_model(AgentId id, ml::Weights weights, double data_amount) override;
  void set_data(AgentId id, ml::DatasetView data) override;
  [[nodiscard]] ml::Weights fresh_model() override;
  [[nodiscard]] double test_accuracy(const ml::Weights& weights) override;
  [[nodiscard]] const ml::DatasetView& test_set() const override;
  bool start_computation(AgentId id, std::uint64_t flops,
                         int completion_tag) override;
  void schedule_timer(AgentId id, double delay_s, int timer_id) override;
  void request_stop() override;
  [[nodiscard]] metrics::Registry& metrics() override { return metrics_; }
  [[nodiscard]] util::Rng& rng() override { return strategy_rng_; }
  [[nodiscard]] bool is_adversary_compromised(AgentId id) const override;

 private:
  friend class roadrunner::checkpoint::SimulatorIo;

  Agent& agent_mut(AgentId id);
  /// Executes one popped event (the former per-kind closures, as a switch).
  void dispatch(SimEvent ev);
  void mobility_tick();
  /// Fires a scripted vehicle_crash: drops the configured local state and
  /// counts the losses. The power-off/-on notifications surface through the
  /// regular mobility-tick diff (the injector holds the node down for the
  /// reboot window).
  void apply_crash(AgentId id, std::size_t plan_index);
  /// Straggler-fault multiplier on HU durations for this agent, 1 when none.
  [[nodiscard]] double compute_slowdown(const Agent& a) const;
  /// Stale-model age percentiles over the fleet at end of run (resilience
  /// metric: vehicles cut off by faults serve ever-older models).
  void export_model_age_metrics(double end_time_s);
  /// Scores the `drift_eval_score` series against the plan's shift times
  /// (workload::summarize_drift) and exports the drift_* counters. Only
  /// called when the ML service has eval windows.
  void export_drift_metrics(double end_time_s);
  void schedule_next_tick(double at);
  /// The instant up to which (exclusive) the effective power of vehicle
  /// node `node` keeps its value at `t`: its ignition window's end, cut at
  /// the next edge of a node_outage or crash-reboot window on it.
  [[nodiscard]] double power_stable_until(mobility::NodeId node,
                                          double t) const;
  /// Reserves `id`'s HU for `flops` and marks it training. Returns the
  /// charged duration, or nullopt if the agent is off/busy.
  std::optional<double> reserve_computation(AgentId id, std::uint64_t flops);
  /// Starts the wire transfer for `msg` (link check, duration, delivery
  /// event). Returns false and records a failed attempt if the link is not
  /// viable now. `queued` selects the failure notification path: queued
  /// sends report asynchronously via on_message_failed.
  /// Routes `msg` into the radio (slot check, backlog, begin_transfer) —
  /// everything send() does *after* adversarial payload transforms, so sybil
  /// clones reuse it without being re-transformed.
  bool dispatch_send(Message msg);
  bool begin_transfer(Message msg, bool queued);
  /// Called when a transfer leaves the wire (delivered or failed): frees
  /// the sender's slot and drains its backlog.
  void transfer_finished(AgentId sender, comm::ChannelKind kind);
  void deliver(Message msg);
  void finish_training(AgentId id, int round_tag, double duration_s,
                       double data_amount,
                       std::shared_future<TrainResult> job);
  void finish_computation(AgentId id, double duration_s, int tag);
  void export_channel_counters();
  void export_adversary_counters();

  const mobility::FleetModel* fleet_;
  comm::Network network_;
  MlService ml_;
  SimulatorConfig config_;
  /// Owns the active-fault set; the network holds a FaultHook pointer to it
  /// (wired in the constructor), so it must precede nothing that outlives
  /// the network. Inert (and never consulted) without a fault plan.
  fault::FaultInjector injector_;
  /// Owns the attack state (compromised sets, attack RNG, counters); inert
  /// without an adversary plan. Answers jamming queries via hook_mux_.
  adversary::AdversaryController adversary_;
  /// Replays the generation-time traffic timeline (signal phases, platoon
  /// maneuvers) as queue events; inert without a traffic plan.
  traffic::TrafficRuntime traffic_;
  /// Fans the network's single FaultHook slot out to the benign injector
  /// (node/region/channel faults) and the adversary (jamming). Wired in the
  /// constructor only when at least one of the two is enabled, so clean runs
  /// keep the null-hook fast path.
  struct FaultHookMux final : public comm::FaultHook {
    const comm::FaultHook* faults = nullptr;
    const comm::FaultHook* adversary = nullptr;
    [[nodiscard]] bool node_down(mobility::NodeId node,
                                 double time_s) const override {
      return faults != nullptr && faults->node_down(node, time_s);
    }
    [[nodiscard]] bool region_blocked(comm::ChannelKind kind,
                                      const mobility::Position& p,
                                      double time_s) const override {
      return faults != nullptr && faults->region_blocked(kind, p, time_s);
    }
    [[nodiscard]] comm::ChannelMods channel_mods(
        comm::ChannelKind kind, double time_s) const override {
      return faults != nullptr ? faults->channel_mods(kind, time_s)
                               : comm::ChannelMods{};
    }
    [[nodiscard]] bool jamming_blocked(comm::ChannelKind kind,
                                       const mobility::Position& p,
                                       double time_s) const override {
      return adversary != nullptr &&
             adversary->jamming_blocked(kind, p, time_s);
    }
  };
  FaultHookMux hook_mux_;

  BasicEventQueue<SimEvent> queue_;
  std::vector<Agent> agents_;
  std::vector<AgentId> vehicle_ids_;
  std::vector<AgentId> rsu_ids_;
  AgentId cloud_id_ = kNoAgent;
  /// NodeId -> AgentId for encounter mapping.
  std::vector<AgentId> node_to_agent_;

  std::shared_ptr<strategy::LearningStrategy> strategy_;
  metrics::Registry metrics_;
  EventTrace trace_;

  util::Rng master_rng_{1};
  util::Rng strategy_rng_{2};
  std::uint64_t train_job_counter_ = 0;

  /// Agent pairs in V2X range as of the last mobility tick, strictly
  /// ascending (the diff merges against it; restore validates it).
  std::vector<std::pair<AgentId, AgentId>> active_encounters_;
  /// This tick's pairs; swapped with active_encounters_ after the diff so
  /// both buffers keep their capacity.
  std::vector<std::pair<AgentId, AgentId>> current_encounters_;
  std::vector<bool> last_power_;  // per vehicle_ids_ index
  /// Per vehicle_ids_ index: the tick diff skips the vehicle while the
  /// tick time is below this, as its effective power cannot have changed.
  /// Derived state: run() rebuilds it (restored runs too); never saved.
  /// It lives here, not in the fleet, because one fleet can serve several
  /// simulators.
  std::vector<double> power_check_s_;
  /// (node, time) edges of every node_outage and crash-reboot window,
  /// ascending; node_down() can only change at one of them. Built by run().
  std::vector<std::pair<mobility::NodeId, double>> fault_edges_;

  /// Sender-side radio occupancy per (agent, channel) and the FIFO of
  /// messages waiting for a free slot.
  std::map<std::pair<AgentId, comm::ChannelKind>, std::size_t>
      active_transfers_;
  std::map<std::pair<AgentId, comm::ChannelKind>, std::deque<Message>>
      send_backlog_;

  double autosave_every_s_ = 0.0;
  std::function<void(Simulator&)> autosave_;

  bool running_ = false;
  bool ran_ = false;
  bool stop_requested_ = false;
  bool restored_ = false;
};

}  // namespace roadrunner::core

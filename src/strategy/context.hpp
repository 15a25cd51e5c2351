// StrategyContext: the API surface a learning strategy sees. The Learning
// Strategy Logic module (paper §4) "defines how the agents react in which
// situation"; reactions are expressed as calls on this context — sending
// messages, starting training, reassigning models, scheduling timers, and
// recording metrics. The Core Simulator implements this interface.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/agent.hpp"
#include "core/message.hpp"
#include "core/sim_time.hpp"
#include "metrics/registry.hpp"
#include "ml/trainer.hpp"
#include "util/rng.hpp"

namespace roadrunner::strategy {

using core::Agent;
using core::AgentId;
using core::Message;

class StrategyContext {
 public:
  virtual ~StrategyContext() = default;

  // ----- observation ------------------------------------------------------
  [[nodiscard]] virtual core::SimTime now() const = 0;
  [[nodiscard]] virtual std::size_t agent_count() const = 0;
  [[nodiscard]] virtual const Agent& agent(AgentId id) const = 0;
  [[nodiscard]] virtual AgentId cloud_id() const = 0;
  [[nodiscard]] virtual const std::vector<AgentId>& vehicle_ids() const = 0;
  [[nodiscard]] virtual const std::vector<AgentId>& rsu_ids() const = 0;
  /// Powered state at now(); the cloud is always on.
  [[nodiscard]] virtual bool is_on(AgentId id) const = 0;
  /// True while the agent's HU is fully occupied.
  [[nodiscard]] virtual bool is_busy(AgentId id) const = 0;
  /// Position at now(); the cloud server has no position (throws).
  [[nodiscard]] virtual mobility::Position position_of(AgentId id) const = 0;
  /// Serialized size of one model of the experiment's architecture.
  [[nodiscard]] virtual std::uint64_t model_bytes() const = 0;
  /// Configured V2X radio range in meters (0 = V2X disabled).
  [[nodiscard]] virtual double v2x_range_m() const = 0;
  /// The experiment's local-training configuration (epochs, lr, ...).
  [[nodiscard]] virtual const ml::TrainConfig& train_config() const = 0;

  /// The agent's data that has *arrived* by now(). With a data-arrival rate
  /// configured (SimulatorConfig::data_arrival_per_s), vehicles accumulate
  /// their samples over simulated time — the paper's §1 observation that
  /// fleets continuously sense fresh data; 0 (default) means everything is
  /// on board from t=0. Training always uses this view.
  [[nodiscard]] virtual ml::DatasetView available_data(AgentId id) const = 0;

  // ----- actions ----------------------------------------------------------
  /// Starts transmitting `msg`. Returns false (and counts a failed
  /// transfer) if the link is not viable right now; otherwise the message
  /// is delivered after the channel's transfer duration, unless the link
  /// breaks mid-transfer — then LearningStrategy::on_message_failed fires.
  virtual bool send(Message msg) = 0;

  /// Begins real local training of `id`'s current model on its local data.
  /// Returns false if the agent is off, has no data or model, or its HU is
  /// busy. On success the agent is busy for the HU-charged duration, after
  /// which its model is replaced and on_training_complete fires (or
  /// on_training_failed, if the vehicle was powered off meanwhile).
  /// `round_tag` is echoed back in the completion callback.
  virtual bool start_training(AgentId id, int round_tag) = 0;

  /// Overrides the default train config for one training call.
  virtual bool start_training(AgentId id, int round_tag,
                              const ml::TrainConfig& config) = 0;

  /// Replaces an agent's model (e.g. after aggregation).
  virtual void set_model(AgentId id, ml::Weights weights,
                         double data_amount) = 0;

  /// Replaces an agent's local dataset (e.g. the cloud server accumulating
  /// uploaded data under centralized ML).
  virtual void set_data(AgentId id, ml::DatasetView data) = 0;

  /// Fresh randomly-initialized weights of the experiment's architecture
  /// (drawn from the strategy RNG; deterministic under a fixed seed).
  [[nodiscard]] virtual ml::Weights fresh_model() = 0;

  /// Tests `weights` on the server-side test set. Instrumentation: costs no
  /// simulated time (the paper's accuracy-over-time metric, Req. 4).
  [[nodiscard]] virtual double test_accuracy(const ml::Weights& weights) = 0;

  /// The server-side test set, for strategies that compute their own
  /// quality metrics (e.g. clustering inertia/purity for unsupervised
  /// learning problems, §3).
  [[nodiscard]] virtual const ml::DatasetView& test_set() const = 0;

  /// Runs a custom compute operation on `id`'s Hardware Unit: the agent is
  /// busy for the HU-charged duration of `flops`, then
  /// LearningStrategy::on_computation_complete(id, completion_tag, success)
  /// fires (success=false if the agent powered off meanwhile; any result
  /// must then be discarded). Returns false if the agent is off or its HU
  /// is busy. This is how strategies implement learning that is not SGD —
  /// e.g. local k-means (Req. 2: "support for various types of ML
  /// models"). The pending operation is plain data (agent, tag, duration),
  /// so it lives inside a snapshot.
  virtual bool start_computation(AgentId id, std::uint64_t flops,
                                 int completion_tag) = 0;

  /// Fires LearningStrategy::on_timer(id, timer_id) after `delay_s`.
  virtual void schedule_timer(AgentId id, double delay_s, int timer_id) = 0;

  /// Ends the simulation after the current event.
  virtual void request_stop() = 0;

  // ----- instrumentation --------------------------------------------------
  [[nodiscard]] virtual metrics::Registry& metrics() = 0;
  [[nodiscard]] virtual util::Rng& rng() = 0;

  /// Ground-truth oracle: whether `id` is an adversary-compromised vehicle.
  /// For metrics attribution ONLY (accepted-vs-rejected poisoned-update
  /// accounting) — strategies and defenses must never branch decisions on
  /// it; the whole point of robust aggregation is that the server does not
  /// know who is compromised. Default: nobody is.
  [[nodiscard]] virtual bool is_adversary_compromised(AgentId /*id*/) const {
    return false;
  }
};

}  // namespace roadrunner::strategy

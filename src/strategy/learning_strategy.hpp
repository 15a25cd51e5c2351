// LearningStrategy: the event-driven interface a learning strategy
// implements (paper §4, "Learning Strategy Logic"). The Core Simulator
// invokes these callbacks; default implementations are no-ops so a strategy
// overrides only what it reacts to. All callbacks run on the simulator
// thread — no synchronization needed inside strategies.
#pragma once

#include <cstdint>
#include <string>

#include "comm/channel.hpp"
#include "core/ml_service.hpp"
#include "strategy/context.hpp"
#include "util/archive.hpp"

namespace roadrunner::strategy {

/// Result of a finished local-training operation, delivered with
/// on_training_complete after the agent's model has been updated.
struct TrainingOutcome {
  int round_tag = -1;
  double duration_s = 0.0;       ///< simulated duration charged by the HU
  ml::TrainReport report;        ///< real loss/accuracy/flops of the job
  double data_amount = 0.0;      ///< samples trained on (FedAvg weighting)
};

class LearningStrategy {
 public:
  virtual ~LearningStrategy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Called once before the first event; set up initial models and timers.
  virtual void on_start(StrategyContext& /*ctx*/) {}

  /// Called after the last event (horizon reached, queue drained, or
  /// request_stop()); record final metrics here.
  virtual void on_finish(StrategyContext& /*ctx*/) {}

  virtual void on_timer(StrategyContext& /*ctx*/, AgentId /*id*/,
                        int /*timer_id*/) {}

  /// A message arrived intact at msg.to.
  virtual void on_message(StrategyContext& /*ctx*/, const Message& /*msg*/) {}

  /// A transfer that started successfully broke before delivery (endpoint
  /// powered off, moved out of range, lost coverage, or random loss).
  virtual void on_message_failed(StrategyContext& /*ctx*/,
                                 const Message& /*msg*/,
                                 comm::LinkStatus /*reason*/) {}

  /// Local training finished; the agent's model already holds the result.
  virtual void on_training_complete(StrategyContext& /*ctx*/, AgentId /*id*/,
                                    const TrainingOutcome& /*outcome*/) {}

  /// Training was discarded (vehicle powered off before completion).
  virtual void on_training_failed(StrategyContext& /*ctx*/, AgentId /*id*/,
                                  int /*round_tag*/) {}

  /// Two powered-on nodes moved within V2X range of each other / apart.
  virtual void on_encounter_begin(StrategyContext& /*ctx*/, AgentId /*a*/,
                                  AgentId /*b*/) {}
  virtual void on_encounter_end(StrategyContext& /*ctx*/, AgentId /*a*/,
                                AgentId /*b*/) {}

  /// A vehicle's ignition state flipped (paper Req. 1).
  virtual void on_power_on(StrategyContext& /*ctx*/, AgentId /*id*/) {}
  virtual void on_power_off(StrategyContext& /*ctx*/, AgentId /*id*/) {}

  /// A tagged computation (StrategyContext::start_computation with a
  /// completion_tag) finished. success=false means the agent powered off
  /// mid-operation and any result must be discarded.
  virtual void on_computation_complete(StrategyContext& /*ctx*/,
                                       AgentId /*id*/, int /*completion_tag*/,
                                       bool /*success*/) {}

  // ----- checkpointing -----------------------------------------------------
  /// The strategy's mutable run state (round counters, pending sets,
  /// buffered models — NOT configuration, which is rebuilt from the
  /// experiment description). A strategy with run state lists it once, in
  /// a public field list (util/archive.hpp), and overrides this pair as
  /// the two walks of that list:
  ///
  ///   template <class Ar>
  ///   void fields(Ar& ar) {
  ///     Base::fields(ar);  // when deriving from a stateful strategy
  ///     ar(round_, buffered_models_);
  ///   }
  ///   void save_state(util::BinWriter& out) const override {
  ///     util::save_fields(out, *this);
  ///   }
  ///   void load_state(util::BinReader& in) override {
  ///     load_fields(in, *this);
  ///   }
  ///
  /// A freshly constructed strategy given load_state(save_state's output)
  /// then behaves identically to the original from that point on. A field
  /// added in a later snapshot format is read behind `ar.version()`. The
  /// default (empty) pair suits stateless strategies.
  virtual void save_state(util::BinWriter& /*out*/) const {}
  virtual void load_state(util::BinReader& /*in*/) {}

  /// Set by the checkpoint restorer immediately before load_state with the
  /// snapshot's on-disk format version, so field lists can skip fields that
  /// older snapshots do not contain. Outside a restore it is the latest
  /// layout (strategies constructed fresh carry all fields).
  void set_snapshot_version(std::uint32_t version) {
    snapshot_version_ = version;
  }

 protected:
  /// Reads `self`'s field list in the layout of the snapshot being
  /// restored.
  template <class Self>
  void load_fields(util::BinReader& in, Self& self) const {
    util::load_fields(in, self, "checkpoint: strategy section",
                      snapshot_version_);
  }

 private:
  std::uint32_t snapshot_version_ = util::kLatestLayout;
};

}  // namespace roadrunner::strategy

// Shared server-side round machinery for round-based strategies (FL "BASE",
// opportunistic "OPP", RSU-assisted hybrid). Implements the paper's server
// loop (§3, §5.2):
//
//   send latest global model w to R random vehicles via V2C, start round
//   timer; at end of round, request new models; aggregate received models
//   into a new global model via Federated Averaging; start next round.
//
// Derived strategies customize the vehicle side (what happens between
// receiving w and replying) and, if needed, how replies reach the server.
#pragma once

#include <map>
#include <set>

#include "ml/fedavg.hpp"
#include "ml/robust.hpp"
#include "ml/serialize.hpp"
#include "strategy/learning_strategy.hpp"

namespace roadrunner::strategy {

/// How the server picks each round's participants from the available pool.
enum class SelectionPolicy {
  kUniformRandom,  ///< the paper's "selects a subset of vehicles" (random)
  kRoundRobin,     ///< fairness-first: cycle through the fleet in id order
};

struct RoundConfig {
  int rounds = 75;                 ///< paper §5.2: 75 rounds
  std::size_t participants = 5;    ///< R, vehicles contacted per round
  SelectionPolicy selection = SelectionPolicy::kUniformRandom;
  double round_duration_s = 30.0;  ///< BASE: 30 s; OPP: 200 s
  /// Extra wait after requesting models before aggregating with whatever
  /// arrived (covers request + reply transfer time; stragglers are lost,
  /// like a production FL deadline).
  double collect_timeout_s = 20.0;
  /// Record the global model's test accuracy each round (Req. 4 metric).
  bool record_accuracy = true;
  /// Metrics series names (benches relabel per strategy).
  std::string accuracy_series = "accuracy";
  std::string contributions_series = "contributions_per_round";
  /// How contributions merge into the new global model. The default (mean)
  /// is the paper's Federated Averaging; the robust alternatives defend
  /// against poisoned updates (adversary subsystem, DESIGN.md §12).
  ml::AggregatorConfig aggregator;
};

class RoundBasedStrategy : public LearningStrategy {
 public:
  explicit RoundBasedStrategy(RoundConfig config);

  void on_start(StrategyContext& ctx) override;
  void on_finish(StrategyContext& ctx) override;
  void on_timer(StrategyContext& ctx, AgentId id, int timer_id) override;
  void on_message(StrategyContext& ctx, const Message& msg) override;
  void on_message_failed(StrategyContext& ctx, const Message& msg,
                         comm::LinkStatus reason) override;

  /// Round machinery state (round counter, global model, selection and
  /// contribution buffers). Derived strategies extend it by calling the
  /// base's field list first.
  template <class Ar>
  void fields(Ar& ar) {
    ar(round_, global_, selected_, pending_, data_contributors_,
       round_robin_cursor_, contributions_, collecting_, done_);
    if (ar.version() >= 3) {
      ar(contribution_origins_);
    } else {
      // v2 snapshots predate origin tracking; adversary accounting for any
      // in-flight round restarts blind (v2 runs have no adversaries anyway).
      contribution_origins_.assign(contributions_.size(), core::kNoAgent);
    }
  }
  void save_state(util::BinWriter& out) const override {
    util::save_fields(out, *this);
  }
  void load_state(util::BinReader& in) override { load_fields(in, *this); }

  [[nodiscard]] int current_round() const { return round_; }
  [[nodiscard]] const ml::Weights& global_model() const { return global_; }
  [[nodiscard]] const RoundConfig& round_config() const { return config_; }

  /// Message tags of the shared protocol.
  static constexpr const char* kTagGlobal = "global-model";
  static constexpr const char* kTagRequest = "request";
  static constexpr const char* kTagReply = "model-reply";

 protected:
  // ----- hooks for derived strategies -------------------------------------
  /// The global model the first round starts from; default: freshly
  /// initialized weights of the experiment's NN architecture. Strategies
  /// over other model families (e.g. k-means centroids) override this.
  [[nodiscard]] virtual ml::Weights initial_global_model(
      StrategyContext& ctx) {
    return ctx.fresh_model();
  }

  /// Candidate pool for the per-round selection; default: all powered-on,
  /// non-busy vehicles with local data.
  [[nodiscard]] virtual std::vector<AgentId> selection_pool(
      StrategyContext& ctx) const;

  /// How many vehicles to contact in the round about to start; default: the
  /// configured `participants`. Override for budget-adaptive policies.
  [[nodiscard]] virtual std::size_t participants_this_round(
      StrategyContext& /*ctx*/, int /*round*/) const {
    return config_.participants;
  }

  /// A vehicle was selected this round (after the global model was sent).
  virtual void on_selected(StrategyContext& /*ctx*/, AgentId /*vehicle*/,
                           int /*round*/) {}

  /// The round just ended on the server; about to request models.
  virtual void on_round_closing(StrategyContext& /*ctx*/, int /*round*/) {}

  /// A new global model was just aggregated (before accuracy recording).
  virtual void on_global_updated(StrategyContext& /*ctx*/, int /*round*/,
                                 std::size_t /*contributions*/) {}

  /// The round was finalized (with or without contributions), right before
  /// the next round begins.
  virtual void on_round_finalized(StrategyContext& /*ctx*/, int /*round*/,
                                  std::size_t /*contributions*/) {}

  /// Derived vehicle logic; called for messages the base does not consume.
  virtual void on_vehicle_message(StrategyContext& /*ctx*/,
                                  const Message& /*msg*/) {}

  // ----- services for derived strategies -----------------------------------
  /// Registers a model contribution for the current round (e.g. arriving
  /// via an RSU backhaul instead of a direct reply). Finalizes the round
  /// early when all pending replies are in.
  void accept_contribution(StrategyContext& ctx, AgentId vehicle,
                           ml::WeightedModel contribution);

  /// Marks a selected vehicle as unable to reply this round.
  void drop_pending(StrategyContext& ctx, AgentId vehicle);

  /// Whether `vehicle` was selected in the current round.
  [[nodiscard]] bool is_selected(AgentId vehicle) const {
    return selected_.contains(vehicle);
  }

  /// Data-provenance tracking (Req. 4: "the provenance of data"): records
  /// that `vehicle`'s local data entered the current round's aggregate. The
  /// cumulative unique-contributor count is emitted per round as the
  /// `unique_data_contributors` series — it tells an analyst how much of
  /// the fleet's data distribution the global model has actually seen.
  void note_data_contributor(AgentId vehicle) {
    if (vehicle != core::kNoAgent) data_contributors_.insert(vehicle);
  }

  [[nodiscard]] std::size_t unique_data_contributors() const {
    return data_contributors_.size();
  }

  [[nodiscard]] bool collecting() const { return collecting_; }

  enum TimerId : int { kTimerRoundEnd = 1, kTimerCollectEnd = 2 };

 private:
  void begin_round(StrategyContext& ctx);
  void close_round(StrategyContext& ctx);
  void finalize_round(StrategyContext& ctx);

  RoundConfig config_;
  int round_ = 0;
  ml::Weights global_;
  std::set<AgentId> selected_;
  std::set<AgentId> pending_;
  std::set<AgentId> data_contributors_;
  AgentId round_robin_cursor_ = 0;
  std::vector<ml::WeightedModel> contributions_;
  /// Parallel to contributions_: which vehicle supplied each entry. Used for
  /// adversary accounting (poisoned updates accepted vs rejected) when a
  /// robust aggregator discards contributions.
  std::vector<AgentId> contribution_origins_;
  bool collecting_ = false;
  bool done_ = false;
};

}  // namespace roadrunner::strategy

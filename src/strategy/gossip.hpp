// Gossip Learning (paper §1/§3; Hegedűs et al. [15], Dinani et al. [7]):
// fully decentralized — no cloud coordination. Every vehicle trains its own
// local model; when two vehicles meet, they exchange models via V2X, and
// each merges the received model into its own (weighted average) before
// continuing to train.
//
// Accuracy instrumentation: every eval_interval_s the framework tests a
// fixed probe subset of vehicle models on the server test set and records
// the mean — "the accuracy of the ML models in the system at various points
// in time" (Req. 4).
#pragma once

#include <map>

#include "strategy/learning_strategy.hpp"
#include "strategy/merge.hpp"

namespace roadrunner::strategy {

struct GossipConfig {
  /// Idle gap between a vehicle's consecutive local training sessions.
  double retrain_interval_s = 60.0;
  /// Minimum spacing between merges on one vehicle (prevents thrashing in
  /// dense traffic).
  double merge_cooldown_s = 30.0;
  /// Weight of the received model in a merge; 0.5 = symmetric average (the
  /// classic gossip merge). The remainder goes to the own model.
  double merge_weight = 0.5;
  /// Instrumentation cadence and probe size.
  double eval_interval_s = 600.0;
  std::size_t probe_vehicles = 5;
  /// Stop after this much simulated time (0 = run to the fleet horizon).
  double duration_s = 0.0;
  /// Pairwise merge rule. The default (mean) is the classic alpha-weighted
  /// gossip merge; robust alternatives blunt poisoned models a peer gossips
  /// in (norm_clip is the practical choice at pair size — Krum needs >= 3
  /// contributors and falls back to mean).
  ml::AggregatorConfig aggregator;
};

class GossipStrategy final : public LearningStrategy {
 public:
  explicit GossipStrategy(GossipConfig config);

  [[nodiscard]] std::string name() const override { return "gossip"; }

  void on_start(StrategyContext& ctx) override;
  void on_finish(StrategyContext& ctx) override;
  void on_timer(StrategyContext& ctx, AgentId id, int timer_id) override;
  void on_message(StrategyContext& ctx, const Message& msg) override;
  void on_training_complete(StrategyContext& ctx, AgentId id,
                            const TrainingOutcome& outcome) override;
  void on_encounter_begin(StrategyContext& ctx, AgentId a, AgentId b) override;
  void on_power_on(StrategyContext& ctx, AgentId id) override;

  [[nodiscard]] std::uint64_t total_merges() const { return total_merges_; }

  template <class Ar>
  void fields(Ar& ar) {
    ar(last_merge_, probe_, total_merges_);
    check_agents(ar, last_merge_, probe_);
  }
  void save_state(util::BinWriter& out) const override {
    util::save_fields(out, *this);
  }
  void load_state(util::BinReader& in) override { load_fields(in, *this); }

  static constexpr const char* kTagGossip = "gossip-model";
  enum TimerId : int { kTimerRetrain = 1, kTimerEval = 2, kTimerStop = 3 };

 private:
  void try_retrain(StrategyContext& ctx, AgentId id);
  void exchange(StrategyContext& ctx, AgentId from, AgentId to);
  void evaluate_probe(StrategyContext& ctx);

  GossipConfig config_;
  std::map<AgentId, double> last_merge_;
  std::vector<AgentId> probe_;
  std::uint64_t total_merges_ = 0;
};

}  // namespace roadrunner::strategy

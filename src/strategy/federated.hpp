// Vanilla Federated Learning — the paper's BASE strategy (§3, §5.2):
// "the cloud server selects a subset of vehicles and transmits to them a
// global model. Each receiving vehicle uses its local data to fine-tune the
// global model locally, then sends the retrained model back to the cloud
// server", which aggregates via Federated Averaging.
// Round-based strategies that keep this vehicle protocol derive from it.
#pragma once

#include <map>

#include "strategy/round_base.hpp"

namespace roadrunner::strategy {

class FederatedStrategy : public RoundBasedStrategy {
 public:
  explicit FederatedStrategy(RoundConfig config);

  [[nodiscard]] std::string name() const override { return "federated"; }

  void on_training_complete(StrategyContext& ctx, AgentId id,
                            const TrainingOutcome& outcome) override;
  void on_training_failed(StrategyContext& ctx, AgentId id,
                          int round_tag) override;

  template <class Ar>
  void fields(Ar& ar) {
    RoundBasedStrategy::fields(ar);
    ar(trained_round_);
    check_agents(ar, trained_round_);
  }
  void save_state(util::BinWriter& out) const override {
    util::save_fields(out, *this);
  }
  void load_state(util::BinReader& in) override { load_fields(in, *this); }

 protected:
  /// kTagGlobal: fine-tune the received model; kTagRequest: reply with it
  /// once this round's training finished.
  void on_vehicle_message(StrategyContext& ctx, const Message& msg) override;

  /// Vehicle -> round whose retrained model it currently holds.
  std::map<AgentId, int> trained_round_;
};

}  // namespace roadrunner::strategy

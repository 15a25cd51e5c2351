// OPP — the opportunistic learning strategy of the paper's §5.2, built on
// the mathematical associativity of Federated Averaging (Fig. 3):
//
//   Server:        as in FL, but rounds are longer so reporters can gather
//                  extra contributions via V2X.
//   Reporters:     retrain the received global model w; upon meeting a
//                  non-reporter, forward w via V2X; when the retrained copy
//                  comes back, aggregate it with the own model via FA; at
//                  the end of the round send the intermediate aggregate to
//                  the server.
//   Non-reporters: retrain a w received via V2X and send it back to the
//                  reporter (if still in range; otherwise the work is
//                  discarded).
//
// A vehicle contributes at most once per round (its data must enter the FA
// sum once for the round aggregate to equal flat FL over all contributors —
// verified by tests/strategy_opportunistic_test.cpp).
#pragma once

#include <map>
#include <set>

#include "strategy/round_base.hpp"

namespace roadrunner::strategy {

/// The paper's Fig. 4 OPP runs 5 reporters, 200 s rounds and 75 rounds.
class OpportunisticStrategy final : public RoundBasedStrategy {
 public:
  explicit OpportunisticStrategy(RoundConfig config);

  [[nodiscard]] std::string name() const override { return "opportunistic"; }

  void on_training_complete(StrategyContext& ctx, AgentId id,
                            const TrainingOutcome& outcome) override;
  void on_training_failed(StrategyContext& ctx, AgentId id,
                          int round_tag) override;
  void on_encounter_begin(StrategyContext& ctx, AgentId a, AgentId b) override;
  void on_message_failed(StrategyContext& ctx, const Message& msg,
                         comm::LinkStatus reason) override;

  /// Total successful V2X model exchanges across the run (Fig. 4 average).
  [[nodiscard]] std::uint64_t total_exchanges() const {
    return total_exchanges_;
  }

  static constexpr const char* kTagOffer = "opp-offer";
  static constexpr const char* kTagReturn = "opp-return";

  template <class Ar>
  void fields(Ar& ar) {
    RoundBasedStrategy::fields(ar);
    ar(reporters_, participated_, offer_source_, exchanges_this_round_,
       total_exchanges_);
    check_agents(ar, reporters_, participated_, offer_source_);
    for (const auto& entry : reporters_) {
      check_origins(ar, entry.second.origins);
    }
  }
  void save_state(util::BinWriter& out) const override {
    util::save_fields(out, *this);
  }
  void load_state(util::BinReader& in) override { load_fields(in, *this); }

 protected:
  void on_selected(StrategyContext& ctx, AgentId vehicle, int round) override;
  void on_round_finalized(StrategyContext& ctx, int round,
                          std::size_t contributions) override;
  void on_vehicle_message(StrategyContext& ctx, const Message& msg) override;

 private:
  struct ReporterState {
    int round = -1;
    ml::Weights round_global;  ///< the w to forward to non-reporters
    std::vector<ml::WeightedModel> collected;  ///< own + returned models
    /// Parallel to `collected`: which vehicle produced each entry (adversary
    /// accounting when the intermediate aggregation uses a robust rule).
    std::vector<AgentId> origins;
    bool trained = false;

    template <class Ar>
    void fields(Ar& ar) {
      ar(round, round_global, collected);
      if (ar.version() >= 3) {
        ar(origins);
      } else {
        origins.assign(collected.size(), core::kNoAgent);
      }
      ar(trained);
    }
  };

  void maybe_offer(StrategyContext& ctx, AgentId reporter,
                   AgentId non_reporter);
  void handle_offer(StrategyContext& ctx, const Message& msg);
  void handle_return(StrategyContext& ctx, const Message& msg);
  void handle_request(StrategyContext& ctx, const Message& msg);

  std::map<AgentId, ReporterState> reporters_;
  /// (round, vehicle) pairs that already contributed data this round.
  std::set<std::pair<int, AgentId>> participated_;
  /// Non-reporter -> reporter that sent it the current offer.
  std::map<AgentId, AgentId> offer_source_;
  int exchanges_this_round_ = 0;
  std::uint64_t total_exchanges_ = 0;
};

}  // namespace roadrunner::strategy

// RSU-assisted Federated Learning — the hybrid strategy demonstrating the
// "hybrid approaches" Req. 5 calls for and exercising the road-side units
// of the paper's Fig. 1 (vehicles reach RSUs over free short-range V2X;
// RSUs reach the cloud over their wired backhaul).
//
// Server side: identical FL rounds. Vehicle side: after retraining, a
// participant hands its model to the first RSU it encounters (V2X), which
// relays it to the server over the wire; only vehicles that never pass an
// RSU before the collection deadline fall back to replying over metered
// V2C. The ablation bench quantifies the cellular bytes saved per accuracy
// point versus plain FL.
#pragma once

#include <map>
#include <set>

#include "strategy/round_base.hpp"

namespace roadrunner::strategy {

struct RsuAssistedConfig {
  RoundConfig round;
  /// Hierarchical aggregation: instead of relaying each vehicle's model
  /// individually, an RSU federated-averages everything it collected during
  /// the round and relays ONE aggregate at round close — exploiting the
  /// same FA associativity OPP uses (§5.2), and shrinking the backhaul to
  /// one model per RSU per round.
  bool aggregate_at_rsu = false;
};

class RsuAssistedStrategy final : public RoundBasedStrategy {
 public:
  explicit RsuAssistedStrategy(RsuAssistedConfig config);

  [[nodiscard]] std::string name() const override { return "rsu-assisted"; }

  void on_training_complete(StrategyContext& ctx, AgentId id,
                            const TrainingOutcome& outcome) override;
  void on_training_failed(StrategyContext& ctx, AgentId id,
                          int round_tag) override;
  void on_encounter_begin(StrategyContext& ctx, AgentId a, AgentId b) override;

  /// Contributions that travelled vehicle->RSU->wire instead of V2C.
  [[nodiscard]] std::uint64_t rsu_relayed() const { return rsu_relayed_; }

  template <class Ar>
  void fields(Ar& ar) {
    RoundBasedStrategy::fields(ar);
    ar(pending_, rsu_buffers_, rsu_relayed_);
  }
  void save_state(util::BinWriter& out) const override {
    util::save_fields(out, *this);
  }
  void load_state(util::BinReader& in) override { load_fields(in, *this); }

  static constexpr const char* kTagRsuUpload = "rsu-upload";
  static constexpr const char* kTagRsuRelay = "rsu-relay";

 protected:
  void on_vehicle_message(StrategyContext& ctx, const Message& msg) override;
  void on_round_closing(StrategyContext& ctx, int round) override;

 private:
  void maybe_upload_to_rsu(StrategyContext& ctx, AgentId vehicle, AgentId rsu);
  void relay_now(StrategyContext& ctx, AgentId rsu, int round,
                 ml::WeightedModel contribution, AgentId origin);

  struct PendingModel {
    int round = -1;
    bool handed_off = false;  ///< already uploaded to an RSU

    template <class Ar>
    void fields(Ar& ar) {
      ar(round, handed_off);
    }
  };
  struct RsuBuffer {
    int round = -1;
    std::vector<ml::WeightedModel> collected;
    std::vector<AgentId> origins;

    template <class Ar>
    void fields(Ar& ar) {
      ar(round, collected, origins);
    }
  };
  RsuAssistedConfig config_;
  std::map<AgentId, PendingModel> pending_;
  std::map<AgentId, RsuBuffer> rsu_buffers_;
  std::uint64_t rsu_relayed_ = 0;
};

}  // namespace roadrunner::strategy

#include "strategy/federated.hpp"


namespace roadrunner::strategy {

FederatedStrategy::FederatedStrategy(RoundConfig config)
    : RoundBasedStrategy{std::move(config)} {}

void FederatedStrategy::on_vehicle_message(StrategyContext& ctx,
                                           const Message& msg) {
  if (msg.tag == kTagGlobal) {
    // Receive the global model and fine-tune it on local data.
    ctx.set_model(msg.to, msg.model, 0.0);
    trained_round_.erase(msg.to);
    ctx.start_training(msg.to, msg.round);
    return;
  }
  if (msg.tag == kTagRequest) {
    // Pull-based collection: reply with the retrained model if this round's
    // training finished; otherwise stay silent (the server's collect
    // timeout writes this participant off).
    const auto it = trained_round_.find(msg.to);
    if (it == trained_round_.end() || it->second != msg.round) return;
    const Agent& vehicle = ctx.agent(msg.to);
    send_reply(ctx, msg, {vehicle.model, vehicle.model_data_amount});
  }
}

void FederatedStrategy::on_training_complete(StrategyContext& ctx,
                                             AgentId id,
                                             const TrainingOutcome& outcome) {
  (void)ctx;
  trained_round_[id] = outcome.round_tag;
}

void FederatedStrategy::on_training_failed(StrategyContext& ctx, AgentId id,
                                           int /*round_tag*/) {
  (void)ctx;
  trained_round_.erase(id);
}

}  // namespace roadrunner::strategy

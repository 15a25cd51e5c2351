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
    Message reply;
    reply.from = msg.to;
    reply.to = ctx.cloud_id();
    reply.channel = comm::ChannelKind::kV2C;
    reply.tag = kTagReply;
    reply.round = msg.round;
    reply.model = ctx.agent(msg.to).model;
    reply.data_amount = ctx.agent(msg.to).model_data_amount;
    ctx.send(std::move(reply));
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

#include "strategy/gossip.hpp"


#include <algorithm>
#include <stdexcept>

namespace roadrunner::strategy {

GossipStrategy::GossipStrategy(GossipConfig config)
    : config_{std::move(config)} {
  if (config_.merge_weight <= 0.0 || config_.merge_weight >= 1.0) {
    throw std::invalid_argument{"GossipStrategy: merge_weight outside (0,1)"};
  }
  if (config_.retrain_interval_s <= 0.0 || config_.eval_interval_s <= 0.0) {
    throw std::invalid_argument{"GossipStrategy: non-positive interval"};
  }
}

void GossipStrategy::on_start(StrategyContext& ctx) {
  // Every vehicle begins by training its own local model (§3).
  for (AgentId v : ctx.vehicle_ids()) {
    if (ctx.agent(v).data.empty()) continue;
    ctx.set_model(v, ctx.fresh_model(),
                  static_cast<double>(ctx.agent(v).data.size()));
    try_retrain(ctx, v);
  }

  // Fixed probe subset for the accuracy-over-time series.
  std::vector<AgentId> candidates;
  for (AgentId v : ctx.vehicle_ids()) {
    if (!ctx.agent(v).data.empty()) candidates.push_back(v);
  }
  const std::size_t k = std::min(config_.probe_vehicles, candidates.size());
  for (std::size_t i : ctx.rng().sample_without_replacement(candidates.size(),
                                                            k)) {
    probe_.push_back(candidates[i]);
  }
  evaluate_probe(ctx);
  ctx.schedule_timer(ctx.cloud_id(), config_.eval_interval_s, kTimerEval);
  if (config_.duration_s > 0.0) {
    ctx.schedule_timer(ctx.cloud_id(), config_.duration_s, kTimerStop);
  }
}

void GossipStrategy::try_retrain(StrategyContext& ctx, AgentId id) {
  if (!ctx.start_training(id, /*round_tag=*/0)) {
    // Off or busy: try again later.
    ctx.schedule_timer(id, config_.retrain_interval_s, kTimerRetrain);
  }
}

void GossipStrategy::on_timer(StrategyContext& ctx, AgentId id,
                              int timer_id) {
  switch (timer_id) {
    case kTimerRetrain:
      try_retrain(ctx, id);
      break;
    case kTimerEval:
      evaluate_probe(ctx);
      ctx.schedule_timer(ctx.cloud_id(), config_.eval_interval_s, kTimerEval);
      break;
    case kTimerStop:
      ctx.request_stop();
      break;
    default:
      break;
  }
}

void GossipStrategy::on_training_complete(StrategyContext& ctx, AgentId id,
                                          const TrainingOutcome& /*outcome*/) {
  ctx.schedule_timer(id, config_.retrain_interval_s, kTimerRetrain);
}

void GossipStrategy::on_encounter_begin(StrategyContext& ctx, AgentId a,
                                        AgentId b) {
  exchange(ctx, a, b);
  exchange(ctx, b, a);
}

void GossipStrategy::exchange(StrategyContext& ctx, AgentId from,
                              AgentId to) {
  if (ctx.agent(from).kind != core::AgentKind::kVehicle ||
      ctx.agent(to).kind != core::AgentKind::kVehicle) {
    return;
  }
  if (ctx.agent(from).model.empty()) return;
  const auto it = last_merge_.find(to);
  if (it != last_merge_.end() &&
      ctx.now() - it->second < config_.merge_cooldown_s) {
    return;
  }
  Message msg;
  msg.from = from;
  msg.to = to;
  msg.channel = comm::ChannelKind::kV2X;
  msg.tag = kTagGossip;
  msg.model = ctx.agent(from).model;
  msg.data_amount = ctx.agent(from).model_data_amount;
  ctx.send(std::move(msg));
}

void GossipStrategy::on_message(StrategyContext& ctx, const Message& msg) {
  if (msg.corrupted) {
    // A corrupted gossip payload fails its checksum and is never merged.
    ctx.metrics().increment("corrupted_payloads_discarded");
    return;
  }
  if (msg.tag != kTagGossip) return;
  const AgentId me = msg.to;
  if (ctx.agent(me).model.empty()) {
    ctx.set_model(me, msg.model, msg.data_amount);
    return;
  }
  const auto it = last_merge_.find(me);
  if (it != last_merge_.end() &&
      ctx.now() - it->second < config_.merge_cooldown_s) {
    return;  // merged too recently (e.g. several encounters at once)
  }
  // Weighted merge of own and received model. Fixed merge weight rather
  // than cumulative data amounts: in gossip, unbounded counters would make
  // old models immovable (cf. Hegedűs et al.'s step-size decay).
  const float alpha = static_cast<float>(config_.merge_weight);
  std::vector<ml::WeightedModel> pair;
  pair.push_back(ml::WeightedModel{ctx.agent(me).model, 1.0 - alpha});
  pair.push_back(ml::WeightedModel{msg.model, alpha});
  ml::AggregateResult agg = ml::robust_aggregate(pair, config_.aggregator);
  if (agg.clipped > 0) {
    ctx.metrics().increment("defense_updates_clipped",
                            static_cast<double>(agg.clipped));
  }
  if (!agg.rejected.empty()) {
    ctx.metrics().increment("defense_updates_rejected",
                            static_cast<double>(agg.rejected.size()));
    // Index 1 is the received model; attribute its rejection to the sender.
    for (std::size_t idx : agg.rejected) {
      if (idx == 1 && ctx.is_adversary_compromised(msg.from)) {
        ctx.metrics().increment("adversary_updates_rejected");
      }
    }
  }
  if (ctx.is_adversary_compromised(msg.from) &&
      std::find(agg.rejected.begin(), agg.rejected.end(), std::size_t{1}) ==
          agg.rejected.end()) {
    ctx.metrics().increment("adversary_updates_accepted");
  }
  ctx.set_model(me, std::move(agg.model.weights),
                static_cast<double>(ctx.agent(me).data.size()));
  last_merge_[me] = ctx.now();
  ++total_merges_;
  ctx.metrics().increment("gossip_merges");
  // Retrain promptly on the merged model if idle.
  if (!ctx.is_busy(me) && ctx.is_on(me)) {
    ctx.start_training(me, 0);
  }
}

void GossipStrategy::on_power_on(StrategyContext& ctx, AgentId id) {
  if (!ctx.agent(id).data.empty() && !ctx.agent(id).model.empty()) {
    try_retrain(ctx, id);
  }
}

void GossipStrategy::evaluate_probe(StrategyContext& ctx) {
  if (probe_.empty()) return;
  double sum = 0.0;
  for (AgentId v : probe_) {
    sum += ctx.test_accuracy(ctx.agent(v).model);
  }
  ctx.metrics().add_point(config_.accuracy_series, ctx.now(),
                          sum / static_cast<double>(probe_.size()));
}

void GossipStrategy::on_finish(StrategyContext& ctx) {
  evaluate_probe(ctx);
  ctx.metrics().set_counter("final_accuracy",
                            ctx.metrics().last_value(config_.accuracy_series));
  ctx.metrics().set_counter("gossip_total_merges",
                            static_cast<double>(total_merges_));
}

}  // namespace roadrunner::strategy

#include "strategy/rsu_assisted.hpp"


namespace roadrunner::strategy {

RsuAssistedStrategy::RsuAssistedStrategy(RsuAssistedConfig config)
    : RoundBasedStrategy{config.round}, config_{std::move(config)} {}

void RsuAssistedStrategy::relay_now(StrategyContext& ctx, AgentId rsu,
                                    int round,
                                    ml::WeightedModel contribution,
                                    AgentId origin) {
  Message relay;
  relay.from = rsu;
  relay.to = ctx.cloud_id();
  relay.channel = comm::ChannelKind::kWired;
  relay.tag = kTagRsuRelay;
  relay.round = round;
  relay.origin = origin;
  relay.model = std::move(contribution.weights);
  relay.data_amount = contribution.data_amount;
  ctx.send(std::move(relay));
}

void RsuAssistedStrategy::on_round_closing(StrategyContext& ctx, int round) {
  if (!config_.aggregate_at_rsu) return;
  // Flush every RSU's buffered contributions as one federated average —
  // intermediate aggregation at the edge, exactly the FA-associativity
  // argument of §5.2 applied to infrastructure instead of reporters.
  for (auto& [rsu, buffer] : rsu_buffers_) {
    if (buffer.round != round || buffer.collected.empty()) continue;
    for (AgentId origin : buffer.origins) note_data_contributor(origin);
    const AgentId first_origin =
        buffer.origins.empty() ? core::kNoAgent : buffer.origins.front();
    // Edge aggregation honors the configured defense, so poisoned uploads
    // are blunted at the RSU before touching the backhaul.
    ml::AggregateResult agg =
        ml::robust_aggregate(buffer.collected, round_config().aggregator);
    if (agg.clipped > 0) {
      ctx.metrics().increment("defense_updates_clipped",
                              static_cast<double>(agg.clipped));
    }
    if (!agg.rejected.empty()) {
      ctx.metrics().increment("defense_updates_rejected",
                              static_cast<double>(agg.rejected.size()));
      for (std::size_t idx : agg.rejected) {
        if (idx < buffer.origins.size() &&
            ctx.is_adversary_compromised(buffer.origins[idx])) {
          ctx.metrics().increment("adversary_updates_rejected");
        }
      }
    }
    relay_now(ctx, rsu, round, std::move(agg.model), first_origin);
    buffer.collected.clear();
    buffer.origins.clear();
  }
}

void RsuAssistedStrategy::on_vehicle_message(StrategyContext& ctx,
                                             const Message& msg) {
  if (msg.tag == kTagGlobal) {
    ctx.set_model(msg.to, msg.model, 0.0);
    pending_.erase(msg.to);
    ctx.start_training(msg.to, msg.round);
    return;
  }
  if (msg.tag == kTagRequest) {
    // V2C fallback for participants that never met an RSU this round.
    const auto it = pending_.find(msg.to);
    if (it == pending_.end() || it->second.round != msg.round ||
        it->second.handed_off) {
      return;
    }
    Message reply;
    reply.from = msg.to;
    reply.to = ctx.cloud_id();
    reply.channel = comm::ChannelKind::kV2C;
    reply.tag = kTagReply;
    reply.round = msg.round;
    reply.model = ctx.agent(msg.to).model;
    reply.data_amount = ctx.agent(msg.to).model_data_amount;
    if (ctx.send(std::move(reply))) {
      ctx.metrics().increment("rsu_fallback_v2c_replies");
    }
    return;
  }
  if (msg.tag == kTagRsuUpload) {
    if (config_.aggregate_at_rsu) {
      // Buffer for the end-of-round hierarchical aggregate.
      RsuBuffer& buffer = rsu_buffers_[msg.to];
      if (buffer.round != msg.round) {
        buffer.round = msg.round;
        buffer.collected.clear();
        buffer.origins.clear();
      }
      buffer.collected.push_back(
          ml::WeightedModel{msg.model, msg.data_amount});
      buffer.origins.push_back(msg.from);
      return;
    }
    // Store-and-forward: relay the vehicle's model immediately.
    relay_now(ctx, msg.to, msg.round,
              ml::WeightedModel{msg.model, msg.data_amount}, msg.from);
    return;
  }
  if (msg.tag == kTagRsuRelay && msg.to == ctx.cloud_id()) {
    if (msg.round == current_round()) {
      ++rsu_relayed_;
      ctx.metrics().increment("rsu_relayed_contributions");
      accept_contribution(ctx, msg.origin,
                          ml::WeightedModel{msg.model, msg.data_amount});
    }
    return;
  }
}

void RsuAssistedStrategy::on_training_complete(StrategyContext& ctx,
                                               AgentId id,
                                               const TrainingOutcome& outcome) {
  pending_[id] = PendingModel{outcome.round_tag, false};
  // If an RSU is already alongside, hand the model off right away.
  for (AgentId rsu : ctx.rsu_ids()) {
    maybe_upload_to_rsu(ctx, id, rsu);
  }
}

void RsuAssistedStrategy::on_training_failed(StrategyContext& /*ctx*/,
                                             AgentId id, int /*round_tag*/) {
  pending_.erase(id);
}

void RsuAssistedStrategy::on_encounter_begin(StrategyContext& ctx, AgentId a,
                                             AgentId b) {
  const bool a_rsu = ctx.agent(a).kind == core::AgentKind::kRoadsideUnit;
  const bool b_rsu = ctx.agent(b).kind == core::AgentKind::kRoadsideUnit;
  if (a_rsu == b_rsu) return;
  const AgentId vehicle = a_rsu ? b : a;
  const AgentId rsu = a_rsu ? a : b;
  maybe_upload_to_rsu(ctx, vehicle, rsu);
}

void RsuAssistedStrategy::maybe_upload_to_rsu(StrategyContext& ctx,
                                              AgentId vehicle, AgentId rsu) {
  const auto it = pending_.find(vehicle);
  if (it == pending_.end() || it->second.handed_off ||
      it->second.round != current_round()) {
    return;
  }
  if (!ctx.is_on(vehicle)) return;
  if (mobility::distance(ctx.position_of(vehicle), ctx.position_of(rsu)) >
      ctx.v2x_range_m()) {
    return;
  }
  Message upload;
  upload.from = vehicle;
  upload.to = rsu;
  upload.channel = comm::ChannelKind::kV2X;
  upload.tag = kTagRsuUpload;
  upload.round = it->second.round;
  upload.model = ctx.agent(vehicle).model;
  upload.data_amount = ctx.agent(vehicle).model_data_amount;
  if (ctx.send(std::move(upload))) {
    it->second.handed_off = true;
    // The server no longer needs a direct reply from this vehicle.
    drop_pending(ctx, vehicle);
  }
}

}  // namespace roadrunner::strategy

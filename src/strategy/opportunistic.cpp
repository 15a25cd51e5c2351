#include "strategy/opportunistic.hpp"


namespace roadrunner::strategy {

OpportunisticStrategy::OpportunisticStrategy(RoundConfig config)
    : RoundBasedStrategy{std::move(config)} {}

void OpportunisticStrategy::on_selected(StrategyContext& /*ctx*/,
                                        AgentId vehicle, int round) {
  ReporterState state;
  state.round = round;
  reporters_[vehicle] = std::move(state);
}

void OpportunisticStrategy::on_vehicle_message(StrategyContext& ctx,
                                               const Message& msg) {
  if (msg.tag == kTagGlobal) {
    // Reporter receives w: keep a copy to forward, retrain locally.
    auto it = reporters_.find(msg.to);
    if (it == reporters_.end() || it->second.round != msg.round) return;
    it->second.round_global = msg.model;
    ctx.set_model(msg.to, msg.model, 0.0);
    participated_.emplace(msg.round, msg.to);
    ctx.start_training(msg.to, msg.round);
    return;
  }
  if (msg.tag == kTagOffer) {
    handle_offer(ctx, msg);
    return;
  }
  if (msg.tag == kTagReturn) {
    handle_return(ctx, msg);
    return;
  }
  if (msg.tag == kTagRequest) {
    handle_request(ctx, msg);
    return;
  }
}

void OpportunisticStrategy::on_training_complete(
    StrategyContext& ctx, AgentId id, const TrainingOutcome& outcome) {
  const auto rep = reporters_.find(id);
  if (rep != reporters_.end() && rep->second.round == outcome.round_tag) {
    // Reporter finished its own retraining: contribution #1.
    rep->second.trained = true;
    rep->second.collected.push_back(
        ml::WeightedModel{ctx.agent(id).model, outcome.data_amount});
    rep->second.origins.push_back(id);
    // Offer to anyone already alongside (encounters that began while busy).
    // Current encounters are rediscovered lazily via on_encounter_begin for
    // new pairs; for robustness we also scan vehicles in range now.
    for (AgentId other : ctx.vehicle_ids()) {
      if (other == id || !ctx.is_on(other)) continue;
      maybe_offer(ctx, id, other);
    }
    return;
  }
  // Non-reporter finished retraining an offered model: send it back to the
  // reporter via V2X together with the data amount (Fig. 3 step 5).
  const auto src = offer_source_.find(id);
  if (src == offer_source_.end()) return;
  const AgentId reporter = src->second;
  offer_source_.erase(src);
  Message back;
  back.from = id;
  back.to = reporter;
  back.channel = comm::ChannelKind::kV2X;
  back.tag = kTagReturn;
  back.round = outcome.round_tag;
  back.model = ctx.agent(id).model;
  back.data_amount = outcome.data_amount;
  if (!ctx.send(std::move(back))) {
    // Reporter out of range or off: "Else, discard w" (§5.2). The vehicle's
    // participation mark stays — its data already shaped a model copy this
    // round, even though the copy was lost.
    ctx.metrics().increment("opp_returns_discarded");
  }
}

void OpportunisticStrategy::on_training_failed(StrategyContext& /*ctx*/,
                                               AgentId id, int round_tag) {
  const auto rep = reporters_.find(id);
  if (rep != reporters_.end() && rep->second.round == round_tag) {
    rep->second.trained = false;
  }
  offer_source_.erase(id);
}

void OpportunisticStrategy::on_encounter_begin(StrategyContext& ctx,
                                               AgentId a, AgentId b) {
  maybe_offer(ctx, a, b);
  maybe_offer(ctx, b, a);
}

void OpportunisticStrategy::maybe_offer(StrategyContext& ctx,
                                        AgentId reporter,
                                        AgentId non_reporter) {
  const auto rep = reporters_.find(reporter);
  if (rep == reporters_.end() || rep->second.round != current_round() ||
      !rep->second.trained) {
    return;
  }
  if (collecting()) return;  // round closing; too late to gather more
  // Target must not be a reporter of this round and must not have
  // contributed yet.
  const auto other_rep = reporters_.find(non_reporter);
  if (other_rep != reporters_.end() &&
      other_rep->second.round == current_round()) {
    return;
  }
  if (participated_.contains({current_round(), non_reporter})) return;
  if (ctx.agent(non_reporter).kind != core::AgentKind::kVehicle) return;
  if (!ctx.is_on(non_reporter) || ctx.is_busy(non_reporter)) return;
  if (ctx.agent(non_reporter).data.empty()) return;
  // Range pre-check: radios know their neighbourhood, so out-of-range
  // targets are skipped without charging an attempted transfer.
  if (mobility::distance(ctx.position_of(reporter),
                         ctx.position_of(non_reporter)) >
      ctx.v2x_range_m()) {
    return;
  }

  Message offer;
  offer.from = reporter;
  offer.to = non_reporter;
  offer.channel = comm::ChannelKind::kV2X;
  offer.tag = kTagOffer;
  offer.round = current_round();
  offer.model = rep->second.round_global;
  if (ctx.send(std::move(offer))) {
    // Reserve the target so parallel reporters do not double-train it.
    participated_.emplace(current_round(), non_reporter);
    offer_source_[non_reporter] = reporter;
  }
}

void OpportunisticStrategy::handle_offer(StrategyContext& ctx,
                                         const Message& msg) {
  if (msg.round != current_round()) return;
  if (ctx.is_busy(msg.to) || ctx.agent(msg.to).data.empty()) {
    offer_source_.erase(msg.to);
    participated_.erase({msg.round, msg.to});
    return;
  }
  ctx.set_model(msg.to, msg.model, 0.0);
  if (!ctx.start_training(msg.to, msg.round)) {
    offer_source_.erase(msg.to);
    participated_.erase({msg.round, msg.to});
  }
}

void OpportunisticStrategy::handle_return(StrategyContext& ctx,
                                          const Message& msg) {
  auto rep = reporters_.find(msg.to);
  if (rep == reporters_.end() || rep->second.round != msg.round) return;
  // Intermediate aggregation at the reporter (Fig. 3 step 6): the returned
  // model joins the reporter's collected contributions.
  note_data_contributor(msg.from);  // the non-reporter's data enters the FA
  rep->second.collected.push_back(
      ml::WeightedModel{msg.model, msg.data_amount});
  rep->second.origins.push_back(msg.from);
  ++exchanges_this_round_;
  ++total_exchanges_;
  ctx.metrics().increment("opp_v2x_exchanges");
}

void OpportunisticStrategy::handle_request(StrategyContext& ctx,
                                           const Message& msg) {
  auto rep = reporters_.find(msg.to);
  if (rep == reporters_.end() || rep->second.round != msg.round ||
      rep->second.collected.empty()) {
    return;  // nothing to report; server's collect timeout handles it
  }
  // Intermediate aggregation (Fig. 3 step 6) honors the configured defense:
  // a reporter applies the same robust rule the server would, so poisoned
  // V2X returns are blunted before they ever reach the uplink.
  AccountedMerge merge =
      accounted_merge(ctx, rep->second.collected, rep->second.origins,
                      round_config().aggregator);
  if (merge.compromised_rejected > 0) {
    ctx.metrics().increment("adversary_updates_rejected",
                            static_cast<double>(merge.compromised_rejected));
  }
  send_reply(ctx, msg, std::move(merge.result.model));
}

void OpportunisticStrategy::on_round_finalized(StrategyContext& ctx,
                                               int /*round*/,
                                               std::size_t /*contributions*/) {
  ctx.metrics().add_point("v2x_exchanges_per_round", ctx.now(),
                          static_cast<double>(exchanges_this_round_));
  exchanges_this_round_ = 0;
}

void OpportunisticStrategy::on_message_failed(StrategyContext& ctx,
                                              const Message& msg,
                                              comm::LinkStatus reason) {
  RoundBasedStrategy::on_message_failed(ctx, msg, reason);
  if (msg.tag == kTagOffer) {
    // Offer never arrived: free the target for other reporters.
    participated_.erase({msg.round, msg.to});
    if (offer_source_.find(msg.to) != offer_source_.end() &&
        offer_source_[msg.to] == msg.from) {
      offer_source_.erase(msg.to);
    }
    ctx.metrics().increment("opp_offers_lost");
  } else if (msg.tag == kTagReturn) {
    ctx.metrics().increment("opp_returns_discarded");
  }
}

}  // namespace roadrunner::strategy

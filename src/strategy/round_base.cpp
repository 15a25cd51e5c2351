#include "strategy/round_base.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/telemetry.hpp"
#include "util/log.hpp"

namespace roadrunner::strategy {

RoundBasedStrategy::RoundBasedStrategy(RoundConfig config)
    : config_{std::move(config)} {
  if (config_.rounds <= 0) {
    throw std::invalid_argument{"RoundBasedStrategy: rounds <= 0"};
  }
  if (config_.participants == 0) {
    throw std::invalid_argument{"RoundBasedStrategy: participants == 0"};
  }
  if (config_.round_duration_s <= 0.0 || config_.collect_timeout_s < 0.0) {
    throw std::invalid_argument{"RoundBasedStrategy: bad durations"};
  }
}

void RoundBasedStrategy::on_start(StrategyContext& ctx) {
  global_ = initial_global_model(ctx);
  ctx.set_model(ctx.cloud_id(), global_, 0.0);
  if (config_.record_accuracy) {
    ctx.metrics().add_point(kAccuracySeries, ctx.now(),
                            ctx.test_accuracy(global_));
  }
  begin_round(ctx);
}

std::vector<AgentId> RoundBasedStrategy::selection_pool(
    StrategyContext& ctx) const {
  std::vector<AgentId> pool;
  for (AgentId v : ctx.vehicle_ids()) {
    if (ctx.is_on(v) && !ctx.is_busy(v) && !ctx.agent(v).data.empty()) {
      pool.push_back(v);
    }
  }
  return pool;
}

void RoundBasedStrategy::begin_round(StrategyContext& ctx) {
  RR_TSPAN("strategy", "strategy.begin_round");
  if (done_) return;
  if (round_ >= config_.rounds) {
    done_ = true;
    ctx.metrics().set_counter("rounds_completed", round_);
    ctx.request_stop();
    return;
  }
  ++round_;
  selected_.clear();
  pending_.clear();
  contributions_.clear();
  contribution_origins_.clear();
  collecting_ = false;

  std::vector<AgentId> pool = selection_pool(ctx);
  const std::size_t take =
      std::min(std::max<std::size_t>(1, participants_this_round(ctx, round_)),
               pool.size());
  if (take == 0) {
    // Nobody reachable (e.g. whole fleet parked): idle out this round.
    RR_LOG_DEBUG("strategy") << "round " << round_ << ": empty pool, idling";
    --round_;  // retry the same round number later
    ctx.schedule_timer(ctx.cloud_id(), config_.round_duration_s,
                       kTimerRoundEnd);
    return;
  }
  std::vector<AgentId> chosen;
  if (config_.selection == SelectionPolicy::kRoundRobin) {
    // Fairness-first: walk vehicle ids from the cursor, taking available
    // ones, so every vehicle's data eventually enters the global model.
    std::sort(pool.begin(), pool.end());
    auto it = std::lower_bound(pool.begin(), pool.end(), round_robin_cursor_);
    for (std::size_t taken = 0; taken < take; ++taken) {
      if (it == pool.end()) it = pool.begin();
      chosen.push_back(*it);
      ++it;
    }
    round_robin_cursor_ = chosen.back() + 1;
  } else {
    for (std::size_t i :
         ctx.rng().sample_without_replacement(pool.size(), take)) {
      chosen.push_back(pool[i]);
    }
  }

  for (const AgentId v : chosen) {
    Message msg;
    msg.from = ctx.cloud_id();
    msg.to = v;
    msg.channel = comm::ChannelKind::kV2C;
    msg.tag = kTagGlobal;
    msg.round = round_;
    msg.model = global_;
    if (ctx.send(std::move(msg))) {
      selected_.insert(v);
      on_selected(ctx, v, round_);
    }
  }
  ctx.schedule_timer(ctx.cloud_id(), config_.round_duration_s, kTimerRoundEnd);
}

void RoundBasedStrategy::on_timer(StrategyContext& ctx, AgentId id,
                                  int timer_id) {
  if (id != ctx.cloud_id() || done_) return;
  switch (timer_id) {
    case kTimerRoundEnd:
      if (selected_.empty()) {
        begin_round(ctx);  // idle round, try again
      } else {
        close_round(ctx);
      }
      break;
    default:
      // Collect timers carry their round in the high bits so a stale timer
      // from an early-finalized round cannot cut a later round short.
      if ((timer_id & 0xFF) == kTimerCollectEnd && collecting_ &&
          (timer_id >> 8) == round_) {
        finalize_round(ctx);
      }
      break;
  }
}

void RoundBasedStrategy::close_round(StrategyContext& ctx) {
  RR_TSPAN("strategy", "strategy.close_round");
  collecting_ = true;
  on_round_closing(ctx, round_);
  // Request the retrained models from this round's participants (pull-based
  // collection, as in the paper's OPP description).
  pending_.clear();
  for (AgentId v : selected_) {
    Message req;
    req.from = ctx.cloud_id();
    req.to = v;
    req.channel = comm::ChannelKind::kV2C;
    req.tag = kTagRequest;
    req.round = round_;
    if (ctx.send(std::move(req))) {
      pending_.insert(v);
    }
  }
  if (pending_.empty()) {
    finalize_round(ctx);
    return;
  }
  ctx.schedule_timer(ctx.cloud_id(), config_.collect_timeout_s,
                     kTimerCollectEnd | (round_ << 8));
}

void RoundBasedStrategy::accept_contribution(StrategyContext& ctx,
                                             AgentId vehicle,
                                             ml::WeightedModel contribution) {
  if (done_ || contribution.weights.empty() ||
      contribution.data_amount <= 0.0) {
    return;
  }
  note_data_contributor(vehicle);
  contributions_.push_back(std::move(contribution));
  contribution_origins_.push_back(vehicle);
  pending_.erase(vehicle);
  if (collecting_ && pending_.empty()) finalize_round(ctx);
}

void RoundBasedStrategy::drop_pending(StrategyContext& ctx, AgentId vehicle) {
  pending_.erase(vehicle);
  if (collecting_ && pending_.empty()) finalize_round(ctx);
}

bool RoundBasedStrategy::send_reply(StrategyContext& ctx,
                                    const Message& request,
                                    ml::WeightedModel model) {
  Message reply;
  reply.from = request.to;
  reply.to = ctx.cloud_id();
  reply.channel = comm::ChannelKind::kV2C;
  reply.tag = kTagReply;
  reply.round = request.round;
  reply.model = std::move(model.weights);
  reply.data_amount = model.data_amount;
  return ctx.send(std::move(reply));
}

void RoundBasedStrategy::finalize_round(StrategyContext& ctx) {
  telemetry::Span span{"strategy", "strategy.finalize_round"};
  if (span.active()) {
    span.set_args("round=" + std::to_string(round_) +
                  " contributions=" + std::to_string(contributions_.size()));
  }
  collecting_ = false;
  const std::size_t n = contributions_.size();
  ctx.metrics().add_point("contributions_per_round", ctx.now(),
                          static_cast<double>(n));
  if (n > 0) {
    // Federated Averaging (§3): w = sum_i w_i * d_i / sum_j d_j — or one of
    // the robust alternatives when a defense is configured (DESIGN.md §12).
    AccountedMerge merge = accounted_merge(ctx, contributions_,
                                           contribution_origins_,
                                           config_.aggregator);
    global_ = std::move(merge.result.model.weights);
    ctx.set_model(ctx.cloud_id(), global_, merge.result.model.data_amount);
    // Adversary accounting: of the updates supplied by compromised vehicles,
    // how many made it into the global model?
    std::size_t poisoned_total = 0;
    for (AgentId origin : contribution_origins_) {
      if (ctx.is_adversary_compromised(origin)) ++poisoned_total;
    }
    if (poisoned_total > 0) {
      const std::size_t rejected = merge.compromised_rejected;
      ctx.metrics().increment("adversary_updates_rejected",
                              static_cast<double>(rejected));
      ctx.metrics().increment("adversary_updates_accepted",
                              static_cast<double>(poisoned_total - rejected));
    }
    on_global_updated(ctx, round_, n);
  }
  if (config_.record_accuracy) {
    ctx.metrics().add_point(kAccuracySeries, ctx.now(),
                            ctx.test_accuracy(global_));
  }
  ctx.metrics().add_point("unique_data_contributors", ctx.now(),
                          static_cast<double>(data_contributors_.size()));
  contributions_.clear();
  contribution_origins_.clear();
  on_round_finalized(ctx, round_, n);
  begin_round(ctx);
}

void RoundBasedStrategy::on_message(StrategyContext& ctx, const Message& msg) {
  if (msg.corrupted) {
    // Fault-injected corruption: the checksum fails, the payload is dropped
    // (a lost contribution, exactly like a delivery failure).
    ctx.metrics().increment("corrupted_payloads_discarded");
    return;
  }
  if (msg.to == ctx.cloud_id() && msg.tag == kTagReply) {
    if (msg.round == round_) {
      accept_contribution(ctx, msg.from,
                          ml::WeightedModel{msg.model, msg.data_amount});
    }
    return;
  }
  on_vehicle_message(ctx, msg);
}

void RoundBasedStrategy::on_message_failed(StrategyContext& ctx,
                                           const Message& msg,
                                           comm::LinkStatus /*reason*/) {
  // A lost request or reply means that participant cannot contribute this
  // round (paper §5.2: a reporter turning off discards its models).
  if (msg.round != round_ || done_) return;
  if (msg.tag == kTagRequest && msg.from == ctx.cloud_id()) {
    drop_pending(ctx, msg.to);
  } else if (msg.tag == kTagReply && msg.to == ctx.cloud_id()) {
    drop_pending(ctx, msg.from);
  }
}

void RoundBasedStrategy::on_finish(StrategyContext& ctx) {
  ctx.metrics().set_counter("rounds_completed", round_ - (done_ ? 0 : 1));
  ctx.metrics().set_counter("final_accuracy",
                            ctx.metrics().last_value(kAccuracySeries));
}

}  // namespace roadrunner::strategy

#include "strategy/centralized.hpp"


namespace roadrunner::strategy {

CentralizedStrategy::CentralizedStrategy(CentralizedConfig config)
    : config_{std::move(config)} {}

void CentralizedStrategy::on_start(StrategyContext& ctx) {
  ctx.set_model(ctx.cloud_id(), ctx.fresh_model(), 0.0);
  ctx.metrics().add_point(config_.accuracy_series, ctx.now(),
                          ctx.test_accuracy(ctx.agent(ctx.cloud_id()).model));
  for (AgentId v : ctx.vehicle_ids()) {
    try_upload(ctx, v);
  }
  ctx.schedule_timer(ctx.cloud_id(), config_.train_interval_s,
                     kTimerServerTrain);
  if (config_.duration_s > 0.0) {
    ctx.schedule_timer(ctx.cloud_id(), config_.duration_s, kTimerStop);
  }
}

void CentralizedStrategy::try_upload(StrategyContext& ctx, AgentId id) {
  if (uploaded_.contains(id) || in_flight_.contains(id)) return;
  const ml::DatasetView data = ctx.available_data(id);
  if (data.empty() || !ctx.is_on(id)) return;

  Message msg;
  msg.from = id;
  msg.to = ctx.cloud_id();
  msg.channel = comm::ChannelKind::kV2C;
  msg.tag = kTagData;
  // Raw sensor data on the wire: every sample's full feature payload.
  msg.extra_bytes = static_cast<std::uint64_t>(data.size()) *
                    data.base().sample_size() * sizeof(float);
  msg.data_amount = static_cast<double>(data.size());
  if (ctx.send(std::move(msg))) {
    in_flight_.insert(id);
  } else {
    ctx.schedule_timer(id, config_.upload_retry_s, kTimerRetry);
  }
}

void CentralizedStrategy::on_message(StrategyContext& ctx,
                                     const Message& msg) {
  if (msg.corrupted) {
    // Corrupted sensor batch: dropped at ingest; the vehicle may retry on a
    // later upload interval (it is no longer marked in flight).
    ctx.metrics().increment("corrupted_payloads_discarded");
    in_flight_.erase(msg.from);
    return;
  }
  if (msg.tag != kTagData || msg.to != ctx.cloud_id()) return;
  in_flight_.erase(msg.from);
  if (uploaded_.contains(msg.from)) return;
  uploaded_.insert(msg.from);

  // The simulation shortcut for "the server now has the vehicle's data":
  // merge the vehicle's (arrived) dataset view into the server's (the bytes
  // were paid for on the V2C channel above).
  const ml::DatasetView vehicle_data = ctx.available_data(msg.from);
  const auto& server_data = ctx.agent(ctx.cloud_id()).data;
  ctx.set_data(ctx.cloud_id(), server_data.empty()
                                   ? vehicle_data
                                   : server_data.merged_with(vehicle_data));
  server_dirty_ = true;
  ctx.metrics().increment("central_uploads");
}

void CentralizedStrategy::on_message_failed(StrategyContext& ctx,
                                            const Message& msg,
                                            comm::LinkStatus /*reason*/) {
  if (msg.tag != kTagData) return;
  in_flight_.erase(msg.from);
  ctx.schedule_timer(msg.from, config_.upload_retry_s, kTimerRetry);
}

void CentralizedStrategy::on_timer(StrategyContext& ctx, AgentId id,
                                   int timer_id) {
  switch (timer_id) {
    case kTimerServerTrain:
      maybe_train_server(ctx);
      ctx.schedule_timer(ctx.cloud_id(), config_.train_interval_s,
                         kTimerServerTrain);
      break;
    case kTimerRetry:
      try_upload(ctx, id);
      break;
    case kTimerStop:
      ctx.request_stop();
      break;
    default:
      break;
  }
}

void CentralizedStrategy::maybe_train_server(StrategyContext& ctx) {
  if (!server_dirty_) return;
  const AgentId cloud = ctx.cloud_id();
  if (ctx.agent(cloud).data.empty() || ctx.is_busy(cloud)) return;
  ml::TrainConfig cfg = ctx.train_config();
  cfg.epochs = config_.server_epochs;
  if (ctx.start_training(cloud, 0, cfg)) {
    server_dirty_ = false;
  }
}

void CentralizedStrategy::on_training_complete(
    StrategyContext& ctx, AgentId id, const TrainingOutcome& /*outcome*/) {
  if (id != ctx.cloud_id()) return;
  ctx.metrics().add_point(config_.accuracy_series, ctx.now(),
                          ctx.test_accuracy(ctx.agent(id).model));
}

void CentralizedStrategy::on_power_on(StrategyContext& ctx, AgentId id) {
  try_upload(ctx, id);
}

void CentralizedStrategy::on_finish(StrategyContext& ctx) {
  ctx.metrics().set_counter("final_accuracy",
                            ctx.metrics().last_value(config_.accuracy_series));
  ctx.metrics().set_counter("central_uploads_completed",
                            static_cast<double>(uploaded_.size()));
}

}  // namespace roadrunner::strategy

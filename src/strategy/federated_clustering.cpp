#include "strategy/federated_clustering.hpp"


#include "ml/kmeans.hpp"

namespace roadrunner::strategy {

namespace {

/// Centroids travel as a one-tensor Weights value so the round machinery's
/// FedAvg (which is exactly the data-amount-weighted centroid average) and
/// the comm byte accounting apply unchanged.
ml::Weights to_weights(const ml::KMeansModel& model) {
  return ml::Weights{model.centroids};
}

ml::KMeansModel from_weights(const ml::Weights& w) {
  ml::KMeansModel model;
  if (!w.empty()) model.centroids = w.front();
  return model;
}

}  // namespace

FederatedClusteringStrategy::FederatedClusteringStrategy(
    FederatedClusteringConfig config)
    : FederatedStrategy{[&config] {
        // The base's accuracy metric is classifier-specific; clustering
        // emits inertia/purity instead.
        RoundConfig round = config.round;
        round.record_accuracy = false;
        return round;
      }()},
      config_{std::move(config)} {
  if (config_.clusters == 0 || config_.local_iterations == 0) {
    throw std::invalid_argument{
        "FederatedClusteringStrategy: zero clusters or iterations"};
  }
}

std::uint64_t FederatedClusteringStrategy::lloyd_flops(
    std::size_t samples, std::size_t dims) const {
  return static_cast<std::uint64_t>(config_.local_iterations) * samples *
         config_.clusters * dims * 3;
}

void FederatedClusteringStrategy::on_start(StrategyContext& ctx) {
  FederatedStrategy::on_start(ctx);  // uses initial_global_model() below
  on_global_updated(ctx, 0, 0);      // record the seed's inertia/purity
}

ml::Weights FederatedClusteringStrategy::initial_global_model(
    StrategyContext& ctx) {
  // Bootstrap: k-means++ over the first data-holding vehicle's samples
  // (instrumentation-only; a real deployment would ship a seed model with
  // the firmware).
  for (AgentId v : ctx.vehicle_ids()) {
    const auto& data = ctx.agent(v).data;
    if (data.size() >= config_.clusters) {
      return to_weights(ml::kmeans_init(data, config_.clusters, ctx.rng()));
    }
  }
  throw std::logic_error{
      "FederatedClusteringStrategy: no vehicle has enough data to seed"};
}

void FederatedClusteringStrategy::on_vehicle_message(StrategyContext& ctx,
                                                     const Message& msg) {
  if (msg.tag != kTagGlobal) {
    FederatedStrategy::on_vehicle_message(ctx, msg);
    return;
  }
  const AgentId vehicle = msg.to;
  const ml::DatasetView data = ctx.available_data(vehicle);
  if (data.empty()) return;
  trained_round_.erase(vehicle);
  const int round = msg.round;
  const std::uint64_t flops =
      lloyd_flops(data.size(), data.base().sample_size());
  // Local Lloyd refinement, charged to the vehicle's HU.
  if (ctx.start_computation(vehicle, flops, round)) {
    pending_fits_[vehicle] = PendingFit{round, msg.model};
  }
}

void FederatedClusteringStrategy::on_computation_complete(StrategyContext& ctx,
                                                          AgentId id, int tag,
                                                          bool success) {
  const auto it = pending_fits_.find(id);
  if (it == pending_fits_.end() || it->second.round != tag) return;
  const PendingFit fit = std::move(it->second);
  pending_fits_.erase(it);
  if (!success) return;
  const ml::DatasetView vdata = ctx.available_data(id);
  if (vdata.empty()) return;
  ml::KMeansModel local = from_weights(fit.start);
  ml::kmeans_fit(local, vdata, config_.local_iterations);
  ctx.set_model(id, to_weights(local), static_cast<double>(vdata.size()));
  trained_round_[id] = fit.round;
}

void FederatedClusteringStrategy::on_global_updated(
    StrategyContext& ctx, int /*round*/, std::size_t /*contributions*/) {
  const ml::KMeansModel global =
      from_weights(ctx.agent(ctx.cloud_id()).model);
  if (global.k() == 0 || ctx.test_set().empty()) return;
  ctx.metrics().add_point("inertia", ctx.now(),
                          ml::kmeans_inertia(global, ctx.test_set()));
  ctx.metrics().add_point("purity", ctx.now(),
                          ml::kmeans_purity(global, ctx.test_set()));
}

}  // namespace roadrunner::strategy

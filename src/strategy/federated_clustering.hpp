// Federated k-means clustering — the framework's unsupervised learning
// strategy (paper §3: learning "spans from supervised ones ... to
// semi-supervised or unsupervised ones (... when clustering data)", and the
// quality measure is then "a measure for the performance of the
// clustering").
//
// Protocol: FL rounds over centroid sets. The server broadcasts the global
// centroids [k, d] (a one-tensor model, so the stock FedAvg machinery and
// byte accounting apply unchanged); each selected vehicle runs local Lloyd
// iterations on its on-board data through the generic HU-charged
// computation API, and returns its refined centroids weighted by its data
// amount; the server federated-averages them. Everything but the Lloyd
// refinement is FederatedStrategy's protocol. Quality is tracked as
// inertia (within-cluster sum of squares) and purity on the server's test
// set — emitted as the `inertia` and `purity` series.
#pragma once

#include "strategy/federated.hpp"

namespace roadrunner::strategy {

struct FederatedClusteringConfig {
  RoundConfig round;
  std::size_t clusters = 10;        ///< k
  std::size_t local_iterations = 5; ///< Lloyd steps per vehicle per round
};

class FederatedClusteringStrategy final : public FederatedStrategy {
 public:
  explicit FederatedClusteringStrategy(FederatedClusteringConfig config);

  [[nodiscard]] std::string name() const override {
    return "federated-clustering";
  }

  void on_start(StrategyContext& ctx) override;
  void on_computation_complete(StrategyContext& ctx, AgentId id,
                               int completion_tag, bool success) override;

  template <class Ar>
  void fields(Ar& ar) {
    FederatedStrategy::fields(ar);
    ar(pending_fits_);
    check_agents(ar, pending_fits_);
  }
  void save_state(util::BinWriter& out) const override {
    util::save_fields(out, *this);
  }
  void load_state(util::BinReader& in) override { load_fields(in, *this); }

 protected:
  [[nodiscard]] ml::Weights initial_global_model(StrategyContext& ctx)
      override;
  /// kTagGlobal starts a Lloyd refinement instead of SGD; the reply is FL's.
  void on_vehicle_message(StrategyContext& ctx, const Message& msg) override;
  void on_global_updated(StrategyContext& ctx, int round,
                         std::size_t contributions) override;

 private:
  /// FLOP estimate for `iterations` Lloyd steps over `samples` points:
  /// each step computes k x d-dimensional distances per sample.
  [[nodiscard]] std::uint64_t lloyd_flops(std::size_t samples,
                                          std::size_t dims) const;

  /// A Lloyd refinement in flight on a vehicle's HU: the centroids it
  /// started from and the round it belongs to; the computation's
  /// completion tag is the round.
  struct PendingFit {
    int round = -1;
    ml::Weights start;

    template <class Ar>
    void fields(Ar& ar) {
      ar(round, start);
    }
  };

  FederatedClusteringConfig config_;
  std::map<AgentId, PendingFit> pending_fits_;
};

}  // namespace roadrunner::strategy

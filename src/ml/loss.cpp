#include "ml/loss.hpp"

#include <cmath>
#include <stdexcept>

namespace roadrunner::ml {

LossResult softmax_cross_entropy(const Tensor& logits,
                                 const std::vector<std::int32_t>& labels) {
  if (logits.rank() != 2) {
    throw std::invalid_argument{"softmax_cross_entropy: logits must be 2-D"};
  }
  const std::size_t n = logits.dim(0), c = logits.dim(1);
  if (labels.size() != n) {
    throw std::invalid_argument{"softmax_cross_entropy: label count mismatch"};
  }

  LossResult result;
  result.grad = Tensor{{n, c}};
  double total_loss = 0.0;
  const float inv_n = 1.0F / static_cast<float>(n);

  for (std::size_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * c;
    float* grow = result.grad.data() + i * c;
    const std::int32_t y = labels[i];
    if (y < 0 || static_cast<std::size_t>(y) >= c) {
      throw std::invalid_argument{"softmax_cross_entropy: label out of range"};
    }

    float max_v = row[0];
    std::size_t arg = 0;
    for (std::size_t j = 1; j < c; ++j) {
      if (row[j] > max_v) {
        max_v = row[j];
        arg = j;
      }
    }
    if (arg == static_cast<std::size_t>(y)) ++result.correct;

    double denom = 0.0;
    for (std::size_t j = 0; j < c; ++j) {
      denom += std::exp(static_cast<double>(row[j] - max_v));
    }
    const double log_denom = std::log(denom);
    total_loss -= static_cast<double>(row[y] - max_v) - log_denom;

    for (std::size_t j = 0; j < c; ++j) {
      const double p = std::exp(static_cast<double>(row[j] - max_v)) / denom;
      grow[j] = static_cast<float>(p) * inv_n;
    }
    grow[y] -= inv_n;
  }

  result.loss = total_loss / static_cast<double>(n);
  return result;
}

}  // namespace roadrunner::ml

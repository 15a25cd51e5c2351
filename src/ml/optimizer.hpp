// Stochastic gradient descent with momentum — the optimizer the paper's
// experiment uses ("two epochs of stochastic gradient descent with
// momentum", §5.2).
#pragma once

#include <vector>

#include "ml/tensor.hpp"

namespace roadrunner::ml {

class SgdMomentum {
 public:
  /// lr > 0, momentum in [0, 1), weight_decay >= 0 (L2, applied to grads).
  SgdMomentum(float lr, float momentum = 0.9F, float weight_decay = 0.0F);

  /// One update: v = momentum * v + grad (+ wd * param); param -= lr * v.
  /// Velocity buffers are created lazily to match the parameter shapes;
  /// callers must pass the same parameter list every step.
  void step(const std::vector<Tensor*>& params,
            const std::vector<Tensor*>& grads);

  [[nodiscard]] float learning_rate() const { return lr_; }
  [[nodiscard]] float momentum() const { return momentum_; }

 private:
  float lr_;
  float momentum_;
  float weight_decay_;
  std::vector<Tensor> velocity_;
};

}  // namespace roadrunner::ml

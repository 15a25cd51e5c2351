// Adam optimizer (Kingma & Ba) — the second optimizer family the framework
// supports (Req. 2 asks for variety in the ML toolbox; adaptive methods
// are standard for the vision models the paper's applications use).
#pragma once

#include <vector>

#include "ml/tensor.hpp"

namespace roadrunner::ml {

class Adam {
 public:
  /// lr > 0, betas in [0, 1), eps > 0.
  explicit Adam(float lr, float beta1 = 0.9F, float beta2 = 0.999F,
                float eps = 1e-8F, float weight_decay = 0.0F);

  /// One bias-corrected Adam update. Moment buffers are created lazily;
  /// callers must pass the same parameter list every step.
  void step(const std::vector<Tensor*>& params,
            const std::vector<Tensor*>& grads);

  [[nodiscard]] float learning_rate() const { return lr_; }
  [[nodiscard]] std::uint64_t steps_taken() const { return t_; }

 private:
  float lr_, beta1_, beta2_, eps_, weight_decay_;
  std::uint64_t t_ = 0;
  std::vector<Tensor> m_, v_;
};

}  // namespace roadrunner::ml

#include "ml/adam.hpp"

#include <cmath>
#include <stdexcept>

namespace roadrunner::ml {

Adam::Adam(float lr, float beta1, float beta2, float eps, float weight_decay)
    : lr_{lr},
      beta1_{beta1},
      beta2_{beta2},
      eps_{eps},
      weight_decay_{weight_decay} {
  if (lr <= 0.0F) throw std::invalid_argument{"Adam: lr <= 0"};
  if (beta1 < 0.0F || beta1 >= 1.0F || beta2 < 0.0F || beta2 >= 1.0F) {
    throw std::invalid_argument{"Adam: betas outside [0, 1)"};
  }
  if (eps <= 0.0F) throw std::invalid_argument{"Adam: eps <= 0"};
  if (weight_decay < 0.0F) {
    throw std::invalid_argument{"Adam: negative weight decay"};
  }
}

void Adam::step(const std::vector<Tensor*>& params,
                const std::vector<Tensor*>& grads) {
  if (params.size() != grads.size()) {
    throw std::invalid_argument{"Adam::step: param/grad count mismatch"};
  }
  if (m_.empty()) {
    m_.reserve(params.size());
    v_.reserve(params.size());
    for (const Tensor* p : params) {
      m_.emplace_back(p->shape());
      v_.emplace_back(p->shape());
    }
  } else if (m_.size() != params.size()) {
    throw std::logic_error{"Adam::step: parameter list changed"};
  }

  ++t_;
  const double bias1 = 1.0 - std::pow(static_cast<double>(beta1_),
                                      static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(static_cast<double>(beta2_),
                                      static_cast<double>(t_));

  for (std::size_t i = 0; i < params.size(); ++i) {
    Tensor& p = *params[i];
    const Tensor& g = *grads[i];
    Tensor& m = m_[i];
    Tensor& v = v_[i];
    if (!m.same_shape(p) || !g.same_shape(p)) {
      throw std::invalid_argument{"Adam::step: shape mismatch"};
    }
    float* pp = p.data();
    const float* pg = g.data();
    float* pm = m.data();
    float* pv = v.data();
    // Locals, not members, in the loops: the stores may alias the members,
    // which would force a reload per element.
    const auto update = [&, lr = static_cast<double>(lr_),
                         eps = static_cast<double>(eps_), beta1 = beta1_,
                         beta2 = beta2_, keep1 = 1.0F - beta1_,
                         keep2 = 1.0F - beta2_](std::size_t j, float grad) {
      pm[j] = beta1 * pm[j] + keep1 * grad;
      pv[j] = beta2 * pv[j] + keep2 * grad * grad;
      const double m_hat = pm[j] / bias1;
      const double v_hat = pv[j] / bias2;
      pp[j] -= static_cast<float>(lr * m_hat / (std::sqrt(v_hat) + eps));
    };
    const float decay = weight_decay_;
    const std::size_t size = p.size();
    if (decay > 0.0F) {
      for (std::size_t j = 0; j < size; ++j) update(j, pg[j] + decay * pp[j]);
    } else {
      for (std::size_t j = 0; j < size; ++j) update(j, pg[j]);
    }
  }
}

}  // namespace roadrunner::ml

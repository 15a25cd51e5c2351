#include "ml/optimizer.hpp"

#include <stdexcept>

namespace roadrunner::ml {

SgdMomentum::SgdMomentum(float lr, float momentum, float weight_decay)
    : lr_{lr}, momentum_{momentum}, weight_decay_{weight_decay} {
  if (lr <= 0.0F) throw std::invalid_argument{"SgdMomentum: lr <= 0"};
  if (momentum < 0.0F || momentum >= 1.0F) {
    throw std::invalid_argument{"SgdMomentum: momentum outside [0, 1)"};
  }
  if (weight_decay < 0.0F) {
    throw std::invalid_argument{"SgdMomentum: negative weight decay"};
  }
}

void SgdMomentum::step(const std::vector<Tensor*>& params,
                       const std::vector<Tensor*>& grads) {
  if (params.size() != grads.size()) {
    throw std::invalid_argument{"SgdMomentum::step: param/grad count"};
  }
  if (velocity_.empty()) {
    velocity_.reserve(params.size());
    for (const Tensor* p : params) velocity_.emplace_back(p->shape());
  } else if (velocity_.size() != params.size()) {
    throw std::logic_error{"SgdMomentum::step: parameter list changed"};
  }

  for (std::size_t i = 0; i < params.size(); ++i) {
    Tensor& p = *params[i];
    const Tensor& g = *grads[i];
    Tensor& v = velocity_[i];
    if (!v.same_shape(p) || !g.same_shape(p)) {
      throw std::invalid_argument{"SgdMomentum::step: shape mismatch"};
    }
    float* pv = v.data();
    float* pp = p.data();
    const float* pg = g.data();
    // The stores through pv and pp may alias the members, so the loops
    // read locals: GCC then vectorises them instead of reloading the
    // members for every element.
    const float lr = lr_;
    const float momentum = momentum_;
    const float decay = weight_decay_;
    const std::size_t size = p.size();
    if (decay > 0.0F) {
      for (std::size_t j = 0; j < size; ++j) {
        const float grad = pg[j] + decay * pp[j];
        pv[j] = momentum * pv[j] + grad;
        pp[j] -= lr * pv[j];
      }
    } else {
      for (std::size_t j = 0; j < size; ++j) {
        pv[j] = momentum * pv[j] + pg[j];
        pp[j] -= lr * pv[j];
      }
    }
  }
}

}  // namespace roadrunner::ml

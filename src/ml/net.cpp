#include "ml/net.hpp"

#include <sstream>
#include <stdexcept>

namespace roadrunner::ml {

std::size_t weights_parameter_count(const Weights& w) {
  std::size_t n = 0;
  for (const Tensor& t : w) n += t.size();
  return n;
}

std::size_t weights_byte_size(const Weights& w) {
  // Mirrors ml/serialize.cpp: u32 tensor count, then per tensor u32 rank +
  // u32 dims + float payload.
  std::size_t bytes = sizeof(std::uint32_t);
  for (const Tensor& t : w) {
    bytes += sizeof(std::uint32_t) * (1 + t.rank());
    bytes += t.size() * sizeof(float);
  }
  return bytes;
}

Network::Network(std::vector<std::unique_ptr<Layer>> layers)
    : layers_{std::move(layers)} {}

Network::Network(const Network& other) {
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
}

void Network::append(std::unique_ptr<Layer> layer) {
  if (!layer) throw std::invalid_argument{"Network::append: null layer"};
  layers_.push_back(std::move(layer));
}

Tensor Network::forward(const Tensor& x) {
  const Tensor* cur = &x;
  for (auto& l : layers_) cur = &l->forward(*cur);
  return *cur;
}

Tensor Network::backward(const Tensor& grad_out) {
  const Tensor* cur = &grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    cur = &(*it)->backward(*cur);
  }
  return *cur;
}

void Network::backward_params(const Tensor& grad_out) {
  auto first = layers_.begin();
  while (first != layers_.end() && (*first)->params().empty()) ++first;
  if (first == layers_.end()) return;
  const Tensor* cur = &grad_out;
  for (auto it = layers_.end() - 1; it != first; --it) {
    cur = &(*it)->backward(*cur);
  }
  (*first)->accumulate_param_grads(*cur);
}

std::vector<Tensor*> Network::params() {
  std::vector<Tensor*> out;
  for (auto& l : layers_) {
    for (Tensor* p : l->params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Network::grads() {
  std::vector<Tensor*> out;
  for (auto& l : layers_) {
    for (Tensor* g : l->grads()) out.push_back(g);
  }
  return out;
}

void Network::zero_grad() {
  for (Tensor* g : grads()) g->fill(0.0F);
}

void Network::init_params(util::Rng& rng) {
  for (auto& l : layers_) l->init_params(rng);
}

void Network::set_training(bool training) {
  for (auto& l : layers_) l->set_training(training);
}

void Network::reset_from(const Network& prototype) {
  if (prototype.layers_.size() != layers_.size()) {
    throw std::invalid_argument{"Network::reset_from: layer count mismatch"};
  }
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->reset_from(*prototype.layers_[i]);
  }
  zero_grad();
}

Weights Network::weights() const {
  Weights out;
  // params() is non-const only because callers may mutate through it; we
  // copy here, so the const_cast is confined and safe.
  auto& self = const_cast<Network&>(*this);
  for (Tensor* p : self.params()) out.push_back(*p);
  return out;
}

void Network::set_weights(const Weights& w) {
  auto ps = params();
  if (w.size() != ps.size()) {
    throw std::invalid_argument{"Network::set_weights: tensor count mismatch"};
  }
  for (std::size_t i = 0; i < ps.size(); ++i) {
    if (!ps[i]->same_shape(w[i])) {
      throw std::invalid_argument{"Network::set_weights: shape mismatch at " +
                                  std::to_string(i)};
    }
    *ps[i] = w[i];
  }
}

std::size_t Network::parameter_count() const {
  auto& self = const_cast<Network&>(*this);
  std::size_t n = 0;
  for (Tensor* p : self.params()) n += p->size();
  return n;
}

std::uint64_t Network::flops_per_sample() const {
  std::uint64_t total = 0;
  for (const auto& l : layers_) total += l->flops_per_sample();
  return total;
}

std::string Network::summary() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i > 0) os << " -> ";
    os << layers_[i]->name();
  }
  return os.str();
}

}  // namespace roadrunner::ml

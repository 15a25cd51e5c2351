#include "ml/network_pool.hpp"

namespace roadrunner::ml {

NetworkPool::NetworkPool(Network prototype)
    : prototype_{std::move(prototype)} {}

NetworkPool::Lease::~Lease() {
  if (net_) pool_->give_back(std::move(net_));
}

NetworkPool::Lease NetworkPool::lease(const Weights& weights) {
  std::unique_ptr<Network> net;
  {
    util::MutexLock lock{mutex_};
    if (!free_.empty()) {
      net = std::move(free_.back());
      free_.pop_back();
    } else {
      ++built_;
    }
  }
  if (net) {
    net->reset_from(prototype_);
  } else {
    net = std::make_unique<Network>(prototype_);
  }
  Lease lease{*this, std::move(net)};
  lease->set_weights(weights);  // a throw returns the network via ~Lease
  return lease;
}

std::size_t NetworkPool::built() const {
  util::MutexLock lock{mutex_};
  return built_;
}

void NetworkPool::give_back(std::unique_ptr<Network> net) {
  util::MutexLock lock{mutex_};
  free_.push_back(std::move(net));
}

}  // namespace roadrunner::ml

// Warm networks for concurrent training and evaluation jobs.
//
// Cloning a Network allocates every parameter, gradient and layer buffer,
// and the first batches through a fresh clone grow every layer buffer
// again. A NetworkPool keeps the networks its jobs return and hands them
// out again: a lease resets a warm network to the prototype (
// Network::reset_from) and loads the job's weights, so it equals
// `Network copy = prototype; copy.set_weights(weights);` in everything a
// job can observe (outputs, gradients, mode, FLOP counts) while its
// buffers keep their storage.
//
// Networks are built lazily, one per lease that finds the free list empty,
// so the pool holds at most as many as were ever leased at once: one per
// thread that ran its jobs concurrently.
#pragma once

#include <memory>
#include <vector>

#include "ml/net.hpp"
#include "util/sync.hpp"

namespace roadrunner::ml {

class NetworkPool {
 public:
  /// `prototype` fixes the architecture, the mode and each layer's
  /// non-parameter state (the recorded input size).
  explicit NetworkPool(Network prototype);

  NetworkPool(const NetworkPool&) = delete;
  NetworkPool& operator=(const NetworkPool&) = delete;

  /// A leased network; returns it to the pool's free list on destruction.
  class Lease {
   public:
    Lease(Lease&& other) noexcept = default;
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    [[nodiscard]] Network& operator*() const { return *net_; }
    [[nodiscard]] Network* operator->() const { return net_.get(); }

   private:
    friend class NetworkPool;
    Lease(NetworkPool& pool, std::unique_ptr<Network> net)
        : pool_{&pool}, net_{std::move(net)} {}

    NetworkPool* pool_;
    std::unique_ptr<Network> net_;
  };

  /// A network equal to a copy of the prototype given `weights`
  /// (set_weights validates their shapes). Thread-safe.
  [[nodiscard]] Lease lease(const Weights& weights);

  [[nodiscard]] const Network& prototype() const { return prototype_; }

  /// Networks built so far (leased or idle); bounded by the most leases
  /// ever held at once.
  [[nodiscard]] std::size_t built() const RR_EXCLUDES(mutex_);

 private:
  void give_back(std::unique_ptr<Network> net) RR_EXCLUDES(mutex_);

  const Network prototype_;
  mutable util::Mutex mutex_;
  std::vector<std::unique_ptr<Network>> free_ RR_GUARDED_BY(mutex_);
  std::size_t built_ RR_GUARDED_BY(mutex_) = 0;
};

}  // namespace roadrunner::ml

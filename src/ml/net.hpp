// Sequential network and the `Weights` value type that agents exchange.
//
// In the simulator, a *model* is a Weights value (flat list of parameter
// tensors). The architecture lives once per learning problem as a Network
// prototype; agents' weights are loaded into a warm Network leased from an
// ml::NetworkPool to train or test. This mirrors the paper's ML module, which "keeps tabs on the current
// model(s) of each agent" and trains/tests/aggregates them (§4), and keeps
// model exchange cheap and explicit — the byte size of a serialized Weights
// is exactly what the communication module charges.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ml/layers.hpp"
#include "ml/tensor.hpp"

namespace roadrunner::ml {

/// Parameter snapshot: tensors in network layer order.
using Weights = std::vector<Tensor>;

/// Number of scalar parameters across all tensors.
std::size_t weights_parameter_count(const Weights& w);

/// Serialized size in bytes (shape headers + float32 payload); what the
/// comm module charges for a model transfer. Kept in sync with
/// ml/serialize.* by a round-trip test.
std::size_t weights_byte_size(const Weights& w);

class Network {
 public:
  Network() = default;
  explicit Network(std::vector<std::unique_ptr<Layer>> layers);

  Network(const Network& other);
  Network(Network&&) noexcept = default;
  Network& operator=(Network&&) noexcept = default;

  void append(std::unique_ptr<Layer> layer);

  [[nodiscard]] std::size_t layer_count() const { return layers_.size(); }
  [[nodiscard]] const Layer& layer(std::size_t i) const { return *layers_[i]; }

  /// Runs the batch through all layers, each reading the previous one's
  /// buffer; only the final logits are copied out.
  Tensor forward(const Tensor& x);

  /// Backpropagates from the loss gradient; accumulates parameter grads and
  /// returns (a copy of) the gradient w.r.t. the network input.
  Tensor backward(const Tensor& grad_out);

  /// Accumulates the parameter gradients backward() would, and nothing
  /// else: the walk stops at the first layer that has parameters, which
  /// computes no input gradient (Layer::accumulate_param_grads), and the
  /// layers below it are not visited. The training step's backward pass.
  void backward_params(const Tensor& grad_out);

  /// All learnable parameters / their gradients, in layer order.
  [[nodiscard]] std::vector<Tensor*> params();
  [[nodiscard]] std::vector<Tensor*> grads();

  void zero_grad();

  /// Randomizes all parameters (deterministic given the rng state).
  void init_params(util::Rng& rng);

  /// Propagates training/inference mode to all layers: an inference pass
  /// caches nothing for backward.
  void set_training(bool training);

  /// Makes this network observably equal to a fresh copy of `prototype`
  /// (same architecture) except for the parameter values, keeping every
  /// layer's buffers: Layer::reset_from on each layer, then zero_grad.
  void reset_from(const Network& prototype);

  /// Copies parameters out / in. set_weights validates shapes.
  [[nodiscard]] Weights weights() const;
  void set_weights(const Weights& w);

  [[nodiscard]] std::size_t parameter_count() const;

  /// Sum of per-layer forward MACs for one sample. Valid after at least one
  /// forward pass has fixed the spatial dimensions.
  [[nodiscard]] std::uint64_t flops_per_sample() const;

  /// "Conv2D(3->6,k5) -> MaxPool2D -> ..." for logging.
  [[nodiscard]] std::string summary() const;

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace roadrunner::ml

// Neural-network layers with hand-written backpropagation.
//
// Contract shared by all layers:
//  * forward(x) consumes a batch-first tensor; in training mode (the
//    default) it caches whatever the backward pass needs, in inference
//    mode it caches nothing, so backward() then throws (Flatten, which
//    records only a shape, still passes the gradient back);
//  * backward(grad_out) must follow a training forward with a matching
//    batch, returns the gradient w.r.t. the layer input, and ACCUMULATES
//    parameter gradients (callers zero them between optimizer steps via
//    Network::zero_grad);
//  * forward and backward return a reference to a buffer the layer owns
//    and reuses: it is valid until that layer's next forward or backward
//    call (or its destruction), so a caller that keeps the result copies
//    it. Buffers keep their storage between calls (Tensor::resize), so a
//    warm layer allocates nothing at a batch size it has seen;
//  * every layer reports flops_per_sample() so the hu::HardwareUnit can
//    charge realistic simulated training time (DESIGN.md substitution 3).
//
// All layers are gradient-checked against finite differences in
// tests/ml_layers_test.cpp.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ml/tensor.hpp"
#include "util/rng.hpp"

namespace roadrunner::ml {

class Layer {
 public:
  virtual ~Layer() = default;

  virtual const Tensor& forward(const Tensor& x) = 0;
  virtual const Tensor& backward(const Tensor& grad_out) = 0;

  /// Accumulates exactly the parameter gradients backward() would, without
  /// the input gradient: the training step calls it on the first layer
  /// that has parameters, whose input gradient nothing reads. Default:
  /// backward() with the result dropped.
  virtual void accumulate_param_grads(const Tensor& grad_out) {
    (void)backward(grad_out);
  }

  /// Learnable parameters and their gradient buffers, same order and shapes.
  virtual std::vector<Tensor*> params() { return {}; }
  virtual std::vector<Tensor*> grads() { return {}; }

  /// Re-randomizes parameters (no-op for parameterless layers).
  virtual void init_params(util::Rng& /*rng*/) {}

  /// Switches between training (the default) and inference behaviour:
  /// an inference forward caches nothing.
  void set_training(bool training) { training_ = training; }
  [[nodiscard]] bool training_mode() const { return training_; }

  /// Makes this layer observably equal to a fresh `prototype.clone()`
  /// except for the parameter values, while keeping its buffers' storage:
  /// the mode is copied, the record of the last forward is dropped. `prototype` is a layer of the same type and
  /// shape (ml::NetworkPool leases networks this way).
  virtual void reset_from(const Layer& prototype) {
    training_ = prototype.training_;
  }

  /// Forward-pass multiply-accumulate count for one sample; the trainer
  /// charges ~3x this for forward+backward.
  [[nodiscard]] virtual std::uint64_t flops_per_sample() const { return 0; }

  [[nodiscard]] virtual std::string name() const = 0;

  /// Deep copy, including current parameter values and the mode.
  [[nodiscard]] virtual std::unique_ptr<Layer> clone() const = 0;

 protected:
  bool training_ = true;
};

/// Fully connected: y = x W^T + b, with x [N, in], W [out, in], b [out].
class Linear final : public Layer {
 public:
  Linear(std::size_t in_features, std::size_t out_features);

  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& grad_out) override;
  void accumulate_param_grads(const Tensor& grad_out) override;
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &db_}; }
  void init_params(util::Rng& rng) override;
  [[nodiscard]] std::uint64_t flops_per_sample() const override;
  void reset_from(const Layer& prototype) override;
  [[nodiscard]] std::string name() const override { return "Linear"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;

  [[nodiscard]] std::size_t in_features() const { return in_; }
  [[nodiscard]] std::size_t out_features() const { return out_; }

 private:
  std::size_t in_, out_;
  Tensor w_, b_, dw_, db_;
  Tensor cached_x_, y_, dx_;
};

/// 2-D convolution with square kernels, configurable stride and zero
/// padding. Input [N, Cin, H, W], kernel [Cout, Cin, K, K], output
/// [N, Cout, OH, OW] with OH = (H + 2*padding - K)/stride + 1 (floor).
/// Defaults (stride 1, padding 0, "valid") match the paper's LeNet-style
/// CNN. Implemented by the direct convolution kernels of
/// ml/conv_kernels.hpp, which read the image in place and give the bits of
/// per-sample im2col + ml::gemm.
class Conv2D final : public Layer {
 public:
  Conv2D(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride = 1, std::size_t padding = 0);

  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& grad_out) override;
  void accumulate_param_grads(const Tensor& grad_out) override;
  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &db_}; }
  void init_params(util::Rng& rng) override;
  [[nodiscard]] std::uint64_t flops_per_sample() const override;
  void reset_from(const Layer& prototype) override;
  [[nodiscard]] std::string name() const override { return "Conv2D"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;

  [[nodiscard]] std::size_t in_channels() const { return cin_; }
  [[nodiscard]] std::size_t out_channels() const { return cout_; }
  [[nodiscard]] std::size_t kernel() const { return k_; }
  [[nodiscard]] std::size_t stride() const { return stride_; }
  [[nodiscard]] std::size_t padding() const { return padding_; }

 private:
  std::size_t cin_, cout_, k_, stride_ = 1, padding_ = 0;
  Tensor w_, b_, dw_, db_;
  Tensor cached_x_, y_, dx_;
  // Spatial dims of the last forward, for flops and backward bookkeeping.
  std::size_t last_h_ = 0, last_w_ = 0;
};

/// 2x2 max pooling with stride 2 (the paper's CNN uses max pooling after
/// each convolution). Odd trailing rows/columns are dropped, matching
/// PyTorch's default floor behaviour.
class MaxPool2D final : public Layer {
 public:
  MaxPool2D() = default;

  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& grad_out) override;
  [[nodiscard]] std::uint64_t flops_per_sample() const override;
  void reset_from(const Layer& prototype) override;
  [[nodiscard]] std::string name() const override { return "MaxPool2D"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;

 private:
  // Flat input index per output element, written by a training forward
  // only; in_shape_ is empty when no training forward is on record.
  std::vector<std::uint32_t> argmax_;
  std::vector<std::size_t> in_shape_;
  std::size_t last_out_volume_ = 0;
  Tensor y_, dx_;
};

class ReLU final : public Layer {
 public:
  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& grad_out) override;
  [[nodiscard]] std::uint64_t flops_per_sample() const override;
  void reset_from(const Layer& prototype) override;
  [[nodiscard]] std::string name() const override { return "ReLU"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;

 private:
  Tensor cached_x_, y_, dx_;
  std::size_t last_sample_volume_ = 0;  // per-sample input size, for flops
};

/// Collapses [N, ...] to [N, volume(...)]; shape-only, no arithmetic.
class Flatten final : public Layer {
 public:
  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& grad_out) override;
  void reset_from(const Layer& prototype) override;
  [[nodiscard]] std::string name() const override { return "Flatten"; }
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;

 private:
  std::vector<std::size_t> in_shape_;
  Tensor y_, dx_;
};

}  // namespace roadrunner::ml

#include "ml/layers.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ml/conv_kernels.hpp"

namespace roadrunner::ml {

namespace {

void he_init(Tensor& w, std::size_t fan_in, util::Rng& rng) {
  const double stddev = std::sqrt(2.0 / static_cast<double>(fan_in));
  for (float& v : w.values()) {
    v = static_cast<float>(rng.normal(0.0, stddev));
  }
}

/// Per-thread scratch for Linear's weight-gradient product, reused across
/// calls. A training job runs on one thread and no layer call re-enters
/// another, so the buffer has one user at a time; nothing is kept between
/// calls.
float* partial_scratch(std::size_t size) {
  thread_local std::vector<float> buffer;
  if (buffer.size() < size) buffer.resize(size);
  return buffer.data();
}

/// Keeps a copy of a training forward's input for backward; an inference
/// forward drops the record instead (the copy is what it saves).
void cache_input(bool training, const Tensor& x, Tensor& cache) {
  if (training) {
    cache.resize(x.shape());
    std::copy(x.values().begin(), x.values().end(), cache.data());
  } else {
    cache.resize({});
  }
}

/// 2x2 stride-2 max pooling of x [N, C, H, W] into y [N, C, H/2, W/2];
/// with kArgmax, also each output's flat input index.
template <bool kArgmax>
void max_pool_2x2(const Tensor& x, float* py, std::uint32_t* argmax) {
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = h / 2, ow = w / 2;
  const float* px = x.data();
  std::size_t out = 0;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = px + (s * c + ch) * h * w;
      const std::size_t plane_base = (s * c + ch) * h * w;
      for (std::size_t oi = 0; oi < oh; ++oi) {
        for (std::size_t oj = 0; oj < ow; ++oj, ++out) {
          const std::size_t i0 = oi * 2, j0 = oj * 2;
          std::size_t best = i0 * w + j0;
          float best_v = plane[best];
          const std::size_t candidates[3] = {i0 * w + j0 + 1,
                                             (i0 + 1) * w + j0,
                                             (i0 + 1) * w + j0 + 1};
          // Selects, not branches: a later candidate wins only when
          // strictly greater, so ties keep the first, a NaN never wins and
          // -0/+0 keep their order, as the branchy loop did.
          for (std::size_t cand : candidates) {
            const bool greater = plane[cand] > best_v;
            best_v = greater ? plane[cand] : best_v;
            best = greater ? cand : best;
          }
          py[out] = best_v;
          if constexpr (kArgmax) {
            argmax[out] = static_cast<std::uint32_t>(plane_base + best);
          }
        }
      }
    }
  }
}

void require_rank(const Tensor& x, std::size_t rank, const char* layer) {
  if (x.rank() != rank) {
    throw std::invalid_argument{std::string{layer} + ": expected rank-" +
                                std::to_string(rank) + " input, got " +
                                x.shape_string()};
  }
}

}  // namespace

// ---------------------------------------------------------------- Linear --

Linear::Linear(std::size_t in_features, std::size_t out_features)
    : in_{in_features},
      out_{out_features},
      w_{{out_features, in_features}},
      b_{{out_features}},
      dw_{{out_features, in_features}},
      db_{{out_features}} {
  if (in_ == 0 || out_ == 0) {
    throw std::invalid_argument{"Linear: zero-sized dimension"};
  }
}

void Linear::init_params(util::Rng& rng) {
  he_init(w_, in_, rng);
  b_.fill(0.0F);
}

const Tensor& Linear::forward(const Tensor& x) {
  require_rank(x, 2, "Linear");
  if (x.dim(1) != in_) {
    throw std::invalid_argument{"Linear: input feature mismatch"};
  }
  cache_input(training_, x, cached_x_);
  const std::size_t n = x.dim(0);
  // y[N, out] = x[N, in] * W^T, reading W [out, in] through its strides.
  y_.resize({n, out_});
  gemm(n, out_, in_, x.data(), in_, 1, w_.data(), 1, in_, y_.data(), false);
  for (std::size_t i = 0; i < n; ++i) {
    float* row = y_.data() + i * out_;
    for (std::size_t j = 0; j < out_; ++j) row[j] += b_[j];
  }
  return y_;
}

const Tensor& Linear::backward(const Tensor& grad_out) {
  accumulate_param_grads(grad_out);
  // dX[N, in] = grad_out[N, out] * W[out, in]
  const std::size_t n = grad_out.dim(0);
  dx_.resize({n, in_});
  gemm(n, in_, out_, grad_out.data(), out_, 1, w_.data(), in_, 1, dx_.data(),
       false);
  return dx_;
}

void Linear::accumulate_param_grads(const Tensor& grad_out) {
  require_rank(grad_out, 2, "Linear::backward");
  const std::size_t n = grad_out.dim(0);
  if (grad_out.dim(1) != out_ || cached_x_.empty() || cached_x_.dim(0) != n) {
    throw std::logic_error{"Linear::backward: no matching forward"};
  }
  // dW[out, in] += grad_out^T[out, N] * x[N, in]. The product is formed
  // in full and then added: accumulating inside the GEMM would reorder the
  // additions and change the bits of every trained model.
  float* partial = partial_scratch(out_ * in_);
  gemm(out_, in_, n, grad_out.data(), 1, out_, cached_x_.data(), in_, 1,
       partial, false);
  float* dw = dw_.data();
  for (std::size_t i = 0; i < out_ * in_; ++i) dw[i] += partial[i];
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = grad_out.data() + i * out_;
    for (std::size_t j = 0; j < out_; ++j) db_[j] += row[j];
  }
}

std::uint64_t Linear::flops_per_sample() const {
  return static_cast<std::uint64_t>(in_) * out_;
}

void Linear::reset_from(const Layer& prototype) {
  Layer::reset_from(prototype);
  cached_x_.resize({});
}

std::unique_ptr<Layer> Linear::clone() const {
  auto copy = std::make_unique<Linear>(in_, out_);
  copy->training_ = training_;
  copy->w_ = w_;
  copy->b_ = b_;
  return copy;
}

// ---------------------------------------------------------------- Conv2D --

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t padding)
    : cin_{in_channels},
      cout_{out_channels},
      k_{kernel},
      stride_{stride},
      padding_{padding},
      w_{{out_channels, in_channels, kernel, kernel}},
      b_{{out_channels}},
      dw_{{out_channels, in_channels, kernel, kernel}},
      db_{{out_channels}} {
  if (cin_ == 0 || cout_ == 0 || k_ == 0 || stride_ == 0) {
    throw std::invalid_argument{"Conv2D: zero-sized dimension"};
  }
  if (padding_ >= k_) {
    throw std::invalid_argument{"Conv2D: padding must be < kernel"};
  }
}

void Conv2D::init_params(util::Rng& rng) {
  he_init(w_, cin_ * k_ * k_, rng);
  b_.fill(0.0F);
}

const Tensor& Conv2D::forward(const Tensor& x) {
  require_rank(x, 4, "Conv2D");
  if (x.dim(1) != cin_) {
    throw std::invalid_argument{"Conv2D: channel mismatch"};
  }
  const std::size_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const ConvShape g = conv_shape(cin_, cout_, k_, stride_, padding_, h, w);
  cache_input(training_, x, cached_x_);
  last_h_ = h;
  last_w_ = w;
  y_.resize({n, cout_, g.oh, g.ow});
  conv_forward(g, n, x.data(), w_.data(), b_.data(), y_.data());
  return y_;
}

const Tensor& Conv2D::backward(const Tensor& grad_out) {
  accumulate_param_grads(grad_out);
  const ConvShape g =
      conv_shape(cin_, cout_, k_, stride_, padding_, last_h_, last_w_);
  dx_.resize(cached_x_.shape());
  conv_input_grad(g, cached_x_.dim(0), w_.data(), grad_out.data(),
                  dx_.data());
  return dx_;
}

void Conv2D::accumulate_param_grads(const Tensor& grad_out) {
  require_rank(grad_out, 4, "Conv2D::backward");
  if (cached_x_.empty()) {
    throw std::logic_error{"Conv2D::backward: no matching forward"};
  }
  const std::size_t n = cached_x_.dim(0);
  const ConvShape g =
      conv_shape(cin_, cout_, k_, stride_, padding_, last_h_, last_w_);
  if (grad_out.dim(0) != n || grad_out.dim(1) != cout_ ||
      grad_out.dim(2) != g.oh || grad_out.dim(3) != g.ow) {
    throw std::invalid_argument{"Conv2D::backward: grad shape mismatch"};
  }
  // The kernel sums the samples' partials in sample order; dW then gains
  // that sum in one add per call (the contract in ml/conv_kernels.hpp).
  conv_weight_grad(g, n, cached_x_.data(), grad_out.data(), dw_.data(),
                   db_.data());
}

std::uint64_t Conv2D::flops_per_sample() const {
  // Uses the most recent input spatial dims (0 before any forward).
  if (last_h_ + 2 * padding_ < k_ || last_w_ + 2 * padding_ < k_ ||
      last_h_ == 0) {
    return 0;
  }
  const std::uint64_t oh = (last_h_ + 2 * padding_ - k_) / stride_ + 1;
  const std::uint64_t ow = (last_w_ + 2 * padding_ - k_) / stride_ + 1;
  return static_cast<std::uint64_t>(cout_) * cin_ * k_ * k_ * oh * ow;
}

void Conv2D::reset_from(const Layer& prototype) {
  Layer::reset_from(prototype);
  const auto& proto = static_cast<const Conv2D&>(prototype);
  cached_x_.resize({});
  last_h_ = proto.last_h_;
  last_w_ = proto.last_w_;
}

std::unique_ptr<Layer> Conv2D::clone() const {
  auto copy = std::make_unique<Conv2D>(cin_, cout_, k_, stride_, padding_);
  copy->training_ = training_;
  copy->w_ = w_;
  copy->b_ = b_;
  copy->last_h_ = last_h_;
  copy->last_w_ = last_w_;
  return copy;
}

// ------------------------------------------------------------- MaxPool2D --

const Tensor& MaxPool2D::forward(const Tensor& x) {
  require_rank(x, 4, "MaxPool2D");
  const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t oh = h / 2, ow = w / 2;
  if (oh == 0 || ow == 0) {
    throw std::invalid_argument{"MaxPool2D: input too small"};
  }
  y_.resize({n, c, oh, ow});
  last_out_volume_ = c * oh * ow;
  if (training_) {
    in_shape_ = x.shape();
    argmax_.resize(y_.size());
    max_pool_2x2<true>(x, y_.data(), argmax_.data());
  } else {
    in_shape_.clear();
    max_pool_2x2<false>(x, y_.data(), nullptr);
  }
  return y_;
}

const Tensor& MaxPool2D::backward(const Tensor& grad_out) {
  if (in_shape_.empty() || grad_out.size() != argmax_.size()) {
    throw std::logic_error{"MaxPool2D::backward: no matching forward"};
  }
  dx_.resize(in_shape_);
  dx_.fill(0.0F);
  const float* go = grad_out.data();
  float* dst = dx_.data();
  for (std::size_t i = 0; i < argmax_.size(); ++i) {
    dst[argmax_[i]] += go[i];
  }
  return dx_;
}

std::uint64_t MaxPool2D::flops_per_sample() const {
  return last_out_volume_ * 3;  // three comparisons per output element
}

void MaxPool2D::reset_from(const Layer& prototype) {
  Layer::reset_from(prototype);
  in_shape_.clear();
  last_out_volume_ = 0;
}

std::unique_ptr<Layer> MaxPool2D::clone() const {
  auto copy = std::make_unique<MaxPool2D>();
  copy->training_ = training_;
  return copy;
}

// ------------------------------------------------------------------ ReLU --

const Tensor& ReLU::forward(const Tensor& x) {
  cache_input(training_, x, cached_x_);
  last_sample_volume_ =
      x.empty() ? 0 : x.size() / std::max<std::size_t>(1, x.dim(0));
  y_.resize(x.shape());
  const float* px = x.data();
  float* py = y_.data();
  for (std::size_t i = 0; i < y_.size(); ++i) {
    py[i] = px[i] > 0.0F ? px[i] : 0.0F;
  }
  return y_;
}

const Tensor& ReLU::backward(const Tensor& grad_out) {
  if (!grad_out.same_shape(cached_x_)) {
    throw std::logic_error{"ReLU::backward: no matching forward"};
  }
  dx_.resize(grad_out.shape());
  const float* px = cached_x_.data();
  const float* pg = grad_out.data();
  float* pd = dx_.data();
  // A select rather than a branch, so the loop vectorises: the gradient is
  // loaded on every lane (a load under the condition would compile to a
  // branch). A NaN input still passes its gradient through, as
  // `px[i] <= 0` is false for it.
  for (std::size_t i = 0; i < dx_.size(); ++i) {
    const float g = pg[i];
    pd[i] = px[i] <= 0.0F ? 0.0F : g;
  }
  return dx_;
}

std::uint64_t ReLU::flops_per_sample() const { return last_sample_volume_; }

void ReLU::reset_from(const Layer& prototype) {
  Layer::reset_from(prototype);
  cached_x_.resize({});
  last_sample_volume_ = 0;
}

std::unique_ptr<Layer> ReLU::clone() const {
  auto copy = std::make_unique<ReLU>();
  copy->training_ = training_;
  return copy;
}

// --------------------------------------------------------------- Flatten --

const Tensor& Flatten::forward(const Tensor& x) {
  if (x.rank() < 2) throw std::invalid_argument{"Flatten: rank < 2"};
  in_shape_ = x.shape();
  const std::size_t n = x.dim(0);
  y_.resize({n, x.size() / n});
  std::copy(x.values().begin(), x.values().end(), y_.data());
  return y_;
}

const Tensor& Flatten::backward(const Tensor& grad_out) {
  if (in_shape_.empty() || grad_out.size() != shape_volume(in_shape_)) {
    throw std::logic_error{"Flatten::backward: no matching forward"};
  }
  dx_.resize(in_shape_);
  std::copy(grad_out.values().begin(), grad_out.values().end(), dx_.data());
  return dx_;
}

void Flatten::reset_from(const Layer& prototype) {
  Layer::reset_from(prototype);
  in_shape_.clear();
}

std::unique_ptr<Layer> Flatten::clone() const {
  auto copy = std::make_unique<Flatten>();
  copy->training_ = training_;
  return copy;
}

}  // namespace roadrunner::ml

#include "ml/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace roadrunner::ml {

std::size_t shape_volume(const std::vector<std::size_t>& shape) {
  if (shape.empty()) return 0;
  std::size_t volume = 1;
  for (std::size_t d : shape) volume *= d;
  return volume;
}

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_{std::move(shape)}, data_(shape_volume(shape_), 0.0F) {}

Tensor::Tensor(std::vector<std::size_t> shape, std::vector<float> data)
    : shape_{std::move(shape)}, data_{std::move(data)} {
  if (data_.size() != shape_volume(shape_)) {
    throw std::invalid_argument{"Tensor: data size does not match shape"};
  }
}

Tensor Tensor::zeros(std::vector<std::size_t> shape) {
  return Tensor{std::move(shape)};
}

Tensor Tensor::full(std::vector<std::size_t> shape, float value) {
  Tensor t{std::move(shape)};
  t.fill(value);
  return t;
}

std::size_t Tensor::dim(std::size_t i) const {
  if (i >= shape_.size()) throw std::out_of_range{"Tensor::dim"};
  return shape_[i];
}

float& Tensor::at(std::size_t i) {
  if (i >= data_.size()) throw std::out_of_range{"Tensor::at"};
  return data_[i];
}

float Tensor::at(std::size_t i) const {
  if (i >= data_.size()) throw std::out_of_range{"Tensor::at"};
  return data_[i];
}

float& Tensor::at2(std::size_t i, std::size_t j) {
  return data_[i * shape_[1] + j];
}

float Tensor::at2(std::size_t i, std::size_t j) const {
  return data_[i * shape_[1] + j];
}

float& Tensor::at4(std::size_t a, std::size_t b, std::size_t c,
                   std::size_t d) {
  return data_[((a * shape_[1] + b) * shape_[2] + c) * shape_[3] + d];
}

float Tensor::at4(std::size_t a, std::size_t b, std::size_t c,
                  std::size_t d) const {
  return data_[((a * shape_[1] + b) * shape_[2] + c) * shape_[3] + d];
}

Tensor Tensor::reshaped(std::vector<std::size_t> shape) const {
  if (shape_volume(shape) != data_.size()) {
    throw std::invalid_argument{"Tensor::reshaped: volume mismatch"};
  }
  return Tensor{std::move(shape), data_};
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

namespace {
void require_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument{std::string{"Tensor: shape mismatch in "} +
                                op + ": " + a.shape_string() + " vs " +
                                b.shape_string()};
  }
}
}  // namespace

Tensor& Tensor::add_(const Tensor& other) {
  require_same_shape(*this, other, "add_");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::sub_(const Tensor& other) {
  require_same_shape(*this, other, "sub_");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::mul_(float scalar) {
  for (float& v : data_) v *= scalar;
  return *this;
}

Tensor& Tensor::add_scaled_(const Tensor& other, float scalar) {
  require_same_shape(*this, other, "add_scaled_");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += scalar * other.data_[i];
  }
  return *this;
}

Tensor Tensor::operator+(const Tensor& other) const {
  Tensor out = *this;
  out.add_(other);
  return out;
}

Tensor Tensor::operator-(const Tensor& other) const {
  Tensor out = *this;
  out.sub_(other);
  return out;
}

Tensor Tensor::operator*(float scalar) const {
  Tensor out = *this;
  out.mul_(scalar);
  return out;
}

double Tensor::sum() const {
  return std::accumulate(data_.begin(), data_.end(), 0.0);
}

float Tensor::max() const {
  if (data_.empty()) throw std::logic_error{"Tensor::max on empty tensor"};
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::min() const {
  if (data_.empty()) throw std::logic_error{"Tensor::min on empty tensor"};
  return *std::min_element(data_.begin(), data_.end());
}

double Tensor::norm() const {
  double acc = 0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return std::sqrt(acc);
}

std::string Tensor::shape_string() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) os << 'x';
    os << shape_[i];
  }
  os << ']';
  return os.str();
}

namespace {

// Register tile of the microkernel: MR rows of C by NR columns, kept in
// MR * NR / 4 four-float vectors. 6 x 8 needs 12 accumulators plus two B
// vectors and one product, within the 16 SSE registers of baseline x86-64,
// so nothing spills. MR = 6 also matches the paper CNN's first convolution
// (6 output channels) exactly.
constexpr std::size_t kMr = 6;
constexpr std::size_t kNr = 8;
// Cache blocking: a KC x NC packed B panel (256 x 512 floats, 512 KB) is
// reused by every MC-row A block; an MC x KC A block (288 KB with its
// broadcast copies) stays in L2.
constexpr std::size_t kKc = 256;
constexpr std::size_t kMc = 72;
constexpr std::size_t kNc = 512;

using Vec4 = float __attribute__((vector_size(16)));
constexpr std::size_t kLanes = sizeof(Vec4) / sizeof(float);
constexpr std::size_t kNv = kNr / kLanes;

Vec4 load4(const float* p) {
  Vec4 v = {};
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store4(float* p, Vec4 v) { std::memcpy(p, &v, sizeof v); }

/// Packs rows [0, mr) x columns [0, kc) of A into one MR-row panel stored
/// column by column, each value already broadcast to a full vector
/// (kMr * kLanes floats per k step), so the microkernel loads it with one
/// instruction instead of a load and a shuffle. Rows mr..kMr are zero.
void pack_a(std::size_t mr, std::size_t kc, const float* a, std::size_t rsa,
            std::size_t csa, float* dst) {
  if (mr < kMr) std::fill(dst, dst + kc * kMr * kLanes, 0.0F);
  for (std::size_t i = 0; i < mr; ++i) {
    const float* row = a + i * rsa;
    for (std::size_t p = 0; p < kc; ++p) {
      std::fill_n(dst + (p * kMr + i) * kLanes, kLanes, row[p * csa]);
    }
  }
}

/// Packs rows [0, kc) x columns [0, nr) of B into one NR-column panel
/// stored row by row (kNr floats per k step); columns nr..kNr are zero.
void pack_b(std::size_t kc, std::size_t nr, const float* b, std::size_t rsb,
            std::size_t csb, float* dst) {
  if (nr < kNr) std::fill(dst, dst + kc * kNr, 0.0F);
  if (csb == 1 && nr == kNr) {
    for (std::size_t p = 0; p < kc; ++p) {
      std::copy(b + p * rsb, b + p * rsb + kNr, dst + p * kNr);
    }
    return;
  }
  for (std::size_t j = 0; j < nr; ++j) {
    const float* col = b + j * csb;
    for (std::size_t p = 0; p < kc; ++p) dst[p * kNr + j] = col[p * rsb];
  }
}

/// C tile [mr x nr] (row stride ldc) = (load ? C : 0) + sum over ascending
/// p < kc of A[:, p] * B[p, :], one rounding per multiply and per add. Each
/// vector lane holds a different C element, so lanes never mix sums.
void micro_kernel(std::size_t kc, const float* pa, const float* pb, float* c,
                  std::size_t ldc, std::size_t mr, std::size_t nr, bool load) {
  Vec4 acc[kMr][kNv] = {};
  const bool full = mr == kMr && nr == kNr;
  if (load && full) {
    for (std::size_t i = 0; i < kMr; ++i) {
      for (std::size_t v = 0; v < kNv; ++v) {
        acc[i][v] = load4(c + i * ldc + kLanes * v);
      }
    }
  } else if (load) {
    // Edge tile: go through a zero-padded copy so no load leaves C.
    float edge[kMr * kNr] = {};
    for (std::size_t i = 0; i < mr; ++i) {
      std::copy(c + i * ldc, c + i * ldc + nr, edge + i * kNr);
      for (std::size_t v = 0; v < kNv; ++v) {
        acc[i][v] = load4(edge + i * kNr + kLanes * v);
      }
    }
  }
  for (std::size_t p = 0; p < kc; ++p, pa += kLanes * kMr, pb += kNr) {
    Vec4 b[kNv] = {};
    for (std::size_t v = 0; v < kNv; ++v) b[v] = load4(pb + kLanes * v);
    for (std::size_t i = 0; i < kMr; ++i) {
      const Vec4 ai = load4(pa + kLanes * i);
      for (std::size_t v = 0; v < kNv; ++v) acc[i][v] += ai * b[v];
    }
  }
  if (full) {
    for (std::size_t i = 0; i < kMr; ++i) {
      for (std::size_t v = 0; v < kNv; ++v) {
        store4(c + i * ldc + kLanes * v, acc[i][v]);
      }
    }
    return;
  }
  float edge[kMr * kNr] = {};
  for (std::size_t i = 0; i < mr; ++i) {
    for (std::size_t v = 0; v < kNv; ++v) {
      store4(edge + i * kNr + kLanes * v, acc[i][v]);
    }
    std::copy(edge + i * kNr, edge + i * kNr + nr, c + i * ldc);
  }
}

std::size_t round_up(std::size_t x, std::size_t to) {
  return (x + to - 1) / to * to;
}

}  // namespace

void gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
          std::size_t rsa, std::size_t csa, const float* b, std::size_t rsb,
          std::size_t csb, float* c, bool accumulate) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) std::fill(c, c + m * n, 0.0F);
    return;
  }
  // Reused across calls; each thread (a training job) owns its own pair.
  thread_local std::vector<float> packed_a;
  thread_local std::vector<float> packed_b;
  for (std::size_t jc = 0; jc < n; jc += kNc) {
    const std::size_t nc = std::min(kNc, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kKc) {
      const std::size_t kc = std::min(kKc, k - pc);
      // Later k blocks continue the running sums stored in C: a float
      // round-trips through memory exactly, so the blocking does not
      // change the order of additions.
      const bool load = accumulate || pc > 0;
      const std::size_t b_size = round_up(nc, kNr) * kc;
      if (packed_b.size() < b_size) packed_b.resize(b_size);
      for (std::size_t jr = 0; jr < nc; jr += kNr) {
        pack_b(kc, std::min(kNr, nc - jr), b + pc * rsb + (jc + jr) * csb,
               rsb, csb, packed_b.data() + jr * kc);
      }
      for (std::size_t ic = 0; ic < m; ic += kMc) {
        const std::size_t mc = std::min(kMc, m - ic);
        const std::size_t a_size = round_up(mc, kMr) * kc * kLanes;
        if (packed_a.size() < a_size) packed_a.resize(a_size);
        for (std::size_t ir = 0; ir < mc; ir += kMr) {
          pack_a(std::min(kMr, mc - ir), kc, a + (ic + ir) * rsa + pc * csa,
                 rsa, csa, packed_a.data() + ir * kc * kLanes);
        }
        for (std::size_t jr = 0; jr < nc; jr += kNr) {
          for (std::size_t ir = 0; ir < mc; ir += kMr) {
            micro_kernel(kc, packed_a.data() + ir * kc * kLanes,
                         packed_b.data() + jr * kc,
                         c + (ic + ir) * n + jc + jr, n,
                         std::min(kMr, mc - ir), std::min(kNr, nc - jr),
                         load);
          }
        }
      }
    }
  }
}

namespace {
void check_matmul_shapes(const Tensor& a, const Tensor& b, const char* op) {
  if (a.rank() != 2 || b.rank() != 2) {
    throw std::invalid_argument{std::string{op} + ": rank-2 tensors required"};
  }
}
}  // namespace

void matmul_into(const Tensor& a, const Tensor& b, Tensor& c,
                 bool accumulate) {
  check_matmul_shapes(a, b, "matmul");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) throw std::invalid_argument{"matmul: inner dim mismatch"};
  if (c.rank() != 2 || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument{"matmul: output shape mismatch"};
  }
  gemm(m, n, k, a.data(), k, 1, b.data(), n, 1, c.data(), accumulate);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_matmul_shapes(a, b, "matmul");
  Tensor c{{a.dim(0), b.dim(1)}};
  matmul_into(a, b, c);
  return c;
}

Tensor matmul_at(const Tensor& a, const Tensor& b) {
  check_matmul_shapes(a, b, "matmul_at");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) {
    throw std::invalid_argument{"matmul_at: inner dim mismatch"};
  }
  Tensor c{{m, n}};
  gemm(m, n, k, a.data(), 1, m, b.data(), n, 1, c.data(), false);
  return c;
}

Tensor matmul_bt(const Tensor& a, const Tensor& b) {
  check_matmul_shapes(a, b, "matmul_bt");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (b.dim(1) != k) {
    throw std::invalid_argument{"matmul_bt: inner dim mismatch"};
  }
  Tensor c{{m, n}};
  gemm(m, n, k, a.data(), k, 1, b.data(), 1, k, c.data(), false);
  return c;
}

}  // namespace roadrunner::ml

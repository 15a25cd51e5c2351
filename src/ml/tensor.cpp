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

void Tensor::resize(const std::vector<std::size_t>& shape) {
  shape_ = shape;
  data_.resize(shape_volume(shape_));
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

// Cache blocking: a KC x NC packed B panel (256 x 512 floats, 512 KB) is
// reused by every MC-row A block; an MC x KC A block (72 KB, 288 KB in the
// SSE2 build's broadcast form) stays in L2. NC is a multiple of every
// tile width below.
constexpr std::size_t kKc = 256;
constexpr std::size_t kMc = 72;
constexpr std::size_t kNc = 512;
// Every register tile is MR = 6 rows of C, which matches the paper CNN's
// first convolution (6 output channels) exactly.
constexpr std::size_t kMr = 6;

using Vec4 = float __attribute__((vector_size(16)));
using Vec8 = float __attribute__((vector_size(32)));
using Vec16 = float __attribute__((vector_size(64)));

/// Thread-local pack buffers, shared by every kernel build; each thread (a
/// training job) owns its own pair.
float* pack_buffer(bool b_panel, std::size_t size) {
  thread_local std::vector<float> buffers[2];
  std::vector<float>& buffer = buffers[b_panel ? 1 : 0];
  if (buffer.size() < size) buffer.resize(size);
  return buffer.data();
}

std::size_t round_up(std::size_t x, std::size_t to) {
  return (x + to - 1) / to * to;
}

/// The packed GEMM written once for any vector width. The microkernel keeps
/// a kMr x Nr tile of C in kMr * Nr / lanes vectors. ABcast floats are
/// stored per packed A value: a lane count (each value pre-broadcast to a
/// vector, loaded with one instruction where baseline SSE2 has no
/// broadcast load) or 1 (a plain scalar, broadcast in the kernel, so wide
/// tiles keep A panels small).
///
/// Every member is force-inlined into the one entry point per ISA below,
/// which carries the target attribute, so no function outside that code
/// takes or returns a vector and no shared inline function is compiled for
/// a wider ISA than the build's baseline.
template <class Vec, std::size_t Nr, std::size_t ABcast>
struct Kernel {
  static constexpr std::size_t kLanes = sizeof(Vec) / sizeof(float);
  static constexpr std::size_t kNv = Nr / kLanes;
  static_assert(kNv * kLanes == Nr && kNc % Nr == 0);
  static_assert(ABcast == 1 || ABcast == kLanes);

  /// Packs rows [0, mr) x columns [0, kc) of A into one kMr-row panel
  /// stored column by column (kMr * ABcast floats per k step). Rows
  /// mr..kMr are zero.
  [[gnu::always_inline]] static inline void pack_a(std::size_t mr,
                                                   std::size_t kc,
                                                   const float* a,
                                                   std::size_t rsa,
                                                   std::size_t csa,
                                                   float* dst) {
    if (mr < kMr) std::fill(dst, dst + kc * kMr * ABcast, 0.0F);
    for (std::size_t i = 0; i < mr; ++i) {
      const float* row = a + i * rsa;
      for (std::size_t p = 0; p < kc; ++p) {
        std::fill_n(dst + (p * kMr + i) * ABcast, ABcast, row[p * csa]);
      }
    }
  }

  /// Packs rows [0, kc) x columns [0, nr) of B into one Nr-column panel
  /// stored row by row (Nr floats per k step); columns nr..Nr are zero.
  [[gnu::always_inline]] static inline void pack_b(std::size_t kc,
                                                   std::size_t nr,
                                                   const float* b,
                                                   std::size_t rsb,
                                                   std::size_t csb,
                                                   float* dst) {
    if (nr < Nr) std::fill(dst, dst + kc * Nr, 0.0F);
    if (csb == 1 && nr == Nr) {
      for (std::size_t p = 0; p < kc; ++p) {
        std::copy(b + p * rsb, b + p * rsb + Nr, dst + p * Nr);
      }
      return;
    }
    // Transposed B (each column contiguous): move 4 x 4 blocks through
    // registers, four column runs in, four panel rows out. The scalar loop
    // below fills what the blocks leave: the last kc % 4 rows of the
    // blocked columns and every row of the last nr % 4 columns.
    std::size_t p0 = 0;
    const std::size_t j4 = rsb == 1 ? nr / 4 * 4 : 0;
    if (j4 > 0) {
      for (; p0 + 4 <= kc; p0 += 4) {
        for (std::size_t j = 0; j < j4; j += 4) {
          Vec4 r[4];
          for (std::size_t q = 0; q < 4; ++q) {
            std::memcpy(&r[q], b + (j + q) * csb + p0, sizeof(Vec4));
          }
          const Vec4 lo01 = __builtin_shufflevector(r[0], r[1], 0, 4, 1, 5);
          const Vec4 hi01 = __builtin_shufflevector(r[0], r[1], 2, 6, 3, 7);
          const Vec4 lo23 = __builtin_shufflevector(r[2], r[3], 0, 4, 1, 5);
          const Vec4 hi23 = __builtin_shufflevector(r[2], r[3], 2, 6, 3, 7);
          const Vec4 t[4] = {
              __builtin_shufflevector(lo01, lo23, 0, 1, 4, 5),
              __builtin_shufflevector(lo01, lo23, 2, 3, 6, 7),
              __builtin_shufflevector(hi01, hi23, 0, 1, 4, 5),
              __builtin_shufflevector(hi01, hi23, 2, 3, 6, 7)};
          for (std::size_t q = 0; q < 4; ++q) {
            std::memcpy(dst + (p0 + q) * Nr + j, &t[q], sizeof(Vec4));
          }
        }
      }
    }
    for (std::size_t j = 0; j < nr; ++j) {
      const float* col = b + j * csb;
      for (std::size_t p = j < j4 ? p0 : 0; p < kc; ++p) {
        dst[p * Nr + j] = col[p * rsb];
      }
    }
  }

  /// C tile [mr x nr] (row stride ldc) = (load ? C : 0) + sum over
  /// ascending p < kc of A[:, p] * B[p, :], one rounding per multiply and
  /// per add. Each vector lane holds a different C element, so lanes never
  /// mix sums.
  [[gnu::always_inline]] static inline void micro_kernel(
      std::size_t kc, const float* pa, const float* pb, float* c,
      std::size_t ldc, std::size_t mr, std::size_t nr, bool load) {
    Vec acc[kMr][kNv] = {};
    const bool full = mr == kMr && nr == Nr;
    if (load) {
      float edge[kMr * Nr];
      const float* src = c;
      std::size_t ld = ldc;
      if (!full) {
        // Edge tile: go through a zero-padded copy so no load leaves C.
        std::fill(edge, edge + kMr * Nr, 0.0F);
        for (std::size_t i = 0; i < mr; ++i) {
          std::copy(c + i * ldc, c + i * ldc + nr, edge + i * Nr);
        }
        src = edge;
        ld = Nr;
      }
      for (std::size_t i = 0; i < kMr; ++i) {
        for (std::size_t v = 0; v < kNv; ++v) {
          std::memcpy(&acc[i][v], src + i * ld + kLanes * v, sizeof(Vec));
        }
      }
    }
    for (std::size_t p = 0; p < kc; ++p, pa += ABcast * kMr, pb += Nr) {
      Vec b[kNv];
      for (std::size_t v = 0; v < kNv; ++v) {
        std::memcpy(&b[v], pb + kLanes * v, sizeof(Vec));
      }
      for (std::size_t i = 0; i < kMr; ++i) {
        Vec ai;
        if constexpr (ABcast == 1) {
          // Scalar minus a zero vector broadcasts exactly: x - (+0) == x
          // for every x, -0 included (x + (+0) would turn -0 into +0).
          ai = pa[i] - Vec{};
        } else {
          std::memcpy(&ai, pa + kLanes * i, sizeof(Vec));
        }
        for (std::size_t v = 0; v < kNv; ++v) acc[i][v] += ai * b[v];
      }
    }
    float edge[kMr * Nr];
    float* dst = full ? c : edge;
    const std::size_t ld = full ? ldc : Nr;
    for (std::size_t i = 0; i < kMr; ++i) {
      for (std::size_t v = 0; v < kNv; ++v) {
        std::memcpy(dst + i * ld + kLanes * v, &acc[i][v], sizeof(Vec));
      }
    }
    if (full) return;
    for (std::size_t i = 0; i < mr; ++i) {
      std::copy(edge + i * Nr, edge + i * Nr + nr, c + i * ldc);
    }
  }

  /// ml::gemm's contract, for this tile.
  [[gnu::always_inline]] static inline void gemm(
      std::size_t m, std::size_t n, std::size_t k, const float* a,
      std::size_t rsa, std::size_t csa, const float* b, std::size_t rsb,
      std::size_t csb, float* c, bool accumulate) {
    if (m == 0 || n == 0) return;
    if (k == 0) {
      if (!accumulate) std::fill(c, c + m * n, 0.0F);
      return;
    }
    for (std::size_t jc = 0; jc < n; jc += kNc) {
      const std::size_t nc = std::min(kNc, n - jc);
      for (std::size_t pc = 0; pc < k; pc += kKc) {
        const std::size_t kc = std::min(kKc, k - pc);
        // Later k blocks continue the running sums stored in C: a float
        // round-trips through memory exactly, so the blocking does not
        // change the order of additions.
        const bool load = accumulate || pc > 0;
        float* packed_b = pack_buffer(true, round_up(nc, Nr) * kc);
        for (std::size_t jr = 0; jr < nc; jr += Nr) {
          pack_b(kc, std::min(Nr, nc - jr), b + pc * rsb + (jc + jr) * csb,
                 rsb, csb, packed_b + jr * kc);
        }
        for (std::size_t ic = 0; ic < m; ic += kMc) {
          const std::size_t mc = std::min(kMc, m - ic);
          float* packed_a =
              pack_buffer(false, round_up(mc, kMr) * kc * ABcast);
          for (std::size_t ir = 0; ir < mc; ir += kMr) {
            pack_a(std::min(kMr, mc - ir), kc, a + (ic + ir) * rsa + pc * csa,
                   rsa, csa, packed_a + ir * kc * ABcast);
          }
          for (std::size_t jr = 0; jr < nc; jr += Nr) {
            for (std::size_t ir = 0; ir < mc; ir += kMr) {
              micro_kernel(kc, packed_a + ir * kc * ABcast,
                           packed_b + jr * kc, c + (ic + ir) * n + jc + jr, n,
                           std::min(kMr, mc - ir), std::min(Nr, nc - jr),
                           load);
            }
          }
        }
      }
    }
  }
};

// One entry point per ISA. 6 x 8 in SSE2 needs 12 accumulators plus two B
// vectors and one A vector, within baseline x86-64's 16 registers; 6 x 16
// in AVX2 fits the same 16 registers; 6 x 32 in AVX-512F uses 15 of 32.
// The target attributes enable wider vectors only: -ffp-contract=off (root
// CMakeLists.txt) keeps AVX-512F's fused multiply-add out of the code.

void gemm_sse2(std::size_t m, std::size_t n, std::size_t k, const float* a,
               std::size_t rsa, std::size_t csa, const float* b,
               std::size_t rsb, std::size_t csb, float* c, bool accumulate) {
  Kernel<Vec4, 8, 4>::gemm(m, n, k, a, rsa, csa, b, rsb, csb, c, accumulate);
}

#if defined(__x86_64__) || defined(__i386__)
#define RR_GEMM_X86 1

__attribute__((target("avx2"))) void gemm_avx2(
    std::size_t m, std::size_t n, std::size_t k, const float* a,
    std::size_t rsa, std::size_t csa, const float* b, std::size_t rsb,
    std::size_t csb, float* c, bool accumulate) {
  Kernel<Vec8, 16, 1>::gemm(m, n, k, a, rsa, csa, b, rsb, csb, c,
                            accumulate);
}

__attribute__((target("avx512f"))) void gemm_avx512f(
    std::size_t m, std::size_t n, std::size_t k, const float* a,
    std::size_t rsa, std::size_t csa, const float* b, std::size_t rsb,
    std::size_t csb, float* c, bool accumulate) {
  Kernel<Vec16, 32, 1>::gemm(m, n, k, a, rsa, csa, b, rsb, csb, c,
                             accumulate);
}
#endif

/// The calling thread's kernel choice; null means the widest supported.
thread_local const detail::GemmKernel* t_kernel = nullptr;

}  // namespace

namespace detail {

std::span<const GemmKernel> gemm_kernels() {
  static const std::vector<GemmKernel> kernels = [] {
    std::vector<GemmKernel> supported{{"sse2", &gemm_sse2}};
#ifdef RR_GEMM_X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) {
      supported.push_back({"avx2", &gemm_avx2});
    }
    if (__builtin_cpu_supports("avx512f")) {
      supported.push_back({"avx512f", &gemm_avx512f});
    }
#endif
    return supported;
  }();
  return kernels;
}

void use_gemm_kernel(const GemmKernel* kernel) { t_kernel = kernel; }

}  // namespace detail

void gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
          std::size_t rsa, std::size_t csa, const float* b, std::size_t rsb,
          std::size_t csb, float* c, bool accumulate) {
  static const detail::GemmKernel* const widest =
      &detail::gemm_kernels().back();
  const detail::GemmKernel* kernel = t_kernel ? t_kernel : widest;
  kernel->run(m, n, k, a, rsa, csa, b, rsb, csb, c, accumulate);
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

}  // namespace roadrunner::ml

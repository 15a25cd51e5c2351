// Dense float32 tensor: the numeric workhorse of the from-scratch ML
// substrate (DESIGN.md S4). Row-major contiguous storage, value semantics.
//
// Design notes:
//  * float32 matches what the paper's PyTorch models use and halves memory
//    versus double; all learning-relevant tolerances in tests account for it.
//  * Shapes are small vectors of dimensions; rank is never larger than 4 in
//    practice ([N, C, H, W]).
//  * Ops that allocate return new tensors; in-place ops are suffixed `_`.
//  * resize() reshapes in place and keeps the storage, so a buffer that is
//    reused across calls (the layers' outputs) allocates only when it grows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace roadrunner::ml {

class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(std::vector<std::size_t> shape);

  /// Tensor with explicit contents; data.size() must equal the shape volume.
  Tensor(std::vector<std::size_t> shape, std::vector<float> data);

  static Tensor full(std::vector<std::size_t> shape, float value);

  [[nodiscard]] const std::vector<std::size_t>& shape() const {
    return shape_;
  }
  [[nodiscard]] std::size_t rank() const { return shape_.size(); }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  /// Dimension i; throws std::out_of_range if i >= rank().
  [[nodiscard]] std::size_t dim(std::size_t i) const;

  [[nodiscard]] float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }
  [[nodiscard]] std::span<float> values() { return data_; }
  [[nodiscard]] std::span<const float> values() const { return data_; }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// Bounds-checked flat access.
  [[nodiscard]] float& at(std::size_t i);
  [[nodiscard]] float at(std::size_t i) const;

  /// Multi-index access for rank 2/3/4 (unchecked in release builds beyond
  /// the flat bound; primarily for tests and clarity in layer code).
  [[nodiscard]] float& at2(std::size_t i, std::size_t j);
  [[nodiscard]] float at2(std::size_t i, std::size_t j) const;
  [[nodiscard]] float& at4(std::size_t a, std::size_t b, std::size_t c,
                           std::size_t d);
  [[nodiscard]] float at4(std::size_t a, std::size_t b, std::size_t c,
                          std::size_t d) const;

  /// Returns a tensor with the same data but a new shape of equal volume.
  [[nodiscard]] Tensor reshaped(std::vector<std::size_t> shape) const;

  /// Gives the tensor `shape`, keeping its storage: nothing is allocated
  /// while the volume fits the capacity. Elements below the old size keep
  /// their stale values and new ones are zero, so callers overwrite or
  /// fill() what they read. An empty shape leaves an empty tensor.
  void resize(const std::vector<std::size_t>& shape);

  void fill(float value);

  // In-place arithmetic (shapes must match exactly for tensor operands).
  Tensor& add_(const Tensor& other);
  Tensor& sub_(const Tensor& other);
  Tensor& mul_(float scalar);
  /// this += scalar * other (axpy).
  Tensor& add_scaled_(const Tensor& other, float scalar);

  [[nodiscard]] Tensor operator+(const Tensor& other) const;
  [[nodiscard]] Tensor operator-(const Tensor& other) const;
  [[nodiscard]] Tensor operator*(float scalar) const;

  [[nodiscard]] double sum() const;
  [[nodiscard]] float max() const;
  [[nodiscard]] float min() const;
  /// Euclidean norm (accumulated in double).
  [[nodiscard]] double norm() const;

  [[nodiscard]] bool same_shape(const Tensor& other) const {
    return shape_ == other.shape_;
  }

  /// "[2x3x4]" — for diagnostics.
  [[nodiscard]] std::string shape_string() const;

  friend bool operator==(const Tensor& a, const Tensor& b) {
    return a.shape_ == b.shape_ && a.data_ == b.data_;
  }

 private:
  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

/// Volume of a shape (product of dims; empty shape has volume 0).
std::size_t shape_volume(const std::vector<std::size_t>& shape);

/// The one matrix-product kernel behind every function below:
/// C[M,N] (row-major, row stride N) = A[M,K] * B[K,N], or C += A * B when
/// `accumulate` is set. A's element (i, p) is read at a[i*rsa + p*csa] and
/// B's (p, j) at b[p*rsb + j*csb], so a transposed operand is passed by
/// swapping its strides instead of being copied. C must not overlap A or B.
///
/// Operands are packed into MR-row and NR-column panels (thread-local,
/// reused buffers) and multiplied by a register-tiled SIMD microkernel,
/// built for SSE2, AVX2 and AVX-512F and chosen once at run time: the
/// widest the host supports.
/// Bit-identity contract: every C element is the float sum, in ascending
/// p, of A(i,p) * B(p,j), starting from +0 (or from C when accumulating),
/// with one rounding per multiply and per add. Only independent C elements
/// share a vector, so the result equals the plain i-k-j loop's bit for bit
/// on every host (tests/ml_gemm_test.cpp holds that loop as the oracle;
/// DESIGN.md S4).
void gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
          std::size_t rsa, std::size_t csa, const float* b, std::size_t rsb,
          std::size_t csb, float* c, bool accumulate);

namespace detail {

/// One ISA build of gemm, with gemm's arguments and contract.
struct GemmKernel {
  const char* name;  // "sse2", "avx2" or "avx512f"
  void (*run)(std::size_t m, std::size_t n, std::size_t k, const float* a,
              std::size_t rsa, std::size_t csa, const float* b,
              std::size_t rsb, std::size_t csb, float* c, bool accumulate);
};

/// The builds this host can run, narrowest first; gemm uses the last.
std::span<const GemmKernel> gemm_kernels();

/// Routes the calling thread's gemm calls through `kernel` (one of
/// gemm_kernels()); nullptr restores the automatic choice. For tests that
/// run the layers on every build.
void use_gemm_kernel(const GemmKernel* kernel);

}  // namespace detail

/// C[M,N] = A[M,K] * B[K,N] via gemm. Throws std::invalid_argument on
/// shape mismatch.
Tensor matmul(const Tensor& a, const Tensor& b);

/// C[M,N] += A[M,K] * B[K,N], writing into an existing output tensor.
void matmul_into(const Tensor& a, const Tensor& b, Tensor& c,
                 bool accumulate = false);

}  // namespace roadrunner::ml

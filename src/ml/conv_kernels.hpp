// Direct convolution kernels behind Conv2D (DESIGN.md S4 decision 7).
//
// The three passes of a convolution read the image, the weights and the
// output gradient where they lie: there is no im2col column buffer and no
// packed image panel. Each kernel is written once for any vector width and
// built for SSE2, AVX2 and AVX-512F, chosen once at run time like ml::gemm.
//
// Bit-identity contract (the one gemm keeps, applied to the products an
// im2col + gemm convolution forms): with q = (ci, ki, kj) the im2col row
// and p = (oi, oj) the output position,
//  * forward: y[c, p] = (sum over ascending q of W[c, q] * X[q, p], from
//    +0) + b[c], where X[q, p] is the input pixel under tap q at p, or 0
//    in the zero padding;
//  * weight gradient: each sample's dW partial is the sum over ascending p
//    of go[c, p] * X[q, p] from +0, the partials are added into a zeroed
//    sum in sample order, and dW gains that sum in one add; db[c] gains each sample's sum over
//    ascending p of go[c, p], from +0, in sample order;
//  * input gradient: each input cell starts at +0 and adds, in ascending
//    q, d[q, p] = sum over ascending c of W[c, q] * go[c, p] from +0, for
//    every (q, p) that reads it; cells in the padding are dropped.
// One rounding per multiply and per add. Only independent outputs share a
// vector, so every build gives the bits of the plain loops
// (Isa/ConvKernelOracle in tests/ml_gemm_test.cpp holds the per-sample
// im2col + matmul convolution as the oracle).
#pragma once

#include <cstddef>
#include <span>

namespace roadrunner::ml {

/// Geometry of one Conv2D call: input [Cin, H, W] per sample, kernel
/// [Cout, Cin, K, K], output [Cout, OH, OW].
struct ConvShape {
  std::size_t cin, cout, k, stride, pad, h, w, oh, ow;
};

/// Fills in OH and OW; throws std::invalid_argument if the padded input is
/// smaller than the kernel.
ConvShape conv_shape(std::size_t cin, std::size_t cout, std::size_t k,
                     std::size_t stride, std::size_t pad, std::size_t h,
                     std::size_t w);

/// y [N, Cout, OH, OW] = conv(x [N, Cin, H, W], w [Cout, Cin*K*K]) + b.
void conv_forward(const ConvShape& g, std::size_t n, const float* x,
                  const float* w, const float* b, float* y);

/// dw [Cout, Cin*K*K] += the sum, from +0 in sample order, of the
/// per-sample weight gradients; db [Cout] += each sample's bias gradient,
/// in sample order.
void conv_weight_grad(const ConvShape& g, std::size_t n, const float* x,
                      const float* go, float* dw, float* db);

/// dx [N, Cin, H, W] = the input gradient of go [N, Cout, OH, OW]; dx is
/// overwritten.
void conv_input_grad(const ConvShape& g, std::size_t n, const float* w,
                     const float* go, float* dx);

namespace detail {

/// One ISA build of the three kernels, with their arguments and contract.
struct ConvKernel {
  const char* name;  // "sse2", "avx2" or "avx512f", as for gemm
  void (*forward)(const ConvShape& g, std::size_t n, const float* x,
                  const float* w, const float* b, float* y);
  void (*weight_grad)(const ConvShape& g, std::size_t n, const float* x,
                      const float* go, float* dw, float* db);
  void (*input_grad)(const ConvShape& g, std::size_t n, const float* w,
                     const float* go, float* dx);
};

/// The builds this host can run, narrowest first; the conv_* functions
/// use the last.
std::span<const ConvKernel> conv_kernels();

/// Routes the calling thread's conv_* calls through `kernel` (one of
/// conv_kernels()); nullptr restores the automatic choice. For tests.
void use_conv_kernel(const ConvKernel* kernel);

}  // namespace detail
}  // namespace roadrunner::ml

// Bitwise oracle for the packed GEMM kernel (ml::gemm), the direct
// convolution kernels (ml/conv_kernels.hpp) and the layers built on them.
// The reference implementations below are the plain loops the kernels
// replaced, kept verbatim: i-k-j for matmul, k-i-j for A stored [k,m] and
// a scalar dot product for B stored [n,k], plus the per-sample im2col
// Conv2D (with its col2im_add input gradient) and the Linear layer written
// on top of them. The kernels promise the same float operations in the
// same order, so every comparison here is memcmp equality, never a
// tolerance. The plain TESTs run the builds the host dispatches to; the
// Isa/GemmKernelOracle and Isa/ConvKernelOracle suites run every build
// (SSE2, AVX2, AVX-512F) the host supports and skip the others.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "ml/conv_kernels.hpp"
#include "ml/layers.hpp"
#include "ml/tensor.hpp"
#include "util/rng.hpp"

namespace roadrunner::ml {
namespace {

// ---- reference loops (the pre-kernel implementation) ----------------------

void ref_matmul_into(const Tensor& a, const Tensor& b, Tensor& c,
                     bool accumulate) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  if (!accumulate) std::fill(pc, pc + m * n, 0.0F);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = pa[i * k + kk];
      const float* brow = pb + kk * n;
      float* crow = pc + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

Tensor ref_matmul(const Tensor& a, const Tensor& b) {
  Tensor c{{a.dim(0), b.dim(1)}};
  ref_matmul_into(a, b, c, false);
  return c;
}

Tensor ref_matmul_at(const Tensor& a, const Tensor& b) {
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  Tensor c{{m, n}};
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* arow = pa + kk * m;
    const float* brow = pb + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float aki = arow[i];
      float* crow = pc + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aki * brow[j];
    }
  }
  return c;
}

Tensor ref_matmul_bt(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor c{{m, n}};
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      float acc = 0.0F;
      for (std::size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      pc[i * n + j] = acc;
    }
  }
  return c;
}

// ---- helpers ----------------------------------------------------------------

::testing::AssertionResult bitwise_equal(const Tensor& got,
                                         const Tensor& want) {
  if (got.shape() != want.shape()) {
    return ::testing::AssertionFailure()
           << "shape " << got.shape_string() << " vs "
           << want.shape_string();
  }
  if (std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) !=
      0) {
    std::size_t i = 0;
    while (std::memcmp(got.data() + i, want.data() + i, sizeof(float)) == 0) {
      ++i;
    }
    return ::testing::AssertionFailure()
           << "first difference at flat index " << i << ": " << got[i]
           << " vs " << want[i];
  }
  return ::testing::AssertionSuccess();
}

Tensor random_tensor(std::vector<std::size_t> shape, util::Rng& rng) {
  Tensor t{std::move(shape)};
  for (float& v : t.values()) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  return t;
}

Tensor transposed(const Tensor& t) {
  Tensor out{{t.dim(1), t.dim(0)}};
  for (std::size_t i = 0; i < t.dim(0); ++i) {
    for (std::size_t j = 0; j < t.dim(1); ++j) out.at2(j, i) = t.at2(i, j);
  }
  return out;
}

/// Checks every entry point at one (m, n, k): the two Tensor wrappers and
/// raw gemm over all four operand layouts, with and without accumulate.
void check_shape(std::size_t m, std::size_t n, std::size_t k,
                 std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n << " k=" << k);
  util::Rng rng{seed};
  const Tensor a = random_tensor({m, k}, rng);
  const Tensor b = random_tensor({k, n}, rng);
  const Tensor c0 = random_tensor({m, n}, rng);
  const Tensor a_t = transposed(a);
  const Tensor b_t = transposed(b);

  const Tensor want = ref_matmul(a, b);
  EXPECT_TRUE(bitwise_equal(matmul(a, b), want));
  // The transposed references agree with it bit for bit, so the gemm
  // layouts below are held to each of them.
  EXPECT_TRUE(bitwise_equal(ref_matmul_at(a_t, b), want));
  EXPECT_TRUE(bitwise_equal(ref_matmul_bt(a, b_t), want));

  Tensor want_acc = c0;
  ref_matmul_into(a, b, want_acc, true);
  for (const bool accumulate : {false, true}) {
    const Tensor& expect = accumulate ? want_acc : want;
    Tensor got = c0;
    matmul_into(a, b, got, accumulate);
    EXPECT_TRUE(bitwise_equal(got, expect)) << "matmul_into " << accumulate;
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        Tensor out = c0;
        gemm(m, n, k, ta ? a_t.data() : a.data(), ta ? 1 : k, ta ? m : 1,
             tb ? b_t.data() : b.data(), tb ? 1 : n, tb ? k : 1, out.data(),
             accumulate);
        EXPECT_TRUE(bitwise_equal(out, expect))
            << "gemm ta=" << ta << " tb=" << tb << " acc=" << accumulate;
      }
    }
  }
}

// The SSE2 build's register tile (src/ml/tensor.cpp). The edge sizes below
// sit on both sides of each tile boundary.
constexpr std::size_t kMr = 6;
constexpr std::size_t kNr = 8;

void tile_edge_shapes() {
  const std::size_t dims[] = {1,       kMr - 1, kMr,        kMr + 1,
                              kNr - 1, kNr + 1, 2 * kNr + 3};
  std::uint64_t seed = 0;
  for (const std::size_t m : dims) {
    for (const std::size_t n : dims) {
      for (const std::size_t k : dims) check_shape(m, n, k, ++seed);
    }
  }
}

void cache_block_edges() {
  // Cross the MC (72), NC (512) and KC (256) cache blocks, so later k
  // blocks resume the partial sums stored in C.
  check_shape(77, 515, 300, 1);
  check_shape(129, 9, 513, 2);
}

void paper_cnn_shapes() {
  // Batch 16, 3x32x32 input: conv1 6x75 * 75x784, conv2 16x150 * 150x100,
  // then Linear 400->120->84->10; each with its backward-pass transposes.
  const std::tuple<std::size_t, std::size_t, std::size_t> shapes[] = {
      {6, 784, 75},    {6, 75, 784},   {75, 784, 6},   {16, 100, 150},
      {16, 150, 100},  {150, 100, 16}, {16, 120, 400}, {120, 400, 16},
      {16, 400, 120},  {16, 84, 120},  {84, 120, 16},  {16, 120, 84},
      {16, 10, 84},    {10, 84, 16},   {16, 84, 10}};
  std::uint64_t seed = 100;
  for (const auto& [m, n, k] : shapes) check_shape(m, n, k, ++seed);
}

void mlp_shapes() {
  // make_mlp(24, 128, 10) at batch 16: the campaign MLP on 24-d blobs.
  const std::tuple<std::size_t, std::size_t, std::size_t> shapes[] = {
      {16, 128, 24},  {128, 24, 16}, {16, 24, 128}, {16, 128, 128},
      {128, 128, 16}, {16, 10, 128}, {10, 128, 16}, {16, 128, 10}};
  std::uint64_t seed = 200;
  for (const auto& [m, n, k] : shapes) check_shape(m, n, k, ++seed);
}

TEST(GemmOracle, TileEdgeShapes) { tile_edge_shapes(); }
TEST(GemmOracle, CacheBlockEdges) { cache_block_edges(); }
TEST(GemmOracle, PaperCnnShapes) { paper_cnn_shapes(); }
TEST(GemmOracle, MlpShapes) { mlp_shapes(); }

TEST(GemmOracle, SignedZeroAndEmptyInnerDim) {
  // Every product is -0: the sum starts from +0, so the result is +0.
  Tensor a{{2, 3}, {-0.0F, -0.0F, -0.0F, -1.0F, -2.0F, -3.0F}};
  Tensor b{{3, 9}};
  for (std::size_t i = 0; i < 27; ++i) b[i] = i % 2 == 0 ? 0.0F : 1.0F;
  EXPECT_TRUE(bitwise_equal(matmul(a, b), ref_matmul(a, b)));
  EXPECT_FALSE(std::signbit(matmul(a, b)[0]));

  // K = 0: the product is all zeros, or C untouched when accumulating.
  Tensor c{{2, 3}, {1, 2, 3, 4, 5, 6}};
  gemm(2, 3, 0, nullptr, 0, 1, nullptr, 3, 1, c.data(), true);
  EXPECT_EQ(c[5], 6.0F);
  gemm(2, 3, 0, nullptr, 0, 1, nullptr, 3, 1, c.data(), false);
  EXPECT_TRUE(bitwise_equal(c, Tensor{{2, 3}}));
}

// ---- layer oracles ----------------------------------------------------------

struct ConvGeometry {
  std::size_t h, w, k, stride, pad, oh, ow;
};

void ref_im2col(const float* x, std::size_t cin, const ConvGeometry& g,
                float* cols) {
  const std::size_t out_hw = g.oh * g.ow;
  std::size_t row = 0;
  for (std::size_t c = 0; c < cin; ++c) {
    const float* plane = x + c * g.h * g.w;
    for (std::size_t ki = 0; ki < g.k; ++ki) {
      for (std::size_t kj = 0; kj < g.k; ++kj, ++row) {
        float* dst = cols + row * out_hw;
        for (std::size_t oi = 0; oi < g.oh; ++oi) {
          const std::ptrdiff_t ii =
              static_cast<std::ptrdiff_t>(oi * g.stride + ki) -
              static_cast<std::ptrdiff_t>(g.pad);
          for (std::size_t oj = 0; oj < g.ow; ++oj) {
            const std::ptrdiff_t jj =
                static_cast<std::ptrdiff_t>(oj * g.stride + kj) -
                static_cast<std::ptrdiff_t>(g.pad);
            const bool inside = ii >= 0 && jj >= 0 &&
                                ii < static_cast<std::ptrdiff_t>(g.h) &&
                                jj < static_cast<std::ptrdiff_t>(g.w);
            dst[oi * g.ow + oj] =
                inside ? plane[static_cast<std::size_t>(ii) * g.w +
                               static_cast<std::size_t>(jj)]
                       : 0.0F;
          }
        }
      }
    }
  }
}

void ref_col2im_add(const float* cols, std::size_t cin, const ConvGeometry& g,
                    float* dx) {
  const std::size_t out_hw = g.oh * g.ow;
  std::size_t row = 0;
  for (std::size_t c = 0; c < cin; ++c) {
    float* plane = dx + c * g.h * g.w;
    for (std::size_t ki = 0; ki < g.k; ++ki) {
      for (std::size_t kj = 0; kj < g.k; ++kj, ++row) {
        const float* src = cols + row * out_hw;
        for (std::size_t oi = 0; oi < g.oh; ++oi) {
          const std::ptrdiff_t ii =
              static_cast<std::ptrdiff_t>(oi * g.stride + ki) -
              static_cast<std::ptrdiff_t>(g.pad);
          if (ii < 0 || ii >= static_cast<std::ptrdiff_t>(g.h)) continue;
          for (std::size_t oj = 0; oj < g.ow; ++oj) {
            const std::ptrdiff_t jj =
                static_cast<std::ptrdiff_t>(oj * g.stride + kj) -
                static_cast<std::ptrdiff_t>(g.pad);
            if (jj < 0 || jj >= static_cast<std::ptrdiff_t>(g.w)) continue;
            plane[static_cast<std::size_t>(ii) * g.w +
                  static_cast<std::size_t>(jj)] += src[oi * g.ow + oj];
          }
        }
      }
    }
  }
}

/// The pre-kernel Conv2D: per-sample im2col, a matmul per sample, the
/// per-sample dW partial added into dw2d, then dw2d added into dW.
struct RefConv {
  std::size_t cin, cout, k, stride, pad;
  Tensor w, b, dw, db, x;

  ConvGeometry geometry(std::size_t h, std::size_t wd) const {
    return {h,      wd,   k,
            stride, pad,  (h + 2 * pad - k) / stride + 1,
            (wd + 2 * pad - k) / stride + 1};
  }

  Tensor forward(const Tensor& input) {
    x = input;
    const std::size_t n = x.dim(0), h = x.dim(2), wd = x.dim(3);
    const ConvGeometry g = geometry(h, wd);
    const std::size_t out_hw = g.oh * g.ow, ckk = cin * k * k;
    Tensor y{{n, cout, g.oh, g.ow}};
    Tensor cols{{ckk, out_hw}};
    Tensor w2d = w.reshaped({cout, ckk});
    Tensor out2d{{cout, out_hw}};
    for (std::size_t s = 0; s < n; ++s) {
      ref_im2col(x.data() + s * cin * h * wd, cin, g, cols.data());
      ref_matmul_into(w2d, cols, out2d, false);
      float* dst = y.data() + s * cout * out_hw;
      for (std::size_t c = 0; c < cout; ++c) {
        for (std::size_t p = 0; p < out_hw; ++p) {
          dst[c * out_hw + p] = out2d[c * out_hw + p] + b[c];
        }
      }
    }
    return y;
  }

  Tensor backward(const Tensor& grad_out) {
    const std::size_t n = x.dim(0), h = x.dim(2), wd = x.dim(3);
    const ConvGeometry g = geometry(h, wd);
    const std::size_t out_hw = g.oh * g.ow, ckk = cin * k * k;
    Tensor dx{x.shape()};
    Tensor cols{{ckk, out_hw}};
    Tensor w2d = w.reshaped({cout, ckk});
    Tensor dw2d{{cout, ckk}};
    for (std::size_t s = 0; s < n; ++s) {
      const float* go = grad_out.data() + s * cout * out_hw;
      for (std::size_t c = 0; c < cout; ++c) {
        float acc = 0.0F;
        for (std::size_t p = 0; p < out_hw; ++p) acc += go[c * out_hw + p];
        db[c] += acc;
      }
      ref_im2col(x.data() + s * cin * h * wd, cin, g, cols.data());
      Tensor go_t{{cout, out_hw}, std::vector<float>(go, go + cout * out_hw)};
      dw2d.add_(ref_matmul_bt(go_t, cols));
      const Tensor dcols = ref_matmul_at(w2d, go_t);
      ref_col2im_add(dcols.data(), cin, g, dx.data() + s * cin * h * wd);
    }
    dw.add_(dw2d.reshaped(dw.shape()));
    return dx;
  }
};

/// The pre-kernel Linear: y = x W^T + b, dW += go^T x, dX = go W.
struct RefLinear {
  Tensor w, b, dw, db, x;

  Tensor forward(const Tensor& input) {
    x = input;
    Tensor y = ref_matmul_bt(x, w);
    for (std::size_t i = 0; i < y.dim(0); ++i) {
      for (std::size_t j = 0; j < y.dim(1); ++j) y.at2(i, j) += b[j];
    }
    return y;
  }

  Tensor backward(const Tensor& grad_out) {
    dw.add_(ref_matmul_at(grad_out, x));
    for (std::size_t i = 0; i < grad_out.dim(0); ++i) {
      for (std::size_t j = 0; j < grad_out.dim(1); ++j) {
        db[j] += grad_out.at2(i, j);
      }
    }
    return ref_matmul(grad_out, w);
  }
};

/// Runs forward/backward twice without zeroing gradients, so the order in
/// which dW and db accumulate across calls is pinned too.
template <typename Ref>
void check_layer(Layer& layer, Ref& ref, const std::vector<std::size_t>& in,
                 util::Rng& rng) {
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(::testing::Message() << "pass " << pass);
    const Tensor x = random_tensor(in, rng);
    const Tensor y = layer.forward(x);
    ASSERT_TRUE(bitwise_equal(y, ref.forward(x)));
    const Tensor go = random_tensor(y.shape(), rng);
    EXPECT_TRUE(bitwise_equal(layer.backward(go), ref.backward(go)));
    EXPECT_TRUE(bitwise_equal(*layer.grads()[0], ref.dw));
    EXPECT_TRUE(bitwise_equal(*layer.grads()[1], ref.db));
  }
}

class ConvOracle : public ::testing::TestWithParam<
                       std::tuple<std::size_t, std::size_t>> {};

void conv_oracle(std::size_t stride, std::size_t pad) {
  SCOPED_TRACE(::testing::Message() << "stride " << stride << " pad " << pad);
  util::Rng rng{10 + stride * 7 + pad};
  // The paper CNN's two convolutions, on a batch that is not a tile
  // multiple, plus a small odd-sized one.
  const std::tuple<std::size_t, std::size_t, std::size_t, std::size_t>
      configs[] = {{3, 6, 5, 32}, {6, 16, 5, 14}, {2, 5, 3, 9}};
  for (const auto& [cin, cout, k, side] : configs) {
    SCOPED_TRACE(::testing::Message() << cin << "->" << cout << " k" << k);
    Conv2D conv{cin, cout, k, stride, pad};
    conv.init_params(rng);
    for (float& v : conv.params()[1]->values()) {
      v = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    RefConv ref{cin,
                cout,
                k,
                stride,
                pad,
                *conv.params()[0],
                *conv.params()[1],
                Tensor{conv.params()[0]->shape()},
                Tensor{{cout}},
                {}};
    check_layer(conv, ref, {5, cin, side, side}, rng);
  }
}

TEST_P(ConvOracle, MatchesPerSampleReferenceBitwise) {
  const auto [stride, pad] = GetParam();
  conv_oracle(stride, pad);
}

INSTANTIATE_TEST_SUITE_P(StridePadding, ConvOracle,
                         ::testing::Combine(::testing::Values(1, 2),
                                            ::testing::Values(0, 2)));

void linear_oracle() {
  util::Rng rng{20};
  // Paper CNN head and campaign MLP layers, at batch 16 and an odd batch.
  const std::tuple<std::size_t, std::size_t, std::size_t> configs[] = {
      {16, 400, 120}, {16, 120, 84}, {16, 84, 10},
      {16, 24, 128},  {16, 128, 128}, {7, 13, 9}};
  for (const auto& [batch, in, out] : configs) {
    SCOPED_TRACE(::testing::Message() << in << "->" << out);
    Linear lin{in, out};
    lin.init_params(rng);
    for (float& v : lin.params()[1]->values()) {
      v = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    RefLinear ref{*lin.params()[0], *lin.params()[1], Tensor{{out, in}},
                  Tensor{{out}}, {}};
    check_layer(lin, ref, {batch, in}, rng);
  }
}

TEST(LinearOracle, MatchesReferenceBitwise) { linear_oracle(); }

// ---- every kernel build the host supports ---------------------------------

/// Routes this thread's gemm calls through the build named by the
/// parameter for the test's duration; skips a build the host cannot run.
class GemmKernelOracle : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    for (const detail::GemmKernel& kernel : detail::gemm_kernels()) {
      if (std::strcmp(kernel.name, GetParam()) == 0) {
        detail::use_gemm_kernel(&kernel);
        return;
      }
    }
    GTEST_SKIP() << "this host cannot run the " << GetParam() << " kernel";
  }
  void TearDown() override { detail::use_gemm_kernel(nullptr); }
};

TEST_P(GemmKernelOracle, TileEdgeShapes) { tile_edge_shapes(); }
TEST_P(GemmKernelOracle, CacheBlockEdges) { cache_block_edges(); }
TEST_P(GemmKernelOracle, PaperCnnShapes) { paper_cnn_shapes(); }
TEST_P(GemmKernelOracle, MlpShapes) { mlp_shapes(); }

TEST_P(GemmKernelOracle, WideTileEdgeShapes) {
  // Both sides of the AVX2 (6 x 16) and AVX-512F (6 x 32) tile widths, the
  // 4 x 4 transposing B pack and the KC (256) block, in every operand
  // layout check_shape covers.
  std::uint64_t seed = 300;
  for (const std::size_t n : {1, 15, 16, 17, 31, 32, 33, 784}) {
    for (const std::size_t m : {1, 5, 6, 7, 13}) {
      for (const std::size_t k : {1, 6, 255, 256, 257}) {
        check_shape(m, n, k, ++seed);
      }
    }
  }
}

TEST_P(GemmKernelOracle, SignedZeroProducts) {
  // A wide tile broadcasts each packed A value in the kernel; a -0 in A
  // must stay -0 there, or -0 * +x would become +0. Only products of -0
  // keep a sum at -0 when C starts at -0.
  for (const std::size_t n : {8, 16, 32, 33}) {
    Tensor a{{7, 2}};
    for (float& v : a.values()) v = -0.0F;
    Tensor b{{2, n}};
    for (float& v : b.values()) v = 1.0F;
    Tensor c{{7, n}};
    for (float& v : c.values()) v = -0.0F;
    Tensor want = c;
    ref_matmul_into(a, b, want, true);
    matmul_into(a, b, c, true);
    EXPECT_TRUE(bitwise_equal(c, want)) << "n=" << n;
    EXPECT_TRUE(std::signbit(c[0]));
  }
}

TEST_P(GemmKernelOracle, ConvMatchesPerSampleReference) {
  for (const std::size_t stride : {1, 2}) {
    for (const std::size_t pad : {0, 2}) conv_oracle(stride, pad);
  }
}

TEST_P(GemmKernelOracle, LinearMatchesReference) { linear_oracle(); }

INSTANTIATE_TEST_SUITE_P(Isa, GemmKernelOracle,
                         ::testing::Values("sse2", "avx2", "avx512f"),
                         [](const auto& info) {
                           return std::string{info.param};
                         });

TEST(GemmKernels, BaselineIsAlwaysListedFirst) {
  const auto kernels = detail::gemm_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.front().name, "sse2");
}

// ---- direct convolution kernels, every build -------------------------------

/// Routes this thread's Conv2D kernels through the build named by the
/// parameter for the test's duration; skips a build the host cannot run.
class ConvKernelOracle : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    for (const detail::ConvKernel& kernel : detail::conv_kernels()) {
      if (std::strcmp(kernel.name, GetParam()) == 0) {
        detail::use_conv_kernel(&kernel);
        return;
      }
    }
    GTEST_SKIP() << "this host cannot run the " << GetParam() << " kernel";
  }
  void TearDown() override { detail::use_conv_kernel(nullptr); }
};

struct ConvCase {
  std::size_t batch, cin, cout, k, stride, pad, h, w;
};

/// Overwrites about one value in `every` with NaN, -0, +0 or a denormal
/// (one NaN bit pattern only: which of two NaN operands an add keeps is
/// not part of the contract).
void sprinkle_specials(Tensor& t, std::size_t every, util::Rng& rng) {
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(), -0.0F,
                            0.0F, std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min() * 3};
  for (float& v : t.values()) {
    if (rng.next_below(every) == 0) v = specials[rng.next_below(5)];
  }
}

/// Forward, weight gradient and input gradient of one geometry through the
/// Conv2D layer, twice without zeroing, memcmp-compared with RefConv.
void conv_kernel_case(const ConvCase& c, std::size_t every) {
  SCOPED_TRACE(::testing::Message()
               << "batch " << c.batch << " " << c.cin << "->" << c.cout
               << " k" << c.k << " stride " << c.stride << " pad " << c.pad
               << " " << c.h << "x" << c.w << " specials 1/" << every);
  util::Rng rng{c.batch * 1000 + c.cout * 37 + c.w * 7 + c.stride + c.pad};
  Conv2D conv{c.cin, c.cout, c.k, c.stride, c.pad};
  Tensor& w = *conv.params()[0];
  Tensor& b = *conv.params()[1];
  w = random_tensor(w.shape(), rng);
  b = random_tensor(b.shape(), rng);
  if (every > 0) {
    sprinkle_specials(w, every, rng);
    sprinkle_specials(b, every, rng);
  }
  RefConv ref{c.cin, c.cout, c.k, c.stride, c.pad, w, b,
              Tensor{w.shape()}, Tensor{b.shape()}, {}};
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(::testing::Message() << "pass " << pass);
    Tensor x = random_tensor({c.batch, c.cin, c.h, c.w}, rng);
    if (every > 0) sprinkle_specials(x, every, rng);
    const Tensor y = conv.forward(x);
    ASSERT_TRUE(bitwise_equal(y, ref.forward(x)));
    Tensor go = random_tensor(y.shape(), rng);
    if (every > 0) sprinkle_specials(go, every, rng);
    EXPECT_TRUE(bitwise_equal(conv.backward(go), ref.backward(go)));
    EXPECT_TRUE(bitwise_equal(*conv.grads()[0], ref.dw));
    EXPECT_TRUE(bitwise_equal(*conv.grads()[1], ref.db));
  }
}

TEST_P(ConvKernelOracle, PaperCnnLayers) {
  // conv1 and conv2 of the paper CNN at the batch sizes training (16, a
  // short last batch) and evaluation (64) use.
  for (const std::size_t batch : {1, 16, 64}) {
    conv_kernel_case({batch, 3, 6, 5, 1, 0, 32, 32}, 0);
    conv_kernel_case({batch, 6, 16, 5, 1, 0, 14, 14}, 0);
  }
}

TEST_P(ConvKernelOracle, OutputChannelsAroundTheLanes) {
  // 1, 6, 16 and 17 output channels: a partial, an exact and a spilled
  // channel group for every vector width.
  for (const std::size_t cout : {1, 6, 16, 17}) {
    conv_kernel_case({3, 2, cout, 3, 1, 0, 9, 11}, 0);
    conv_kernel_case({2, 3, cout, 5, 1, 0, 12, 12}, 0);
  }
}

TEST_P(ConvKernelOracle, WidthsOffTheVectorWidth) {
  // Output widths 1, 3, 5, 7, 9, 15, 17 and 33: below, between and above
  // 4, 8 and 16 lanes; tall and flat planes for the row tiles.
  for (const std::size_t ow : {1, 3, 5, 7, 9, 15, 17, 33}) {
    conv_kernel_case({2, 2, 5, 3, 1, 0, 6, ow + 2}, 0);
  }
  conv_kernel_case({2, 1, 3, 2, 1, 0, 2, 40}, 0);
  conv_kernel_case({2, 1, 3, 2, 1, 0, 23, 3}, 0);
}

TEST_P(ConvKernelOracle, StrideAndPadding) {
  for (const std::size_t stride : {1, 2, 3}) {
    for (const std::size_t pad : {0, 1, 2}) {
      conv_kernel_case({3, 3, 6, 5, stride, pad, 14, 13}, 0);
      conv_kernel_case({2, 2, 17, 3, stride, pad, 9, 20}, 0);
    }
  }
}

TEST_P(ConvKernelOracle, NanSignedZeroAndDenormals) {
  // Specials in the image, the weights, the bias and the gradient; with
  // padding, a NaN weight times a padded zero must still reach the sums.
  conv_kernel_case({16, 3, 6, 5, 1, 0, 32, 32}, 7);
  conv_kernel_case({4, 6, 16, 5, 1, 0, 14, 14}, 5);
  conv_kernel_case({3, 2, 17, 3, 2, 1, 11, 10}, 4);
  conv_kernel_case({3, 2, 5, 3, 1, 2, 9, 9}, 3);
}

INSTANTIATE_TEST_SUITE_P(Isa, ConvKernelOracle,
                         ::testing::Values("sse2", "avx2", "avx512f"),
                         [](const auto& info) {
                           return std::string{info.param};
                         });

TEST(ConvKernels, BaselineIsAlwaysListedFirst) {
  const auto kernels = detail::conv_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.front().name, "sse2");
}

// ---- MaxPool2D forward ------------------------------------------------------

TEST(MaxPoolOracle, ForwardMatchesBranchyLoopBitwise) {
  // The old forward: scan the 2x2 window in row order and take a candidate
  // only when strictly greater. Ties keep the first, a NaN never wins (nor
  // loses its place when it comes first), -0 and +0 keep their order.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  util::Rng rng{600};
  Tensor x = random_tensor({3, 4, 9, 11}, rng);
  const float specials[] = {nan, -0.0F, 0.0F, 1.0F, -1.0F};
  for (float& v : x.values()) {
    if (rng.next_below(3) == 0) v = specials[rng.next_below(5)];
  }
  const std::size_t h = x.dim(2), w = x.dim(3), oh = h / 2, ow = w / 2;
  Tensor want{{3, 4, oh, ow}};
  std::vector<std::uint32_t> want_arg;
  for (std::size_t plane = 0; plane < 12; ++plane) {
    const float* px = x.data() + plane * h * w;
    for (std::size_t oi = 0; oi < oh; ++oi) {
      for (std::size_t oj = 0; oj < ow; ++oj) {
        std::size_t best = 2 * oi * w + 2 * oj;
        float best_v = px[best];
        for (const std::size_t cand :
             {best + 1, best + w, best + w + 1}) {
          if (px[cand] > best_v) {
            best_v = px[cand];
            best = cand;
          }
        }
        want[(plane * oh + oi) * ow + oj] = best_v;
        want_arg.push_back(static_cast<std::uint32_t>(plane * h * w + best));
      }
    }
  }
  MaxPool2D pool;
  EXPECT_TRUE(bitwise_equal(pool.forward(x), want));
  // The argmax shows through backward: each gradient lands on its winner.
  Tensor go{want.shape()};
  for (std::size_t i = 0; i < go.size(); ++i) go[i] = static_cast<float>(i + 1);
  const Tensor dx = pool.backward(go);
  Tensor want_dx{x.shape()};
  for (std::size_t i = 0; i < want_arg.size(); ++i) {
    want_dx[want_arg[i]] += go[i];
  }
  EXPECT_TRUE(bitwise_equal(dx, want_dx));
}

// ---- ReLU backward ----------------------------------------------------------

TEST(ReluOracle, BackwardMatchesBranchyLoopBitwise) {
  // The old backward: copy the gradient, zero it where the input is <= 0.
  // NaN inputs pass the gradient through; both zeros block it.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> inputs = {nan,   -nan,   -0.0F,   0.0F, denorm,
                                     -denorm, -1.5F, 2.5F,  inf,  -inf,
                                     1e-30F, -1e-30F, 3.0F, -7.0F, 0.5F,
                                     -0.0F,   nan};
  const std::vector<float> grads = {1.0F,   -2.0F, 3.0F,  -0.0F, 0.0F,
                                    nan,    4.0F,  -5.0F, 6.0F,  denorm,
                                    -7.0F,  8.0F,  -0.0F, 9.0F,  -denorm,
                                    10.0F,  -0.0F};
  const std::size_t n = inputs.size();
  const Tensor x{{1, n}, inputs};
  const Tensor go{{1, n}, grads};
  Tensor want = go;
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] <= 0.0F) want[i] = 0.0F;
  }
  ReLU relu;
  relu.forward(x);
  EXPECT_TRUE(bitwise_equal(relu.backward(go), want));

  // And on a large random batch, long enough for the vector loop body.
  util::Rng rng{500};
  Tensor xr = random_tensor({16, 6, 28, 28}, rng);
  for (std::size_t i = 0; i < xr.size(); i += 97) xr[i] = -0.0F;
  for (std::size_t i = 0; i < xr.size(); i += 101) xr[i] = 0.0F;
  const Tensor gr = random_tensor(xr.shape(), rng);
  Tensor want_r = gr;
  for (std::size_t i = 0; i < xr.size(); ++i) {
    if (xr[i] <= 0.0F) want_r[i] = 0.0F;
  }
  relu.forward(xr);
  EXPECT_TRUE(bitwise_equal(relu.backward(gr), want_r));
}

// ---- build flags ------------------------------------------------------------

#if defined(__x86_64__) || defined(__i386__)
/// Compiled for a CPU with FMA: a build that allowed contraction would emit
/// one fused multiply-add here.
[[gnu::noinline]] __attribute__((target("fma"))) float mul_add_with_fma(
    float a, float b, float c) {
  return a * b + c;
}
#endif

TEST(Build, NoFloatContraction) {
#if defined(__x86_64__) || defined(__i386__)
  if (!__builtin_cpu_supports("fma")) GTEST_SKIP() << "host has no FMA";
  // (1 + 2^-12)^2 = 1 + 2^-11 + 2^-24 exactly; rounded to float it is
  // 1 + 2^-11 (a tie, to even). Two roundings give 0, a fused one 2^-24.
  volatile float a = 1.0F + 0x1p-12F;
  volatile float c = -(1.0F + 0x1p-11F);
  const float got = mul_add_with_fma(a, a, c);
  EXPECT_EQ(got, 0.0F) << "the build contracts a * b + c into an FMA "
                          "(need -ffp-contract=off, CMakeLists.txt)";
  EXPECT_NE(std::fma(static_cast<float>(a), static_cast<float>(a),
                     static_cast<float>(c)),
            0.0F);
#else
  GTEST_SKIP() << "x86-only check";
#endif
}

}  // namespace
}  // namespace roadrunner::ml

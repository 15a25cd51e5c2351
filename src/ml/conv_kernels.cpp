#include "ml/conv_kernels.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace roadrunner::ml {

ConvShape conv_shape(std::size_t cin, std::size_t cout, std::size_t k,
                     std::size_t stride, std::size_t pad, std::size_t h,
                     std::size_t w) {
  if (h + 2 * pad < k || w + 2 * pad < k) {
    throw std::invalid_argument{"Conv2D: input smaller than kernel"};
  }
  return ConvShape{cin,       cout, k, stride, pad, h, w,
                   (h + 2 * pad - k) / stride + 1,
                   (w + 2 * pad - k) / stride + 1};
}

namespace {

using Vec4 = float __attribute__((vector_size(16)));
using Vec8 = float __attribute__((vector_size(32)));
using Vec16 = float __attribute__((vector_size(64)));

/// Per-thread scratch, reused across calls; a training job runs on one
/// thread and no kernel re-enters another. Every slot holds a small repack
/// of the weights or of the output gradient, the call's weight-gradient
/// sum, one sample's padded input gradient, or one group of `lanes`
/// samples' images and output gradients interleaved lane by lane: nothing
/// the size of an im2col buffer.
enum Slot : std::size_t {
  kWeights,
  kBias,
  kGrad,
  kDwSum,
  kDx,
  kTile,
  kLaneImage,
  kSlots
};

float* scratch(Slot slot, std::size_t size) {
  thread_local std::array<std::vector<float>, kSlots> buffers;
  std::vector<float>& buffer = buffers[slot];
  if (buffer.size() < size) buffer.resize(size);
  return buffer.data();
}

std::size_t round_up(std::size_t x, std::size_t to) {
  return (x + to - 1) / to * to;
}

using Index = std::ptrdiff_t;

/// The pixel at (i, j) of a [H, W] plane, or 0 in the zero padding.
inline float padded_pixel(const ConvShape& g, const float* plane, Index i,
                          Index j) {
  const bool inside = i >= 0 && j >= 0 && i < static_cast<Index>(g.h) &&
                      j < static_cast<Index>(g.w);
  return inside ? plane[i * static_cast<Index>(g.w) + j] : 0.0F;
}

/// Copies the [rows, cols] matrix src transposed into dst [cols, ld],
/// zero-filling columns rows..ld.
void transpose_into(const float* src, std::size_t rows, std::size_t cols,
                    float* dst, std::size_t ld) {
  for (std::size_t j = 0; j < cols; ++j) {
    float* row = dst + j * ld;
    for (std::size_t i = 0; i < rows; ++i) row[i] = src[i * cols + j];
    std::fill(row + rows, row + ld, 0.0F);
  }
}

/// The call's weight-gradient sum [Cout, Cin*K*K], zeroed: the samples'
/// partials go into it in sample order, and dW gains it in one add.
float* zeroed_dw_sum(const ConvShape& g) {
  const std::size_t size = g.cout * g.cin * g.k * g.k;
  float* sum = scratch(kDwSum, size);
  std::fill(sum, sum + size, 0.0F);
  return sum;
}

void add_dw_sum(const ConvShape& g, const float* sum, float* dw) {
  for (std::size_t i = 0; i < g.cout * g.cin * g.k * g.k; ++i) dw[i] += sum[i];
}

/// The kernels written once for any vector type; `float` is the one-lane
/// build. The forward and the weight gradient put output channels in the
/// lanes (Cv vectors, G = Cv * lanes channels per group) and a tile of P
/// output positions or Q taps in registers. The sample weight gradient (few
/// channels) puts samples in the lanes and a tile of C channels x Q taps in
/// registers. The column forward (few channels, stride 1, no padding) and
/// the input gradient put output columns in the lanes and a few rows in
/// registers. A scalar value is broadcast as `x - Vec{}`, exact for every
/// x, -0 included.
///
/// Every member is force-inlined into the one entry point per ISA below,
/// which carries the target attribute (as ml::gemm's Kernel does).
template <class Vec>
struct Conv {
  static constexpr std::size_t kLanes = sizeof(Vec) / sizeof(float);

  // ---- forward: lanes over output channels ---------------------------------

  /// Output positions [p0, p0 + P) of one channel group: out [P, G] =
  /// sum over ascending q of X[q, p] * wt[q, group] from +0, plus the bias.
  template <std::size_t Cv, std::size_t P, bool Padded>
  [[gnu::always_inline]] static inline void forward_tile(
      const ConvShape& g, const float* x, const float* wt, std::size_t ldw,
      const float* bias, std::size_t p0, float* out) {
    Index top[P], left[P], base[P];
    for (std::size_t j = 0, oi = p0 / g.ow, oj = p0 % g.ow; j < P; ++j) {
      top[j] = static_cast<Index>(oi * g.stride) - static_cast<Index>(g.pad);
      left[j] = static_cast<Index>(oj * g.stride) - static_cast<Index>(g.pad);
      base[j] = top[j] * static_cast<Index>(g.w) + left[j];
      if (++oj == g.ow) {
        oj = 0;
        ++oi;
      }
    }
    Vec acc[P][Cv] = {};
    const float* wq = wt;
    for (std::size_t ci = 0; ci < g.cin; ++ci) {
      const float* plane = x + ci * g.h * g.w;
      for (std::size_t ki = 0; ki < g.k; ++ki) {
        for (std::size_t kj = 0; kj < g.k; ++kj, wq += ldw) {
          Vec wv[Cv];
          for (std::size_t v = 0; v < Cv; ++v) {
            std::memcpy(&wv[v], wq + v * kLanes, sizeof(Vec));
          }
          const Index tap = static_cast<Index>(ki * g.w + kj);
#pragma GCC unroll 32
          for (std::size_t j = 0; j < P; ++j) {
            const float pixel =
                Padded ? padded_pixel(g, plane, top[j] + static_cast<Index>(ki),
                                      left[j] + static_cast<Index>(kj))
                       : plane[base[j] + tap];
            const Vec xv = pixel - Vec{};
            for (std::size_t v = 0; v < Cv; ++v) acc[j][v] += xv * wv[v];
          }
        }
      }
    }
    for (std::size_t v = 0; v < Cv; ++v) {
      Vec bv{};
      std::memcpy(&bv, bias + v * kLanes, sizeof(Vec));
      for (std::size_t j = 0; j < P; ++j) {
        acc[j][v] += bv;
        std::memcpy(out + j * Cv * kLanes + v * kLanes, &acc[j][v],
                    sizeof(Vec));
      }
    }
  }

  /// Every output position of one sample and channel group. The last tile
  /// ends at the last position and recomputes the ones it shares with the
  /// tile before it, bit for bit.
  template <std::size_t Cv, std::size_t P, bool Padded>
  [[gnu::always_inline]] static inline void forward_group(
      const ConvShape& g, const float* x, const float* wt, std::size_t ldw,
      const float* bias, std::size_t c0, float* y) {
    constexpr std::size_t kG = Cv * kLanes;
    const std::size_t out_hw = g.oh * g.ow;
    const std::size_t channels = std::min(kG, g.cout - c0);
    float out[P * kG];
    auto scatter = [&](std::size_t p0, std::size_t count) {
      for (std::size_t j = 0; j < count; ++j) {
        for (std::size_t c = 0; c < channels; ++c) {
          y[(c0 + c) * out_hw + p0 + j] = out[j * kG + c];
        }
      }
    };
    if (out_hw < P) {
      for (std::size_t p = 0; p < out_hw; ++p) {
        forward_tile<Cv, 1, Padded>(g, x, wt, ldw, bias, p, out);
        scatter(p, 1);
      }
      return;
    }
    for (std::size_t p = 0; p < out_hw; p += P) {
      const std::size_t p0 = std::min(p, out_hw - P);
      forward_tile<Cv, P, Padded>(g, x, wt, ldw, bias, p0, out);
      scatter(p0, P);
    }
  }

  template <std::size_t Cv, std::size_t P>
  [[gnu::always_inline]] static inline void forward(const ConvShape& g,
                                                    std::size_t n,
                                                    const float* x,
                                                    const float* w,
                                                    const float* b, float* y) {
    constexpr std::size_t kG = Cv * kLanes;
    const std::size_t ckk = g.cin * g.k * g.k;
    const std::size_t ldw = round_up(g.cout, kG);
    float* wt = scratch(kWeights, ckk * ldw);
    transpose_into(w, g.cout, ckk, wt, ldw);
    float* bias = scratch(kBias, ldw);
    std::copy(b, b + g.cout, bias);
    std::fill(bias + g.cout, bias + ldw, 0.0F);
    const std::size_t in_vol = g.cin * g.h * g.w;
    const std::size_t out_vol = g.cout * g.oh * g.ow;
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t c0 = 0; c0 < g.cout; c0 += kG) {
        if (g.pad > 0) {
          forward_group<Cv, P, true>(g, x + s * in_vol, wt + c0, ldw,
                                     bias + c0, c0, y + s * out_vol);
        } else {
          forward_group<Cv, P, false>(g, x + s * in_vol, wt + c0, ldw,
                                      bias + c0, c0, y + s * out_vol);
        }
      }
    }
  }

  // ---- forward for a few output channels: lanes over output columns -------

  /// The column forward's channel count: the paper CNN's conv1 has 6.
  static constexpr std::size_t kColumnChannels = 6;

  /// Stride 1, no padding, at most kColumnChannels output channels, and a
  /// plane at least one vector wide and R rows tall: every tile then reads
  /// whole vectors inside the image, in place.
  template <std::size_t R>
  [[gnu::always_inline]] static inline bool column_forward_fits(
      const ConvShape& g) {
    return g.stride == 1 && g.pad == 0 && g.cout <= kColumnChannels &&
           g.ow >= kLanes && g.oh >= R;
  }

  /// Rows [oi0, oi0 + R) x columns [oj0, oj0 + lanes) of every channel:
  /// sum over ascending q of wt[q, c] * X[q, p] from +0, plus the bias.
  template <std::size_t R>
  [[gnu::always_inline]] static inline void column_tile(
      const ConvShape& g, const float* x, const float* wt, const float* bias,
      std::size_t oi0, std::size_t oj0, float* y) {
    constexpr std::size_t kC = kColumnChannels;
    Vec acc[R][kC] = {};
    const float* wq = wt;
    for (std::size_t ci = 0; ci < g.cin; ++ci) {
      const float* plane = x + (ci * g.h + oi0) * g.w + oj0;
      for (std::size_t ki = 0; ki < g.k; ++ki) {
        for (std::size_t kj = 0; kj < g.k; ++kj, wq += kC) {
          Vec xv[R];
          for (std::size_t r = 0; r < R; ++r) {
            std::memcpy(&xv[r], plane + (r + ki) * g.w + kj, sizeof(Vec));
          }
          for (std::size_t c = 0; c < kC; ++c) {
            const Vec wv = wq[c] - Vec{};
            for (std::size_t r = 0; r < R; ++r) acc[r][c] += wv * xv[r];
          }
        }
      }
    }
    for (std::size_t c = 0; c < g.cout; ++c) {
      for (std::size_t r = 0; r < R; ++r) {
        const Vec out = acc[r][c] + (bias[c] - Vec{});
        std::memcpy(y + (c * g.oh + oi0 + r) * g.ow + oj0, &out, sizeof(Vec));
      }
    }
  }

  /// The forward over R x lanes tiles; the last row and column tiles end
  /// at the plane's edge and recompute what they share with the tiles
  /// before them, bit for bit.
  template <std::size_t R>
  [[gnu::always_inline]] static inline void column_forward(
      const ConvShape& g, std::size_t n, const float* x, const float* w,
      const float* b, float* y) {
    const std::size_t ckk = g.cin * g.k * g.k;
    float* wt = scratch(kWeights, ckk * kColumnChannels);
    transpose_into(w, g.cout, ckk, wt, kColumnChannels);
    const std::size_t in_vol = g.cin * g.h * g.w;
    const std::size_t out_vol = g.cout * g.oh * g.ow;
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t i = 0; i < g.oh; i += R) {
        const std::size_t oi0 = std::min(i, g.oh - R);
        for (std::size_t j = 0; j < g.ow; j += kLanes) {
          column_tile<R>(g, x + s * in_vol, wt, b, oi0,
                         std::min(j, g.ow - kLanes), y + s * out_vol);
        }
      }
    }
  }

  // ---- weight gradient: lanes over output channels -------------------------

  /// Taps [q0, q0 + Q) of one channel group: out [Q, G] = sum over
  /// ascending p of X[q, p] * got[p, group] from +0.
  template <std::size_t Cv, std::size_t Q, bool Padded>
  [[gnu::always_inline]] static inline void weight_tile(
      const ConvShape& g, const float* x, const float* got, std::size_t ldg,
      std::size_t q0, float* out) {
    const float* plane[Q];
    Index ki[Q], kj[Q], tap[Q];
    std::size_t c = q0 / (g.k * g.k), i = q0 / g.k % g.k, j = q0 % g.k;
    for (std::size_t t = 0; t < Q; ++t) {
      plane[t] = x + c * g.h * g.w;
      ki[t] = static_cast<Index>(i);
      kj[t] = static_cast<Index>(j);
      tap[t] = static_cast<Index>((c * g.h + i) * g.w + j);
      if (++j == g.k) {
        j = 0;
        if (++i == g.k) {
          i = 0;
          ++c;
        }
      }
    }
    Vec acc[Q][Cv] = {};
    const float* gp = got;
    for (std::size_t oi = 0; oi < g.oh; ++oi) {
      const Index top =
          static_cast<Index>(oi * g.stride) - static_cast<Index>(g.pad);
      for (std::size_t oj = 0; oj < g.ow; ++oj, gp += ldg) {
        const Index left =
            static_cast<Index>(oj * g.stride) - static_cast<Index>(g.pad);
        const Index base = top * static_cast<Index>(g.w) + left;
        Vec gv[Cv];
        for (std::size_t v = 0; v < Cv; ++v) {
          std::memcpy(&gv[v], gp + v * kLanes, sizeof(Vec));
        }
#pragma GCC unroll 32
        for (std::size_t t = 0; t < Q; ++t) {
          const float pixel =
              Padded ? padded_pixel(g, plane[t], top + ki[t], left + kj[t])
                     : x[base + tap[t]];
          const Vec xv = pixel - Vec{};
          for (std::size_t v = 0; v < Cv; ++v) acc[t][v] += xv * gv[v];
        }
      }
    }
    for (std::size_t t = 0; t < Q; ++t) {
      for (std::size_t v = 0; v < Cv; ++v) {
        std::memcpy(out + t * Cv * kLanes + v * kLanes, &acc[t][v],
                    sizeof(Vec));
      }
    }
  }

  /// One sample's partial for one channel group, added into sum. The last
  /// tile ends at the last tap; the taps it shares with the tile before it
  /// are recomputed but added once.
  template <std::size_t Cv, std::size_t Q, bool Padded>
  [[gnu::always_inline]] static inline void weight_group(
      const ConvShape& g, const float* x, const float* got, std::size_t ldg,
      std::size_t c0, float* sum) {
    constexpr std::size_t kG = Cv * kLanes;
    const std::size_t ckk = g.cin * g.k * g.k;
    const std::size_t channels = std::min(kG, g.cout - c0);
    float out[Q * kG];
    auto add = [&](std::size_t q0, std::size_t first, std::size_t count) {
      for (std::size_t c = 0; c < channels; ++c) {
        float* row = sum + (c0 + c) * ckk + q0;
        for (std::size_t t = first; t < count; ++t) row[t] += out[t * kG + c];
      }
    };
    if (ckk < Q) {
      for (std::size_t q = 0; q < ckk; ++q) {
        weight_tile<Cv, 1, Padded>(g, x, got, ldg, q, out);
        add(q, 0, 1);
      }
      return;
    }
    for (std::size_t q = 0; q < ckk; q += Q) {
      const std::size_t q0 = std::min(q, ckk - Q);
      weight_tile<Cv, Q, Padded>(g, x, got, ldg, q0, out);
      add(q0, q - q0, Q);
    }
  }

  /// Samples [s0, n), one at a time: each partial is added into sum, each
  /// bias sum into db.
  template <std::size_t Cv, std::size_t Q>
  [[gnu::always_inline]] static inline void weight_samples(
      const ConvShape& g, std::size_t s0, std::size_t n, const float* x,
      const float* go, float* sum, float* db) {
    constexpr std::size_t kG = Cv * kLanes;
    const std::size_t out_hw = g.oh * g.ow;
    const std::size_t ldg = round_up(g.cout, kG);
    float* got = scratch(kGrad, out_hw * ldg);
    const std::size_t in_vol = g.cin * g.h * g.w;
    for (std::size_t s = s0; s < n; ++s) {
      transpose_into(go + s * g.cout * out_hw, g.cout, out_hw, got, ldg);
      for (std::size_t c0 = 0; c0 < g.cout; c0 += kG) {
        // Bias gradient: the lanes run the per-channel sums side by side.
        Vec bsum[Cv] = {};
        for (std::size_t p = 0; p < out_hw; ++p) {
          for (std::size_t v = 0; v < Cv; ++v) {
            Vec gv{};
            std::memcpy(&gv, got + p * ldg + c0 + v * kLanes, sizeof(Vec));
            bsum[v] += gv;
          }
        }
        float sums[kG];
        std::memcpy(sums, bsum, sizeof(sums));
        for (std::size_t c = 0; c < std::min(kG, g.cout - c0); ++c) {
          db[c0 + c] += sums[c];
        }
        if (g.pad > 0) {
          weight_group<Cv, Q, true>(g, x + s * in_vol, got + c0, ldg, c0,
                                    sum);
        } else {
          weight_group<Cv, Q, false>(g, x + s * in_vol, got + c0, ldg, c0,
                                     sum);
        }
      }
    }
  }

  // ---- weight gradient: lanes over samples ---------------------------------

  /// Channels [c0, c0 + C) x taps [q0, q0 + Q) of one group of samples:
  /// lane l of acc[c][t] is sample l's sum over ascending p of
  /// go[c, p] * X[q, p] from +0, and sum[c, q] gains the lanes in sample
  /// order, for the channels from first_c and the taps from first_t. xt
  /// [Cin, H, W, lanes] and gt [Cout, P, lanes] hold the group's images
  /// and output gradients.
  template <std::size_t C, std::size_t Q>
  [[gnu::always_inline]] static inline void sample_tile(
      const ConvShape& g, const float* xt, const float* gt, std::size_t c0,
      std::size_t q0, std::size_t first_c, std::size_t first_t, float* sum) {
    const std::size_t ckk = g.cin * g.k * g.k;
    std::size_t tap[Q];
    for (std::size_t t = 0, q = q0; t < Q; ++t, ++q) {
      const std::size_t ci = q / (g.k * g.k), ki = q / g.k % g.k,
                        kj = q % g.k;
      tap[t] = ((ci * g.h + ki) * g.w + kj) * kLanes;
    }
    const std::size_t out_hw = g.oh * g.ow;
    Vec acc[C][Q] = {};
    const float* gp = gt + c0 * out_hw * kLanes;
    for (std::size_t oi = 0; oi < g.oh; ++oi) {
      const float* row = xt + oi * g.stride * g.w * kLanes;
      for (std::size_t oj = 0; oj < g.ow; ++oj, gp += kLanes) {
        const float* pixel = row + oj * g.stride * kLanes;
        // Unrolled, so the loads do not merge into one block copy that
        // would keep gv on the stack.
        Vec gv[C];
#pragma GCC unroll 32
        for (std::size_t c = 0; c < C; ++c) {
          std::memcpy(&gv[c], gp + c * out_hw * kLanes, sizeof(Vec));
        }
#pragma GCC unroll 32
        for (std::size_t t = 0; t < Q; ++t) {
          Vec xv;
          std::memcpy(&xv, pixel + tap[t], sizeof(Vec));
#pragma GCC unroll 32
          for (std::size_t c = 0; c < C; ++c) acc[c][t] += xv * gv[c];
        }
      }
    }
    for (std::size_t c = first_c; c < C; ++c) {
      float* out = sum + (c0 + c) * ckk + q0;
      for (std::size_t t = first_t; t < Q; ++t) {
        float lanes[kLanes];
        std::memcpy(lanes, &acc[c][t], sizeof(Vec));
        float s = out[t];
        for (std::size_t l = 0; l < kLanes; ++l) s += lanes[l];
        out[t] = s;
      }
    }
  }

  /// Every full group of `lanes` samples in [0, n), lanes over samples:
  /// the partials go into sum and the bias sums into db in sample order.
  /// Returns the first sample it left out. Tiles at the last channel or
  /// tap end there; what they share with the tile before them is
  /// recomputed but added once. Needs weight_lanes_fit<C, Q>.
  template <std::size_t C, std::size_t Q>
  [[gnu::always_inline]] static inline std::size_t weight_lanes(
      const ConvShape& g, std::size_t n, const float* x, const float* go,
      float* sum, float* db) {
    const std::size_t ckk = g.cin * g.k * g.k;
    const std::size_t in_vol = g.cin * g.h * g.w;
    const std::size_t out_hw = g.oh * g.ow;
    const std::size_t out_vol = g.cout * out_hw;
    const std::size_t groups = n / kLanes;
    float* xt = scratch(kLaneImage, (in_vol + out_vol) * kLanes);
    float* gt = xt + in_vol * kLanes;
    for (std::size_t grp = 0; grp < groups; ++grp) {
      const std::size_t s0 = grp * kLanes;
      transpose_into(x + s0 * in_vol, kLanes, in_vol, xt, kLanes);
      transpose_into(go + s0 * out_vol, kLanes, out_vol, gt, kLanes);
      for (std::size_t c = 0; c < g.cout; ++c) {
        Vec bsum{};
        const float* gp = gt + c * out_hw * kLanes;
        for (std::size_t p = 0; p < out_hw; ++p) {
          Vec gv;
          std::memcpy(&gv, gp + p * kLanes, sizeof(Vec));
          bsum += gv;
        }
        float lanes[kLanes];
        std::memcpy(lanes, &bsum, sizeof(Vec));
        for (std::size_t l = 0; l < kLanes; ++l) db[c] += lanes[l];
      }
      for (std::size_t c = 0; c < g.cout; c += C) {
        const std::size_t c0 = std::min(c, g.cout - C);
        for (std::size_t q = 0; q < ckk; q += Q) {
          const std::size_t q0 = std::min(q, ckk - Q);
          sample_tile<C, Q>(g, xt, gt, c0, q0, c - c0, q - q0, sum);
        }
      }
    }
    return groups * kLanes;
  }

  /// The sample weight gradient runs: no padding, and its tiles fit (at
  /// least C output channels and Q taps).
  template <std::size_t C, std::size_t Q>
  [[gnu::always_inline]] static inline bool weight_lanes_fit(
      const ConvShape& g) {
    return g.pad == 0 && g.cout >= C && g.cin * g.k * g.k >= Q;
  }

  // ---- input gradient: lanes over output columns ---------------------------

  /// Rows [oi0, oi0 + R) of the gradient image gop [Cout, OH, owp] under
  /// taps (ci, ki, kj0..kj0 + Kt): tile [nvec][Kt][R] = sum over ascending
  /// c of wk[c, kj] * gop[c, row, vector] from +0. wk [Cout, kpad] holds
  /// the weights of (ci, ki), zero past K.
  template <std::size_t R, std::size_t Kt>
  [[gnu::always_inline]] static inline void input_tile(
      const ConvShape& g, const float* wk, std::size_t kpad, const float* gop,
      std::size_t owp, std::size_t oi0, std::size_t kj0, float* tile) {
    const std::size_t nvec = owp / kLanes;
    for (std::size_t v = 0; v < nvec; ++v) {
      Vec acc[Kt][R] = {};
      for (std::size_t c = 0; c < g.cout; ++c) {
        const float* row = gop + (c * g.oh + oi0) * owp + v * kLanes;
        Vec gv[R];
        for (std::size_t r = 0; r < R; ++r) {
          std::memcpy(&gv[r], row + r * owp, sizeof(Vec));
        }
        for (std::size_t t = 0; t < Kt; ++t) {
          const Vec wv = wk[c * kpad + kj0 + t] - Vec{};
          for (std::size_t r = 0; r < R; ++r) acc[t][r] += wv * gv[r];
        }
      }
      for (std::size_t t = 0; t < Kt; ++t) {
        for (std::size_t r = 0; r < R; ++r) {
          std::memcpy(tile + ((v * Kt + t) * R + r) * kLanes, &acc[t][r],
                      sizeof(Vec));
        }
      }
    }
  }

  /// Adds rows [oi0, oi0 + R) under taps (ci, ki, 0..K) into the padded
  /// input gradient dxp [Cin, hp, wd]. Every cell takes its taps in
  /// ascending kj, whichever vector of the row each comes from; lanes past
  /// OW in the last vector keep the cell's value.
  template <std::size_t R, std::size_t Kt>
  [[gnu::always_inline]] static inline void input_rows(
      const ConvShape& g, const float* wk, std::size_t kpad, const float* gop,
      std::size_t owp, float* dxp, std::size_t hp, std::size_t wd,
      std::size_t ci, std::size_t ki, std::size_t oi0, float* tile) {
    const std::size_t nvec = owp / kLanes;
    [[maybe_unused]] Vec lane{};
    if constexpr (kLanes > 1) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        lane[l] = static_cast<float>(l);
      }
    }
    [[maybe_unused]] const Vec valid_last =
        static_cast<float>(g.ow - (nvec - 1) * kLanes) - Vec{};
    for (std::size_t kj0 = 0; kj0 < g.k; kj0 += Kt) {
      input_tile<R, Kt>(g, wk, kpad, gop, owp, oi0, kj0, tile);
      for (std::size_t t = 0; t < Kt && kj0 + t < g.k; ++t) {
        for (std::size_t v = 0; v < nvec; ++v) {
          for (std::size_t r = 0; r < R; ++r) {
            float* dst = dxp + (ci * hp + (oi0 + r) * g.stride + ki) * wd +
                         v * kLanes * g.stride + kj0 + t;
            Vec cell{};
            Vec d{};
            std::memcpy(&cell, dst, sizeof(Vec));
            std::memcpy(&d, tile + ((v * Kt + t) * R + r) * kLanes,
                        sizeof(Vec));
            Vec sum = cell + d;
            if constexpr (kLanes > 1) {
              if (v + 1 == nvec) sum = lane < valid_last ? sum : cell;
            }
            std::memcpy(dst, &sum, sizeof(Vec));
          }
        }
      }
    }
  }

  /// Lanes hold consecutive output columns, so a vector build needs
  /// stride 1; the one-lane build runs any stride.
  template <std::size_t R, std::size_t Kt>
  [[gnu::always_inline]] static inline void input_grad(const ConvShape& g,
                                                       std::size_t n,
                                                       const float* w,
                                                       const float* go,
                                                       float* dx) {
    const std::size_t owp = round_up(g.ow, kLanes);
    const std::size_t hp = g.h + 2 * g.pad;
    const std::size_t wd =
        std::max(g.w + 2 * g.pad, (owp - 1) * g.stride + g.k);
    const std::size_t out_vol = g.cout * g.oh * g.ow;
    const std::size_t ckk = g.cin * g.k * g.k;
    // Weights regrouped [Cin, K, Cout, kpad]: one (ci, ki) block per row
    // sweep, zero past K so a partial tap chunk reads zeros.
    const std::size_t kpad = round_up(g.k, Kt);
    float* wk = scratch(kWeights, g.cin * g.k * g.cout * kpad);
    for (std::size_t ci = 0; ci < g.cin; ++ci) {
      for (std::size_t ki = 0; ki < g.k; ++ki) {
        for (std::size_t c = 0; c < g.cout; ++c) {
          float* dst = wk + ((ci * g.k + ki) * g.cout + c) * kpad;
          const float* src = w + c * ckk + (ci * g.k + ki) * g.k;
          std::copy(src, src + g.k, dst);
          std::fill(dst + g.k, dst + kpad, 0.0F);
        }
      }
    }
    float* gop = scratch(kGrad, g.cout * g.oh * owp);
    float* dxp = scratch(kDx, g.cin * hp * wd);
    float* tile = scratch(kTile, owp * Kt * R);
    for (std::size_t s = 0; s < n; ++s) {
      const float* gs = go + s * out_vol;
      for (std::size_t row = 0; row < g.cout * g.oh; ++row) {
        std::copy(gs + row * g.ow, gs + (row + 1) * g.ow, gop + row * owp);
        std::fill(gop + row * owp + g.ow, gop + (row + 1) * owp, 0.0F);
      }
      std::fill(dxp, dxp + g.cin * hp * wd, 0.0F);
      for (std::size_t ci = 0; ci < g.cin; ++ci) {
        for (std::size_t ki = 0; ki < g.k; ++ki) {
          const float* wci = wk + (ci * g.k + ki) * g.cout * kpad;
          std::size_t oi = 0;
          for (; oi + R <= g.oh; oi += R) {
            input_rows<R, Kt>(g, wci, kpad, gop, owp, dxp, hp, wd, ci, ki, oi,
                              tile);
          }
          for (; oi < g.oh; ++oi) {
            input_rows<1, Kt>(g, wci, kpad, gop, owp, dxp, hp, wd, ci, ki, oi,
                              tile);
          }
        }
      }
      float* ds = dx + s * g.cin * g.h * g.w;
      for (std::size_t ci = 0; ci < g.cin; ++ci) {
        for (std::size_t i = 0; i < g.h; ++i) {
          const float* src = dxp + (ci * hp + i + g.pad) * wd + g.pad;
          std::copy(src, src + g.w, ds + (ci * g.h + i) * g.w);
        }
      }
    }
  }
};

// Register tiles per build. SSE2 and AVX2 have 16 vector registers: a
// forward or weight-gradient tile of 12 accumulators (6 x 2 SSE2 vectors
// of 8 channels, or 12 x 1 AVX2 vector) leaves room for the weight or
// gradient vectors and the broadcast pixel. AVX-512F has 32: 25 x 1
// vector of 16 channels; its per-sample weight gradient takes the AVX2
// tile when at most 8 channels would fill the lanes. The input gradient
// keeps a 5-tap by R-row tile: 5 x 5 in AVX-512F and one lane, 5 x 2 in
// SSE2 and AVX2.
//
// The weight gradient puts samples in the lanes for the full groups of a
// call when fewer output channels than a channel group would leave lanes
// idle (Cout < 8 in SSE2 and AVX2, Cout < 16 in AVX-512F: the paper CNN's
// conv1 with 6), the geometry has no padding (every paper conv) and a
// tile fits: 3 channels x 3 taps (9 accumulators) in SSE2 and AVX2, 6 x 4
// (24) in AVX-512F. The rest of the call's samples take the per-sample
// form. At 16 channels (conv2) the two forms run level in micro_ml, so
// conv2 stays per sample.

void input_grad_scalar(const ConvShape& g, std::size_t n, const float* w,
                       const float* go, float* dx) {
  Conv<float>::input_grad<5, 5>(g, n, w, go, dx);
}

void forward_sse2(const ConvShape& g, std::size_t n, const float* x,
                  const float* w, const float* b, float* y) {
  if (Conv<Vec4>::column_forward_fits<2>(g)) {
    return Conv<Vec4>::column_forward<2>(g, n, x, w, b, y);
  }
  Conv<Vec4>::forward<2, 6>(g, n, x, w, b, y);
}

void weight_grad_sse2(const ConvShape& g, std::size_t n, const float* x,
                      const float* go, float* dw, float* db) {
  float* sum = zeroed_dw_sum(g);
  std::size_t s = 0;
  if (g.cout < 8 && Conv<Vec4>::weight_lanes_fit<3, 3>(g)) {
    s = Conv<Vec4>::weight_lanes<3, 3>(g, n, x, go, sum, db);
  }
  Conv<Vec4>::weight_samples<2, 6>(g, s, n, x, go, sum, db);
  add_dw_sum(g, sum, dw);
}

void input_grad_sse2(const ConvShape& g, std::size_t n, const float* w,
                     const float* go, float* dx) {
  if (g.stride != 1) return input_grad_scalar(g, n, w, go, dx);
  Conv<Vec4>::input_grad<2, 5>(g, n, w, go, dx);
}

#if defined(__x86_64__) || defined(__i386__)
#define RR_CONV_X86 1

__attribute__((target("avx2"))) void forward_avx2(
    const ConvShape& g, std::size_t n, const float* x, const float* w,
    const float* b, float* y) {
  if (Conv<Vec8>::column_forward_fits<2>(g)) {
    return Conv<Vec8>::column_forward<2>(g, n, x, w, b, y);
  }
  Conv<Vec8>::forward<1, 12>(g, n, x, w, b, y);
}

__attribute__((target("avx2"))) void weight_grad_avx2(
    const ConvShape& g, std::size_t n, const float* x, const float* go,
    float* dw, float* db) {
  float* sum = zeroed_dw_sum(g);
  std::size_t s = 0;
  if (g.cout < 8 && Conv<Vec8>::weight_lanes_fit<3, 3>(g)) {
    s = Conv<Vec8>::weight_lanes<3, 3>(g, n, x, go, sum, db);
  }
  Conv<Vec8>::weight_samples<1, 12>(g, s, n, x, go, sum, db);
  add_dw_sum(g, sum, dw);
}

__attribute__((target("avx2"))) void input_grad_avx2(const ConvShape& g,
                                                     std::size_t n,
                                                     const float* w,
                                                     const float* go,
                                                     float* dx) {
  if (g.stride != 1) return input_grad_scalar(g, n, w, go, dx);
  Conv<Vec8>::input_grad<2, 5>(g, n, w, go, dx);
}

__attribute__((target("avx512f"))) void forward_avx512f(
    const ConvShape& g, std::size_t n, const float* x, const float* w,
    const float* b, float* y) {
  if (Conv<Vec16>::column_forward_fits<4>(g)) {
    return Conv<Vec16>::column_forward<4>(g, n, x, w, b, y);
  }
  Conv<Vec16>::forward<1, 25>(g, n, x, w, b, y);
}

__attribute__((target("avx512f"))) void weight_grad_avx512f(
    const ConvShape& g, std::size_t n, const float* x, const float* go,
    float* dw, float* db) {
  float* sum = zeroed_dw_sum(g);
  std::size_t s = 0;
  if (g.cout < 16 && Conv<Vec16>::weight_lanes_fit<6, 4>(g)) {
    s = Conv<Vec16>::weight_lanes<6, 4>(g, n, x, go, sum, db);
  }
  if (g.cout <= 8) {
    Conv<Vec8>::weight_samples<1, 12>(g, s, n, x, go, sum, db);
  } else {
    Conv<Vec16>::weight_samples<1, 25>(g, s, n, x, go, sum, db);
  }
  add_dw_sum(g, sum, dw);
}

__attribute__((target("avx512f"))) void input_grad_avx512f(
    const ConvShape& g, std::size_t n, const float* w, const float* go,
    float* dx) {
  if (g.stride != 1) return input_grad_scalar(g, n, w, go, dx);
  Conv<Vec16>::input_grad<5, 5>(g, n, w, go, dx);
}
#endif

/// The calling thread's kernel choice; null means the widest supported.
thread_local const detail::ConvKernel* t_kernel = nullptr;

const detail::ConvKernel& active_kernel() {
  static const detail::ConvKernel* const widest =
      &detail::conv_kernels().back();
  return t_kernel ? *t_kernel : *widest;
}

}  // namespace

namespace detail {

std::span<const ConvKernel> conv_kernels() {
  static const std::vector<ConvKernel> kernels = [] {
    std::vector<ConvKernel> supported{
        {"sse2", &forward_sse2, &weight_grad_sse2, &input_grad_sse2}};
#ifdef RR_CONV_X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) {
      supported.push_back(
          {"avx2", &forward_avx2, &weight_grad_avx2, &input_grad_avx2});
    }
    if (__builtin_cpu_supports("avx512f")) {
      supported.push_back({"avx512f", &forward_avx512f, &weight_grad_avx512f,
                           &input_grad_avx512f});
    }
#endif
    return supported;
  }();
  return kernels;
}

void use_conv_kernel(const ConvKernel* kernel) { t_kernel = kernel; }

}  // namespace detail

void conv_forward(const ConvShape& g, std::size_t n, const float* x,
                  const float* w, const float* b, float* y) {
  active_kernel().forward(g, n, x, w, b, y);
}

void conv_weight_grad(const ConvShape& g, std::size_t n, const float* x,
                      const float* go, float* dw, float* db) {
  active_kernel().weight_grad(g, n, x, go, dw, db);
}

void conv_input_grad(const ConvShape& g, std::size_t n, const float* w,
                     const float* go, float* dx) {
  active_kernel().input_grad(g, n, w, go, dx);
}

}  // namespace roadrunner::ml

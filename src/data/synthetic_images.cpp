#include "data/synthetic_images.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.hpp"

namespace roadrunner::data {

namespace {

constexpr double kTau = 2.0 * std::numbers::pi;

/// Pattern intensity in roughly [-1, 1] for class `label` at pixel (i, j),
/// with per-sample nuisance parameters phase (radians) and frequency scale.
double pattern_value(std::int32_t label, double i, double j, double side,
                     double phase, double freq) {
  const double u = i / side, v = j / side;  // [0, 1) coordinates
  const double cu = u - 0.5, cv = v - 0.5;  // centred
  switch (label) {
    case 0:  // horizontal stripes
      return std::sin(kTau * freq * u + phase);
    case 1:  // vertical stripes
      return std::sin(kTau * freq * v + phase);
    case 2:  // diagonal stripes
      return std::sin(kTau * freq * (u + v) * 0.7071 + phase);
    case 3:  // anti-diagonal stripes
      return std::sin(kTau * freq * (u - v) * 0.7071 + phase);
    case 4:  // checkerboard
      return std::sin(kTau * freq * u + phase) *
             std::sin(kTau * freq * v + phase);
    case 5: {  // concentric rings
      const double r = std::sqrt(cu * cu + cv * cv);
      return std::sin(kTau * freq * 1.5 * r + phase);
    }
    case 6: {  // central Gaussian blob (bright centre, dark rim)
      const double r2 = cu * cu + cv * cv;
      return 2.0 * std::exp(-r2 / 0.05) - 1.0;
    }
    case 7:  // smooth corner-to-corner gradient, direction set by phase
      return 2.0 * (u * std::cos(phase) + v * std::sin(phase)) - 1.0;
    case 8: {  // four bumps at quadrant centres
      double acc = -1.0;
      for (double qi : {0.25, 0.75}) {
        for (double qj : {0.25, 0.75}) {
          const double du = u - qi, dv = v - qj;
          acc += 1.2 * std::exp(-(du * du + dv * dv) / 0.02);
        }
      }
      return std::clamp(acc, -1.0, 1.0);
    }
    case 9: {  // bright plus-sign cross through the centre
      const double bar = 0.08;
      const bool on = std::abs(cu) < bar || std::abs(cv) < bar;
      return on ? 1.0 : -1.0;
    }
    default:
      throw std::invalid_argument{"pattern_value: label out of range"};
  }
}

/// Per-sample nuisance parameters, drawn before any pixel. Their draw count
/// varies (uniform_int may reject), so the build replays them; the pixel
/// loop that follows always takes exactly 2·c·s² draws, so it is skipped.
struct Header {
  double phase, freq;
  int shift_i, shift_j;
  std::vector<double> gains;  ///< one per channel
};

Header draw_header(const SyntheticImageConfig& config, util::Rng& rng) {
  Header h;
  h.phase = rng.uniform(0.0, kTau);
  h.freq = rng.uniform(2.5, 4.5);
  h.shift_i = static_cast<int>(
      rng.uniform_int(-config.max_shift, config.max_shift));
  h.shift_j = static_cast<int>(
      rng.uniform_int(-config.max_shift, config.max_shift));
  h.gains.resize(config.channels);
  for (double& g : h.gains) {
    g = 1.0 + config.gain_jitter * rng.normal();
  }
  return h;
}

/// Raw draws the pixel loop of render_into takes: one normal() — two
/// next() calls — per pixel per channel.
std::uint64_t pixel_draws(const SyntheticImageConfig& config) {
  return std::uint64_t{2} * config.channels * config.side * config.side;
}

/// Renders one [C, S, S] sample of a valid `label` into `out`, drawing the
/// header and then the pixel noise from `rng`.
void render_into(std::int32_t label, const SyntheticImageConfig& config,
                 util::Rng& rng, float* out) {
  const std::size_t s = config.side, c = config.channels;
  const Header h = draw_header(config, rng);
  const int si = static_cast<int>(s);
  const auto side_d = static_cast<double>(s);
  for (std::size_t i = 0; i < s; ++i) {
    for (std::size_t j = 0; j < s; ++j) {
      // Toroidal shift keeps statistics stationary across the image.
      const auto pi_shift = static_cast<double>(
          (static_cast<int>(i) + h.shift_i % si + si) % si);
      const auto pj_shift = static_cast<double>(
          (static_cast<int>(j) + h.shift_j % si + si) % si);
      const double base =
          pattern_value(label, pi_shift, pj_shift, side_d, h.phase, h.freq);
      for (std::size_t ch = 0; ch < c; ++ch) {
        const double value =
            h.gains[ch] * base + config.noise_sigma * rng.normal();
        out[(ch * s + i) * s + j] = static_cast<float>(value);
      }
    }
  }
}

}  // namespace

ml::Tensor render_synthetic_image(std::int32_t label,
                                  const SyntheticImageConfig& config,
                                  util::Rng& rng) {
  if (label < 0 ||
      static_cast<std::size_t>(label) >= config.num_classes) {
    throw std::invalid_argument{"render_synthetic_image: bad label"};
  }
  ml::Tensor img{{config.channels, config.side, config.side}};
  render_into(label, config, rng, img.data());
  return img;
}

SyntheticImagePlan plan_synthetic_images(std::size_t count,
                                         const SyntheticImageConfig& config) {
  if (config.num_classes == 0 || config.num_classes > 10) {
    throw std::invalid_argument{
        "plan_synthetic_images: num_classes must be in [1, 10]"};
  }
  // Sequential: the one stream decides every label and where each image's
  // draws begin. Replaying the header and jumping past the pixel draws costs
  // microseconds per image instead of a full render.
  util::Rng rng{config.seed};
  const util::Rng::Skip skip_pixels{pixel_draws(config)};
  SyntheticImagePlan plan{config, std::vector<std::int32_t>(count),
                          std::vector<std::array<std::uint64_t, 4>>(count)};
  for (std::size_t n = 0; n < count; ++n) {
    plan.labels[n] =
        static_cast<std::int32_t>(rng.next_below(config.num_classes));
    plan.starts[n] = rng.state();
    (void)draw_header(config, rng);
    skip_pixels.apply(rng);
  }
  return plan;
}

ml::Dataset render_synthetic_images(const SyntheticImagePlan& plan,
                                    std::vector<std::uint32_t> rows) {
  const SyntheticImageConfig& config = plan.config;
  const std::size_t count = plan.labels.size();
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  if (!rows.empty() && rows.back() >= count) {
    throw std::out_of_range{"render_synthetic_images: row beyond the plan"};
  }
  std::vector<std::uint32_t> row_of(count, ml::Dataset::kUnrendered);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    row_of[rows[r]] = static_cast<std::uint32_t>(r);
  }

  // Parallel: each image depends only on its label and saved state, so the
  // bytes are the same for any worker count, schedule or row subset.
  const std::size_t sample_size = config.channels * config.side * config.side;
  ml::Tensor x{{rows.size(), config.channels, config.side, config.side}};
  util::ThreadPool::global().parallel_for(rows.size(), [&](std::size_t r) {
    util::Rng image_rng;
    image_rng.set_state(plan.starts[rows[r]]);
    render_into(plan.labels[rows[r]], config, image_rng,
                x.data() + r * sample_size);
  });
  return ml::Dataset{std::move(x), plan.labels, config.num_classes,
                     std::move(row_of)};
}

ml::Dataset make_synthetic_images(std::size_t count,
                                  const SyntheticImageConfig& config) {
  std::vector<std::uint32_t> all(count);
  std::iota(all.begin(), all.end(), std::uint32_t{0});
  return render_synthetic_images(plan_synthetic_images(count, config),
                                 std::move(all));
}

}  // namespace roadrunner::data

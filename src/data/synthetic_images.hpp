// Procedural 10-class image generator: the CIFAR-10 stand-in.
//
// The paper's experiment uses CIFAR-10 only as "a representative of an
// automotive image recognition problem" (§5.2) — a supervised 10-class image
// task that a small CNN learns gradually. Since the real dataset is not
// available offline, we synthesize one with the same tensor geometry
// (32x32x3 by default) and the same *learning-dynamics* properties:
//  * classes are parametric textures (oriented stripes, checkers, rings,
//    blobs, gradients) that overlap under noise, so accuracy climbs smoothly
//    with the amount of aggregated training data instead of saturating
//    instantly;
//  * per-sample nuisance variation (random phase, spatial shift, per-channel
//    gain, additive Gaussian noise) makes memorization of 80 local samples
//    insufficient — exactly the regime where federated aggregation helps.
// See DESIGN.md §1 (substitution table).
//
// The build has two passes. plan_synthetic_images walks the one seeded
// stream: it draws every label and saves the Rng state each image starts
// from, jumping past the pixel draws. render_synthetic_images then renders
// any subset of the planned images, in parallel, into a row-mapped Dataset
// (ml/dataset.hpp) that carries all N labels. A rendered sample's bytes do
// not depend on which other rows are rendered, so a scenario can split and
// partition on the labels and render only the rows its views reference.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "ml/dataset.hpp"
#include "util/rng.hpp"

namespace roadrunner::data {

struct SyntheticImageConfig {
  std::size_t side = 32;           ///< square image side in pixels
  std::size_t channels = 3;
  std::size_t num_classes = 10;    ///< up to 10 pattern families
  double noise_sigma = 0.5;        ///< additive Gaussian pixel noise
  double gain_jitter = 0.35;       ///< per-sample per-channel gain spread
  int max_shift = 5;               ///< uniform spatial shift in pixels
  std::uint64_t seed = 42;
};

/// Pass 1: the labels of `count` images and where each image's draws begin.
struct SyntheticImagePlan {
  SyntheticImageConfig config;
  std::vector<std::int32_t> labels;
  std::vector<std::array<std::uint64_t, 4>> starts;  ///< Rng state per image
};

/// Plans `count` images with uniformly distributed labels. Deterministic
/// given the config (including seed). Costs microseconds per image.
SyntheticImagePlan plan_synthetic_images(
    std::size_t count, const SyntheticImageConfig& config = {});

/// Pass 2: renders the planned images named in `rows` (any order,
/// duplicates allowed) into a Dataset of all the plan's labels whose row map
/// holds the rendered ones in ascending index order. Throws
/// std::out_of_range for an index past the plan.
ml::Dataset render_synthetic_images(const SyntheticImagePlan& plan,
                                    std::vector<std::uint32_t> rows);

/// Plans and renders all `count` samples: a dense Dataset.
ml::Dataset make_synthetic_images(std::size_t count,
                                  const SyntheticImageConfig& config = {});

/// Renders one sample of class `label` using draws from `rng`; exposed for
/// tests and for streaming generation. Output tensor is [C, S, S].
ml::Tensor render_synthetic_image(std::int32_t label,
                                  const SyntheticImageConfig& config,
                                  util::Rng& rng);

}  // namespace roadrunner::data

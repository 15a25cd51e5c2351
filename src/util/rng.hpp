// Deterministic random number generation for the whole framework.
//
// Every stochastic component (mobility, data partitioning, channel loss,
// strategy sampling) owns its own Rng seeded from a master seed through
// `Rng::fork(tag)`. Forking is stable: the same (seed, tag) pair always
// yields the same stream, so adding a new consumer never perturbs existing
// ones. This is what makes whole-simulation runs reproducible byte-for-byte
// (see DESIGN.md §4, decision 1).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

namespace roadrunner::util {

/// xoshiro256** by Blackman & Vigna: fast, high-quality, 256-bit state.
/// Satisfies std::uniform_random_bit_generator so it can drive <random>
/// distributions, though we provide the distributions we need directly to
/// guarantee cross-platform determinism (libstdc++ vs libc++ distributions
/// may differ; our own code does not).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from `seed` via SplitMix64, per the
  /// reference implementation's recommendation.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next(); }

  std::uint64_t next();

  /// Uniform in [0, n). Uses Lemire's multiply-shift rejection method to be
  /// exactly uniform. Precondition: n > 0.
  std::uint64_t next_below(std::uint64_t n);

  /// Uniform integer in the inclusive range [lo, hi]. Precondition: lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform();

  /// Uniform double in [lo, hi). Precondition: lo <= hi.
  double uniform(double lo, double hi);

  /// Standard normal via Box–Muller (deterministic, no cached spare so that
  /// the consumed stream length per call is fixed).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Exponential with the given rate (mean 1/rate). Precondition: rate > 0.
  double exponential(double rate);

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Precondition: at least one weight > 0, none negative.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Draws a Gamma(shape, 1) variate (Marsaglia–Tsang); used by the
  /// Dirichlet data partitioner. Precondition: shape > 0.
  double gamma(double shape);

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[next_below(i)]);
    }
  }

  /// Picks k distinct indices from [0, n) without replacement, in random
  /// order. Precondition: k <= n.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// Derives an independent child stream identified by `tag`. Stable across
  /// runs and across unrelated fork calls.
  Rng fork(std::string_view tag) const;

  // ----- checkpointing ------------------------------------------------------
  /// The generator's complete state: the four xoshiro256** words in order.
  /// Together with set_state() this makes the stream position serializable
  /// without depending on any stdlib distribution internals — every
  /// distribution above is implemented in this class from raw next() draws,
  /// so a (state, call-sequence) pair produces bit-identical values on every
  /// platform and standard library. save = state(); restore = set_state();
  /// the restored stream continues exactly where the saved one stopped.
  [[nodiscard]] std::array<std::uint64_t, 4> state() const {
    return {s_[0], s_[1], s_[2], s_[3]};
  }

  /// Restores a state captured by state(). The all-zero state is invalid
  /// for xoshiro256** (the stream would be stuck at 0) and throws
  /// std::invalid_argument.
  void set_state(const std::array<std::uint64_t, 4>& state);

  /// The four state words as an archive field list (util/archive.hpp).
  template <class Ar>
  void fields(Ar& ar) {
    for (std::uint64_t& word : s_) ar(word);
    ar.check((s_[0] | s_[1] | s_[2] | s_[3]) != 0, "all-zero RNG state");
  }

  // ----- jump-ahead ---------------------------------------------------------
  /// Advances a generator by a fixed number of next() calls in O(1). The
  /// xoshiro256** state update is linear over GF(2), so n steps are one
  /// 256x256 bit matrix; Skip builds it once (by repeated squaring, O(log n)
  /// matrix products) and apply() is 256 masked 4-word XORs, however large n
  /// is. This lets a producer step past a consumer's draws without making
  /// them — valid only when the consumer's draw count is fixed (normal() is
  /// always two next() calls; next_below() is not, it may reject).
  class Skip {
   public:
    explicit Skip(std::uint64_t n);
    /// Leaves `rng` exactly where n calls to rng.next() would.
    void apply(Rng& rng) const;

   private:
    using State = std::array<std::uint64_t, 4>;
    /// Column b is the image of the state with only bit b set.
    std::array<State, 256> columns_;
  };

 private:
  std::uint64_t s_[4];
};

/// SplitMix64 step; exposed for seed-derivation in tests.
std::uint64_t splitmix64(std::uint64_t& state);

}  // namespace roadrunner::util

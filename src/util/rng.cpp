#include "util/rng.hpp"

#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace roadrunner::util {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// The xoshiro256** state transition; shared by next() and Skip so the jump
/// matrix is built from exactly the step the stream takes.
inline void step(std::uint64_t* s) {
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
}

using State = std::array<std::uint64_t, 4>;
using Matrix = std::array<State, 256>;

/// m·v over GF(2): XOR of the columns of m selected by v's set bits.
State multiply(const Matrix& m, const State& v) {
  State out{};
  for (std::size_t w = 0; w < 4; ++w) {
    for (std::size_t b = 0; b < 64; ++b) {
      const std::uint64_t mask = -((v[w] >> b) & 1U);
      const State& col = m[w * 64 + b];
      for (std::size_t k = 0; k < 4; ++k) out[k] ^= col[k] & mask;
    }
  }
  return out;
}

/// a·b: column i of the product is a applied to column i of b.
Matrix multiply(const Matrix& a, const Matrix& b) {
  Matrix out;
  for (std::size_t i = 0; i < 256; ++i) out[i] = multiply(a, b[i]);
  return out;
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  step(s_);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument{"Rng::next_below: n must be > 0"};
  // Lemire's method with rejection for exact uniformity.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = -n % n;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument{"Rng::uniform_int: lo > hi"};
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  // span == 0 means the full 64-bit range.
  const std::uint64_t draw = (span == 0) ? next() : next_below(span);
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + draw);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  if (lo > hi) throw std::invalid_argument{"Rng::uniform: lo > hi"};
  return lo + (hi - lo) * uniform();
}

double Rng::normal() {
  // Box–Muller; draw u1 in (0,1] to avoid log(0).
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::exponential(double rate) {
  if (rate <= 0) throw std::invalid_argument{"Rng::exponential: rate <= 0"};
  return -std::log(1.0 - uniform()) / rate;
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) {
    if (w < 0) throw std::invalid_argument{"Rng::weighted_index: negative"};
    total += w;
  }
  if (total <= 0) {
    throw std::invalid_argument{"Rng::weighted_index: no positive weight"};
  }
  double point = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    point -= weights[i];
    if (point < 0) return i;
  }
  return weights.size() - 1;  // numeric fallback: point landed on the edge
}

double Rng::gamma(double shape) {
  if (shape <= 0) throw std::invalid_argument{"Rng::gamma: shape <= 0"};
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia–Tsang small-shape trick).
    const double u = uniform();
    return gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = normal();
    double v = 1.0 + c * x;
    if (v <= 0) continue;
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  if (k > n) {
    throw std::invalid_argument{"Rng::sample_without_replacement: k > n"};
  }
  // Partial Fisher–Yates over an index array: O(n) init, O(k) draws.
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + next_below(n - i);
    std::swap(idx[i], idx[j]);
    out.push_back(idx[i]);
  }
  return out;
}

void Rng::set_state(const std::array<std::uint64_t, 4>& state) {
  if (state[0] == 0 && state[1] == 0 && state[2] == 0 && state[3] == 0) {
    throw std::invalid_argument{"Rng::set_state: all-zero state"};
  }
  for (std::size_t i = 0; i < 4; ++i) s_[i] = state[i];
}

Rng::Skip::Skip(std::uint64_t n) {
  // power = T^(2^k) as k walks n's bits; columns_ accumulates the product
  // of the powers whose bit is set. Powers of one matrix commute, so the
  // order of the factors does not matter.
  Matrix power;
  for (std::size_t i = 0; i < 256; ++i) {
    State basis{};
    basis[i / 64] = std::uint64_t{1} << (i % 64);
    columns_[i] = basis;  // identity
    step(basis.data());
    power[i] = basis;     // one step
  }
  for (; n != 0; n >>= 1) {
    if (n & 1U) columns_ = multiply(power, columns_);
    if (n > 1) power = multiply(power, power);
  }
}

void Rng::Skip::apply(Rng& rng) const {
  const State out = multiply(columns_, rng.state());
  for (std::size_t k = 0; k < 4; ++k) rng.s_[k] = out[k];
}

Rng Rng::fork(std::string_view tag) const {
  // FNV-1a over the tag, mixed with this stream's state-derived identity.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  std::uint64_t mix = s_[0] ^ rotl(s_[2], 13) ^ h;
  return Rng{splitmix64(mix)};
}

}  // namespace roadrunner::util

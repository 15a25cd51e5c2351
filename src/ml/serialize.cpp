#include "ml/serialize.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace roadrunner::ml {

namespace {

std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t& pos) {
  if (in.size() - pos < 4) {
    throw std::runtime_error{"deserialize_weights: truncated header"};
  }
  const std::uint32_t v = static_cast<std::uint32_t>(in[pos]) |
                          (static_cast<std::uint32_t>(in[pos + 1]) << 8) |
                          (static_cast<std::uint32_t>(in[pos + 2]) << 16) |
                          (static_cast<std::uint32_t>(in[pos + 3]) << 24);
  pos += 4;
  return v;
}

}  // namespace

std::vector<std::uint8_t> serialize_weights(const Weights& w) {
  std::vector<std::uint8_t> out;
  out.reserve(weights_byte_size(w));
  encode_weights(w, [&out](const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    out.insert(out.end(), p, p + size);
  });
  return out;
}

Weights deserialize_weights(std::span<const std::uint8_t> bytes) {
  std::size_t pos = 0;
  const std::uint32_t count = get_u32(bytes, pos);
  Weights w;
  // Each tensor takes at least its 4-byte rank: a hostile count cannot
  // reserve more than the input could hold.
  w.reserve(std::min<std::size_t>(count, (bytes.size() - pos) / 4));
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t rank = get_u32(bytes, pos);
    if (rank > 8) throw std::runtime_error{"deserialize_weights: bad rank"};
    std::vector<std::size_t> shape(rank);
    for (std::uint32_t d = 0; d < rank; ++d) {
      shape[d] = get_u32(bytes, pos);
    }
    std::size_t volume = rank == 0 ? 0 : 1;  // as shape_volume()
    bool overflow = false;
    for (const std::size_t d : shape) {
      overflow = overflow || __builtin_mul_overflow(volume, d, &volume);
    }
    if (overflow || volume > (bytes.size() - pos) / sizeof(float)) {
      throw std::runtime_error{"deserialize_weights: truncated payload"};
    }
    const std::size_t payload = volume * sizeof(float);
    std::vector<float> data(volume);
    if (payload != 0) std::memcpy(data.data(), bytes.data() + pos, payload);
    pos += payload;
    w.emplace_back(std::move(shape), std::move(data));
  }
  if (pos != bytes.size()) {
    throw std::runtime_error{"deserialize_weights: trailing bytes"};
  }
  return w;
}

}  // namespace roadrunner::ml

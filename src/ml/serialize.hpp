// Model (de)serialization. The byte format is what the communication module
// "transmits": little-endian u32 tensor count, then per tensor u32 rank,
// u32 dims, raw float32 payload. weights_byte_size() in ml/net.hpp is kept
// in sync with this layout (round-trip tested).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ml/net.hpp"

namespace roadrunner::ml {

/// The one encoder of the byte format above. Hands the bytes, in order, to
/// `put(const void* data, std::size_t size)`: each header field as four
/// little-endian bytes, each tensor's payload straight from its storage.
/// serialize_weights() and the checkpoint writer both encode through it.
template <typename Put>
void encode_weights(const Weights& w, Put&& put) {
  if (w.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument{"serialize_weights: too many tensors"};
  }
  const auto put_u32 = [&put](std::size_t v) {
    const unsigned char le[4] = {
        static_cast<unsigned char>(v), static_cast<unsigned char>(v >> 8),
        static_cast<unsigned char>(v >> 16),
        static_cast<unsigned char>(v >> 24)};
    put(le, sizeof le);
  };
  put_u32(w.size());
  for (const Tensor& t : w) {
    put_u32(t.rank());
    for (std::size_t d = 0; d < t.rank(); ++d) put_u32(t.dim(d));
    put(t.data(), t.size() * sizeof(float));
  }
}

/// Archive field (util/archive.hpp) for a model: a u64 length, then the
/// format above — the bytes of `bytes(serialize_weights(w))`. The writer
/// encodes straight from the tensors and back-patches the length.
template <class Ar>
void fields(Ar& ar, Weights& w);

/// Serializes weights into a byte buffer.
std::vector<std::uint8_t> serialize_weights(const Weights& w);

/// Parses bytes produced by serialize_weights (or encode_weights).
/// Throws std::runtime_error on truncated or malformed input.
Weights deserialize_weights(std::span<const std::uint8_t> bytes);

/// Persists a model to disk ("RRWT" magic + the wire format above) — the
/// paper's prototype likewise keeps "models stored as files on disk"
/// (§5.1), enabling checkpointing and cross-run model hand-off.
void save_weights(const Weights& weights, const std::string& path);

/// Loads a model written by save_weights. Throws std::runtime_error on
/// missing or malformed files.
Weights load_weights(const std::string& path);

template <class Ar>
void fields(Ar& ar, Weights& w) {
  if constexpr (Ar::kLoading) {
    const std::string_view bytes = ar.in().view(ar.in().u64());
    w = bytes.empty()
            ? Weights{}
            : deserialize_weights(
                  {reinterpret_cast<const std::uint8_t*>(bytes.data()),
                   bytes.size()});
  } else {
    auto& out = ar.out();
    const std::size_t at = out.size();
    out.u64(0);
    encode_weights(w, [&out](const void* data, std::size_t size) {
      out.raw(data, size);
    });
    out.patch_u64(at, out.size() - at - sizeof(std::uint64_t));
  }
}

}  // namespace roadrunner::ml

// The bytewise CRC-32 loop util::crc32 used before it moved to
// slicing-by-8, kept as the test oracle for it and for whole snapshots.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace roadrunner::testing {

inline std::uint32_t crc32_bytewise(const void* data, std::size_t size,
                                    std::uint32_t seed = 0) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFU;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFU;
}

}  // namespace roadrunner::testing

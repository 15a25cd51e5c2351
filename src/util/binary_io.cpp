#include "util/binary_io.hpp"

#include <array>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define RR_HAVE_FSYNC 1
#endif

namespace roadrunner::util {

namespace {

// Slicing-by-8 tables: table[0] is the classic bytewise CRC table, and
// table[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups fold eight input bytes into the CRC at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

std::uint32_t load_le32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return detail::to_le(v);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const CrcTables t = make_crc_tables();
  std::uint32_t c = seed ^ 0xFFFFFFFFU;
  const auto* p = static_cast<const unsigned char*>(data);
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFU;
}

void sync_file(const std::string& path) {
#ifdef RR_HAVE_FSYNC
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) {
    throw std::runtime_error{"sync_file: cannot open " + path};
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    throw std::runtime_error{"sync_file: fsync failed on " + path};
  }
#else
  (void)path;
#endif
}

void sync_dir(const std::string& path) {
#ifdef RR_HAVE_FSYNC
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error{"sync_dir: cannot open " + path};
  }
  // Some filesystems refuse fsync on directories; that is not a durability
  // bug we can fix, so only open() failures are fatal.
  ::fsync(fd);
  ::close(fd);
#else
  (void)path;
#endif
}

}  // namespace roadrunner::util

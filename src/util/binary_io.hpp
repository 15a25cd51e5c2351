// Little-endian binary (de)serialization primitives for the checkpoint
// subsystem (and any other module that needs a portable byte format).
//
// BinWriter appends fixed-width scalars, strings, and containers to an
// in-memory buffer; BinReader consumes the same layout and throws
// std::runtime_error on any truncation or overrun instead of reading
// garbage. The layout is explicitly little-endian and fixed-width, so a
// snapshot written on one platform restores on any other.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace roadrunner::ml {
// The snapshot model table (ml/serialize.hpp) that model fields of a
// BinWriter/BinReader go through when one is attached.
class ModelSink;
class ModelTableView;
}  // namespace roadrunner::ml

namespace roadrunner::util {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte range,
/// eight bytes per step (slicing-by-8).
/// `seed` allows incremental computation: crc32(b, crc32(a)) == crc32(a+b)
/// holds via the conventional pre/post inversion handled internally.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

/// Flushes a file's contents to stable storage (POSIX fsync). No-op on
/// platforms without fsync. Throws std::runtime_error on failure.
void sync_file(const std::string& path);

/// Flushes a directory entry to stable storage so a just-renamed file
/// survives a crash (fsync on the directory fd). No-op where unsupported.
void sync_dir(const std::string& path);

namespace detail {

/// `v` in little-endian byte order: the identity on little-endian hosts,
/// a byte swap on big-endian ones.
template <typename T>
T to_le(T v) {
  if constexpr (std::endian::native == std::endian::big) {
    T r = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      r = static_cast<T>((r << 8) | ((v >> (8 * i)) & 0xFF));
    }
    return r;
  }
  return v;
}

}  // namespace detail

class BinWriter {
 public:
  void u8(std::uint8_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) { put_le(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// u64 length + raw bytes.
  void str(std::string_view s) {
    u64(s.size());
    raw(s.data(), s.size());
  }
  void bytes(const std::vector<std::uint8_t>& b) {
    u64(b.size());
    raw(b.data(), b.size());
  }
  /// Raw bytes with no length prefix (for fixed-layout headers).
  void raw(const void* data, std::size_t size) {
    buf_.append(static_cast<const char*>(data), size);
  }

  /// Overwrites the u32/u64 written earlier at byte offset `at` — for a
  /// count or length known only after its payload is written.
  void patch_u32(std::size_t at, std::uint32_t v) { patch_le(at, v); }
  void patch_u64(std::size_t at, std::uint64_t v) { patch_le(at, v); }

  /// Empties the buffer but keeps its capacity, so a writer reused across
  /// many images allocates only when one outgrows every earlier one.
  void clear() { buf_.clear(); }

  /// The table that model fields written here are interned into (snapshot
  /// format v6); null, the default, writes each model inline.
  void set_models(ml::ModelSink* models) { models_ = models; }
  [[nodiscard]] ml::ModelSink* models() const { return models_; }

  [[nodiscard]] const std::string& buffer() const { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void put_le(T v) {
    const T le = detail::to_le(v);
    buf_.append(reinterpret_cast<const char*>(&le), sizeof le);
  }
  template <typename T>
  void patch_le(std::size_t at, T v) {
    if (at > buf_.size() || buf_.size() - at < sizeof(T)) {
      throw std::out_of_range{"BinWriter: patch past the end of the buffer"};
    }
    const T le = detail::to_le(v);
    std::memcpy(buf_.data() + at, &le, sizeof le);
  }
  std::string buf_;
  ml::ModelSink* models_ = nullptr;
};

class BinReader {
 public:
  explicit BinReader(std::string_view data) : data_{data} {}

  std::uint8_t u8() { return read_le<std::uint8_t>(); }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }

  std::string str() { return std::string{view(u64())}; }
  std::vector<std::uint8_t> bytes() {
    const std::string_view b = view(u64());
    return std::vector<std::uint8_t>(b.begin(), b.end());
  }
  /// The next `n` bytes, uncopied; the view lives as long as the input.
  std::string_view view(std::uint64_t n) {
    const std::string_view v = data_.substr(pos_, len(n));
    pos_ += v.size();
    return v;
  }
  /// A sub-reader over the next `n` bytes; advances this reader past them.
  BinReader sub(std::uint64_t n) { return BinReader{view(n)}; }

  /// The table that model fields read here refer into (snapshot format
  /// v6); null, the default, reads each model inline.
  void set_models(const ml::ModelTableView* models) { models_ = models; }
  [[nodiscard]] const ml::ModelTableView* models() const { return models_; }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }

 private:
  // Length fields come off the wire as u64; the comparison must happen in
  // 64 bits so a hostile length cannot wrap through a size_t narrowing on
  // 32-bit hosts. Called before every read/allocation: a length larger
  // than the remaining bytes is a clean error, never an allocation.
  void need(std::uint64_t n) const {
    const std::uint64_t left = data_.size() - pos_;
    if (n > left) truncated(n, left);
  }
  // Out of line and noreturn: keeps every scalar read a compare and a
  // load, and lets GCC see that nothing past a failed need() runs.
  [[noreturn, gnu::cold, gnu::noinline]] static void truncated(
      std::uint64_t n, std::uint64_t left) {
    throw std::runtime_error{"BinReader: truncated input (need " +
                             std::to_string(n) + " byte(s), " +
                             std::to_string(left) + " left)"};
  }
  std::uint64_t len(std::uint64_t n) const {
    need(n);
    return n;
  }
  template <typename T>
  T read_le() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof v);
    pos_ += sizeof(T);
    return detail::to_le(v);
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  const ml::ModelTableView* models_ = nullptr;
};

}  // namespace roadrunner::util

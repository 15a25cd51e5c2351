// Truncation and hostile-length regression tests for util::BinReader /
// BinWriter — the primitives every untrusted parser (RRCK snapshots, the
// dist wire protocol) is built on. A length field larger than the
// remaining bytes must be a clean runtime_error before any allocation,
// mirroring the dist recv_exact fix. Also pins the encodings the one-pass
// snapshot writer relies on to their bytewise references: the CRC, the
// scalar layout, the back-patch helpers, and the in-place weight encoder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "crc32_reference.hpp"
#include "ml/serialize.hpp"
#include "util/archive.hpp"
#include "util/binary_io.hpp"
#include "util/rng.hpp"

namespace roadrunner::util {
namespace {

TEST(BinaryIo, ScalarRoundTrip) {
  BinWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(3.5);
  w.boolean(true);
  w.str("hello");
  w.bytes({1, 2, 3});

  BinReader r{w.buffer()};
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEF);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.5);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.bytes(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(r.done());
}

TEST(BinaryIo, LayoutIsLittleEndian) {
  BinWriter w;
  w.u32(0x04030201);
  const std::string& b = w.buffer();
  ASSERT_EQ(b.size(), 4U);
  EXPECT_EQ(static_cast<unsigned char>(b[0]), 0x01);
  EXPECT_EQ(static_cast<unsigned char>(b[3]), 0x04);
}

TEST(BinaryIo, EmptyReaderThrowsOnEveryScalar) {
  EXPECT_THROW(BinReader{""}.u8(), std::runtime_error);
  EXPECT_THROW(BinReader{""}.u32(), std::runtime_error);
  EXPECT_THROW(BinReader{""}.u64(), std::runtime_error);
  EXPECT_THROW(BinReader{""}.f64(), std::runtime_error);
  EXPECT_THROW(BinReader{""}.str(), std::runtime_error);
  EXPECT_THROW(BinReader{""}.bytes(), std::runtime_error);
}

TEST(BinaryIo, TruncatedScalarThrows) {
  BinWriter w;
  w.u32(7);
  const std::string buf = w.buffer().substr(0, 3);
  BinReader r{buf};
  EXPECT_THROW(r.u32(), std::runtime_error);
}

// The core hostile-length case: a string whose u64 length prefix claims
// far more than the remaining bytes. Must throw cleanly — never allocate
// the claimed size, never assert.
TEST(BinaryIo, StringLengthBeyondRemainingThrows) {
  BinWriter w;
  w.u64(1ULL << 40);  // ~1 TiB claimed, zero payload present
  BinReader r{w.buffer()};
  EXPECT_THROW(r.str(), std::runtime_error);
}

TEST(BinaryIo, StringLengthMaxU64Throws) {
  BinWriter w;
  w.u64(std::numeric_limits<std::uint64_t>::max());
  BinReader r{w.buffer()};
  // On 32-bit size_t this length would wrap to SIZE_MAX through a
  // narrowing compare; the 64-bit need() must reject it either way.
  EXPECT_THROW(r.str(), std::runtime_error);
}

TEST(BinaryIo, BytesLengthBeyondRemainingThrows) {
  BinWriter w;
  w.u64(1ULL << 40);
  w.raw("xy", 2);
  BinReader r{w.buffer()};
  EXPECT_THROW(r.bytes(), std::runtime_error);
}

TEST(BinaryIo, BytesOffByOneThrows) {
  BinWriter w;
  w.u64(3);
  w.raw("ab", 2);  // one byte short of the claimed 3
  BinReader r{w.buffer()};
  EXPECT_THROW(r.bytes(), std::runtime_error);
}

TEST(BinaryIo, SubReaderBeyondRemainingThrows) {
  BinWriter w;
  w.u32(1);
  BinReader r{w.buffer()};
  EXPECT_THROW(r.sub(5), std::runtime_error);
  EXPECT_THROW(r.sub(std::numeric_limits<std::uint64_t>::max()),
               std::runtime_error);
}

TEST(BinaryIo, SubReaderIsBoundedView) {
  BinWriter w;
  w.u32(0x11111111);
  w.u32(0x22222222);
  BinReader r{w.buffer()};
  BinReader s = r.sub(4);
  EXPECT_EQ(s.u32(), 0x11111111U);
  EXPECT_THROW(s.u32(), std::runtime_error);  // view ends, outer data hidden
  EXPECT_EQ(r.u32(), 0x22222222U);            // outer reader skipped the view
}

TEST(BinaryIo, TruncationErrorIsActionable) {
  BinWriter w;
  w.u64(100);
  try {
    BinReader r{w.buffer()};
    (void)r.str();
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
    EXPECT_NE(msg.find("100"), std::string::npos) << msg;  // needed bytes
  }
}

TEST(BinaryIo, ReaderStateSurvivesFailedRead) {
  BinWriter w;
  w.u64(1ULL << 40);
  w.raw("payload", 7);
  BinReader r{w.buffer()};
  EXPECT_THROW(r.str(), std::runtime_error);
  // The failed read consumed only the length prefix; remaining() reflects
  // the bytes still available (callers treat the stream as poisoned, but
  // the reader must not have advanced past the end).
  EXPECT_EQ(r.remaining(), 7U);
}

TEST(BinaryIo, Crc32MatchesKnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926U);
  // Incremental seeding composes.
  const std::uint32_t partial = crc32("12345", 5);
  EXPECT_EQ(crc32("6789", 4, partial), 0xCBF43926U);
}

std::string random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  std::string b(n, '\0');
  for (char& c : b) c = static_cast<char>(rng.next() & 0xFF);
  return b;
}

TEST(BinaryIo, Crc32MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0..64 at start offsets 0..7 cover every alignment and every
  // tail length of the eight-byte stride.
  const std::string buf = random_bytes(64 + 8, 1);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(crc32(buf.data() + off, len),
                testing::crc32_bytewise(buf.data() + off, len))
          << "offset " << off << ", length " << len;
    }
  }
  const std::string big = random_bytes(1 << 20, 2);
  EXPECT_EQ(crc32(big.data(), big.size()),
            testing::crc32_bytewise(big.data(), big.size()));
}

TEST(BinaryIo, Crc32ComposesAtEverySplit) {
  const std::string ab = random_bytes(1000, 3);
  const std::uint32_t whole = crc32(ab.data(), ab.size());
  for (const std::size_t split : {0, 1, 3, 7, 8, 9, 64, 500, 999, 1000}) {
    const std::uint32_t a = crc32(ab.data(), split);
    EXPECT_EQ(crc32(ab.data() + split, ab.size() - split, a), whole)
        << "split at " << split;
  }
}

TEST(BinaryIo, ScalarsMatchBytewiseLittleEndian) {
  const auto le = [](std::uint64_t v, std::size_t n) {
    std::string b;
    for (std::size_t i = 0; i < n; ++i) {
      b.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
    return b;
  };
  Rng rng{4};
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t v = rng.next();
    const double d = rng.uniform(-1e6, 1e6);
    BinWriter w;
    w.u8(static_cast<std::uint8_t>(v));
    w.u32(static_cast<std::uint32_t>(v));
    w.u64(v);
    w.i64(static_cast<std::int64_t>(v));
    w.f64(d);
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    EXPECT_EQ(w.buffer(),
              le(v, 1) + le(v, 4) + le(v, 8) + le(v, 8) + le(bits, 8));
    BinReader r{w.buffer()};
    EXPECT_EQ(r.u8(), static_cast<std::uint8_t>(v));
    EXPECT_EQ(r.u32(), static_cast<std::uint32_t>(v));
    EXPECT_EQ(r.u64(), v);
    EXPECT_EQ(r.i64(), static_cast<std::int64_t>(v));
    EXPECT_EQ(r.f64(), d);
    EXPECT_TRUE(r.done());
  }
}

TEST(BinaryIo, PatchOverwritesAFieldInPlace) {
  BinWriter patched;
  patched.u8(7);
  const std::size_t count_at = patched.size();
  patched.u32(0);
  const std::size_t size_at = patched.size();
  patched.u64(0);
  patched.str("payload");
  patched.patch_u32(count_at, 0xA1B2C3D4U);
  patched.patch_u64(size_at, 0x0102030405060708ULL);

  BinWriter direct;
  direct.u8(7);
  direct.u32(0xA1B2C3D4U);
  direct.u64(0x0102030405060708ULL);
  direct.str("payload");
  EXPECT_EQ(patched.buffer(), direct.buffer());

  // A patch must land wholly inside what was written.
  EXPECT_THROW(patched.patch_u64(patched.size() - 7, 1), std::out_of_range);
  EXPECT_THROW(patched.patch_u32(patched.size() + 1, 1), std::out_of_range);
  EXPECT_NO_THROW(patched.patch_u32(patched.size() - 4, 1));
}

TEST(BinaryIo, ClearEmptiesButKeepsCapacity) {
  BinWriter w;
  w.str(std::string(4096, 'x'));
  const std::size_t capacity = w.buffer().capacity();
  w.clear();
  EXPECT_EQ(w.size(), 0U);
  EXPECT_EQ(w.buffer().capacity(), capacity);
  // A smaller image written after a larger one carries no stale tail.
  w.u32(0x04030201);
  BinWriter fresh;
  fresh.u32(0x04030201);
  EXPECT_EQ(w.buffer(), fresh.buffer());
}

TEST(BinaryIo, ViewReturnsTheNextBytesUncopied) {
  BinWriter w;
  w.raw("abcdef", 6);
  BinReader r{w.buffer()};
  const std::string_view v = r.view(4);
  EXPECT_EQ(v, "abcd");
  EXPECT_EQ(v.data(), w.buffer().data());
  EXPECT_THROW(r.view(3), std::runtime_error);
  EXPECT_EQ(r.view(2), "ef");
  EXPECT_TRUE(r.done());
}

ml::Weights sample_weights() {
  Rng rng{5};
  const auto tensor = [&rng](std::vector<std::size_t> shape) {
    ml::Tensor t{std::move(shape)};
    for (float& v : t.values()) v = static_cast<float>(rng.uniform(-2, 2));
    return t;
  };
  return {tensor({7}), tensor({3, 4}), tensor({2, 3, 5, 5}), tensor({0, 3}),
          ml::Tensor{}};
}

/// A model read through its archive field (ml/serialize.hpp).
ml::Weights read_weights(BinReader& in) {
  ml::Weights w;
  load_fields(in, w, "weights");
  return w;
}

TEST(BinaryIo, WriteWeightsEqualsLengthPrefixedSerializeWeights) {
  for (const ml::Weights& w : {ml::Weights{}, sample_weights()}) {
    BinWriter in_place;
    in_place.u8(0xEE);  // an unaligned start, as inside a section
    save_fields(in_place, w);

    BinWriter reference;
    reference.u8(0xEE);
    reference.bytes(ml::serialize_weights(w));
    EXPECT_EQ(in_place.buffer(), reference.buffer()) << w.size() << " tensors";

    BinReader r{in_place.buffer()};
    EXPECT_EQ(r.u8(), 0xEE);
    const ml::Weights back = read_weights(r);
    EXPECT_TRUE(r.done());
    ASSERT_EQ(back.size(), w.size());
    for (std::size_t i = 0; i < w.size(); ++i) {
      EXPECT_EQ(back[i].shape(), w[i].shape());
      EXPECT_TRUE(std::ranges::equal(back[i].values(), w[i].values()));
    }
  }
}

TEST(BinaryIo, ReadWeightsRejectsMalformedPayloads) {
  // A zero-length field is the empty model.
  BinWriter empty;
  empty.u64(0);
  BinReader r0{empty.buffer()};
  EXPECT_TRUE(read_weights(r0).empty());
  EXPECT_TRUE(r0.done());

  const std::vector<std::uint8_t> good = ml::serialize_weights(sample_weights());
  const auto read = [](const std::vector<std::uint8_t>& payload,
                       std::uint64_t claimed) {
    BinWriter w;
    w.u64(claimed);
    w.raw(payload.data(), payload.size());
    BinReader r{w.buffer()};
    return read_weights(r);
  };
  EXPECT_NO_THROW(read(good, good.size()));
  // The length field overruns the input.
  EXPECT_THROW(read(good, good.size() + 1), std::runtime_error);
  // The payload stops short of its tensors, or carries trailing bytes.
  EXPECT_THROW(read({good.begin(), good.end() - 1}, good.size() - 1),
               std::runtime_error);
  std::vector<std::uint8_t> trailing = good;
  trailing.push_back(0);
  EXPECT_THROW(read(trailing, trailing.size()), std::runtime_error);
  // A rank past 8, and dimensions whose volume overflows size_t.
  std::vector<std::uint8_t> bad_rank = {1, 0, 0, 0, 9, 0, 0, 0};
  EXPECT_THROW(read(bad_rank, bad_rank.size()), std::runtime_error);
  std::vector<std::uint8_t> huge = {1, 0, 0, 0, 3, 0, 0, 0};
  for (int d = 0; d < 3; ++d) huge.insert(huge.end(), {0xFF, 0xFF, 0xFF, 0xFF});
  EXPECT_THROW(read(huge, huge.size()), std::runtime_error);
  // A hostile tensor count fails cleanly instead of reserving it.
  std::vector<std::uint8_t> many = {0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_THROW(read(many, many.size()), std::runtime_error);
}

}  // namespace
}  // namespace roadrunner::util

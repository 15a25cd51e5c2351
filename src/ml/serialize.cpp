#include "ml/serialize.hpp"

#include <algorithm>
#include <bit>
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

/// Values sampled per tensor for a model's fingerprint.
constexpr std::size_t kFingerprintSamples = 16;

/// A cheap function of a model's encoding: the shapes and up to
/// kFingerprintSamples values spread over each tensor, so equal models
/// always agree and most unequal ones differ without a full pass.
std::uint64_t fingerprint(const Weights& w) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 0x100000001b3ULL;
    h ^= h >> 29;
  };
  mix(w.size());
  for (const Tensor& t : w) {
    mix(t.rank());
    for (std::size_t d = 0; d < t.rank(); ++d) mix(t.dim(d));
    const std::size_t step = t.size() / kFingerprintSamples + 1;
    for (std::size_t i = 0; i < t.size(); i += step) {
      mix(std::bit_cast<std::uint32_t>(t.data()[i]));
    }
  }
  return h;
}

constexpr std::uint32_t kNoEntry = UINT32_MAX;

}  // namespace

void ModelTable::clear() {
  bytes_.clear();
  bytes_.u64(0);  // the entry count, patched by seal()
  entries_.clear();
  newest_.clear();
  shared_ = 0;
}

bool ModelTable::same(const Entry& e, const Weights& w) const {
  if (e.size != weights_byte_size(w)) return false;
  const char* at = bytes_.buffer().data() + e.begin;
  bool equal = true;
  encode_weights(w, [&](const void* data, std::size_t size) {
    equal = equal && std::memcmp(at, data, size) == 0;
    at += size;
  });
  return equal;
}

std::uint32_t ModelTable::intern(const Weights& w) {
  std::uint32_t& newest =
      newest_.try_emplace(fingerprint(w), kNoEntry).first->second;
  for (std::uint32_t i = newest; i != kNoEntry; i = entries_[i].next) {
    if (same(entries_[i], w)) {
      ++shared_;
      return i;
    }
  }
  if (entries_.size() >= kNoEntry) {
    throw std::length_error{"ModelTable: too many distinct models"};
  }
  const std::size_t size = weights_byte_size(w);
  bytes_.u64(size);
  const std::size_t begin = bytes_.size();
  encode_weights(w, [this](const void* data, std::size_t n) {
    bytes_.raw(data, n);
  });
  const auto index = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back({begin, size, newest});
  newest = index;
  return index;
}

const std::string& ModelTable::seal() {
  bytes_.patch_u64(0, entries_.size());
  return bytes_.buffer();
}

ModelTableView::ModelTableView(std::string_view payload,
                               std::string_view context)
    : present_{true} {
  const auto fail = [context](const std::string& what) {
    throw std::runtime_error{std::string{context} + ": " + what};
  };
  util::BinReader in{payload};
  if (in.remaining() < sizeof(std::uint64_t)) fail("no entry count");
  const std::uint64_t count = in.u64();
  // Each entry takes its u64 length at least.
  if (count > in.remaining() / sizeof(std::uint64_t)) {
    fail("count " + std::to_string(count) + " exceeds the " +
         std::to_string(in.remaining()) + " bytes left");
  }
  models_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto overrun = [&] {
      fail("entry " + std::to_string(i) + " overruns the section (" +
           std::to_string(in.remaining()) + " bytes left)");
    };
    if (in.remaining() < sizeof(std::uint64_t)) overrun();
    const std::uint64_t size = in.u64();
    if (size > in.remaining()) overrun();
    const std::string_view bytes = in.view(size);
    try {
      models_.push_back(
          bytes.empty()
              ? Weights{}
              : deserialize_weights(
                    {reinterpret_cast<const std::uint8_t*>(bytes.data()),
                     bytes.size()}));
    } catch (const std::runtime_error& e) {
      fail("entry " + std::to_string(i) + " is not a model (" + e.what() +
           ")");
    }
  }
  if (!in.done()) {
    fail(std::to_string(in.remaining()) + " bytes after the last entry");
  }
}

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

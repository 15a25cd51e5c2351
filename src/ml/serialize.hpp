// Model (de)serialization. The byte format is what the communication module
// "transmits": little-endian u32 tensor count, then per tensor u32 rank,
// u32 dims, raw float32 payload. weights_byte_size() in ml/net.hpp is kept
// in sync with this layout (round-trip tested). Snapshots store each
// distinct model once, in a model table, and refer to it by index.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ml/net.hpp"
#include "util/binary_io.hpp"

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

/// Where model fields go when they are stored by reference (snapshot
/// format v6): intern() returns the index of `w` in the table that the
/// snapshot's model section holds. Attached to a util::BinWriter with
/// set_models().
class ModelSink {
 public:
  virtual ~ModelSink() = default;
  virtual std::uint32_t intern(const Weights& w) = 0;
};

/// The snapshot writer's model table: each distinct model once, in the
/// order first seen. Its payload is a u64 entry count, then per entry the
/// inline model field (a u64 length, then the format above). A model is
/// looked up by a cheap fingerprint (its shapes and a few sampled values),
/// and a match counts only once every byte compares equal, so two models
/// share an entry exactly when their encodings are identical. intern()
/// copies a model's bytes the first time it sees it, so the table never
/// points at a model the caller may free before the frame is sealed.
class ModelTable final : public ModelSink {
 public:
  ModelTable() { clear(); }

  /// Empties the table but keeps its capacity, for the next frame.
  void clear();
  std::uint32_t intern(const Weights& w) override;
  /// The section payload, with the entry count patched in.
  [[nodiscard]] const std::string& seal();

  /// Distinct models stored.
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  /// References that found their model already stored.
  [[nodiscard]] std::size_t shared() const { return shared_; }

 private:
  struct Entry {
    std::size_t begin;  ///< first byte of the encoding in bytes_
    std::size_t size;   ///< encoding length
    std::uint32_t next;  ///< previous entry with the same fingerprint
  };
  [[nodiscard]] bool same(const Entry& e, const Weights& w) const;

  util::BinWriter bytes_;
  std::vector<Entry> entries_;
  /// Fingerprint -> newest entry with it; older ones chain through next.
  std::unordered_map<std::uint64_t, std::uint32_t> newest_;
  std::size_t shared_ = 0;
};

/// The reader's side of a snapshot's model table: every entry decoded
/// once, when the section is read. Attached to a util::BinReader with
/// set_models().
class ModelTableView {
 public:
  /// The table of a snapshot that has no model section: every reference
  /// into it fails.
  ModelTableView() = default;
  /// Decodes a payload in ModelTable's layout. An entry that overruns the
  /// payload, or is not a weights encoding, throws std::runtime_error
  /// prefixed by `context`.
  ModelTableView(std::string_view payload, std::string_view context);

  [[nodiscard]] bool present() const { return present_; }
  [[nodiscard]] std::size_t size() const { return models_.size(); }
  [[nodiscard]] const Weights& operator[](std::size_t i) const {
    return models_[i];
  }

 private:
  bool present_ = false;
  std::vector<Weights> models_;
};

/// Archive field (util/archive.hpp) for a model. With a model table on the
/// stream (snapshot format v6), a u32 index into it; without one (older
/// snapshots, which the restorer reads with no table attached), a u64
/// length, then the format above — the bytes of
/// `bytes(serialize_weights(w))`, encoded straight from the tensors with
/// the length back-patched.
template <class Ar>
void fields(Ar& ar, Weights& w);

/// Serializes weights into a byte buffer.
std::vector<std::uint8_t> serialize_weights(const Weights& w);

/// Parses bytes produced by serialize_weights (or encode_weights).
/// Throws std::runtime_error on truncated or malformed input.
Weights deserialize_weights(std::span<const std::uint8_t> bytes);

template <class Ar>
void fields(Ar& ar, Weights& w) {
  if constexpr (Ar::kLoading) {
    if (const ModelTableView* table = ar.in().models()) {
      const std::uint32_t index = ar.in().u32();
      if (!table->present()) {
        ar.fail("model reference " + std::to_string(index) +
                ", but the snapshot has no model table");
      }
      if (index >= table->size()) {
        ar.fail("model index " + std::to_string(index) +
                " is past the model table (" +
                std::to_string(table->size()) + " entries)");
      }
      w = (*table)[index];
      return;
    }
    const std::string_view bytes = ar.in().view(ar.in().u64());
    w = bytes.empty()
            ? Weights{}
            : deserialize_weights(
                  {reinterpret_cast<const std::uint8_t*>(bytes.data()),
                   bytes.size()});
  } else {
    auto& out = ar.out();
    if (ModelSink* table = out.models()) {
      out.u32(table->intern(w));
      return;
    }
    const std::size_t at = out.size();
    out.u64(0);
    encode_weights(w, [&out](const void* data, std::size_t size) {
      out.raw(data, size);
    });
    out.patch_u64(at, out.size() - at - sizeof(std::uint64_t));
  }
}

}  // namespace roadrunner::ml

// One field list for both directions of a binary format.
//
// A persisted type lists its state once, in a member
//
//   template <class Ar> void fields(Ar& ar) { ar(round_, global_, done_); }
//
// or, for a type that cannot take a member, a free `fields(Ar&, T&)` found
// by argument-dependent lookup. ArchiveWriter runs that function to append
// the fields to a BinWriter; ArchiveReader runs the same function to read
// them back, so the two directions cannot drift apart. What only the reader
// needs (a shape check, the default behind a version gate) sits behind
// `if constexpr (Ar::kLoading)` or goes through `ar.check`.
//
// Wire layout per field type (the checkpoint and dist formats rest on it):
//   bool, 1-byte enums, uint8_t -> u8      uint32_t -> u32
//   uint64_t / size_t -> u64               int, int64_t -> i64
//   double -> f64                          std::string -> u64 length + bytes
//   std::array<T, N> -> N elements, no count
//   vector, deque, set, map -> u64 count + elements (a pair: first, second)
//
// The reader bounds every count by the bytes left: an element takes at
// least min_bytes<T>() on the wire, so a hostile count fails as a
// std::runtime_error naming the reader's context before anything is
// allocated.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/binary_io.hpp"

namespace roadrunner::util {

/// The version a writer produces and an unversioned reader assumes: the
/// newest layout of every field list.
inline constexpr std::uint32_t kLatestLayout = UINT32_MAX;

namespace archive_detail {

/// The containers archived as a u64 count + elements.
template <class T>
struct Counted : std::false_type {};
template <class T, class A>
struct Counted<std::vector<T, A>> : std::true_type {};
template <class T, class A>
struct Counted<std::deque<T, A>> : std::true_type {};
template <class T, class C, class A>
struct Counted<std::set<T, C, A>> : std::true_type {};
template <class K, class V, class C, class A>
struct Counted<std::map<K, V, C, A>> : std::true_type {};

template <class T>
struct Pair : std::false_type {};
template <class A, class B>
struct Pair<std::pair<A, B>> : std::true_type {};

template <class T>
struct Array : std::false_type {};
template <class T, std::size_t N>
struct Array<std::array<T, N>> : std::true_type {};

/// What a reader fills before inserting into a container: a map's
/// value_type has a const key.
template <class T>
struct MutableItem {
  using type = typename T::value_type;
};
template <class K, class V, class C, class A>
struct MutableItem<std::map<K, V, C, A>> {
  using type = std::pair<K, V>;
};
template <class T>
using Mutable = typename MutableItem<T>::type;

template <class T, class Ar>
concept MemberFields = requires(T& t, Ar& ar) { t.fields(ar); };
template <class T, class Ar>
concept FreeFields = requires(T& t, Ar& ar) { fields(ar, t); };

}  // namespace archive_detail

/// Fewest wire bytes one T can take: the reader's bound for a count of Ts.
template <class T>
constexpr std::size_t min_bytes() {
  using namespace archive_detail;
  if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
    return 1;
  } else if constexpr (std::is_integral_v<T>) {
    return std::is_signed_v<T> ? 8 : sizeof(T);
  } else if constexpr (std::is_floating_point_v<T>) {
    return 8;
  } else if constexpr (Pair<T>::value) {
    return min_bytes<std::remove_const_t<typename T::first_type>>() +
           min_bytes<typename T::second_type>();
  } else if constexpr (Array<T>::value) {
    return std::tuple_size_v<T> * min_bytes<typename T::value_type>();
  } else if constexpr (std::is_same_v<T, std::string> || Counted<T>::value) {
    return 8;  // the length or count prefix
  } else {
    return 1;  // a field list: any nonempty one takes a byte at least
  }
}

class ArchiveWriter {
 public:
  static constexpr bool kLoading = false;

  explicit ArchiveWriter(BinWriter& out) : out_{out} {}

  template <class... T>
  void operator()(const T&... values) {
    (put(values), ...);
  }

  /// Each element of a range whose length both sides already know.
  template <class R>
  void items(const R& range) {
    for (const auto& item : range) put(item);
  }

  /// A length the reader checks against its own rebuilt state: writes
  /// `size` and returns it, so `ar.length(n) != n` is false here.
  std::uint64_t length(std::uint64_t size) {
    out_.u64(size);
    return size;
  }

  /// Reader-side checks cost nothing here.
  void check(bool /*ok*/, std::string_view /*what*/) const {}

  [[nodiscard]] std::uint32_t version() const { return kLatestLayout; }
  [[nodiscard]] BinWriter& out() { return out_; }

 private:
  template <class T>
  void put(const T& v) {
    using namespace archive_detail;
    if constexpr (MemberFields<T, ArchiveWriter>) {
      // fields() serves both directions, so it cannot be const; the writer
      // only reads through it.
      const_cast<T&>(v).fields(*this);
    } else if constexpr (FreeFields<T, ArchiveWriter>) {
      fields(*this, const_cast<T&>(v));
    } else if constexpr (std::is_same_v<T, bool>) {
      out_.boolean(v);
    } else if constexpr (std::is_enum_v<T>) {
      static_assert(sizeof(T) == 1, "archived enums are one byte");
      out_.u8(static_cast<std::uint8_t>(v));
    } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      out_.i64(v);
    } else if constexpr (std::is_same_v<T, std::uint8_t>) {
      out_.u8(v);
    } else if constexpr (std::is_same_v<T, std::uint32_t>) {
      out_.u32(v);
    } else if constexpr (std::is_integral_v<T>) {
      static_assert(sizeof(T) == 8, "unsigned fields are u8, u32 or u64");
      out_.u64(v);
    } else if constexpr (std::is_same_v<T, double>) {
      out_.f64(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      out_.str(v);
    } else if constexpr (Pair<T>::value) {
      put(v.first);
      put(v.second);
    } else if constexpr (Array<T>::value) {
      items(v);
    } else {
      static_assert(Counted<T>::value,
                    "no archive layout for this type: give it fields()");
      out_.u64(v.size());
      items(v);
    }
  }

  BinWriter& out_;
};

class ArchiveReader {
 public:
  static constexpr bool kLoading = true;

  /// `context` prefixes every error this reader raises (e.g.
  /// "checkpoint: sim section") and must outlive it; `version` is the
  /// layout the bytes were written in.
  ArchiveReader(BinReader& in, std::string_view context,
                std::uint32_t version = kLatestLayout)
      : in_{in}, context_{context}, version_{version} {}

  template <class... T>
  void operator()(T&... values) {
    (get(values), ...);
  }

  template <class R>
  void items(R& range) {
    for (auto& item : range) get(item);
  }

  /// The stored length, for the caller to check against its own.
  std::uint64_t length(std::uint64_t /*size*/) { return in_.u64(); }

  void check(bool ok, std::string_view what) const {
    if (!ok) fail(what);
  }
  [[noreturn]] void fail(std::string_view what) const {
    throw std::runtime_error{std::string{context_} + ": " +
                             std::string{what}};
  }

  /// A u64 element count, bounded by the bytes left.
  template <class T>
  std::uint64_t count() {
    const std::uint64_t n = in_.u64();
    if (n > in_.remaining() / min_bytes<T>()) {
      fail("count " + std::to_string(n) + " exceeds the " +
           std::to_string(in_.remaining()) + " bytes left");
    }
    return n;
  }

  [[nodiscard]] std::uint32_t version() const { return version_; }
  [[nodiscard]] BinReader& in() { return in_; }

 private:
  template <class T>
  void get(T& v) {
    using namespace archive_detail;
    if constexpr (MemberFields<T, ArchiveReader>) {
      v.fields(*this);
    } else if constexpr (FreeFields<T, ArchiveReader>) {
      fields(*this, v);
    } else if constexpr (std::is_same_v<T, bool>) {
      v = in_.boolean();
    } else if constexpr (std::is_enum_v<T>) {
      static_assert(sizeof(T) == 1, "archived enums are one byte");
      v = static_cast<T>(in_.u8());
    } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      v = static_cast<T>(in_.i64());
    } else if constexpr (std::is_same_v<T, std::uint8_t>) {
      v = in_.u8();
    } else if constexpr (std::is_same_v<T, std::uint32_t>) {
      v = in_.u32();
    } else if constexpr (std::is_integral_v<T>) {
      static_assert(sizeof(T) == 8, "unsigned fields are u8, u32 or u64");
      v = in_.u64();
    } else if constexpr (std::is_same_v<T, double>) {
      v = in_.f64();
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = in_.str();
    } else if constexpr (Pair<T>::value) {
      get(v.first);
      get(v.second);
    } else if constexpr (Array<T>::value) {
      items(v);
    } else {
      static_assert(Counted<T>::value,
                    "no archive layout for this type: give it fields()");
      using Item = Mutable<T>;
      const std::uint64_t n = count<Item>();
      v.clear();
      // Reserve only where the reservation cannot outgrow the input.
      if constexpr (requires { v.reserve(n); } &&
                    sizeof(Item) <= min_bytes<Item>()) {
        v.reserve(n);
      }
      for (std::uint64_t i = 0; i < n; ++i) {
        Item item{};
        get(item);
        v.insert(v.end(), std::move(item));
      }
    }
  }

  BinReader& in_;
  std::string_view context_;
  std::uint32_t version_;
};

/// Appends `value`'s fields to `out`.
template <class T>
void save_fields(BinWriter& out, const T& value) {
  ArchiveWriter ar{out};
  ar(value);
}

/// Reads `value`'s fields from `in`, written in layout `version`.
template <class T>
void load_fields(BinReader& in, T& value, std::string_view context,
                 std::uint32_t version = kLatestLayout) {
  ArchiveReader ar{in, context, version};
  ar(value);
}

}  // namespace roadrunner::util

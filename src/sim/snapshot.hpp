// Byte-exact snapshot serialization for the simulated world.
//
// A snapshot is a flat little-endian byte buffer built from fixed-width
// primitives: no padding, no pointers, no host-order dependence, so the
// same world state always produces the same bytes (the determinism the
// snapshot fuzzer's round-trip invariant relies on). Each layer of the
// runtime (sim::Platform, cuem, the sanitizer, oacc, the core tile-array
// stack) appends its state under a named section marker; restore replays
// the sections in order and fails loudly — via tidacc::Error — on any
// marker mismatch, truncation, or version/build skew instead of reading
// garbage.
//
// Each class lists its state once, in a `fields(Ar& ar)` member template
// that capture runs with a SnapshotWriter and restore with a
// SnapshotReader: `ar(a, b, ...)` writes or reads each field in order. The
// encoding lives here and nowhere else:
//
//   bool                              u8
//   int, enums                        i64
//   std::uint32_t                     u32
//   unsigned 64-bit values, pointers  u64
//   std::string                       u64 length, then the bytes
//   vector, deque, map, set           u64 count, then the elements in
//                                     iteration order (a map element is its
//                                     key, then its value)
//   CountedU32{container}             u32 count, then the elements
//   pair, tuple, std::array, T[N]     the elements, no count
//   a class with fields(Ar&)          its field list
//
// A restore check sits beside the field it checks. `ar.expect(live, msg)`
// writes a fingerprint of the live object on capture; on restore it reads
// the snapshot's value and throws `msg` (or `msg(snapshot_value)`) unless
// the two are equal. `ar.check(ok, msg)` checks only on restore. Work that
// only a restore does sits in `if constexpr (Ar::kRestoring)`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <source_location>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace tidacc::sim {

inline constexpr std::uint32_t kSnapshotMagic = 0x50534e54u;  // "TNSP"
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// Header flag: the capturing build had the cuem-sanitizer compiled in and
/// enabled. Restore refuses to cross this boundary (shadow state would be
/// silently dropped or fabricated otherwise).
inline constexpr std::uint32_t kSnapshotFlagSanitizer = 1u << 0;

class SnapshotWriter;

/// A container encoded with a u32 count instead of u64 (the cluster MR
/// cache's format).
template <typename C>
struct CountedU32 {
  C& items;
};

namespace detail {

template <typename T>
concept HasFields = requires(T& t, SnapshotWriter& w) { t.fields(w); };

template <typename T>
concept TupleLike = requires { std::tuple_size<T>::value; };

template <typename T>
struct IsCountedU32 : std::false_type {};
template <typename C>
struct IsCountedU32<CountedU32<C>> : std::true_type {};

/// What a container's element reads into: a map's key loses its const.
template <typename C>
struct Element {
  using type = typename C::value_type;
};
template <typename C>
  requires requires { typename C::mapped_type; }
struct Element<C> {
  using type = std::pair<typename C::key_type, typename C::mapped_type>;
};

}  // namespace detail

/// Append-only little-endian encoder: the capture direction.
class SnapshotWriter {
 public:
  static constexpr bool kRestoring = false;

  SnapshotWriter() = default;
  /// A writer whose buffer starts with room for `bytes`, such as the size
  /// of the previous capture of the same world, so it never regrows.
  explicit SnapshotWriter(std::size_t bytes) { buf_.reserve(bytes); }

  /// Appends each field, in order.
  template <typename... Ts>
  void operator()(const Ts&... fields) {
    (put(fields), ...);
  }

  /// Writes the live value; restore compares against it.
  template <typename T, typename Message>
  void expect(const T& live, const Message& /*message*/,
              std::source_location /*at*/ = std::source_location::current()) {
    put(live);
  }

  /// Restore-only: nothing to check on capture.
  template <typename Message>
  void check(bool /*ok*/, const Message& /*message*/,
             std::source_location /*at*/ = std::source_location::current()) {}

  /// Starts a named section; the reader must consume it with the same tag.
  void section(const std::string& tag);

  /// Raw bytes, length-prefixed.
  void put_blob(const void* data, std::size_t n);

  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  template <typename T>
  void put(const T& v);
  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);

  std::vector<std::uint8_t> buf_;
};

/// Sequential decoder over a snapshot buffer: the restore direction. Every
/// read throws tidacc::Error on truncation; section() throws on tag
/// mismatch.
class SnapshotReader {
 public:
  static constexpr bool kRestoring = true;

  SnapshotReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit SnapshotReader(const std::vector<std::uint8_t>& buf)
      : SnapshotReader(buf.data(), buf.size()) {}

  /// Reads each field, in order. A container is replaced whole once all
  /// of its elements are read.
  template <typename... Ts>
  void operator()(Ts&... fields) {
    (get(fields), ...);
  }

  /// Reads the snapshot's value and throws `message` unless it equals
  /// `live`. A callable message gets the snapshot's value. The error names
  /// the field list's line, like a check written there.
  template <typename T, typename Message>
  void expect(const T& live, const Message& message,
              std::source_location at = std::source_location::current()) {
    T snap{};
    get(snap);
    if (snap == live) {
      return;
    }
    if constexpr (std::is_invocable_v<const Message&, const T&>) {
      fail(at, "snapshot == live", message(snap));
    } else {
      fail(at, "snapshot == live", message);
    }
  }

  template <typename Message>
  void check(bool ok, const Message& message,
             std::source_location at = std::source_location::current()) {
    if (!ok) {
      fail(at, "restore check", message);
    }
  }

  /// Consumes a section marker, failing unless it carries `tag`.
  void section(const std::string& tag);

  /// Length-prefixed raw bytes copied into `out` (size must match exactly).
  void get_blob_into(void* out, std::size_t expected);

  bool at_end() const { return pos_ == size_; }
  std::size_t offset() const { return pos_; }

 private:
  template <typename T>
  void get(T& v);
  template <typename C>
  void get_items(C& c, std::uint64_t n);
  [[noreturn]] static void fail(const std::source_location& at,
                                std::string_view expr, std::string_view msg) {
    tidacc::detail::throw_error(at.file_name(), static_cast<int>(at.line()),
                                expr, msg);
  }
  void need(std::size_t n) const;
  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  int get_int();
  std::string get_string();

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

template <typename T>
void SnapshotWriter::put(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    put_u8(v ? 1 : 0);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    put_u32(v);
  } else if constexpr (std::is_same_v<T, int> || std::is_enum_v<T>) {
    put_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  } else if constexpr (std::is_unsigned_v<T> && sizeof(T) == 8) {
    put_u64(v);
  } else if constexpr (std::is_pointer_v<T>) {
    put_u64(reinterpret_cast<std::uintptr_t>(v));
  } else if constexpr (std::is_same_v<T, std::string>) {
    put_u64(v.size());
    buf_.insert(buf_.end(), v.begin(), v.end());
  } else if constexpr (std::is_array_v<T>) {
    for (const auto& e : v) put(e);
  } else if constexpr (detail::IsCountedU32<T>::value) {
    put_u32(static_cast<std::uint32_t>(v.items.size()));
    for (const auto& e : v.items) put(e);
  } else if constexpr (detail::TupleLike<T>) {
    std::apply([this](const auto&... e) { (put(e), ...); }, v);
  } else if constexpr (detail::HasFields<T>) {
    // The one field list serves both directions; writing never mutates.
    const_cast<T&>(v).fields(*this);
  } else {
    put_u64(v.size());
    for (const auto& e : v) put(e);
  }
}

template <typename T>
void SnapshotReader::get(T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = get_u8() != 0;
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    v = get_u32();
  } else if constexpr (std::is_same_v<T, int> || std::is_enum_v<T>) {
    v = static_cast<T>(get_int());
  } else if constexpr (std::is_unsigned_v<T> && sizeof(T) == 8) {
    v = get_u64();
  } else if constexpr (std::is_pointer_v<T>) {
    v = reinterpret_cast<T>(static_cast<std::uintptr_t>(get_u64()));
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = get_string();
  } else if constexpr (std::is_array_v<T>) {
    for (auto& e : v) get(e);
  } else if constexpr (detail::IsCountedU32<T>::value) {
    get_items(v.items, get_u32());
  } else if constexpr (detail::TupleLike<T>) {
    std::apply([this](auto&... e) { (get(e), ...); }, v);
  } else if constexpr (detail::HasFields<T>) {
    v.fields(*this);
  } else {
    get_items(v, get_u64());
  }
}

template <typename C>
void SnapshotReader::get_items(C& c, std::uint64_t n) {
  C out;
  for (std::uint64_t i = 0; i < n; ++i) {
    typename detail::Element<C>::type e{};
    get(e);
    out.insert(out.end(), std::move(e));
  }
  c = std::move(out);
}

/// Writes the snapshot header (magic, format version, build flags).
void snapshot_write_header(SnapshotWriter& w, std::uint32_t flags);

/// Validates magic + version and returns the build flags recorded at
/// capture time. Throws tidacc::Error on foreign or incompatible buffers.
std::uint32_t snapshot_read_header(SnapshotReader& r);

}  // namespace tidacc::sim

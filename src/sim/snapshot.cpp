#include "sim/snapshot.hpp"

#include <cstring>

#include "common/error.hpp"

namespace tidacc::sim {

namespace {
// Section markers get their own magic so a desynchronized reader fails on
// the very next section() instead of drifting through unrelated fields.
constexpr std::uint32_t kSectionMagic = 0x54434553u;  // "SECT"
}  // namespace

void SnapshotWriter::put_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void SnapshotWriter::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void SnapshotWriter::put_blob(const void* data, std::size_t n) {
  put_u64(n);
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

void SnapshotWriter::section(const std::string& tag) {
  put_u32(kSectionMagic);
  put(tag);
}

void SnapshotReader::need(std::size_t n) const {
  TIDACC_CHECK_MSG(n <= size_ - pos_ && pos_ <= size_,
                   "snapshot: truncated buffer (wanted " + std::to_string(n) +
                       " bytes at offset " + std::to_string(pos_) + " of " +
                       std::to_string(size_) + ")");
}

std::uint8_t SnapshotReader::get_u8() {
  need(1);
  return data_[pos_++];
}

std::uint32_t SnapshotReader::get_u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  }
  return v;
}

std::uint64_t SnapshotReader::get_u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  }
  return v;
}

int SnapshotReader::get_int() {
  const auto v = static_cast<std::int64_t>(get_u64());
  TIDACC_CHECK_MSG(v >= INT32_MIN && v <= INT32_MAX,
                   "snapshot: int field out of range");
  return static_cast<int>(v);
}

std::string SnapshotReader::get_string() {
  const std::uint64_t n = get_u64();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

void SnapshotReader::get_blob_into(void* out, std::size_t expected) {
  const std::uint64_t n = get_u64();
  TIDACC_CHECK_MSG(n == expected,
                   "snapshot: blob size mismatch (snapshot has " +
                       std::to_string(n) + " bytes, destination expects " +
                       std::to_string(expected) + ")");
  need(n);
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
}

void SnapshotReader::section(const std::string& tag) {
  const std::size_t at = pos_;
  const std::uint32_t magic = get_u32();
  TIDACC_CHECK_MSG(magic == kSectionMagic,
                   "snapshot: expected section '" + tag + "' at offset " +
                       std::to_string(at) + " but found no section marker "
                       "(corrupt or desynchronized snapshot)");
  const std::string got = get_string();
  TIDACC_CHECK_MSG(got == tag, "snapshot: expected section '" + tag +
                                   "' but found '" + got + "'");
}

namespace {

template <typename Ar>
void header_fields(Ar& ar, std::uint32_t& flags) {
  ar.expect(kSnapshotMagic, "snapshot: bad magic (not a tidacc snapshot)");
  ar.expect(kSnapshotVersion, [](std::uint32_t version) {
    return "snapshot: format version " + std::to_string(version) +
           " unsupported (this build reads version " +
           std::to_string(kSnapshotVersion) + ")";
  });
  ar(flags);
}

}  // namespace

void snapshot_write_header(SnapshotWriter& w, std::uint32_t flags) {
  header_fields(w, flags);
}

std::uint32_t snapshot_read_header(SnapshotReader& r) {
  std::uint32_t flags = 0;
  header_fields(r, flags);
  return flags;
}

}  // namespace tidacc::sim

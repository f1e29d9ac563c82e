#include "core/world_snapshot.hpp"

#include "common/error.hpp"
#include "cuem/cuem.hpp"
#include "cuem/san.hpp"
#include "oacc/oacc.hpp"
#include "sim/platform.hpp"

namespace tidacc::core {

namespace {

template <typename Ar>
void world_fields(Ar& ar) {
  ar(sim::Platform::instance());
  cuem::snapshot_fields(ar);
  cuem::san::snapshot_fields(ar);
  oacc::snapshot_fields(ar);
}

}  // namespace

void world_capture(sim::SnapshotWriter& w) {
  std::uint32_t flags = 0;
  if (cuem::san::enabled()) {
    flags |= sim::kSnapshotFlagSanitizer;
  }
  sim::snapshot_write_header(w, flags);
  world_fields(w);
}

void world_restore(sim::SnapshotReader& r) {
  const std::uint32_t flags = sim::snapshot_read_header(r);
#ifndef TIDACC_CUEM_SANITIZER
  TIDACC_CHECK_MSG(
      (flags & sim::kSnapshotFlagSanitizer) == 0,
      "snapshot was captured with the cuem-sanitizer active but this build "
      "has TIDACC_CUEM_SANITIZER compiled out");
#else
  (void)flags;
#endif
  world_fields(r);
}

std::vector<std::uint8_t> world_snapshot() {
  // A world captured again is about as big as its last capture.
  static std::size_t last = 0;
  sim::SnapshotWriter w(last);
  world_capture(w);
  last = w.buffer().size();
  return w.take();
}

void world_restore(const std::vector<std::uint8_t>& buf) {
  sim::SnapshotReader r(buf);
  world_restore(r);
  TIDACC_CHECK_MSG(r.at_end(), "trailing bytes after the world snapshot");
}

}  // namespace tidacc::core

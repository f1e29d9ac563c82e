// Test-only fault injection, keyed off the TIDACC_TEST_INJECT environment
// variable. Production code paths call injected("name") at the exact spot a
// historical defect lived; the call returns true only when the variable
// names that defect, letting tests and the schedule fuzzer re-open a fixed
// bug class on demand (e.g. to prove the fuzzer + sanitizer oracle would
// have caught it). The env var is read once per process.
//
// Known injection points:
//   evict_race — MultiAccTileArray::order_after_pending returns early,
//     skipping the event edge that orders a re-acquire's H2D after the
//     in-flight eviction D2H still reading the same host buffer (the
//     cross-stream race fixed alongside the dynamic slot policies).
//   ghost_push_race — the streaming exchange (core/streaming_exchange.hpp)
//     skips a resident destination's wait on its last upload or ghost push
//     before the host writes its ghost boxes, so the host write races the
//     previous exchange's push still reading them.
#pragma once

#include <cstdlib>
#include <cstring>

namespace tidacc {

/// True when TIDACC_TEST_INJECT names this defect.
inline bool injected(const char* name) {
  static const char* kInject = std::getenv("TIDACC_TEST_INJECT");
  return kInject != nullptr && std::strcmp(kInject, name) == 0;
}

}  // namespace tidacc

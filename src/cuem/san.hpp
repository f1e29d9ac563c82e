// cuem::san — a compute-sanitizer analogue for the simulated runtime.
//
// Opt-in checker layer (CMake option TIDACC_CUEM_SANITIZER) validating every
// cuem* call against a shadow model of the device:
//   * memcheck  — an allocation shadow map catching out-of-bounds and
//     use-after-free copy endpoints, double frees, allocations and streams
//     leaked across cuemDeviceReset, pageable-host misuse of async copies,
//     and peer copies staged because peer access was never enabled.
//   * racecheck — a per-allocation access history (stream, op, byte range
//     or strided box, read/write, sim time) compared under the platform's
//     happens-before export (sim::Platform vector clocks over stream order,
//     synchronizes, event edges, completion polls). Two overlapping
//     accesses with incomparable clocks, at least one a write, from
//     different timelines, are a race — including host accesses racing
//     in-flight async copies. Because the simulator is deterministic the
//     check is exact: no sampling, no false negatives within the tracked
//     access set.
//   * reporting — structured findings with severities, collect/fatal
//     modes, and a JSON dump (TIDACC_CUEM_SAN_JSON) consumed by tests/CI.
//
// The checker is pure shadow bookkeeping: it never advances virtual time,
// so traces and timings are identical whether it is on or off. When the
// CMake option is off every entry point below compiles to an empty inline
// stub and the runtime carries zero overhead.
//
// Accesses reach the racecheck through cuem::claim (cuem.hpp), the one
// statement of what an op or the host touches: cuem's copies claim their
// endpoints, and the layers above claim what kernels, wire requests and
// host code touch, since those bodies run outside the cuem API.
// cuemSanAnnotate (see cuem.hpp) names buffers in reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "cuem/registry.hpp"
#include "sim/byte_box.hpp"

namespace tidacc::cuem::san {

enum class Severity : int { kInfo = 0, kWarning = 1, kError = 2 };

enum class FindingKind : int {
  kOobCopy = 0,           ///< copy endpoint runs past its allocation
  kUseAfterFree,          ///< copy endpoint inside a freed allocation
  kDoubleFree,            ///< free of an already-freed pointer
  kInvalidFree,           ///< free of a pointer the runtime never issued
  kRace,                  ///< unsynchronized overlapping access pair
  kLeakAllocation,        ///< allocation live at cuemDeviceReset
  kLeakStream,            ///< user stream live at cuemDeviceReset
  kPageableAsync,         ///< async copy through pageable host memory
  kPeerStaged,            ///< peer copy staged: peer access not enabled
  kStreamDestroyPending,  ///< stream destroyed with work still queued
};

inline const char* to_string(Severity s) {
  switch (s) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

inline const char* to_string(FindingKind k) {
  switch (k) {
    case FindingKind::kOobCopy: return "oob_copy";
    case FindingKind::kUseAfterFree: return "use_after_free";
    case FindingKind::kDoubleFree: return "double_free";
    case FindingKind::kInvalidFree: return "invalid_free";
    case FindingKind::kRace: return "race";
    case FindingKind::kLeakAllocation: return "leak_allocation";
    case FindingKind::kLeakStream: return "leak_stream";
    case FindingKind::kPageableAsync: return "pageable_async";
    case FindingKind::kPeerStaged: return "peer_staged";
    case FindingKind::kStreamDestroyPending: return "stream_destroy_pending";
  }
  return "?";
}

/// One diagnostic. `allocation` is the cuemSanAnnotate label when present,
/// else the hex base address. For races, stream_a/stream_b are the two
/// timelines involved (-1 = host) and time_* stamp the later access.
struct Finding {
  FindingKind kind = FindingKind::kRace;
  Severity severity = Severity::kError;
  std::string op;          ///< API/op label of the triggering access
  std::string message;     ///< human-readable one-liner
  std::string allocation;  ///< label or hex base of the buffer involved
  std::uintptr_t base = 0;
  std::size_t offset = 0;
  std::size_t bytes = 0;
  int stream_a = -1;
  int stream_b = -1;
  int device = -1;
  std::uint64_t time_start = 0;
  std::uint64_t time_finish = 0;

  template <typename Ar>
  void fields(Ar& ar) {
    ar(kind, severity, op, message, allocation, base, offset, bytes,
       stream_a, stream_b, device, time_start, time_finish);
  }
};

struct Options {
  bool enabled = false;
  bool memcheck = true;
  bool racecheck = true;
  /// Abort (through TIDACC_FAIL) on the first kError finding. kWarning and
  /// kInfo findings always just collect.
  bool fatal = false;
  /// Collection cap; counting continues past it but findings are dropped.
  std::size_t max_findings = 256;
  /// When non-empty, the JSON report is rewritten as findings land and at
  /// cuemDeviceReset (so it survives runs that never reach a clean exit).
  std::string json_path;
};

#ifdef TIDACC_CUEM_SANITIZER

/// Installs `opts`, clears all shadow state and findings, and arms the
/// platform's happens-before tracking when racecheck is requested.
void configure(const Options& opts);

/// Clears findings and access histories, keeping options and the shadow
/// allocation map (test-scoped isolation between cases).
void clear_findings();

/// True when the checker is on (options/env: TIDACC_CUEM_SAN=1|fatal).
bool enabled();
const Options& options();

/// Switches fatal mode, keeping shadow state and findings: a caller about
/// to run destructors whose frees are race-checked collects instead, since
/// a finding must not throw out of a destructor.
void set_fatal(bool fatal);

const std::vector<Finding>& findings();
std::size_t count(Severity s);
/// Zero errors and zero warnings (kInfo notes are allowed — pageable-async
/// and staged-peer transfers are deliberate in several baselines).
bool clean();

std::string report_json();
bool write_report(const std::string& path);

// --- annotation and the access recorder ---

/// Attaches a human-readable label to the allocation containing `ptr`;
/// findings referencing it report the label instead of a raw address.
void annotate(const void* ptr, std::string label);

/// The racecheck's access recorder, fed by cuem::claim only: `box` of the
/// allocation containing `ptr` (box.offset counts from `ptr`), read or
/// `write`, by the newest op on `stream` or by the host when `stream` is
/// -1. No-op when `ptr` is not a registered allocation.
void record_access(int stream, const void* ptr, const sim::ByteBox& box,
                   bool write, const char* op);

// --- hooks wired into cuem.cpp (internal use) ---

namespace hook {

/// Runtime (re)configured: reset shadow state against the new platform and
/// re-arm happens-before tracking.
void on_configure();

void on_alloc(const Allocation& alloc);

/// Called after a release attempt. `ok` is the runtime's verdict; failures
/// are classified (double free vs never-allocated), successes retire the
/// allocation to a tombstone after a final race check against in-flight
/// ops touching it.
void on_free(const void* ptr, bool ok, const char* op);

/// Bounds/lifetime check of one copy endpoint before the op is enqueued
/// (the functional action runs at enqueue, so a true OOB would corrupt
/// real host memory). Returns false when the op must be suppressed.
bool precheck_range(const void* ptr, std::size_t bytes, const char* op);

void on_pageable_async(int stream, const char* op);
void on_peer_staged(int src_device, int dst_device, const char* op);
void on_stream_destroy_pending(int stream);

/// Leak sweep: every live allocation and user stream still present when
/// cuemDeviceReset tears the world down.
void on_device_reset();

}  // namespace hook

// --- snapshot (see docs/FUZZING.md) ---

/// Snapshot field list (sim/snapshot.hpp) of the full sanitizer state:
/// options, shadow allocation map with access histories, tombstones,
/// findings, counters, and the dedupe set. The "active" flag comes first so
/// a restore into a build with the sanitizer compiled out (or disabled)
/// fails with a clear error instead of desynchronizing.
template <typename Ar>
void snapshot_fields(Ar& ar);

#else  // !TIDACC_CUEM_SANITIZER — everything compiles to nothing.

inline void configure(const Options&) {}
inline void clear_findings() {}
inline bool enabled() { return false; }
inline const Options& options() {
  static const Options kOff;
  return kOff;
}
inline void set_fatal(bool) {}
inline const std::vector<Finding>& findings() {
  static const std::vector<Finding> kNone;
  return kNone;
}
inline std::size_t count(Severity) { return 0; }
inline bool clean() { return true; }
inline std::string report_json() { return "{}"; }
inline bool write_report(const std::string&) { return false; }
inline void annotate(const void*, std::string) {}
inline void record_access(int, const void*, const sim::ByteBox&, bool,
                          const char*) {}

namespace hook {
inline void on_configure() {}
inline void on_alloc(const Allocation&) {}
inline void on_free(const void*, bool, const char*) {}
inline bool precheck_range(const void*, std::size_t, const char*) {
  return true;
}
inline void on_pageable_async(int, const char*) {}
inline void on_peer_staged(int, int, const char*) {}
inline void on_stream_destroy_pending(int) {}
inline void on_device_reset() {}
}  // namespace hook

/// The snapshot stub keeps the on-disk format symmetric between builds:
/// capture writes an inactive "san" section; restore accepts only inactive
/// ones and fails loudly when the snapshot carries sanitizer state this
/// build cannot reinstate.
template <typename Ar>
void snapshot_fields(Ar& ar) {
  ar.section("san");
  bool active = false;
  ar(active);
  TIDACC_CHECK_MSG(
      !active,
      "snapshot was captured with the cuem-sanitizer active but this build "
      "has TIDACC_CUEM_SANITIZER compiled out; rebuild with the sanitizer "
      "enabled or capture the snapshot without it");
}

#endif  // TIDACC_CUEM_SANITIZER

}  // namespace tidacc::cuem::san

namespace tidacc::cuem {
/// Public name for the sanitizer's option block (mirrors cuemDeviceProp
/// style: the cuem-facing spelling of a san:: type).
using CuemSanOptions = san::Options;
}  // namespace tidacc::cuem

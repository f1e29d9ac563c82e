// World snapshot: one call capturing every process-global layer of the
// simulated platform in a fixed order — snapshot header, sim::Platform
// (clocks, engines, vector clocks, trace), the cuem runtime (allocations
// with contents, streams, events, accounting), the cuem-sanitizer shadow
// state, and the oacc runtime (memory mode, present table, queue map).
//
// Tile arrays are templates and owned by the caller: capture them *after*
// world_capture on the same writer (and restore them after world_restore,
// in the same order). The restore contract is same-process and
// address-stable — every allocation live at capture must still be live at
// the same base address (see cuem::snapshot_fields); allocations created
// after the capture are freed. This is exactly what the schedule fuzzer
// needs: restore a mid-workload world thousands of times and replay the
// remaining steps under mutated knobs.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/snapshot.hpp"

namespace tidacc::core {

/// Captures header + platform + cuem + sanitizer + oacc into `w`.
void world_capture(sim::SnapshotWriter& w);

/// Restores the layers captured by world_capture. Throws tidacc::Error on
/// any incompatibility (config mismatch, freed allocations, a sanitizer
/// section this build cannot reinstate).
void world_restore(sim::SnapshotReader& r);

/// Convenience round-trip helpers for whole-world snapshots with no
/// caller-appended array state.
std::vector<std::uint8_t> world_snapshot();
void world_restore(const std::vector<std::uint8_t>& buf);

}  // namespace tidacc::core

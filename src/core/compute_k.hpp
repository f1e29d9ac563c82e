// compute_k() — k-step temporal blocking per residency.
//
// A region acquired with ghost = k * radius carries enough halo to advance
// k stencil steps without talking to its neighbours: sub-step s may write
// valid.grow(radius * (k - 1 - s)) — a trapezoid that shrinks by one
// stencil radius per sub-step and lands exactly on the valid box at the
// last one (tida::trapezoid_range). Each sub-step writes the slot's
// scratch double buffer and swaps pointers, so the whole k-step block runs
// in-slot with no extra transfers: one H2D + one D2H round trip now buys k
// cell updates instead of one, multiplying the effective link bandwidth
// ("A Synergy between On- and Off-Chip Data Reuse", "Beyond 16GB" —
// PAPERS.md).
//
// Contract:
//   * the array was built with time_block_k = k (slots carry scratch
//     buffers) and ghost >= k * radius;
//   * a fill_boundary() ran since the last writes, so the full ghost ring
//     is current on entry (every exchange refreshes the whole ring);
//   * that exchange was periodic if the region's ghost ring leaves the
//     domain: the sub-steps write ghost cells, and outside the domain a
//     Boundary::kNone exchange keeps them as boundary values (compute_k
//     throws there);
//   * the body is a Jacobi-style per-cell update reading `in` and writing
//     `out`: body(DeviceView<T> in, DeviceView<T> out, int i, int j, int k).
//
// After the block, slot_ptr() points at the newest data (the swaps keep
// that invariant for both parities of k) and the widened interior
// valid.grow(radius * (k - 1)) is recorded device-dirty — the cells whose
// device copy diverged from the host, not just the one-step shell.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/compute.hpp"
#include "oacc/oacc.hpp"
#include "sim/platform.hpp"
#include "tida/box.hpp"

namespace tidacc::core {

/// Runs k stencil sub-steps over `region` in its slot on the region's
/// owning device, double-buffering against the slot's scratch buffer (see
/// file header for the contract).
template <typename T, typename Fn>
void compute_k(MultiAccTileArray<T>& a, int region, int k, int radius,
               const oacc::LoopCost& cost, Fn&& body) {
  TIDACC_CHECK_MSG(k >= 2, "compute_k needs k >= 2 — use compute() for k=1");
  TIDACC_CHECK_MSG(radius >= 1, "stencil radius must be positive");
  TIDACC_CHECK_MSG(a.time_block_k() >= k,
                   "array was built for a smaller time_block_k");
  TIDACC_CHECK_MSG(a.has_scratch(),
                   "compute_k needs the in-slot scratch double buffer "
                   "(MultiAccOptions::time_block_k > 1)");
  const tida::Region<T> reg = a.region(region);
  TIDACC_CHECK_MSG(radius * k <= a.ghost(),
                   "ghost width must be at least radius * k for depth-k "
                   "temporal blocking");
  TIDACC_CHECK_MSG(a.last_boundary() != tida::Boundary::kNone ||
                       a.domain().contains(reg.grown),
                   "compute_k on region " + std::to_string(region) +
                       " after a Boundary::kNone exchange: its ghost cells "
                       "leave the domain, and k = " +
                       std::to_string(k) +
                       " sub-steps would overwrite their boundary values — "
                       "step it with compute(), or exchange periodically");

  T* in_ptr = a.acquire_on_device(region);
  const cuemStream_t kstream = a.stream_of_region(region);

  for (int s = 0; s < k; ++s) {
    T* out_ptr = a.scratch_of_region(region);
    // Both buffers live on the slot's stream, so the double buffering is
    // race-free by stream order; the exact roles let the racecheck prove it.
    detail::launch(
        tida::trapezoid_range(reg.valid, radius, k, s), cost, body,
        [region, s] {
          return "Ck:R" + std::to_string(region) + "#" + std::to_string(s);
        },
        detail::Operand<T>{DeviceView<T>{in_ptr, reg.grown, reg.ncomp},
                           kstream, /*write=*/false},
        detail::Operand<T>{DeviceView<T>{out_ptr, reg.grown, reg.ncomp},
                           kstream, /*write=*/true});
    // The swap makes slot_ptr() point at the data this sub-step produced;
    // the next sub-step (or the next transfer) picks it up from there.
    a.swap_region_buffers(region);
    in_ptr = out_ptr;
  }
  a.note_device_write(region,
                      tida::trapezoid_range(reg.valid, radius, k, 0));
}

// --- auto-tuner ---

/// One row of the auto-tuner's prediction table.
struct TimeBlockPrediction {
  int k = 1;
  /// Link bytes a sweep's swaps ship per useful cell update — the quantity
  /// temporal blocking divides by k while the widened ghosts grow it back;
  /// the tuner's objective weights it by the link rate. 0 when every
  /// region has a slot.
  double bytes_per_update = 0.0;
  /// Predicted wall-clock per stencil step per region (ns): transfers and
  /// kernels overlap across slots, so the slower of the two pipelines
  /// bounds the sweep, plus the widened ghost exchange.
  double step_ns = 0.0;
};

/// Picks the temporal blocking depth k that minimizes predicted wall-clock
/// per useful cell update on a device of `slots` region slots, pricing the
/// ops one sweep issues with the simulator's own functions. GPU passes run
/// in residency order (SlotScheduler::visit_ranks), so a sweep swaps only
/// the regions the slots cannot hold, regions − slots of them: their flat
/// evict/upload round trips (the term k divides) and their share of the
/// widened ring's pull, host copy and push (the transfer bytes that grow
/// with k). Every region pays the k shrinking trapezoid kernels compute_k
/// launches, and the sweep one replay kernel refreshing every region's ring
/// from its descriptors (the compute terms that grow with k). Returns 1
/// when blocking never wins — always when every region has a slot. The
/// caller then builds the array with ghost = radius * k and
/// MultiAccOptions::time_block_k = k. `table` (optional) receives one row per
/// candidate for bench emission.
inline int choose_time_block_k(const tida::Box& domain,
                               const tida::Index3& region_size, int radius,
                               int slots, const oacc::LoopCost& cost,
                               const sim::DeviceConfig& cfg, int max_k = 8,
                               std::vector<TimeBlockPrediction>* table =
                                   nullptr,
                               std::size_t elem_bytes = sizeof(double)) {
  TIDACC_CHECK_MSG(radius >= 1, "stencil radius must be positive");
  TIDACC_CHECK_MSG(slots >= 1, "the device needs at least one slot");
  TIDACC_CHECK_MSG(max_k >= 1, "max_k must be at least 1");
  const tida::Index3 de = domain.extent();
  const tida::Index3 re{std::min(region_size.i, de.i),
                        std::min(region_size.j, de.j),
                        std::min(region_size.k, de.k)};
  const auto grown_volume = [&re](int g) {
    return static_cast<std::uint64_t>(re.i + 2 * g) *
           static_cast<std::uint64_t>(re.j + 2 * g) *
           static_cast<std::uint64_t>(re.k + 2 * g);
  };
  const std::uint64_t valid_cells = grown_volume(0);
  const auto regions_along = [](int extent, int size) {
    return static_cast<double>((extent + size - 1) / size);
  };
  const double regions = regions_along(de.i, re.i) *
                         regions_along(de.j, re.j) *
                         regions_along(de.k, re.k);
  const double swaps = std::max(0.0, regions - static_cast<double>(slots));
  const tida::Partition part(domain, region_size);
  // A raw pinned copy of `bytes` plus its host issue cost.
  const auto issued_copy_ns = [&cfg](sim::OpKind kind, std::uint64_t bytes) {
    sim::CopyRequest req;
    req.kind = kind;
    req.bytes = bytes;
    return static_cast<double>(cfg.host_api_overhead_ns +
                               sim::copy_ns(cfg, req));
  };

  int best_k = 1;
  double best_step = 0.0;
  for (int k = 1; k <= max_k; ++k) {
    const int ghost = radius * k;
    const std::uint64_t grown_cells = grown_volume(ghost);
    const std::uint64_t flat_bytes = grown_cells * elem_bytes;

    // A swap's round trip: the evict D2H and the upload H2D are
    // stream-ordered on the same slot stream, so they serialize.
    const double tx = issued_copy_ns(sim::OpKind::kCopyD2H, flat_bytes) +
                      issued_copy_ns(sim::OpKind::kCopyH2D, flat_bytes);

    // The k trapezoid kernels compute_k launches over shrinking ranges.
    double tc = 0.0;
    for (int s = 0; s < k; ++s) {
      const std::uint64_t cells = grown_volume(radius * (k - 1 - s));
      tc += static_cast<double>(
          cfg.kernel_launch_ns + cfg.oacc_dispatch_extra_ns +
          cost.profile(cells, /*tuned_geometry=*/false).duration_ns(cfg));
    }

    // The widened ghost ring, the bytes that grow with k. The streaming
    // exchange (core/streaming_exchange.hpp) refreshes the rings of
    // resident regions in one replay kernel on the compute engine, priced
    // with the exchange's own profile over every region's ring and the
    // descriptors the array gives each region (descriptors_per_region: 26
    // faces, edges and corners, more once the ring is wider than a
    // region). Only faces touching an evicted region cross the link, down
    // and up: one ring's pull → host copy → push chain per swapped region.
    const std::uint64_t ring_cells = grown_cells - valid_cells;
    const std::uint64_t ring_bytes = ring_cells * elem_bytes;
    const auto all_regions = static_cast<std::uint64_t>(regions);
    const double replay = static_cast<double>(
        cfg.kernel_launch_ns + cfg.oacc_dispatch_extra_ns +
        ghost_update_profile(
            all_regions * ring_cells, elem_bytes,
            all_regions * tida::descriptors_per_region(part, ghost) *
                sizeof(GhostDescriptor))
            .duration_ns(cfg));
    const double tex = issued_copy_ns(sim::OpKind::kCopyD2H, ring_bytes) +
                       static_cast<double>(cfg.host_copy_ns(ring_bytes)) +
                       issued_copy_ns(sim::OpKind::kCopyH2D, ring_bytes);

    // Out-of-core steady state: the swaps overlap the other regions'
    // kernels, so the slower pipeline bounds the sweep, and the exchange
    // follows it. Per region, per step.
    const double step_ns =
        (std::max(swaps * tx, regions * tc + replay) + swaps * tex) /
        (regions * static_cast<double>(k));
    const double bytes_per_update =
        swaps * 2.0 *
        static_cast<double>(flat_bytes + ring_bytes) /
        (regions * static_cast<double>(k) * static_cast<double>(valid_cells));
    if (table != nullptr) {
      table->push_back(TimeBlockPrediction{k, bytes_per_update, step_ns});
    }
    if (k == 1 || step_ns < best_step) {
      best_step = step_ns;
      best_k = k;
    }
  }
  return best_k;
}

}  // namespace tidacc::core

// Sub-region dirty tracking for delta transfers.
//
// LocationTracker answers "where does the valid copy of region R live?" at
// whole-region granularity, which forces every residency change to move the
// full grown box. DirtyTracker refines that: per region it keeps two
// disjoint coarse box lists — the cells the *host* copy has written since
// the two copies last agreed, and the cells the *device* copy has written.
// The array layers consult them to ship only the stale boxes (a flat copy
// would overwrite the other side's newer cells, so flatness is only legal
// when the opposite list is empty) and to skip transfers entirely when a
// side is clean.
//
// The lists are conservative over-approximations: a box may cover cells
// that were not actually written (never the reverse), so correctness only
// relies on "not in either list ⇒ both copies agree". Writes on one side
// erase overlapping dirtiness on the other (the write supersedes it), which
// is exactly the store-ordering a real dual-copy would observe.
#pragma once

#include <cstdint>
#include <vector>

#include "tida/box.hpp"

namespace tidacc::core {

/// Host↔device traffic totals of one accelerated array, split by transfer
/// shape — what the benches print and the delta-transfer ablation compares.
struct TransferAccounting {
  std::uint64_t h2d_bytes = 0;  ///< all host→device payload bytes (logical)
  std::uint64_t d2h_bytes = 0;  ///< all device→host payload bytes (logical)
  std::uint64_t flat_h2d_ops = 0;   ///< full-region demand uploads
  std::uint64_t flat_d2h_ops = 0;   ///< full-region downloads
  std::uint64_t delta_h2d_ops = 0;  ///< pitched sub-box uploads
  std::uint64_t delta_d2h_ops = 0;  ///< pitched sub-box downloads
  std::uint64_t prefetch_ops = 0;   ///< scheduler-issued prefetch uploads
  /// Bytes that actually crossed the link: equal to the logical counters
  /// for raw transfers, shrunken by the codec's achieved ratio for
  /// compressed ones. wire <= logical always.
  std::uint64_t h2d_wire_bytes = 0;
  std::uint64_t d2h_wire_bytes = 0;
  std::uint64_t comp_h2d_ops = 0;  ///< uploads that took a compressed kind
  std::uint64_t comp_d2h_ops = 0;  ///< downloads that took a compressed kind

  /// Snapshot field list (sim/snapshot.hpp).
  template <typename Ar>
  void fields(Ar& ar) {
    ar.section("transfer_accounting");
    ar(h2d_bytes, d2h_bytes, flat_h2d_ops, flat_d2h_ops, delta_h2d_ops,
       delta_d2h_ops, prefetch_ops, h2d_wire_bytes, d2h_wire_bytes,
       comp_h2d_ops, comp_d2h_ops);
  }
};

/// Per-region dirty-box bookkeeping (see file comment). Region ids index a
/// dense table sized at construction or lazily on first touch.
class DirtyTracker {
 public:
  DirtyTracker() = default;
  explicit DirtyTracker(int num_regions) { resize(num_regions); }

  /// Grows the table to cover `num_regions` regions (never shrinks).
  void resize(int num_regions);

  int num_regions() const { return static_cast<int>(sides_.size()); }

  /// Records that the host copy of `region` wrote `box` (grown-box
  /// coordinates): the cells become host-dirty and stop being device-dirty.
  void note_host_write(int region, const tida::Box& box);

  /// Records that the device copy of `region` wrote `box`.
  void note_device_write(int region, const tida::Box& box);

  /// Declares the whole grown box host-dirty and the device side clean —
  /// the conservative state after handing a region back to host code.
  void mark_all_host(int region, const tida::Box& grown);

  /// Declares both sides clean (the copies agree), e.g. after a full flat
  /// transfer or when a region's device residency is dropped.
  void reset(int region);

  /// Clears one side after its dirty boxes have been shipped.
  void clear_host(int region);
  void clear_device(int region);

  /// Removes `box` from one side without dirtying the other — the cells
  /// were just shipped, so the two copies agree there now. Used by the
  /// streaming ghost exchange, which pulls only face shells.
  void note_device_shipped(int region, const tida::Box& box);

  /// Disjoint boxes the host copy has written (pending upload).
  const std::vector<tida::Box>& host_dirty(int region) const;
  /// Disjoint boxes the device copy has written (pending download).
  const std::vector<tida::Box>& dev_dirty(int region) const;

  bool host_clean(int region) const { return host_dirty(region).empty(); }
  bool device_clean(int region) const { return dev_dirty(region).empty(); }

  /// Total cells covered by a side's list.
  std::uint64_t host_dirty_volume(int region) const {
    return tida::list_volume(host_dirty(region));
  }
  std::uint64_t dev_dirty_volume(int region) const {
    return tida::list_volume(dev_dirty(region));
  }

  /// Fragmentation cap: when a side's list still exceeds this many boxes
  /// after tida::coalesce has merged every pair that unions to a box, it is
  /// collapsed to its bounding box minus the other side's boxes (coarser —
  /// never loses dirtiness, never swallows the other side's cells).
  static constexpr std::size_t kMaxPiecesPerSide = 16;

  /// Snapshot field list (sim/snapshot.hpp): every region's dirty-box
  /// lists. Restore resizes the table to the snapshot's region count.
  template <typename Ar>
  void fields(Ar& ar) {
    ar.section("dirty_tracker");
    ar(sides_);
  }

 private:
  struct Sides {
    std::vector<tida::Box> host;
    std::vector<tida::Box> dev;

    template <typename Ar>
    void fields(Ar& ar) {
      ar(host, dev);
    }
  };

  void note_write(int region, const tida::Box& box, bool host_side);
  Sides& sides(int region);
  const Sides& sides(int region) const;

  mutable std::vector<Sides> sides_;
};

}  // namespace tidacc::core

// AccTileArray — the paper's single-GPU tileArray (TiDA-acc): a
// MultiAccTileArray on one device. The caching protocol of §IV-B4 and the
// dual-path ghost exchange of §IV-B6 live in core/multi_acc_array.hpp; this
// facade maps AccOptions onto MultiAccOptions, carries the caching
// ablation, and keeps the one-device accessors. Like a devices = 1
// MultiAccTileArray, an AccTileArray lives on device 0.
//
// AccTile and AccTileIterator — the tiles compute() consumes — bind to any
// MultiAccTileArray.
#pragma once

#include <limits>
#include <vector>

#include "common/error.hpp"
#include "core/multi_acc_array.hpp"
#include "tida/tile_iterator.hpp"

namespace tidacc::core {

/// Construction options for AccTileArray. Every field but disable_caching
/// means what its MultiAccOptions namesake does.
struct AccOptions {
  tida::HostAlloc host_alloc = tida::HostAlloc::kPinned;
  /// Cap on device slots (MultiAccOptions::max_slots_per_device).
  int max_slots = std::numeric_limits<int>::max();
  /// Disables the paper's caching (§IV-B4): every device acquire re-uploads
  /// even when the region is already resident. Ablation-only switch — shows
  /// what the cache table is worth.
  bool disable_caching = false;
  int ncomp = 1;
  SlotPolicyKind slot_policy = SlotPolicyKind::kStaticModulo;
  bool delta_transfers = false;
  StreamingGuard streaming_guard = StreamingGuard::kAuto;
  int time_block_k = 1;
  Compression compression = Compression::kOff;
};

template <typename T>
class AccTileArray : public MultiAccTileArray<T> {
 public:
  using Multi = MultiAccTileArray<T>;

  AccTileArray(const tida::Box& domain, const tida::Index3& region_size,
               int ghost, AccOptions opts = {})
      : Multi(domain, region_size, ghost, multi_options(opts)) {
    this->disable_caching_ = opts.disable_caching;
  }

  /// Region→slot policy of the device's pool.
  SlotPolicyKind slot_policy() const {
    return this->scheduler().policy_kind();
  }

  /// Remaps slot→stream (see DevicePool::set_stream_permutation).
  /// Fuzzing/ablation hook.
  using Multi::set_stream_permutation;
  void set_stream_permutation(const std::vector<int>& perm) {
    Multi::set_stream_permutation(0, perm);
  }

 private:
  static MultiAccOptions multi_options(const AccOptions& o) {
    MultiAccOptions m;
    m.host_alloc = o.host_alloc;
    m.devices = 1;
    m.max_slots_per_device = o.max_slots;
    m.ncomp = o.ncomp;
    m.slot_policy = o.slot_policy;
    m.delta_transfers = o.delta_transfers;
    m.streaming_guard = o.streaming_guard;
    m.time_block_k = o.time_block_k;
    m.compression = o.compression;
    return m;
  }
};

/// A tile bound to its array plus the traversal's GPU flag — what
/// compute() consumes.
template <typename T>
struct AccTile {
  MultiAccTileArray<T>* array = nullptr;
  tida::Tile<T> tile;
  bool gpu = false;
};

/// Tile iterator over an array; tile() yields AccTiles carrying the GPU
/// flag set by reset(GPU=true) (paper §V). A GPU pass visits regions in
/// the array's residency order (SlotScheduler::visit_ranks).
template <typename T>
class AccTileIterator : public tida::TileIterator<T> {
 public:
  explicit AccTileIterator(MultiAccTileArray<T>& array,
                           const tida::Index3& tile_size = {0, 0, 0})
      : tida::TileIterator<T>(array, tile_size), array_(&array) {}

  /// Restarts the traversal; `gpu` enables device execution for this pass.
  /// A GPU pass visits the regions already on the device first, in the
  /// order the slot schedulers rank them, and the rest after; within a
  /// rank, and on CPU passes, the base order (region-major, or shuffle()'s)
  /// holds. After request_region_major() every pass keeps the base order.
  void reset(bool gpu = false) {
    this->restart(gpu, gpu && !region_major_ ? array_->visit_ranks()
                                             : std::vector<int>{});
  }

  /// Makes every later pass keep the base order whatever is resident — the
  /// paper's region-major traversal, which the figure reproductions
  /// (baselines::run_sincos_tidacc) pin.
  void request_region_major() { region_major_ = true; }

  AccTile<T> tile() const {
    return AccTile<T>{array_, tida::TileIterator<T>::tile(), this->gpu()};
  }

  /// Binds the same traversal position to a sibling array (same geometry):
  /// the paper's multi-tile compute passes tiles of several arrays at the
  /// same iterator position.
  AccTile<T> tile_in(MultiAccTileArray<T>& other) const {
    const tida::Tile<T> t = tida::TileIterator<T>::tile();
    TIDACC_CHECK_MSG(other.partition() == array_->partition(),
                     "sibling array must share the partition geometry");
    return AccTile<T>{&other,
                      tida::Tile<T>{other.region(t.region.id), t.box},
                      this->gpu()};
  }

 private:
  MultiAccTileArray<T>* array_;
  bool region_major_ = false;
};

}  // namespace tidacc::core

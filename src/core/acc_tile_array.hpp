// AccTileArray — the paper's single-GPU tileArray (TiDA-acc): a
// MultiAccTileArray pinned to device 0. The caching protocol of §IV-B4 and
// the dual-path ghost exchange of §IV-B6 live in core/multi_acc_array.hpp,
// and its options are MultiAccOptions (AccOptions names the same struct).
//
// AccTile and AccTileIterator — the tiles compute() consumes — bind to any
// MultiAccTileArray.
#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/multi_acc_array.hpp"
#include "tida/tile_iterator.hpp"

namespace tidacc::core {

using AccOptions = MultiAccOptions;

template <typename T>
class AccTileArray : public MultiAccTileArray<T> {
 public:
  AccTileArray(const tida::Box& domain, const tida::Index3& region_size,
               int ghost, AccOptions opts = {})
      : MultiAccTileArray<T>(domain, region_size, ghost, on_device_0(opts)) {}

 private:
  static AccOptions on_device_0(AccOptions o) {
    TIDACC_CHECK_MSG(o.devices == 0 || o.devices == 1,
                     "AccTileArray lives on device 0: devices must be 0 or "
                     "1, got devices=" +
                         std::to_string(o.devices) +
                         " (use MultiAccTileArray to span devices)");
    o.devices = 1;
    return o;
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

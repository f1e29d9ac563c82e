// TileIterator — the paper's tile iterator: traverses the logical tiles of
// a TileArray (tiles partition each region's valid box by a tile size) and
// carries the GPU-enable flag that switches a traversal between CPU and GPU
// execution (paper §V: `tIter.reset(GPU=true)`).
//
// The iterator only sequences tiles; executing a tile on the device is the
// job of core::compute(). Iteration order is unspecified by the model
// (out-of-order execution is allowed). The base order is deterministic:
// region-major, or a seeded shuffle() of it. A subclass may reorder single
// passes through restart(): GPU passes of a core::AccTileIterator visit
// regions in residency order — the slot scheduler puts regions already on
// the device first, so a shared slot swaps behind other regions' kernels —
// unless the caller requested region-major order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tida/tile_array.hpp"

namespace tidacc::tida {

template <typename T>
class TileIterator {
 public:
  /// Creates an iterator over `array` with logical tiles of `tile_size`.
  /// A zero tile size (default) means tile == region, the recommended
  /// setting for GPU execution (§V: smaller tiles mean extra kernel
  /// launches per region).
  explicit TileIterator(TileArray<T>& array,
                        const Index3& tile_size = Index3{0, 0, 0})
      : array_(&array) {
    const Index3 rs = array.partition().region_size();
    const Index3 ts{tile_size.i > 0 ? tile_size.i : rs.i,
                    tile_size.j > 0 ? tile_size.j : rs.j,
                    tile_size.k > 0 ? tile_size.k : rs.k};
    for (int id = 0; id < array.num_regions(); ++id) {
      const Box valid = array.partition().region_box(id);
      const Partition tiling(valid, ts);
      for (int t = 0; t < tiling.num_regions(); ++t) {
        entries_.push_back(Entry{id, tiling.region_box(t), entries_.size()});
      }
    }
  }

  /// Restarts the traversal in the base order; `gpu` enables device
  /// execution for this pass.
  void reset(bool gpu = false) { restart(gpu, {}); }

  /// Permutes the base order (the model allows out-of-order tile
  /// execution; a deterministic shuffle exercises order-independence in
  /// tests and spreads slot contention in limited-memory runs).
  void shuffle(std::uint64_t seed) {
    restart(gpu_, {});
    Rng rng(seed);
    for (std::size_t i = entries_.size(); i > 1; --i) {
      std::swap(entries_[i - 1], entries_[rng.next_below(i)]);
    }
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      entries_[i].base_pos = i;
    }
  }

  /// True while a tile is available.
  bool isValid() const { return pos_ < entries_.size(); }

  /// Advances to the next tile.
  void next() {
    TIDACC_CHECK_MSG(isValid(), "next() past the end of the traversal");
    ++pos_;
  }

  /// The current tile.
  Tile<T> tile() const {
    TIDACC_CHECK_MSG(isValid(), "tile() on an exhausted iterator");
    const Entry& e = entries_[pos_];
    return Tile<T>{array_->region(e.region_id), e.box};
  }

  /// Region id of the tile `ahead` positions past the current one, or -1
  /// when the traversal ends before that — the lookahead the slot
  /// scheduler's prefetcher consumes.
  int peek_region(std::size_t ahead = 1) const {
    const std::size_t p = pos_ + ahead;
    return p < entries_.size() ? entries_[p].region_id : -1;
  }

  /// Whether this traversal requested GPU execution.
  bool gpu() const { return gpu_; }

  /// Total number of tiles in one traversal.
  std::size_t num_tiles() const { return entries_.size(); }

  /// Number of tiles per region (uniform partitioning ⇒ same count except
  /// possibly for edge regions).
  std::size_t tiles_in_region(int region_id) const {
    std::size_t n = 0;
    for (const Entry& e : entries_) {
      n += (e.region_id == region_id);
    }
    return n;
  }

 protected:
  /// The ordering hook behind reset(): restarts the traversal, visiting
  /// regions in ascending `rank[region id]` for this pass and tiles of equal
  /// rank in the base order. An empty or uniform `rank` is the base order.
  void restart(bool gpu, const std::vector<int>& rank) {
    pos_ = 0;
    gpu_ = gpu;
    const bool uniform =
        std::adjacent_find(rank.begin(), rank.end(), std::not_equal_to<>()) ==
        rank.end();
    if (uniform && !reordered_) {
      return;  // one rank (or none): the base order
    }
    const auto key = [&rank, uniform](const Entry& e) {
      return std::pair{
          uniform ? 0 : rank[static_cast<std::size_t>(e.region_id)],
          e.base_pos};
    };
    std::sort(entries_.begin(), entries_.end(),
              [&key](const Entry& x, const Entry& y) {
                return key(x) < key(y);
              });
    reordered_ = !uniform;
  }

 private:
  struct Entry {
    int region_id;
    Box box;
    std::size_t base_pos;  ///< position in the base order
  };

  TileArray<T>* array_;
  std::vector<Entry> entries_;
  std::size_t pos_ = 0;
  bool gpu_ = false;
  bool reordered_ = false;  ///< entries_ deviate from the base order
};

}  // namespace tidacc::tida

// TileArray — the paper's tileArray: physically separated per-region
// buffers (each padded with ghost layers), allocated in pinned or pageable
// host memory, with host-side ghost exchange.
//
// Regions are views into those buffers; Tiles are logical sub-boxes of a
// region's valid box (iteration-space partitioning for cache reuse on the
// CPU). The GPU extension (device mirrors, caching, async transfers) lives
// in core/multi_acc_array.hpp on top of this class.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "cuem/cuem.hpp"
#include "tida/box.hpp"
#include "tida/ghost.hpp"
#include "tida/partition.hpp"

namespace tidacc::tida {

/// Host allocation flavour for region buffers. The paper uses pinned
/// (cudaMallocHost) so transfers are fast and overlappable (§IV-A).
enum class HostAlloc : int { kPageable = 0, kPinned = 1 };

/// Where the cells of a buffer laid out over one box live, by global
/// index: i fastest, then j, then k, and component c a contiguous block at
/// c * comp_stride (component-major). The one place this layout is spelled
/// out. Built once per view, it turns every cell access into one
/// multiply-add chain.
struct CellLayout {
  /// Offset of global cell (0, 0, 0) of component 0. That cell may lie
  /// outside the box, so the origin is only ever summed into a full offset,
  /// never added to a pointer on its own.
  std::ptrdiff_t origin = 0;
  std::ptrdiff_t j_stride = 0;     ///< cells from (i, j, k) to (i, j + 1, k)
  std::ptrdiff_t k_stride = 0;     ///< cells from (i, j, k) to (i, j, k + 1)
  std::ptrdiff_t comp_stride = 0;  ///< cells of one component's block

  CellLayout() = default;
  explicit CellLayout(const Box& box) {
    const Index3 e = box.extent();
    j_stride = e.i;
    k_stride = j_stride * e.j;
    comp_stride = k_stride * e.k;
    origin = -(box.lo.i + box.lo.j * j_stride + box.lo.k * k_stride);
  }

  std::ptrdiff_t offset(int i, int j, int k) const {
    return origin + i + j * j_stride + k * k_stride;
  }
  std::ptrdiff_t offset(int i, int j, int k, int c) const {
    return offset(i, j, k) + c * comp_stride;
  }
  std::ptrdiff_t offset(const Index3& p, int c = 0) const {
    return offset(p.i, p.j, p.k, c);
  }
};

/// Non-owning view of one region's storage, laid out over the grown box
/// (valid + ghost) as `layout` describes; indices are global (domain)
/// coordinates.
template <typename T>
struct Region {
  int id = -1;
  Box valid;   ///< cells owned by this region
  Box grown;   ///< valid grown by the ghost width
  T* data = nullptr;
  int ncomp = 1;  ///< components per cell (BoxLib-style multi-component)
  CellLayout layout;  ///< CellLayout(grown)

  Index3 extent() const { return grown.extent(); }

  /// Cells of one component's block.
  std::uint64_t comp_stride() const {
    return static_cast<std::uint64_t>(layout.comp_stride);
  }

  /// Linear offset of a global cell inside component `c`'s block.
  std::size_t offset_of(const Index3& p, int c = 0) const {
    return static_cast<std::size_t>(layout.offset(p, c));
  }

  T& at(const Index3& p) const { return data[layout.offset(p)]; }
  T& at(int i, int j, int k) const { return data[layout.offset(i, j, k)]; }
  T& at(const Index3& p, int c) const { return data[layout.offset(p, c)]; }
  T& at(int i, int j, int k, int c) const {
    return data[layout.offset(i, j, k, c)];
  }

  std::uint64_t cells() const { return grown.volume() * ncomp; }
  std::size_t bytes() const { return cells() * sizeof(T); }
};

/// Logical tile: an iteration sub-box of one region.
template <typename T>
struct Tile {
  Region<T> region;
  Box box;  ///< iteration space, subset of region.valid
};

/// Executes one planned ghost copy from `src` into `dst`, all components,
/// row by row through the views' layouts: one memcpy per (j, k) row, or
/// one assignment when the row is a single cell. The views may point at
/// host buffers or at device slot buffers: host and device exchanges share
/// this loop.
template <typename T>
void copy_ghost_cells(const GhostCopy& c, const Region<T>& src,
                      const Region<T>& dst) {
  const Index3 e = c.dst_box.extent();
  const std::size_t row_bytes = static_cast<std::size_t>(e.i) * sizeof(T);
  for (int comp = 0; comp < dst.ncomp; ++comp) {
    for (int k = 0; k < e.k; ++k) {
      for (int j = 0; j < e.j; ++j) {
        T* const d = &dst.at(c.dst_box.lo.i, c.dst_box.lo.j + j,
                             c.dst_box.lo.k + k, comp);
        const T* const s = &src.at(c.src_box.lo.i, c.src_box.lo.j + j,
                                   c.src_box.lo.k + k, comp);
        if (e.i == 1) {
          *d = *s;
        } else {
          std::memcpy(d, s, row_bytes);
        }
      }
    }
  }
}

/// The tiled array: owns one buffer per region.
template <typename T>
class TileArray {
 public:
  /// Decomposes `domain` into regions of `region_size`, each padded by
  /// `ghost` layers, and allocates the per-region buffers (`ncomp`
  /// components per cell, component-major).
  TileArray(const Box& domain, const Index3& region_size, int ghost,
            HostAlloc alloc = HostAlloc::kPinned, int ncomp = 1)
      : part_(domain, region_size),
        ghost_(ghost),
        alloc_(alloc),
        ncomp_(ncomp),
        generation_(sim::Platform::generation()),
        layout_(LayoutPlans::of(part_, ghost)) {
    TIDACC_CHECK_MSG(ghost >= 0, "negative ghost width");
    TIDACC_CHECK_MSG(ncomp >= 1, "need at least one component");
    buffers_.reserve(part_.num_regions());
    for (int id = 0; id < part_.num_regions(); ++id) {
      const std::size_t bytes =
          part_.region_box(id).grow(ghost_).volume() * ncomp_ * sizeof(T);
      buffers_.push_back(static_cast<T*>(
          cuem::host_alloc(bytes, alloc == HostAlloc::kPinned)));
    }
  }

  ~TileArray() {
    // A platform reset since construction released the buffers already,
    // and their addresses may belong to a newer array now.
    if (generation_ != sim::Platform::generation()) {
      return;
    }
    for (T* buf : buffers_) {
      cuem::host_free(buf);
    }
  }

  TileArray(const TileArray&) = delete;
  TileArray& operator=(const TileArray&) = delete;

  const Partition& partition() const { return part_; }
  const Box& domain() const { return part_.domain(); }
  int num_regions() const { return part_.num_regions(); }
  int ghost() const { return ghost_; }
  int ncomp() const { return ncomp_; }
  HostAlloc host_alloc_kind() const { return alloc_; }

  /// View of region `id`.
  Region<T> region(int id) const {
    const Box valid = part_.region_box(id);
    const Box grown = valid.grow(ghost_);
    return Region<T>{id, valid, grown, buffers_[static_cast<std::size_t>(id)],
                     ncomp_, CellLayout(grown)};
  }

  /// Bytes of one region's buffer (valid + ghosts).
  std::size_t region_bytes(int id) const { return region(id).bytes(); }

  /// Total bytes across all regions.
  std::size_t total_bytes() const {
    std::size_t total = 0;
    for (int id = 0; id < num_regions(); ++id) {
      total += region_bytes(id);
    }
    return total;
  }

  /// Reference to a valid (non-ghost) cell, located through the partition.
  /// Host-side convenience for tests/examples; requires functional mode.
  T& at(const Index3& cell) const {
    const int id = part_.region_of_cell(cell);
    TIDACC_CHECK_MSG(id >= 0, "cell outside the domain");
    return region(id).at(cell);
  }

  /// Fills valid cells by calling fn(global_index) — every component gets
  /// the same value; use fill_components for per-component data. Ghost
  /// cells are refreshed with fill_boundary afterwards.
  template <typename Fn>
  void fill(Fn&& fn) {
    fill_components(
        [&fn](const Index3& p, int) { return fn(p); });
  }

  /// Fills valid cells by calling fn(global_index, component).
  template <typename Fn>
  void fill_components(Fn&& fn) {
    TIDACC_CHECK_MSG(cuem::functional(),
                     "fill requires functional mode (data is synthetic in "
                     "timing-only mode)");
    for (int id = 0; id < num_regions(); ++id) {
      const Region<T> r = region(id);
      for (int c = 0; c < ncomp_; ++c) {
        for (int k = r.valid.lo.k; k <= r.valid.hi.k; ++k) {
          for (int j = r.valid.lo.j; j <= r.valid.hi.j; ++j) {
            T* const row = &r.at(r.valid.lo.i, j, k, c);
            for (int i = r.valid.lo.i; i <= r.valid.hi.i; ++i) {
              row[i - r.valid.lo.i] = fn(Index3{i, j, k}, c);
            }
          }
        }
      }
    }
  }

  /// Copies one component's valid cells out into a flat domain-ordered
  /// array (i-fastest), one row at a time.
  void copy_out(T* flat, int comp = 0) const {
    TIDACC_CHECK_MSG(cuem::functional(), "copy_out requires functional mode");
    TIDACC_CHECK_MSG(comp >= 0 && comp < ncomp_, "component out of range");
    const CellLayout out(domain());
    for (int id = 0; id < num_regions(); ++id) {
      const Region<T> r = region(id);
      const std::size_t row_bytes =
          static_cast<std::size_t>(r.valid.extent().i) * sizeof(T);
      for (int k = r.valid.lo.k; k <= r.valid.hi.k; ++k) {
        for (int j = r.valid.lo.j; j <= r.valid.hi.j; ++j) {
          std::memcpy(flat + out.offset(r.valid.lo.i, j, k),
                      &r.at(r.valid.lo.i, j, k, comp), row_bytes);
        }
      }
    }
  }

  /// Host-side ghost exchange (the original TiDA path). Executes the
  /// exchange plan with row-wise memcpy; in timing-only mode only the cost
  /// is charged. Returns the number of ghost cells refreshed.
  std::uint64_t fill_boundary_host(Boundary bc) {
    std::uint64_t cells = 0;
    for (const GhostCopy& c : exchange_plan(bc)) {
      cells += run_host_copy(c);
    }
    return charge_host_copies(cells);
  }

  /// Subset form: executes only the listed plan copies (indices into
  /// exchange_plan(bc)) and charges just their share of the host copy time
  /// — one destination's host-path copies at a time for the pipelined
  /// out-of-core exchange.
  std::uint64_t fill_boundary_host(Boundary bc,
                                   std::span<const std::size_t> copies) {
    const std::vector<GhostCopy>& plan = exchange_plan(bc);
    std::uint64_t cells = 0;
    for (const std::size_t c : copies) {
      TIDACC_CHECK_MSG(c < plan.size(), "exchange plan index out of bounds");
      cells += run_host_copy(plan[c]);
    }
    return charge_host_copies(cells);
  }

  /// The exchange plan of this array's layout, computed on first use by
  /// any array on the layout (LayoutPlans).
  const std::vector<GhostCopy>& exchange_plan(Boundary bc) {
    return layout_->plan(bc);
  }

  /// The exchange plan's copies grouped by (source, destination) region
  /// pair (LayoutPlans::pairs).
  const PairIndex& exchange_pairs(Boundary bc) { return layout_->pairs(bc); }

  /// Executes one planned copy on host buffers, all components (also used
  /// by tests).
  void apply_copy_host(const GhostCopy& c) {
    copy_ghost_cells(c, region(c.src_region), region(c.dst_region));
  }

 private:
  /// One host-exchange copy: the memcpys in functional mode; returns the
  /// ghost cells it refreshes (one component).
  std::uint64_t run_host_copy(const GhostCopy& c) {
    if (cuem::functional()) {
      apply_copy_host(c);
    }
    return c.dst_box.volume();
  }

  /// Charges the host copy time of `cells` single-component ghost cells;
  /// returns the cells refreshed over all components.
  std::uint64_t charge_host_copies(std::uint64_t cells) {
    cells *= static_cast<std::uint64_t>(ncomp_);
    sim::Platform& p = sim::Platform::instance();
    p.host_advance(p.config().host_copy_ns(cells * sizeof(T)));
    return cells;
  }

  Partition part_;
  int ghost_;
  HostAlloc alloc_;
  int ncomp_ = 1;
  std::uint64_t generation_;  ///< platform generation of the buffers
  std::vector<T*> buffers_;
  std::shared_ptr<LayoutPlans> layout_;
};

}  // namespace tidacc::tida

// Ghost-cell exchange planning.
//
// A plan is the full list of box copies that refresh every region's ghost
// cells from its neighbours' valid cells (paper §III / Fig. 4). The plan is
// geometry-only (no data types), so the same plan drives both the host-side
// exchange (tida::TileArray::fill_boundary_host) and the device-side
// exchange (core::AccContext), where the CPU "computes the indices" — i.e.
// exactly this plan — while the GPU applies previously planned copies.
//
// A plan depends only on the layout (the domain, the region size and the
// ghost width), so arrays on one layout share theirs (LayoutPlans).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "tida/partition.hpp"

namespace tidacc::tida {

/// Domain boundary treatment for the exchange.
enum class Boundary : int {
  kNone = 0,    ///< ghost cells outside the domain are left untouched
  kPeriodic = 1 ///< the domain wraps in every dimension
};

const char* to_string(Boundary b);

/// One box copy: src_box (in src_region's valid space, domain coordinates)
/// feeds dst_box (in dst_region's ghost zone). Boxes have equal shape;
/// `shift` maps dst cells to src cells (src = dst + shift).
struct GhostCopy {
  int src_region = -1;
  int dst_region = -1;
  Box src_box;
  Box dst_box;
  Index3 shift{0, 0, 0};
};

/// Computes the complete exchange plan for a partition with `ghost` layers.
/// Copies are grouped by destination region (all copies into region 0 first,
/// then region 1, ...), which the device path exploits for pipelining.
/// Within a destination the order is fixed: its 26 face, edge and corner
/// pieces k-major (k, then j, then i from -1 to +1), each piece's wrapped
/// sub-boxes i-major (below, inside, above the domain), and each
/// sub-box's sources by ascending id. Costs O(regions + copies).
std::vector<GhostCopy> compute_exchange_plan(const Partition& part, int ghost,
                                             Boundary bc);

/// Total number of ghost cells written by a plan.
std::uint64_t plan_cells(const std::vector<GhostCopy>& plan);

/// Copies one region of `part` can receive under either boundary with
/// `ghost` layers, bounded without building a plan. Along each dimension a
/// ghost piece of a region is either the region's own range (one region of
/// the partition's tensor grid) or a band `ghost` thick beside it. The band
/// starts at a region boundary (the periodic wrap lands on one too), so it
/// crosses at most c = ceil(ghost / m) regions, m the smallest region
/// extent along that dimension. Over the 26 pieces that is
/// prod(1 + 2c) - 1: exactly 26 when every region is at least `ghost`
/// wide. The plan builder reserves with it, and the device exchange sizes
/// its descriptor buffers with it.
std::size_t descriptors_per_region(const Partition& part, int ghost);

/// The copies of a plan between one (source, destination) region pair.
struct RegionPair {
  int src_region = -1;
  int dst_region = -1;
  /// The pair's plan indices: [begin, end) of PairIndex::copies.
  std::size_t begin = 0;
  std::size_t end = 0;
  /// Ghost cells those copies write.
  std::uint64_t cells = 0;

  /// Number of copies.
  std::size_t count() const { return end - begin; }
};

/// A plan's copies grouped by (source, destination) region pair, the
/// granularity of every decision the device exchange makes per copy: which
/// device, node or residency each end has. A layout has far fewer pairs
/// than copies (a slab's 26 pieces come from itself and its two
/// neighbours), so the exchange decides per pair and touches single copies
/// only where it issues or notes them, in plan order.
struct PairIndex {
  /// Every pair with a copy, ordered by its first copy; the plan is
  /// grouped by destination, so the pairs are too.
  std::vector<RegionPair> pairs;
  /// Plan indices, pair after pair, each pair's in plan order.
  std::vector<std::size_t> copies;
  /// Per region, the range [begin, end) of `pairs` writing into it.
  std::vector<std::pair<std::size_t, std::size_t>> into;
  /// Ghost cells the whole plan writes (plan_cells).
  std::uint64_t cells = 0;

  /// The plan indices of `p`'s copies, in plan order.
  std::span<const std::size_t> copies_of(const RegionPair& p) const {
    return {copies.data() + p.begin, p.count()};
  }
  /// The pairs writing into region `dst`, ordered by first copy.
  std::span<const RegionPair> pairs_into(int dst) const {
    const auto [begin, end] = into[static_cast<std::size_t>(dst)];
    return {pairs.data() + begin, end - begin};
  }
  /// Appends to `out` the plan indices of every pair into `dst` that
  /// `take(p)` accepts (p indexes `pairs`), merged back into plan order: a
  /// destination's pairs interleave in the plan.
  template <typename Take>
  void append_copies(int dst, const Take& take,
                     std::vector<std::size_t>& out) const {
    const std::size_t first = out.size();
    std::size_t taken = 0;
    const auto [begin, end] = into[static_cast<std::size_t>(dst)];
    for (std::size_t p = begin; p < end; ++p) {
      if (take(p)) {
        const std::span<const std::size_t> mine = copies_of(pairs[p]);
        out.insert(out.end(), mine.begin(), mine.end());
        ++taken;
      }
    }
    if (taken > 1) {
      std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
    }
  }
};

/// The pair index of `plan` (grouped by destination, as
/// compute_exchange_plan builds it) over `num_regions` regions, in one pass.
PairIndex index_pairs(const std::vector<GhostCopy>& plan, int num_regions);

/// The exchange plans of one layout, a partition with `ghost` layers: one
/// per boundary, each computed on first use, with its pair index. Every
/// array built on the layout since the last platform reset shares them
/// (of()), so a layout pays each plan once however many arrays it carries.
/// Both are derived from the layout alone, never simulated state.
class LayoutPlans {
 public:
  LayoutPlans(Partition part, int ghost);

  /// The plans an array built on `part` with `ghost` layers uses: those of
  /// a live array on the same layout, else new ones.
  static std::shared_ptr<LayoutPlans> of(const Partition& part, int ghost);

  const std::vector<GhostCopy>& plan(Boundary bc);

  /// The pair index of plan(bc).
  const PairIndex& pairs(Boundary bc);

 private:
  Partition part_;
  int ghost_;
  std::array<std::optional<std::vector<GhostCopy>>, 2> plans_;
  std::array<std::optional<PairIndex>, 2> pairs_;
};

}  // namespace tidacc::tida

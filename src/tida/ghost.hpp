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

#include <array>
#include <memory>
#include <optional>
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
std::vector<GhostCopy> compute_exchange_plan(const Partition& part, int ghost,
                                             Boundary bc);

/// Total number of ghost cells written by a plan.
std::uint64_t plan_cells(const std::vector<GhostCopy>& plan);

/// The exchange plans of one layout, a partition with `ghost` layers: one
/// per boundary, each computed on first use. Every array built on the
/// layout since the last platform reset shares them (of()), so a layout
/// pays each plan once however many arrays it carries.
class LayoutPlans {
 public:
  LayoutPlans(Partition part, int ghost);

  /// The plans an array built on `part` with `ghost` layers uses: those of
  /// a live array on the same layout, else new ones.
  static std::shared_ptr<LayoutPlans> of(const Partition& part, int ghost);

  const std::vector<GhostCopy>& plan(Boundary bc);

 private:
  Partition part_;
  int ghost_;
  std::array<std::optional<std::vector<GhostCopy>>, 2> plans_;
};

}  // namespace tidacc::tida

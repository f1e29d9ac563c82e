// Domain decomposition: splits a domain box into a regular grid of region
// boxes of (at most) a requested size. Regions are the paper's unit of
// physical memory separation, host↔device transfer and kernel execution.
#pragma once

#include <vector>

#include "tida/box.hpp"

namespace tidacc::tida {

/// Regular decomposition of `domain` into regions of `region_size` (edge
/// regions may be smaller). Region ids are 0..num_regions()-1 in i-fastest
/// order over the region grid.
class Partition {
 public:
  Partition() = default;
  Partition(const Box& domain, const Index3& region_size);

  const Box& domain() const { return domain_; }
  const Index3& region_size() const { return region_size_; }

  int num_regions() const { return static_cast<int>(boxes_.size()); }

  /// Valid (interior, non-ghost) box of a region.
  const Box& region_box(int id) const;

  /// Extents of the region grid (#regions per dimension).
  const Index3& grid_dims() const { return grid_dims_; }

  /// Region-grid coordinate of a region id.
  Index3 grid_coord(int id) const;

  /// Region id at a region-grid coordinate.
  int region_at_coord(const Index3& coord) const;

  /// Region id owning a domain cell (-1 if outside the domain).
  int region_of_cell(const Index3& cell) const;

  /// The regions whose valid boxes intersect `box`, as the box of their
  /// region-grid coordinates (empty when none do): regions tile the domain
  /// on a regular grid, so they always form one such range. Walking it
  /// k-j-i (region_at_coord) visits their ids in ascending order. Costs
  /// O(1), not the number of regions.
  Box regions_intersecting(const Box& box) const;

  /// The largest region volume (used to size uniform device buffers).
  std::uint64_t max_region_volume(int ghost) const;

  friend bool operator==(const Partition&, const Partition&) = default;

 private:
  Box domain_;
  Index3 region_size_{1, 1, 1};
  Index3 grid_dims_{0, 0, 0};
  std::vector<Box> boxes_;
};

}  // namespace tidacc::tida

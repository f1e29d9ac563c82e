// Unit + property tests for the tida index algebra (Index3, Box, Partition,
// ghost-exchange planning).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <tuple>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tida/box.hpp"
#include "tida/ghost.hpp"
#include "tida/index.hpp"
#include "tida/partition.hpp"

namespace tidacc::tida {
namespace {

// --- Index3 ---

TEST(Index3, Arithmetic) {
  const Index3 a{1, 2, 3};
  const Index3 b{10, 20, 30};
  EXPECT_EQ(a + b, (Index3{11, 22, 33}));
  EXPECT_EQ(b - a, (Index3{9, 18, 27}));
  EXPECT_EQ(-a, (Index3{-1, -2, -3}));
  EXPECT_EQ(a * 3, (Index3{3, 6, 9}));
}

TEST(Index3, MinMax) {
  const Index3 a{1, 20, 3};
  const Index3 b{10, 2, 30};
  EXPECT_EQ(Index3::min(a, b), (Index3{1, 2, 3}));
  EXPECT_EQ(Index3::max(a, b), (Index3{10, 20, 30}));
}

TEST(Index3, Ordering) {
  EXPECT_TRUE((Index3{2, 2, 2}).all_ge({1, 2, 2}));
  EXPECT_FALSE((Index3{2, 1, 2}).all_ge({1, 2, 2}));
  EXPECT_TRUE((Index3{1, 1, 1}).all_le({1, 2, 3}));
}

TEST(Index3, ToString) { EXPECT_EQ((Index3{1, 2, 3}).to_string(), "(1,2,3)"); }

// --- Box ---

TEST(Box, FromExtentsAndVolume) {
  const Box b = Box::from_extents({4, 5, 6});
  EXPECT_EQ(b.lo, (Index3{0, 0, 0}));
  EXPECT_EQ(b.hi, (Index3{3, 4, 5}));
  EXPECT_EQ(b.volume(), 120ull);
  EXPECT_EQ(b.extent(), (Index3{4, 5, 6}));
}

TEST(Box, DefaultIsEmpty) {
  const Box b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.volume(), 0ull);
  EXPECT_EQ(b.extent(), (Index3{0, 0, 0}));
}

TEST(Box, Contains) {
  const Box b = Box::cube(4);
  EXPECT_TRUE(b.contains(Index3{0, 0, 0}));
  EXPECT_TRUE(b.contains(Index3{3, 3, 3}));
  EXPECT_FALSE(b.contains(Index3{4, 0, 0}));
  EXPECT_FALSE(b.contains(Index3{0, -1, 0}));
  EXPECT_TRUE(b.contains(Box{{1, 1, 1}, {2, 2, 2}}));
  EXPECT_FALSE(b.contains(Box{{1, 1, 1}, {4, 2, 2}}));
  EXPECT_TRUE(b.contains(Box{}));  // empty box is contained anywhere
}

TEST(Box, Intersect) {
  const Box a{{0, 0, 0}, {5, 5, 5}};
  const Box b{{3, 3, 3}, {8, 8, 8}};
  EXPECT_EQ(a.intersect(b), (Box{{3, 3, 3}, {5, 5, 5}}));
  const Box c{{7, 0, 0}, {9, 5, 5}};
  EXPECT_TRUE(a.intersect(c).empty());
  EXPECT_FALSE(a.intersects(c));
  EXPECT_TRUE(a.intersects(b));
}

TEST(Box, GrowAndShrink) {
  const Box b{{2, 2, 2}, {4, 4, 4}};
  EXPECT_EQ(b.grow(1), (Box{{1, 1, 1}, {5, 5, 5}}));
  EXPECT_EQ(b.grow(-1), (Box{{3, 3, 3}, {3, 3, 3}}));
  EXPECT_EQ(b.grow(Index3{1, 0, 2}), (Box{{1, 2, 0}, {5, 4, 6}}));
}

TEST(Box, Shift) {
  const Box b{{0, 0, 0}, {1, 1, 1}};
  EXPECT_EQ(b.shift({5, -2, 0}), (Box{{5, -2, 0}, {6, -1, 1}}));
}

TEST(Box, ToString) {
  EXPECT_EQ(Box::cube(2).to_string(), "[(0,0,0)..(1,1,1)]");
  EXPECT_EQ(Box{}.to_string(), "[empty]");
}

// --- box set algebra (dirty-region bookkeeping primitives) ---

// Enumerates the cells of every box in `list` into a set, asserting
// pairwise disjointness along the way.
std::set<std::tuple<int, int, int>> cells_of(const std::vector<Box>& list) {
  std::set<std::tuple<int, int, int>> cells;
  for (const Box& b : list) {
    for (int k = b.lo.k; k <= b.hi.k; ++k) {
      for (int j = b.lo.j; j <= b.hi.j; ++j) {
        for (int i = b.lo.i; i <= b.hi.i; ++i) {
          EXPECT_TRUE(cells.insert({i, j, k}).second)
              << "cell (" << i << "," << j << "," << k
              << ") covered by two boxes";
        }
      }
    }
  }
  return cells;
}

TEST(BoxSubtract, PiecesTileTheDifferenceExactly) {
  const Box b{{0, 0, 0}, {5, 5, 5}};
  const Box a{{2, 2, 2}, {7, 3, 4}};
  const auto pieces = subtract(b, a);
  EXPECT_LE(pieces.size(), 6u);
  const auto cells = cells_of(pieces);
  std::uint64_t expected = 0;
  for (int k = b.lo.k; k <= b.hi.k; ++k) {
    for (int j = b.lo.j; j <= b.hi.j; ++j) {
      for (int i = b.lo.i; i <= b.hi.i; ++i) {
        const bool outside = !a.contains(Index3{i, j, k});
        EXPECT_EQ(cells.count({i, j, k}), outside ? 1u : 0u);
        expected += outside;
      }
    }
  }
  EXPECT_EQ(cells.size(), expected);
  EXPECT_EQ(list_volume(pieces), expected);
}

TEST(BoxSubtract, DisjointAndCoveredEdgeCases) {
  const Box b{{0, 0, 0}, {3, 3, 3}};
  EXPECT_EQ(subtract(b, Box{{10, 10, 10}, {12, 12, 12}}),
            (std::vector<Box>{b}));
  EXPECT_TRUE(subtract(b, b.grow(1)).empty());
  EXPECT_TRUE(subtract(b, b).empty());
  EXPECT_TRUE(subtract(Box{}, b).empty());
}

TEST(BoxSubtract, InteriorHoleYieldsSixSlabs) {
  const Box b = Box::cube(5);
  const auto pieces = subtract(b, Box{{1, 1, 1}, {3, 3, 3}});
  EXPECT_EQ(pieces.size(), 6u);
  EXPECT_EQ(list_volume(pieces), 125u - 27u);
}

TEST(BoxSubtract, ListStaysDisjointUnderRepeatedSubtraction) {
  std::vector<Box> list{Box::cube(6)};
  subtract_from_list(list, Box{{0, 0, 0}, {2, 5, 5}});
  subtract_from_list(list, Box{{4, 4, 0}, {5, 5, 5}});
  subtract_from_list(list, Box{{3, 0, 3}, {3, 0, 3}});
  const auto cells = cells_of(list);  // asserts disjointness
  EXPECT_EQ(cells.size(), list_volume(list));
  EXPECT_EQ(cells.count({3, 0, 3}), 0u);
  EXPECT_EQ(cells.count({3, 1, 3}), 1u);
}

TEST(BoxSubtract, SubtractBoxLeavesOnlyUncoveredCells) {
  const Box b = Box::cube(4);
  const std::vector<Box> covered{Box{{0, 0, 0}, {3, 3, 1}},
                                 Box{{0, 0, 2}, {1, 3, 3}}};
  const auto rest = subtract_box(b, covered);
  const auto cells = cells_of(rest);
  EXPECT_EQ(cells.size(), 64u - 32u - 16u);
  for (const auto& c : cells) {
    EXPECT_GE(std::get<0>(c), 2);
    EXPECT_GE(std::get<2>(c), 2);
  }
  EXPECT_TRUE(subtract_box(b, {b}).empty());
  EXPECT_EQ(subtract_box(b, {}), (std::vector<Box>{b}));
}

TEST(BoxAlgebra, ListVolumeAndBoundingBox) {
  const std::vector<Box> list{Box{{0, 0, 0}, {1, 1, 1}},
                              Box{{4, 4, 4}, {4, 6, 4}}};
  EXPECT_EQ(list_volume(list), 8u + 3u);
  EXPECT_EQ(bounding_box(list), (Box{{0, 0, 0}, {4, 6, 4}}));
  EXPECT_EQ(list_volume({}), 0u);
  EXPECT_TRUE(bounding_box({}).empty());
}

TEST(BoxAlgebra, GhostShellsTileTheRingExactly) {
  for (const int g : {1, 2, 3}) {
    const Box valid{{2, 3, 4}, {9, 8, 7}};
    const auto shells = ghost_shells(valid, g);
    EXPECT_LE(shells.size(), 6u);
    const auto cells = cells_of(shells);
    EXPECT_EQ(cells.size(),
              valid.grow(g).volume() - valid.volume());
    for (const Box& s : shells) {
      EXPECT_TRUE(valid.grow(g).contains(s));
      EXPECT_TRUE(valid.intersect(s).empty());
    }
  }
  EXPECT_TRUE(ghost_shells(Box::cube(4), 0).empty());
}

// The 26 face/edge/corner ghost pieces the periodic plan writes into one
// slab of an 8^3 domain cut into four k-slabs.
std::vector<Box> periodic_slab_ghost_pieces(Box* valid) {
  const Partition part(Box::cube(8), Index3{8, 8, 2});
  *valid = part.region_box(1);
  std::vector<Box> pieces;
  for (const GhostCopy& c :
       compute_exchange_plan(part, 1, Boundary::kPeriodic)) {
    if (c.dst_region == 1) {
      pieces.push_back(c.dst_box);
    }
  }
  return pieces;
}

TEST(BoxCoalesce, CoversExactlyTheSameCells) {
  // Disjoint pieces of a cube with a hole and a notch, plus a stray box and
  // an empty one (dropped).
  std::vector<Box> list = subtract_box(
      Box::cube(6), {Box{{1, 1, 1}, {2, 4, 3}}, Box{{5, 0, 0}, {5, 2, 5}}});
  list.push_back(Box{{10, 10, 10}, {11, 10, 12}});
  list.push_back(Box{});
  const auto before = cells_of(list);
  const std::vector<Box> merged = coalesce(list);
  EXPECT_LT(merged.size(), list.size());
  EXPECT_EQ(cells_of(merged), before);  // also asserts disjointness
  for (const Box& b : merged) {
    EXPECT_FALSE(b.empty());
  }
}

TEST(BoxCoalesce, NeverMergesAnLShape) {
  const std::vector<Box> l{Box{{0, 0, 0}, {1, 0, 0}}, Box{{0, 1, 0}, {0, 1, 0}}};
  EXPECT_EQ(coalesce(l), l);
  // Same extents on two axes but a gap on the third: no box either.
  const std::vector<Box> gap{Box{{0, 0, 0}, {1, 1, 1}},
                             Box{{3, 0, 0}, {4, 1, 1}}};
  EXPECT_EQ(coalesce(gap), gap);
  // Touching along one axis with equal extents otherwise: one box.
  EXPECT_EQ(coalesce({Box{{0, 0, 0}, {1, 1, 1}}, Box{{2, 0, 0}, {4, 1, 1}}}),
            (std::vector<Box>{Box{{0, 0, 0}, {4, 1, 1}}}));
}

TEST(BoxCoalesce, PeriodicSlabGhostPiecesBecomeTheSixBoxRing) {
  Box valid;
  const std::vector<Box> pieces = periodic_slab_ghost_pieces(&valid);
  ASSERT_EQ(pieces.size(), 26u);
  const std::vector<Box> ring = coalesce(pieces);
  EXPECT_EQ(ring.size(), 6u);
  EXPECT_EQ(cells_of(ring), cells_of(ghost_shells(valid, 1)));
}

TEST(BoxCoalesce, SecondCallChangesNothing) {
  Box valid;
  const std::vector<Box> once = coalesce(periodic_slab_ghost_pieces(&valid));
  EXPECT_EQ(coalesce(once), once);
  const std::vector<Box> scattered =
      coalesce(subtract_box(Box::cube(5), {Box{{1, 1, 1}, {3, 3, 3}},
                                           Box{{0, 4, 0}, {4, 4, 1}}}));
  EXPECT_EQ(coalesce(scattered), scattered);
}

// --- Partition ---

TEST(Partition, ExactDivision) {
  const Partition p(Box::cube(8), Index3::uniform(4));
  EXPECT_EQ(p.num_regions(), 8);
  EXPECT_EQ(p.grid_dims(), (Index3{2, 2, 2}));
  EXPECT_EQ(p.region_box(0), (Box{{0, 0, 0}, {3, 3, 3}}));
  EXPECT_EQ(p.region_box(7), (Box{{4, 4, 4}, {7, 7, 7}}));
}

TEST(Partition, UnevenDivisionShrinksEdges) {
  const Partition p(Box::from_extents({10, 1, 1}), Index3{4, 1, 1});
  EXPECT_EQ(p.num_regions(), 3);
  EXPECT_EQ(p.region_box(0).extent().i, 4);
  EXPECT_EQ(p.region_box(1).extent().i, 4);
  EXPECT_EQ(p.region_box(2).extent().i, 2);
}

TEST(Partition, RegionsTileTheDomainDisjointly) {
  const Partition p(Box::from_extents({7, 5, 3}), Index3{3, 2, 2});
  std::uint64_t total = 0;
  for (int a = 0; a < p.num_regions(); ++a) {
    total += p.region_box(a).volume();
    for (int b = a + 1; b < p.num_regions(); ++b) {
      EXPECT_FALSE(p.region_box(a).intersects(p.region_box(b)))
          << "regions " << a << " and " << b << " overlap";
    }
  }
  EXPECT_EQ(total, p.domain().volume());
}

TEST(Partition, GridCoordRoundTrip) {
  const Partition p(Box::cube(9), Index3::uniform(3));
  for (int id = 0; id < p.num_regions(); ++id) {
    EXPECT_EQ(p.region_at_coord(p.grid_coord(id)), id);
  }
}

TEST(Partition, RegionOfCell) {
  const Partition p(Box::cube(8), Index3::uniform(4));
  EXPECT_EQ(p.region_of_cell({0, 0, 0}), 0);
  EXPECT_EQ(p.region_of_cell({7, 7, 7}), 7);
  EXPECT_EQ(p.region_of_cell({5, 0, 0}), 1);
  EXPECT_EQ(p.region_of_cell({0, 5, 0}), 2);
  EXPECT_EQ(p.region_of_cell({0, 0, 5}), 4);
  EXPECT_EQ(p.region_of_cell({8, 0, 0}), -1);
}

TEST(Partition, CellOwnershipConsistent) {
  const Partition p(Box::from_extents({6, 6, 6}), Index3{4, 3, 2});
  for (int k = 0; k < 6; ++k) {
    for (int j = 0; j < 6; ++j) {
      for (int i = 0; i < 6; ++i) {
        const int id = p.region_of_cell({i, j, k});
        ASSERT_GE(id, 0);
        EXPECT_TRUE(p.region_box(id).contains(Index3{i, j, k}));
      }
    }
  }
}

/// The ids of the regions in a range of region-grid coordinates, walked
/// k-j-i.
std::vector<int> ids_in(const Partition& p, const Box& range) {
  std::vector<int> out;
  for (int k = range.lo.k; k <= range.hi.k; ++k) {
    for (int j = range.lo.j; j <= range.hi.j; ++j) {
      for (int i = range.lo.i; i <= range.hi.i; ++i) {
        out.push_back(p.region_at_coord({i, j, k}));
      }
    }
  }
  return out;
}

TEST(Partition, RegionsIntersecting) {
  const Partition p(Box::cube(8), Index3::uniform(4));
  // The 2x2x2 corner junction touches all eight regions.
  EXPECT_EQ(p.regions_intersecting(Box{{3, 3, 3}, {4, 4, 4}}),
            (Box{{0, 0, 0}, {1, 1, 1}}));
  EXPECT_EQ(ids_in(p, p.regions_intersecting(Box{{0, 0, 0}, {1, 1, 1}})),
            (std::vector<int>{0}));
  EXPECT_TRUE(p.regions_intersecting(Box{{8, 0, 0}, {9, 1, 1}}).empty());
}

/// Every region whose valid box intersects `box`, by scanning them all.
std::vector<int> regions_intersecting_scan(const Partition& p,
                                           const Box& box) {
  std::vector<int> out;
  for (int id = 0; id < p.num_regions(); ++id) {
    if (p.region_box(id).intersects(box)) {
      out.push_back(id);
    }
  }
  return out;
}

TEST(Partition, RegionsIntersectingMatchesTheFullScan) {
  // Divisible, non-divisible (smaller edge regions) and offset domains;
  // the queries are every ghost-source box a periodic and a non-periodic
  // plan asks for, plus boxes that straddle or miss the domain.
  const std::vector<std::pair<Box, Index3>> geometries = {
      {Box::cube(8), Index3::uniform(4)},
      {Box::from_extents({10, 7, 5}), Index3{4, 3, 2}},
      {Box{{-3, 2, 5}, {9, 8, 6}}, Index3{5, 2, 1}},
      {Box::cube(12), Index3{12, 12, 4}},
  };
  for (const auto& [domain, size] : geometries) {
    const Partition p(domain, size);
    std::vector<Box> queries;
    for (const Boundary bc : {Boundary::kNone, Boundary::kPeriodic}) {
      for (const int ghost : {1, 2}) {
        for (const GhostCopy& c : compute_exchange_plan(p, ghost, bc)) {
          queries.push_back(c.dst_box.shift(c.shift));
          queries.push_back(c.src_box.grow(1));
        }
      }
    }
    queries.push_back(domain);
    queries.push_back(domain.grow(3));
    queries.push_back(domain.shift(domain.extent()));  // misses entirely
    queries.push_back(Box{domain.hi, domain.hi + Index3::uniform(4)});
    for (const Box& q : queries) {
      ASSERT_EQ(ids_in(p, p.regions_intersecting(q)),
                regions_intersecting_scan(p, q))
          << "query " << q.lo.i << "," << q.lo.j << "," << q.lo.k << " .. "
          << q.hi.i << "," << q.hi.j << "," << q.hi.k;
    }
  }
}

TEST(Partition, MaxRegionVolume) {
  const Partition p(Box::from_extents({10, 1, 1}), Index3{4, 1, 1});
  EXPECT_EQ(p.max_region_volume(0), 4ull);
  EXPECT_EQ(p.max_region_volume(1), 6ull * 3 * 3);
}

TEST(Partition, InvalidInputsRejected) {
  EXPECT_THROW(Partition(Box{}, Index3::uniform(2)), Error);
  EXPECT_THROW(Partition(Box::cube(4), Index3{0, 1, 1}), Error);
}

TEST(Partition, RegionIdOutOfRangeRejected) {
  const Partition p(Box::cube(4), Index3::uniform(4));
  EXPECT_THROW(p.region_box(-1), Error);
  EXPECT_THROW(p.region_box(1), Error);
}

// --- ghost exchange plan ---

TEST(GhostPlan, ZeroGhostIsEmpty) {
  const Partition p(Box::cube(8), Index3::uniform(4));
  EXPECT_TRUE(compute_exchange_plan(p, 0, Boundary::kPeriodic).empty());
}

TEST(GhostPlan, CopiesLandInGhostZones) {
  const Partition p(Box::cube(8), Index3::uniform(4));
  for (const Boundary bc : {Boundary::kNone, Boundary::kPeriodic}) {
    for (const GhostCopy& c : compute_exchange_plan(p, 1, bc)) {
      const Box valid = p.region_box(c.dst_region);
      EXPECT_TRUE(valid.grow(1).contains(c.dst_box));
      EXPECT_TRUE(valid.intersect(c.dst_box).empty())
          << "copy writes into valid cells of region " << c.dst_region;
      EXPECT_TRUE(p.region_box(c.src_region).contains(c.src_box));
      EXPECT_EQ(c.src_box.extent(), c.dst_box.extent());
      EXPECT_EQ(c.src_box, c.dst_box.shift(c.shift));
    }
  }
}

TEST(GhostPlan, NonPeriodicCoversInteriorGhostsExactlyOnce) {
  const Partition p(Box::cube(8), Index3::uniform(4));
  const auto plan = compute_exchange_plan(p, 1, Boundary::kNone);
  // Collect covered ghost cells per destination region; each in-domain ghost
  // cell must be covered exactly once.
  for (int id = 0; id < p.num_regions(); ++id) {
    std::set<std::tuple<int, int, int>> covered;
    std::uint64_t copies = 0;
    for (const GhostCopy& c : plan) {
      if (c.dst_region != id) {
        continue;
      }
      for (int k = c.dst_box.lo.k; k <= c.dst_box.hi.k; ++k) {
        for (int j = c.dst_box.lo.j; j <= c.dst_box.hi.j; ++j) {
          for (int i = c.dst_box.lo.i; i <= c.dst_box.hi.i; ++i) {
            const bool inserted = covered.insert({i, j, k}).second;
            EXPECT_TRUE(inserted) << "ghost cell covered twice";
            ++copies;
          }
        }
      }
    }
    // Expected: ghost cells of region(id) that lie inside the domain.
    const Box valid = p.region_box(id);
    std::uint64_t expected = 0;
    const Box grown = valid.grow(1);
    for (int k = grown.lo.k; k <= grown.hi.k; ++k) {
      for (int j = grown.lo.j; j <= grown.hi.j; ++j) {
        for (int i = grown.lo.i; i <= grown.hi.i; ++i) {
          const Index3 cell{i, j, k};
          if (!valid.contains(cell) && p.domain().contains(cell)) {
            ++expected;
          }
        }
      }
    }
    EXPECT_EQ(copies, expected) << "region " << id;
  }
}

TEST(GhostPlan, PeriodicCoversAllGhostsExactlyOnce) {
  const Partition p(Box::from_extents({6, 4, 4}), Index3{3, 4, 2});
  const auto plan = compute_exchange_plan(p, 1, Boundary::kPeriodic);
  for (int id = 0; id < p.num_regions(); ++id) {
    std::set<std::tuple<int, int, int>> covered;
    for (const GhostCopy& c : plan) {
      if (c.dst_region != id) {
        continue;
      }
      for (int k = c.dst_box.lo.k; k <= c.dst_box.hi.k; ++k) {
        for (int j = c.dst_box.lo.j; j <= c.dst_box.hi.j; ++j) {
          for (int i = c.dst_box.lo.i; i <= c.dst_box.hi.i; ++i) {
            EXPECT_TRUE(covered.insert({i, j, k}).second)
                << "ghost cell covered twice in region " << id;
          }
        }
      }
    }
    const Box valid = p.region_box(id);
    const std::uint64_t ghost_cells = valid.grow(1).volume() - valid.volume();
    EXPECT_EQ(covered.size(), ghost_cells) << "region " << id;
  }
}

TEST(GhostPlan, SingleRegionPeriodicWrapsOntoItself) {
  const Partition p(Box::cube(4), Index3::uniform(4));
  const auto plan = compute_exchange_plan(p, 1, Boundary::kPeriodic);
  ASSERT_FALSE(plan.empty());
  for (const GhostCopy& c : plan) {
    EXPECT_EQ(c.src_region, 0);
    EXPECT_EQ(c.dst_region, 0);
    EXPECT_NE(c.shift, (Index3{0, 0, 0}));
  }
  EXPECT_EQ(plan_cells(plan), Box::cube(4).grow(1).volume() - 64);
}

TEST(GhostPlan, PlanCellsSumsVolumes) {
  const Partition p(Box::cube(8), Index3::uniform(4));
  const auto plan = compute_exchange_plan(p, 2, Boundary::kPeriodic);
  std::uint64_t manual = 0;
  for (const GhostCopy& c : plan) {
    manual += c.dst_box.volume();
  }
  EXPECT_EQ(plan_cells(plan), manual);
}

TEST(GhostPlan, GroupedByDestination) {
  const Partition p(Box::cube(8), Index3::uniform(4));
  const auto plan = compute_exchange_plan(p, 1, Boundary::kPeriodic);
  int last_dst = -1;
  for (const GhostCopy& c : plan) {
    EXPECT_GE(c.dst_region, last_dst);
    last_dst = c.dst_region;
  }
}

TEST(GhostPlan, WideGhostFromNonAdjacentRegions) {
  // ghost = 3 with region width 2: ghosts reach past immediate neighbours.
  const Partition p(Box::from_extents({8, 1, 1}), Index3{2, 1, 1});
  const auto plan = compute_exchange_plan(p, 3, Boundary::kNone);
  // Region 0's right ghost [2..4] must be fed by regions 1 (cells 2,3) and
  // 2 (cell 4).
  bool from_r1 = false;
  bool from_r2 = false;
  for (const GhostCopy& c : plan) {
    if (c.dst_region == 0) {
      from_r1 |= (c.src_region == 1);
      from_r2 |= (c.src_region == 2);
    }
  }
  EXPECT_TRUE(from_r1);
  EXPECT_TRUE(from_r2);
}

TEST(GhostPlan, PeriodicRequiresLargeEnoughDomain) {
  const Partition p(Box::cube(2), Index3::uniform(2));
  EXPECT_THROW(compute_exchange_plan(p, 3, Boundary::kPeriodic), Error);
}

/// The exchange plan as first written, kept as the builder's reference:
/// for each destination region, each of its 26 ghost pieces is split
/// against the domain into up to 27 sub-boxes of uniform wrap, and each
/// sub-box is fed by every region its source area meets, found by scanning
/// all of them in id order.
std::vector<GhostCopy> reference_plan(const Partition& part, int ghost,
                                      Boundary bc) {
  std::vector<GhostCopy> plan;
  if (ghost == 0) {
    return plan;
  }
  const Box& domain = part.domain();
  const bool periodic = bc == Boundary::kPeriodic;
  if (periodic && !domain.extent().all_ge(Index3::uniform(ghost))) {
    throw Error("periodic exchange requires domain extent >= ghost width");
  }
  struct Segment {
    int lo;
    int hi;
    int shift;
  };
  // Below the domain (wraps by +extent), inside it, above it (-extent);
  // the outside ones exist only under a periodic boundary.
  const auto split = [periodic](int lo, int hi, int dlo, int dhi) {
    const int extent = dhi - dlo + 1;
    std::vector<Segment> out;
    if (periodic) {
      out.push_back({lo, std::min(hi, dlo - 1), extent});
    }
    out.push_back({std::max(lo, dlo), std::min(hi, dhi), 0});
    if (periodic) {
      out.push_back({std::max(lo, dhi + 1), hi, -extent});
    }
    return out;
  };
  const auto side = [ghost](int d, int lo, int hi) -> std::pair<int, int> {
    return d < 0 ? std::pair(lo - ghost, lo - 1)
           : d > 0 ? std::pair(hi + 1, hi + ghost)
                   : std::pair(lo, hi);
  };
  for (int dst = 0; dst < part.num_regions(); ++dst) {
    const Box valid = part.region_box(dst);
    for (int dk = -1; dk <= 1; ++dk) {
      for (int dj = -1; dj <= 1; ++dj) {
        for (int di = -1; di <= 1; ++di) {
          if (di == 0 && dj == 0 && dk == 0) {
            continue;
          }
          const auto [ilo, ihi] = side(di, valid.lo.i, valid.hi.i);
          const auto [jlo, jhi] = side(dj, valid.lo.j, valid.hi.j);
          const auto [klo, khi] = side(dk, valid.lo.k, valid.hi.k);
          for (const Segment& si : split(ilo, ihi, domain.lo.i, domain.hi.i)) {
            for (const Segment& sj :
                 split(jlo, jhi, domain.lo.j, domain.hi.j)) {
              for (const Segment& sk :
                   split(klo, khi, domain.lo.k, domain.hi.k)) {
                const Box dst_box{{si.lo, sj.lo, sk.lo},
                                  {si.hi, sj.hi, sk.hi}};
                if (dst_box.empty()) {
                  continue;
                }
                const Index3 shift{si.shift, sj.shift, sk.shift};
                const Box src_area = dst_box.shift(shift);
                for (const int src : regions_intersecting_scan(part, src_area)) {
                  const Box piece = part.region_box(src).intersect(src_area);
                  plan.push_back(GhostCopy{src, dst, piece,
                                           piece.shift(-shift), shift});
                }
              }
            }
          }
        }
      }
    }
  }
  return plan;
}

/// Fails on the first copy where `got` and `want` differ, naming its index
/// and field, or on a length mismatch.
void expect_same_plan(const std::vector<GhostCopy>& got,
                      const std::vector<GhostCopy>& want,
                      const std::string& where) {
  for (std::size_t c = 0; c < std::min(got.size(), want.size()); ++c) {
    const GhostCopy& g = got[c];
    const GhostCopy& w = want[c];
    ASSERT_EQ(g.src_region, w.src_region) << where << " copy " << c;
    ASSERT_EQ(g.dst_region, w.dst_region) << where << " copy " << c;
    ASSERT_EQ(g.src_box, w.src_box) << where << " copy " << c;
    ASSERT_EQ(g.dst_box, w.dst_box) << where << " copy " << c;
    ASSERT_EQ(g.shift, w.shift) << where << " copy " << c;
  }
  ASSERT_EQ(got.size(), want.size()) << where;
}

TEST(GhostPlan, MatchesTheReferenceCopyForCopy) {
  // A seeded sweep of partitions: offset domains, region sizes that do not
  // divide them (thin edge regions), slabs, pencils and 3-D blocks, one
  // region wide along some dimensions, under ghosts 0-5 — up to several
  // times the thinnest region — and both boundaries. Every plan must be
  // the reference's copies, field by field, in the same order.
  Rng rng(0x9a0575eedull);
  const auto draw = [&rng](int lo, int hi) {
    return lo + static_cast<int>(rng.next_below(
                    static_cast<std::uint64_t>(hi - lo + 1)));
  };
  int plans = 0;
  int thin = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const Index3 lo{draw(-6, 6), draw(-6, 6), draw(-6, 6)};
    const Index3 extent{draw(1, 12), draw(1, 12), draw(1, 12)};
    // 0: slabs (k split), 1: pencils (j and k), 2: 3-D blocks, 3: any.
    const int shape = trial % 4;
    const auto size = [&](int e, bool split) {
      return split ? draw(1, std::max(1, e / 2 + 1)) : draw(1, e);
    };
    const Index3 rs{shape == 2 ? size(extent.i, true)
                    : shape == 3 ? size(extent.i, false)
                                 : extent.i,
                    shape == 0   ? extent.j
                    : shape == 3 ? size(extent.j, false)
                                 : size(extent.j, true),
                    shape == 3 ? size(extent.k, false)
                               : size(extent.k, true)};
    const Partition part(Box{lo, lo + extent - Index3::uniform(1)}, rs);
    Index3 thinnest = extent;
    for (int r = 0; r < part.num_regions(); ++r) {
      thinnest = Index3::min(thinnest, part.region_box(r).extent());
    }
    for (int ghost = 0; ghost <= 5; ++ghost) {
      thin += ghost > std::min({thinnest.i, thinnest.j, thinnest.k}) ? 1 : 0;
      for (const Boundary bc : {Boundary::kNone, Boundary::kPeriodic}) {
        const std::string where =
            "domain " + part.domain().to_string() + " regions " +
            std::to_string(rs.i) + "x" + std::to_string(rs.j) + "x" +
            std::to_string(rs.k) + " ghost " + std::to_string(ghost) + " " +
            to_string(bc);
        std::vector<GhostCopy> want;
        try {
          want = reference_plan(part, ghost, bc);
        } catch (const Error&) {
          EXPECT_THROW(compute_exchange_plan(part, ghost, bc), Error)
              << where;
          continue;
        }
        expect_same_plan(compute_exchange_plan(part, ghost, bc), want, where);
        ++plans;
      }
    }
  }
  // The sweep reaches the cases it is for.
  EXPECT_GT(plans, 500);
  EXPECT_GT(thin, 150);
}

TEST(GhostPlan, MatchesTheReferenceOnTheBenchLayouts) {
  // perfbench's halo layouts, scaled down to keep the reference quick:
  // slabs in a cube, the last one thinner than the ghost, and thin,
  // 3-D-block and uneven partitions.
  const std::vector<std::tuple<Box, Index3, int>> layouts = {
      {Box::cube(32), Index3{32, 32, 2}, 4},
      {Box::cube(22), Index3{22, 22, 4}, 4},
      {Box::cube(24), Index3{24, 8, 3}, 5},
      {Box::cube(24), Index3::uniform(8), 2},
      {Box::cube(25), Index3{7, 11, 13}, 3},
  };
  for (const auto& [domain, rs, ghost] : layouts) {
    const Partition part(domain, rs);
    for (const Boundary bc : {Boundary::kNone, Boundary::kPeriodic}) {
      expect_same_plan(compute_exchange_plan(part, ghost, bc),
                       reference_plan(part, ghost, bc),
                       domain.to_string() + " ghost " + std::to_string(ghost));
    }
  }
}

TEST(GhostPlan, PairIndexGroupsEveryCopyOnceByRegionPair) {
  // Slabs (three pairs per region), 3-D blocks (a neighbour's face, edge
  // and corner pieces interleave with other neighbours' in the plan), thin
  // and uneven regions under wide ghosts, and a single region wrapping onto
  // itself.
  const std::vector<std::tuple<Box, Index3, int>> layouts = {
      {Box::cube(16), Index3{16, 16, 2}, 1},
      {Box::cube(16), Index3{16, 16, 2}, 3},
      {Box::cube(12), Index3::uniform(4), 1},
      {Box::cube(12), Index3::uniform(4), 2},
      {Box{{-3, 2, 5}, {9, 8, 6}}, Index3{5, 2, 1}, 2},
      {Box::cube(13), Index3{7, 3, 13}, 4},
      {Box::cube(4), Index3::uniform(4), 2},
  };
  for (const auto& [domain, rs, ghost] : layouts) {
    const Partition part(domain, rs);
    for (const Boundary bc : {Boundary::kNone, Boundary::kPeriodic}) {
      const std::string where =
          domain.to_string() + " ghost " + std::to_string(ghost);
      const std::vector<GhostCopy> plan =
          compute_exchange_plan(part, ghost, bc);
      const PairIndex index = index_pairs(plan, part.num_regions());
      std::vector<int> seen(plan.size(), 0);
      std::set<std::pair<int, int>> ends;
      std::uint64_t cells = 0;
      std::size_t last_first = 0;
      for (std::size_t p = 0; p < index.pairs.size(); ++p) {
        const RegionPair& pair = index.pairs[p];
        const std::span<const std::size_t> copies = index.copies_of(pair);
        ASSERT_FALSE(copies.empty()) << where;
        EXPECT_TRUE(ends.insert({pair.src_region, pair.dst_region}).second)
            << where << ": pair listed twice";
        // Ordered by first copy, each pair's copies in plan order.
        if (p > 0) {
          EXPECT_LT(last_first, copies.front()) << where << " pair " << p;
        }
        last_first = copies.front();
        EXPECT_TRUE(std::is_sorted(copies.begin(), copies.end())) << where;
        std::uint64_t pair_cells = 0;
        for (const std::size_t c : copies) {
          ASSERT_LT(c, plan.size()) << where;
          ++seen[c];
          EXPECT_EQ(plan[c].src_region, pair.src_region) << where;
          EXPECT_EQ(plan[c].dst_region, pair.dst_region) << where;
          pair_cells += plan[c].dst_box.volume();
        }
        EXPECT_EQ(pair.cells, pair_cells) << where << " pair " << p;
        cells += pair.cells;
      }
      EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                              [](int n) { return n == 1; }))
          << where << ": a copy outside every pair or in two";
      EXPECT_EQ(cells, plan_cells(plan)) << where;
      EXPECT_EQ(index.cells, plan_cells(plan)) << where;
      // Each destination's range holds exactly the pairs writing into it.
      std::size_t covered = 0;
      for (int dst = 0; dst < part.num_regions(); ++dst) {
        for (const RegionPair& pair : index.pairs_into(dst)) {
          EXPECT_EQ(pair.dst_region, dst) << where;
          ++covered;
        }
      }
      EXPECT_EQ(covered, index.pairs.size()) << where;
    }
  }
  // A slab receives from itself and its two neighbours: 3 pairs for 26
  // copies.
  const Partition slabs(Box::cube(16), Index3{16, 16, 2});
  const std::vector<GhostCopy> plan =
      compute_exchange_plan(slabs, 2, Boundary::kPeriodic);
  EXPECT_EQ(plan.size(), 8u * 26u);
  EXPECT_EQ(index_pairs(plan, slabs.num_regions()).pairs.size(), 8u * 3u);
}

TEST(GhostPlan, LayoutPlansShareOnePairIndexPerBoundary) {
  LayoutPlans layout(Partition(Box::cube(8), Index3::uniform(4)), 1);
  const PairIndex& periodic = layout.pairs(Boundary::kPeriodic);
  EXPECT_EQ(&periodic, &layout.pairs(Boundary::kPeriodic));
  EXPECT_NE(&periodic, &layout.pairs(Boundary::kNone));
  EXPECT_EQ(periodic.copies.size(), layout.plan(Boundary::kPeriodic).size());
}

TEST(GhostPlan, BoundaryToString) {
  EXPECT_STREQ(to_string(Boundary::kNone), "none");
  EXPECT_STREQ(to_string(Boundary::kPeriodic), "periodic");
}

}  // namespace
}  // namespace tidacc::tida

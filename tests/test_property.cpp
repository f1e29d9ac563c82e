// Model-based property tests: random operation sequences against shadow
// references.
//
// 1. AccTileArray protocol fuzz: a random interleaving of host writes,
//    device kernels, ghost exchanges and location moves must always agree
//    with a plain flat-array shadow model, for any slot budget (full,
//    limited, single).
// 2. Exchange-plan fuzz: random geometries, the periodic ghost invariants.
// 3. Stream-semantics fuzz: random op DAGs must respect per-stream ordering
//    and engine exclusivity in the simulated timeline.
// 4. Layout fuzz: on random grown boxes every cell accessor (CellLayout,
//    Region, DeviceView) agrees with the grown-box formula, and
//    copy_ghost_cells matches a per-cell reference copy bitwise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "core/tidacc.hpp"

namespace tidacc {
namespace {

using core::AccOptions;
using core::AccTileArray;
using core::DeviceView;
using core::Loc;
using tida::Boundary;
using tida::Box;
using tida::Index3;

sim::DeviceConfig quick_config() {
  sim::DeviceConfig cfg = sim::DeviceConfig::k40m();
  cfg.host_api_overhead_ns = 0;
  cfg.sync_overhead_ns = 0;
  return cfg;
}

/// Flat shadow model of the tiled array: plain periodic domain, no tiles.
class Shadow {
 public:
  Shadow(int n) : n_(n), data_(static_cast<size_t>(n) * n * n, 0.0) {}

  double& at(int i, int j, int k) {
    const auto w = [this](int v) { return ((v % n_) + n_) % n_; };
    return data_[(static_cast<size_t>(w(k)) * n_ + w(j)) * n_ + w(i)];
  }

  int n() const { return n_; }

 private:
  int n_;
  std::vector<double> data_;
};

struct FuzzCase {
  int domain;
  Index3 region_size;
  int ghost;
  int max_slots;
  std::uint64_t seed;
};

class AccProtocolFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(AccProtocolFuzz, RandomOpsMatchShadowModel) {
  const FuzzCase& fc = GetParam();
  cuem::configure(quick_config(), /*functional=*/true);
  oacc::reset();

  const int n = fc.domain;
  AccOptions opts;
  opts.max_slots = fc.max_slots;
  AccTileArray<double> arr(Box::cube(n), fc.region_size, fc.ghost, opts);
  Shadow shadow(n);

  // Initialize both sides identically.
  arr.fill([](const Index3& p) {
    return 1.0 + 0.5 * p.i + 0.25 * p.j + 0.125 * p.k;
  });
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        shadow.at(i, j, k) = 1.0 + 0.5 * i + 0.25 * j + 0.125 * k;
      }
    }
  }

  oacc::LoopCost cost;
  cost.flops_per_iter = 2;
  cost.dev_bytes_per_iter = 16;

  Rng rng(fc.seed);
  core::AccTileIterator<double> it(arr);

  for (int op = 0; op < 60; ++op) {
    switch (rng.next_below(5)) {
      case 0: {  // host write to a random valid cell
        const int i = static_cast<int>(rng.next_below(n));
        const int j = static_cast<int>(rng.next_below(n));
        const int k = static_cast<int>(rng.next_below(n));
        const int region = arr.partition().region_of_cell({i, j, k});
        arr.acquire_on_host(region);
        const double v = rng.uniform(-2.0, 2.0);
        arr.at({i, j, k}) = v;
        shadow.at(i, j, k) = v;
        break;
      }
      case 1: {  // GPU kernel over one random region: x = 2x + c
        const int region =
            static_cast<int>(rng.next_below(arr.num_regions()));
        const double c = rng.uniform(-1.0, 1.0);
        for (it.reset(/*gpu=*/true); it.isValid(); it.next()) {
          if (it.tile().tile.region.id != region) {
            continue;
          }
          core::compute(it.tile(), cost,
                        [c](DeviceView<double> v, int i, int j, int k) {
                          v(i, j, k) = 2.0 * v(i, j, k) + c;
                        });
        }
        const Box valid = arr.partition().region_box(region);
        for (int k = valid.lo.k; k <= valid.hi.k; ++k) {
          for (int j = valid.lo.j; j <= valid.hi.j; ++j) {
            for (int i = valid.lo.i; i <= valid.hi.i; ++i) {
              shadow.at(i, j, k) = 2.0 * shadow.at(i, j, k) + c;
            }
          }
        }
        break;
      }
      case 2: {  // CPU traversal over every tile: x -= 1
        for (it.reset(/*gpu=*/false); it.isValid(); it.next()) {
          core::compute(it.tile(), cost,
                        [](DeviceView<double> v, int i, int j, int k) {
                          v(i, j, k) -= 1.0;
                        });
        }
        for (int k = 0; k < n; ++k) {
          for (int j = 0; j < n; ++j) {
            for (int i = 0; i < n; ++i) {
              shadow.at(i, j, k) -= 1.0;
            }
          }
        }
        break;
      }
      case 3: {  // ghost exchange (either path, dispatched by residency)
        arr.fill_boundary(Boundary::kPeriodic);
        break;
      }
      case 4: {  // random residency move
        const int region =
            static_cast<int>(rng.next_below(arr.num_regions()));
        if (rng.next_below(2) == 0) {
          arr.acquire_on_device(region);
        } else {
          arr.acquire_on_host(region);
        }
        break;
      }
    }
  }

  // Converge and compare every valid cell.
  arr.release_all_to_host();
  oacc::wait_all();
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        ASSERT_NEAR(arr.at({i, j, k}), shadow.at(i, j, k), 1e-9)
            << "cell (" << i << ',' << j << ',' << k << ") seed " << fc.seed;
      }
    }
  }

  // And the ghost cells must reflect the final valid data after one more
  // exchange.
  arr.fill_boundary(Boundary::kPeriodic);
  for (int r = 0; r < arr.num_regions(); ++r) {
    const tida::Region<double> reg = arr.region(r);
    for (int k = reg.grown.lo.k; k <= reg.grown.hi.k; ++k) {
      for (int j = reg.grown.lo.j; j <= reg.grown.hi.j; ++j) {
        for (int i = reg.grown.lo.i; i <= reg.grown.hi.i; ++i) {
          ASSERT_NEAR(reg.at(i, j, k), shadow.at(i, j, k), 1e-9)
              << "ghost (" << i << ',' << j << ',' << k << ") region " << r;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SlotBudgets, AccProtocolFuzz,
    ::testing::Values(
        FuzzCase{8, {4, 4, 4}, 1, 1 << 20, 1},   // all regions fit
        FuzzCase{8, {4, 4, 4}, 1, 3, 2},         // shared slots (evictions)
        FuzzCase{8, {4, 4, 4}, 1, 1, 3},         // single slot (thrashing)
        FuzzCase{8, {8, 8, 4}, 2, 2, 4},         // wide ghosts, 2 slots
        FuzzCase{6, {2, 3, 6}, 1, 4, 5},         // uneven regions
        FuzzCase{8, {8, 8, 8}, 1, 1, 6},         // single region
        FuzzCase{9, {4, 4, 4}, 1, 5, 7},         // ragged edges
        FuzzCase{8, {4, 4, 4}, 1, 1 << 20, 8}));  // second full-fit seed

// --- random-geometry exchange invariants ---

TEST(ExchangeFuzz, RandomGeometriesInvariants) {
  Rng rng(0xE4C4A9E);
  for (int trial = 0; trial < 40; ++trial) {
    const Index3 domain{static_cast<int>(2 + rng.next_below(9)),
                        static_cast<int>(2 + rng.next_below(9)),
                        static_cast<int>(2 + rng.next_below(9))};
    const Index3 region{
        static_cast<int>(1 + rng.next_below(domain.i)),
        static_cast<int>(1 + rng.next_below(domain.j)),
        static_cast<int>(1 + rng.next_below(domain.k))};
    const int min_ext = std::min({domain.i, domain.j, domain.k});
    const int ghost = static_cast<int>(1 + rng.next_below(min_ext));

    const tida::Partition part(Box::from_extents(domain), region);
    const auto plan =
        tida::compute_exchange_plan(part, ghost, Boundary::kPeriodic);

    std::uint64_t expected_cells = 0;
    for (int id = 0; id < part.num_regions(); ++id) {
      const Box valid = part.region_box(id);
      expected_cells += valid.grow(ghost).volume() - valid.volume();
    }
    ASSERT_EQ(tida::plan_cells(plan), expected_cells)
        << "trial " << trial << " domain " << domain.to_string()
        << " region " << region.to_string() << " ghost " << ghost;

    for (const tida::GhostCopy& c : plan) {
      ASSERT_TRUE(part.region_box(c.src_region).contains(c.src_box));
      ASSERT_EQ(c.src_box.extent(), c.dst_box.extent());
      ASSERT_TRUE(
          part.region_box(c.dst_region).intersect(c.dst_box).empty());
    }
  }
}

// --- random stream DAGs: timeline invariants ---

TEST(StreamFuzz, RandomOpsRespectOrderingInvariants) {
  Rng rng(0x57AB1E);
  for (int trial = 0; trial < 20; ++trial) {
    sim::DeviceConfig cfg = quick_config();
    cfg.copy_engines = 1 + static_cast<int>(rng.next_below(2));
    sim::Platform p(cfg, /*functional=*/false);
    std::vector<sim::StreamId> streams;
    for (int s = 0; s < 4; ++s) {
      streams.push_back(p.create_stream());
    }
    for (int op = 0; op < 120; ++op) {
      const sim::StreamId s = streams[rng.next_below(streams.size())];
      if (rng.next_below(3) == 0) {
        sim::KernelProfile prof;
        prof.elements = 1000 + rng.next_below(100000);
        prof.dev_bytes_per_element = 16;
        p.enqueue_kernel(s, prof, 0, nullptr, "k");
      } else {
        sim::CopyRequest req;
        req.kind = rng.next_below(2) == 0 ? sim::OpKind::kCopyH2D
                                          : sim::OpKind::kCopyD2H;
        req.bytes = 1000 + rng.next_below(1'000'000);
        req.host_mem = sim::HostMemKind::kPinned;
        p.enqueue_copy(s, req, nullptr);
      }
    }
    p.sync_all();

    // Invariant 1: ops on one stream never overlap and appear in order.
    std::map<int, SimTime> last_finish;
    // Invariant 2: ops on one engine never overlap.
    std::map<int, SimTime> engine_finish;
    for (const sim::TraceEvent& ev : p.trace().events()) {
      auto& lf = last_finish[ev.stream];
      ASSERT_GE(ev.start, lf) << "stream order violated, trial " << trial;
      lf = ev.finish;
      auto& ef = engine_finish[static_cast<int>(ev.engine)];
      ASSERT_GE(ev.start, ef) << "engine overlap, trial " << trial;
      ef = ev.finish;
      ASSERT_LE(ev.start, ev.finish);
    }
    // Invariant 3: host clock is at/after every completion after sync_all.
    ASSERT_GE(p.now(), p.trace().stats().makespan);
  }
}

// --- cell layout: every accessor against the grown-box formula ---

/// A random box: lo in [-6, 3] and extent in [1, 8] along each axis.
Box random_box(Rng& rng) {
  const auto coord = [&rng]() {
    return static_cast<int>(rng.next_below(10)) - 6;
  };
  const auto extent = [&rng]() {
    return static_cast<int>(rng.next_below(8));
  };
  const Index3 lo{coord(), coord(), coord()};
  return Box{lo, lo + Index3{extent(), extent(), extent()}};
}

/// The grown-box layout written out longhand: i fastest, component c a
/// block of grown.volume() cells.
std::size_t formula_offset(const Box& grown, const Index3& p, int c) {
  const Index3 rel = p - grown.lo;
  const Index3 e = grown.extent();
  return static_cast<std::size_t>(c) * grown.volume() +
         (static_cast<std::size_t>(rel.k) * e.j + rel.j) * e.i + rel.i;
}

TEST(LayoutFuzz, EveryAccessorMatchesTheGrownBoxFormula) {
  cuem::configure(quick_config(), /*functional=*/true);
  Rng rng(0xCE11A7);
  for (int trial = 0; trial < 40; ++trial) {
    const Box domain = random_box(rng);
    const Index3 de = domain.extent();
    const Index3 region{static_cast<int>(1 + rng.next_below(de.i)),
                        static_cast<int>(1 + rng.next_below(de.j)),
                        static_cast<int>(1 + rng.next_below(de.k))};
    const int ghost = static_cast<int>(rng.next_below(4));
    const int ncomp = static_cast<int>(1 + rng.next_below(3));
    const tida::TileArray<double> arr(domain, region, ghost,
                                      tida::HostAlloc::kPageable, ncomp);
    for (int id = 0; id < arr.num_regions(); ++id) {
      const tida::Region<double> r = arr.region(id);
      const Box& g = r.grown;
      const DeviceView<double> view(r.data, g, ncomp);
      for (int c = 0; c < ncomp; ++c) {
        for (int k = g.lo.k; k <= g.hi.k; ++k) {
          for (int j = g.lo.j; j <= g.hi.j; ++j) {
            for (int i = g.lo.i; i <= g.hi.i; ++i) {
              const Index3 p{i, j, k};
              const std::size_t off = formula_offset(g, p, c);
              ASSERT_EQ(r.layout.offset(p, c),
                        static_cast<std::ptrdiff_t>(off))
                  << "trial " << trial << " region " << id << " cell "
                  << p.to_string() << " comp " << c;
              ASSERT_EQ(view.layout().offset(p, c),
                        static_cast<std::ptrdiff_t>(off));
              ASSERT_EQ(r.offset_of(p, c), off);
              ASSERT_EQ(&r.at(p, c), r.data + off);
              ASSERT_EQ(&r.at(i, j, k, c), r.data + off);
              ASSERT_EQ(&view(i, j, k, c), r.data + off);
              if (c == 0) {
                ASSERT_EQ(&r.at(p), r.data + off);
                ASSERT_EQ(&r.at(i, j, k), r.data + off);
                ASSERT_EQ(&view(i, j, k), r.data + off);
              }
            }
          }
        }
      }
    }
  }
}

/// Fills every cell of every region buffer (ghosts included) of both arrays
/// with the same random values.
void fill_twins(tida::TileArray<double>& a, tida::TileArray<double>& b,
                Rng& rng) {
  for (int id = 0; id < a.num_regions(); ++id) {
    double* pa = a.region(id).data;
    double* pb = b.region(id).data;
    for (std::uint64_t c = 0; c < a.region(id).cells(); ++c) {
      pa[c] = pb[c] = rng.uniform(-1.0, 1.0);
    }
  }
}

/// The reference ghost copy: cell by cell through the longhand formula.
void reference_copy(const tida::GhostCopy& c, const tida::Region<double>& src,
                    const tida::Region<double>& dst) {
  for (int comp = 0; comp < dst.ncomp; ++comp) {
    for (int k = c.dst_box.lo.k; k <= c.dst_box.hi.k; ++k) {
      for (int j = c.dst_box.lo.j; j <= c.dst_box.hi.j; ++j) {
        for (int i = c.dst_box.lo.i; i <= c.dst_box.hi.i; ++i) {
          const Index3 d{i, j, k};
          const Index3 s = d - c.dst_box.lo + c.src_box.lo;
          dst.data[formula_offset(dst.grown, d, comp)] =
              src.data[formula_offset(src.grown, s, comp)];
        }
      }
    }
  }
}

bool buffers_equal(const tida::TileArray<double>& a,
                   const tida::TileArray<double>& b) {
  for (int id = 0; id < a.num_regions(); ++id) {
    if (std::memcmp(a.region(id).data, b.region(id).data,
                    a.region(id).bytes()) != 0) {
      return false;
    }
  }
  return true;
}

/// A random box of `e` cells inside `within` (which must be large enough).
Box random_sub_box(Rng& rng, const Box& within, const Index3& e) {
  const Index3 room = within.extent() - e + Index3::uniform(1);
  const Index3 lo =
      within.lo + Index3{static_cast<int>(rng.next_below(room.i)),
                         static_cast<int>(rng.next_below(room.j)),
                         static_cast<int>(rng.next_below(room.k))};
  return Box{lo, lo + e - Index3::uniform(1)};
}

TEST(LayoutFuzz, CopyGhostCellsMatchesPerCellReferenceBitwise) {
  cuem::configure(quick_config(), /*functional=*/true);
  Rng rng(0x60571);
  std::uint64_t single_cell_rows = 0;
  std::uint64_t multi_comp_copies = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Box domain = random_box(rng);
    const Index3 de = domain.extent();
    const Index3 region{static_cast<int>(1 + rng.next_below(de.i)),
                        static_cast<int>(1 + rng.next_below(de.j)),
                        static_cast<int>(1 + rng.next_below(de.k))};
    // A periodic plan needs the domain at least as wide as the ghost.
    const int ghost = static_cast<int>(
        1 + rng.next_below(std::min({3, de.i, de.j, de.k})));
    const int ncomp = static_cast<int>(1 + rng.next_below(3));
    const Boundary bc =
        rng.next_below(2) == 0 ? Boundary::kPeriodic : Boundary::kNone;
    tida::TileArray<double> got(domain, region, ghost,
                                tida::HostAlloc::kPageable, ncomp);
    tida::TileArray<double> want(domain, region, ghost,
                                 tida::HostAlloc::kPageable, ncomp);

    // The array's own exchange plan, copy by copy.
    fill_twins(got, want, rng);
    for (const tida::GhostCopy& c : got.exchange_plan(bc)) {
      got.apply_copy_host(c);
      reference_copy(c, want.region(c.src_region), want.region(c.dst_region));
      single_cell_rows += c.dst_box.extent().i == 1 ? 1 : 0;
      multi_comp_copies += ncomp > 1 ? 1 : 0;
    }
    ASSERT_TRUE(buffers_equal(got, want))
        << "trial " << trial << " plan, domain " << domain.to_string()
        << " region " << region.to_string() << " ghost " << ghost
        << " ncomp " << ncomp << " bc " << tida::to_string(bc);

    // Random same-shape boxes between two different regions' grown boxes;
    // a third of them one cell wide along i.
    if (got.num_regions() < 2) {
      continue;
    }
    fill_twins(got, want, rng);
    for (int n = 0; n < 20; ++n) {
      tida::GhostCopy c;
      c.src_region = static_cast<int>(rng.next_below(got.num_regions()));
      c.dst_region = static_cast<int>(rng.next_below(got.num_regions() - 1));
      c.dst_region += c.dst_region >= c.src_region ? 1 : 0;
      const Box sg = got.region(c.src_region).grown;
      const Box dg = got.region(c.dst_region).grown;
      const Index3 fit = Index3::min(sg.extent(), dg.extent());
      Index3 e{static_cast<int>(1 + rng.next_below(fit.i)),
               static_cast<int>(1 + rng.next_below(fit.j)),
               static_cast<int>(1 + rng.next_below(fit.k))};
      if (rng.next_below(3) == 0) {
        e.i = 1;
      }
      c.src_box = random_sub_box(rng, sg, e);
      c.dst_box = random_sub_box(rng, dg, e);
      c.shift = c.src_box.lo - c.dst_box.lo;
      tida::copy_ghost_cells(c, got.region(c.src_region),
                             got.region(c.dst_region));
      reference_copy(c, want.region(c.src_region), want.region(c.dst_region));
      single_cell_rows += e.i == 1 ? 1 : 0;
      multi_comp_copies += ncomp > 1 ? 1 : 0;
    }
    ASSERT_TRUE(buffers_equal(got, want))
        << "trial " << trial << " random copies, ncomp " << ncomp;
  }
  // Both special shapes were exercised.
  EXPECT_GT(single_cell_rows, 0u);
  EXPECT_GT(multi_comp_copies, 0u);
}

}  // namespace
}  // namespace tidacc

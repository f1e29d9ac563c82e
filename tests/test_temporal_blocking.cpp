// Tests for k-step temporal blocking (compute_k): trapezoid box algebra,
// bitwise equality of k in-slot sub-steps against the flat single-step
// reference for the heat and box stencils across ghost widths, in core and
// out of core, snapshot round trips mid-campaign, the multi-device mirror,
// and the cost-model auto-tuner's basic shape.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/tidacc.hpp"
#include "core/world_snapshot.hpp"
#include "kernels/heat.hpp"
#include "kernels/stencil27.hpp"

namespace tidacc::core {
namespace {

using oacc::LoopCost;
using sim::DeviceConfig;
using tida::Boundary;
using tida::Box;
using tida::Index3;

DeviceConfig fast_config() {
  DeviceConfig cfg = DeviceConfig::k40m();
  cfg.transfer_latency_ns = 0;
  cfg.pageable_staging_ns = 0;
  cfg.kernel_launch_ns = 0;
  cfg.host_api_overhead_ns = 0;
  cfg.sync_overhead_ns = 0;
  cfg.oacc_dispatch_extra_ns = 0;
  return cfg;
}

class TemporalBlockingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cuem::configure(fast_config(), /*functional=*/true);
    oacc::reset();
  }
};

// --- box algebra ---

TEST(TrapezoidAlgebraTest, RangesShrinkByOneRadiusPerSubStep) {
  const Box valid{{4, 4, 4}, {11, 11, 11}};
  for (const int radius : {1, 2}) {
    for (const int k : {2, 3, 4}) {
      for (int s = 0; s < k; ++s) {
        const Box range = tida::trapezoid_range(valid, radius, k, s);
        EXPECT_EQ(range, valid.grow(radius * (k - 1 - s)));
        if (s + 1 < k) {
          // Each sub-step reads exactly one radius beyond the next one's
          // writes — the invariant that makes depth-k blocking exact.
          EXPECT_EQ(tida::trapezoid_range(valid, radius, k, s + 1)
                        .grow(radius),
                    range);
        }
      }
      EXPECT_EQ(tida::trapezoid_range(valid, radius, k, k - 1), valid);
      const std::vector<Box> shells =
          tida::temporal_shells(valid, radius, k);
      std::uint64_t vol = 0;
      for (const Box& b : shells) vol += b.volume();
      EXPECT_EQ(vol, valid.grow(radius * k).volume() - valid.volume());
    }
  }
}

// --- bitwise equality against the flat reference ---

std::vector<double> flat_heat(int n, int steps) {
  std::vector<double> u(static_cast<std::size_t>(n) * n * n);
  kernels::heat_init_flat(u.data(), n);
  kernels::heat_reference(u, n, steps);
  return u;
}

std::vector<double> flat_box(int n, int steps, int radius) {
  std::vector<double> u(static_cast<std::size_t>(n) * n * n);
  kernels::heat_init_flat(u.data(), n);
  std::vector<double> un(u.size());
  for (int s = 0; s < steps; ++s) {
    kernels::box_stencil_step_flat(u.data(), un.data(), n, radius);
    u.swap(un);
  }
  return u;
}

/// Runs `steps` stencil steps in blocks of k sub-steps per residency and
/// returns the flat field. Out-of-core runs force the streaming exchange
/// (the risky protocol: widened dirty interiors + pitched shell copies).
std::vector<double> run_blocked(int n, int regions, int slots, int steps,
                                int radius, int k, bool heat) {
  cuem::configure(fast_config(), /*functional=*/true);
  oacc::reset();
  const int slab = (n + regions - 1) / regions;
  AccOptions o;
  o.max_slots = slots;
  o.time_block_k = k;
  if (slots < regions) {
    o.delta_transfers = true;
    o.streaming_guard = StreamingGuard::kForceStreaming;
  }
  AccTileArray<double> u(Box::cube(n), Index3{n, n, slab}, radius * k, o);
  u.fill([](const Index3& p) {
    return kernels::heat_initial(p.i, p.j, p.k);
  });
  const LoopCost cost =
      heat ? kernels::heat_cost() : kernels::box_stencil_cost(radius);
  for (int s = 0; s < steps; s += k) {
    u.fill_boundary(Boundary::kPeriodic);
    for (int r = 0; r < u.num_regions(); ++r) {
      compute_k(u, r, k, radius, cost,
                [radius, heat](DeviceView<double> in, DeviceView<double> out,
                               int i, int j, int kk) {
                  out(i, j, kk) =
                      heat ? kernels::heat_point(in, i, j, kk)
                           : kernels::box_stencil_point(in, i, j, kk,
                                                        radius);
                });
    }
  }
  u.release_all_to_host();
  std::vector<double> out(static_cast<std::size_t>(n) * n * n);
  u.copy_out(out.data());
  return out;
}

/// The k=1 rung of the ladder: the existing one-step ping-pong pipeline.
std::vector<double> run_single(int n, int regions, int slots, int steps,
                               int radius, bool heat) {
  cuem::configure(fast_config(), /*functional=*/true);
  oacc::reset();
  const int slab = (n + regions - 1) / regions;
  AccOptions o;
  o.max_slots = slots;
  AccTileArray<double> u(Box::cube(n), Index3{n, n, slab}, radius, o);
  AccTileArray<double> un(Box::cube(n), Index3{n, n, slab}, radius, o);
  u.fill([](const Index3& p) {
    return kernels::heat_initial(p.i, p.j, p.k);
  });
  const LoopCost cost =
      heat ? kernels::heat_cost() : kernels::box_stencil_cost(radius);
  AccTileArray<double>* src = &u;
  AccTileArray<double>* dst = &un;
  AccTileIterator<double> it(u);
  for (int s = 0; s < steps; ++s) {
    src->fill_boundary(Boundary::kPeriodic);
    for (it.reset(/*gpu=*/true); it.isValid(); it.next()) {
      compute(it.tile_in(*src), it.tile_in(*dst), cost,
              [radius, heat](DeviceView<double> in, DeviceView<double> out,
                             int i, int j, int kk) {
                out(i, j, kk) =
                    heat ? kernels::heat_point(in, i, j, kk)
                         : kernels::box_stencil_point(in, i, j, kk, radius);
              });
    }
    std::swap(src, dst);
  }
  src->release_all_to_host();
  std::vector<double> out(static_cast<std::size_t>(n) * n * n);
  src->copy_out(out.data());
  return out;
}

TEST_F(TemporalBlockingTest, HeatSingleStepPipelineMatchesReference) {
  const std::vector<double> ref = flat_heat(16, 6);
  EXPECT_EQ(run_single(16, 4, 4, 6, 1, /*heat=*/true), ref);
  EXPECT_EQ(run_single(16, 4, 2, 6, 1, /*heat=*/true), ref);
}

TEST_F(TemporalBlockingTest, BlockedHeatIsBitwiseEqualInCore) {
  const std::vector<double> ref = flat_heat(16, 6);
  for (const int k : {2, 3}) {
    EXPECT_EQ(run_blocked(16, 4, 4, 6, 1, k, /*heat=*/true), ref)
        << "k=" << k;
  }
}

TEST_F(TemporalBlockingTest, BlockedHeatIsBitwiseEqualOutOfCore) {
  const std::vector<double> ref = flat_heat(16, 6);
  for (const int k : {2, 3}) {
    for (const int slots : {3, 2}) {
      EXPECT_EQ(run_blocked(16, 4, slots, 6, 1, k, /*heat=*/true), ref)
          << "k=" << k << " slots=" << slots;
    }
  }
}

TEST_F(TemporalBlockingTest, BlockedBoxStencilAcrossGhostWidths) {
  // radius (ghost width per step) 1..3; array ghost = radius * k.
  for (const int radius : {1, 2, 3}) {
    const int n = radius == 3 ? 32 : 16;  // keep ghost <= slab
    const std::vector<double> ref = flat_box(n, 6, radius);
    EXPECT_EQ(run_single(n, 4, 4, 6, radius, /*heat=*/false), ref)
        << "radius=" << radius << " k=1";
    for (const int k : {2, 3}) {
      if (radius * k > n / 4) continue;
      EXPECT_EQ(run_blocked(n, 4, 4, 6, radius, k, /*heat=*/false), ref)
          << "radius=" << radius << " k=" << k << " in-core";
      EXPECT_EQ(run_blocked(n, 4, 3, 6, radius, k, /*heat=*/false), ref)
          << "radius=" << radius << " k=" << k << " out-of-core";
    }
  }
}

// --- contract checks ---

TEST_F(TemporalBlockingTest, ComputeKValidatesConfiguration) {
  AccOptions o;
  o.time_block_k = 2;
  AccTileArray<double> u(Box::cube(8), Index3{8, 8, 2}, 2, o);
  u.assume_host_initialized();
  const LoopCost cost = kernels::heat_cost();
  const auto body = [](DeviceView<double>, DeviceView<double>, int, int,
                       int) {};
  // k beyond the configured depth, and ghost too narrow for the depth.
  EXPECT_THROW(compute_k(u, 0, 3, 1, cost, body), tidacc::Error);
  EXPECT_THROW(compute_k(u, 0, 2, 2, cost, body), tidacc::Error);

  AccTileArray<double> plain(Box::cube(8), Index3{8, 8, 2}, 2);
  plain.assume_host_initialized();
  // No scratch buffers (time_block_k defaulted to 1).
  EXPECT_THROW(compute_k(plain, 0, 2, 1, cost, body), tidacc::Error);
}

TEST_F(TemporalBlockingTest, ComputeKRefusesDomainGhostsAfterNoneExchange) {
  // 12^3 in three slabs, ghost = k: every slab's ghost ring leaves the
  // domain, whose ghost cells a Boundary::kNone exchange keeps as boundary
  // values; the trapezoid sub-steps would overwrite them.
  for (const int k : {2, 3}) {
    AccOptions o;
    o.time_block_k = k;
    AccTileArray<double> u(Box::cube(12), Index3{12, 12, 4}, k, o);
    u.fill([](const Index3& p) {
      return kernels::heat_initial(p.i, p.j, p.k);
    });
    u.fill_boundary(Boundary::kNone);
    ASSERT_EQ(u.last_boundary(), Boundary::kNone);
    const auto body = [](DeviceView<double> in, DeviceView<double> out,
                         int i, int j, int kk) {
      out(i, j, kk) = kernels::heat_point(in, i, j, kk);
    };
    for (int r = 0; r < u.num_regions(); ++r) {
      try {
        compute_k(u, r, k, 1, kernels::heat_cost(), body);
        ADD_FAILURE() << "compute_k ran region " << r << " after kNone";
      } catch (const tidacc::Error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("region " + std::to_string(r) + " "),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("Boundary::kNone"), std::string::npos) << what;
        EXPECT_NE(what.find("k = " + std::to_string(k) + " "),
                  std::string::npos)
            << what;
      }
    }
    // Nothing was launched: the regions never left the host.
    EXPECT_EQ(u.location(0), Loc::kHost);
  }
}

TEST_F(TemporalBlockingTest, ComputeKRunsInteriorRegionsAfterNoneExchange) {
  // 4^3 regions of a 12^3 domain: the centre region's ghost ring (k = 2)
  // stays inside the domain, so its neighbours supply every ghost cell.
  AccOptions o;
  o.time_block_k = 2;
  AccTileArray<double> u(Box::cube(12), Index3::uniform(4), 2, o);
  u.assume_host_initialized();
  u.fill_boundary(Boundary::kNone);
  const int centre = u.partition().region_of_cell({5, 5, 5});
  ASSERT_TRUE(Box::cube(12).contains(u.region(centre).grown));
  EXPECT_NO_THROW(compute_k(u, centre, 2, 1, kernels::heat_cost(),
                            [](DeviceView<double>, DeviceView<double>, int,
                               int, int) {}));
}

TEST_F(TemporalBlockingTest, LastBoundaryRidesTheSnapshot) {
  AccOptions o;
  o.time_block_k = 2;
  AccTileArray<double> u(Box::cube(12), Index3{12, 12, 4}, 2, o);
  u.assume_host_initialized();
  EXPECT_FALSE(u.last_boundary().has_value());
  u.fill_boundary(Boundary::kNone);
  sim::SnapshotWriter w;
  world_capture(w);
  u.capture(w);
  const std::vector<std::uint8_t> snap = w.take();

  u.fill_boundary(Boundary::kPeriodic);
  EXPECT_EQ(u.last_boundary(), Boundary::kPeriodic);
  sim::SnapshotReader r(snap);
  world_restore(r);
  u.restore(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(u.last_boundary(), Boundary::kNone);
  EXPECT_THROW(compute_k(u, 0, 2, 1, kernels::heat_cost(),
                         [](DeviceView<double>, DeviceView<double>, int, int,
                            int) {}),
               tidacc::Error);
}

TEST_F(TemporalBlockingTest, BlockedHeatOnThreeSlabsMatchesSingleSteps) {
  // The same 12^3, three-slab geometry under a periodic exchange: k
  // sub-steps per residency stay bitwise equal to six single steps.
  const std::vector<double> ref = flat_heat(12, 6);
  EXPECT_EQ(run_single(12, 3, 3, 6, 1, /*heat=*/true), ref);
  for (const int k : {2, 3}) {
    EXPECT_EQ(run_blocked(12, 3, 3, 6, 1, k, /*heat=*/true), ref)
        << "k=" << k;
  }
}

// --- snapshot round trip mid-campaign ---

TEST_F(TemporalBlockingTest, SnapshotRoundTripReplaysBitwise) {
  const int n = 16, k = 2, radius = 1;
  AccOptions o;
  o.max_slots = 3;
  o.delta_transfers = true;
  o.streaming_guard = StreamingGuard::kForceStreaming;
  o.time_block_k = k;
  AccTileArray<double> u(Box::cube(n), Index3{n, n, 4}, radius * k, o);
  u.fill([](const Index3& p) {
    return kernels::heat_initial(p.i, p.j, p.k);
  });
  const LoopCost cost = kernels::heat_cost();
  const auto body = [](DeviceView<double> in, DeviceView<double> out, int i,
                       int j, int kk) {
    out(i, j, kk) = kernels::heat_point(in, i, j, kk);
  };
  const auto block = [&]() {
    u.fill_boundary(Boundary::kPeriodic);
    for (int r = 0; r < u.num_regions(); ++r) {
      compute_k(u, r, k, radius, cost, body);
    }
  };
  block();  // capture mid-campaign: live residency, swapped slot buffers

  sim::SnapshotWriter w;
  world_capture(w);
  u.capture(w);
  const std::vector<std::uint8_t> snap = w.take();

  const auto tail = [&]() {
    block();
    u.release_all_to_host();
    std::vector<double> out(static_cast<std::size_t>(n) * n * n);
    u.copy_out(out.data());
    return out;
  };
  const std::vector<double> first = tail();

  sim::SnapshotReader r(snap);
  world_restore(r);
  u.restore(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(tail(), first);
}

// --- multi-device mirror ---

TEST_F(TemporalBlockingTest, MultiDeviceBlockedMatchesFlatReference) {
  cuem::configure(fast_config(), /*functional=*/true, /*devices=*/2,
                  sim::Interconnect::pcie());
  oacc::reset();
  const int n = 16, k = 2, radius = 1, steps = 6;
  MultiAccOptions o;
  o.devices = 2;
  o.max_slots = 2;  // 4 regions on 2 devices: out of core
  o.delta_transfers = true;
  o.streaming_guard = StreamingGuard::kForceStreaming;
  o.time_block_k = k;
  MultiAccTileArray<double> u(Box::cube(n), Index3{n, n, 4}, radius * k, o);
  u.fill([](const Index3& p) {
    return kernels::heat_initial(p.i, p.j, p.k);
  });
  const LoopCost cost = kernels::heat_cost();
  for (int s = 0; s < steps; s += k) {
    u.fill_boundary(Boundary::kPeriodic);
    for (int r = 0; r < u.num_regions(); ++r) {
      compute_k(u, r, k, radius, cost,
                [](DeviceView<double> in, DeviceView<double> out, int i,
                   int j, int kk) {
                  out(i, j, kk) = kernels::heat_point(in, i, j, kk);
                });
    }
  }
  u.release_all_to_host();
  std::vector<double> out(static_cast<std::size_t>(n) * n * n);
  u.copy_out(out.data());
  EXPECT_EQ(out, flat_heat(n, steps));
}

// --- auto-tuner shape ---

TEST(TimeBlockTunerTest, PicksDepthGreaterThanOneAtPaperScale) {
  // The fig8 limited-memory halo geometry on 8 slots: half the regions
  // swap every sweep, PCIe-bound, so blocking wins.
  std::vector<TimeBlockPrediction> table;
  const int k = choose_time_block_k(Box::cube(256), Index3{256, 256, 16},
                                    /*radius=*/1, /*slots=*/8,
                                    kernels::box_stencil_cost(1),
                                    DeviceConfig::k40m(), /*max_k=*/8,
                                    &table);
  EXPECT_GT(k, 1);
  EXPECT_LE(k, 8);
  ASSERT_EQ(table.size(), 8u);
  for (const auto& row : table) {
    EXPECT_GT(row.step_ns, 0.0);
    EXPECT_GT(row.bytes_per_update, 0.0);
  }
  // Blocking buys its win by shipping fewer link bytes per cell update.
  EXPECT_LT(table[static_cast<std::size_t>(k - 1)].bytes_per_update,
            table[0].bytes_per_update);
  // On 15 slots one region swaps per sweep, behind the other fifteen's
  // kernels: compute-bound, so the one-step pipeline is best.
  EXPECT_EQ(choose_time_block_k(Box::cube(256), Index3{256, 256, 16},
                                /*radius=*/1, /*slots=*/15,
                                kernels::box_stencil_cost(1),
                                DeviceConfig::k40m()),
            1);
}

/// An (unphysically) fast link with no per-transfer setup: the pipeline is
/// compute-bound.
DeviceConfig free_transfer_config() {
  DeviceConfig cfg = DeviceConfig::k40m();
  cfg.pinned_h2d_gbps = 1e9;
  cfg.pinned_d2h_gbps = 1e9;
  cfg.transfer_latency_ns = 0;
  cfg.host_api_overhead_ns = 0;
  return cfg;
}

TEST(TimeBlockTunerTest, FreeTransfersMakeBlockingPointless) {
  // Compute-bound: widened trapezoids only add work.
  const int k = choose_time_block_k(Box::cube(256), Index3{256, 256, 16},
                                    /*radius=*/1, /*slots=*/8,
                                    kernels::box_stencil_cost(1),
                                    free_transfer_config());
  EXPECT_EQ(k, 1);
}

TEST(TimeBlockTunerTest, PricesKernelsAsComputeKLaunchesThem) {
  // heat_face_cost is heat_cost with a 4x access-pattern penalty, which
  // compute_k's kernels pay; in a compute-bound pipeline every predicted
  // step must therefore be dearer.
  const DeviceConfig cfg = free_transfer_config();
  std::vector<TimeBlockPrediction> plain;
  std::vector<TimeBlockPrediction> face;
  choose_time_block_k(Box::cube(256), Index3{256, 256, 16}, /*radius=*/1,
                      /*slots=*/8, kernels::heat_cost(), cfg, /*max_k=*/8,
                      &plain);
  choose_time_block_k(Box::cube(256), Index3{256, 256, 16}, /*radius=*/1,
                      /*slots=*/8, kernels::heat_face_cost(), cfg,
                      /*max_k=*/8, &face);
  ASSERT_EQ(plain.size(), face.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_GT(face[i].step_ns, plain[i].step_ns) << "k=" << plain[i].k;
  }
}

TEST(TimeBlockTunerTest, PricesTheReplayDescriptorsTheArrayAllocates) {
  // Slabs two cells thin: from k = 3 on the ring (ghost = k * radius) is
  // wider than a slab, its pieces span several slabs, and the array gives
  // each region more than 26 descriptors (descriptors_per_region). The
  // tuner's replay kernel must read that many. With a slot per region
  // nothing swaps, so a predicted step is the k trapezoid kernels plus the
  // replay, per region and step.
  const Box domain = Box::cube(32);
  const Index3 rs{32, 32, 2};
  const DeviceConfig cfg = DeviceConfig::k40m();
  const LoopCost cost = kernels::box_stencil_cost(1);
  std::vector<TimeBlockPrediction> table;
  choose_time_block_k(domain, rs, /*radius=*/1, /*slots=*/16, cost, cfg,
                      /*max_k=*/4, &table);
  ASSERT_EQ(table.size(), 4u);
  const tida::Partition part(domain, rs);
  const std::uint64_t regions = 16;
  const auto grown = [](int g) {
    return static_cast<std::uint64_t>(32 + 2 * g) *
           static_cast<std::uint64_t>(32 + 2 * g) *
           static_cast<std::uint64_t>(2 + 2 * g);
  };
  for (const TimeBlockPrediction& row : table) {
    const int k = row.k;
    const std::size_t descriptors = descriptors_per_region(part, k);
    EXPECT_EQ(descriptors > 26, k > 2) << "k=" << k;
    double kernels = 0.0;
    for (int s = 0; s < k; ++s) {
      kernels += static_cast<double>(
          cfg.kernel_launch_ns + cfg.oacc_dispatch_extra_ns +
          cost.profile(grown(k - 1 - s), /*tuned_geometry=*/false)
              .duration_ns(cfg));
    }
    const double replay = static_cast<double>(
        cfg.kernel_launch_ns + cfg.oacc_dispatch_extra_ns +
        ghost_update_profile(regions * (grown(k) - grown(0)), sizeof(double),
                             regions * descriptors * sizeof(GhostDescriptor))
            .duration_ns(cfg));
    EXPECT_DOUBLE_EQ(row.step_ns,
                     (static_cast<double>(regions) * kernels + replay) /
                         static_cast<double>(regions * k))
        << "k=" << k;
  }
}

}  // namespace
}  // namespace tidacc::core

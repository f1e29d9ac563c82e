// Cross-module integration invariants:
//   * functional and timing-only runs of the same workload report the SAME
//     virtual times and transfer counters (the cost model is a pure
//     function of sizes — the property that makes paper-scale timing-only
//     benches trustworthy);
//   * all heat baselines agree bit-for-bit across a size/step sweep;
//   * TiDA-acc agrees with baselines across slot budgets;
//   * GPU passes visit regions in residency order, and the field matches
//     the region-major traversal bit for bit;
//   * trace utilization reflects genuine overlap.
#include <gtest/gtest.h>

#include <cstring>
#include <initializer_list>
#include <vector>

#include "baselines/heat_baselines.hpp"
#include "baselines/sincos_baselines.hpp"
#include "core/tidacc.hpp"
#include "kernels/heat.hpp"
#include "kernels/stencil27.hpp"
#include "oacc/oacc.hpp"
#include "sim/trace.hpp"

namespace tidacc::baselines {
namespace {

using sim::DeviceConfig;

void fresh(bool functional) {
  cuem::configure(DeviceConfig::k40m(), functional);
  oacc::reset();
}

struct WorkloadTimes {
  SimTime elapsed;
  std::uint64_t h2d;
  std::uint64_t d2h;
  std::uint64_t kernels;
};

template <typename Run>
WorkloadTimes measure(bool functional, Run&& run) {
  fresh(functional);
  const SimTime elapsed = run();
  const auto st = cuem::platform().trace().stats();
  return {elapsed, st.h2d_bytes, st.d2h_bytes, st.num_kernels};
}

void expect_same(const WorkloadTimes& a, const WorkloadTimes& b,
                 const char* what) {
  EXPECT_EQ(a.elapsed, b.elapsed) << what << ": virtual time diverged";
  EXPECT_EQ(a.h2d, b.h2d) << what << ": H2D bytes diverged";
  EXPECT_EQ(a.d2h, b.d2h) << what << ": D2H bytes diverged";
  EXPECT_EQ(a.kernels, b.kernels) << what << ": kernel count diverged";
}

// --- functional ≡ timing-only ---

TEST(ModeEquivalence, HeatCudaBaseline) {
  const auto run = [] {
    HeatParams p;
    p.n = 32;
    p.steps = 4;
    p.memory = MemoryKind::kPinned;
    return run_heat_baseline(HeatModel::kCudaOnly, p).elapsed;
  };
  expect_same(measure(true, run), measure(false, run), "heat CUDA");
}

TEST(ModeEquivalence, HeatAccBaseline) {
  const auto run = [] {
    HeatParams p;
    p.n = 24;
    p.steps = 3;
    p.memory = MemoryKind::kPageable;
    return run_heat_baseline(HeatModel::kAccOnly, p).elapsed;
  };
  expect_same(measure(true, run), measure(false, run), "heat OpenACC");
}

TEST(ModeEquivalence, HeatTidacc) {
  const auto run = [] {
    HeatTidaParams p;
    p.n = 24;
    p.steps = 3;
    p.regions = 4;
    return run_heat_tidacc(p).elapsed;
  };
  expect_same(measure(true, run), measure(false, run), "heat TiDA-acc");
}

TEST(ModeEquivalence, SinCosTidaccLimitedMemory) {
  const auto run = [] {
    SinCosTidaParams p;
    p.n = 16;
    p.steps = 4;
    p.iterations = 3;
    p.regions = 8;
    p.max_slots = 2;
    return run_sincos_tidacc(p).elapsed;
  };
  expect_same(measure(true, run), measure(false, run),
              "sincos TiDA-acc limited");
}

TEST(ModeEquivalence, SinCosManagedBaseline) {
  const auto run = [] {
    SinCosParams p;
    p.n = 16;
    p.steps = 2;
    p.iterations = 2;
    return run_sincos_baseline(SinCosVariant::kCuda, p).elapsed;
  };
  expect_same(measure(true, run), measure(false, run), "sincos CUDA");
}

// --- baseline equivalence sweep (parameterized) ---

struct SweepCase {
  int n;
  int steps;
};

class HeatEquivalenceSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(HeatEquivalenceSweep, AllImplementationsAgree) {
  const auto& c = GetParam();
  std::vector<double> ref(static_cast<std::size_t>(c.n) * c.n * c.n);
  kernels::heat_init_flat(ref.data(), c.n);
  kernels::heat_reference(ref, c.n, c.steps);

  const auto check = [&](const std::vector<double>& got, const char* what) {
    ASSERT_EQ(got.size(), ref.size()) << what;
    EXPECT_LE(kernels::max_abs_diff(got.data(), ref.data(), ref.size()),
              1e-13)
        << what << " n=" << c.n << " steps=" << c.steps;
  };

  fresh(true);
  HeatParams p;
  p.n = c.n;
  p.steps = c.steps;
  p.memory = MemoryKind::kPinned;
  p.keep_result = true;
  check(run_heat_baseline(HeatModel::kCudaOnly, p).data, "CUDA");

  fresh(true);
  check(run_heat_baseline(HeatModel::kAccOnly, p).data, "OpenACC");

  fresh(true);
  check(run_heat_baseline(HeatModel::kCudaMemAccKernels, p).data, "combo");

  for (const int slots : {1 << 20, 2}) {
    fresh(true);
    HeatTidaParams tp;
    tp.n = c.n;
    tp.steps = c.steps;
    tp.regions = 4;
    tp.max_slots = slots;
    tp.keep_result = true;
    check(run_heat_tidacc(tp).data,
          slots == 2 ? "TiDA-acc limited" : "TiDA-acc");
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, HeatEquivalenceSweep,
                         ::testing::Values(SweepCase{8, 1}, SweepCase{8, 5},
                                           SweepCase{12, 3},
                                           SweepCase{16, 2},
                                           SweepCase{10, 4}));

// --- wide-stencil tiled solver vs flat reference ---

class BoxStencilSweep : public ::testing::TestWithParam<int> {};

TEST_P(BoxStencilSweep, TiledMatchesFlatReference) {
  const int radius = GetParam();
  constexpr int n = 12;
  constexpr int steps = 2;
  fresh(true);

  std::vector<double> ref(static_cast<std::size_t>(n) * n * n);
  kernels::heat_init_flat(ref.data(), n);
  std::vector<double> tmp(ref.size());
  for (int s = 0; s < steps; ++s) {
    kernels::box_stencil_step_flat(ref.data(), tmp.data(), n, radius);
    ref.swap(tmp);
  }

  using namespace tidacc::core;
  AccTileArray<double> u(tida::Box::cube(n), tida::Index3{n, n, 4}, radius);
  AccTileArray<double> un(tida::Box::cube(n), tida::Index3{n, n, 4},
                          radius);
  u.fill([](const tida::Index3& p) {
    return kernels::heat_initial(p.i, p.j, p.k);
  });
  const oacc::LoopCost cost = kernels::box_stencil_cost(radius);
  const int pts = (2 * radius + 1) * (2 * radius + 1) * (2 * radius + 1);
  const double weight = 1.0 / pts;

  AccTileArray<double>* src = &u;
  AccTileArray<double>* dst = &un;
  AccTileIterator<double> it(u);
  for (int s = 0; s < steps; ++s) {
    src->fill_boundary(tida::Boundary::kPeriodic);
    for (it.reset(true); it.isValid(); it.next()) {
      compute(it.tile_in(*src), it.tile_in(*dst), cost,
              [radius, weight](DeviceView<double> sv, DeviceView<double> dv,
                               int i, int j, int k) {
                double acc = 0.0;
                for (int dk = -radius; dk <= radius; ++dk) {
                  for (int dj = -radius; dj <= radius; ++dj) {
                    for (int di = -radius; di <= radius; ++di) {
                      acc += sv(i + di, j + dj, k + dk);
                    }
                  }
                }
                dv(i, j, k) = acc * weight;
              });
    }
    std::swap(src, dst);
  }
  src->release_all_to_host();
  std::vector<double> flat(ref.size());
  src->copy_out(flat.data());
  // Accumulation order differs between the flat loop and the view loop, so
  // compare with an FP tolerance rather than bitwise.
  EXPECT_LE(kernels::max_abs_diff(flat.data(), ref.data(), ref.size()),
            1e-12)
      << "radius " << radius;
}

INSTANTIATE_TEST_SUITE_P(Radii, BoxStencilSweep, ::testing::Values(1, 2, 3));

// --- shuffled (out-of-order) traversal equivalence ---

TEST(OutOfOrder, ShuffledGpuTraversalMatchesOrdered) {
  fresh(true);
  using namespace tidacc::core;
  AccOptions opts;
  opts.max_slots = 2;  // evictions interact with the traversal order
  AccTileArray<double> arr(tida::Box::cube(8), tida::Index3{8, 8, 2}, 0,
                           opts);
  arr.fill([](const tida::Index3& p) {
    return static_cast<double>(p.i + 2 * p.j + 3 * p.k);
  });
  oacc::LoopCost cost;
  cost.dev_bytes_per_iter = 16;
  AccTileIterator<double> it(arr);
  it.shuffle(0xBEEF);
  for (it.reset(true); it.isValid(); it.next()) {
    compute(it.tile(), cost,
            [](DeviceView<double> v, int i, int j, int k) {
              v(i, j, k) = 2.0 * v(i, j, k) + 1.0;
            });
  }
  arr.release_all_to_host();
  for (int k = 0; k < 8; ++k) {
    ASSERT_DOUBLE_EQ(arr.at({1, 2, k}),
                     2.0 * (1 + 2 * 2 + 3 * k) + 1.0);
  }
}

// --- residency-ordered GPU traversal ---

/// One halo step of fig8's in-place sweep: exchange, then a GPU pass
/// through `it` running the order-independent ghost-reading update.
/// Returns the regions in visit order.
std::vector<int> halo_pass(core::AccTileArray<double>& u,
                           core::AccTileIterator<double>& it) {
  using namespace tidacc::core;
  u.fill_boundary(tida::Boundary::kPeriodic);
  oacc::LoopCost cost;
  cost.dev_bytes_per_iter = 16;
  std::vector<int> order;
  for (it.reset(true); it.isValid(); it.next()) {
    order.push_back(it.tile().tile.region.id);
    compute(it.tile(), cost, [](DeviceView<double> v, int i, int j, int k) {
      v(i, j, k) = 0.5 * v(i, j, k) +
                   0.125 * (v(i - 1, j, k) + v(i + 1, j, k) +
                            v(i, j - 1, k) + v(i, j + 1, k));
    });
  }
  return order;
}

/// 16 slabs of a 32^3 cube with delta transfers on.
core::AccOptions slab_options(int slots, core::StreamingGuard guard) {
  core::AccOptions o;
  o.max_slots = slots;
  o.delta_transfers = true;
  o.streaming_guard = guard;
  return o;
}

std::vector<int> range_order(std::initializer_list<int> head, int lo,
                             int hi, std::initializer_list<int> tail) {
  std::vector<int> out(head);
  for (int r = lo; r <= hi; ++r) {
    out.push_back(r);
  }
  out.insert(out.end(), tail);
  return out;
}

TEST(ResidencyOrder, SharedSlotSwapsOncePerSweep) {
  fresh(false);
  using namespace tidacc::core;
  AccTileArray<double> u(tida::Box::cube(32), tida::Index3{32, 32, 2}, 1,
                         slab_options(15, StreamingGuard::kForceStreaming));
  u.assume_host_initialized();
  AccTileIterator<double> it(u);
  // Nothing is on the device yet: region-major, ending on region 15 in
  // slot 0. Each later sweep starts with slot 0's holder and ends on the
  // region waiting for that slot.
  EXPECT_EQ(halo_pass(u, it), range_order({}, 0, 15, {}));
  EXPECT_EQ(halo_pass(u, it), range_order({15}, 1, 14, {0}));
  EXPECT_EQ(halo_pass(u, it), range_order({0}, 1, 14, {15}));
  EXPECT_EQ(halo_pass(u, it), range_order({15}, 1, 14, {0}));
  // CPU passes keep the base order.
  std::vector<int> cpu;
  for (it.reset(); it.isValid(); it.next()) {
    cpu.push_back(it.tile().tile.region.id);
  }
  EXPECT_EQ(cpu, range_order({}, 0, 15, {}));
  // The region visited last drains last: the FIFO D2H engine never holds
  // its drain, which waits for its kernel, ahead of the others.
  cuem::platform().trace().set_recording(true);
  cuem::platform().trace().clear();
  u.release_all_to_host();
  std::vector<int> drained;  // streams of the drain copies, in issue order
  for (const sim::TraceEvent& e : cuem::platform().trace().events()) {
    if (e.kind == sim::OpKind::kCopyD2H ||
        e.kind == sim::OpKind::kMemcpy3DD2H) {
      drained.push_back(e.stream);
    }
  }
  ASSERT_FALSE(drained.empty());
  EXPECT_EQ(drained.front(), u.stream_of_region(1));
  EXPECT_EQ(drained.back(), u.stream_of_region(0));
}

TEST(ResidencyOrder, DrainedWorldStaysRegionMajor) {
  fresh(false);
  using namespace tidacc::core;
  AccTileArray<double> u(tida::Box::cube(32), tida::Index3{32, 32, 2}, 1,
                         slab_options(15, StreamingGuard::kForceDrain));
  u.assume_host_initialized();
  AccTileIterator<double> it(u);
  for (int s = 0; s < 3; ++s) {
    // Every exchange drains: all regions host-current, none ranked ahead.
    EXPECT_EQ(halo_pass(u, it), range_order({}, 0, 15, {})) << "step " << s;
  }
}

TEST(ResidencyOrder, PrefetchPinAndRegionMajorRequestKeepBaseOrder) {
  fresh(false);
  using namespace tidacc::core;
  AccTileArray<double> u(tida::Box::cube(32), tida::Index3{32, 32, 2}, 1,
                         slab_options(14, StreamingGuard::kForceStreaming));
  u.assume_host_initialized();
  AccTileIterator<double> it(u);
  EXPECT_EQ(halo_pass(u, it), range_order({}, 0, 15, {}));
  // The caller prefetches region 0 into slot 0: it drives the lookahead.
  ASSERT_TRUE(u.prefetch_to_device(0));
  EXPECT_EQ(halo_pass(u, it), range_order({}, 0, 15, {}));
  // Unpinned, the same array orders by residency...
  EXPECT_EQ(halo_pass(u, it), range_order({14, 15}, 2, 13, {0, 1}));
  // ...unless the iterator was asked for the paper's region-major order.
  AccTileIterator<double> paper(u);
  paper.request_region_major();
  EXPECT_EQ(halo_pass(u, paper), range_order({}, 0, 15, {}));
}

TEST(ResidencyOrder, FieldBitwiseEqualToRegionMajor) {
  using namespace tidacc::core;
  for (const int slots : {15, 8}) {
    std::vector<std::vector<double>> fields;
    for (const bool region_major : {true, false}) {
      fresh(true);
      AccTileArray<double> u(
          tida::Box::cube(32), tida::Index3{32, 32, 2}, 1,
          slab_options(slots, StreamingGuard::kForceStreaming));
      u.fill([](const tida::Index3& p) {
        return 0.001 * p.i + 0.002 * p.j + 0.004 * p.k;
      });
      AccTileIterator<double> it(u);
      if (region_major) {
        it.request_region_major();
      }
      for (int s = 0; s < 4; ++s) {
        halo_pass(u, it);
      }
      u.release_all_to_host();
      fields.emplace_back(tida::Box::cube(32).volume());
      u.copy_out(fields.back().data());
    }
    EXPECT_EQ(std::memcmp(fields[0].data(), fields[1].data(),
                          fields[0].size() * sizeof(double)),
              0)
        << slots << " slots";
  }
}

// --- overlap evidence ---

TEST(OverlapEvidence, ComputeBoundStreamingKeepsEngineSaturated) {
  // Fig. 7's claim: under limited memory with compute >= transfer per
  // region, streaming is fully hidden — the compute engine never idles
  // between the first and last kernel.
  fresh(false);
  cuem::platform().trace().set_recording(true);
  SinCosTidaParams p;
  p.n = 128;
  p.steps = 2;
  p.iterations = 64;
  p.regions = 8;
  p.max_slots = 2;
  (void)run_sincos_tidacc(p);
  EXPECT_GT(cuem::platform().trace().compute_utilization(), 0.97);
}

TEST(OverlapEvidence, TransferBoundTidaBeatsBulkTransfers) {
  // Transfer-dominated heat at 1 step: TiDA-acc wins not through compute
  // overlap but by pipelining H2D and D2H on the two DMA engines, which
  // the bulk-transfer CUDA baseline serializes.
  fresh(false);
  HeatTidaParams tp;
  tp.n = 256;
  tp.steps = 1;
  tp.regions = 16;
  const SimTime tida_total = run_heat_tidacc(tp).elapsed;
  fresh(false);
  HeatParams cp;
  cp.n = 256;
  cp.steps = 1;
  cp.memory = MemoryKind::kPinned;
  const SimTime cuda_total =
      run_heat_baseline(HeatModel::kCudaOnly, cp).elapsed;
  EXPECT_LT(tida_total, cuda_total);
}

// --- slot-scheduling policies ---

TEST(SlotPolicyIntegration, StaticModuloReproducesSeedTraceExactly) {
  // Golden numbers captured on the pre-scheduler build (static modulo was
  // hard-coded): the default policy must keep the out-of-core trace
  // bit-for-bit — same virtual times, same transfer and kernel counts.
  // Times re-baselined when release_all_to_host() switched to batched
  // stream syncs (one blocking sync per stream instead of per region);
  // byte and op counts are unchanged from the seed.
  const auto run = [](core::SlotPolicyKind kind) {
    cuem::configure(DeviceConfig::k40m(), /*functional=*/false);
    oacc::reset();
    SinCosTidaParams p;
    p.n = 32;
    p.steps = 5;
    p.iterations = 8;
    p.regions = 8;
    p.max_slots = 2;
    p.policy = kind;
    return run_sincos_tidacc(p).elapsed;
  };
  const SimTime elapsed = run(core::SlotPolicyKind::kStaticModulo);
  const auto st = cuem::platform().trace().stats();
  EXPECT_EQ(elapsed, SimTime{679457});
  EXPECT_EQ(st.makespan, SimTime{676457});
  EXPECT_EQ(st.h2d_bytes, 1310720u);
  EXPECT_EQ(st.d2h_bytes, 1310720u);
  EXPECT_EQ(st.prefetch_h2d_bytes, 0u);
  EXPECT_EQ(st.num_kernels, 40u);
  EXPECT_EQ(st.num_copies, 80u);
}

TEST(SlotPolicyIntegration, AllPoliciesComputeTheSameResult) {
  // Functional runs: whatever the scheduler decides, the numerics must not
  // change — same data for every policy, with and without prefetch.
  SinCosTidaParams p;
  p.n = 16;
  p.steps = 3;
  p.iterations = 4;
  p.regions = 8;
  p.max_slots = 2;
  p.keep_result = true;
  fresh(true);
  const std::vector<double> ref = run_sincos_tidacc(p).data;
  ASSERT_FALSE(ref.empty());
  for (const auto kind :
       {core::SlotPolicyKind::kStaticModulo, core::SlotPolicyKind::kLru,
        core::SlotPolicyKind::kBeladyOracle}) {
    for (const int prefetch : {0, 2}) {
      for (const bool sync : {false, true}) {
        fresh(true);
        SinCosTidaParams q = p;
        q.policy = kind;
        q.prefetch = prefetch;
        q.step_sync = sync;
        EXPECT_EQ(run_sincos_tidacc(q).data, ref)
            << "policy=" << core::to_string(kind)
            << " prefetch=" << prefetch << " sync=" << sync;
      }
    }
  }
}

TEST(SlotPolicyIntegration, PrefetchModeEquivalence) {
  // The functional ≡ timing-only invariant must survive the prefetcher.
  const auto run = [] {
    SinCosTidaParams p;
    p.n = 16;
    p.steps = 4;
    p.iterations = 3;
    p.regions = 8;
    p.max_slots = 2;
    p.policy = core::SlotPolicyKind::kLru;
    p.prefetch = 2;
    p.step_sync = true;
    return run_sincos_tidacc(p).elapsed;
  };
  expect_same(measure(true, run), measure(false, run),
              "sincos TiDA-acc lru+prefetch");
}

TEST(SlotPolicyIntegration, PeekLookaheadPrefetchesAndStaysCorrect) {
  // The out-of-core lookahead loop: after each tile's kernel, prefetch the
  // region the iterator visits next.
  fresh(true);
  using namespace tidacc::core;
  AccOptions opts;
  opts.max_slots = 2;
  opts.slot_policy = SlotPolicyKind::kLru;
  AccTileArray<double> arr(tida::Box::cube(8), tida::Index3{8, 8, 2}, 0,
                           opts);
  arr.fill([](const tida::Index3& p) {
    return static_cast<double>(p.i + p.j + p.k);
  });
  oacc::LoopCost cost;
  cost.dev_bytes_per_iter = 16;
  AccTileIterator<double> it(arr);
  std::uint64_t issued = 0;
  for (it.reset(/*gpu=*/true); it.isValid(); it.next()) {
    const AccTile<double> tile = it.tile();
    compute(tile, cost, [](DeviceView<double> v, int i, int j, int k) {
      v(i, j, k) += 2.0;
    });
    const int next = it.peek_region(1);
    if (next >= 0 && next != tile.tile.region.id) {
      issued += arr.prefetch_to_device(next) ? 1 : 0;
    }
  }
  EXPECT_GT(issued, 0u);
  EXPECT_EQ(arr.transfers().prefetch_ops, issued);
  arr.release_all_to_host();
  for (int k = 0; k < 8; ++k) {
    ASSERT_DOUBLE_EQ(arr.at({1, 2, k}), 1 + 2 + k + 2.0);
  }
}

TEST(SlotPolicyIntegration, PrefetchTransfersAreLabelledInTheTrace) {
  fresh(false);
  cuem::platform().trace().set_recording(true);
  SinCosTidaParams p;
  p.n = 16;
  p.steps = 2;
  p.iterations = 4;
  p.regions = 8;
  p.max_slots = 2;
  p.prefetch = 2;
  p.step_sync = true;
  (void)run_sincos_tidacc(p);
  const auto& trace = cuem::platform().trace();
  bool saw_prefetch = false;
  for (const auto& ev : trace.events()) {
    if (ev.kind == sim::OpKind::kPrefetchH2D) {
      saw_prefetch = true;
      EXPECT_EQ(ev.label.rfind("P:R", 0), 0u)
          << "prefetch op carries its own label: " << ev.label;
    }
  }
  EXPECT_TRUE(saw_prefetch);
  EXPECT_GT(trace.stats().prefetch_h2d_bytes, 0u);
  EXPECT_GE(trace.stats().h2d_bytes, trace.stats().prefetch_h2d_bytes);
}

TEST(OverlapEvidence, UtilizationZeroWithoutKernels) {
  fresh(false);
  cuem::platform().trace().set_recording(true);
  void* d = nullptr;
  void* h = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 1024), cuemSuccess);
  ASSERT_EQ(cuemMallocHost(&h, 1024), cuemSuccess);
  ASSERT_EQ(cuemMemcpy(d, h, 1024, cuemMemcpyHostToDevice), cuemSuccess);
  EXPECT_DOUBLE_EQ(cuem::platform().trace().compute_utilization(), 0.0);
}

}  // namespace
}  // namespace tidacc::baselines

// Micro-benchmarks (google-benchmark) of the library substrate itself:
// how fast the discrete-event platform and cuem queue operations (one
// BM_EnqueueAsyncCopy Arg per copy route), how expensive
// exchange planning is, the core protocol's host cost per region kernel
// (BM_LaunchRegionKernel), and functional execution: the flat reference
// heat step (BM_FunctionalHeatStep), a region's heat kernel through
// core::compute and DeviceView (BM_ComputeHeatRegion) and one slab's ghost
// copies through tida::copy_ghost_cells (BM_CopyGhostCells), one
// split-phase cluster exchange (BM_ClusterExchangeBegin), and a world
// snapshot's capture and restore (BM_WorldSnapshotRoundTrip). These measure
// the real (wall-clock) performance of this codebase — useful when scaling
// the simulator to long runs — and double as a regression harness.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/cluster_tile_array.hpp"
#include "core/tidacc.hpp"
#include "core/world_snapshot.hpp"
#include "kernels/heat.hpp"
#include "sim/snapshot.hpp"
#include "tida/ghost.hpp"

namespace {

using namespace tidacc;

/// Host cost of queueing one unlabelled 1 MiB pinned host→device copy on
/// each route (cuem::Route): Arg 0 raw (cuemMemcpyAsync), 1 a scheduler
/// prefetch, 2 through the link codec.
void BM_EnqueueAsyncCopy(benchmark::State& state) {
  cuem::configure(sim::DeviceConfig::k40m(), /*functional=*/false);
  cuem::platform().trace().set_recording(false);
  void* dev = nullptr;
  void* host = nullptr;
  (void)cuemMalloc(&dev, 1 << 20);
  (void)cuemMallocHost(&host, 1 << 20);
  cuemStream_t s = 0;
  (void)cuemStreamCreate(&s);
  const std::int64_t arg = state.range(0);
  const cuem::Route route =
      arg == 1   ? cuem::Route::prefetch()
      : arg == 2 ? cuem::Route::codec(sim::PayloadKind::kInterior)
                 : cuem::Route::raw();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        arg == 0
            ? cuemMemcpyAsync(dev, host, 1 << 20, cuemMemcpyHostToDevice, s)
            : cuem::memcpy_async(dev, host, 1 << 20, cuemMemcpyHostToDevice,
                                 s, route, std::string()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnqueueAsyncCopy)->Arg(0)->Arg(1)->Arg(2);

void BM_EnqueueKernel(benchmark::State& state) {
  cuem::configure(sim::DeviceConfig::k40m(), /*functional=*/false);
  cuem::platform().trace().set_recording(false);
  cuemStream_t s = 0;
  (void)cuemStreamCreate(&s);
  sim::KernelProfile prof;
  prof.elements = 1 << 20;
  prof.dev_bytes_per_element = 16;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cuem::launch(s, cuem::LaunchGeometry{}, prof, "bm", nullptr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnqueueKernel);

void BM_ExchangePlan(benchmark::State& state) {
  // One periodic plan: 8^3 blocks, Arg regions per dimension, ghost 1; Arg 0
  // is perfbench cluster_overlap's layout, 512^3 in 128 slabs of
  // 512x512x4 under ghost 4 (3,328 copies).
  const int regions_per_dim = static_cast<int>(state.range(0));
  const tida::Partition part =
      regions_per_dim == 0
          ? tida::Partition(tida::Box::cube(512), tida::Index3{512, 512, 4})
          : tida::Partition(tida::Box::cube(regions_per_dim * 8),
                            tida::Index3::uniform(8));
  const int ghost = regions_per_dim == 0 ? 4 : 1;
  std::size_t copies = 0;
  for (auto _ : state) {
    const std::vector<tida::GhostCopy> plan =
        tida::compute_exchange_plan(part, ghost, tida::Boundary::kPeriodic);
    copies = plan.size();
    benchmark::DoNotOptimize(plan.data());
  }
  state.SetItemsProcessed(state.iterations() * part.num_regions());
  state.counters["copies"] = static_cast<double>(copies);
}
BENCHMARK(BM_ExchangePlan)->Arg(0)->Arg(2)->Arg(4)->Arg(8);

void BM_FunctionalHeatStep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<double> u(static_cast<std::size_t>(n) * n * n);
  std::vector<double> un(u.size());
  kernels::heat_init_flat(u.data(), n);
  for (auto _ : state) {
    kernels::heat_step_flat(u.data(), un.data(), n);
    benchmark::DoNotOptimize(un.data());
    u.swap(un);
  }
  state.SetItemsProcessed(state.iterations() * u.size());
}
BENCHMARK(BM_FunctionalHeatStep)->Arg(32)->Arg(64);

void BM_ComputeHeatRegion(benchmark::State& state) {
  // One 128x128x8 region of the functional heat workload: core::compute on
  // a GPU tile runs the kernel body once per cell at launch, reading seven
  // cells and writing one through DeviceView.
  cuem::configure(sim::DeviceConfig::k40m(), /*functional=*/true);
  oacc::reset();
  cuem::platform().trace().set_recording(false);
  const tida::Box domain = tida::Box::from_extents({128, 128, 8});
  core::AccTileArray<double> u(domain, domain.extent(), 1);
  core::AccTileArray<double> un(domain, domain.extent(), 1);
  u.fill([](const tida::Index3& p) {
    return kernels::heat_initial(p.i, p.j, p.k);
  });
  u.fill_boundary(tida::Boundary::kPeriodic);
  core::AccTileIterator<double> it(u);
  it.reset(/*gpu=*/true);
  const core::AccTile<double> in = it.tile();
  const core::AccTile<double> out = it.tile_in(un);
  const oacc::LoopCost cost = kernels::heat_cost();
  for (auto _ : state) {
    core::compute(in, out, cost,
                  [](core::DeviceView<double> us, core::DeviceView<double> uns,
                     int i, int j, int k) {
                    uns(i, j, k) = kernels::heat_point(us, i, j, k);
                  });
    benchmark::DoNotOptimize(un.device_region(0).data);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(domain.volume()));
}
BENCHMARK(BM_ComputeHeatRegion);

void BM_LaunchRegionKernel(benchmark::State& state) {
  // One GPU pass of core::compute over 8 resident slabs, timing-only: the
  // host cost of issuing region kernels (staging hit, event edges, enqueue,
  // claims), with one tile per launch (Arg 1) or an input and an output
  // tile (Arg 2).
  cuem::configure(sim::DeviceConfig::k40m(), /*functional=*/false);
  oacc::reset();
  cuem::platform().trace().set_recording(false);
  const tida::Box domain = tida::Box::cube(32);
  core::AccTileArray<double> u(domain, tida::Index3{32, 32, 4}, 0);
  core::AccTileArray<double> un(domain, tida::Index3{32, 32, 4}, 0);
  u.assume_host_initialized();
  std::vector<core::AccTile<double>> in;
  std::vector<core::AccTile<double>> out;
  core::AccTileIterator<double> it(u);
  for (it.reset(/*gpu=*/true); it.isValid(); it.next()) {
    in.push_back(it.tile());
    out.push_back(it.tile_in(un));
  }
  const oacc::LoopCost cost = kernels::heat_cost();
  const bool two = state.range(0) == 2;
  const auto pass = [&] {
    for (std::size_t t = 0; t < in.size(); ++t) {
      if (two) {
        core::compute(in[t], out[t], cost,
                      [](core::DeviceView<double>, core::DeviceView<double>,
                         int, int, int) {});
      } else {
        core::compute(in[t], cost,
                      [](core::DeviceView<double>, int, int, int) {});
      }
    }
  };
  pass();  // makes every slab resident
  for (auto _ : state) {
    pass();
    benchmark::DoNotOptimize(cuem::platform().now());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(in.size()));
}
BENCHMARK(BM_LaunchRegionKernel)->Arg(1)->Arg(2);

void BM_CopyGhostCells(benchmark::State& state) {
  // Every planned copy into one 128x128x8 slab of a periodic slab
  // decomposition (its face, edge and corner pieces) through
  // tida::copy_ghost_cells, the loop every functional exchange shares.
  cuem::configure(sim::DeviceConfig::k40m(), /*functional=*/true);
  tida::TileArray<double> arr(tida::Box::from_extents({128, 128, 24}),
                              tida::Index3{128, 128, 8}, 1);
  arr.fill([](const tida::Index3& p) {
    return kernels::heat_initial(p.i, p.j, p.k);
  });
  std::vector<tida::GhostCopy> slab;
  std::int64_t cells = 0;
  for (const tida::GhostCopy& c :
       arr.exchange_plan(tida::Boundary::kPeriodic)) {
    if (c.dst_region == 1) {
      slab.push_back(c);
      cells += static_cast<std::int64_t>(c.dst_box.volume());
    }
  }
  for (auto _ : state) {
    for (const tida::GhostCopy& c : slab) {
      tida::copy_ghost_cells(c, arr.region(c.src_region),
                             arr.region(c.dst_region));
    }
    benchmark::DoNotOptimize(arr.region(1).data);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * cells);
  state.counters["copies"] = static_cast<double>(slab.size());
}
BENCHMARK(BM_CopyGhostCells);

void BM_ClusterExchangeBegin(benchmark::State& state) {
  // One split-phase exchange, exchange_begin + exchange_end, on a resident
  // 8-node GPUDirect world, timing-only: the host cost of posting the
  // cross-node wire groups, issuing the intra-node replay kernels and
  // reaping the completions. perfbench cluster_overlap's geometry (slabs
  // as thick as the 4-deep ghost ring, 8 per node) at 256^3.
  constexpr int kNodes = 8;
  cuem::configure(sim::DeviceConfig::k40m(), /*functional=*/false, kNodes,
                  sim::Interconnect::pcie());
  oacc::reset();
  cuem::platform().trace().set_recording(false);
  core::ClusterOptions opts;
  opts.multi.devices = kNodes;
  opts.nodes = kNodes;
  opts.fabric = sim::FabricConfig::infiniband();
  opts.path = core::NetPath::kGpuDirect;
  core::ClusterTileArray<double> u(tida::Box::cube(256),
                                   tida::Index3{256, 256, 4}, 4, opts);
  u.assume_host_initialized();
  for (int r = 0; r < u.num_regions(); ++r) {
    u.acquire_on_device(r);
  }
  u.fill_boundary(tida::Boundary::kPeriodic);  // the one-time build
  for (auto _ : state) {
    u.exchange_begin(tida::Boundary::kPeriodic);
    u.exchange_end();
    benchmark::DoNotOptimize(cuem::platform().now());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClusterExchangeBegin);

void BM_CachingProtocol(benchmark::State& state) {
  // Full acquire round-robin with evictions through 2 slots, timing-only.
  cuem::configure(sim::DeviceConfig::k40m(), /*functional=*/false);
  oacc::reset();
  cuem::platform().trace().set_recording(false);
  core::AccOptions opts;
  opts.max_slots = 2;
  core::AccTileArray<double> arr(tida::Box::cube(64),
                                 tida::Index3{64, 64, 8}, 0, opts);
  arr.assume_host_initialized();
  int r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(arr.acquire_on_device(r));
    r = (r + 1) % arr.num_regions();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CachingProtocol);

void BM_WorldSnapshotRoundTrip(benchmark::State& state) {
  // Capture and restore of a functional mid-run world, the snapshot
  // traffic of the schedule fuzzer: an out-of-core 32^3 array (8 slabs
  // through 3 LRU slots, delta transfers) after one exchange and sweep,
  // its buffers' contents riding in the cuem section.
  cuem::configure(sim::DeviceConfig::k40m(), /*functional=*/true);
  oacc::reset();
  cuem::platform().trace().set_recording(false);
  core::AccOptions opts;
  opts.max_slots = 3;
  opts.slot_policy = core::SlotPolicyKind::kLru;
  opts.delta_transfers = true;
  core::AccTileArray<double> u(tida::Box::cube(32), tida::Index3{32, 32, 4},
                               1, opts);
  u.fill([](const tida::Index3& p) { return 0.5 * p.i - 0.25 * p.k; });
  u.assume_host_initialized();
  u.fill_boundary(tida::Boundary::kPeriodic);
  oacc::LoopCost cost;
  cost.flops_per_iter = 2;
  cost.dev_bytes_per_iter = 16;
  for (int r = 0; r < u.num_regions(); ++r) {
    core::compute_gpu(u, r, cost,
                      [](core::DeviceView<double> v, int i, int j, int k) {
                        v(i, j, k) = 0.5 * (v(i, j, k) + v(i, j, k - 1));
                      });
  }
  std::size_t bytes = 0;
  for (auto _ : state) {
    sim::SnapshotWriter w(bytes);  // the fuzzer's capture reserves the same
    core::world_capture(w);
    u.capture(w);
    const std::vector<std::uint8_t> snap = w.take();
    sim::SnapshotReader r(snap);
    core::world_restore(r);
    u.restore(r);
    benchmark::DoNotOptimize(r.at_end());
    bytes = snap.size();
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_WorldSnapshotRoundTrip);

void BM_HostGhostExchange(benchmark::State& state) {
  cuem::configure(sim::DeviceConfig::k40m(), /*functional=*/true);
  tida::TileArray<double> arr(tida::Box::cube(static_cast<int>(state.range(0))),
                              tida::Index3::uniform(
                                  static_cast<int>(state.range(0)) / 2),
                              1);
  arr.fill([](const tida::Index3&) { return 1.0; });
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        arr.fill_boundary_host(tida::Boundary::kPeriodic));
  }
}
BENCHMARK(BM_HostGhostExchange)->Arg(32)->Arg(64);

}  // namespace

BENCHMARK_MAIN();

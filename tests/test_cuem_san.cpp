// Tests for cuem::san, the compute-sanitizer analogue: every defect class
// the checker knows is injected deliberately and must surface as exactly
// its named finding in the JSON report; representative clean workloads
// (tiled heat with ghost exchange, out-of-core eviction, prefetch) must
// produce zero errors and zero warnings.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/inject.hpp"
#include "common/units.hpp"
#include "core/tidacc.hpp"
#include "cuem/cuem.hpp"
#include "cuem/san.hpp"
#include "sim/op_graph.hpp"
#include "snapshot_probe.hpp"

#ifndef TIDACC_CUEM_SANITIZER

// The suite carries the `san` ctest label; in a build without the checker
// compiled in there is nothing to exercise.
TEST(CuemSanTest, RequiresSanitizerBuild) {
  GTEST_SKIP() << "built without TIDACC_CUEM_SANITIZER";
}

#else

namespace tidacc {
namespace {

using core::AccOptions;
using core::AccTileArray;
using core::AccTileIterator;
using core::compute;
using core::DeviceView;
using oacc::LoopCost;
using sim::DeviceConfig;
using sim::Interconnect;
using tida::Boundary;
using tida::Box;
using tida::Index3;

DeviceConfig test_config() {
  DeviceConfig cfg = DeviceConfig::k40m();
  cfg.transfer_latency_ns = 0;
  cfg.pageable_staging_ns = 0;
  cfg.kernel_launch_ns = 0;
  cfg.host_api_overhead_ns = 0;
  cfg.sync_overhead_ns = 0;
  cfg.oacc_dispatch_extra_ns = 0;
  return cfg;
}

/// Collect-mode fixture: findings are inspected, never fatal (the CI runs
/// this suite with TIDACC_CUEM_SAN=fatal in the environment, which the
/// explicit configure overrides — injected defects must not abort).
class CuemSanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cuem::configure(test_config(), /*functional=*/true);
    oacc::reset();
    cuem::CuemSanOptions opts;
    opts.enabled = true;
    opts.fatal = false;
    cuem::san::configure(opts);
  }
  void TearDown() override {
    cuem::san::configure(cuem::CuemSanOptions{});  // disabled, state cleared
    cuem::configure(DeviceConfig::k40m(), true);
  }
};

bool json_names(const std::string& kind) {
  return cuem::san::report_json().find("\"kind\": \"" + kind + "\"") !=
         std::string::npos;
}

// --- memcheck defect injections ---

TEST_F(CuemSanTest, OobCopyIsNamedInJson) {
  void* d = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 64), cuemSuccess);
  std::vector<char> host(128, 0);
  // 128 bytes into a 64-byte allocation: flagged and suppressed.
  EXPECT_NE(cuemMemcpy(d, host.data(), 128, cuemMemcpyHostToDevice),
            cuemSuccess);
  EXPECT_TRUE(json_names("oob_copy"));
  EXPECT_EQ(cuem::san::count(cuem::san::Severity::kError), 1u);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
}

TEST_F(CuemSanTest, OobFindingReportsAnnotationLabel) {
  void* d = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 64), cuemSuccess);
  ASSERT_EQ(cuemSanAnnotate(d, "lhs-tile"), cuemSuccess);
  std::vector<char> host(128, 0);
  EXPECT_NE(cuemMemcpy(d, host.data(), 128, cuemMemcpyHostToDevice),
            cuemSuccess);
  EXPECT_NE(cuem::san::report_json().find("lhs-tile"), std::string::npos);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
}

TEST_F(CuemSanTest, UseAfterFreeIsNamedInJson) {
  void* d = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 64), cuemSuccess);
  ASSERT_EQ(cuemFree(d), cuemSuccess);
  std::vector<char> host(64, 0);
  EXPECT_NE(cuemMemcpy(d, host.data(), 64, cuemMemcpyHostToDevice),
            cuemSuccess);
  EXPECT_TRUE(json_names("use_after_free"));
}

TEST_F(CuemSanTest, DoubleFreeIsNamedInJson) {
  void* d = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 64), cuemSuccess);
  ASSERT_EQ(cuemFree(d), cuemSuccess);
  EXPECT_NE(cuemFree(d), cuemSuccess);
  EXPECT_TRUE(json_names("double_free"));
  EXPECT_FALSE(json_names("invalid_free"));
}

TEST_F(CuemSanTest, InvalidFreeIsNamedInJson) {
  int x = 0;
  EXPECT_NE(cuemFree(&x), cuemSuccess);
  EXPECT_TRUE(json_names("invalid_free"));
}

TEST_F(CuemSanTest, LeaksAtDeviceResetAreNamedInJson) {
  void* d = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 1024), cuemSuccess);
  cuemStream_t s = 0;
  ASSERT_EQ(cuemStreamCreate(&s), cuemSuccess);
  ASSERT_EQ(cuemDeviceReset(), cuemSuccess);
  EXPECT_TRUE(json_names("leak_allocation"));
  EXPECT_TRUE(json_names("leak_stream"));
  EXPECT_GE(cuem::san::count(cuem::san::Severity::kWarning), 2u);
}

TEST_F(CuemSanTest, LabelledCopiesNameTheirOpOnEveryRoute) {
  void* d = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 64), cuemSuccess);
  void* h = nullptr;
  ASSERT_EQ(cuemMallocHost(&h, 128), cuemSuccess);
  const auto named = [](const std::string& op) {
    return cuem::san::report_json().find("\"op\": \"" + op + "\"") !=
           std::string::npos;
  };
  // 128 bytes into a 64-byte allocation on each route: every finding
  // names the copy by its label, an unlabelled one by its C call.
  const std::pair<cuem::Route, std::string> copies[] = {
      {cuem::Route::raw(), "desc:D0"},
      {cuem::Route::prefetch(), "P:R3"},
      {cuem::Route::codec(sim::PayloadKind::kInterior), "zH2D:R5"},
      {cuem::Route::raw(), ""}};
  for (const auto& [route, label] : copies) {
    EXPECT_EQ(cuem::memcpy_async(d, h, 128, cuemMemcpyHostToDevice, 0, route,
                                 label),
              cuemErrorInvalidValue);
    EXPECT_TRUE(named(label.empty() ? "cuemMemcpyAsync" : label)) << label;
  }
  // A pageable prefetch hits the pageable note under its label too.
  std::vector<char> pageable(64, 0);
  ASSERT_EQ(cuem::memcpy_async(d, pageable.data(), 64,
                               cuemMemcpyHostToDevice, 0,
                               cuem::Route::prefetch(), "P:R7"),
            cuemSuccess);
  ASSERT_EQ(cuemDeviceSynchronize(), cuemSuccess);
  EXPECT_TRUE(json_names("pageable_async"));
  EXPECT_TRUE(named("P:R7"));
  EXPECT_EQ(cuemFree(d), cuemSuccess);
  EXPECT_EQ(cuemFreeHost(h), cuemSuccess);
}

TEST_F(CuemSanTest, PageableAsyncCopyIsInfoOnly) {
  void* d = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 4096), cuemSuccess);
  std::vector<char> pageable(4096, 0);  // never registered with the runtime
  ASSERT_EQ(cuemMemcpyAsync(d, pageable.data(), 4096,
                            cuemMemcpyHostToDevice, 0),
            cuemSuccess);
  ASSERT_EQ(cuemDeviceSynchronize(), cuemSuccess);
  EXPECT_TRUE(json_names("pageable_async"));
  EXPECT_TRUE(cuem::san::clean());  // info findings do not taint a run
  EXPECT_EQ(cuemFree(d), cuemSuccess);
}

TEST_F(CuemSanTest, PeerCopyWithoutAccessIsInfoOnly) {
  cuem::configure(test_config(), /*functional=*/true, /*num_devices=*/2,
                  Interconnect::pcie());
  void* d0 = nullptr;
  ASSERT_EQ(cuemSetDevice(0), cuemSuccess);
  ASSERT_EQ(cuemMalloc(&d0, 4096), cuemSuccess);
  void* d1 = nullptr;
  ASSERT_EQ(cuemSetDevice(1), cuemSuccess);
  ASSERT_EQ(cuemMalloc(&d1, 4096), cuemSuccess);
  // Peer access never enabled: the copy is staged through the host.
  ASSERT_EQ(cuemMemcpyPeer(d1, 1, d0, 0, 4096), cuemSuccess);
  EXPECT_TRUE(json_names("peer_staged"));
  EXPECT_TRUE(cuem::san::clean());
  EXPECT_EQ(cuemFree(d1), cuemSuccess);
  ASSERT_EQ(cuemSetDevice(0), cuemSuccess);
  EXPECT_EQ(cuemFree(d0), cuemSuccess);
}

TEST_F(CuemSanTest, StreamDestroyWithPendingWorkWarns) {
  cuemStream_t s = 0;
  ASSERT_EQ(cuemStreamCreate(&s), cuemSuccess);
  void* d = nullptr;
  void* h = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 105'000'000), cuemSuccess);
  ASSERT_EQ(cuemMallocHost(&h, 105'000'000), cuemSuccess);
  ASSERT_EQ(cuemMemcpyAsync(d, h, 105'000'000, cuemMemcpyHostToDevice, s),
            cuemSuccess);
  ASSERT_EQ(cuemStreamDestroy(s), cuemSuccess);  // drains, but warns
  EXPECT_TRUE(json_names("stream_destroy_pending"));
  EXPECT_EQ(cuem::san::count(cuem::san::Severity::kWarning), 1u);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
  EXPECT_EQ(cuemFreeHost(h), cuemSuccess);
}

// --- racecheck defect injections ---

TEST_F(CuemSanTest, UnsyncedCrossStreamWritesAreARace) {
  cuemStream_t s1 = 0, s2 = 0;
  ASSERT_EQ(cuemStreamCreate(&s1), cuemSuccess);
  ASSERT_EQ(cuemStreamCreate(&s2), cuemSuccess);
  void* d = nullptr;
  void* h = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 4096), cuemSuccess);
  ASSERT_EQ(cuemMallocHost(&h, 4096), cuemSuccess);
  // Two writes into the same device range from different streams with no
  // event or sync between them: unordered under happens-before.
  ASSERT_EQ(cuemMemcpyAsync(d, h, 4096, cuemMemcpyHostToDevice, s1),
            cuemSuccess);
  ASSERT_EQ(cuemMemcpyAsync(d, h, 4096, cuemMemcpyHostToDevice, s2),
            cuemSuccess);
  EXPECT_TRUE(json_names("race"));
  EXPECT_GE(cuem::san::count(cuem::san::Severity::kError), 1u);
  ASSERT_EQ(cuemDeviceSynchronize(), cuemSuccess);
  EXPECT_EQ(cuemStreamDestroy(s1), cuemSuccess);
  EXPECT_EQ(cuemStreamDestroy(s2), cuemSuccess);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
  EXPECT_EQ(cuemFreeHost(h), cuemSuccess);
}

TEST_F(CuemSanTest, EventEdgeOrdersCrossStreamWrites) {
  cuemStream_t s1 = 0, s2 = 0;
  ASSERT_EQ(cuemStreamCreate(&s1), cuemSuccess);
  ASSERT_EQ(cuemStreamCreate(&s2), cuemSuccess);
  void* d = nullptr;
  void* h = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 4096), cuemSuccess);
  ASSERT_EQ(cuemMallocHost(&h, 4096), cuemSuccess);
  ASSERT_EQ(cuemMemcpyAsync(d, h, 4096, cuemMemcpyHostToDevice, s1),
            cuemSuccess);
  // The same pair as above, but with the closing event edge: no race.
  cuemEvent_t e = 0;
  ASSERT_EQ(cuemEventCreate(&e), cuemSuccess);
  ASSERT_EQ(cuemEventRecord(e, s1), cuemSuccess);
  ASSERT_EQ(cuemStreamWaitEvent(s2, e, 0), cuemSuccess);
  ASSERT_EQ(cuemMemcpyAsync(d, h, 4096, cuemMemcpyHostToDevice, s2),
            cuemSuccess);
  EXPECT_FALSE(json_names("race"));
  EXPECT_TRUE(cuem::san::clean());
  ASSERT_EQ(cuemDeviceSynchronize(), cuemSuccess);
  EXPECT_EQ(cuemEventDestroy(e), cuemSuccess);
  EXPECT_EQ(cuemStreamDestroy(s1), cuemSuccess);
  EXPECT_EQ(cuemStreamDestroy(s2), cuemSuccess);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
  EXPECT_EQ(cuemFreeHost(h), cuemSuccess);
}

TEST_F(CuemSanTest, BoxesOnOneGridRaceOnlyWhereTheyMeet) {
  // A 130x130x10 slot grid of doubles: a ghost column (one cell wide, all
  // rows and slices) written on one stream while another stream reads an
  // interior plane, then a column that does cross that plane. Too many row
  // pairs to enumerate, so only the exact grid test tells them apart.
  constexpr std::size_t kRow = 130 * sizeof(double);
  constexpr std::size_t kSlice = 130 * kRow;
  cuemStream_t s1 = 0, s2 = 0;
  ASSERT_EQ(cuemStreamCreate(&s1), cuemSuccess);
  ASSERT_EQ(cuemStreamCreate(&s2), cuemSuccess);
  void* d = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 10 * kSlice), cuemSuccess);
  const auto box = [](std::size_t slice, std::size_t row, std::size_t col,
                      std::size_t width, std::size_t height,
                      std::size_t depth) {
    sim::ByteBox b;
    b.offset = slice * kSlice + row * kRow + col * sizeof(double);
    b.width = width * sizeof(double);
    b.height = height;
    b.depth = depth;
    b.row_pitch = kRow;
    b.slice_pitch = kSlice;
    return b;
  };
  const auto kernel = [d](cuemStream_t s, const sim::ByteBox& b,
                          bool write) {
    sim::KernelProfile prof;
    prof.elements = 1;
    ASSERT_EQ(cuem::launch(s, cuem::LaunchGeometry{}, prof, "k", nullptr),
              cuemSuccess);
    cuem::claim(s, d, b, write ? cuem::Role::kWrite : cuem::Role::kRead,
                "k");
  };
  // Interior plane (slice 1, rows/cols 1..128) vs the column at col 0.
  kernel(s1, box(1, 1, 1, 128, 128, 1), /*write=*/false);
  kernel(s2, box(0, 0, 0, 1, 130, 10), /*write=*/true);
  EXPECT_TRUE(cuem::san::clean());
  // A column at col 5 crosses the plane.
  kernel(s2, box(0, 0, 5, 1, 130, 10), /*write=*/true);
  EXPECT_TRUE(json_names("race"));
  ASSERT_EQ(cuemDeviceSynchronize(), cuemSuccess);
  EXPECT_EQ(cuemStreamDestroy(s1), cuemSuccess);
  EXPECT_EQ(cuemStreamDestroy(s2), cuemSuccess);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
}

TEST_F(CuemSanTest, HostAccessRacesInFlightDeviceToHostCopy) {
  cuemStream_t s = 0;
  ASSERT_EQ(cuemStreamCreate(&s), cuemSuccess);
  void* d = nullptr;
  void* h = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 105'000'000), cuemSuccess);
  ASSERT_EQ(cuemMallocHost(&h, 105'000'000), cuemSuccess);
  ASSERT_EQ(cuemMemcpyAsync(h, d, 105'000'000, cuemMemcpyDeviceToHost, s),
            cuemSuccess);
  // The D2H is still writing the pinned buffer when the host reads it.
  cuem::claim(-1, h, sim::ByteBox::span(0, 4096), cuem::Role::kRead,
              "test host read");
  EXPECT_TRUE(json_names("race"));
  ASSERT_EQ(cuemStreamSynchronize(s), cuemSuccess);
  EXPECT_EQ(cuemStreamDestroy(s), cuemSuccess);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
  EXPECT_EQ(cuemFreeHost(h), cuemSuccess);
}

TEST_F(CuemSanTest, SyncedHostAccessIsNotARace) {
  cuemStream_t s = 0;
  ASSERT_EQ(cuemStreamCreate(&s), cuemSuccess);
  void* d = nullptr;
  void* h = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 4096), cuemSuccess);
  ASSERT_EQ(cuemMallocHost(&h, 4096), cuemSuccess);
  ASSERT_EQ(cuemMemcpyAsync(h, d, 4096, cuemMemcpyDeviceToHost, s),
            cuemSuccess);
  ASSERT_EQ(cuemStreamSynchronize(s), cuemSuccess);
  cuem::claim(-1, h, sim::ByteBox::span(0, 4096), cuem::Role::kRead,
              "test host read");
  EXPECT_FALSE(json_names("race"));
  EXPECT_TRUE(cuem::san::clean());
  EXPECT_EQ(cuemStreamDestroy(s), cuemSuccess);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
  EXPECT_EQ(cuemFreeHost(h), cuemSuccess);
}

// --- kernel claims by role ---

/// Launches compute_gpu(in, out) on a resident region, then copies its
/// input slot on another stream with no event between the two: into the
/// slot when `probe_writes`, out of it otherwise.
void probe_compute_gpu_input(bool probe_writes) {
  AccTileArray<double> in(Box::cube(8), Index3::uniform(8), 1);
  AccTileArray<double> out(Box::cube(8), Index3::uniform(8), 1);
  in.fill([](const Index3& p) { return 1.0 * p.i; });
  in.acquire_on_device(0);
  out.acquire_on_device(0);
  ASSERT_EQ(cuemDeviceSynchronize(), cuemSuccess);  // the uploads are done
  core::compute_gpu(in, out, 0, LoopCost{},
                    [](DeviceView<double> vi, DeviceView<double> vo, int i,
                       int j, int k) { vo(i, j, k) = vi(i, j, k); });
  cuemStream_t s = 0;
  ASSERT_EQ(cuemStreamCreate(&s), cuemSuccess);
  const std::size_t bytes = in.region_bytes(0);
  void* h = nullptr;
  ASSERT_EQ(cuemMallocHost(&h, bytes), cuemSuccess);
  double* slot = in.device_region(0).data;
  if (probe_writes) {
    ASSERT_EQ(cuemMemcpyAsync(slot, h, bytes, cuemMemcpyHostToDevice, s),
              cuemSuccess);
  } else {
    ASSERT_EQ(cuemMemcpyAsync(h, slot, bytes, cuemMemcpyDeviceToHost, s),
              cuemSuccess);
  }
  ASSERT_EQ(cuemDeviceSynchronize(), cuemSuccess);
  EXPECT_EQ(cuemStreamDestroy(s), cuemSuccess);
  EXPECT_EQ(cuemFreeHost(h), cuemSuccess);
}

TEST_F(CuemSanTest, UnorderedWriteIntoComputeGpuInputIsARace) {
  probe_compute_gpu_input(/*probe_writes=*/true);
  EXPECT_TRUE(json_names("race")) << cuem::san::report_json();
}

TEST_F(CuemSanTest, UnorderedReadOfComputeGpuInputIsNotARace) {
  // The kernel only reads its input, and two reads never race.
  probe_compute_gpu_input(/*probe_writes=*/false);
  EXPECT_FALSE(json_names("race")) << cuem::san::report_json();
  EXPECT_TRUE(cuem::san::clean());
}

TEST_F(CuemSanTest, ComputeKFindingsNameTheSubStep) {
  AccOptions opts;
  opts.time_block_k = 2;
  AccTileArray<double> u(Box::cube(8), Index3::uniform(8), 2, opts);
  u.fill([](const Index3& p) { return 1.0 * p.j; });
  u.fill_boundary(Boundary::kPeriodic);
  u.acquire_on_device(0);
  ASSERT_EQ(cuemDeviceSynchronize(), cuemSuccess);
  core::compute_k(u, 0, /*k=*/2, /*radius=*/1, LoopCost{},
                  [](DeviceView<double> in, DeviceView<double> out, int i,
                     int j, int k) { out(i, j, k) = in(i, j, k); });
  cuemStream_t s = 0;
  ASSERT_EQ(cuemStreamCreate(&s), cuemSuccess);
  const std::size_t bytes = u.region_bytes(0);
  void* h = nullptr;
  ASSERT_EQ(cuemMallocHost(&h, bytes), cuemSuccess);
  ASSERT_EQ(cuemMemcpyAsync(u.device_region(0).data, h, bytes,
                            cuemMemcpyHostToDevice, s),
            cuemSuccess);
  const std::string report = cuem::san::report_json();
  EXPECT_TRUE(json_names("race")) << report;
  EXPECT_NE(report.find("Ck:R0#"), std::string::npos) << report;
  ASSERT_EQ(cuemDeviceSynchronize(), cuemSuccess);
  EXPECT_EQ(cuemStreamDestroy(s), cuemSuccess);
  EXPECT_EQ(cuemFreeHost(h), cuemSuccess);
}

// --- clean workloads: the protocol layer must produce zero findings ---

/// One tiled periodic heat step per round on the GPU path, double-buffered,
/// exercising fill/fill_boundary/compute/release_all — with max_slots small
/// enough to force out-of-core eviction when requested.
void run_heat_workload(int n, int region, int max_slots, int steps) {
  AccOptions opts;
  opts.max_slots = max_slots;
  AccTileArray<double> u(Box::cube(n), Index3::uniform(region), 1, opts);
  AccTileArray<double> un(Box::cube(n), Index3::uniform(region), 1, opts);
  u.fill([](const Index3& p) {
    return std::sin(0.1 * p.i) + 0.5 * std::cos(0.2 * p.j) + 0.01 * p.k;
  });
  LoopCost cost;
  cost.flops_per_iter = 8;
  cost.dev_bytes_per_iter = 16;
  AccTileIterator<double> it(u);
  AccTileArray<double>* src = &u;
  AccTileArray<double>* dst = &un;
  for (int s = 0; s < steps; ++s) {
    src->fill_boundary(Boundary::kPeriodic);
    for (it.reset(/*gpu=*/true); it.isValid(); it.next()) {
      compute(it.tile_in(*src), it.tile_in(*dst), cost,
              [](DeviceView<double> us, DeviceView<double> uns, int i, int j,
                 int k) {
                uns(i, j, k) =
                    us(i, j, k) +
                    0.1 * (us(i - 1, j, k) + us(i + 1, j, k) +
                           us(i, j - 1, k) + us(i, j + 1, k) +
                           us(i, j, k - 1) + us(i, j, k + 1) -
                           6.0 * us(i, j, k));
              });
    }
    std::swap(src, dst);
  }
  src->release_all_to_host();
}

TEST_F(CuemSanTest, TiledHeatWorkloadIsClean) {
  run_heat_workload(/*n=*/8, /*region=*/4, /*max_slots=*/16, /*steps=*/3);
  EXPECT_TRUE(cuem::san::clean())
      << "unexpected findings:\n" << cuem::san::report_json();
  EXPECT_EQ(cuem::san::count(cuem::san::Severity::kError), 0u);
  EXPECT_EQ(cuem::san::count(cuem::san::Severity::kWarning), 0u);
}

TEST_F(CuemSanTest, OutOfCoreEvictionWorkloadIsClean) {
  // Two slots for eight regions per array: every acquire evicts.
  run_heat_workload(/*n=*/8, /*region=*/4, /*max_slots=*/2, /*steps=*/3);
  EXPECT_TRUE(cuem::san::clean())
      << "unexpected findings:\n" << cuem::san::report_json();
}

TEST_F(CuemSanTest, CompressedEvictionWorkloadIsClean) {
  // Same eviction-heavy workload through the link codec: compressed copy
  // kinds carry the same happens-before edges and byte ranges as the raw
  // ones, so the memcheck and racecheck must stay silent.
  AccOptions opts;
  opts.max_slots = 2;
  opts.delta_transfers = true;
  opts.compression = core::Compression::kOn;
  AccTileArray<double> u(Box::cube(8), Index3::uniform(4), 1, opts);
  u.fill([](const Index3& p) {
    return std::sin(0.1 * p.i) + 0.5 * std::cos(0.2 * p.j) + 0.01 * p.k;
  });
  LoopCost cost;
  cost.flops_per_iter = 8;
  cost.dev_bytes_per_iter = 16;
  for (int s = 0; s < 3; ++s) {
    u.fill_boundary(Boundary::kPeriodic);
    for (int r = 0; r < u.num_regions(); ++r) {
      const tida::Region<double> reg = u.region(r);
      const core::AccTile<double> tile{
          &u, tida::Tile<double>{reg, reg.valid}, /*gpu=*/true};
      compute(tile, cost,
              [](DeviceView<double> v, int i, int j, int k) {
                v(i, j, k) = 0.5 * v(i, j, k) +
                             0.125 * (v(i - 1, j, k) + v(i + 1, j, k) +
                                      v(i, j - 1, k) + v(i, j + 1, k));
              });
    }
  }
  u.release_all_to_host();
  EXPECT_TRUE(cuem::san::clean())
      << "unexpected findings:\n" << cuem::san::report_json();
  EXPECT_EQ(cuem::san::count(cuem::san::Severity::kError), 0u);
  EXPECT_EQ(cuem::san::count(cuem::san::Severity::kWarning), 0u);
}

TEST_F(CuemSanTest, PrefetchAndHostTouchWorkloadIsClean) {
  AccTileArray<double> arr(Box::cube(8), Index3::uniform(4), 0);
  arr.fill([](const Index3& p) { return 1.0 * p.i; });
  for (int r = 0; r < arr.num_regions(); ++r) {
    (void)arr.prefetch_to_device(r);
  }
  for (int r = 0; r < arr.num_regions(); ++r) {
    (void)arr.acquire_on_device(r);
  }
  arr.release_all_to_host();
  // Host write-through after the batched release: pending transfers must
  // have been waited for (the at() protocol).
  arr.at({0, 0, 0}) = 42.0;
  EXPECT_TRUE(cuem::san::clean())
      << "unexpected findings:\n" << cuem::san::report_json();
}

/// k-step temporal blocking: each sub-step reads one slot buffer and
/// writes its scratch twin, swapping after; all on the slot's stream, so
/// the racecheck must see only stream-ordered accesses — in core and under
/// eviction pressure (the swapped buffer is what gets drained).
void run_blocked_workload(int n, int region, int max_slots, int steps,
                          int k) {
  AccOptions opts;
  opts.max_slots = max_slots;
  opts.delta_transfers = true;
  opts.time_block_k = k;
  AccTileArray<double> u(Box::cube(n), Index3::uniform(region), k, opts);
  u.fill([](const Index3& p) {
    return std::sin(0.1 * p.i) + 0.5 * std::cos(0.2 * p.j) + 0.01 * p.k;
  });
  LoopCost cost;
  cost.flops_per_iter = 8;
  cost.dev_bytes_per_iter = 16;
  for (int s = 0; s < steps; s += k) {
    u.fill_boundary(Boundary::kPeriodic);
    for (int r = 0; r < u.num_regions(); ++r) {
      core::compute_k(u, r, k, /*radius=*/1, cost,
                      [](DeviceView<double> in, DeviceView<double> out,
                         int i, int j, int kk) {
                        out(i, j, kk) =
                            in(i, j, kk) +
                            0.1 * (in(i - 1, j, kk) + in(i + 1, j, kk) +
                                   in(i, j - 1, kk) + in(i, j + 1, kk) -
                                   4.0 * in(i, j, kk));
                      });
    }
  }
  u.release_all_to_host();
}

TEST_F(CuemSanTest, TemporalBlockingDoubleBufferIsClean) {
  run_blocked_workload(/*n=*/8, /*region=*/4, /*max_slots=*/16, /*steps=*/4,
                       /*k=*/2);
  EXPECT_TRUE(cuem::san::clean())
      << "unexpected findings:\n" << cuem::san::report_json();
  EXPECT_EQ(cuem::san::count(cuem::san::Severity::kError), 0u);
  EXPECT_EQ(cuem::san::count(cuem::san::Severity::kWarning), 0u);
}

TEST_F(CuemSanTest, TemporalBlockingEvictionIsClean) {
  // Two slots for eight regions: every block ends in an eviction of the
  // swapped (scratch-parity) buffer.
  run_blocked_workload(/*n=*/8, /*region=*/4, /*max_slots=*/2, /*steps=*/4,
                       /*k=*/2);
  EXPECT_TRUE(cuem::san::clean())
      << "unexpected findings:\n" << cuem::san::report_json();
}

/// The pipelined streaming exchange out of core: one slot fewer than
/// regions on every device, so each exchange pulls the resident regions'
/// face shells, refreshes the ghosts one destination group at a time and
/// pushes each ring while later groups' pulls are still landing — and the
/// evicted region's group waits on its eviction stream.
void sweep_region(AccTileArray<double>& u, int r, const LoopCost& cost) {
  const tida::Region<double> reg = u.region(r);
  const core::AccTile<double> tile{&u, tida::Tile<double>{reg, reg.valid},
                                   /*gpu=*/true};
  compute(tile, cost, [](DeviceView<double> v, int i, int j, int k) {
    v(i, j, k) = 0.5 * v(i, j, k) +
                 0.125 * (v(i, j, k - 1) + v(i, j, k + 1) + v(i - 1, j, k) +
                          v(i, j + 1, k));
  });
}

void sweep_region(core::MultiAccTileArray<double>& u, int r,
                  const LoopCost& cost) {
  core::compute_gpu(u, r, cost, [](DeviceView<double> v, int i, int j, int k) {
    v(i, j, k) = 0.5 * v(i, j, k) +
                 0.125 * (v(i, j, k - 1) + v(i, j, k + 1) + v(i - 1, j, k) +
                          v(i, j + 1, k));
  });
}

template <typename Array, typename Options>
void run_streaming_workload(Options opts) {
  opts.delta_transfers = true;
  opts.streaming_guard = core::StreamingGuard::kForceStreaming;
  Array u(Box::cube(12), Index3{12, 12, 2}, 1, opts);
  u.fill([](const Index3& p) {
    return std::sin(0.1 * p.i) + 0.5 * std::cos(0.2 * p.j) + 0.01 * p.k;
  });
  LoopCost cost;
  cost.flops_per_iter = 8;
  cost.dev_bytes_per_iter = 16;
  for (int s = 0; s < 3; ++s) {
    u.fill_boundary(Boundary::kPeriodic);
    for (int r = 0; r < u.num_regions(); ++r) {
      sweep_region(u, r, cost);
    }
  }
  EXPECT_EQ(u.streaming_exchanges(), 2u);
  u.release_all_to_host();
}

TEST_F(CuemSanTest, StreamingExchangeOneDeviceIsClean) {
  AccOptions opts;
  opts.max_slots = 5;  // 6 regions
  run_streaming_workload<AccTileArray<double>>(opts);
  EXPECT_TRUE(cuem::san::clean())
      << "unexpected findings:\n" << cuem::san::report_json();
  EXPECT_EQ(cuem::san::count(cuem::san::Severity::kWarning), 0u);
}

TEST_F(CuemSanTest, StreamingExchangeTwoDevicesIsClean) {
  cuem::configure(test_config(), /*functional=*/true, /*num_devices=*/2,
                  Interconnect::pcie());
  oacc::reset();
  core::MultiAccOptions opts;
  opts.devices = 2;
  opts.max_slots = 2;  // 3 regions per device
  run_streaming_workload<core::MultiAccTileArray<double>>(opts);
  EXPECT_TRUE(cuem::san::clean())
      << "unexpected findings:\n" << cuem::san::report_json();
  EXPECT_EQ(cuem::san::count(cuem::san::Severity::kWarning), 0u);
}

TEST_F(CuemSanTest, BackToBackStreamingExchangesOrderTheHostGhostWrites) {
  // Two streaming exchanges with no sweep between them: the second one's
  // host writes the ghost boxes of resident regions 1 and 5 while the
  // first one's pushes may still be reading them. The host waits on each
  // destination's last push first, so the run is clean. With the wait
  // skipped (TIDACC_TEST_INJECT=ghost_push_race, ctest
  // san_detects_ghost_push_race) the sanitizer names the race.
  AccOptions opts;
  opts.max_slots = 5;  // 6 regions: 0 and 5 share slot 0
  opts.delta_transfers = true;
  opts.streaming_guard = core::StreamingGuard::kForceStreaming;
  AccTileArray<double> u(Box::cube(12), Index3{12, 12, 2}, 1, opts);
  u.fill([](const Index3& p) { return 0.5 * p.i + 0.25 * p.j + p.k; });
  LoopCost cost;
  cost.flops_per_iter = 8;
  cost.dev_bytes_per_iter = 16;
  u.fill_boundary(Boundary::kPeriodic);
  for (int r = 0; r < u.num_regions(); ++r) {
    sweep_region(u, r, cost);
  }
  u.fill_boundary(Boundary::kPeriodic);
  u.fill_boundary(Boundary::kPeriodic);
  EXPECT_EQ(u.streaming_exchanges(), 2u);
  u.release_all_to_host();
  if (!injected("ghost_push_race")) {
    EXPECT_TRUE(cuem::san::clean())
        << "unexpected findings:\n" << cuem::san::report_json();
    return;
  }
  bool found = false;
  for (const cuem::san::Finding& f : cuem::san::findings()) {
    found = found || (f.kind == cuem::san::FindingKind::kRace &&
                      f.op == "streaming_exchange" &&
                      f.message.find("dH2D:R") != std::string::npos);
  }
  EXPECT_TRUE(found) << "no push/host race:\n" << cuem::san::report_json();
}

TEST_F(CuemSanTest, ArraysSharingALayoutAreClean) {
  // Two arrays on one layout over two devices: the first array's exchange
  // uploads the layout's descriptors on each device's exchange stream, the
  // second array's first exchange replays them there. Both stay clean, and
  // the leak sweep finds nothing once the last array freed the shared
  // buffers.
  cuem::configure(test_config(), /*functional=*/true, /*num_devices=*/2,
                  Interconnect::pcie());
  oacc::reset();
  {
    core::MultiAccOptions opts;
    opts.devices = 2;
    core::MultiAccTileArray<double> u(Box::cube(12), Index3{12, 12, 2}, 1,
                                      opts);
    core::MultiAccTileArray<double> v(Box::cube(12), Index3{12, 12, 2}, 1,
                                      opts);
    u.fill([](const Index3& p) { return std::sin(0.1 * p.i) + 0.01 * p.k; });
    v.fill([](const Index3& p) { return std::cos(0.2 * p.j) - 0.5 * p.i; });
    LoopCost cost;
    cost.flops_per_iter = 8;
    cost.dev_bytes_per_iter = 16;
    for (int s = 0; s < 2; ++s) {
      for (core::MultiAccTileArray<double>* a : {&u, &v}) {
        for (int r = 0; r < a->num_regions(); ++r) {
          sweep_region(*a, r, cost);
        }
        a->fill_boundary(Boundary::kPeriodic);
      }
    }
    EXPECT_EQ(u.device_ghost_updates(), 4u);
    EXPECT_EQ(v.device_ghost_updates(), 4u);
    u.release_all_to_host();
    v.release_all_to_host();
  }
  oacc::release_queues();
  ASSERT_EQ(cuemDeviceReset(), cuemSuccess);
  EXPECT_TRUE(cuem::san::clean())
      << "unexpected findings:\n" << cuem::san::report_json();
  EXPECT_FALSE(json_names("leak_allocation")) << cuem::san::report_json();
}

TEST_F(CuemSanTest, StaticMhpAgreesWithDynamicRacecheck) {
  // The schedule analyzer's static may-happen-in-parallel relation
  // (op-graph reachability, engine edges excluded) must coincide with the
  // dynamic vector clocks the racecheck maintains — on a workload with
  // cross-stream event edges, eviction D2H traffic and host joins.
  sim::OpGraph g;
  cuem::platform().set_op_graph(&g);
  run_heat_workload(/*n=*/8, /*region=*/4, /*max_slots=*/2, /*steps=*/3);
  cuem::platform().set_op_graph(nullptr);
  EXPECT_TRUE(cuem::san::clean())
      << "unexpected findings:\n" << cuem::san::report_json();
  ASSERT_TRUE(g.mhp_checkable());
  const std::vector<sim::MhpMismatch> mm = g.mhp_crosscheck();
  EXPECT_TRUE(mm.empty()) << mm.size() << " static/dynamic MHP mismatches, "
                          << "first: nodes " << mm[0].a << " and " << mm[0].b;
  EXPECT_TRUE(g.find_cycle().empty());
  EXPECT_TRUE(g.deadlock_cycle().empty());
}

TEST_F(CuemSanTest, JsonReportIsWellFormedOnCleanRun) {
  const std::string json = cuem::san::report_json();
  EXPECT_NE(json.find("\"sanitizer\": \"cuem-san\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"findings\": []"), std::string::npos);
}

// The sanitizer-on twin of WorldSnapshot.TimingWorldBytesArePinned: the
// shadow allocation map, access histories and options ride in the
// snapshot, so their encoding is pinned too.
TEST(CuemSanSnapshot, SanitizerWorldBytesArePinned) {
  cuem::CuemSanOptions opts;
  opts.enabled = true;
  opts.memcheck = true;
  opts.racecheck = true;
  opts.fatal = false;
  opts.max_findings = 256;
  opts.json_path.clear();
  const std::vector<std::uint8_t> bytes = snapshot_probe::world_bytes(opts);
  cuem::san::configure(cuem::CuemSanOptions{});
  cuem::configure(DeviceConfig::k40m(), true);
  EXPECT_EQ(bytes.size(), 97586u);
  EXPECT_EQ(snapshot_probe::fnv1a(bytes), 0x8f68f84c7eaace5aull);
}

}  // namespace
}  // namespace tidacc

#endif  // TIDACC_CUEM_SANITIZER

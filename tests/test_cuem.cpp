// Unit tests for the cuem CUDA-emulation runtime: allocation spaces and
// capacity accounting, memcpy direction checks and functional data movement,
// streams/events, UVM (managed memory) semantics, limited-memory failures.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "cuem/cuem.hpp"
#include "cuem/san.hpp"

namespace tidacc::cuem {
namespace {

using sim::DeviceConfig;
using sim::MathClass;

DeviceConfig test_config() {
  DeviceConfig cfg = DeviceConfig::k40m();
  cfg.transfer_latency_ns = 0;
  cfg.pageable_staging_ns = 0;
  cfg.kernel_launch_ns = 0;
  cfg.host_api_overhead_ns = 0;
  cfg.sync_overhead_ns = 0;
  cfg.uvm_launch_check_ns = 0;
  cfg.uvm_page_fault_ns = 0;
  return cfg;
}

class CuemTest : public ::testing::Test {
 protected:
  void SetUp() override { configure(test_config(), /*functional=*/true); }
  void TearDown() override { configure(DeviceConfig::k40m(), true); }
};

sim::KernelProfile tiny_kernel() {
  sim::KernelProfile p;
  p.elements = 16;
  p.flops_per_element = 1;
  p.dev_bytes_per_element = 8;
  return p;
}

// --- allocation ---

TEST_F(CuemTest, MallocAndFreeDevice) {
  void* d = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 1024), cuemSuccess);
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(is_device_ptr(d));
  EXPECT_FALSE(is_pinned_host_ptr(d));
  EXPECT_EQ(device_bytes_in_use(), 1024u);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
  EXPECT_EQ(device_bytes_in_use(), 0u);
}

TEST_F(CuemTest, MallocHostIsPinned) {
  void* h = nullptr;
  ASSERT_EQ(cuemMallocHost(&h, 512), cuemSuccess);
  EXPECT_TRUE(is_pinned_host_ptr(h));
  EXPECT_FALSE(is_device_ptr(h));
  EXPECT_EQ(cuemFreeHost(h), cuemSuccess);
}

TEST_F(CuemTest, MallocManaged) {
  void* m = nullptr;
  ASSERT_EQ(cuemMallocManaged(&m, 256), cuemSuccess);
  EXPECT_TRUE(is_managed_ptr(m));
  EXPECT_EQ(device_bytes_in_use(), 256u);  // managed reserves device memory
  // Managed memory is released through cuemFree, as in CUDA.
  EXPECT_EQ(cuemFree(m), cuemSuccess);
  EXPECT_EQ(device_bytes_in_use(), 0u);
}

TEST_F(CuemTest, NullAndZeroSizeRejected) {
  void* p = nullptr;
  EXPECT_EQ(cuemMalloc(nullptr, 16), cuemErrorInvalidValue);
  EXPECT_EQ(cuemMalloc(&p, 0), cuemErrorInvalidValue);
  EXPECT_EQ(cuemMallocHost(nullptr, 16), cuemErrorInvalidValue);
}

TEST_F(CuemTest, FreeNullIsNoop) {
  EXPECT_EQ(cuemFree(nullptr), cuemSuccess);
  EXPECT_EQ(cuemFreeHost(nullptr), cuemSuccess);
}

TEST_F(CuemTest, FreeUnknownPointerFails) {
  int x = 0;
  if (san::enabled() && san::options().fatal) {
    // The sanitizer classifies this deliberate misuse as invalid_free and
    // fatal mode aborts the offending call instead of returning the code.
    EXPECT_THROW((void)cuemFree(&x), tidacc::Error);
  } else {
    EXPECT_EQ(cuemFree(&x), cuemErrorInvalidValue);
  }
  san::clear_findings();
}

TEST_F(CuemTest, FreeWrongSpaceFails) {
  void* h = nullptr;
  ASSERT_EQ(cuemMallocHost(&h, 64), cuemSuccess);
  EXPECT_EQ(cuemFree(h), cuemErrorInvalidDevicePointer);
  EXPECT_EQ(cuemFreeHost(h), cuemSuccess);
}

TEST_F(CuemTest, MemGetInfoTracksUsage) {
  std::size_t free0 = 0, total = 0;
  ASSERT_EQ(cuemMemGetInfo(&free0, &total), cuemSuccess);
  void* d = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 10 * kMiB), cuemSuccess);
  std::size_t free1 = 0;
  ASSERT_EQ(cuemMemGetInfo(&free1, &total), cuemSuccess);
  EXPECT_EQ(free0 - free1, 10 * kMiB);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
}

TEST_F(CuemTest, DeviceCapacityEnforced) {
  DeviceConfig cfg = test_config();
  cfg = DeviceConfig::k40m_limited(1 * kMiB);
  configure(cfg, true);
  void* a = nullptr;
  void* b = nullptr;
  ASSERT_EQ(cuemMalloc(&a, 768 * kKiB), cuemSuccess);
  EXPECT_EQ(cuemMalloc(&b, 512 * kKiB), cuemErrorMemoryAllocation);
  EXPECT_EQ(b, nullptr);
  EXPECT_EQ(cuemFree(a), cuemSuccess);
  ASSERT_EQ(cuemMalloc(&b, 512 * kKiB), cuemSuccess);
  EXPECT_EQ(cuemFree(b), cuemSuccess);
}

// --- memcpy ---

TEST_F(CuemTest, MemcpyRoundTripThroughDevice) {
  std::vector<double> src(64), dst(64, 0.0);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<double>(i) * 1.5;
  }
  void* d = nullptr;
  ASSERT_EQ(cuemMalloc(&d, src.size() * sizeof(double)), cuemSuccess);
  ASSERT_EQ(cuemMemcpy(d, src.data(), src.size() * sizeof(double),
                       cuemMemcpyHostToDevice),
            cuemSuccess);
  ASSERT_EQ(cuemMemcpy(dst.data(), d, src.size() * sizeof(double),
                       cuemMemcpyDeviceToHost),
            cuemSuccess);
  EXPECT_EQ(src, dst);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
}

TEST_F(CuemTest, MemcpyDefaultInfersDirection) {
  std::vector<int> host{1, 2, 3, 4};
  void* d = nullptr;
  ASSERT_EQ(cuemMalloc(&d, sizeof(int) * 4), cuemSuccess);
  EXPECT_EQ(cuemMemcpy(d, host.data(), sizeof(int) * 4, cuemMemcpyDefault),
            cuemSuccess);
  std::vector<int> back(4, 0);
  EXPECT_EQ(cuemMemcpy(back.data(), d, sizeof(int) * 4, cuemMemcpyDefault),
            cuemSuccess);
  EXPECT_EQ(host, back);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
}

TEST_F(CuemTest, MemcpyWrongDirectionRejected) {
  std::vector<int> host(4);
  void* d = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 16), cuemSuccess);
  EXPECT_EQ(cuemMemcpy(host.data(), d, 16, cuemMemcpyHostToDevice),
            cuemErrorInvalidMemcpyDirection);
  EXPECT_EQ(cuemMemcpy(d, host.data(), 16, cuemMemcpyDeviceToHost),
            cuemErrorInvalidMemcpyDirection);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
}

TEST_F(CuemTest, MemcpyDeviceToDevice) {
  void* a = nullptr;
  void* b = nullptr;
  ASSERT_EQ(cuemMalloc(&a, 32), cuemSuccess);
  ASSERT_EQ(cuemMalloc(&b, 32), cuemSuccess);
  std::memset(a, 0xAB, 32);
  ASSERT_EQ(cuemMemcpy(b, a, 32, cuemMemcpyDeviceToDevice), cuemSuccess);
  EXPECT_EQ(std::memcmp(a, b, 32), 0);
  EXPECT_EQ(cuemFree(a), cuemSuccess);
  EXPECT_EQ(cuemFree(b), cuemSuccess);
}

TEST_F(CuemTest, MemcpyHostToHost) {
  std::vector<int> a{9, 8, 7};
  std::vector<int> b(3, 0);
  ASSERT_EQ(cuemMemcpy(b.data(), a.data(), 3 * sizeof(int),
                       cuemMemcpyHostToHost),
            cuemSuccess);
  EXPECT_EQ(a, b);
}

TEST_F(CuemTest, MemcpyZeroBytesIsNoop) {
  void* d = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 16), cuemSuccess);
  EXPECT_EQ(cuemMemcpy(d, d, 0, cuemMemcpyDeviceToDevice), cuemSuccess);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
}

TEST_F(CuemTest, MemcpyNullRejected) {
  EXPECT_EQ(cuemMemcpy(nullptr, nullptr, 8, cuemMemcpyHostToHost),
            cuemErrorInvalidValue);
}

TEST_F(CuemTest, MemcpyInteriorPointersResolve) {
  void* d = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 128), cuemSuccess);
  char host[16] = "hello interior";
  char* interior = static_cast<char*>(d) + 32;
  EXPECT_EQ(cuemMemcpy(interior, host, 16, cuemMemcpyHostToDevice),
            cuemSuccess);
  char back[16] = {};
  EXPECT_EQ(cuemMemcpy(back, interior, 16, cuemMemcpyDeviceToHost),
            cuemSuccess);
  EXPECT_STREQ(back, "hello interior");
  EXPECT_EQ(cuemFree(d), cuemSuccess);
}

// --- pitched 3D copies (delta-transfer substrate) ---

TEST_F(CuemTest, Memcpy3DRoundTripMatchesReferenceLoops) {
  // A 3x2x2 sub-box of a 4x4x4 pinned host block, packed tightly on the
  // device, then scattered back into a second 4x4x4 block at a different
  // offset; every byte must land where reference loops would put it.
  constexpr int n = 4;
  constexpr std::size_t row = n * sizeof(double);
  std::vector<double> src(n * n * n), back(n * n * n, -1.0);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<double>(i);
  }
  void* h = nullptr;
  ASSERT_EQ(cuemMallocHost(&h, src.size() * sizeof(double)), cuemSuccess);
  std::memcpy(h, src.data(), src.size() * sizeof(double));
  void* d = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 3 * 2 * 2 * sizeof(double)), cuemSuccess);

  const auto at = [&](void* base, int i, int j, int k) {
    return static_cast<char*>(base) +
           sizeof(double) * (static_cast<std::size_t>(i) + n * (j + n * k));
  };
  cuemMemcpy3DParms down;
  down.dst = d;
  down.dst_pitch = 3 * sizeof(double);
  down.dst_slice_pitch = 3 * 2 * sizeof(double);
  down.src = at(h, 1, 1, 1);
  down.src_pitch = row;
  down.src_slice_pitch = row * n;
  down.width = 3 * sizeof(double);
  down.height = 2;
  down.depth = 2;
  down.kind = cuemMemcpyHostToDevice;
  ASSERT_EQ(cuemMemcpy3DAsync(&down, 0), cuemSuccess);

  std::memcpy(h, back.data(), back.size() * sizeof(double));
  cuemMemcpy3DParms up;
  up.dst = at(h, 0, 2, 1);
  up.dst_pitch = row;
  up.dst_slice_pitch = row * n;
  up.src = d;
  up.src_pitch = 3 * sizeof(double);
  up.src_slice_pitch = 3 * 2 * sizeof(double);
  up.width = 3 * sizeof(double);
  up.height = 2;
  up.depth = 2;
  up.kind = cuemMemcpyDeviceToHost;
  ASSERT_EQ(cuemMemcpy3DAsync(&up, 0), cuemSuccess);
  ASSERT_EQ(cuemStreamSynchronize(0), cuemSuccess);

  std::memcpy(back.data(), h, back.size() * sizeof(double));
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        const std::size_t idx =
            static_cast<std::size_t>(i) + n * (j + n * k);
        const bool written = i < 3 && j >= 2 && j < 4 && k >= 1 && k < 3;
        const double expect =
            written ? src[static_cast<std::size_t>(i + 1) +
                          n * ((j - 2 + 1) + n * (k - 1 + 1))]
                    : -1.0;
        EXPECT_EQ(back[idx], expect)
            << "(" << i << "," << j << "," << k << ")";
      }
    }
  }
  EXPECT_EQ(cuemFree(d), cuemSuccess);
  EXPECT_EQ(cuemFreeHost(h), cuemSuccess);
}

TEST_F(CuemTest, Memcpy3DDefaultKindInfersDirectionAndCountsBytes) {
  void* h = nullptr;
  void* d = nullptr;
  ASSERT_EQ(cuemMallocHost(&h, 256), cuemSuccess);
  ASSERT_EQ(cuemMalloc(&d, 256), cuemSuccess);
  const auto before = platform().trace().stats();
  cuemMemcpy3DParms p;
  p.dst = d;
  p.dst_pitch = 16;
  p.dst_slice_pitch = 64;
  p.src = h;
  p.src_pitch = 32;
  p.src_slice_pitch = 128;
  p.width = 16;
  p.height = 4;
  p.depth = 2;
  ASSERT_EQ(cuemMemcpy3DAsync(&p, 0), cuemSuccess);
  ASSERT_EQ(cuemStreamSynchronize(0), cuemSuccess);
  const auto after = platform().trace().stats();
  EXPECT_EQ(after.h2d_bytes - before.h2d_bytes, 128u);
  EXPECT_EQ(after.memcpy3d_h2d_bytes - before.memcpy3d_h2d_bytes, 128u);
  EXPECT_EQ(after.memcpy3d_d2h_bytes, before.memcpy3d_d2h_bytes);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
  EXPECT_EQ(cuemFreeHost(h), cuemSuccess);
}

TEST_F(CuemTest, Memcpy3DStridedCostsMoreThanContiguous) {
  // Same byte volume, one transfer chunked row-by-row, one fully
  // contiguous (width == both pitches, slices abutting): the chunked copy
  // must pay the per-chunk penalty, the contiguous one must price exactly
  // like a flat memcpy.
  constexpr std::size_t rows = 64;
  constexpr std::size_t width = 256;
  void* h = nullptr;
  void* d = nullptr;
  ASSERT_EQ(cuemMallocHost(&h, 2 * rows * width), cuemSuccess);
  ASSERT_EQ(cuemMalloc(&d, rows * width), cuemSuccess);

  const auto timed = [&](std::size_t src_pitch) {
    cuemMemcpy3DParms p;
    p.dst = d;
    p.dst_pitch = width;
    p.dst_slice_pitch = width * rows;
    p.src = h;
    p.src_pitch = src_pitch;
    p.src_slice_pitch = src_pitch * rows;
    p.width = width;
    p.height = rows;
    p.depth = 1;
    p.kind = cuemMemcpyHostToDevice;
    const SimTime before = platform().now();
    EXPECT_EQ(cuemMemcpy3DAsync(&p, 0), cuemSuccess);
    EXPECT_EQ(cuemStreamSynchronize(0), cuemSuccess);
    return platform().now() - before;
  };
  const SimTime contiguous = timed(width);
  const SimTime strided = timed(2 * width);
  EXPECT_EQ(contiguous, transfer_time_ns(rows * width, 10.5));
  EXPECT_GT(strided, contiguous);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
  EXPECT_EQ(cuemFreeHost(h), cuemSuccess);
}

TEST_F(CuemTest, Memcpy3DRejectsBadArguments) {
  void* h = nullptr;
  void* d = nullptr;
  ASSERT_EQ(cuemMallocHost(&h, 256), cuemSuccess);
  ASSERT_EQ(cuemMalloc(&d, 256), cuemSuccess);
  EXPECT_EQ(cuemMemcpy3DAsync(nullptr, 0), cuemErrorInvalidValue);

  cuemMemcpy3DParms p;
  p.dst = d;
  p.dst_pitch = 16;
  p.dst_slice_pitch = 64;
  p.src = h;
  p.src_pitch = 16;
  p.src_slice_pitch = 64;
  p.width = 16;
  p.height = 4;
  p.depth = 2;
  p.kind = cuemMemcpyHostToDevice;

  cuemMemcpy3DParms bad = p;
  bad.src_pitch = 8;  // pitch smaller than a row
  EXPECT_EQ(cuemMemcpy3DAsync(&bad, 0), cuemErrorInvalidValue);
  bad = p;
  bad.dst_slice_pitch = 32;  // slice pitch smaller than height rows
  EXPECT_EQ(cuemMemcpy3DAsync(&bad, 0), cuemErrorInvalidValue);
  bad = p;
  bad.src = d;  // device->device unsupported
  EXPECT_EQ(cuemMemcpy3DAsync(&bad, 0), cuemErrorInvalidMemcpyDirection);
  EXPECT_EQ(cuemMemcpy3DAsync(&p, 999), cuemErrorInvalidResourceHandle);

  cuemMemcpy3DParms zero = p;
  zero.depth = 0;  // zero extent is a no-op, not an error
  EXPECT_EQ(cuemMemcpy3DAsync(&zero, 0), cuemSuccess);

  EXPECT_EQ(cuemFree(d), cuemSuccess);
  EXPECT_EQ(cuemFreeHost(h), cuemSuccess);
}

// --- copy routes (memcpy_async / memcpy3d_async) ---

TEST_F(CuemTest, PrefetchRouteIsFlatHostToDeviceOnly) {
  void* h = nullptr;
  void* d = nullptr;
  ASSERT_EQ(cuemMallocHost(&h, 256), cuemSuccess);
  ASSERT_EQ(cuemMalloc(&d, 256), cuemSuccess);
  platform().trace().set_recording(true);
  EXPECT_EQ(memcpy_async(h, d, 256, cuemMemcpyDeviceToHost, 0,
                         Route::prefetch(), "P:R0"),
            cuemErrorInvalidMemcpyDirection);
  cuemMemcpy3DParms box;  // a 16 x 4 x 2 sub-box
  box.dst = d;
  box.src = h;
  box.dst_pitch = box.src_pitch = box.width = 16;
  box.dst_slice_pitch = box.src_slice_pitch = 64;
  box.height = 4;
  box.depth = 2;
  box.kind = cuemMemcpyHostToDevice;
  EXPECT_EQ(memcpy3d_async(box, 0, Route::prefetch(), "P:R0"),
            cuemErrorInvalidMemcpyDirection);
  EXPECT_TRUE(platform().trace().events().empty());

  // A flat H2D prefetch is traced as one, under its label or none; only
  // an unlabelled raw copy is named by its direction.
  ASSERT_EQ(memcpy_async(d, h, 256, cuemMemcpyHostToDevice, 0,
                         Route::prefetch(), "P:R0"),
            cuemSuccess);
  ASSERT_EQ(memcpy_async(d, h, 256, cuemMemcpyHostToDevice, 0,
                         Route::prefetch(), ""),
            cuemSuccess);
  ASSERT_EQ(memcpy_async(d, h, 256, cuemMemcpyHostToDevice, 0, Route::raw(),
                         ""),
            cuemSuccess);
  const auto& events = platform().trace().events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, sim::OpKind::kPrefetchH2D);
  EXPECT_EQ(events[0].label, "P:R0");
  EXPECT_EQ(events[0].bytes, 256u);
  EXPECT_EQ(events[1].kind, sim::OpKind::kPrefetchH2D);
  EXPECT_EQ(events[1].label, "");
  EXPECT_EQ(events[2].kind, sim::OpKind::kCopyH2D);
  EXPECT_EQ(events[2].label, "H2D");
  ASSERT_EQ(cuemDeviceSynchronize(), cuemSuccess);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
  EXPECT_EQ(cuemFreeHost(h), cuemSuccess);
}

TEST_F(CuemTest, SyncMemcpyBlocksHost) {
  void* d = nullptr;
  void* h = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 105'000'000), cuemSuccess);
  ASSERT_EQ(cuemMallocHost(&h, 105'000'000), cuemSuccess);
  const SimTime before = platform().now();
  ASSERT_EQ(cuemMemcpy(d, h, 105'000'000, cuemMemcpyHostToDevice),
            cuemSuccess);
  EXPECT_GE(platform().now() - before,
            transfer_time_ns(105'000'000, 10.5));
  EXPECT_EQ(cuemFree(d), cuemSuccess);
  EXPECT_EQ(cuemFreeHost(h), cuemSuccess);
}

TEST_F(CuemTest, AsyncPinnedMemcpyDoesNotBlockHost) {
  void* d = nullptr;
  void* h = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 105'000'000), cuemSuccess);
  ASSERT_EQ(cuemMallocHost(&h, 105'000'000), cuemSuccess);
  cuemStream_t s = 0;
  ASSERT_EQ(cuemStreamCreate(&s), cuemSuccess);
  const SimTime before = platform().now();
  ASSERT_EQ(cuemMemcpyAsync(d, h, 105'000'000, cuemMemcpyHostToDevice, s),
            cuemSuccess);
  EXPECT_EQ(platform().now(), before);  // host returned immediately
  ASSERT_EQ(cuemStreamSynchronize(s), cuemSuccess);
  EXPECT_GE(platform().now() - before,
            transfer_time_ns(105'000'000, 10.5));
  EXPECT_EQ(cuemStreamDestroy(s), cuemSuccess);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
  EXPECT_EQ(cuemFreeHost(h), cuemSuccess);
}

TEST_F(CuemTest, AsyncPageableMemcpyBlocksHost) {
  void* d = nullptr;
  std::vector<char> h(58'000'000);
  ASSERT_EQ(cuemMalloc(&d, h.size()), cuemSuccess);
  cuemStream_t s = 0;
  ASSERT_EQ(cuemStreamCreate(&s), cuemSuccess);
  const SimTime before = platform().now();
  ASSERT_EQ(cuemMemcpyAsync(d, h.data(), h.size(), cuemMemcpyHostToDevice, s),
            cuemSuccess);
  EXPECT_GE(platform().now() - before, transfer_time_ns(h.size(), 5.8));
  EXPECT_EQ(cuemStreamDestroy(s), cuemSuccess);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
}

TEST_F(CuemTest, InvalidStreamInMemcpyAsync) {
  void* d = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 16), cuemSuccess);
  char h[16];
  EXPECT_EQ(cuemMemcpyAsync(d, h, 16, cuemMemcpyHostToDevice, 999),
            cuemErrorInvalidResourceHandle);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
}

// --- streams ---

TEST_F(CuemTest, StreamCreateQueryDestroy) {
  cuemStream_t s = 0;
  ASSERT_EQ(cuemStreamCreate(&s), cuemSuccess);
  EXPECT_NE(s, 0);
  EXPECT_EQ(cuemStreamQuery(s), cuemSuccess);  // empty → ready
  EXPECT_EQ(cuemStreamDestroy(s), cuemSuccess);
  EXPECT_EQ(cuemStreamQuery(s), cuemErrorInvalidResourceHandle);
}

TEST_F(CuemTest, StreamQueryNotReadyWithPendingWork) {
  cuemStream_t s = 0;
  ASSERT_EQ(cuemStreamCreate(&s), cuemSuccess);
  void* d = nullptr;
  void* h = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 105'000'000), cuemSuccess);
  ASSERT_EQ(cuemMallocHost(&h, 105'000'000), cuemSuccess);
  ASSERT_EQ(cuemMemcpyAsync(d, h, 105'000'000, cuemMemcpyHostToDevice, s),
            cuemSuccess);
  EXPECT_EQ(cuemStreamQuery(s), cuemErrorNotReady);
  ASSERT_EQ(cuemStreamSynchronize(s), cuemSuccess);
  EXPECT_EQ(cuemStreamQuery(s), cuemSuccess);
  EXPECT_EQ(cuemStreamDestroy(s), cuemSuccess);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
  EXPECT_EQ(cuemFreeHost(h), cuemSuccess);
}

TEST_F(CuemTest, DefaultStreamCannotBeDestroyed) {
  EXPECT_EQ(cuemStreamDestroy(0), cuemErrorInvalidResourceHandle);
}

// --- events ---

TEST_F(CuemTest, EventElapsedTimeMeasuresTransfer) {
  cuemStream_t s = 0;
  ASSERT_EQ(cuemStreamCreate(&s), cuemSuccess);
  cuemEvent_t e0 = 0, e1 = 0;
  ASSERT_EQ(cuemEventCreate(&e0), cuemSuccess);
  ASSERT_EQ(cuemEventCreate(&e1), cuemSuccess);
  void* d = nullptr;
  void* h = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 105'000'000), cuemSuccess);
  ASSERT_EQ(cuemMallocHost(&h, 105'000'000), cuemSuccess);
  ASSERT_EQ(cuemEventRecord(e0, s), cuemSuccess);
  ASSERT_EQ(cuemMemcpyAsync(d, h, 105'000'000, cuemMemcpyHostToDevice, s),
            cuemSuccess);
  ASSERT_EQ(cuemEventRecord(e1, s), cuemSuccess);
  ASSERT_EQ(cuemEventSynchronize(e1), cuemSuccess);
  float ms = 0.0f;
  ASSERT_EQ(cuemEventElapsedTime(&ms, e0, e1), cuemSuccess);
  EXPECT_NEAR(ms, 10.0f, 0.2f);  // 105 MB at 10.5 GB/s = 10 ms
  EXPECT_EQ(cuemEventDestroy(e0), cuemSuccess);
  EXPECT_EQ(cuemEventDestroy(e1), cuemSuccess);
  EXPECT_EQ(cuemStreamDestroy(s), cuemSuccess);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
  EXPECT_EQ(cuemFreeHost(h), cuemSuccess);
}

TEST_F(CuemTest, UnrecordedEventElapsedFails) {
  cuemEvent_t e0 = 0, e1 = 0;
  ASSERT_EQ(cuemEventCreate(&e0), cuemSuccess);
  ASSERT_EQ(cuemEventCreate(&e1), cuemSuccess);
  float ms = 0;
  EXPECT_EQ(cuemEventElapsedTime(&ms, e0, e1),
            cuemErrorInvalidResourceHandle);
  EXPECT_EQ(cuemEventDestroy(e0), cuemSuccess);
  EXPECT_EQ(cuemEventDestroy(e1), cuemSuccess);
}

TEST_F(CuemTest, StreamWaitEventOrdersAcrossStreams) {
  cuemStream_t s1 = 0, s2 = 0;
  ASSERT_EQ(cuemStreamCreate(&s1), cuemSuccess);
  ASSERT_EQ(cuemStreamCreate(&s2), cuemSuccess);
  void* d = nullptr;
  void* h = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 105'000'000), cuemSuccess);
  ASSERT_EQ(cuemMallocHost(&h, 105'000'000), cuemSuccess);
  ASSERT_EQ(cuemMemcpyAsync(d, h, 105'000'000, cuemMemcpyHostToDevice, s1),
            cuemSuccess);
  cuemEvent_t e = 0;
  ASSERT_EQ(cuemEventCreate(&e), cuemSuccess);
  ASSERT_EQ(cuemEventRecord(e, s1), cuemSuccess);
  ASSERT_EQ(cuemStreamWaitEvent(s2, e, 0), cuemSuccess);
  // a kernel on s2 now starts only after the H2D on s1 completes
  ASSERT_EQ(launch(s2, LaunchGeometry{}, tiny_kernel(), "k", nullptr),
            cuemSuccess);
  ASSERT_EQ(cuemStreamSynchronize(s2), cuemSuccess);
  EXPECT_GE(platform().now(), transfer_time_ns(105'000'000, 10.5));
  EXPECT_EQ(cuemEventDestroy(e), cuemSuccess);
  EXPECT_EQ(cuemStreamDestroy(s1), cuemSuccess);
  EXPECT_EQ(cuemStreamDestroy(s2), cuemSuccess);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
  EXPECT_EQ(cuemFreeHost(h), cuemSuccess);
}

TEST_F(CuemTest, WaitOnUnrecordedEventIsNoop) {
  cuemStream_t s = 0;
  ASSERT_EQ(cuemStreamCreate(&s), cuemSuccess);
  cuemEvent_t e = 0;
  ASSERT_EQ(cuemEventCreate(&e), cuemSuccess);
  EXPECT_EQ(cuemStreamWaitEvent(s, e, 0), cuemSuccess);
  EXPECT_EQ(cuemEventDestroy(e), cuemSuccess);
  EXPECT_EQ(cuemStreamDestroy(s), cuemSuccess);
}

TEST_F(CuemTest, StreamDestroyDrainsPendingWork) {
  cuemStream_t s = 0;
  ASSERT_EQ(cuemStreamCreate(&s), cuemSuccess);
  void* d = nullptr;
  void* h = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 105'000'000), cuemSuccess);
  ASSERT_EQ(cuemMallocHost(&h, 105'000'000), cuemSuccess);
  const SimTime t0 = platform().now();
  ASSERT_EQ(cuemMemcpyAsync(d, h, 105'000'000, cuemMemcpyHostToDevice, s),
            cuemSuccess);
  EXPECT_EQ(platform().now(), t0);  // the copy is in flight
  // CUDA semantics: destroying a busy stream lets queued work complete, and
  // the host must observe it as finished — destroy behaves as sync+destroy.
  ASSERT_EQ(cuemStreamDestroy(s), cuemSuccess);
  EXPECT_GE(platform().now() - t0, transfer_time_ns(105'000'000, 10.5));
  EXPECT_EQ(cuemStreamQuery(s), cuemErrorInvalidResourceHandle);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
  EXPECT_EQ(cuemFreeHost(h), cuemSuccess);
}

TEST_F(CuemTest, StreamDestroyIdleCostsNothing) {
  cuemStream_t s = 0;
  ASSERT_EQ(cuemStreamCreate(&s), cuemSuccess);
  const SimTime t0 = platform().now();
  ASSERT_EQ(cuemStreamDestroy(s), cuemSuccess);
  EXPECT_EQ(platform().now(), t0);  // idle streams skip the drain
}

// --- kernel launches ---

TEST_F(CuemTest, LaunchRunsBodyFunctionally) {
  cuemStream_t s = 0;
  ASSERT_EQ(cuemStreamCreate(&s), cuemSuccess);
  int ran = 0;
  ASSERT_EQ(launch(s, LaunchGeometry{}, tiny_kernel(), "body",
                   [&ran] { ran = 1; }),
            cuemSuccess);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(cuemStreamDestroy(s), cuemSuccess);
}

TEST_F(CuemTest, LaunchInvalidStreamFails) {
  EXPECT_EQ(launch(1234, LaunchGeometry{}, tiny_kernel(), "k", nullptr),
            cuemErrorInvalidResourceHandle);
}

TEST_F(CuemTest, UntunedLaunchIsSlower) {
  cuemStream_t s = 0;
  ASSERT_EQ(cuemStreamCreate(&s), cuemSuccess);
  sim::KernelProfile big;
  big.elements = 10'000'000;
  big.dev_bytes_per_element = 16;

  LaunchGeometry tuned;
  tuned.tuned = true;
  ASSERT_EQ(launch(s, tuned, big, "tuned", nullptr), cuemSuccess);
  ASSERT_EQ(cuemStreamSynchronize(s), cuemSuccess);
  const SimTime t_tuned = platform().now();

  LaunchGeometry untuned;
  untuned.tuned = false;
  ASSERT_EQ(launch(s, untuned, big, "untuned", nullptr), cuemSuccess);
  ASSERT_EQ(cuemStreamSynchronize(s), cuemSuccess);
  const SimTime t_untuned = platform().now() - t_tuned;

  EXPECT_GT(t_untuned, t_tuned);
  EXPECT_EQ(cuemStreamDestroy(s), cuemSuccess);
}

// --- managed memory / UVM ---

TEST_F(CuemTest, ManagedMigratesOnLaunchAndBack) {
  void* m = nullptr;
  ASSERT_EQ(cuemMallocManaged(&m, 50'000'000), cuemSuccess);
  // Launch: the managed allocation migrates H2D at UVM bandwidth.
  ASSERT_EQ(launch(0, LaunchGeometry{}, tiny_kernel(), "k", nullptr),
            cuemSuccess);
  ASSERT_EQ(cuemDeviceSynchronize(), cuemSuccess);
  const SimTime after_launch = platform().now();
  EXPECT_GE(after_launch, transfer_time_ns(50'000'000, 5.0));
  // Host access migrates back (charges host time).
  ASSERT_EQ(host_touch(m, 50'000'000), cuemSuccess);
  EXPECT_GE(platform().now() - after_launch,
            transfer_time_ns(50'000'000, 5.0));
  // Second touch is free: already host-resident.
  const SimTime t = platform().now();
  ASSERT_EQ(host_touch(m, 50'000'000), cuemSuccess);
  EXPECT_EQ(platform().now(), t);
}

TEST_F(CuemTest, ManagedDoesNotRemigrateWhenDeviceResident) {
  void* m = nullptr;
  ASSERT_EQ(cuemMallocManaged(&m, 50'000'000), cuemSuccess);
  ASSERT_EQ(launch(0, LaunchGeometry{}, tiny_kernel(), "k1", nullptr),
            cuemSuccess);
  ASSERT_EQ(cuemDeviceSynchronize(), cuemSuccess);
  const auto h2d_before = platform().trace().stats().h2d_bytes;
  ASSERT_EQ(launch(0, LaunchGeometry{}, tiny_kernel(), "k2", nullptr),
            cuemSuccess);
  ASSERT_EQ(cuemDeviceSynchronize(), cuemSuccess);
  EXPECT_EQ(platform().trace().stats().h2d_bytes, h2d_before);
}

TEST_F(CuemTest, HostTouchOnNonManagedIsNoop) {
  std::vector<int> host(4);
  const SimTime t = platform().now();
  EXPECT_EQ(host_touch(host.data(), 16), cuemSuccess);
  EXPECT_EQ(platform().now(), t);
}

TEST_F(CuemTest, UvmSlowerThanExplicitPinned) {
  // Same payload: managed migration at uvm_migrate_gbps must cost more than
  // an explicit pinned H2D (this asymmetry drives the paper's Fig. 1).
  const std::uint64_t bytes = 100'000'000;
  const SimTime uvm = transfer_time_ns(
      bytes, platform().config().uvm_migrate_gbps);
  const SimTime pinned = transfer_time_ns(
      bytes, platform().config().pinned_h2d_gbps);
  EXPECT_GT(uvm, pinned);
}

// --- device-wide ops ---

TEST_F(CuemTest, DeviceSynchronizeDrainsAllStreams) {
  cuemStream_t s1 = 0, s2 = 0;
  ASSERT_EQ(cuemStreamCreate(&s1), cuemSuccess);
  ASSERT_EQ(cuemStreamCreate(&s2), cuemSuccess);
  void* d = nullptr;
  void* h = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 105'000'000), cuemSuccess);
  ASSERT_EQ(cuemMallocHost(&h, 105'000'000), cuemSuccess);
  ASSERT_EQ(cuemMemcpyAsync(d, h, 105'000'000, cuemMemcpyHostToDevice, s1),
            cuemSuccess);
  ASSERT_EQ(cuemDeviceSynchronize(), cuemSuccess);
  EXPECT_EQ(cuemStreamQuery(s1), cuemSuccess);
  EXPECT_EQ(cuemStreamQuery(s2), cuemSuccess);
  EXPECT_EQ(cuemStreamDestroy(s1), cuemSuccess);
  EXPECT_EQ(cuemStreamDestroy(s2), cuemSuccess);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
  EXPECT_EQ(cuemFreeHost(h), cuemSuccess);
}

TEST_F(CuemTest, DeviceResetFreesEverything) {
  void* d = nullptr;
  void* h = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 1024), cuemSuccess);
  ASSERT_EQ(cuemMallocHost(&h, 1024), cuemSuccess);
  EXPECT_GE(live_allocation_count(), 2u);
  ASSERT_EQ(cuemDeviceReset(), cuemSuccess);
  EXPECT_EQ(live_allocation_count(), 0u);
  EXPECT_EQ(device_bytes_in_use(), 0u);
}

TEST_F(CuemTest, ErrorStringsNonEmpty) {
  EXPECT_STREQ(cuemGetErrorString(cuemSuccess), "no error");
  EXPECT_NE(std::string(cuemGetErrorString(cuemErrorMemoryAllocation)), "");
  EXPECT_NE(std::string(cuemGetErrorString(cuemErrorNotReady)), "");
}

// --- host register / memset / event query / device properties ---

TEST_F(CuemTest, HostRegisterUpgradesToPinnedBandwidth) {
  void* h = cuem::host_alloc(100'000'000, /*pinned=*/false);
  void* d = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 100'000'000), cuemSuccess);
  cuemStream_t s = 0;
  ASSERT_EQ(cuemStreamCreate(&s), cuemSuccess);

  // Pageable: async copy stalls the host.
  const SimTime t0 = platform().now();
  ASSERT_EQ(cuemMemcpyAsync(d, h, 100'000'000, cuemMemcpyHostToDevice, s),
            cuemSuccess);
  const SimTime pageable_stall = platform().now() - t0;
  EXPECT_GT(pageable_stall, 0ull);
  ASSERT_EQ(cuemStreamSynchronize(s), cuemSuccess);

  // Register (pin), then the same copy is asynchronous and faster.
  ASSERT_EQ(cuemHostRegister(h, 100'000'000, 0), cuemSuccess);
  EXPECT_TRUE(is_pinned_host_ptr(h));
  const SimTime t1 = platform().now();
  ASSERT_EQ(cuemMemcpyAsync(d, h, 100'000'000, cuemMemcpyHostToDevice, s),
            cuemSuccess);
  EXPECT_EQ(platform().now(), t1);  // returned immediately
  ASSERT_EQ(cuemStreamSynchronize(s), cuemSuccess);

  ASSERT_EQ(cuemHostUnregister(h), cuemSuccess);
  EXPECT_FALSE(is_pinned_host_ptr(h));
  EXPECT_EQ(cuemStreamDestroy(s), cuemSuccess);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
  host_free(h);
}

TEST_F(CuemTest, HostRegisterRejectsBadRanges) {
  void* h = cuem::host_alloc(4096, false);
  EXPECT_EQ(cuemHostRegister(nullptr, 16, 0), cuemErrorInvalidValue);
  EXPECT_EQ(cuemHostRegister(h, 1024, 0), cuemErrorInvalidValue);  // partial
  EXPECT_EQ(cuemHostRegister(static_cast<char*>(h) + 8, 4088, 0),
            cuemErrorInvalidValue);
  EXPECT_EQ(cuemHostUnregister(h), cuemErrorInvalidValue);  // not pinned
  void* pinned = nullptr;
  ASSERT_EQ(cuemMallocHost(&pinned, 64), cuemSuccess);
  EXPECT_EQ(cuemHostRegister(pinned, 64, 0), cuemErrorInvalidValue);
  EXPECT_EQ(cuemFreeHost(pinned), cuemSuccess);
  host_free(h);
}

TEST_F(CuemTest, MemsetFillsDeviceMemory) {
  void* d = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 64), cuemSuccess);
  ASSERT_EQ(cuemMemset(d, 0xAB, 64), cuemSuccess);
  EXPECT_EQ(static_cast<unsigned char*>(d)[0], 0xAB);
  EXPECT_EQ(static_cast<unsigned char*>(d)[63], 0xAB);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
}

TEST_F(CuemTest, MemsetAsyncIsStreamOrdered) {
  void* d = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 105'000'000), cuemSuccess);
  cuemStream_t s = 0;
  ASSERT_EQ(cuemStreamCreate(&s), cuemSuccess);
  const SimTime t0 = platform().now();
  ASSERT_EQ(cuemMemsetAsync(d, 0, 105'000'000, s), cuemSuccess);
  EXPECT_EQ(platform().now(), t0);  // async
  EXPECT_EQ(cuemStreamQuery(s), cuemErrorNotReady);
  ASSERT_EQ(cuemStreamSynchronize(s), cuemSuccess);
  EXPECT_EQ(cuemStreamDestroy(s), cuemSuccess);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
}

TEST_F(CuemTest, MemsetRejectsHostPointer) {
  std::vector<char> host(64);
  EXPECT_EQ(cuemMemset(host.data(), 0, 64), cuemErrorInvalidDevicePointer);
  EXPECT_EQ(cuemMemset(nullptr, 0, 64), cuemErrorInvalidValue);
}

TEST_F(CuemTest, EventQueryTracksCompletion) {
  cuemStream_t s = 0;
  ASSERT_EQ(cuemStreamCreate(&s), cuemSuccess);
  void* d = nullptr;
  void* h = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 105'000'000), cuemSuccess);
  ASSERT_EQ(cuemMallocHost(&h, 105'000'000), cuemSuccess);
  cuemEvent_t e = 0;
  ASSERT_EQ(cuemEventCreate(&e), cuemSuccess);
  EXPECT_EQ(cuemEventQuery(e), cuemSuccess);  // unrecorded: complete
  ASSERT_EQ(cuemMemcpyAsync(d, h, 105'000'000, cuemMemcpyHostToDevice, s),
            cuemSuccess);
  ASSERT_EQ(cuemEventRecord(e, s), cuemSuccess);
  EXPECT_EQ(cuemEventQuery(e), cuemErrorNotReady);
  ASSERT_EQ(cuemEventSynchronize(e), cuemSuccess);
  EXPECT_EQ(cuemEventQuery(e), cuemSuccess);
  EXPECT_EQ(cuemEventDestroy(e), cuemSuccess);
  EXPECT_EQ(cuemStreamDestroy(s), cuemSuccess);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
  EXPECT_EQ(cuemFreeHost(h), cuemSuccess);
}

TEST_F(CuemTest, DevicePropertiesReflectConfig) {
  cuemDeviceProp prop{};
  ASSERT_EQ(cuemGetDeviceProperties(&prop, 0), cuemSuccess);
  EXPECT_NE(std::string(prop.name).find("K40m"), std::string::npos);
  EXPECT_EQ(prop.asyncEngineCount, 2);
  EXPECT_EQ(prop.concurrentKernels, 0);
  EXPECT_EQ(prop.managedMemory, 1);
  EXPECT_GT(prop.totalGlobalMem, 0u);
  EXPECT_EQ(cuemGetDeviceProperties(nullptr, 0), cuemErrorInvalidValue);
  // Out-of-range ordinals report cuemErrorInvalidDevice (as CUDA does),
  // with the ordinal named in cuemGetLastErrorMessage().
  EXPECT_EQ(cuemGetDeviceProperties(&prop, 3), cuemErrorInvalidDevice);
}

// --- Pascal-mode UVM ---

class PascalUvmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::DeviceConfig cfg = test_config();
    cfg.uvm_mode = sim::DeviceConfig::UvmMode::kPascal;
    cfg.uvm_page_fault_ns = 1000;
    configure(cfg, /*functional=*/true);
  }
  void TearDown() override { configure(sim::DeviceConfig::k40m(), true); }
};

TEST_F(PascalUvmTest, DemandFaultsChargePerPage) {
  void* m = nullptr;
  const std::size_t bytes = 10 * 64 * kKiB;  // 10 pages
  ASSERT_EQ(cuemMallocManaged(&m, bytes), cuemSuccess);
  sim::KernelProfile prof;
  prof.elements = 1;
  prof.flops_per_element = 1;
  ASSERT_EQ(launch(0, LaunchGeometry{}, prof, "k", nullptr), cuemSuccess);
  ASSERT_EQ(cuemDeviceSynchronize(), cuemSuccess);
  // Migration time + 10 faults of 1 us each.
  EXPECT_GE(platform().now(),
            transfer_time_ns(bytes, 5.0) + 10'000ull);
  EXPECT_EQ(cuemFree(m), cuemSuccess);
}

TEST_F(PascalUvmTest, PrefetchAvoidsFaultsAndIsFaster) {
  const std::size_t bytes = 100 * 64 * kKiB;
  const auto run = [&](bool prefetch) {
    SetUp();  // fresh platform
    void* m = nullptr;
    EXPECT_EQ(cuemMallocManaged(&m, bytes), cuemSuccess);
    if (prefetch) {
      EXPECT_EQ(cuemMemPrefetchAsync(m, bytes, 0, 0), cuemSuccess);
    }
    sim::KernelProfile prof;
    prof.elements = 1;
    prof.flops_per_element = 1;
    EXPECT_EQ(launch(0, LaunchGeometry{}, prof, "k", nullptr), cuemSuccess);
    EXPECT_EQ(cuemDeviceSynchronize(), cuemSuccess);
    const SimTime t = platform().now();
    EXPECT_EQ(cuemFree(m), cuemSuccess);
    return t;
  };
  const SimTime faulted = run(false);
  const SimTime prefetched = run(true);
  EXPECT_LT(prefetched, faulted);
}

TEST_F(PascalUvmTest, PrefetchedAllocationSkipsLaunchMigration) {
  void* m = nullptr;
  ASSERT_EQ(cuemMallocManaged(&m, 1'000'000), cuemSuccess);
  ASSERT_EQ(cuemMemPrefetchAsync(m, 1'000'000, 0, 0), cuemSuccess);
  const auto h2d = platform().trace().stats().h2d_bytes;
  ASSERT_EQ(launch(0, LaunchGeometry{}, tiny_kernel(), "k", nullptr),
            cuemSuccess);
  ASSERT_EQ(cuemDeviceSynchronize(), cuemSuccess);
  EXPECT_EQ(platform().trace().stats().h2d_bytes, h2d);  // no second move
  EXPECT_EQ(cuemFree(m), cuemSuccess);
}

TEST_F(PascalUvmTest, HostTouchDoesNotSyncWholeDevice) {
  // Unlike Kepler, Pascal CPU access does not require device-wide sync:
  // unrelated stream work keeps running.
  void* m = nullptr;
  ASSERT_EQ(cuemMallocManaged(&m, 64 * kKiB), cuemSuccess);
  ASSERT_EQ(launch(0, LaunchGeometry{}, tiny_kernel(), "k", nullptr),
            cuemSuccess);
  ASSERT_EQ(cuemDeviceSynchronize(), cuemSuccess);
  cuemStream_t s = 0;
  ASSERT_EQ(cuemStreamCreate(&s), cuemSuccess);
  void* d = nullptr;
  void* h = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 105'000'000), cuemSuccess);
  ASSERT_EQ(cuemMallocHost(&h, 105'000'000), cuemSuccess);
  ASSERT_EQ(cuemMemcpyAsync(d, h, 105'000'000, cuemMemcpyHostToDevice, s),
            cuemSuccess);
  ASSERT_EQ(host_touch(m, 64 * kKiB), cuemSuccess);
  // The long transfer on s is still in flight after the touch.
  EXPECT_EQ(cuemStreamQuery(s), cuemErrorNotReady);
  EXPECT_EQ(cuemStreamDestroy(s), cuemSuccess);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
  EXPECT_EQ(cuemFreeHost(h), cuemSuccess);
  EXPECT_EQ(cuemFree(m), cuemSuccess);
}

TEST_F(PascalUvmTest, PrefetchRejectsNonManagedAndBadArgs) {
  void* d = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 1024), cuemSuccess);
  EXPECT_EQ(cuemMemPrefetchAsync(d, 1024, 0, 0), cuemErrorInvalidValue);
  EXPECT_EQ(cuemMemPrefetchAsync(nullptr, 1024, 0, 0),
            cuemErrorInvalidValue);
  void* m = nullptr;
  ASSERT_EQ(cuemMallocManaged(&m, 1024), cuemSuccess);
  // Device ordinal 1 does not exist on this 1-device platform: ordinal
  // errors are cuemErrorInvalidDevice (as CUDA reports them).
  EXPECT_EQ(cuemMemPrefetchAsync(m, 1024, 1, 0), cuemErrorInvalidDevice);
  EXPECT_EQ(cuemMemPrefetchAsync(m, 1024, 0, 777),
            cuemErrorInvalidResourceHandle);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
  EXPECT_EQ(cuemFree(m), cuemSuccess);
}

TEST_F(CuemTest, PrefetchUnsupportedOnKepler) {
  void* m = nullptr;
  ASSERT_EQ(cuemMallocManaged(&m, 1024), cuemSuccess);
  EXPECT_EQ(cuemMemPrefetchAsync(m, 1024, 0, 0), cuemErrorInvalidValue);
  EXPECT_EQ(cuemFree(m), cuemSuccess);
}

// --- registry fuzz ---

TEST_F(CuemTest, RegistryFuzzRandomAllocFreeLookups) {
  Rng rng(0xC0FFEE);
  struct Live {
    void* ptr;
    std::size_t size;
    int space;  // 0 device, 1 pinned, 2 managed
  };
  std::vector<Live> live;
  for (int op = 0; op < 400; ++op) {
    const auto choice = rng.next_below(3);
    if (choice == 0 || live.size() < 3) {  // allocate
      const std::size_t size = 64 + rng.next_below(8192);
      const int space = static_cast<int>(rng.next_below(3));
      void* p = nullptr;
      cuemError_t err = cuemSuccess;
      switch (space) {
        case 0:
          err = cuemMalloc(&p, size);
          break;
        case 1:
          err = cuemMallocHost(&p, size);
          break;
        default:
          err = cuemMallocManaged(&p, size);
          break;
      }
      ASSERT_EQ(err, cuemSuccess);
      live.push_back({p, size, space});
    } else if (choice == 1) {  // free a random allocation
      const std::size_t idx = rng.next_below(live.size());
      const Live v = live[idx];
      live.erase(live.begin() + static_cast<long>(idx));
      if (v.space == 1) {
        ASSERT_EQ(cuemFreeHost(v.ptr), cuemSuccess);
      } else {
        ASSERT_EQ(cuemFree(v.ptr), cuemSuccess);
      }
    } else {  // classify interior pointers of a random live allocation
      const Live& v = live[rng.next_below(live.size())];
      void* interior =
          static_cast<char*>(v.ptr) + rng.next_below(v.size);
      EXPECT_EQ(is_device_ptr(interior), v.space == 0);
      EXPECT_EQ(is_pinned_host_ptr(interior), v.space == 1);
      EXPECT_EQ(is_managed_ptr(interior), v.space == 2);
      // One past the end must never classify into this allocation's space
      // unless an adjacent allocation happens to own that address; at
      // minimum the registry must not crash.
      (void)is_device_ptr(static_cast<char*>(v.ptr) + v.size);
    }
  }
  for (const Live& v : live) {
    if (v.space == 1) {
      EXPECT_EQ(cuemFreeHost(v.ptr), cuemSuccess);
    } else {
      EXPECT_EQ(cuemFree(v.ptr), cuemSuccess);
    }
  }
  EXPECT_EQ(device_bytes_in_use(), 0u);
  EXPECT_EQ(live_allocation_count(), 0u);
}

// --- timing-only mode ---

TEST(CuemTimingOnly, SyntheticPointersNeverBacked) {
  configure(test_config(), /*functional=*/false);
  void* d = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 10ull * kGiB / 2), cuemSuccess);  // 5 GiB, no RAM
  void* h = nullptr;
  ASSERT_EQ(cuemMallocHost(&h, 2ull * kGiB), cuemSuccess);
  // Transfers advance time but touch no memory.
  ASSERT_EQ(cuemMemcpy(d, h, 2ull * kGiB, cuemMemcpyHostToDevice),
            cuemSuccess);
  EXPECT_GT(platform().now(), 0ull);
  EXPECT_EQ(cuemFree(d), cuemSuccess);
  EXPECT_EQ(cuemFreeHost(h), cuemSuccess);
  configure(sim::DeviceConfig::k40m(), true);
}

TEST(CuemTimingOnly, FunctionalFlagExposed) {
  configure(test_config(), /*functional=*/false);
  EXPECT_FALSE(functional());
  configure(test_config(), /*functional=*/true);
  EXPECT_TRUE(functional());
  configure(sim::DeviceConfig::k40m(), true);
}

}  // namespace
}  // namespace tidacc::cuem

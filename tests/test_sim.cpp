// Unit tests for the GPU platform simulator (src/sim): stream semantics,
// engine overlap, pageable/pinned behaviour, events, trace accounting.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "sim/device_config.hpp"
#include "sim/kernel_profile.hpp"
#include "sim/platform.hpp"
#include "sim/trace.hpp"

namespace tidacc::sim {
namespace {

DeviceConfig zero_overhead_config() {
  DeviceConfig cfg = DeviceConfig::k40m();
  cfg.transfer_latency_ns = 0;
  cfg.pageable_staging_ns = 0;
  cfg.kernel_launch_ns = 0;
  cfg.oacc_dispatch_extra_ns = 0;
  cfg.host_api_overhead_ns = 0;
  cfg.sync_overhead_ns = 0;
  return cfg;
}

CopyRequest pinned_h2d(std::uint64_t bytes) {
  CopyRequest req;
  req.kind = OpKind::kCopyH2D;
  req.bytes = bytes;
  req.host_mem = HostMemKind::kPinned;
  req.label = "h2d";
  return req;
}

CopyRequest pinned_d2h(std::uint64_t bytes) {
  CopyRequest req;
  req.kind = OpKind::kCopyD2H;
  req.bytes = bytes;
  req.host_mem = HostMemKind::kPinned;
  req.label = "d2h";
  return req;
}

KernelProfile memory_bound_kernel(std::uint64_t elements) {
  KernelProfile p;
  p.elements = elements;
  p.dev_bytes_per_element = 16.0;
  p.flops_per_element = 2.0;
  return p;
}

// --- DeviceConfig ---

TEST(DeviceConfig, UsableMemoryExcludesReservation) {
  const DeviceConfig cfg = DeviceConfig::k40m();
  EXPECT_EQ(cfg.usable_memory(), cfg.memory_bytes - cfg.reserved_bytes);
}

TEST(DeviceConfig, LimitedPresetCapsUsableMemory) {
  const auto cfg = DeviceConfig::k40m_limited(100 * kMiB);
  EXPECT_EQ(cfg.usable_memory(), 100 * kMiB);
}

TEST(DeviceConfig, MathFactorsOrdered) {
  const DeviceConfig cfg = DeviceConfig::k40m();
  EXPECT_EQ(cfg.math_factor(MathClass::kNone), 0.0);
  EXPECT_GT(cfg.math_factor(MathClass::kNvccPrecise),
            cfg.math_factor(MathClass::kPgiDefault));
  EXPECT_GT(cfg.math_factor(MathClass::kPgiDefault),
            cfg.math_factor(MathClass::kNvccFastMath));
}

TEST(DeviceConfig, SummaryMentionsName) {
  EXPECT_NE(DeviceConfig::k40m().summary().find("K40m"), std::string::npos);
}

// --- KernelProfile ---

TEST(KernelProfile, MemoryBoundDurationMatchesBandwidth) {
  const DeviceConfig cfg = zero_overhead_config();
  KernelProfile p = memory_bound_kernel(1'000'000);
  // 16 MB at 205 GB/s ≈ 78048 ns; flops negligible.
  const SimTime expect = transfer_time_ns(16'000'000, cfg.device_mem_gbps);
  EXPECT_EQ(p.duration_ns(cfg), expect);
}

TEST(KernelProfile, ComputeBoundDurationMatchesFlops) {
  const DeviceConfig cfg = zero_overhead_config();
  KernelProfile p;
  p.elements = 1000;
  p.flops_per_element = 1.43e6;  // 1.43e9 flops total → 1 ms at 1.43 TF/s
  EXPECT_EQ(p.duration_ns(cfg), 1'000'000ull);
}

TEST(KernelProfile, RooflineTakesMax) {
  const DeviceConfig cfg = zero_overhead_config();
  KernelProfile mem = memory_bound_kernel(1'000'000);
  KernelProfile both = mem;
  both.flops_per_element = 1e9;  // absurdly compute heavy
  EXPECT_GT(both.duration_ns(cfg), mem.duration_ns(cfg));
}

TEST(KernelProfile, UntunedGeometryIsSlower) {
  const DeviceConfig cfg = zero_overhead_config();
  KernelProfile tuned = memory_bound_kernel(1'000'000);
  KernelProfile untuned = tuned;
  untuned.tuned_geometry = false;
  EXPECT_NEAR(static_cast<double>(untuned.duration_ns(cfg)),
              static_cast<double>(tuned.duration_ns(cfg)) *
                  cfg.untuned_geometry_factor,
              2.0);
}

TEST(KernelProfile, MathClassOrderingReflectsCodegen) {
  const DeviceConfig cfg = zero_overhead_config();
  KernelProfile p;
  p.elements = 100'000;
  p.math_units_per_element = 10;
  p.math = MathClass::kNvccPrecise;
  const SimTime nvcc = p.duration_ns(cfg);
  p.math = MathClass::kPgiDefault;
  const SimTime pgi = p.duration_ns(cfg);
  p.math = MathClass::kNvccFastMath;
  const SimTime fast = p.duration_ns(cfg);
  EXPECT_GT(nvcc, pgi);
  EXPECT_GT(pgi, fast);
}

TEST(KernelProfile, MathUnitsWithoutClassThrows) {
  KernelProfile p;
  p.elements = 10;
  p.math_units_per_element = 1;
  p.math = MathClass::kNone;
  EXPECT_THROW(p.duration_ns(DeviceConfig::k40m()), Error);
}

TEST(KernelProfile, RepeatedScalesComputeOnly) {
  const DeviceConfig cfg = zero_overhead_config();
  KernelProfile p;
  p.elements = 1000;
  p.flops_per_element = 1e6;
  const KernelProfile p4 = p.repeated(4.0);
  EXPECT_NEAR(static_cast<double>(p4.duration_ns(cfg)),
              4.0 * static_cast<double>(p.duration_ns(cfg)), 4.0);
  EXPECT_DOUBLE_EQ(p4.dev_bytes_per_element, p.dev_bytes_per_element);
}

TEST(KernelProfile, WithElementsRestricts) {
  KernelProfile p = memory_bound_kernel(1000);
  EXPECT_EQ(p.with_elements(10).elements, 10ull);
}

// --- Platform: basic stream semantics ---

TEST(Platform, OpsOnOneStreamSerialize) {
  Platform p(zero_overhead_config());
  const StreamId s = p.create_stream();
  const SimTime t1 = p.enqueue_copy(s, pinned_h2d(105'000'000), nullptr);
  const SimTime t2 = p.enqueue_copy(s, pinned_h2d(105'000'000), nullptr);
  EXPECT_EQ(t1, transfer_time_ns(105'000'000, 10.5));
  EXPECT_EQ(t2, 2 * t1);
}

TEST(Platform, DifferentEnginesOverlapAcrossStreams) {
  Platform p(zero_overhead_config());
  const StreamId s1 = p.create_stream();
  const StreamId s2 = p.create_stream();
  // H2D on s1 and D2H on s2 use different engines → identical finish times.
  const SimTime f1 = p.enqueue_copy(s1, pinned_h2d(105'000'000), nullptr);
  const SimTime f2 = p.enqueue_copy(s2, pinned_d2h(100'000'000), nullptr);
  EXPECT_EQ(f1, transfer_time_ns(105'000'000, 10.5));
  EXPECT_EQ(f2, transfer_time_ns(100'000'000, 10.0));
}

TEST(Platform, SameEngineSerializesAcrossStreams) {
  Platform p(zero_overhead_config());
  const StreamId s1 = p.create_stream();
  const StreamId s2 = p.create_stream();
  const SimTime f1 = p.enqueue_copy(s1, pinned_h2d(105'000'000), nullptr);
  const SimTime f2 = p.enqueue_copy(s2, pinned_h2d(105'000'000), nullptr);
  EXPECT_EQ(f2, f1 + f1);  // H2D engine is FIFO
}

TEST(Platform, CopyOverlapsKernelOnOtherStream) {
  Platform p(zero_overhead_config());
  const StreamId s1 = p.create_stream();
  const StreamId s2 = p.create_stream();
  const SimTime fk =
      p.enqueue_kernel(s1, memory_bound_kernel(10'000'000), 0, nullptr, "k");
  const SimTime fc = p.enqueue_copy(s2, pinned_h2d(105'000'000), nullptr);
  // both start at 0 on their own engines
  EXPECT_EQ(fk, memory_bound_kernel(10'000'000).duration_ns(p.config()));
  EXPECT_EQ(fc, transfer_time_ns(105'000'000, 10.5));
}

TEST(Platform, KernelsSerializeOnComputeEngine) {
  Platform p(zero_overhead_config());
  const StreamId s1 = p.create_stream();
  const StreamId s2 = p.create_stream();
  const auto prof = memory_bound_kernel(1'000'000);
  const SimTime f1 = p.enqueue_kernel(s1, prof, 0, nullptr, "k1");
  const SimTime f2 = p.enqueue_kernel(s2, prof, 0, nullptr, "k2");
  EXPECT_EQ(f2, 2 * f1);
}

TEST(Platform, SingleCopyEngineSerializesBothDirections) {
  DeviceConfig cfg = zero_overhead_config();
  cfg.copy_engines = 1;
  Platform p(cfg);
  const StreamId s1 = p.create_stream();
  const StreamId s2 = p.create_stream();
  const SimTime f1 = p.enqueue_copy(s1, pinned_h2d(105'000'000), nullptr);
  const SimTime f2 = p.enqueue_copy(s2, pinned_d2h(100'000'000), nullptr);
  EXPECT_EQ(f2, f1 + transfer_time_ns(100'000'000, 10.0));
}

// --- Platform: host/pageable semantics ---

TEST(Platform, PinnedAsyncCopyDoesNotBlockHost) {
  Platform p(zero_overhead_config());
  const StreamId s = p.create_stream();
  p.enqueue_copy(s, pinned_h2d(1'000'000'000), nullptr);
  EXPECT_EQ(p.now(), 0ull);  // host returned immediately
}

TEST(Platform, PageableAsyncCopyBlocksHost) {
  Platform p(zero_overhead_config());
  const StreamId s = p.create_stream();
  CopyRequest req = pinned_h2d(580'000'000);
  req.host_mem = HostMemKind::kPageable;
  const SimTime f = p.enqueue_copy(s, req, nullptr);
  EXPECT_EQ(p.now(), f);  // staging holds the host
  EXPECT_EQ(f, transfer_time_ns(580'000'000, 5.8));
}

TEST(Platform, BlockingCopyBlocksHostEvenWhenPinned) {
  Platform p(zero_overhead_config());
  const StreamId s = p.create_stream();
  CopyRequest req = pinned_h2d(105'000'000);
  req.blocking = true;
  const SimTime f = p.enqueue_copy(s, req, nullptr);
  EXPECT_EQ(p.now(), f);
}

TEST(Platform, PageableIsSlowerThanPinned) {
  Platform p(zero_overhead_config());
  const StreamId s1 = p.create_stream();
  Platform q(zero_overhead_config());
  const StreamId s2 = q.create_stream();
  CopyRequest pageable = pinned_h2d(100'000'000);
  pageable.host_mem = HostMemKind::kPageable;
  EXPECT_GT(p.enqueue_copy(s1, pageable, nullptr),
            q.enqueue_copy(s2, pinned_h2d(100'000'000), nullptr));
}

TEST(Platform, HostAdvanceMovesClock) {
  Platform p(zero_overhead_config());
  p.host_advance(123);
  EXPECT_EQ(p.now(), 123ull);
}

TEST(Platform, OpsCannotStartBeforeEnqueueTime) {
  Platform p(zero_overhead_config());
  const StreamId s = p.create_stream();
  p.host_advance(1000);
  const SimTime f = p.enqueue_copy(s, pinned_h2d(105'000'000), nullptr);
  EXPECT_EQ(f, 1000 + transfer_time_ns(105'000'000, 10.5));
}

// --- Platform: sync ---

TEST(Platform, SyncStreamAdvancesHostToCompletion) {
  Platform p(zero_overhead_config());
  const StreamId s = p.create_stream();
  const SimTime f = p.enqueue_copy(s, pinned_h2d(1'050'000'000), nullptr);
  EXPECT_LT(p.now(), f);
  p.sync_stream(s);
  EXPECT_EQ(p.now(), f);
}

TEST(Platform, SyncAllWaitsForEveryStream) {
  Platform p(zero_overhead_config());
  const StreamId s1 = p.create_stream();
  const StreamId s2 = p.create_stream();
  p.enqueue_copy(s1, pinned_h2d(105'000'000), nullptr);
  const SimTime f2 = p.enqueue_copy(s2, pinned_h2d(105'000'000), nullptr);
  p.sync_all();
  EXPECT_EQ(p.now(), f2);
}

TEST(Platform, StreamIdleReflectsPendingWork) {
  Platform p(zero_overhead_config());
  const StreamId s = p.create_stream();
  EXPECT_TRUE(p.stream_idle(s));
  p.enqueue_copy(s, pinned_h2d(105'000'000), nullptr);
  EXPECT_FALSE(p.stream_idle(s));
  p.sync_stream(s);
  EXPECT_TRUE(p.stream_idle(s));
}

// --- Platform: events ---

TEST(Platform, EventRecordsStreamCompletionTime) {
  Platform p(zero_overhead_config());
  const StreamId s = p.create_stream();
  const SimTime f = p.enqueue_copy(s, pinned_h2d(105'000'000), nullptr);
  const EventId e = p.record_event(s);
  EXPECT_EQ(p.event_finish(e), f);
}

TEST(Platform, StreamWaitEventCreatesDependency) {
  Platform p(zero_overhead_config());
  const StreamId s1 = p.create_stream();
  const StreamId s2 = p.create_stream();
  const SimTime f1 = p.enqueue_copy(s1, pinned_h2d(105'000'000), nullptr);
  const EventId e = p.record_event(s1);
  p.stream_wait_event(s2, e);
  // s2's D2H engine is free, but it must wait for the event.
  const SimTime f2 = p.enqueue_copy(s2, pinned_d2h(100'000'000), nullptr);
  EXPECT_EQ(f2, f1 + transfer_time_ns(100'000'000, 10.0));
}

TEST(Platform, SyncEventBlocksHost) {
  Platform p(zero_overhead_config());
  const StreamId s = p.create_stream();
  const SimTime f = p.enqueue_copy(s, pinned_h2d(105'000'000), nullptr);
  const EventId e = p.record_event(s);
  p.sync_event(e);
  EXPECT_EQ(p.now(), f);
}

// --- Platform: functional duality ---

TEST(Platform, FunctionalModeRunsActions) {
  Platform p(zero_overhead_config(), /*functional=*/true);
  const StreamId s = p.create_stream();
  int ran = 0;
  p.enqueue_copy(s, pinned_h2d(8), [&ran] { ++ran; });
  p.enqueue_kernel(s, memory_bound_kernel(1), 0, [&ran] { ++ran; }, "k");
  EXPECT_EQ(ran, 2);
}

TEST(Platform, TimingOnlyModeSkipsActions) {
  Platform p(zero_overhead_config(), /*functional=*/false);
  const StreamId s = p.create_stream();
  int ran = 0;
  p.enqueue_copy(s, pinned_h2d(8), [&ran] { ++ran; });
  EXPECT_EQ(ran, 0);
}

TEST(Platform, ActionsRunInEnqueueOrder) {
  Platform p(zero_overhead_config());
  const StreamId s = p.create_stream();
  std::vector<int> order;
  p.enqueue_copy(s, pinned_h2d(8), [&order] { order.push_back(1); });
  p.enqueue_kernel(s, memory_bound_kernel(1), 0,
                   [&order] { order.push_back(2); }, "k");
  p.enqueue_copy(s, pinned_d2h(8), [&order] { order.push_back(3); });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// --- Platform: overheads ---

TEST(Platform, ApiOverheadChargesHost) {
  DeviceConfig cfg = zero_overhead_config();
  cfg.host_api_overhead_ns = 2000;
  Platform p(cfg);
  const StreamId s = p.create_stream();
  p.enqueue_copy(s, pinned_h2d(8), nullptr);
  EXPECT_EQ(p.now(), 2000ull);
}

TEST(Platform, KernelLaunchLatencyIncluded) {
  DeviceConfig cfg = zero_overhead_config();
  cfg.kernel_launch_ns = 6000;
  Platform p(cfg);
  const StreamId s = p.create_stream();
  const SimTime f = p.enqueue_kernel(s, memory_bound_kernel(0), 0, nullptr,
                                     "empty");
  EXPECT_EQ(f, 6000ull);
}

TEST(Platform, DispatchExtraChargedToHost) {
  DeviceConfig cfg = zero_overhead_config();
  cfg.host_api_overhead_ns = 1000;
  Platform p(cfg);
  const StreamId s = p.create_stream();
  p.enqueue_kernel(s, memory_bound_kernel(0), 4000, nullptr, "acc");
  EXPECT_EQ(p.now(), 5000ull);
}

// --- Platform: misc ---

TEST(Platform, InvalidStreamRejected) {
  Platform p(zero_overhead_config());
  EXPECT_THROW(p.enqueue_copy(99, pinned_h2d(8), nullptr), Error);
  EXPECT_THROW(p.sync_stream(-1), Error);
}

TEST(Platform, DestroyedStreamRejected) {
  Platform p(zero_overhead_config());
  const StreamId s = p.create_stream();
  p.destroy_stream(s);
  EXPECT_THROW(p.enqueue_copy(s, pinned_h2d(8), nullptr), Error);
}

TEST(Platform, DefaultStreamCannotBeDestroyed) {
  Platform p(zero_overhead_config());
  EXPECT_THROW(p.destroy_stream(0), Error);
}

TEST(Platform, GlobalInstanceResets) {
  Platform::reset_instance(zero_overhead_config(), true);
  Platform::instance().host_advance(10);
  EXPECT_EQ(Platform::instance().now(), 10ull);
  Platform::reset_instance(zero_overhead_config(), true);
  EXPECT_EQ(Platform::instance().now(), 0ull);
}

// --- CopyRequest extras ---

TEST(Platform, CopyExtraNsExtendsDuration) {
  Platform p(zero_overhead_config());
  const StreamId s = p.create_stream();
  CopyRequest req = pinned_h2d(105'000'000);
  req.extra_ns = 5000;
  const SimTime f = p.enqueue_copy(s, req, nullptr);
  EXPECT_EQ(f, transfer_time_ns(105'000'000, 10.5) + 5000);
}

TEST(Platform, CopyBandwidthOverrideReplacesConfigRate) {
  Platform p(zero_overhead_config());
  const StreamId s = p.create_stream();
  CopyRequest req = pinned_h2d(100'000'000);
  req.gbps_override = 50.0;
  const SimTime f = p.enqueue_copy(s, req, nullptr);
  EXPECT_EQ(f, transfer_time_ns(100'000'000, 50.0));
  // Trace still accounts the true byte count.
  EXPECT_EQ(p.trace().stats().h2d_bytes, 100'000'000ull);
}

TEST(Platform, CopyRunsForExactlyItsPrice) {
  // copy_ns is the one price of a copy: with jitter off the scheduler adds
  // nothing to it, whatever the kind, host memory or shape.
  Platform p(DeviceConfig::k40m(), /*functional=*/false);
  CopyRequest pageable = pinned_d2h(1 << 20);
  pageable.host_mem = HostMemKind::kPageable;
  CopyRequest pitched = pinned_h2d(1 << 16);
  pitched.kind = OpKind::kMemcpy3DH2D;
  pitched.chunks = 64;
  CopyRequest packed = pinned_d2h(1 << 20);
  packed.kind = OpKind::kMemcpyD2HCompressed;
  packed.wire_bytes = 1 << 19;
  CopyRequest d2d = pinned_h2d(1 << 20);
  d2d.kind = OpKind::kCopyD2D;
  for (const CopyRequest& req :
       {pinned_h2d(1 << 20), pageable, pitched, packed, d2d}) {
    p.enqueue_copy(0, req, nullptr);
    EXPECT_EQ(p.last_op_finish() - p.last_op_start(),
              copy_ns(p.config(), req))
        << to_string(req.kind);
  }
}

// --- concurrent kernel lanes ---

TEST(Platform, ConcurrentLanesAllowKernelOverlap) {
  DeviceConfig cfg = zero_overhead_config();
  cfg.compute_lanes = 2;
  Platform p(cfg);
  const StreamId s1 = p.create_stream();
  const StreamId s2 = p.create_stream();
  const auto prof = memory_bound_kernel(1'000'000);
  const SimTime f1 = p.enqueue_kernel(s1, prof, 0, nullptr, "k1");
  const SimTime f2 = p.enqueue_kernel(s2, prof, 0, nullptr, "k2");
  EXPECT_EQ(f1, f2);  // two lanes: both start at t=0
  const SimTime f3 = p.enqueue_kernel(s1, prof, 0, nullptr, "k3");
  EXPECT_EQ(f3, 2 * f1);  // stream order still serializes within s1
}

TEST(Platform, ThirdKernelWaitsForALane) {
  DeviceConfig cfg = zero_overhead_config();
  cfg.compute_lanes = 2;
  Platform p(cfg);
  const StreamId s1 = p.create_stream();
  const StreamId s2 = p.create_stream();
  const StreamId s3 = p.create_stream();
  const auto prof = memory_bound_kernel(1'000'000);
  const SimTime f1 = p.enqueue_kernel(s1, prof, 0, nullptr, "k1");
  p.enqueue_kernel(s2, prof, 0, nullptr, "k2");
  const SimTime f3 = p.enqueue_kernel(s3, prof, 0, nullptr, "k3");
  EXPECT_EQ(f3, 2 * f1);  // waits for a lane to free
}

TEST(Platform, InvalidLaneCountRejected) {
  DeviceConfig cfg = zero_overhead_config();
  cfg.compute_lanes = 0;
  EXPECT_THROW(Platform{cfg}, Error);
}

// --- Trace ---

TEST(Trace, StatsAccumulateBytesAndCounts) {
  Platform p(zero_overhead_config());
  const StreamId s = p.create_stream();
  p.enqueue_copy(s, pinned_h2d(100), nullptr);
  p.enqueue_copy(s, pinned_d2h(50), nullptr);
  p.enqueue_kernel(s, memory_bound_kernel(10), 0, nullptr, "k");
  const TraceStats& st = p.trace().stats();
  EXPECT_EQ(st.h2d_bytes, 100ull);
  EXPECT_EQ(st.d2h_bytes, 50ull);
  EXPECT_EQ(st.num_copies, 2ull);
  EXPECT_EQ(st.num_kernels, 1ull);
}

TEST(Trace, RecordingOffKeepsStatsOnly) {
  Platform p(zero_overhead_config());
  p.trace().set_recording(false);
  const StreamId s = p.create_stream();
  p.enqueue_copy(s, pinned_h2d(100), nullptr);
  EXPECT_TRUE(p.trace().events().empty());
  EXPECT_EQ(p.trace().stats().h2d_bytes, 100ull);
}

TEST(Trace, GanttShowsLanesPerStream) {
  Platform p(zero_overhead_config());
  const StreamId s1 = p.create_stream();
  const StreamId s2 = p.create_stream();
  p.enqueue_copy(s1, pinned_h2d(105'000'000), nullptr);
  p.enqueue_kernel(s2, memory_bound_kernel(1'000'000), 0, nullptr, "k");
  const std::string g = p.trace().render_gantt(60);
  EXPECT_NE(g.find("s1/copy-h2d"), std::string::npos);
  EXPECT_NE(g.find("s2/compute"), std::string::npos);
  EXPECT_NE(g.find('>'), std::string::npos);
  EXPECT_NE(g.find('C'), std::string::npos);
}

TEST(Trace, GanttEmptyTrace) {
  Trace t;
  EXPECT_EQ(t.render_gantt(), "(empty trace)\n");
}

TEST(Trace, ClearResetsEverything) {
  Platform p(zero_overhead_config());
  const StreamId s = p.create_stream();
  p.enqueue_copy(s, pinned_h2d(100), nullptr);
  p.trace().clear();
  EXPECT_TRUE(p.trace().events().empty());
  EXPECT_EQ(p.trace().stats().h2d_bytes, 0ull);
}

TEST(Trace, ChromeJsonContainsEvents) {
  Platform p(zero_overhead_config());
  const StreamId s = p.create_stream();
  p.enqueue_copy(s, pinned_h2d(105'000'000), nullptr);
  p.enqueue_kernel(s, memory_bound_kernel(1'000'000), 0, nullptr, "mykern");
  const std::string json = p.trace().to_chrome_json();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"mykern\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"H2D\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"stream\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"bytes\": 105000000"), std::string::npos);
}

TEST(Trace, ChromeJsonSkipsEventMarkers) {
  Platform p(zero_overhead_config());
  const StreamId s = p.create_stream();
  p.record_event(s);
  const std::string json = p.trace().to_chrome_json();
  EXPECT_EQ(json.find("\"event\""), std::string::npos);
}

TEST(Trace, MakespanTracksLastFinish) {
  Platform p(zero_overhead_config());
  const StreamId s = p.create_stream();
  const SimTime f = p.enqueue_copy(s, pinned_h2d(105'000'000), nullptr);
  EXPECT_EQ(p.trace().stats().makespan, f);
}

// --- OpKind completeness (see kNumOpKinds in trace.hpp) ---

TEST(OpKindEnum, EveryKindIsNamedAndClassified) {
  // The compile-time guard is -Wswitch over the default-less switches in
  // to_string/is_transfer; this sweep is the test-time backstop that also
  // catches kNumOpKinds itself going stale (a new enumerator past the
  // recorded last one would map to "?" here).
  for (int i = 0; i < kNumOpKinds; ++i) {
    const auto k = static_cast<OpKind>(i);
    EXPECT_STRNE(to_string(k), "?") << "OpKind " << i << " is unnamed";
  }
  int transfers = 0;
  for (int i = 0; i < kNumOpKinds; ++i) {
    transfers += is_transfer(static_cast<OpKind>(i)) ? 1 : 0;
  }
  // Every kind except kKernel and kEventRecord moves bytes.
  EXPECT_EQ(transfers, kNumOpKinds - 2);
  EXPECT_FALSE(is_transfer(OpKind::kKernel));
  EXPECT_FALSE(is_transfer(OpKind::kEventRecord));
  EXPECT_TRUE(is_transfer(OpKind::kCopyH2D));
  EXPECT_TRUE(is_transfer(OpKind::kNetSend));
  EXPECT_TRUE(is_transfer(OpKind::kMemcpy3DD2HCompressed));
}

}  // namespace
}  // namespace tidacc::sim

// Tests for transfer compression as a link optimization: CodecConfig
// arithmetic, the exact pricing of compressed copies against the raw
// path, loud failures on codec-less configs and bad directions, bitwise
// equality of compressed workloads across every array class and policy,
// the kAuto never-slower guarantee, logical-vs-wire byte accounting, the
// cluster/time_block_k composition, the one-shot host-fallback
// warning, and snapshot round trips with compression on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "core/cluster_tile_array.hpp"
#include "core/tidacc.hpp"
#include "core/world_snapshot.hpp"
#include "net/fabric.hpp"
#include "sim/trace.hpp"

namespace tidacc::core {
namespace {

using sim::CodecConfig;
using sim::DeviceConfig;
using sim::FabricConfig;
using sim::Interconnect;
using sim::PayloadKind;
using tida::Boundary;
using tida::Box;
using tida::Index3;

double heat_fill(const Index3& p) {
  return static_cast<double>(1 + p.i + 10 * p.j + 100 * p.k);
}

double sincos_fill(const Index3& p) {
  return std::sin(0.1 * p.i) + 0.5 * std::cos(0.2 * p.j) + 0.01 * p.k;
}

oacc::LoopCost unit_cost() {
  oacc::LoopCost c;
  c.flops_per_iter = 4;
  c.dev_bytes_per_iter = 16;
  return c;
}

// In-place ghost-reading sweep: writes only valid cells, so the result is
// independent of the transfer protocol — any checksum drift between
// compression policies is a codec-path bug.
constexpr auto kSweepBody = [](DeviceView<double> v, int i, int j, int k) {
  v(i, j, k) = 0.5 * v(i, j, k) +
               0.125 * (v(i, j, k - 1) + v(i, j, k + 1) + v(i - 1, j, k) +
                        v(i + 1, j, k));
};

/// FNV-1a over every valid cell after releasing to host.
template <typename Array>
std::uint64_t host_checksum(Array& u) {
  u.release_all_to_host();
  std::uint64_t h = 1469598103934665603ull;
  for (int r = 0; r < u.num_regions(); ++r) {
    const tida::Region<double> reg = u.region(r);
    for (int k = reg.valid.lo.k; k <= reg.valid.hi.k; ++k) {
      for (int j = reg.valid.lo.j; j <= reg.valid.hi.j; ++j) {
        for (int i = reg.valid.lo.i; i <= reg.valid.hi.i; ++i) {
          const double v = reg.at(i, j, k);
          const unsigned char* b =
              reinterpret_cast<const unsigned char*>(&v);
          for (std::size_t n = 0; n < sizeof(double); ++n) {
            h = (h ^ b[n]) * 1099511628211ull;
          }
        }
      }
    }
  }
  return h;
}

// --- CodecConfig arithmetic ---

TEST(CodecConfigTest, RatiosWireBytesAndStageTime) {
  CodecConfig c;
  EXPECT_DOUBLE_EQ(c.ratio(PayloadKind::kInterior), c.interior_ratio);
  EXPECT_DOUBLE_EQ(c.ratio(PayloadKind::kFaceShell), c.face_ratio);
  EXPECT_DOUBLE_EQ(c.ratio(PayloadKind::kGhostRefresh), c.ghost_ratio);
  EXPECT_GE(c.ratio(PayloadKind::kInterior), 1.0);

  // Rounded up, clamped to [1, logical], 0 only for an empty payload.
  EXPECT_EQ(c.wire_bytes(0, PayloadKind::kInterior), 0u);
  EXPECT_EQ(c.wire_bytes(1, PayloadKind::kInterior), 1u);
  const std::uint64_t logical = 1 << 20;
  const std::uint64_t wire = c.wire_bytes(logical, PayloadKind::kInterior);
  EXPECT_GT(wire, 0u);
  EXPECT_LT(wire, logical);
  EXPECT_EQ(wire, static_cast<std::uint64_t>(
                      std::ceil(static_cast<double>(logical) /
                                c.interior_ratio)));
  // A ratio-1 codec never grows the payload past logical.
  CodecConfig flat = c;
  flat.ghost_ratio = 1.0;
  EXPECT_EQ(flat.wire_bytes(logical, PayloadKind::kGhostRefresh), logical);

  // Encode + decode passes over the logical payload plus both launches.
  EXPECT_EQ(c.codec_time_ns(logical),
            2 * c.launch_ns + transfer_time_ns(logical, c.encode_gbps) +
                transfer_time_ns(logical, c.decode_gbps));
  EXPECT_FALSE(c.summary().empty());
}

// --- compressed copy pricing against the raw path ---

class CompressionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cuem::configure(DeviceConfig::k40m(), /*functional=*/true);
    oacc::reset();
  }
};

TEST_F(CompressionTest, CompressedCopyPaysCodecPlusShrunkWire) {
  const DeviceConfig& cfg = cuem::platform().config();
  const std::size_t n = 1 << 20;
  void* host = cuem::host_alloc(n, /*pinned=*/true);
  void* dev = nullptr;
  ASSERT_EQ(cuemMalloc(&dev, n), cuemSuccess);
  cuemStream_t s = 0;
  ASSERT_EQ(cuemStreamCreate(&s), cuemSuccess);

  // Identical enqueue+sync sequences, so every fixed overhead cancels and
  // the makespan difference is exactly the codec stages plus the shrunken
  // minus the raw wire time.
  const SimTime raw0 = cuem::platform().now();
  ASSERT_EQ(cuemMemcpyAsync(dev, host, n, cuemMemcpyHostToDevice, s),
            cuemSuccess);
  ASSERT_EQ(cuemStreamSynchronize(s), cuemSuccess);
  const SimTime raw = cuem::platform().now() - raw0;

  const SimTime comp0 = cuem::platform().now();
  ASSERT_EQ(cuem::memcpy_async(dev, host, n, cuemMemcpyHostToDevice, s,
                               cuem::Route::codec(PayloadKind::kInterior),
                               ""),
            cuemSuccess);
  ASSERT_EQ(cuemStreamSynchronize(s), cuemSuccess);
  const SimTime comp = cuem::platform().now() - comp0;

  const std::uint64_t wire = cfg.codec.wire_bytes(n, PayloadKind::kInterior);
  EXPECT_EQ(comp - raw,
            cfg.codec.codec_time_ns(n) +
                transfer_time_ns(wire, cfg.pinned_h2d_gbps) -
                transfer_time_ns(n, cfg.pinned_h2d_gbps));

  // The logical-vs-wire split lands in the trace stats.
  const sim::TraceStats st = cuem::platform().trace().stats();
  EXPECT_EQ(st.comp_h2d_bytes, n);
  EXPECT_EQ(st.comp_h2d_wire_bytes, wire);

  ASSERT_EQ(cuemStreamDestroy(s), cuemSuccess);
  ASSERT_EQ(cuemFree(dev), cuemSuccess);
  cuem::host_free(host);
}

TEST_F(CompressionTest, CompressedCopyRejectsBadDirectionAndCodeclessConfig) {
  void* a = nullptr;
  void* b = nullptr;
  ASSERT_EQ(cuemMalloc(&a, 4096), cuemSuccess);
  ASSERT_EQ(cuemMalloc(&b, 4096), cuemSuccess);
  std::vector<char> h(4096);
  std::vector<char> g(4096);
  // The codec sits on the host link; device-to-device and host-to-host
  // copies never compress.
  const cuem::Route codec = cuem::Route::codec(PayloadKind::kInterior);
  EXPECT_EQ(cuem::memcpy_async(a, b, 4096, cuemMemcpyDeviceToDevice,
                               /*stream=*/0, codec, ""),
            cuemErrorInvalidMemcpyDirection);
  EXPECT_EQ(cuem::memcpy_async(h.data(), g.data(), 4096,
                               cuemMemcpyHostToHost, /*stream=*/0, codec, ""),
            cuemErrorInvalidMemcpyDirection);
  ASSERT_EQ(cuemFree(a), cuemSuccess);
  ASSERT_EQ(cuemFree(b), cuemSuccess);

  // On a codec-less config the copy fails loudly, flat or pitched, and so
  // does an array asked to compress.
  DeviceConfig cfg = DeviceConfig::k40m();
  cfg.codec.available = false;
  cuem::configure(cfg, /*functional=*/true);
  oacc::reset();
  void* d = nullptr;
  ASSERT_EQ(cuemMalloc(&d, 4096), cuemSuccess);
  void* p = cuem::host_alloc(4096, /*pinned=*/true);
  EXPECT_THROW((void)cuem::memcpy_async(d, p, 4096, cuemMemcpyHostToDevice,
                                        /*stream=*/0, codec, ""),
               Error);
  cuemMemcpy3DParms box;
  box.dst = d;
  box.src = p;
  box.dst_pitch = box.src_pitch = box.width = 64;
  box.dst_slice_pitch = box.src_slice_pitch = 64 * 4;
  box.height = 4;
  box.depth = 2;
  box.kind = cuemMemcpyHostToDevice;
  EXPECT_THROW((void)cuem::memcpy3d_async(box, /*stream=*/0, codec, ""),
               Error);
  ASSERT_EQ(cuemFree(d), cuemSuccess);
  cuem::host_free(p);
  AccOptions o;
  o.compression = Compression::kOn;
  EXPECT_THROW(AccTileArray<double>(Box::cube(8), Index3::uniform(4), 1, o),
               Error);
}

TEST_F(CompressionTest, PrefetchNeverCompressesAndCountsAsPrefetch) {
  // A prefetch goes through copy_region like a demand upload, but on its
  // own route: traced kPrefetchH2D at full wire size, counted in
  // prefetch_ops and never as a flat upload — even with the codec forced.
  AccOptions o;
  o.max_slots = 2;
  o.compression = Compression::kOn;
  AccTileArray<double> a(Box::cube(8), Index3{8, 8, 2}, 1, o);
  a.fill(heat_fill);
  cuem::platform().trace().set_recording(true);
  const std::uint64_t bytes = a.region_bytes(0);
  ASSERT_TRUE(a.prefetch_to_device(0));
  const sim::Trace& trace = cuem::platform().trace();
  ASSERT_EQ(trace.events().size(), 1u);
  EXPECT_EQ(trace.events()[0].kind, sim::OpKind::kPrefetchH2D);
  EXPECT_EQ(trace.events()[0].label, "P:R0");
  EXPECT_EQ(trace.stats().prefetch_h2d_bytes, bytes);
  EXPECT_EQ(trace.stats().comp_h2d_bytes, 0u);
  TransferAccounting x = a.transfers();
  EXPECT_EQ(x.prefetch_ops, 1u);
  EXPECT_EQ(x.flat_h2d_ops, 0u);
  EXPECT_EQ(x.comp_h2d_ops, 0u);
  EXPECT_EQ(x.h2d_bytes, bytes);
  EXPECT_EQ(x.h2d_wire_bytes, bytes);

  // A demand upload of another region is a compressed flat upload.
  a.acquire_on_device(1);
  x = a.transfers();
  EXPECT_EQ(x.prefetch_ops, 1u);
  EXPECT_EQ(x.flat_h2d_ops, 1u);
  EXPECT_EQ(x.comp_h2d_ops, 1u);
  EXPECT_EQ(trace.events().back().kind, sim::OpKind::kMemcpyH2DCompressed);
  EXPECT_EQ(trace.events().back().label, "zH2D:R1");
}

// --- bitwise equality + accounting + kAuto guarantee, single device ---

struct AccRun {
  std::uint64_t sum = 0;
  SimTime makespan = 0;
  TransferAccounting xfer;
};

AccRun run_acc(Compression mode, double (*fill)(const Index3&)) {
  cuem::configure(DeviceConfig::k40m(), /*functional=*/true);
  oacc::reset();
  AccOptions o;
  o.max_slots = 4;  // out of core: 8 regions through 4 slots
  o.delta_transfers = true;
  o.compression = mode;
  AccTileArray<double> u(Box::cube(16), Index3{16, 16, 2}, 1, o);
  u.fill(fill);
  u.assume_host_initialized();
  const oacc::LoopCost cost = unit_cost();
  const SimTime t0 = cuem::platform().now();
  for (int s = 0; s < 3; ++s) {
    u.fill_boundary(Boundary::kPeriodic);
    for (int r = 0; r < u.num_regions(); ++r) {
      const tida::Region<double> reg = u.region(r);
      const AccTile<double> tile{&u, tida::Tile<double>{reg, reg.valid},
                                 /*gpu=*/true};
      compute(tile, cost, kSweepBody);
    }
  }
  AccRun out;
  out.sum = host_checksum(u);
  out.makespan = cuem::platform().now() - t0;
  out.xfer = u.transfers();
  return out;
}

TEST(CompressionPolicyTest, SingleDeviceFieldsMatchBitwiseAcrossPolicies) {
  for (double (*fill)(const Index3&) : {&heat_fill, &sincos_fill}) {
    const AccRun off = run_acc(Compression::kOff, fill);
    const AccRun on = run_acc(Compression::kOn, fill);
    const AccRun au = run_acc(Compression::kAuto, fill);
    EXPECT_EQ(off.sum, on.sum);
    EXPECT_EQ(off.sum, au.sum);

    // Raw puts the full payload on the wire; forced compression shrinks
    // it; both move the same logical bytes.
    EXPECT_EQ(off.xfer.h2d_wire_bytes, off.xfer.h2d_bytes);
    EXPECT_EQ(off.xfer.d2h_wire_bytes, off.xfer.d2h_bytes);
    EXPECT_EQ(off.xfer.comp_h2d_ops + off.xfer.comp_d2h_ops, 0u);
    EXPECT_EQ(on.xfer.h2d_bytes, off.xfer.h2d_bytes);
    EXPECT_EQ(on.xfer.d2h_bytes, off.xfer.d2h_bytes);
    EXPECT_LT(on.xfer.h2d_wire_bytes, on.xfer.h2d_bytes);
    EXPECT_LT(on.xfer.d2h_wire_bytes, on.xfer.d2h_bytes);
    EXPECT_GT(on.xfer.comp_h2d_ops + on.xfer.comp_d2h_ops, 0u);

    // The cost model mirrors the pricing exactly and the schedule is
    // monotone in op durations, so kAuto can never lose to either fixed
    // policy.
    EXPECT_LE(au.makespan, off.makespan);
    EXPECT_LE(au.makespan, on.makespan);
  }
}

// --- multi-device ---

std::uint64_t run_multi(Compression mode) {
  cuem::configure(DeviceConfig::k40m(), /*functional=*/true,
                  /*num_devices=*/2, Interconnect::pcie());
  oacc::reset();
  MultiAccOptions o;
  o.devices = 2;
  o.max_slots = 2;  // out of core on each device
  o.delta_transfers = true;
  o.compression = mode;
  MultiAccTileArray<double> u(Box::cube(16), Index3{16, 16, 2}, 1, o);
  u.fill(heat_fill);
  u.assume_host_initialized();
  const oacc::LoopCost cost = unit_cost();
  for (int s = 0; s < 3; ++s) {
    u.fill_boundary(Boundary::kPeriodic);
    for (int r = 0; r < u.num_regions(); ++r) {
      compute_gpu(u, r, cost, kSweepBody);
    }
  }
  return host_checksum(u);
}

TEST(CompressionPolicyTest, MultiDeviceFieldsMatchBitwiseAcrossPolicies) {
  const std::uint64_t off = run_multi(Compression::kOff);
  EXPECT_EQ(off, run_multi(Compression::kOn));
  EXPECT_EQ(off, run_multi(Compression::kAuto));
}

// --- cluster: wire codec on both paths ---

std::uint64_t run_cluster(Compression mode, NetPath path,
                          const FabricConfig& fabric) {
  cuem::configure(DeviceConfig::k40m(), /*functional=*/true,
                  /*num_devices=*/2, Interconnect::pcie());
  oacc::reset();
  ClusterOptions o;
  o.nodes = 2;
  o.fabric = fabric;
  o.path = path;
  o.compression = mode;
  ClusterTileArray<double> u(Box::cube(16), Index3{16, 16, 2}, 1, o);
  u.fill(heat_fill);
  u.assume_host_initialized();
  const oacc::LoopCost cost = unit_cost();
  for (int r = 0; r < u.num_regions(); ++r) {
    u.acquire_on_device(r);
  }
  for (int s = 0; s < 3; ++s) {
    u.fill_boundary(Boundary::kPeriodic);
    for (int r = 0; r < u.num_regions(); ++r) {
      compute_gpu(u, r, cost, kSweepBody);
    }
  }
  return host_checksum(u);
}

TEST(CompressionPolicyTest, ClusterFieldsMatchBitwiseOnBothWirePaths) {
  const std::uint64_t off = run_cluster(
      Compression::kOff, NetPath::kGpuDirect, FabricConfig::infiniband());
  EXPECT_EQ(off, run_cluster(Compression::kOn, NetPath::kGpuDirect,
                             FabricConfig::infiniband()));
  EXPECT_EQ(off, run_cluster(Compression::kAuto, NetPath::kGpuDirect,
                             FabricConfig::infiniband()));
  EXPECT_EQ(off, run_cluster(Compression::kOn, NetPath::kStaged,
                             FabricConfig::ethernet()));
  EXPECT_EQ(off, run_cluster(Compression::kAuto, NetPath::kStaged,
                             FabricConfig::ethernet()));
}

TEST(CompressionPolicyTest, ClusterWireCountersTrackTheCodec) {
  cuem::configure(DeviceConfig::k40m(), /*functional=*/true,
                  /*num_devices=*/2, Interconnect::pcie());
  oacc::reset();
  ClusterOptions o;
  o.nodes = 2;
  o.compression = Compression::kOn;
  ClusterTileArray<double> u(Box::cube(16), Index3{16, 16, 2}, 1, o);
  u.fill(heat_fill);
  for (int r = 0; r < u.num_regions(); ++r) {
    u.acquire_on_device(r);
  }
  u.fill_boundary(Boundary::kPeriodic);
  const sim::FabricCounters& c = u.fabric().counters();
  EXPECT_GT(c.net_bytes, 0u);
  EXPECT_LT(c.net_wire_bytes, c.net_bytes);
  EXPECT_GT(c.compressed_wrs, 0u);
  u.release_all_to_host();
}

TEST(CompressionPolicyTest, ClusterRejectsWireCompressionWithoutACodec) {
  cuem::configure(DeviceConfig::k40m(), /*functional=*/true,
                  /*num_devices=*/2, Interconnect::pcie());
  oacc::reset();
  ClusterOptions o;
  o.nodes = 2;
  o.fabric.codec.available = false;
  o.compression = Compression::kOn;
  EXPECT_THROW(
      ClusterTileArray<double>(Box::cube(16), Index3{16, 16, 2}, 1, o),
      Error);
}

// --- satellite guards: composition + host-fallback warning ---

TEST(CompressionPolicyTest, ClusterComposesTemporalBlockingWithCompression) {
  // k = 2 blocks on two nodes: the (compressed) wire and PCIe legs carry
  // the 2-wide ghost ring, and every codec policy yields the raw field.
  const auto run = [](Compression mode) {
    cuem::configure(DeviceConfig::k40m(), /*functional=*/true,
                    /*num_devices=*/2, Interconnect::pcie());
    oacc::reset();
    ClusterOptions o;
    o.nodes = 2;
    o.multi.time_block_k = 2;
    o.multi.compression = mode;
    o.compression = mode;
    ClusterTileArray<double> u(Box::cube(16), Index3{16, 16, 2}, 2, o);
    u.fill(heat_fill);
    for (int s = 0; s < 2; ++s) {
      u.fill_boundary(Boundary::kPeriodic);
      for (int r = 0; r < u.num_regions(); ++r) {
        compute_k(u, r, 2, /*radius=*/1, unit_cost(),
                  [](DeviceView<double> in, DeviceView<double> out, int i,
                     int j, int k) {
                    out(i, j, k) = 0.5 * in(i, j, k) +
                                   0.125 * (in(i, j, k - 1) + in(i, j, k + 1) +
                                            in(i - 1, j, k) + in(i + 1, j, k));
                  });
      }
    }
    return std::make_pair(host_checksum(u),
                          u.fabric().counters().compressed_wrs);
  };
  const auto raw = run(Compression::kOff);
  EXPECT_EQ(raw.second, 0u);
  const auto on = run(Compression::kOn);
  EXPECT_GT(on.second, 0u);
  EXPECT_EQ(on.first, raw.first);
  EXPECT_EQ(run(Compression::kAuto).first, raw.first);
}

TEST(CompressionPolicyTest, HostFallbackExchangeWarnsExactlyOnce) {
  cuem::configure(DeviceConfig::k40m(), /*functional=*/true,
                  /*num_devices=*/2, Interconnect::pcie());
  oacc::reset();
  ClusterOptions o;
  o.nodes = 2;
  o.multi.max_slots = 2;  // under-provisioned: 4 regions/device
  ClusterTileArray<double> u(Box::cube(16), Index3{16, 16, 2}, 1, o);
  u.fill(heat_fill);
  u.assume_host_initialized();
  EXPECT_EQ(cuem::platform().trace().stats().num_warnings, 0u);
  u.fill_boundary(Boundary::kPeriodic);
  EXPECT_EQ(cuem::platform().trace().stats().num_warnings, 1u);
  // One-shot: the second fallback exchange stays quiet.
  u.fill_boundary(Boundary::kPeriodic);
  EXPECT_EQ(cuem::platform().trace().stats().num_warnings, 1u);
  u.release_all_to_host();
}

// --- snapshot round trip with compression on ---

TEST(CompressionPolicyTest, SnapshotRoundTripReplaysCompressedRunExactly) {
  cuem::configure(DeviceConfig::k40m(), /*functional=*/true);
  oacc::reset();
  AccOptions o;
  o.max_slots = 4;
  o.delta_transfers = true;
  o.compression = Compression::kOn;
  AccTileArray<double> u(Box::cube(16), Index3{16, 16, 2}, 1, o);
  u.fill(sincos_fill);
  u.assume_host_initialized();
  const oacc::LoopCost cost = unit_cost();
  u.fill_boundary(Boundary::kPeriodic);  // warmup: live residency state
  sim::SnapshotWriter w;
  world_capture(w);
  u.capture(w);
  const std::vector<std::uint8_t> snap = w.take();

  const auto tail = [&]() {
    for (int s = 0; s < 2; ++s) {
      u.fill_boundary(Boundary::kPeriodic);
      for (int r = 0; r < u.num_regions(); ++r) {
        const tida::Region<double> reg = u.region(r);
        const AccTile<double> tile{&u, tida::Tile<double>{reg, reg.valid},
                                   /*gpu=*/true};
        compute(tile, cost, kSweepBody);
      }
    }
    return host_checksum(u);
  };
  const std::uint64_t sum1 = tail();
  const std::uint64_t wire1 =
      u.transfers().h2d_wire_bytes + u.transfers().d2h_wire_bytes;
  const SimTime end1 = cuem::platform().now();

  sim::SnapshotReader r(snap);
  world_restore(r);
  u.restore(r);
  ASSERT_TRUE(r.at_end());
  const std::uint64_t sum2 = tail();
  const std::uint64_t wire2 =
      u.transfers().h2d_wire_bytes + u.transfers().d2h_wire_bytes;
  EXPECT_EQ(sum1, sum2);
  EXPECT_EQ(wire1, wire2);
  EXPECT_EQ(end1, cuem::platform().now());
}

}  // namespace
}  // namespace tidacc::core

// Cluster subsystem tests: the simulated RDMA fabric (queue pairs, memory
// registration legality, two-sided send/recv credits, one-sided RDMA
// pricing, completion polling), the ClusterTileArray sharding and
// split-phase exchange on both wire paths, the golden-trace guarantee that
// a 1-node ClusterTileArray reproduces MultiAccTileArray bit-for-bit, the
// overlap win of exchange_begin/exchange_end over the blocking exchange,
// the event-ordered epoch (exchange_end leaves requests in flight, the
// drain follows last use), snapshot round trips with fabric state, and
// the options every tile array shares composing with the cluster exchange
// (temporal blocking, round-robin placement, the caching ablation).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/cluster_tile_array.hpp"
#include "core/tidacc.hpp"
#include "core/world_snapshot.hpp"
#include "kernels/heat.hpp"
#include "net/fabric.hpp"
#include "sim/trace.hpp"

namespace tidacc::core {
namespace {

using sim::DeviceConfig;
using sim::Fabric;
using sim::FabricConfig;
using sim::Interconnect;
using tida::Boundary;
using tida::Box;
using tida::Index3;

double pattern(const Index3& p) {
  return static_cast<double>(1 + p.i + 10 * p.j + 100 * p.k);
}

oacc::LoopCost unit_cost() {
  oacc::LoopCost c;
  c.flops_per_iter = 2;
  c.dev_bytes_per_iter = 16;
  return c;
}

void enable_all_peers(int devices) {
  for (int d = 0; d < devices; ++d) {
    cuem::DeviceGuard guard(d);
    for (int peer = 0; peer < devices; ++peer) {
      if (peer != d) {
        ASSERT_EQ(cuemDeviceEnablePeerAccess(peer, 0), cuemSuccess);
      }
    }
  }
}

/// FNV-1a over every valid cell, row by row — order-independent of the
/// exchange schedule, sensitive to any wrong byte.
std::uint64_t checksum(MultiAccTileArray<double>& u) {
  u.release_all_to_host();
  std::uint64_t h = 1469598103934665603ull;
  for (int r = 0; r < u.num_regions(); ++r) {
    const tida::Region<double> reg = u.region(r);
    for (int k = reg.valid.lo.k; k <= reg.valid.hi.k; ++k) {
      for (int j = reg.valid.lo.j; j <= reg.valid.hi.j; ++j) {
        for (int i = reg.valid.lo.i; i <= reg.valid.hi.i; ++i) {
          const double v = reg.at(i, j, k);
          const unsigned char* b = reinterpret_cast<const unsigned char*>(&v);
          for (std::size_t n = 0; n < sizeof(double); ++n) {
            h = (h ^ b[n]) * 1099511628211ull;
          }
        }
      }
    }
  }
  return h;
}

/// Every valid cell, region by region, once the field is home.
std::vector<double> valid_cells(MultiAccTileArray<double>& u) {
  u.release_all_to_host();
  std::vector<double> out;
  for (int r = 0; r < u.num_regions(); ++r) {
    const tida::Region<double> reg = u.region(r);
    for (int k = reg.valid.lo.k; k <= reg.valid.hi.k; ++k) {
      for (int j = reg.valid.lo.j; j <= reg.valid.hi.j; ++j) {
        for (int i = reg.valid.lo.i; i <= reg.valid.hi.i; ++i) {
          out.push_back(reg.at(i, j, k));
        }
      }
    }
  }
  return out;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// --- fabric unit tests ---

class FabricTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cuem::configure(DeviceConfig::k40m(), /*functional=*/true,
                    /*num_devices=*/2, Interconnect::pcie());
    oacc::reset();
  }
};

TEST_F(FabricTest, TopologyAndPresets) {
  Fabric f(2, FabricConfig::infiniband(), 1);
  EXPECT_EQ(f.num_nodes(), 2);
  EXPECT_EQ(f.node_of_device(0), 0);
  EXPECT_EQ(f.node_of_device(1), 1);
  EXPECT_EQ(f.first_device(1), 1);
  EXPECT_THROW(f.node_of_device(2), Error);

  EXPECT_EQ(FabricConfig::parse("ethernet").name, "ethernet");
  EXPECT_TRUE(FabricConfig::parse("infiniband").gpudirect);
  EXPECT_FALSE(FabricConfig::parse("ethernet").gpudirect);
  EXPECT_DOUBLE_EQ(FabricConfig::parse("40").link_gbps, 40.0);
  EXPECT_THROW(FabricConfig::parse("warp-drive"), Error);
  // GPUDirect path trades a PCIe bounce for a small NIC-DMA efficiency hit.
  const FabricConfig ib = FabricConfig::infiniband();
  EXPECT_LT(ib.path_gbps(true), ib.path_gbps(false));

  // More nodes than the platform has devices must fail loudly.
  EXPECT_THROW(Fabric(4, FabricConfig::infiniband(), 1), Error);
}

TEST_F(FabricTest, MemoryRegistrationLegality) {
  Fabric ib(2, FabricConfig::infiniband(), 1);
  Fabric eth(2, FabricConfig::ethernet(), 1);

  void* pinned = cuem::host_alloc(4096, /*pinned=*/true);
  void* pageable = cuem::host_alloc(4096, /*pinned=*/false);
  void* dev = nullptr;
  ASSERT_EQ(cuemSetDevice(1), cuemSuccess);
  ASSERT_EQ(cuemMalloc(&dev, 4096), cuemSuccess);
  int stack_var = 0;

  // Pinned host memory registers on any fabric.
  const sim::MrId hm = ib.register_memory(0, pinned, 4096);
  EXPECT_FALSE(ib.mr_is_device(hm));
  EXPECT_GE(eth.register_memory(1, pinned, 4096), 0);

  // Pageable host memory and foreign pointers never register.
  EXPECT_THROW(ib.register_memory(0, pageable, 4096), Error);
  EXPECT_THROW(ib.register_memory(0, &stack_var, 4), Error);

  // Device memory needs a GPUDirect-capable fabric and the owning node.
  const sim::MrId dm = ib.register_memory(1, dev, 4096);
  EXPECT_TRUE(ib.mr_is_device(dm));
  EXPECT_THROW(ib.register_memory(0, dev, 4096), Error);  // wrong node
  EXPECT_THROW(eth.register_memory(1, dev, 4096), Error);  // no GPUDirect

  ib.deregister_memory(hm);
  EXPECT_THROW(ib.deregister_memory(hm), Error);  // already gone

  EXPECT_EQ(cuemFree(dev), cuemSuccess);
  cuem::host_free(pinned);
  cuem::host_free(pageable);
}

TEST_F(FabricTest, SendNeedsAPostedReceive) {
  Fabric f(2, FabricConfig::infiniband(), 1);
  void* src = cuem::host_alloc(1024, /*pinned=*/true);
  void* dst = cuem::host_alloc(1024, /*pinned=*/true);
  const sim::MrId sm = f.register_memory(0, src, 1024);
  const sim::MrId dm = f.register_memory(1, dst, 1024);
  const sim::QpId qp = f.create_qp(0, 1);

  // Receiver not ready: verbs would RNR-NAK, the model fails loudly.
  EXPECT_THROW(f.post_send(qp, sm, 0, 256), Error);

  f.post_recv(qp, dm, 0, 128);
  // Payload overflowing the posted buffer is a hard error too.
  EXPECT_THROW(f.post_send(qp, sm, 0, 256), Error);
  // That failed send must not have consumed the credit.
  const sim::WrId wr = f.post_send(qp, sm, 0, 128);
  f.wait(wr);
  EXPECT_TRUE(f.wr_reaped(wr));
  EXPECT_EQ(f.counters().sends, 1u);
  EXPECT_EQ(f.counters().net_bytes, 128u);

  cuem::host_free(src);
  cuem::host_free(dst);
}

TEST_F(FabricTest, CompletionsPollInFifoOrderAndReadsPayRoundTrip) {
  Fabric f(2, FabricConfig::infiniband(), 1);
  void* a = cuem::host_alloc(1 << 20, /*pinned=*/true);
  void* b = cuem::host_alloc(1 << 20, /*pinned=*/true);
  const sim::MrId am = f.register_memory(0, a, 1 << 20);
  const sim::MrId bm = f.register_memory(1, b, 1 << 20);
  const sim::QpId qp = f.create_qp(0, 1);

  // Nothing outstanding: poll is a clean miss.
  EXPECT_FALSE(f.poll(qp));

  const sim::WrId w1 = f.rdma_write(qp, am, 0, bm, 0, 1 << 18);
  // The NIC op runs for exactly the work request's price (jitter is off).
  const sim::Platform& p = cuem::platform();
  EXPECT_EQ(p.last_op_finish() - p.last_op_start(),
            f.config().wr_ns(sim::OpKind::kRdmaWrite, 1 << 18, 0, false));
  // The QP stream was idle, so the write started at the current host time.
  const SimTime write_dur = f.wr_finish(w1) - cuem::platform().now();
  const sim::WrId w2 = f.rdma_read(qp, am, 0, bm, 0, 1 << 18);
  EXPECT_EQ(p.last_op_finish() - p.last_op_start(),
            f.config().wr_ns(sim::OpKind::kRdmaRead, 1 << 18, 0, false));
  // FIFO on the QP stream: the read starts when the write finishes. Same
  // payload, same wire — the read's request/response round trip makes it
  // strictly longer than the write's single traversal.
  const SimTime read_dur = f.wr_finish(w2) - f.wr_finish(w1);
  EXPECT_GT(read_dur, write_dur);

  // Posting returns before the wire is done: the host clock trails the
  // completion time, so an immediate poll misses.
  EXPECT_LT(cuem::platform().now(), f.wr_finish(w1));
  EXPECT_FALSE(f.poll(qp));

  f.wait(w2);  // waiting on the younger one also covers the older
  sim::WrId out = -1;
  ASSERT_TRUE(f.poll(qp, &out));
  EXPECT_EQ(out, w1);  // CQ drains oldest first
  EXPECT_TRUE(f.wr_reaped(w1));
  EXPECT_FALSE(f.poll(qp));  // w2 was reaped by wait()

  EXPECT_EQ(f.counters().rdma_writes, 1u);
  EXPECT_EQ(f.counters().rdma_reads, 1u);
  // Both endpoints were device-free, so nothing went over GPUDirect.
  EXPECT_EQ(f.counters().gpudirect_bytes, 0u);

  // The NIC lanes show up in the trace as net ops.
  const sim::TraceStats st = cuem::platform().trace().stats();
  EXPECT_EQ(st.num_net_ops, 2u);
  EXPECT_EQ(st.net_bytes, 2u << 18);
  EXPECT_GT(st.nic_busy, 0);

  f.destroy_qp(qp);
  EXPECT_THROW(f.post_recv(qp, bm, 0, 64), Error);

  cuem::host_free(a);
  cuem::host_free(b);
}

// --- ClusterTileArray topology and guard rails ---

class ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cuem::configure(DeviceConfig::k40m(), /*functional=*/true,
                    /*num_devices=*/2, Interconnect::pcie());
    oacc::reset();
  }
};

ClusterOptions two_nodes(NetPath path = NetPath::kAuto,
                         FabricConfig fabric = FabricConfig::infiniband()) {
  ClusterOptions o;
  o.nodes = 2;
  o.fabric = fabric;
  o.path = path;
  return o;
}

TEST_F(ClusterTest, ShardingAndPathResolution) {
  ClusterTileArray<double> a(Box::cube(16), Index3{16, 16, 2}, 1,
                             two_nodes());
  ASSERT_EQ(a.num_regions(), 8);
  EXPECT_EQ(a.num_nodes(), 2);
  EXPECT_EQ(a.devices_per_node(), 1);
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(a.node_of_region(r), r / 4);
  }
  EXPECT_TRUE(a.gpudirect_path());  // kAuto on infiniband

  // Slab regions: only the faces at the node seam (and the periodic wrap)
  // cross nodes, so 0, 3, 4, 7 are boundary and the rest are interior.
  const std::vector<int> boundary =
      a.node_boundary_regions(Boundary::kPeriodic);
  EXPECT_EQ(boundary, (std::vector<int>{0, 3, 4, 7}));
  // Without the wrap only the seam crosses.
  EXPECT_EQ(a.node_boundary_regions(Boundary::kNone),
            (std::vector<int>{3, 4}));
  // The base class's device exchange carries no cross-node face.
  EXPECT_THROW(a.fill_boundary_device(Boundary::kPeriodic), Error);

  ClusterTileArray<double> eth(Box::cube(16), Index3{16, 16, 2}, 1,
                               two_nodes(NetPath::kAuto,
                                         FabricConfig::ethernet()));
  EXPECT_FALSE(eth.gpudirect_path());  // kAuto degrades to staged

  EXPECT_THROW(ClusterTileArray<double>(
                   Box::cube(16), Index3{16, 16, 2}, 1,
                   two_nodes(NetPath::kGpuDirect, FabricConfig::ethernet())),
               Error);

  ClusterOptions bad = two_nodes();
  bad.nodes = 3;  // 2 devices don't split into 3 nodes
  EXPECT_THROW(ClusterTileArray<double>(Box::cube(16), Index3{16, 16, 2}, 1,
                                        bad),
               Error);

  EXPECT_EQ(parse_net_path("gpudirect"), NetPath::kGpuDirect);
  EXPECT_EQ(std::string(to_string(NetPath::kStaged)), "staged");
  EXPECT_THROW(parse_net_path("carrier-pigeon"), Error);
}

// --- functional equality against MultiAccTileArray ---

template <typename Array, typename Opts>
std::uint64_t run_heat(Opts opts, int steps) {
  Array u(Box::cube(16), Index3{16, 16, 2}, 1, opts);
  Array un(Box::cube(16), Index3{16, 16, 2}, 1, opts);
  u.fill(pattern);
  const oacc::LoopCost cost = unit_cost();
  for (int s = 0; s < steps; ++s) {
    auto& in = s % 2 == 0 ? u : un;
    auto& out = s % 2 == 0 ? un : u;
    in.fill_boundary(Boundary::kPeriodic);
    for (int r = 0; r < in.num_regions(); ++r) {
      compute_gpu(in, out, r, cost,
                  [](DeviceView<double> vi, DeviceView<double> vo, int i,
                     int j, int k) {
                    vo(i, j, k) = vi(i, j, k) +
                                  0.1 * (vi(i, j, k - 1) + vi(i, j, k + 1) -
                                         2.0 * vi(i, j, k));
                  });
    }
  }
  return checksum(steps % 2 == 0 ? u : un);
}

TEST_F(ClusterTest, TwoNodeHeatMatchesMultiAccOnBothPaths) {
  const std::uint64_t plain =
      run_heat<MultiAccTileArray<double>>(MultiAccOptions{}, 3);

  cuem::configure(DeviceConfig::k40m(), /*functional=*/true,
                  /*num_devices=*/2, Interconnect::pcie());
  oacc::reset();
  const std::uint64_t rdma =
      run_heat<ClusterTileArray<double>>(two_nodes(NetPath::kGpuDirect), 3);

  cuem::configure(DeviceConfig::k40m(), /*functional=*/true,
                  /*num_devices=*/2, Interconnect::pcie());
  oacc::reset();
  const std::uint64_t staged =
      run_heat<ClusterTileArray<double>>(two_nodes(NetPath::kStaged), 3);

  EXPECT_EQ(plain, rdma);
  EXPECT_EQ(plain, staged);
}

TEST_F(ClusterTest, ExchangeCountersTrackTheWirePath) {
  {
    ClusterTileArray<double> a(Box::cube(16), Index3{16, 16, 2}, 1,
                               two_nodes(NetPath::kGpuDirect));
    a.fill(pattern);
    for (int r = 0; r < a.num_regions(); ++r) {
      a.acquire_on_device(r);
    }
    a.fill_boundary(Boundary::kPeriodic);
    EXPECT_EQ(a.net_exchanges(), 1u);
    EXPECT_GT(a.rdma_ghost_reads(), 0u);
    EXPECT_EQ(a.staged_ghost_sends(), 0u);
    EXPECT_GT(a.fabric().counters().rdma_reads, 0u);
    EXPECT_GT(a.fabric().counters().gpudirect_bytes, 0u);
    // Intra-node faces still run as device update kernels.
    EXPECT_GT(a.device_ghost_updates(), 0u);
  }
  oacc::reset();
  cuem::configure(DeviceConfig::k40m(), /*functional=*/true,
                  /*num_devices=*/2, Interconnect::pcie());
  oacc::reset();
  {
    ClusterTileArray<double> a(Box::cube(16), Index3{16, 16, 2}, 1,
                               two_nodes(NetPath::kStaged));
    a.fill(pattern);
    for (int r = 0; r < a.num_regions(); ++r) {
      a.acquire_on_device(r);
    }
    a.fill_boundary(Boundary::kPeriodic);
    EXPECT_EQ(a.rdma_ghost_reads(), 0u);
    EXPECT_GT(a.staged_ghost_sends(), 0u);
    EXPECT_GT(a.fabric().counters().sends, 0u);
    EXPECT_EQ(a.fabric().counters().gpudirect_bytes, 0u);
  }
}

TEST_F(ClusterTest, HostResidentExchangeStillPricesTheWire) {
  ClusterTileArray<double> a(Box::cube(16), Index3{16, 16, 2}, 1,
                             two_nodes());
  a.fill(pattern);
  // Nothing on any device: the base host exchange moves the data and the
  // cross-node faces are priced as sends between the pinned buffers, one
  // message per cross-node region pair, carrying the pairs' ghost cells.
  a.fill_boundary(Boundary::kPeriodic);
  EXPECT_EQ(a.staged_ghost_sends(), a.wire_pairs(Boundary::kPeriodic).size());
  const tida::PairIndex& index = a.exchange_pairs(Boundary::kPeriodic);
  std::uint64_t wire_cells = 0;
  for (const std::size_t p : a.wire_pairs(Boundary::kPeriodic)) {
    wire_cells += index.pairs[p].cells;
  }
  EXPECT_GT(wire_cells, 0u);
  EXPECT_EQ(a.fabric().counters().net_bytes, wire_cells * sizeof(double));
  const tida::Region<double> r0 = a.region(0);
  EXPECT_EQ(r0.at(3, 3, -1), pattern(Index3{3, 3, 15}));  // periodic wrap
}

// --- overlap: exchange_begin / compute interior / exchange_end ---

/// One heat workload, overlap on or off; returns the virtual ns it took.
SimTime timed_heat(bool overlap, NetPath path, int steps,
                   FabricConfig fabric = FabricConfig::infiniband(),
                   double flops_per_iter = 2.0) {
  cuem::configure(DeviceConfig::k40m(), /*functional=*/true,
                  /*num_devices=*/2, Interconnect::pcie());
  oacc::reset();
  ClusterTileArray<double> u(Box::cube(16), Index3{16, 16, 2}, 1,
                             two_nodes(path, fabric));
  ClusterTileArray<double> un(Box::cube(16), Index3{16, 16, 2}, 1,
                              two_nodes(path, fabric));
  u.fill(pattern);
  oacc::LoopCost cost = unit_cost();
  cost.flops_per_iter = flops_per_iter;
  const std::vector<int> boundary =
      u.node_boundary_regions(Boundary::kPeriodic);
  const SimTime t0 = cuem::platform().now();
  for (int s = 0; s < steps; ++s) {
    auto& in = s % 2 == 0 ? u : un;
    auto& out = s % 2 == 0 ? un : u;
    const auto sweep = [&](bool interior) {
      for (int r = 0; r < in.num_regions(); ++r) {
        const bool is_interior =
            std::find(boundary.begin(), boundary.end(), r) == boundary.end();
        if (is_interior != interior) {
          continue;
        }
        compute_gpu(in, out, r, cost,
                    [](DeviceView<double> vi, DeviceView<double> vo, int i,
                       int j, int k) {
                      vo(i, j, k) = vi(i, j, k) +
                                    0.1 * (vi(i, j, k - 1) + vi(i, j, k + 1) -
                                           2.0 * vi(i, j, k));
                    });
      }
    };
    if (overlap) {
      in.exchange_begin(Boundary::kPeriodic);
      sweep(/*interior=*/true);  // computes while payloads are in flight
      in.exchange_end();
      sweep(/*interior=*/false);
    } else {
      in.fill_boundary(Boundary::kPeriodic);
      sweep(/*interior=*/true);
      sweep(/*interior=*/false);
    }
  }
  (steps % 2 == 0 ? u : un).release_all_to_host();
  oacc::wait_all();
  return cuem::platform().now() - t0;
}

TEST_F(ClusterTest, OverlappedExchangeBeatsBlockingExchange) {
  // A slow link makes the wire time visible next to the host-side posting
  // costs, and a heavy stencil gives the interior kernels enough duration
  // to hide under it. Blocking serializes wire-then-interior; the
  // split-phase epoch runs them concurrently.
  const FabricConfig slow = FabricConfig::custom(/*gbps=*/0.01);
  const double heavy = 1.0e6;  // flops per cell
  const SimTime blocking =
      timed_heat(/*overlap=*/false, NetPath::kGpuDirect, 4, slow, heavy);
  const SimTime overlapped =
      timed_heat(/*overlap=*/true, NetPath::kGpuDirect, 4, slow, heavy);
  EXPECT_LT(overlapped, blocking);
}

TEST_F(ClusterTest, GpuDirectBeatsHostStagingOnInfiniband) {
  const SimTime staged =
      timed_heat(/*overlap=*/false, NetPath::kStaged, 4);
  const SimTime gpudirect =
      timed_heat(/*overlap=*/false, NetPath::kGpuDirect, 4);
  EXPECT_LT(gpudirect, staged);
}

TEST_F(ClusterTest, OverlapProducesTheSameField) {
  const auto run = [](bool overlap) {
    cuem::configure(DeviceConfig::k40m(), /*functional=*/true,
                    /*num_devices=*/2, Interconnect::pcie());
    oacc::reset();
    ClusterTileArray<double> u(Box::cube(16), Index3{16, 16, 2}, 1,
                               two_nodes());
    ClusterTileArray<double> un(Box::cube(16), Index3{16, 16, 2}, 1,
                                two_nodes());
    u.fill(pattern);
    const oacc::LoopCost cost = unit_cost();
    const std::vector<int> boundary =
        u.node_boundary_regions(Boundary::kPeriodic);
    const auto on_boundary = [&boundary](int r) {
      return std::find(boundary.begin(), boundary.end(), r) != boundary.end();
    };
    for (int s = 0; s < 3; ++s) {
      auto& in = s % 2 == 0 ? u : un;
      auto& out = s % 2 == 0 ? un : u;
      if (overlap) {
        in.exchange_begin(Boundary::kPeriodic);
      } else {
        in.fill_boundary(Boundary::kPeriodic);
      }
      for (int r = 0; r < in.num_regions(); ++r) {
        if (overlap && on_boundary(r)) {
          continue;
        }
        compute_gpu(in, out, r, cost,
                    [](DeviceView<double> vi, DeviceView<double> vo, int i,
                       int j, int k) { vo(i, j, k) = vi(i, j, k) + 1.0; });
      }
      if (overlap) {
        in.exchange_end();
        for (const int r : boundary) {
          compute_gpu(in, out, r, cost,
                      [](DeviceView<double> vi, DeviceView<double> vo, int i,
                         int j, int k) { vo(i, j, k) = vi(i, j, k) + 1.0; });
        }
      }
    }
    return checksum(un);
  };
  EXPECT_EQ(run(false), run(true));
}

TEST_F(ClusterTest, EpochMisuseFailsLoudly) {
  ClusterTileArray<double> a(Box::cube(16), Index3{16, 16, 2}, 1,
                             two_nodes());
  a.fill(pattern);
  EXPECT_THROW(a.exchange_end(), Error);
  a.exchange_begin(Boundary::kPeriodic);
  EXPECT_THROW(a.exchange_begin(Boundary::kPeriodic), Error);
  a.exchange_end();
}

TEST_F(ClusterTest, OneNodeFabricHasNoQueuePairAndMovesNothing) {
  // A 1-node array builds its fabric like any other, but with no second
  // node there is no queue pair: it creates no stream a MultiAccTileArray
  // does not, and its exchanges, counted like any other, put nothing on
  // the wire.
  const std::size_t multi_streams = [] {
    const MultiAccTileArray<double> m(Box::cube(16), Index3{16, 16, 2}, 1);
    return cuem::platform().live_user_streams().size();
  }();
  cuem::configure(DeviceConfig::k40m(), /*functional=*/true,
                  /*num_devices=*/2, Interconnect::pcie());
  oacc::reset();
  ClusterTileArray<double> a(Box::cube(16), Index3{16, 16, 2}, 1);
  ASSERT_EQ(a.num_nodes(), 1);
  EXPECT_EQ(a.fabric().num_nodes(), 1);
  EXPECT_EQ(cuem::platform().live_user_streams().size(), multi_streams);
  EXPECT_TRUE(a.wire_pairs(Boundary::kPeriodic).empty());
  a.fill(pattern);
  a.fill_boundary(Boundary::kPeriodic);  // host-resident
  for (int r = 0; r < a.num_regions(); ++r) {
    a.acquire_on_device(r);
  }
  a.exchange_begin(Boundary::kPeriodic);  // resident
  a.exchange_end();
  EXPECT_EQ(a.net_exchanges(), 2u);
  EXPECT_EQ(a.rdma_ghost_reads(), 0u);
  EXPECT_EQ(a.staged_ghost_sends(), 0u);
  const sim::FabricCounters& c = a.fabric().counters();
  EXPECT_EQ(c.sends + c.rdma_reads + c.rdma_writes + c.compressed_wrs, 0u);
  EXPECT_EQ(c.net_bytes + c.gpudirect_bytes + c.net_wire_bytes, 0u);
}

TEST_F(ClusterTest, BaseClassExchangeRejectsAMultiNodeArray) {
  // A 2-node array's cross-node faces move only through the cluster's
  // exchange: called through the base class, fill_boundary refuses it
  // resident, host-resident and out of core alike, naming the cluster.
  ClusterOptions ooc = two_nodes();
  ooc.multi.max_slots = 2;
  for (const ClusterOptions& opts : {two_nodes(), ooc}) {
    ClusterTileArray<double> a(Box::cube(16), Index3{16, 16, 2}, 1, opts);
    a.fill(pattern);
    MultiAccTileArray<double>& base = a;
    const auto rejected = [&base](const char* where) {
      SCOPED_TRACE(where);
      try {
        base.fill_boundary(Boundary::kPeriodic);
        ADD_FAILURE() << "a 2-node array exchanged through the base class";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("ClusterTileArray"),
                  std::string::npos)
            << e.what();
      }
    };
    rejected("host-resident");
    for (int r = 0; r < a.num_regions(); ++r) {
      a.acquire_on_device(r);
    }
    rejected(a.all_regions_fit() ? "resident" : "out of core");
    EXPECT_EQ(a.fabric().counters().net_bytes, 0u);
  }
}

// --- golden trace: 1-node ClusterTileArray == MultiAccTileArray ---

template <typename Array, typename Opts>
std::vector<sim::TraceEvent> golden_run(Opts opts) {
  cuem::configure(DeviceConfig::k40m(), /*functional=*/true,
                  /*num_devices=*/2, Interconnect::nvlink());
  oacc::reset();
  enable_all_peers(2);
  Array arr(Box::cube(16), Index3{16, 16, 4}, 1, opts);
  arr.fill(pattern);
  arr.fill_boundary(Boundary::kPeriodic);  // host-side exchange
  const oacc::LoopCost cost = unit_cost();
  for (int r = 0; r < arr.num_regions(); ++r) {
    compute_gpu(arr, r, cost,
                [](DeviceView<double> v, int i, int j, int k) {
                  v(i, j, k) = 2.0 * v(i, j, k) + 1.0;
                });
  }
  arr.fill_boundary(Boundary::kPeriodic);  // device-side exchange
  for (int r = 0; r < arr.num_regions(); ++r) {
    compute_gpu(arr, r, cost,
                [](DeviceView<double> v, int i, int j, int k) {
                  v(i, j, k) += 3.0;
                });
  }
  arr.release_all_to_host();
  return cuem::platform().trace().events();
}

/// Every field of every trace event, and the end time, agree.
void expect_same_trace(const std::vector<sim::TraceEvent>& multi,
                       SimTime multi_end,
                       const std::vector<sim::TraceEvent>& cluster,
                       SimTime cluster_end) {
  ASSERT_FALSE(multi.empty());
  ASSERT_EQ(multi.size(), cluster.size());
  for (std::size_t i = 0; i < multi.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i) + " '" + multi[i].label + "'");
    EXPECT_EQ(multi[i].engine, cluster[i].engine);
    EXPECT_EQ(multi[i].stream, cluster[i].stream);
    EXPECT_EQ(multi[i].kind, cluster[i].kind);
    EXPECT_EQ(multi[i].start, cluster[i].start);
    EXPECT_EQ(multi[i].finish, cluster[i].finish);
    EXPECT_EQ(multi[i].bytes, cluster[i].bytes);
    EXPECT_EQ(multi[i].label, cluster[i].label);
    EXPECT_EQ(multi[i].device, cluster[i].device);
  }
  EXPECT_EQ(multi_end, cluster_end);
}

TEST(ClusterGoldenTrace, OneNodeMatchesMultiAccTileArrayBitForBit) {
  const std::vector<sim::TraceEvent> multi =
      golden_run<MultiAccTileArray<double>>(MultiAccOptions{});
  const SimTime multi_end = cuem::platform().now();
  ClusterOptions one;  // nodes = 1: no wire pair
  const std::vector<sim::TraceEvent> cluster =
      golden_run<ClusterTileArray<double>>(one);
  expect_same_trace(multi, multi_end, cluster, cuem::platform().now());
}

/// What one out-of-core golden run leaves: its trace, its end time, the
/// array's streaming exchanges and the warnings the platform raised.
struct OutOfCoreRun {
  std::vector<sim::TraceEvent> events;
  SimTime end = 0;
  std::uint64_t streaming = 0;
  std::uint64_t warnings = 0;
};

/// 16^3 in eight 2-cell slabs on 2 devices with 2 slots each and delta
/// transfers on, so only half the regions fit: three steps of `exchange`
/// then a sweep over every region, each acquire evicting another region.
template <typename Array, typename Opts, typename Exchange>
OutOfCoreRun out_of_core_golden_run(Opts opts, Exchange exchange) {
  cuem::configure(DeviceConfig::k40m(), /*functional=*/true,
                  /*num_devices=*/2, Interconnect::nvlink());
  oacc::reset();
  enable_all_peers(2);
  Array arr(Box::cube(16), Index3{16, 16, 2}, 1, opts);
  arr.fill(pattern);
  const oacc::LoopCost cost = unit_cost();
  for (int step = 0; step < 3; ++step) {
    exchange(arr);
    for (int r = 0; r < arr.num_regions(); ++r) {
      compute_gpu(arr, r, cost,
                  [](DeviceView<double> v, int i, int j, int k) {
                    v(i, j, k) = 0.5 * (v(i, j, k - 1) + v(i, j, k + 1));
                  });
    }
  }
  arr.release_all_to_host();
  const sim::Platform& p = cuem::platform();
  return {p.trace().events(), p.now(), arr.streaming_exchanges(),
          p.trace().stats().num_warnings};
}

TEST(ClusterGoldenTrace, OneNodeOutOfCoreMatchesMultiAccTileArrayBitForBit) {
  // Out of core a 1-node cluster array streams or drains exactly as the
  // base class does, through fill_boundary and through the split phase,
  // and warns about no host fallback: it has no wire pair.
  const auto fill = [](auto& a) { a.fill_boundary(Boundary::kPeriodic); };
  const auto split = [](ClusterTileArray<double>& a) {
    a.exchange_begin(Boundary::kPeriodic);
    a.exchange_end();
  };
  for (const StreamingGuard guard :
       {StreamingGuard::kForceStreaming, StreamingGuard::kForceDrain,
        StreamingGuard::kAuto}) {
    SCOPED_TRACE("guard " + std::to_string(static_cast<int>(guard)));
    MultiAccOptions opts;
    opts.max_slots = 2;
    opts.delta_transfers = true;
    opts.streaming_guard = guard;
    ClusterOptions one;
    one.multi = opts;
    const OutOfCoreRun multi =
        out_of_core_golden_run<MultiAccTileArray<double>>(opts, fill);
    const OutOfCoreRun cluster =
        guard == StreamingGuard::kAuto
            ? out_of_core_golden_run<ClusterTileArray<double>>(one, split)
            : out_of_core_golden_run<ClusterTileArray<double>>(one, fill);
    expect_same_trace(multi.events, multi.end, cluster.events, cluster.end);
    EXPECT_EQ(multi.streaming, cluster.streaming);
    if (guard == StreamingGuard::kForceStreaming) {
      EXPECT_GT(cluster.streaming, 0u);
    }
    EXPECT_EQ(multi.warnings, 0u);
    EXPECT_EQ(cluster.warnings, 0u);
  }
}

// --- snapshot round trip with fabric state ---

TEST_F(ClusterTest, CaptureRestoreReplaysIdentically) {
  ClusterTileArray<double> u(Box::cube(16), Index3{16, 16, 2}, 1,
                             two_nodes());
  u.fill(pattern);
  for (int r = 0; r < u.num_regions(); ++r) {
    u.acquire_on_device(r);
  }
  u.fill_boundary(Boundary::kPeriodic);  // fabric has live WR/MR state

  sim::SnapshotWriter w;
  world_capture(w);
  u.capture(w);
  const std::vector<std::uint8_t> snap = w.take();

  const std::vector<int> boundary =
      u.node_boundary_regions(Boundary::kPeriodic);
  const auto tail = [&u, &boundary]() {
    const oacc::LoopCost cost = unit_cost();
    u.exchange_begin(Boundary::kPeriodic);
    for (int r = 0; r < u.num_regions(); ++r) {
      if (std::find(boundary.begin(), boundary.end(), r) != boundary.end()) {
        continue;
      }
      compute_gpu(u, r, cost, [](DeviceView<double> v, int i, int j, int k) {
        v(i, j, k) = 0.5 * v(i, j, k) + 2.0;
      });
    }
    u.exchange_end();
    return std::make_pair(checksum(u), cuem::platform().now());
  };

  const auto first = tail();
  {
    sim::SnapshotReader r(snap);
    world_restore(r);
    u.restore(r);
    ASSERT_TRUE(r.at_end());
  }
  const auto second = tail();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

TEST_F(ClusterTest, RestoreCutShortKeepsTheLiveFabricTables) {
  // The fabric's destructor waits for each queue pair's outstanding
  // requests, looked up in its work-request table. A restore that fails
  // inside that table must leave the live queue pairs and requests
  // paired: roll the fabric back to an early snapshot with few requests,
  // then restore a later one cut short inside its request table, and let
  // the array go out of scope.
  ClusterTileArray<double> u(Box::cube(16), Index3{16, 16, 2}, 1,
                             two_nodes(NetPath::kStaged));
  u.fill(pattern);
  for (int r = 0; r < u.num_regions(); ++r) {
    u.acquire_on_device(r);
  }
  const auto capture = [&u] {
    sim::SnapshotWriter w;
    world_capture(w);
    u.capture(w);
    return w.take();
  };
  const std::vector<std::uint8_t> early = capture();
  for (int epoch = 0; epoch < 3; ++epoch) {
    u.exchange_begin(Boundary::kPeriodic);
    u.exchange_end();
  }
  const std::vector<std::uint8_t> late = capture();
  {
    sim::SnapshotReader r(early);
    world_restore(r);
    u.restore(r);
  }
  // The cluster's tail after the request table (fabric counters, MR
  // cache, wire flags, exchange counters) is under 300 bytes here.
  const std::size_t cut = late.size() - 300;
  const std::string tag = "fabric";
  const auto fabric_at =
      std::search(late.begin(), late.end(), tag.begin(), tag.end());
  ASSERT_NE(fabric_at, late.end());
  ASSERT_GT(cut, static_cast<std::size_t>(fabric_at - late.begin()));
  sim::SnapshotReader r(late.data(), cut);
  world_restore(r);
  EXPECT_THROW(u.restore(r), Error);
}

TEST_F(ClusterTest, WireIndexWorkChargedOncePerLayoutAndBoundary) {
  // Two arrays on one layout share its cross-node wire groups: the first
  // exchange under a boundary, by either array, pays their index work (and
  // the descriptors'); every later one pays none. The built state rides the
  // cluster snapshot, and the fields match a 1-node run.
  DeviceConfig cfg = DeviceConfig::k40m();
  cfg.host_index_calc_ns_per_copy = kMillisecond;
  const Box domain = Box::cube(16);
  const Index3 rs{16, 16, 2};
  const auto other = [](const Index3& p) {
    return 0.25 * p.i * p.j - 1.5 * p.k;
  };
  // Every cell of both arrays after one periodic exchange each.
  const auto cells = [](ClusterTileArray<double>& u,
                        ClusterTileArray<double>& v) {
    std::vector<double> out;
    for (ClusterTileArray<double>* a : {&u, &v}) {
      a->fill_boundary(Boundary::kPeriodic);
      a->release_all_to_host();
      for (int r = 0; r < a->num_regions(); ++r) {
        const tida::Region<double> reg = a->region(r);
        out.insert(out.end(), reg.data, reg.data + reg.cells());
      }
    }
    return out;
  };
  const auto start = [&](ClusterTileArray<double>& u,
                         ClusterTileArray<double>& v) {
    u.fill(pattern);
    v.fill(other);
    for (int r = 0; r < u.num_regions(); ++r) {
      u.acquire_on_device(r);
      v.acquire_on_device(r);
    }
  };
  const auto configure = [&cfg] {
    cuem::configure(cfg, /*functional=*/true, /*num_devices=*/2,
                    Interconnect::pcie());
    oacc::reset();
  };

  configure();
  ClusterOptions one;
  one.multi.devices = 2;
  std::vector<double> single;
  {
    ClusterTileArray<double> u(domain, rs, 1, one);
    ClusterTileArray<double> v(domain, rs, 1, one);
    start(u, v);
    single = cells(u, v);
  }

  configure();
  sim::Platform& p = sim::Platform::instance();
  ClusterTileArray<double> u(domain, rs, 1, two_nodes(NetPath::kGpuDirect));
  ClusterTileArray<double> v(domain, rs, 1, two_nodes(NetPath::kGpuDirect));
  start(u, v);
  const auto exchange_ns = [&p](ClusterTileArray<double>& a, Boundary bc) {
    const SimTime t0 = p.now();
    a.exchange_begin(bc);
    a.exchange_end();
    return p.now() - t0;
  };
  // Wire index work of one build: each node's CPU indexes its share.
  const auto wire_ns = [&u](Boundary bc) {
    SimTime copies = 0;
    for (const tida::GhostCopy& c : u.exchange_plan(bc)) {
      copies += u.node_of_region(c.src_region) !=
                u.node_of_region(c.dst_region);
    }
    return copies * kMillisecond / 2;
  };
  const auto snapshot = [&u, &v] {
    sim::SnapshotWriter w;
    world_capture(w);
    u.capture(w);
    v.capture(w);
    return w.take();
  };
  const auto restore = [&u, &v](const std::vector<std::uint8_t>& snap) {
    sim::SnapshotReader r(snap);
    world_restore(r);
    u.restore(r);
    v.restore(r);
    EXPECT_TRUE(r.at_end());
  };
  const std::vector<std::uint8_t> unbuilt = snapshot();
  ASSERT_GT(wire_ns(Boundary::kPeriodic), 0u);
  EXPECT_GE(exchange_ns(u, Boundary::kPeriodic), wire_ns(Boundary::kPeriodic));
  EXPECT_LT(exchange_ns(v, Boundary::kPeriodic), kMillisecond);
  EXPECT_LT(exchange_ns(u, Boundary::kPeriodic), kMillisecond);
  ASSERT_GT(wire_ns(Boundary::kNone), 0u);
  EXPECT_GE(exchange_ns(v, Boundary::kNone), wire_ns(Boundary::kNone));
  EXPECT_LT(exchange_ns(u, Boundary::kNone), kMillisecond);
  const std::vector<std::uint8_t> built = snapshot();

  // Restored before the build, the pair builds again; after it, never.
  restore(unbuilt);
  EXPECT_GE(exchange_ns(v, Boundary::kPeriodic), wire_ns(Boundary::kPeriodic));
  EXPECT_LT(exchange_ns(u, Boundary::kPeriodic), kMillisecond);
  restore(built);
  EXPECT_LT(exchange_ns(v, Boundary::kPeriodic), kMillisecond);
  EXPECT_LT(exchange_ns(u, Boundary::kNone), kMillisecond);
  restore(built);
  EXPECT_TRUE(cells(u, v) == single);
}

/// A cluster array whose exchange schedule views the test can read.
class ScheduleProbe : public ClusterTileArray<double> {
 public:
  using ClusterTileArray<double>::ClusterTileArray;

  /// Plan indices of device `d`'s replay-kernel copies (descriptor order).
  const std::vector<std::size_t>& local(int d, Boundary bc) {
    return local_copies(d, bc).copies;
  }

  PairClass pair_class(int src, int dst) const {
    return schedule_->class_of(src, dst);
  }
};

/// The views the exchange schedule derived by scanning the plan before it
/// derived them from region pairs, kept as the reference.
struct PlanScanViews {
  /// Per device, [begin, end) plan ranges of its destinations' copies.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> destinations;
  /// Per device, the plan indices of copies between two of its regions.
  std::vector<std::vector<std::size_t>> local;
  /// Per cross-node (source, destination) pair, in plan order of its first
  /// copy, the pair's plan indices.
  std::vector<std::vector<std::size_t>> wire;
  std::vector<int> node_boundary;
};

PlanScanViews plan_scan_views(ScheduleProbe& a, Boundary bc) {
  const std::vector<tida::GhostCopy>& plan = a.exchange_plan(bc);
  const auto device = [&a](int r) { return a.device_of_region(r); };
  const auto node = [&a](int r) { return a.node_of_region(r); };
  PlanScanViews v;
  v.destinations.resize(static_cast<std::size_t>(a.num_devices()));
  v.local.resize(static_cast<std::size_t>(a.num_devices()));
  for (std::size_t begin = 0; begin < plan.size();) {
    const int dst = plan[begin].dst_region;
    std::size_t end = begin;
    while (end < plan.size() && plan[end].dst_region == dst) {
      ++end;
    }
    v.destinations[static_cast<std::size_t>(device(dst))].emplace_back(begin,
                                                                       end);
    begin = end;
  }
  std::map<std::pair<int, int>, std::size_t> group_of;
  std::vector<char> crosses(static_cast<std::size_t>(a.num_regions()));
  for (std::size_t c = 0; c < plan.size(); ++c) {
    const int src = plan[c].src_region;
    const int dst = plan[c].dst_region;
    if (device(src) == device(dst)) {
      v.local[static_cast<std::size_t>(device(dst))].push_back(c);
    }
    if (node(src) != node(dst)) {
      const auto [it, fresh] =
          group_of.try_emplace(std::pair(src, dst), v.wire.size());
      if (fresh) {
        v.wire.emplace_back();
      }
      v.wire[it->second].push_back(c);
      crosses[static_cast<std::size_t>(src)] = 1;
      crosses[static_cast<std::size_t>(dst)] = 1;
    }
  }
  for (int r = 0; r < a.num_regions(); ++r) {
    if (crosses[static_cast<std::size_t>(r)]) {
      v.node_boundary.push_back(r);
    }
  }
  return v;
}

/// One layout of the schedule tests: cube(16) over `nodes` nodes.
struct ScheduleWorld {
  int nodes = 1;
  int devices = 1;
  DevicePlacement placement = DevicePlacement::kBlock;
  Index3 region_size;
  int ghost = 1;

  std::string name() const {
    return std::to_string(nodes) + " nodes, " + std::to_string(devices) +
           " devices, " + to_string(placement) + ", regions " +
           region_size.to_string() + ", ghost " + std::to_string(ghost);
  }

  ClusterOptions options() const {
    ClusterOptions opts;
    opts.nodes = nodes;
    opts.multi.devices = devices;
    opts.multi.placement = placement;
    return opts;
  }
};

/// 2, 4 and 8 nodes of one or more devices, block and round-robin
/// placement, slabs (ghost 1 and slab + 1, the ghost reaching past the
/// neighbour) and 3-D blocks, whose neighbours' pieces interleave in the
/// plan.
std::vector<ScheduleWorld> cluster_schedule_worlds() {
  const std::vector<std::pair<Index3, int>> geometries = {
      {{16, 16, 2}, 1}, {{16, 16, 2}, 3}, {{8, 8, 4}, 1}, {{8, 8, 4}, 5}};
  std::vector<ScheduleWorld> worlds;
  for (const int nodes : {2, 4, 8}) {
    for (const int devices : {nodes, 8}) {
      for (const DevicePlacement placement :
           {DevicePlacement::kBlock, DevicePlacement::kRoundRobin}) {
        for (const auto& [region_size, ghost] : geometries) {
          worlds.push_back({nodes, devices, placement, region_size, ghost});
        }
      }
    }
  }
  return worlds;
}

void configure_eight_devices() {
  cuem::configure(DeviceConfig::k40m(), /*functional=*/false, 8,
                  Interconnect::pcie());
  oacc::reset();
}

TEST(ClusterSchedule, PairViewsEqualThePlanScans) {
  // The schedule's pair-built views must be the plan scans' lists.
  int worlds = 0;
  for (const ScheduleWorld& world : cluster_schedule_worlds()) {
    configure_eight_devices();
    ScheduleProbe a(Box::cube(16), world.region_size, world.ghost,
                    world.options());
    for (const Boundary bc : {Boundary::kNone, Boundary::kPeriodic}) {
      const std::string where = world.name() + ", " + to_string(bc);
      const PlanScanViews want = plan_scan_views(a, bc);
      const tida::PairIndex& index = a.exchange_pairs(bc);
      for (int d = 0; d < a.num_devices(); ++d) {
        // Destination groups: each region of the device with copies, its
        // pairs covering one contiguous plan range.
        std::vector<std::pair<std::size_t, std::size_t>> groups;
        for (const int dst : a.regions_of_device(d)) {
          std::vector<std::size_t> copies;
          for (const tida::RegionPair& pair : index.pairs_into(dst)) {
            const auto mine = index.copies_of(pair);
            copies.insert(copies.end(), mine.begin(), mine.end());
          }
          if (!copies.empty()) {
            std::sort(copies.begin(), copies.end());
            EXPECT_EQ(copies.back() + 1 - copies.front(), copies.size())
                << where;
            groups.emplace_back(copies.front(), copies.back() + 1);
          }
        }
        EXPECT_EQ(groups, want.destinations[static_cast<std::size_t>(d)])
            << where << ", device " << d;
        EXPECT_EQ(a.local(d, bc), want.local[static_cast<std::size_t>(d)])
            << where << ", device " << d;
      }
      std::vector<std::vector<std::size_t>> wire;
      for (const std::size_t p : a.wire_pairs(bc)) {
        const auto copies = index.copies_of(index.pairs[p]);
        wire.emplace_back(copies.begin(), copies.end());
      }
      EXPECT_EQ(wire, want.wire) << where;
      EXPECT_EQ(a.node_boundary_regions(bc), want.node_boundary) << where;
      ++worlds;
    }
  }
  EXPECT_EQ(worlds, 3 * 2 * 2 * 4 * 2);
}

TEST(ClusterSchedule, PlacementFollowsTheLayout) {
  // Every region's device is the placement formula's, its node the
  // fabric's node of that device, each device lists its regions in id
  // order, and each region pair's class is what comparing its regions'
  // devices and nodes says: on the cluster worlds above and on one node,
  // with more devices than regions and with a region count the devices do
  // not divide.
  std::vector<ScheduleWorld> worlds = cluster_schedule_worlds();
  for (const DevicePlacement placement :
       {DevicePlacement::kBlock, DevicePlacement::kRoundRobin}) {
    worlds.push_back({1, 8, placement, {16, 16, 6}, 1});   // 3 regions
    worlds.push_back({1, 5, placement, {16, 8, 16}, 1});   // 2 regions
    worlds.push_back({1, 3, placement, {16, 16, 2}, 1});   // 8 regions
    worlds.push_back({1, 8, placement, {8, 8, 4}, 2});     // 16 regions
  }
  for (const ScheduleWorld& world : worlds) {
    configure_eight_devices();
    ScheduleProbe a(Box::cube(16), world.region_size, world.ghost,
                    world.options());
    const std::string where = world.name();
    const int regions = a.num_regions();
    const int chunk = (regions + world.devices - 1) / world.devices;
    const auto device = [&](int r) {
      return world.placement == DevicePlacement::kBlock ? r / chunk
                                                        : r % world.devices;
    };
    ASSERT_EQ(a.num_devices(), world.devices) << where;
    EXPECT_EQ(a.devices_per_node(), world.devices / world.nodes) << where;
    for (int r = 0; r < regions; ++r) {
      EXPECT_EQ(a.device_of_region(r), device(r)) << where << ", region " << r;
      EXPECT_EQ(a.node_of_region(r), a.fabric().node_of_device(device(r)))
          << where << ", region " << r;
    }
    for (int d = 0; d < world.devices; ++d) {
      std::vector<int> mine;
      for (int r = 0; r < regions; ++r) {
        if (device(r) == d) {
          mine.push_back(r);
        }
      }
      EXPECT_EQ(a.regions_of_device(d), mine) << where << ", device " << d;
    }
    for (const Boundary bc : {Boundary::kNone, Boundary::kPeriodic}) {
      for (const tida::RegionPair& pair : a.exchange_pairs(bc).pairs) {
        const int src = pair.src_region;
        const int dst = pair.dst_region;
        const PairClass cls = a.pair_class(src, dst);
        EXPECT_EQ(cls == PairClass::kLocal,
                  a.device_of_region(src) == a.device_of_region(dst))
            << where << ", " << to_string(bc) << ", R" << src << ">R" << dst;
        EXPECT_EQ(cls == PairClass::kWire,
                  a.node_of_region(src) != a.node_of_region(dst))
            << where << ", " << to_string(bc) << ", R" << src << ">R" << dst;
      }
    }
  }
}

TEST_F(ClusterTest, SnapshotRejectsAnOpenEpoch) {
  ClusterTileArray<double> u(Box::cube(16), Index3{16, 16, 2}, 1,
                             two_nodes());
  u.fill(pattern);
  u.exchange_begin(Boundary::kPeriodic);
  sim::SnapshotWriter w;
  EXPECT_THROW(u.capture(w), Error);
  u.exchange_end();
}

// --- the event-ordered epoch ---

/// A link slow enough that every work request outlasts the host's calls
/// around it.
FabricConfig slow_link() { return FabricConfig::custom(/*gbps=*/0.01); }

/// A fresh functional 2-device platform, configured on construction.
struct FreshPlatform {
  FreshPlatform() {
    cuem::configure(DeviceConfig::k40m(), /*functional=*/true,
                    /*num_devices=*/2, Interconnect::pcie());
    oacc::reset();
  }
};

/// A heat array pair on a fresh platform, every region resident.
struct ResidentPair {
  explicit ResidentPair(const ClusterOptions& opts)
      : u(Box::cube(16), Index3{16, 16, 2}, 1, opts),
        un(Box::cube(16), Index3{16, 16, 2}, 1, opts),
        boundary(u.node_boundary_regions(Boundary::kPeriodic)) {
    u.fill(pattern);
    for (int r = 0; r < u.num_regions(); ++r) {
      u.acquire_on_device(r);
      un.acquire_on_device(r);
    }
  }

  /// One heat sweep from `in` into `out` over the node-boundary regions
  /// or the node-interior ones.
  void sweep(ClusterTileArray<double>& in, ClusterTileArray<double>& out,
             bool want_boundary) const {
    for (int r = 0; r < in.num_regions(); ++r) {
      const bool on_boundary =
          std::find(boundary.begin(), boundary.end(), r) != boundary.end();
      if (on_boundary != want_boundary) {
        continue;
      }
      compute_gpu(in, out, r, unit_cost(),
                  [](DeviceView<double> vi, DeviceView<double> vo, int i,
                     int j, int k) {
                    vo(i, j, k) = vi(i, j, k) +
                                  0.1 * (vi(i, j, k - 1) + vi(i, j, k + 1) -
                                         2.0 * vi(i, j, k));
                  });
    }
  }

  /// One split-phase step from `in` into `out`.
  void split_step(ClusterTileArray<double>& in,
                  ClusterTileArray<double>& out) const {
    in.exchange_begin(Boundary::kPeriodic);
    sweep(in, out, /*want_boundary=*/false);
    in.exchange_end();
    sweep(in, out, /*want_boundary=*/true);
  }

  FreshPlatform platform;  // first member: configured before the arrays
  ClusterTileArray<double> u;
  ClusterTileArray<double> un;
  std::vector<int> boundary;
};

/// Work requests `a` posted so far (ids count from 0 per fabric).
sim::WrId posted(const ClusterTileArray<double>& a) {
  return static_cast<sim::WrId>(a.rdma_ghost_reads() + a.staged_ghost_sends());
}

TEST_F(ClusterTest, ExchangeEndLeavesRequestsInFlightAndChargesApiCostsOnly) {
  // exchange_end orders the regions on the wire after their requests
  // instead of waiting for them: it returns before any completes, having
  // spent one API call per stream edge (source and destination of each
  // request, each on its own queue pair here) and per staged push, one per
  // coalesced ghost box of each wire pair.
  for (const NetPath path : {NetPath::kGpuDirect, NetPath::kStaged}) {
    SCOPED_TRACE(to_string(path));
    ResidentPair w(two_nodes(path, slow_link()));
    const sim::Platform& p = cuem::platform();
    w.u.exchange_begin(Boundary::kPeriodic);
    const SimTime t0 = p.now();
    w.u.exchange_end();
    const SimTime spent = p.now() - t0;
    const sim::WrId wrs = posted(w.u);
    ASSERT_EQ(wrs, 4);
    for (sim::WrId wr = 0; wr < wrs; ++wr) {
      EXPECT_FALSE(w.u.fabric().wr_reaped(wr));
      EXPECT_GT(w.u.fabric().wr_finish(wr), p.now());
    }
    SimTime pushes = 0;
    if (path == NetPath::kStaged) {
      const std::vector<tida::GhostCopy>& plan =
          w.u.exchange_plan(Boundary::kPeriodic);
      const tida::PairIndex& index = w.u.exchange_pairs(Boundary::kPeriodic);
      for (const std::size_t pair : w.u.wire_pairs(Boundary::kPeriodic)) {
        std::vector<Box> ghost;
        for (const std::size_t c : index.copies_of(index.pairs[pair])) {
          ghost.push_back(plan[c].dst_box);
        }
        pushes += static_cast<SimTime>(tida::coalesce(ghost).size());
      }
      EXPECT_EQ(pushes, wrs);  // a slab's ghost plane is one box
    }
    EXPECT_EQ(spent,
              (2 * static_cast<SimTime>(wrs) + pushes) *
                  p.config().host_api_overhead_ns);
  }
}

TEST_F(ClusterTest, StagedWirePairsStageAndPushAsOnePayload) {
  // The staged path moves each wire pair as one payload on all three
  // hops: one send, and one pitched copy per coalesced box of the pair's
  // source cells (staging) and of its ghost cells (push). A slab pair's
  // face, edge and corner pieces tile one plane on each side, so 4 pairs
  // take 4 copies each way, not one per planned copy (36). The push and
  // the send carry each pair's 18x18 ghost plane; staging reads each
  // source cell once, and the periodic wrap in i and j reads only the
  // 16x16 source plane's own cells again.
  ResidentPair w(two_nodes(NetPath::kStaged));
  sim::Trace& trace = cuem::platform().trace();
  trace.set_recording(true);
  const TransferAccounting before = w.u.transfers();
  const std::size_t first = trace.events().size();
  w.u.fill_boundary(Boundary::kPeriodic);
  std::uint64_t stages = 0;
  std::uint64_t pushes = 0;
  for (std::size_t e = first; e < trace.events().size(); ++e) {
    const std::string& label = trace.events()[e].label;
    stages += label.starts_with("dD2H:R") ? 1 : 0;
    pushes += label.starts_with("dH2D:R") ? 1 : 0;
  }
  const tida::PairIndex& index = w.u.exchange_pairs(Boundary::kPeriodic);
  std::uint64_t cells = 0;
  for (const std::size_t p : w.u.wire_pairs(Boundary::kPeriodic)) {
    cells += index.pairs[p].cells;
  }
  const std::uint64_t pairs = w.u.wire_pairs(Boundary::kPeriodic).size();
  ASSERT_EQ(pairs, 4u);
  ASSERT_EQ(cells, pairs * 18 * 18);
  EXPECT_EQ(w.u.staged_ghost_sends(), pairs);
  EXPECT_EQ(stages, pairs);
  EXPECT_EQ(pushes, pairs);
  const TransferAccounting& after = w.u.transfers();
  EXPECT_EQ(after.delta_d2h_ops - before.delta_d2h_ops, pairs);
  EXPECT_EQ(after.delta_h2d_ops - before.delta_h2d_ops, pairs);
  EXPECT_EQ(after.d2h_bytes - before.d2h_bytes,
            pairs * 16 * 16 * sizeof(double));
  EXPECT_EQ(after.h2d_bytes - before.h2d_bytes, cells * sizeof(double));
  EXPECT_EQ(w.u.fabric().counters().net_bytes, cells * sizeof(double));
}

TEST_F(ClusterTest, SplitPhaseBlockingAndOneNodeFieldsAreBitwiseEqual) {
  const auto run = [](const ClusterOptions& opts, bool split) {
    ResidentPair w(opts);
    for (int s = 0; s < 3; ++s) {
      ClusterTileArray<double>& in = s % 2 == 0 ? w.u : w.un;
      ClusterTileArray<double>& out = s % 2 == 0 ? w.un : w.u;
      if (split) {
        w.split_step(in, out);
      } else {
        in.fill_boundary(Boundary::kPeriodic);
        w.sweep(in, out, /*want_boundary=*/false);
        w.sweep(in, out, /*want_boundary=*/true);
      }
    }
    return valid_cells(w.un);
  };
  const std::vector<double> one_node = run(ClusterOptions{}, false);
  for (const NetPath path : {NetPath::kGpuDirect, NetPath::kStaged}) {
    SCOPED_TRACE(to_string(path));
    EXPECT_TRUE(bitwise_equal(run(two_nodes(path), /*split=*/true), one_node));
    EXPECT_TRUE(bitwise_equal(run(two_nodes(path), /*split=*/false), one_node));
  }
}

TEST_F(ClusterTest, SnapshotWithRequestsInFlightReplaysIdentically) {
  // Captured right after exchange_end, the epoch's requests are still on
  // the wire: the fabric's outstanding queues and the streams' waits on
  // their completions ride the snapshot, and the rest of the run replays
  // to the same field at the same time.
  for (const NetPath path : {NetPath::kGpuDirect, NetPath::kStaged}) {
    SCOPED_TRACE(to_string(path));
    ResidentPair w(two_nodes(path, slow_link()));
    w.u.exchange_begin(Boundary::kPeriodic);
    w.sweep(w.u, w.un, /*want_boundary=*/false);
    w.u.exchange_end();
    ASSERT_FALSE(w.u.fabric().wr_reaped(0));

    sim::SnapshotWriter writer;
    world_capture(writer);
    w.u.capture(writer);
    w.un.capture(writer);
    const std::vector<std::uint8_t> snap = writer.take();

    const auto tail = [&w] {
      w.sweep(w.u, w.un, /*want_boundary=*/true);
      w.split_step(w.un, w.u);
      std::vector<double> cells = valid_cells(w.u);
      return std::make_pair(std::move(cells), cuem::platform().now());
    };
    const auto first = tail();
    {
      sim::SnapshotReader r(snap);
      world_restore(r);
      w.u.restore(r);
      w.un.restore(r);
      ASSERT_TRUE(r.at_end());
    }
    const auto second = tail();
    EXPECT_TRUE(bitwise_equal(first.first, second.first));
    EXPECT_EQ(first.second, second.second);
  }
}

TEST_F(ClusterTest, DestroyingAnArrayRightAfterExchangeEndWaitsForTheWire) {
  // Tear-down waits for the requests exchange_end left in flight before
  // the slots and host buffers they touch are freed; the sanitizer build
  // also checks that no free races them.
  for (const NetPath path : {NetPath::kGpuDirect, NetPath::kStaged}) {
    SCOPED_TRACE(to_string(path));
    const FreshPlatform platform;
#ifdef TIDACC_CUEM_SANITIZER
    cuem::CuemSanOptions opts;
    opts.enabled = true;  // collect mode: findings inspected below
    cuem::san::configure(opts);
#endif
    SimTime last = 0;
    {
      ClusterTileArray<double> u(Box::cube(16), Index3{16, 16, 2}, 1,
                                 two_nodes(path, slow_link()));
      u.fill(pattern);
      for (int r = 0; r < u.num_regions(); ++r) {
        u.acquire_on_device(r);
      }
      u.exchange_begin(Boundary::kPeriodic);
      u.exchange_end();
      for (sim::WrId wr = 0; wr < posted(u); ++wr) {
        last = std::max(last, u.fabric().wr_finish(wr));
      }
      ASSERT_LT(cuem::platform().now(), last);
    }
    EXPECT_GE(cuem::platform().now(), last);
#ifdef TIDACC_CUEM_SANITIZER
    EXPECT_TRUE(cuem::san::clean()) << cuem::san::report_json();
    cuem::san::configure(cuem::CuemSanOptions{});
#endif
  }
}

TEST_F(ClusterTest, ReleaseAfterAnInteriorFirstSweepDrainsInLastUseOrder) {
  // Node-boundary regions compute last, after exchange_end. Each device's
  // D2H engine takes the drains in the order release_all_to_host queues
  // them, and that is the order the regions were last used, so no
  // finished interior region waits behind a boundary region's kernel.
  ResidentPair w(two_nodes());
  cuem::platform().trace().set_recording(true);
  w.split_step(w.u, w.un);
  const std::size_t before = cuem::platform().trace().events().size();
  w.un.release_all_to_host();
  const std::vector<sim::TraceEvent>& events =
      cuem::platform().trace().events();
  std::vector<std::vector<int>> drained(2);
  for (std::size_t e = before; e < events.size(); ++e) {
    if (events[e].kind != sim::OpKind::kCopyD2H) {
      continue;
    }
    for (int r = 0; r < w.un.num_regions(); ++r) {
      if (w.un.stream_of_region(r) == events[e].stream) {
        drained[static_cast<std::size_t>(w.un.device_of_region(r))]
            .push_back(r);
      }
    }
  }
  ASSERT_EQ(w.boundary, (std::vector<int>{0, 3, 4, 7}));
  EXPECT_EQ(drained[0], (std::vector<int>{1, 2, 0, 3}));
  EXPECT_EQ(drained[1], (std::vector<int>{5, 6, 4, 7}));
}

// --- sanitizer cleanliness (runs in the TIDACC_CUEM_SANITIZER build) ---

TEST_F(ClusterTest, StagedSourcesFeedingTwoNodesStageBeforeEverySend) {
  // Three nodes of one slab each; the last slab (2 cells) is thinner than
  // the ghost (3), so each end slab feeds both other nodes, partly from the
  // same cells: two of its wire groups stage the same host bytes. Every
  // staging copy lands before any send reads them — the sanitizer build
  // checks that no send races a copy — and the field matches the 1-node
  // exchange.
  const auto run = [](const ClusterOptions& opts) {
    cuem::configure(DeviceConfig::k40m(), /*functional=*/true,
                    /*num_devices=*/3, Interconnect::pcie());
    oacc::reset();
    ClusterTileArray<double> u(Box::cube(10), Index3{10, 10, 4}, 3, opts);
    u.fill(pattern);
    for (int r = 0; r < u.num_regions(); ++r) {
      u.acquire_on_device(r);
    }
    for (int s = 0; s < 2; ++s) {
      u.fill_boundary(Boundary::kPeriodic);
      compute_gpu(u, 1, unit_cost(),
                  [](DeviceView<double> v, int i, int j, int k) {
                    v(i, j, k) = 0.5 * v(i, j, k + 1) + v(i, j, k - 3);
                  });
    }
    u.release_all_to_host();
    std::vector<double> cells;
    for (int r = 0; r < u.num_regions(); ++r) {
      const tida::Region<double> reg = u.region(r);
      cells.insert(cells.end(), reg.data, reg.data + reg.cells());
    }
    return cells;
  };
  const std::vector<double> one_node = run(ClusterOptions{});
#ifdef TIDACC_CUEM_SANITIZER
  cuem::CuemSanOptions opts;
  opts.enabled = true;  // collect mode: findings inspected below
  cuem::san::configure(opts);
#endif
  ClusterOptions staged;
  staged.nodes = 3;
  staged.path = NetPath::kStaged;
  EXPECT_TRUE(bitwise_equal(run(staged), one_node));
#ifdef TIDACC_CUEM_SANITIZER
  EXPECT_TRUE(cuem::san::clean()) << cuem::san::report_json();
  cuem::san::configure(cuem::CuemSanOptions{});
#endif
}

TEST_F(ClusterTest, OutOfCoreFallbackSendsLandBeforeTheirGhostsArePushed) {
  // Out of core the exchange falls back to the host: the priced sends
  // deliver ghost cells to the destinations' host buffers, so no push of a
  // destination's ghosts to its device may start before each send carrying
  // them ends. Streaming would push them first; the fallback drains
  // instead. The sanitizer build checks the sends' claims against every
  // push and upload too.
#ifdef TIDACC_CUEM_SANITIZER
  cuem::CuemSanOptions san;
  san.enabled = true;
  san.fatal = true;
  cuem::san::configure(san);
#endif
  ClusterOptions opts = two_nodes(NetPath::kStaged);
  opts.multi.max_slots = 2;
  opts.multi.delta_transfers = true;
  opts.multi.streaming_guard = StreamingGuard::kForceStreaming;
  ClusterTileArray<double> u(Box::cube(32), Index3{32, 32, 4}, 1, opts);
  u.fill(pattern);
  sim::Trace& trace = cuem::platform().trace();
  trace.set_recording(true);
  const auto region_after = [](const std::string& label, const char* tag) {
    return std::stoi(label.substr(label.rfind(tag) + 2));
  };
  for (int step = 0; step < 3; ++step) {
    const std::size_t begin = trace.events().size();
    u.fill_boundary(Boundary::kPeriodic);
    for (int r = 0; r < u.num_regions(); ++r) {
      compute_gpu(u, r, unit_cost(),
                  [](DeviceView<double> v, int i, int j, int k) {
                    v(i, j, k) = 0.5 * (v(i, j, k - 1) + v(i, j, k + 1));
                  });
    }
    std::vector<const sim::TraceEvent*> sends;
    std::vector<const sim::TraceEvent*> pushes;
    for (std::size_t e = begin; e < trace.events().size(); ++e) {
      const sim::TraceEvent& ev = trace.events()[e];
      if (ev.label.starts_with("S:R")) {
        sends.push_back(&ev);
      } else if (ev.label.starts_with("dH2D:R") ||
                 ev.label.starts_with("zdH2D:R")) {
        pushes.push_back(&ev);
      }
    }
    ASSERT_FALSE(sends.empty()) << "step " << step;
    for (const sim::TraceEvent* send : sends) {
      for (const sim::TraceEvent* push : pushes) {
        if (region_after(push->label, ":R") ==
            region_after(send->label, ">R")) {
          EXPECT_GE(push->start, send->finish)
              << "step " << step << ": " << push->label << " vs "
              << send->label;
        }
      }
    }
  }
  u.release_all_to_host();
#ifdef TIDACC_CUEM_SANITIZER
  EXPECT_TRUE(cuem::san::clean()) << cuem::san::report_json();
  cuem::san::configure(cuem::CuemSanOptions{});
#endif
}

// --- one options struct: every option composes with the cluster ---

constexpr int kHeatN = 16;
constexpr int kHeatSteps = 6;  // whole blocks at k = 2 and at k = 3

/// kernels::heat_reference's field after kHeatSteps steps.
std::vector<double> heat_reference_field() {
  std::vector<double> u(static_cast<std::size_t>(kHeatN) * kHeatN * kHeatN);
  kernels::heat_init_flat(u.data(), kHeatN);
  kernels::heat_reference(u, kHeatN, kHeatSteps);
  return u;
}

/// The heat equation on 16^3 in eight 2-cell slabs on a fresh 2-device
/// platform, stepped in blocks of k sub-steps per residency (compute_k)
/// over a ghost ring k cells wide: at k = 3 every region is thinner than
/// its ghost, whose ring then spans two neighbours on each side.
template <typename Array>
struct BlockedHeat {
  template <typename Opts>
  BlockedHeat(const Opts& opts, int depth)
      : k(depth), u(Box::cube(kHeatN), Index3{kHeatN, kHeatN, 2}, k, opts) {
    u.fill([](const Index3& p) {
      return kernels::heat_initial(p.i, p.j, p.k);
    });
  }

  void compute(const std::vector<int>& regions) {
    for (const int r : regions) {
      compute_k(u, r, k, /*radius=*/1, kernels::heat_cost(),
                [](DeviceView<double> in, DeviceView<double> out, int i,
                   int j, int kk) {
                  out(i, j, kk) = kernels::heat_point(in, i, j, kk);
                });
    }
  }

  /// One block: a periodic exchange, then k sub-steps on every region. A
  /// split-phase block computes the node-interior regions between
  /// exchange_begin and exchange_end, the node-boundary ones after.
  void block(bool split) {
    std::vector<int> interior;
    std::vector<int> boundary;
    if constexpr (std::is_same_v<Array, ClusterTileArray<double>>) {
      boundary = u.node_boundary_regions(Boundary::kPeriodic);
    }
    for (int r = 0; r < u.num_regions(); ++r) {
      if (std::find(boundary.begin(), boundary.end(), r) == boundary.end()) {
        interior.push_back(r);
      }
    }
    if constexpr (std::is_same_v<Array, ClusterTileArray<double>>) {
      if (split) {
        u.exchange_begin(Boundary::kPeriodic);
        compute(interior);
        u.exchange_end();
        compute(boundary);
        return;
      }
    }
    u.fill_boundary(Boundary::kPeriodic);
    compute(interior);
    compute(boundary);
  }

  /// kHeatSteps steps, in blocks of k.
  void run(bool split) {
    for (int s = 0; s < kHeatSteps; s += k) {
      block(split);
    }
  }

  /// The whole field, once home.
  std::vector<double> field() {
    u.release_all_to_host();
    std::vector<double> out(static_cast<std::size_t>(kHeatN) * kHeatN *
                            kHeatN);
    u.copy_out(out.data());
    return out;
  }

  FreshPlatform platform;  // first member: configured before the array
  int k;
  Array u;
};

/// The field after kHeatSteps steps in blocks of k.
template <typename Array, typename Opts>
std::vector<double> blocked_heat(const Opts& opts, int k, bool split) {
  BlockedHeat<Array> h(opts, k);
  h.run(split);
  return h.field();
}

/// `multi` on one node, then on two nodes on both wire paths in both
/// exchange modes: every field is kernels::heat_reference's, bit for bit.
void expect_heat_reference_on_every_path(const MultiAccOptions& multi,
                                         int k) {
  const std::vector<double> ref = heat_reference_field();
  ClusterOptions one;
  one.multi = multi;
  const std::vector<double> one_node =
      blocked_heat<ClusterTileArray<double>>(one, k, /*split=*/false);
  EXPECT_TRUE(bitwise_equal(one_node, ref));
  for (const NetPath path : {NetPath::kGpuDirect, NetPath::kStaged}) {
    for (const bool split : {false, true}) {
      SCOPED_TRACE(std::string(to_string(path)) +
                   (split ? " split-phase" : " blocking"));
      ClusterOptions two = two_nodes(path);
      two.multi = multi;
      EXPECT_TRUE(bitwise_equal(
          blocked_heat<ClusterTileArray<double>>(two, k, split), one_node));
    }
  }
}

TEST_F(ClusterTest, TemporalBlockingMatchesTheHeatReferenceOnEveryPath) {
  for (const int k : {2, 3}) {
    for (const bool out_of_core : {false, true}) {
      SCOPED_TRACE("k=" + std::to_string(k) +
                   (out_of_core ? " out of core" : " resident"));
      MultiAccOptions multi;
      multi.time_block_k = k;
      if (out_of_core) {
        multi.max_slots = 2;  // 4 regions per device: the host fallback
      }
      expect_heat_reference_on_every_path(multi, k);
    }
  }
}

TEST_F(ClusterTest, RoundRobinAndTheCachingAblationMatchTheHeatReference) {
  MultiAccOptions rr;
  rr.time_block_k = 2;
  rr.placement = DevicePlacement::kRoundRobin;
  {
    SCOPED_TRACE("round-robin");
    expect_heat_reference_on_every_path(rr, 2);
  }
  MultiAccOptions uncached;
  uncached.time_block_k = 2;
  uncached.disable_caching = true;
  {
    SCOPED_TRACE("caching disabled");
    expect_heat_reference_on_every_path(uncached, 2);
  }
  uncached.devices = 2;
  EXPECT_TRUE(bitwise_equal(
      blocked_heat<MultiAccTileArray<double>>(uncached, 2, /*split=*/false),
      heat_reference_field()));
  // The ablation acts on two devices: every acquire re-uploads its region.
  const auto h2d_bytes = [](const MultiAccOptions& o) {
    BlockedHeat<MultiAccTileArray<double>> h(o, 2);
    h.run(/*split=*/false);
    return h.u.h2d_bytes();
  };
  MultiAccOptions cached = uncached;
  cached.disable_caching = false;
  EXPECT_GT(h2d_bytes(uncached), h2d_bytes(cached));
}

TEST_F(ClusterTest, TemporalBlockingCaptureRestoreReplaysBitwise) {
  ClusterOptions o = two_nodes(NetPath::kGpuDirect);
  o.multi.time_block_k = 2;
  BlockedHeat<ClusterTileArray<double>> h(o, 2);
  h.block(/*split=*/true);  // mid-campaign: swapped slot buffers, live MRs

  sim::SnapshotWriter w;
  world_capture(w);
  h.u.capture(w);
  const std::vector<std::uint8_t> snap = w.take();

  const auto tail = [&h] {
    h.block(/*split=*/true);
    h.block(/*split=*/false);
    std::vector<double> cells = h.field();
    return std::make_pair(std::move(cells), cuem::platform().now());
  };
  const auto first = tail();
  {
    sim::SnapshotReader r(snap);
    world_restore(r);
    h.u.restore(r);
    ASSERT_TRUE(r.at_end());
  }
  const auto second = tail();
  EXPECT_TRUE(bitwise_equal(first.first, second.first));
  EXPECT_EQ(first.second, second.second);
}

TEST_F(ClusterTest, AccTileArrayAskedForTwoDevicesNamesDevices) {
  for (const int devices : {0, 1}) {
    AccOptions o;
    o.devices = devices;
    AccTileArray<double> u(Box::cube(16), Index3{16, 16, 2}, 1, o);
    EXPECT_EQ(u.num_devices(), 1);
  }
  AccOptions o;
  o.devices = 2;
  try {
    AccTileArray<double> u(Box::cube(16), Index3{16, 16, 2}, 1, o);
    FAIL() << "an AccTileArray on two devices must not construct";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("devices=2"), std::string::npos) << msg;
  }
}

TEST_F(ClusterTest, TwoNodeWorkloadIsRaceFreeUnderSanitizer) {
#ifndef TIDACC_CUEM_SANITIZER
  GTEST_SKIP() << "built without TIDACC_CUEM_SANITIZER";
#else
  cuem::CuemSanOptions opts;
  opts.enabled = true;  // collect mode: findings inspected below
  cuem::san::configure(opts);
  const std::uint64_t rdma =
      run_heat<ClusterTileArray<double>>(two_nodes(NetPath::kGpuDirect), 2);
  EXPECT_TRUE(cuem::san::clean()) << cuem::san::report_json();

  cuem::configure(DeviceConfig::k40m(), /*functional=*/true,
                  /*num_devices=*/2, Interconnect::pcie());
  oacc::reset();
  cuem::san::configure(opts);
  const std::uint64_t staged =
      run_heat<ClusterTileArray<double>>(two_nodes(NetPath::kStaged), 2);
  EXPECT_TRUE(cuem::san::clean()) << cuem::san::report_json();

  EXPECT_EQ(rdma, staged);
  cuem::san::configure(cuem::CuemSanOptions{});  // disabled, state cleared
#endif
}

}  // namespace
}  // namespace tidacc::core

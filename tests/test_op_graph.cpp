// Unit tests for the static schedule analyzer (src/sim/op_graph):
// hand-built DAGs with known critical paths and slack, injected cycles,
// overlap arithmetic, the false-serialization lint's positive and negative
// cases, recorded-graph extraction (round-trip stability over a re-run),
// fabric credit/CQ edges, and the static-vs-dynamic MHP cross-check.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "cuem/cuem.hpp"
#include "net/fabric.hpp"
#include "sim/device_config.hpp"
#include "sim/kernel_profile.hpp"
#include "sim/op_graph.hpp"
#include "sim/platform.hpp"

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

/// Access to the bytes [lo, hi) of the buffer at address 0.
AccessRange span(std::uint64_t lo, std::uint64_t hi, bool write) {
  return AccessRange(0, ByteBox::span(lo, hi - lo), write);
}

/// Hand-built node covering [start, finish) with the given kind.
int put(OpGraph& g, OpKind kind, SimTime start, SimTime finish,
        std::vector<AccessRange> accesses = {},
        const std::string& label = {}) {
  OpNode n;
  n.kind = kind;
  n.start = start;
  n.finish = finish;
  n.accesses = std::move(accesses);
  n.label = label;
  return g.add_node(std::move(n));
}

// --- access ranges ---

TEST(AccessRange, ConflictNeedsOverlapAndAWrite) {
  const AccessRange r = span(0, 100, false);
  const AccessRange w = span(50, 150, true);
  const AccessRange w2 = span(100, 200, true);
  EXPECT_TRUE(conflicts(r, w));    // overlap, one writes
  EXPECT_TRUE(conflicts(w, w));    // overlap, both write
  EXPECT_FALSE(conflicts(r, r));   // overlap, neither writes
  EXPECT_FALSE(conflicts(r, w2));  // half-open intervals: [0,100) vs [100,..)

  // One slot of 4 slices of 10 rows of 10 doubles: its i = 0 and i = 9
  // ghost faces take one cell of every row, so their rows interleave and
  // their spans overlap, but they share no byte.
  constexpr std::uint64_t kSlot = 0x10000;
  constexpr std::size_t kRow = 10 * sizeof(double);
  const auto face = [](std::size_t col) {
    ByteBox b;
    b.offset = col * sizeof(double);
    b.width = sizeof(double);
    b.height = 10;
    b.depth = 4;
    b.row_pitch = kRow;
    b.slice_pitch = 10 * kRow;
    return AccessRange(kSlot, b, /*write=*/true);
  };
  EXPECT_FALSE(conflicts(face(0), face(9)));
  EXPECT_TRUE(conflicts(face(0), face(0)));
  // A flat span over one of their rows (row 3 of slice 1) meets both.
  const AccessRange row(kSlot, ByteBox::span(13 * kRow, kRow), false);
  EXPECT_TRUE(conflicts(row, face(0)));
  EXPECT_TRUE(conflicts(face(9), row));
  // The same row of another buffer at the same offset does not.
  const AccessRange elsewhere(kSlot + 0x10000, ByteBox::span(13 * kRow, kRow),
                              true);
  EXPECT_FALSE(conflicts(elsewhere, face(0)));
}

// --- critical path & slack on a hand-built DAG ---

TEST(OpGraphCpm, KnownChainAndSlack) {
  OpGraph g;
  // A(10) feeds B(20) and C(5); the A->B chain (30) is critical, C has
  // 15 ns of slack (it may finish any time before the chain ends).
  const int a = put(g, OpKind::kKernel, 0, 10);
  const int b = put(g, OpKind::kKernel, 10, 30);
  const int c = put(g, OpKind::kCopyH2D, 10, 15);
  g.add_edge(a, b, EdgeOrigin::kStream);
  g.add_edge(a, c, EdgeOrigin::kEvent);
  const CriticalPathReport rep = g.critical_path();
  EXPECT_EQ(rep.length, 30u);
  EXPECT_EQ(rep.makespan, 30u);
  ASSERT_EQ(rep.path.size(), 2u);
  EXPECT_EQ(rep.path[0], a);
  EXPECT_EQ(rep.path[1], b);
  ASSERT_EQ(rep.slack.size(), 3u);
  EXPECT_EQ(rep.slack[static_cast<std::size_t>(a)], 0u);
  EXPECT_EQ(rep.slack[static_cast<std::size_t>(b)], 0u);
  EXPECT_EQ(rep.slack[static_cast<std::size_t>(c)], 15u);
}

TEST(OpGraphCpm, ChainLengthBoundedByMakespanOnGappedSchedule) {
  OpGraph g;
  // The run left a 100 ns idle gap: chain is 20, makespan is 120.
  const int a = put(g, OpKind::kKernel, 0, 10);
  const int b = put(g, OpKind::kKernel, 110, 120);
  g.add_edge(a, b, EdgeOrigin::kStream);
  const CriticalPathReport rep = g.critical_path();
  EXPECT_EQ(rep.length, 20u);
  EXPECT_EQ(rep.makespan, 120u);
  EXPECT_LE(rep.length, rep.makespan);
}

// --- cycles ---

TEST(OpGraphCycles, InjectedCycleIsFoundAndDeadlockClassified) {
  OpGraph g;
  const int a = put(g, OpKind::kKernel, 0, 1);
  const int b = put(g, OpKind::kKernel, 1, 2);
  const int c = put(g, OpKind::kKernel, 2, 3);
  g.add_edge(a, b, EdgeOrigin::kEvent);
  g.add_edge(b, c, EdgeOrigin::kCredit);
  g.add_edge(c, a, EdgeOrigin::kCq);
  EXPECT_EQ(g.find_cycle().size(), 3u);
  // Every edge is a blocking wait, so this schedule can really deadlock.
  EXPECT_EQ(g.deadlock_cycle().size(), 3u);
}

TEST(OpGraphCycles, EngineLaneCycleIsNotADeadlock) {
  OpGraph g;
  const int a = put(g, OpKind::kCopyH2D, 0, 1);
  const int b = put(g, OpKind::kCopyH2D, 1, 2);
  g.add_edge(a, b, EdgeOrigin::kStream);
  // An engine lane is a resource, not a wait: a cycle through it cannot
  // deadlock (the hardware serializes, it does not block on futures).
  g.add_edge(b, a, EdgeOrigin::kEngine);
  EXPECT_FALSE(g.find_cycle().empty());
  EXPECT_TRUE(g.deadlock_cycle().empty());
}

TEST(OpGraphCycles, DagHasNoCycle) {
  OpGraph g;
  const int a = put(g, OpKind::kKernel, 0, 1);
  const int b = put(g, OpKind::kKernel, 1, 2);
  g.add_edge(a, b, EdgeOrigin::kStream);
  EXPECT_TRUE(g.find_cycle().empty());
  EXPECT_TRUE(g.deadlock_cycle().empty());
}

// --- overlap arithmetic ---

TEST(OpGraphOverlap, ExposedTimeAgainstComputeUnion) {
  OpGraph g;
  put(g, OpKind::kKernel, 0, 50);
  put(g, OpKind::kKernel, 40, 60);  // overlapping kernels merge to [0,60)
  const int x = put(g, OpKind::kCopyH2D, 0, 100, {}, "H2D-exposed");
  put(g, OpKind::kCopyD2H, 10, 40);  // fully hidden
  const OverlapReport rep = g.overlap();
  EXPECT_EQ(rep.transfer_busy_ns, 130u);
  EXPECT_EQ(rep.exposed_ns, 40u);  // [60,100) of the first transfer
  ASSERT_EQ(rep.exposed.size(), 1u);
  EXPECT_EQ(rep.exposed[0].node, x);
  EXPECT_EQ(rep.exposed[0].exposed_ns, 40u);
  EXPECT_NEAR(rep.efficiency, 1.0 - 40.0 / 130.0, 1e-12);
}

TEST(OpGraphOverlap, NoTransfersIsPerfectEfficiency) {
  OpGraph g;
  put(g, OpKind::kKernel, 0, 50);
  const OverlapReport rep = g.overlap();
  EXPECT_EQ(rep.transfer_busy_ns, 0u);
  EXPECT_EQ(rep.efficiency, 1.0);
}

// --- false-serialization lint ---

TEST(OpGraphLint, FlagsIndependentTransferBehindKernel) {
  OpGraph g;
  // Kernel writes [0,100); the transfer reads a disjoint buffer but was
  // made to wait for the kernel by a stream edge that binds its start.
  const int a = put(g, OpKind::kKernel, 0, 100,
                    {span(0, 100, true)}, "K");
  const int b = put(g, OpKind::kCopyH2D, 100, 150,
                    {span(1000, 1100, true)}, "T");
  g.add_edge(a, b, EdgeOrigin::kStream);
  const std::vector<FalseSerialization> fs = g.false_serializations();
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].src, a);
  EXPECT_EQ(fs[0].dst, b);
  EXPECT_EQ(fs[0].origin, EdgeOrigin::kStream);
  EXPECT_EQ(fs[0].slack_cost_ns, 100u);
}

TEST(OpGraphLint, RealDependencyIsNotFlagged) {
  OpGraph g;
  const int a = put(g, OpKind::kKernel, 0, 100,
                    {span(0, 100, true)});
  const int b = put(g, OpKind::kCopyD2H, 100, 150,
                    {span(0, 100, false)});  // reads what A wrote
  g.add_edge(a, b, EdgeOrigin::kStream);
  EXPECT_TRUE(g.false_serializations().empty());
}

TEST(OpGraphLint, UnannotatedOpsAreConservativelyTrusted) {
  OpGraph g;
  const int a = put(g, OpKind::kKernel, 0, 100);
  const int b = put(g, OpKind::kCopyH2D, 100, 150);
  g.add_edge(a, b, EdgeOrigin::kStream);
  EXPECT_TRUE(g.false_serializations().empty());
}

TEST(OpGraphLint, TiedEdgeIsNotBindingAlone) {
  OpGraph g;
  // Two predecessors finish at the transfer's start: neither edge alone
  // pinned it, so neither is reported.
  const int a = put(g, OpKind::kKernel, 0, 100,
                    {span(0, 100, true)});
  const int a2 = put(g, OpKind::kKernel, 0, 100,
                     {span(200, 300, true)});
  const int b = put(g, OpKind::kCopyH2D, 100, 150,
                    {span(1000, 1100, true)});
  g.add_edge(a, b, EdgeOrigin::kStream);
  g.add_edge(a2, b, EdgeOrigin::kEvent);
  EXPECT_TRUE(g.false_serializations().empty());
}

TEST(OpGraphLint, EngineEdgesAreNeverFindings) {
  OpGraph g;
  // Back-to-back transfers on one DMA engine: the serialization is the
  // hardware's, not the schedule's.
  const int a = put(g, OpKind::kCopyH2D, 0, 100,
                    {span(0, 100, true)});
  const int b = put(g, OpKind::kCopyH2D, 100, 200,
                    {span(1000, 1100, true)});
  g.add_edge(a, b, EdgeOrigin::kEngine);
  EXPECT_TRUE(g.false_serializations().empty());
}

// --- recorded graphs (Platform hooks) ---

/// A small two-stream pipeline with an event edge, recorded while a graph
/// is attached. Returns the platform so callers can inspect further.
void run_pipeline(OpGraph& g) {
  Platform::reset_instance(zero_overhead_config(), /*functional=*/false);
  Platform& p = Platform::instance();
  p.set_hb_tracking(true);
  p.set_op_graph(&g);
  const StreamId s1 = p.create_stream();
  const StreamId s2 = p.create_stream();
  CopyRequest h2d;
  h2d.kind = OpKind::kCopyH2D;
  h2d.bytes = 1 * kMiB;
  h2d.host_mem = HostMemKind::kPinned;
  h2d.label = "h2d";
  p.enqueue_copy(s1, h2d, {});
  const EventId e = p.record_event(s1);
  p.stream_wait_event(s2, e);
  KernelProfile prof;
  prof.elements = 1000;
  prof.flops_per_element = 100.0;
  p.enqueue_kernel(s2, prof, 0, {}, "k");
  CopyRequest d2h;
  d2h.kind = OpKind::kCopyD2H;
  d2h.bytes = 1 * kMiB;
  d2h.host_mem = HostMemKind::kPinned;
  d2h.label = "d2h";
  p.enqueue_copy(s2, d2h, {});
  p.sync_all();
  p.set_op_graph(nullptr);
}

TEST(OpGraphRecorded, ExtractionRoundTripIsStable) {
  OpGraph g1;
  run_pipeline(g1);
  OpGraph g2;
  run_pipeline(g2);
  // Same program, same platform config: identical graph shape.
  EXPECT_EQ(g1.nodes().size(), g2.nodes().size());
  EXPECT_EQ(g1.edges().size(), g2.edges().size());
  EXPECT_EQ(g1.critical_path().length, g2.critical_path().length);
  EXPECT_EQ(g1.critical_path().makespan, g2.critical_path().makespan);
  // 3 ops + 1 event mark; the event edge made it into the graph.
  EXPECT_EQ(g1.nodes().size(), 4u);
  bool saw_event_edge = false;
  for (const OpEdge& e : g1.edges()) {
    saw_event_edge |= e.origin == EdgeOrigin::kEvent;
  }
  EXPECT_TRUE(saw_event_edge);
}

TEST(OpGraphRecorded, RecordedRunIsAcyclicAndBounded) {
  OpGraph g;
  run_pipeline(g);
  EXPECT_TRUE(g.find_cycle().empty());
  EXPECT_TRUE(g.deadlock_cycle().empty());
  const CriticalPathReport rep = g.critical_path();
  EXPECT_GT(rep.length, 0u);
  EXPECT_LE(rep.length, rep.makespan);
}

TEST(OpGraphRecorded, MhpCrosscheckAgreesWithVectorClocks) {
  OpGraph g;
  run_pipeline(g);
  ASSERT_TRUE(g.mhp_checkable());
  EXPECT_TRUE(g.mhp_crosscheck().empty());
}

TEST(OpGraphRecorded, WaitOnPreAttachmentEventDisablesMhp) {
  Platform::reset_instance(zero_overhead_config(), /*functional=*/false);
  Platform& p = Platform::instance();
  p.set_hb_tracking(true);
  const StreamId s1 = p.create_stream();
  const StreamId s2 = p.create_stream();
  const EventId e = p.record_event(s1);  // before the graph attaches
  OpGraph g;
  p.set_op_graph(&g);
  p.stream_wait_event(s2, e);
  p.set_op_graph(nullptr);
  EXPECT_FALSE(g.mhp_checkable());
  EXPECT_TRUE(g.mhp_crosscheck().empty());
}

// --- fabric credit / CQ edges ---

TEST(OpGraphFabric, SendRecvRecordsCreditAndCqEdges) {
  cuem::configure(DeviceConfig::k40m(), /*functional=*/false,
                  /*num_devices=*/2, Interconnect::pcie());
  Platform& p = cuem::platform();
  p.set_hb_tracking(true);
  OpGraph g;
  p.set_op_graph(&g);
  {
    Fabric fabric(/*num_nodes=*/2, FabricConfig::infiniband());
    void* src = nullptr;
    void* dst = nullptr;
    ASSERT_EQ(cuemMallocHost(&src, 1 * kMiB), cuemSuccess);
    ASSERT_EQ(cuemMallocHost(&dst, 1 * kMiB), cuemSuccess);
    const MrId src_mr = fabric.register_memory(0, src, 1 * kMiB);
    const MrId dst_mr = fabric.register_memory(1, dst, 1 * kMiB);
    const QpId qp = fabric.create_qp(0, 1);
    fabric.post_recv(qp, dst_mr, 0, 1 * kMiB);
    const WrId wr = fabric.post_send(qp, src_mr, 0, 1 * kMiB, "send");
    fabric.wait(wr);
    // The CQ-poll join is a host-frontier entry; it becomes a kCq edge
    // only once a later op is enqueued on another stream and inherits it.
    const StreamId after = p.create_stream();
    KernelProfile prof;
    prof.elements = 1'000;
    p.enqueue_kernel(after, prof, 0, {}, "after_cq_wait");
    p.sync_all();
    EXPECT_EQ(cuemFreeHost(src), cuemSuccess);
    EXPECT_EQ(cuemFreeHost(dst), cuemSuccess);
  }
  p.set_op_graph(nullptr);

  bool saw_recv_post = false;
  for (const OpNode& n : g.nodes()) {
    saw_recv_post |= n.cls == NodeClass::kRecvPost;
  }
  EXPECT_TRUE(saw_recv_post);
  bool saw_credit = false;
  bool saw_cq = false;
  for (const OpEdge& e : g.edges()) {
    saw_credit |= e.origin == EdgeOrigin::kCredit;
    saw_cq |= e.origin == EdgeOrigin::kCq;
  }
  EXPECT_TRUE(saw_credit);
  EXPECT_TRUE(saw_cq);
  EXPECT_TRUE(g.deadlock_cycle().empty());
  ASSERT_TRUE(g.mhp_checkable());
  EXPECT_TRUE(g.mhp_crosscheck().empty());
}

// --- trace-level overlap report (the bench-facing variant) ---

TEST(OverlapReportTrace, MatchesGraphOverlapOnSameRun) {
  Platform::reset_instance(zero_overhead_config(), /*functional=*/false);
  Platform& p = Platform::instance();
  p.trace().set_recording(true);
  OpGraph g;
  p.set_op_graph(&g);
  const StreamId s1 = p.create_stream();
  const StreamId s2 = p.create_stream();
  CopyRequest h2d;
  h2d.kind = OpKind::kCopyH2D;
  h2d.bytes = 4 * kMiB;
  h2d.host_mem = HostMemKind::kPinned;
  p.enqueue_copy(s1, h2d, {});
  KernelProfile prof;
  prof.elements = 1'000'000;
  prof.dev_bytes_per_element = 16.0;
  p.enqueue_kernel(s2, prof, 0, {}, "k");
  p.sync_all();
  p.set_op_graph(nullptr);

  const OverlapReport from_graph = g.overlap();
  const OverlapReport from_trace = overlap_report(p.trace());
  EXPECT_EQ(from_graph.transfer_busy_ns, from_trace.transfer_busy_ns);
  EXPECT_EQ(from_graph.exposed_ns, from_trace.exposed_ns);
  EXPECT_EQ(from_graph.efficiency, from_trace.efficiency);
}

}  // namespace
}  // namespace tidacc::sim

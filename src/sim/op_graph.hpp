// Static schedule analyzer: the complete dependency DAG of a recorded run.
//
// While attached to a Platform (set_op_graph), every scheduled operation
// becomes a node and every ordering constraint the simulator enforces
// becomes a typed edge:
//
//   kStream  — stream FIFO program order (op after op on the same stream)
//   kEngine  — engine-lane serialization (DMA/compute/NIC lane FIFO)
//   kEvent   — cudaStreamWaitEvent edges (event record -> waiting op)
//   kHost    — host observation order (sync_stream/sync_all/sync_event,
//              blocking or staged copies, successful completion polls):
//              the op is ordered after everything the host had observed
//              when it was enqueued
//   kCredit  — fabric receive credit (post_recv -> the send it admits)
//   kCq      — fabric completion-queue waits/polls feeding later work
//
// The edge taxonomy deliberately mirrors the happens-before machinery the
// cuem sanitizer consumes: every origin except kEngine corresponds to a
// vector-clock join, and kEngine is exactly the class of ordering the
// simulator enforces but real hardware does not guarantee. That makes the
// graph a *static* may-happen-in-parallel relation that can be diffed
// against the dynamic racecheck (mhp_crosscheck), and makes engine edges
// excludable from the wait-for analysis (they are resources, not waits).
//
// Four analyses run over the extracted graph (docs/ANALYSIS.md):
//   critical_path()         — longest dependency chain vs achieved makespan,
//                             per-node slack (CPM early/late schedule)
//   overlap()               — exposed-transfer report: every H2D/D2H/wire op
//                             interval not hidden under concurrent compute
//   false_serializations()  — schedule edges that delay a transfer behind an
//                             op it has no data dependency on
//   deadlock_cycle()        — wait-for-graph cycle search over the blocking
//                             edge origins (stream/event/host/credit/CQ)
//   mhp_crosscheck()        — static reachability diffed against the dynamic
//                             vector clocks stored on each node
//
// Graphs can also be hand-built (add_node/add_edge) for tests and for
// what-if analysis of schedules that were never executed.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/byte_box.hpp"
#include "sim/platform.hpp"
#include "sim/trace.hpp"

namespace tidacc::sim {

/// What a graph node models. kOp nodes are scheduled operations (kernels,
/// copies, fabric work requests); kEventMark nodes are cuemEventRecord
/// points (zero duration, stream-ordered); kRecvPost nodes are fabric
/// receive-credit postings (host-side, source nodes of kCredit edges).
enum class NodeClass : int { kOp = 0, kEventMark = 1, kRecvPost = 2 };

const char* to_string(NodeClass c);

/// Why an edge orders its endpoints (see the taxonomy above).
enum class EdgeOrigin : int {
  kStream = 0,
  kEngine = 1,
  kEvent = 2,
  kHost = 3,
  kCredit = 4,
  kCq = 5
};

const char* to_string(EdgeOrigin o);

/// Bytes an op reads or writes: `box` counts from `base`, the start of the
/// buffer it lies in, in the process's own address space (host and device
/// buffers are both simulator-side allocations, so raw addresses are a
/// valid global resource namespace). Boxes on one base compare exactly;
/// boxes on different bases compare by their spans.
struct AccessRange {
  AccessRange(std::uint64_t base_address, const ByteBox& footprint,
              bool writes)
      : base(base_address), box(footprint), write(writes) {}

  std::uint64_t base;
  ByteBox box;
  bool write;
};

/// True when `a` and `b` touch a common byte and at least one writes.
bool conflicts(const AccessRange& a, const AccessRange& b);

struct OpNode {
  NodeClass cls = NodeClass::kOp;
  OpKind kind = OpKind::kKernel;
  EngineId engine = EngineId::kCompute;
  StreamId stream = -1;
  int device = 0;
  SimTime start = 0;
  SimTime finish = 0;
  std::uint64_t bytes = 0;
  std::string label;
  /// Vector clock of the op when hb tracking was on; empty otherwise.
  HbClock hb;
  /// Byte ranges the op is known to touch (empty = unannotated: analyses
  /// that need to prove independence treat the op conservatively).
  std::vector<AccessRange> accesses;
};

struct OpEdge {
  int src = -1;
  int dst = -1;
  EdgeOrigin origin = EdgeOrigin::kStream;
};

/// Longest-dependency-chain (CPM) analysis result. The chain length is a
/// lower bound on any legal execution of the same dependency structure;
/// `makespan` is what the recorded run achieved. `slack[i]` is how far node
/// i could slip without stretching the chain (0 = on the critical path).
struct CriticalPathReport {
  SimTime length = 0;
  SimTime makespan = 0;
  std::vector<int> path;       ///< node ids, source to sink
  std::vector<SimTime> slack;  ///< per node, indexed like nodes()
};

/// One transfer interval not (fully) hidden under concurrent compute.
struct ExposedTransfer {
  int node = -1;
  std::string label;
  SimTime start = 0;
  SimTime finish = 0;
  SimTime exposed_ns = 0;  ///< part of [start,finish) with no kernel running
};

/// Overlap-efficiency summary: how much of the total transfer time was
/// hidden under concurrent compute. `efficiency` is 1 - exposed/busy
/// (1.0 when there are no transfers).
struct OverlapReport {
  SimTime transfer_busy_ns = 0;  ///< sum of transfer durations
  SimTime exposed_ns = 0;        ///< sum of unhidden transfer time
  double efficiency = 1.0;
  std::vector<ExposedTransfer> exposed;  ///< only ops with exposed time > 0
};

/// A schedule edge that delays a transfer behind an op it has no data
/// dependency on — an over-broad sync or a missed split-phase opportunity.
/// `slack_cost_ns` is how much earlier the transfer could have started had
/// this edge not existed (bounded by its other constraints).
struct FalseSerialization {
  int src = -1;
  int dst = -1;
  EdgeOrigin origin = EdgeOrigin::kStream;
  SimTime slack_cost_ns = 0;
};

/// One disagreement between the static MHP relation and the dynamic
/// vector clocks. static_ordered && !dynamic_ordered means the graph has a
/// spurious edge (over-serialized model); the converse means the graph is
/// missing an ordering the clocks enforce (missed-race potential in the
/// static view).
struct MhpMismatch {
  int a = -1;
  int b = -1;
  bool static_ordered = false;
  bool dynamic_ordered = false;
};

/// The op-dependency graph plus its recording state. One instance is
/// attached to at most one Platform at a time (Platform::set_op_graph);
/// attachment must happen before the ops of interest are enqueued — the
/// graph only sees what is scheduled while attached. Graph state is
/// deliberately NOT part of platform snapshots: it is a transient analysis
/// attachment, re-attached fresh after any restore.
class OpGraph {
 public:
  // --- construction (manual, for tests and what-if schedules) ---

  int add_node(OpNode n);
  void add_edge(int src, int dst, EdgeOrigin origin);

  const std::vector<OpNode>& nodes() const { return nodes_; }
  const std::vector<OpEdge>& edges() const { return edges_; }

  /// Last node recorded on `s` (any class), or -1.
  int last_node_of_stream(StreamId s) const;

  /// stream_wait_event calls that referenced an event recorded before this
  /// graph was attached. Non-zero means the graph is missing ordering and
  /// mhp_crosscheck() refuses to certify (returns empty; see
  /// mhp_checkable()).
  int num_unknown_event_waits() const { return unknown_event_waits_; }
  bool mhp_checkable() const { return unknown_event_waits_ == 0; }

  // --- recording hooks (driven by Platform / Fabric while attached) ---

  struct SchedRecord {
    StreamId stream = -1;
    int device = 0;
    EngineId engine = EngineId::kCompute;
    OpKind kind = OpKind::kKernel;
    SimTime start = 0;
    SimTime finish = 0;
    std::uint64_t bytes = 0;
    const std::string* label = nullptr;
    const HbClock* hb = nullptr;
  };

  /// Records a scheduled op. `lane_keys` identify the engine lanes the op
  /// serialized on (device-table lanes by packed key, caller-owned external
  /// lanes by pointer identity); the previous op on each lane gets a
  /// kEngine edge. Returns the new node id.
  int on_scheduled(const SchedRecord& r,
                   const std::vector<std::uint64_t>& lane_keys,
                   const std::vector<const void*>& ext_lane_keys = {});

  /// Records a cuemEventRecord point as a kEventMark node.
  void on_event_record(StreamId s, EventId e, SimTime t, int device,
                       const HbClock* hb);

  /// Queues a kEvent edge from event `e`'s mark to the next node on `s`.
  void on_stream_wait_event(StreamId s, EventId e);

  /// Host observed stream `s` drained (sync_stream / successful query).
  void on_host_join_stream(StreamId s);
  /// Host observed event `e` complete (sync_event / successful poll).
  void on_host_join_event(EventId e);
  /// Host observed every stream drained (sync_all).
  void on_host_join_all();
  /// Host blocked until the op just scheduled completed (blocking or
  /// host-staged copies).
  void on_host_join_last_op();

  /// Tags the next on_host_join_* call with a non-default edge origin
  /// (the fabric uses kCq for completion-queue waits and polls).
  void set_join_origin_hint(EdgeOrigin o);

  /// Attaches an access to the newest kOp node on `s`. Fed by cuem::claim
  /// only, right after the op's enqueue; no-op for an empty box or when the
  /// stream has no op yet.
  void note_access(StreamId s, const AccessRange& access);

  /// Records a fabric receive-credit posting; returns the kRecvPost node.
  int on_recv_post(std::string label, SimTime t);

  /// Makes the next on_scheduled node (the send this credit admits) get a
  /// kCredit edge from `recv_node`. -1 clears.
  void arm_credit_edge(int recv_node);

  // --- analyses ---

  /// A dependency cycle over every edge (empty = DAG). Recorded graphs are
  /// acyclic by construction; hand-built graphs may not be.
  std::vector<int> find_cycle() const;

  /// Wait-for-graph cycle search over the blocking edge origins
  /// (kStream/kEvent/kHost/kCredit/kCq — kEngine lanes are resources, not
  /// waits). Empty result certifies the schedule deadlock-free under every
  /// legal interleaving of its blocking constraints.
  std::vector<int> deadlock_cycle() const;

  /// CPM longest-chain analysis. Requires an acyclic graph.
  CriticalPathReport critical_path() const;

  /// Exposed-transfer analysis over the recorded intervals.
  OverlapReport overlap() const;

  /// False-serialization lint (see FalseSerialization). Only flags edges
  /// where both endpoints carry access annotations that provably do not
  /// conflict, the edge is the binding start constraint of the transfer,
  /// and removing it would start the transfer strictly earlier.
  std::vector<FalseSerialization> false_serializations() const;

  /// Static-vs-dynamic MHP diff over kOp nodes carrying vector clocks.
  /// Static order is reachability over every edge except kEngine (matching
  /// the hb model, which deliberately excludes lane FIFO). Returns at most
  /// `max_report` mismatches; empty when the graph is not checkable
  /// (num_unknown_event_waits() > 0) or hb was off.
  std::vector<MhpMismatch> mhp_crosscheck(std::size_t max_report = 32) const;

 private:
  struct FrontierEntry {
    int node = -1;
    EdgeOrigin origin = EdgeOrigin::kHost;
  };

  void join_frontier(StreamId s, int node);
  EdgeOrigin take_join_origin();
  bool topo_order(std::vector<int>* out, bool waits_only) const;
  std::vector<int> cycle_impl(bool waits_only) const;
  static bool is_wait_origin(EdgeOrigin o);

  std::vector<OpNode> nodes_;
  std::vector<OpEdge> edges_;

  // Recording state (not meaningful for hand-built graphs).
  std::unordered_map<int, int> last_on_stream_;     ///< stream -> node (any)
  std::unordered_map<int, int> last_op_on_stream_;  ///< stream -> kOp node
  std::unordered_map<int, int> event_nodes_;        ///< EventId -> mark node
  std::unordered_map<int, std::vector<int>> pending_event_edges_;
  std::unordered_map<std::uint64_t, int> lane_last_;
  std::unordered_map<const void*, int> ext_lane_last_;
  std::unordered_map<int, FrontierEntry> host_frontier_;  ///< stream -> entry
  int last_op_node_ = -1;
  int pending_credit_node_ = -1;
  int unknown_event_waits_ = 0;
  bool join_hint_armed_ = false;
  EdgeOrigin join_hint_ = EdgeOrigin::kHost;
};

/// Overlap-efficiency computed directly from a recorded trace (no graph
/// needed): the bench-facing variant of OpGraph::overlap(), used by fig7 /
/// fig8 to emit the %-transfer-time-hidden metric.
OverlapReport overlap_report(const Trace& trace);

}  // namespace tidacc::sim

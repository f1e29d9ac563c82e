// Simulated RDMA fabric: NICs with verbs-like semantics on the existing
// discrete-event clock.
//
// Model: the platform's devices are grouped into `num_nodes` simulated
// nodes of `devices_per_node` contiguous ordinals each (node n owns
// devices [n*dpn, (n+1)*dpn)) — a co-scheduled SPMD job sharing one
// virtual clock, the standard bulk-synchronous cluster abstraction. Each
// node has one NIC with independent TX and RX serialization lanes (full
// duplex); per-link bandwidth/latency come from a FabricConfig preset.
//
// Verbs mapping:
//   * a queue pair is backed by a dedicated platform stream on the local
//     node's first device, so work requests inherit FIFO ordering,
//     event edges and happens-before tracking for free — QP completions
//     become visible to the racecheck exactly like stream completions;
//   * memory regions are registered against the cuem pointer registry:
//     pinned host memory always registers, device memory only on
//     GPUDirect-capable fabrics (and is priced on the peer-DMA path),
//     pageable host memory is rejected outright;
//   * two-sided send/recv is credit-based: post_recv queues a receive
//     descriptor naming the landing buffer, post_send consumes the oldest
//     one and fails loudly when none is posted (receiver-not-ready);
//   * one-sided rdma_read/rdma_write name both buffers at the initiator
//     (reads pay a request/response round trip, writes one traversal);
//   * completions are platform events recorded on the QP stream: poll()
//     is the non-blocking CQ drain (a successful poll is a happens-before
//     edge, like any successful completion query), wait() blocks the host,
//     and wr_event() names the event for a stream to wait on instead;
//   * a work request may wait on events before it starts (`after`), so
//     it is ordered after exactly the stream work its buffers need.
//
// Every work request occupies the sender's TX lane and the receiver's RX
// lane for the transfer duration, so concurrent flows through one NIC
// contend exactly like copies on a DMA engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "net/fabric_config.hpp"
#include "sim/platform.hpp"

namespace tidacc::cuem {
struct Claims;
}  // namespace tidacc::cuem

namespace tidacc::sim {

using QpId = int;
using MrId = int;
using WrId = int;

/// Aggregate fabric activity (benches report these next to TraceStats).
struct FabricCounters {
  std::uint64_t sends = 0;
  std::uint64_t rdma_reads = 0;
  std::uint64_t rdma_writes = 0;
  std::uint64_t net_bytes = 0;        ///< logical payload bytes, both paths
  std::uint64_t gpudirect_bytes = 0;  ///< share moved by NIC<->device DMA
  /// Bytes that traversed the wire: equal to net_bytes for raw work
  /// requests, shrunken by the wire codec for compressed ones.
  std::uint64_t net_wire_bytes = 0;
  std::uint64_t compressed_wrs = 0;  ///< work requests that carried
                                     ///< codec-compressed payload

  template <typename Ar>
  void fields(Ar& ar) {
    ar(sends, rdma_reads, rdma_writes, net_bytes, gpudirect_bytes,
       net_wire_bytes, compressed_wrs);
  }
};

class Fabric {
 public:
  /// The first num_nodes*devices_per_node devices of the global platform
  /// are grouped into nodes. Throws when the platform has fewer devices.
  Fabric(int num_nodes, FabricConfig cfg, int devices_per_node = 1);
  /// Waits for every outstanding work request before destroying the QP
  /// streams: a request may still read or write buffers its owner frees
  /// next.
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  int num_nodes() const { return num_nodes_; }
  int devices_per_node() const { return devices_per_node_; }
  const FabricConfig& config() const { return cfg_; }
  const FabricCounters& counters() const { return counters_; }

  /// Node owning device ordinal `device`.
  int node_of_device(int device) const;
  /// First device ordinal of `node` (its QP streams and trace lanes live
  /// there).
  int first_device(int node) const;

  // --- memory regions ---

  /// Registers `bytes` at `ptr` for fabric access from `node`. The pointer
  /// must be known to cuem: pinned host memory registers on any fabric,
  /// device memory only when the fabric is GPUDirect-capable (and must
  /// live on one of `node`'s devices); pageable host memory and foreign
  /// pointers are rejected with a clear error.
  MrId register_memory(int node, const void* ptr, std::size_t bytes);
  void deregister_memory(MrId mr);

  /// True when `mr` maps device memory (transfers touching it are priced
  /// on the GPUDirect path).
  bool mr_is_device(MrId mr) const;

  // --- queue pairs ---

  /// Creates a connected queue pair from `local_node` to `remote_node`,
  /// backed by a fresh platform stream on the local node's first device.
  QpId create_qp(int local_node, int remote_node);
  void destroy_qp(QpId qp);

  // --- two-sided send/recv ---

  /// Posts a receive descriptor on `qp`'s remote end: the next send on
  /// `qp` lands in [`dst_off`, `dst_off` + `capacity`) of `dst_mr`.
  void post_recv(QpId qp, MrId dst_mr, std::size_t dst_off,
                 std::size_t capacity);

  /// Sends `bytes` from the local `src_mr` into the oldest posted receive
  /// buffer (fails loudly when none is posted, or when the payload
  /// overflows it). `action` performs the real data movement in functional
  /// mode; the send starts after every event in `after` (-1 entries are
  /// skipped).
  /// `wire_bytes` > 0 routes the payload through the fabric's wire codec:
  /// only that many bytes traverse the link while both ends pay the
  /// encode/decode stages (FabricConfig::codec). 0 = raw.
  /// The request claims (cuem::claim) what it reads and writes on its
  /// queue pair's stream: `claims` when given — a strided payload passes
  /// its boxes — else its source and destination ranges, flat, named by
  /// its kind.
  WrId post_send(QpId qp, MrId src_mr, std::size_t src_off,
                 std::size_t bytes, std::string label = {},
                 std::function<void()> action = {},
                 const std::vector<EventId>& after = {},
                 std::uint64_t wire_bytes = 0,
                 const cuem::Claims* claims = nullptr);

  // --- one-sided RDMA ---

  /// Reads `bytes` from the remote `src_mr` into the local `dst_mr`
  /// (request/response round trip on the wire). `after`, `wire_bytes` and
  /// `claims` as post_send.
  WrId rdma_read(QpId qp, MrId dst_mr, std::size_t dst_off, MrId src_mr,
                 std::size_t src_off, std::size_t bytes,
                 std::string label = {}, std::function<void()> action = {},
                 const std::vector<EventId>& after = {},
                 std::uint64_t wire_bytes = 0,
                 const cuem::Claims* claims = nullptr);

  /// Writes `bytes` from the local `src_mr` into the remote `dst_mr`.
  /// `after`, `wire_bytes` and `claims` as post_send.
  WrId rdma_write(QpId qp, MrId src_mr, std::size_t src_off, MrId dst_mr,
                  std::size_t dst_off, std::size_t bytes,
                  std::string label = {}, std::function<void()> action = {},
                  const std::vector<EventId>& after = {},
                  std::uint64_t wire_bytes = 0,
                  const cuem::Claims* claims = nullptr);

  // --- completion queue ---

  /// Non-blocking drain of `qp`'s completion queue: when the oldest
  /// outstanding work request has completed by the current host time,
  /// reaps it (recording the happens-before edge of a successful
  /// completion poll), stores its id in `*out` when non-null, and returns
  /// true.
  bool poll(QpId qp, WrId* out = nullptr);

  /// Blocks the host until `wr` completes and reaps it.
  void wait(WrId wr);

  /// Blocks the host until every outstanding work request completes.
  void wait_all();

  /// Virtual completion time of a posted work request.
  SimTime wr_finish(WrId wr) const;

  /// The platform event marking `wr`'s completion: a stream that waits on
  /// it is ordered after the request without the host waiting.
  EventId wr_event(WrId wr) const;

  /// True when `wr` has been reaped (by poll or wait).
  bool wr_reaped(WrId wr) const;

  // --- snapshot ---

  /// Snapshot field list (sim/snapshot.hpp): lanes, QP/MR/WR tables,
  /// receive queues and counters. The QP streams themselves are platform
  /// state and ride in the platform's snapshot; restore cross-checks the
  /// stream ids and the config fingerprint.
  template <typename Ar>
  void fields(Ar& ar);

 private:
  struct Qp {
    int local = 0;
    int remote = 0;
    int stream = -1;
    bool alive = false;
    /// Posted receive descriptors, oldest first.
    struct RecvDesc {
      MrId mr = -1;
      std::uint64_t off = 0;
      std::uint64_t capacity = 0;
      /// OpGraph kRecvPost node backing this credit (kCredit edge source).
      /// Transient analysis state: deliberately not snapshotted; resets to
      /// -1 on restore.
      int graph_node = -1;

      template <typename Ar>
      void fields(Ar& ar) {
        ar(mr, off, capacity);
      }
    };
    std::vector<RecvDesc> recv_queue;
    /// Outstanding (posted, not yet reaped) work requests, oldest first.
    std::vector<WrId> outstanding;

    template <typename Ar>
    void fields(Ar& ar) {
      ar(local, remote, stream, alive, recv_queue, outstanding);
    }
  };
  struct Mr {
    std::uintptr_t base = 0;
    std::uint64_t bytes = 0;
    int node = 0;
    bool device = false;
    bool alive = false;

    template <typename Ar>
    void fields(Ar& ar) {
      ar(base, bytes, node, device, alive);
    }
  };
  struct Wr {
    QpId qp = -1;
    int event = -1;  ///< platform EventId marking completion
    OpKind kind = OpKind::kNetSend;
    std::uint64_t bytes = 0;
    bool reaped = false;
    /// OpGraph node of the wire op (kCq edge source). Transient analysis
    /// state: not snapshotted, resets to -1 on restore.
    int graph_node = -1;

    template <typename Ar>
    void fields(Ar& ar) {
      ar(qp, event, kind, bytes, reaped);
    }
  };

  const Qp& checked_qp(QpId qp) const;
  const Mr& checked_mr(MrId mr, std::size_t off, std::size_t bytes) const;
  /// Prices and enqueues one work request moving `bytes` from the MR/node
  /// `src` to `dst`; records the completion event and counters.
  WrId submit(QpId qp, OpKind kind, MrId src_mr, std::size_t src_off,
              MrId dst_mr, std::size_t dst_off, std::size_t bytes,
              std::string label, std::function<void()> action,
              const std::vector<EventId>& after, std::uint64_t wire_bytes,
              const cuem::Claims* claims);
  const Wr& checked_wr(WrId wr) const;
  /// Blocks the host until `w` completes and marks it reaped (the caller
  /// drops it from its queue pair's outstanding list).
  void block_on(Wr& w);

  int num_nodes_;
  int devices_per_node_;
  FabricConfig cfg_;
  std::uint64_t platform_generation_;
  /// Per-node NIC lanes: independent TX/RX timelines (full duplex).
  std::vector<SimTime> tx_;
  std::vector<SimTime> rx_;
  std::vector<Qp> qps_;
  std::vector<Mr> mrs_;
  std::vector<Wr> wrs_;
  FabricCounters counters_;
};

}  // namespace tidacc::sim

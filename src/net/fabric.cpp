#include "net/fabric.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "cuem/cuem.hpp"
#include "sim/op_graph.hpp"
#include "sim/snapshot.hpp"

namespace tidacc::sim {

Fabric::Fabric(int num_nodes, FabricConfig cfg, int devices_per_node)
    : num_nodes_(num_nodes),
      devices_per_node_(devices_per_node),
      cfg_(std::move(cfg)),
      platform_generation_(Platform::generation()) {
  TIDACC_CHECK_MSG(num_nodes_ >= 1, "fabric needs at least one node");
  TIDACC_CHECK_MSG(devices_per_node_ >= 1,
                   "fabric needs at least one device per node");
  Platform& p = Platform::instance();
  TIDACC_CHECK_MSG(
      num_nodes_ * devices_per_node_ <= p.num_devices(),
      "fabric: " + std::to_string(num_nodes_) + " nodes x " +
          std::to_string(devices_per_node_) +
          " devices/node exceeds the platform's " +
          std::to_string(p.num_devices()) + " devices");
  tx_.assign(static_cast<size_t>(num_nodes_), 0);
  rx_.assign(static_cast<size_t>(num_nodes_), 0);
}

Fabric::~Fabric() {
  // Skip teardown when the platform was reset underneath us: the stream
  // handles belong to a world that no longer exists.
  if (platform_generation_ != Platform::generation()) {
    return;
  }
  // Wait for every outstanding request before its QP stream goes away. A
  // request whose event the platform no longer holds (a world restore
  // rolled the platform back under a fabric that was not restored with
  // it, as when an exception interrupts an array's restore) has nothing
  // left to wait for, and a destructor must not throw.
  const Platform& p = Platform::instance();
  for (Qp& q : qps_) {
    for (const WrId id : q.outstanding) {
      Wr& w = wrs_[static_cast<size_t>(id)];
      if (p.event_valid(w.event)) {
        block_on(w);
      }
    }
    q.outstanding.clear();
  }
  for (const Qp& q : qps_) {
    if (q.alive) {
      (void)cuemStreamDestroy(q.stream);
    }
  }
}

int Fabric::node_of_device(int device) const {
  TIDACC_CHECK_MSG(device >= 0 &&
                       device < num_nodes_ * devices_per_node_,
                   "fabric: device ordinal outside the cluster");
  return device / devices_per_node_;
}

int Fabric::first_device(int node) const {
  TIDACC_CHECK_MSG(node >= 0 && node < num_nodes_,
                   "fabric: node ordinal out of range");
  return node * devices_per_node_;
}

MrId Fabric::register_memory(int node, const void* ptr, std::size_t bytes) {
  TIDACC_CHECK_MSG(node >= 0 && node < num_nodes_,
                   "fabric: register_memory node out of range");
  TIDACC_CHECK_MSG(ptr != nullptr && bytes > 0,
                   "fabric: register_memory on an empty range");
  const cuem::MrClass cls = cuem::mr_classify(ptr);
  switch (cls) {
    case cuem::MrClass::kUnknown:
      TIDACC_FAIL("fabric: register_memory on a pointer unknown to cuem");
    case cuem::MrClass::kPageableHost:
      TIDACC_FAIL(
          "fabric: cannot register pageable host memory — RDMA buffers "
          "must be pinned (cuemMallocHost / host_alloc(pinned))");
    case cuem::MrClass::kDeviceMemory:
      TIDACC_CHECK_MSG(
          cfg_.gpudirect,
          "fabric: device-memory registration requires a GPUDirect-capable "
          "fabric; preset '" + cfg_.name + "' is host-staged only");
      break;
    case cuem::MrClass::kPinnedHost:
      break;
  }
  if (cls == cuem::MrClass::kDeviceMemory) {
    const int dev = cuem::device_of_ptr(ptr);
    TIDACC_CHECK_MSG(
        dev >= 0 && node_of_device(dev) == node,
        "fabric: device MR lives on device " + std::to_string(dev) +
            ", which does not belong to node " + std::to_string(node));
  }
  Mr mr;
  mr.base = reinterpret_cast<std::uintptr_t>(ptr);
  mr.bytes = bytes;
  mr.node = node;
  mr.device = cls == cuem::MrClass::kDeviceMemory;
  mr.alive = true;
  mrs_.push_back(mr);
  return static_cast<MrId>(mrs_.size() - 1);
}

void Fabric::deregister_memory(MrId mr) {
  TIDACC_CHECK_MSG(mr >= 0 && static_cast<size_t>(mr) < mrs_.size() &&
                       mrs_[static_cast<size_t>(mr)].alive,
                   "fabric: deregister of an invalid MR");
  mrs_[static_cast<size_t>(mr)].alive = false;
}

bool Fabric::mr_is_device(MrId mr) const {
  return checked_mr(mr, 0, 0).device;
}

QpId Fabric::create_qp(int local_node, int remote_node) {
  TIDACC_CHECK_MSG(local_node >= 0 && local_node < num_nodes_ &&
                       remote_node >= 0 && remote_node < num_nodes_,
                   "fabric: QP node ordinal out of range");
  TIDACC_CHECK_MSG(local_node != remote_node,
                   "fabric: QP must connect two distinct nodes");
  Qp q;
  q.local = local_node;
  q.remote = remote_node;
  {
    cuem::DeviceGuard guard(first_device(local_node));
    TIDACC_CHECK_MSG(cuemStreamCreate(&q.stream) == cuemSuccess,
                     cuemGetLastErrorMessage());
  }
  q.alive = true;
  qps_.push_back(std::move(q));
  return static_cast<QpId>(qps_.size() - 1);
}

void Fabric::destroy_qp(QpId qp) {
  const Qp& q = checked_qp(qp);
  TIDACC_CHECK_MSG(q.outstanding.empty(),
                   "fabric: destroy_qp with unreaped work requests");
  TIDACC_CHECK_MSG(cuemStreamDestroy(q.stream) == cuemSuccess,
                   cuemGetLastErrorMessage());
  qps_[static_cast<size_t>(qp)].alive = false;
}

void Fabric::post_recv(QpId qp, MrId dst_mr, std::size_t dst_off,
                       std::size_t capacity) {
  const Qp& q = checked_qp(qp);
  const Mr& mr = checked_mr(dst_mr, dst_off, capacity);
  TIDACC_CHECK_MSG(
      mr.node == q.remote,
      "fabric: receive buffer must be registered on the QP's remote node");
  Platform& p = Platform::instance();
  p.host_advance(cfg_.post_wr_ns);
  Qp::RecvDesc desc{dst_mr, dst_off, capacity, /*graph_node=*/-1};
  if (OpGraph* g = p.op_graph()) {
    desc.graph_node =
        g->on_recv_post("recv@qp" + std::to_string(qp), p.now());
  }
  qps_[static_cast<size_t>(qp)].recv_queue.push_back(desc);
}

WrId Fabric::post_send(QpId qp, MrId src_mr, std::size_t src_off,
                       std::size_t bytes, std::string label,
                       std::function<void()> action,
                       const std::vector<EventId>& after,
                       std::uint64_t wire_bytes,
                       const cuem::Claims* claims) {
  checked_qp(qp);
  Qp& q = qps_[static_cast<size_t>(qp)];
  TIDACC_CHECK_MSG(
      !q.recv_queue.empty(),
      "fabric: send on QP " + std::to_string(qp) +
          " with no posted receive (receiver-not-ready)");
  // Validate against the head descriptor before consuming it: a rejected
  // send must not burn the receiver's credit.
  const Qp::RecvDesc desc = q.recv_queue.front();
  TIDACC_CHECK_MSG(
      bytes <= desc.capacity,
      "fabric: send payload overflows the posted receive buffer");
  q.recv_queue.erase(q.recv_queue.begin());
  if (OpGraph* g = Platform::instance().op_graph()) {
    // The consumed credit admits exactly the wire op submit() is about to
    // schedule: kCredit edge from the posting to the send.
    g->arm_credit_edge(desc.graph_node);
  }
  return submit(qp, OpKind::kNetSend, src_mr, src_off, desc.mr,
                static_cast<std::size_t>(desc.off), bytes, std::move(label),
                std::move(action), after, wire_bytes, claims);
}

WrId Fabric::rdma_read(QpId qp, MrId dst_mr, std::size_t dst_off,
                       MrId src_mr, std::size_t src_off, std::size_t bytes,
                       std::string label, std::function<void()> action,
                       const std::vector<EventId>& after,
                       std::uint64_t wire_bytes,
                       const cuem::Claims* claims) {
  const Qp& q = checked_qp(qp);
  TIDACC_CHECK_MSG(checked_mr(src_mr, src_off, bytes).node == q.remote,
                   "fabric: rdma_read source must be a remote MR");
  TIDACC_CHECK_MSG(checked_mr(dst_mr, dst_off, bytes).node == q.local,
                   "fabric: rdma_read destination must be a local MR");
  return submit(qp, OpKind::kRdmaRead, src_mr, src_off, dst_mr, dst_off,
                bytes, std::move(label), std::move(action), after, wire_bytes,
                claims);
}

WrId Fabric::rdma_write(QpId qp, MrId src_mr, std::size_t src_off,
                        MrId dst_mr, std::size_t dst_off, std::size_t bytes,
                        std::string label, std::function<void()> action,
                        const std::vector<EventId>& after,
                        std::uint64_t wire_bytes,
                        const cuem::Claims* claims) {
  const Qp& q = checked_qp(qp);
  TIDACC_CHECK_MSG(checked_mr(src_mr, src_off, bytes).node == q.local,
                   "fabric: rdma_write source must be a local MR");
  TIDACC_CHECK_MSG(checked_mr(dst_mr, dst_off, bytes).node == q.remote,
                   "fabric: rdma_write destination must be a remote MR");
  return submit(qp, OpKind::kRdmaWrite, src_mr, src_off, dst_mr, dst_off,
                bytes, std::move(label), std::move(action), after, wire_bytes,
                claims);
}

WrId Fabric::submit(QpId qp, OpKind kind, MrId src_mr, std::size_t src_off,
                    MrId dst_mr, std::size_t dst_off, std::size_t bytes,
                    std::string label, std::function<void()> action,
                    const std::vector<EventId>& after,
                    std::uint64_t wire_bytes, const cuem::Claims* claims) {
  Platform& p = Platform::instance();
  Qp& q = qps_[static_cast<size_t>(qp)];
  const Mr& src = checked_mr(src_mr, src_off, bytes);
  const Mr& dst = checked_mr(dst_mr, dst_off, bytes);

  p.host_advance(cfg_.post_wr_ns);
  for (const EventId dep : after) {
    if (dep >= 0) {
      p.stream_wait_event(q.stream, dep);
    }
  }

  // Data moves src.node -> dst.node regardless of which end initiated:
  // the sender's TX lane and the receiver's RX lane are held for the
  // transfer. A compressed payload (wire_bytes > 0) runs the wire codec on
  // either path: GPUDirect on the endpoint GPUs, host staging on the hosts.
  const bool gpudirect_path = src.device || dst.device;
  const SimTime duration =
      cfg_.wr_ns(kind, bytes, wire_bytes, gpudirect_path);
  const std::vector<SimTime*> lanes = {
      &tx_[static_cast<size_t>(src.node)],
      &rx_[static_cast<size_t>(dst.node)]};
  p.enqueue_external(q.stream, first_device(q.local), EngineId::kNic, kind,
                     duration, bytes, std::move(label), lanes,
                     std::move(action), wire_bytes);
  const int graph_node =
      p.op_graph() != nullptr ? p.op_graph()->last_node_of_stream(q.stream)
                              : -1;
  if (claims != nullptr) {
    cuem::claim(q.stream, *claims);
  } else {
    const char* op = to_string(kind);
    const sim::ByteBox payload = sim::ByteBox::span(0, bytes);
    cuem::claim(q.stream, reinterpret_cast<const void*>(src.base + src_off),
                payload, cuem::Role::kRead, op);
    cuem::claim(q.stream, reinterpret_cast<const void*>(dst.base + dst_off),
                payload, cuem::Role::kWrite, op);
  }

  Wr wr;
  wr.qp = qp;
  wr.graph_node = graph_node;
  wr.event = p.record_event(q.stream);
  wr.kind = kind;
  wr.bytes = bytes;
  wrs_.push_back(wr);
  const WrId id = static_cast<WrId>(wrs_.size() - 1);
  q.outstanding.push_back(id);

  switch (kind) {
    case OpKind::kNetSend:
      ++counters_.sends;
      break;
    case OpKind::kRdmaRead:
      ++counters_.rdma_reads;
      break;
    case OpKind::kRdmaWrite:
      ++counters_.rdma_writes;
      break;
    default:
      TIDACC_FAIL("fabric: submit with a non-fabric OpKind");
  }
  counters_.net_bytes += bytes;
  counters_.net_wire_bytes += wire_bytes > 0 ? wire_bytes : bytes;
  if (wire_bytes > 0) {
    ++counters_.compressed_wrs;
  }
  if (gpudirect_path) {
    counters_.gpudirect_bytes += bytes;
  }
  return id;
}

bool Fabric::poll(QpId qp, WrId* out) {
  checked_qp(qp);
  Qp& q = qps_[static_cast<size_t>(qp)];
  if (q.outstanding.empty()) {
    return false;
  }
  Platform& p = Platform::instance();
  const WrId id = q.outstanding.front();
  Wr& wr = wrs_[static_cast<size_t>(id)];
  if (p.event_finish(wr.event) > p.now()) {
    return false;
  }
  if (OpGraph* g = p.op_graph()) {
    g->set_join_origin_hint(EdgeOrigin::kCq);
  }
  p.hb_note_event_query_success(wr.event);
  wr.reaped = true;
  q.outstanding.erase(q.outstanding.begin());
  if (out != nullptr) {
    *out = id;
  }
  return true;
}

void Fabric::wait(WrId wr) {
  checked_wr(wr);
  Wr& w = wrs_[static_cast<size_t>(wr)];
  if (w.reaped) {
    return;
  }
  block_on(w);
  Qp& q = qps_[static_cast<size_t>(w.qp)];
  q.outstanding.erase(
      std::remove(q.outstanding.begin(), q.outstanding.end(), wr),
      q.outstanding.end());
}

void Fabric::wait_all() {
  for (Qp& q : qps_) {
    for (const WrId id : q.outstanding) {
      block_on(wrs_[static_cast<size_t>(id)]);
    }
    q.outstanding.clear();
  }
}

void Fabric::block_on(Wr& w) {
  Platform& p = Platform::instance();
  if (OpGraph* g = p.op_graph()) {
    g->set_join_origin_hint(EdgeOrigin::kCq);
  }
  p.sync_event(w.event);
  w.reaped = true;
}

SimTime Fabric::wr_finish(WrId wr) const {
  return Platform::instance().event_finish(checked_wr(wr).event);
}

EventId Fabric::wr_event(WrId wr) const { return checked_wr(wr).event; }

bool Fabric::wr_reaped(WrId wr) const { return checked_wr(wr).reaped; }

const Fabric::Wr& Fabric::checked_wr(WrId wr) const {
  TIDACC_CHECK_MSG(wr >= 0 && static_cast<size_t>(wr) < wrs_.size(),
                   "fabric: unknown work request");
  return wrs_[static_cast<size_t>(wr)];
}

const Fabric::Qp& Fabric::checked_qp(QpId qp) const {
  TIDACC_CHECK_MSG(qp >= 0 && static_cast<size_t>(qp) < qps_.size() &&
                       qps_[static_cast<size_t>(qp)].alive,
                   "fabric: invalid or destroyed QP");
  return qps_[static_cast<size_t>(qp)];
}

const Fabric::Mr& Fabric::checked_mr(MrId mr, std::size_t off,
                                     std::size_t bytes) const {
  TIDACC_CHECK_MSG(mr >= 0 && static_cast<size_t>(mr) < mrs_.size() &&
                       mrs_[static_cast<size_t>(mr)].alive,
                   "fabric: invalid or deregistered MR");
  const Mr& m = mrs_[static_cast<size_t>(mr)];
  TIDACC_CHECK_MSG(off + bytes <= m.bytes,
                   "fabric: access outside the registered region");
  return m;
}

template <typename Ar>
void Fabric::fields(Ar& ar) {
  ar.section("fabric");
  ar.expect(std::tuple(cfg_.name, num_nodes_, devices_per_node_),
            [this](const auto& snap) {
              return "snapshot: fabric configuration mismatch (snapshot was '" +
                     std::get<0>(snap) + "' x" +
                     std::to_string(std::get<1>(snap)) +
                     ", live fabric is '" + cfg_.name + "' x" +
                     std::to_string(num_nodes_) + ")";
            });
  ar(tx_, rx_);
  ar.check(tx_.size() == static_cast<size_t>(num_nodes_) &&
               rx_.size() == static_cast<size_t>(num_nodes_),
           "snapshot: fabric lane table size mismatch");
  // Restore reads the QP and WR tables aside and swaps them in together
  // once both are whole and the QP streams check out: the destructor
  // walks each QP's outstanding requests in the WR table, so a restore
  // that fails part way must leave the live pair.
  std::vector<Qp> restored_qps;
  std::vector<Wr> restored_wrs;
  std::vector<Qp>& qps = Ar::kRestoring ? restored_qps : qps_;
  std::vector<Wr>& wrs = Ar::kRestoring ? restored_wrs : wrs_;
  ar(qps, mrs_, wrs, counters_);
  if constexpr (Ar::kRestoring) {
    // QP streams are platform state: the platform restore reinstates the
    // stream tables, so the live handles must match what was captured —
    // anything else means the fabric was rebuilt between capture and
    // restore.
    for (std::size_t i = 0; i < qps.size(); ++i) {
      TIDACC_CHECK_MSG(i < qps_.size() && qps_[i].stream == qps[i].stream,
                       "snapshot: fabric QP stream mismatch — the live "
                       "fabric does not match the capturing one");
    }
    qps_.swap(restored_qps);
    wrs_.swap(restored_wrs);
  }
}

template void Fabric::fields(SnapshotWriter&);
template void Fabric::fields(SnapshotReader&);

}  // namespace tidacc::sim

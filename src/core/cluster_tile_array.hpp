// Cluster-distributed tile array: MultiAccTileArray sharded across
// simulated nodes, ghost cells exchanged over a sim::Fabric.
//
// The paper overlaps PCIe transfers with tile compute; here the same recipe
// is applied one level up: inter-node ghost faces are posted as RDMA work
// requests *first* (exchange_begin), interior tiles compute while the
// payloads are on the wire, and exchange_end orders the node-boundary tiles
// after the completions. The split-phase API is the network analogue of
// the pipelined descriptors of Fig. 4:
//
//     a.exchange_begin(bc);             // post remote faces, start intra
//     for (r : interior)  compute(r);   // overlaps NIC traffic
//     a.exchange_end();                 // order on completions, push staged
//     for (r : boundary)  compute(r);
//
// Events, not the host, order the exchange, as in the intra-node device
// exchange: each work request waits on the last write of its source region
// and the last read of its destination's ghost cells, and exchange_end
// makes both regions' streams wait on its completion. The host never waits,
// so it queues the next step while this one runs.
//
// fill_boundary() = begin + a host wait on each work request + end (no
// overlap), which is the ablation baseline the cluster bench compares
// against.
//
// Sharding: regions keep the base class's placement, and each node owns
// devices_per_node contiguous device ordinals. Under block placement every
// node owns a contiguous slab of regions; under round-robin consecutive
// regions cycle through every node's devices. Faces between regions on
// different nodes become network traffic, faces within a node reuse the
// base class's device exchange (replay kernels and peer copies)
// unchanged. Temporal blocking composes as on one node: the exchange
// refreshes the whole k-wide ghost ring, cross-node parts included, and
// compute_k runs in the slots.
//
// Two wire paths, priced by the fabric:
//   * GPUDirect (fabric permits it): the destination node posts an
//     rdma_read pulling the remote slot face straight out of device
//     memory — no PCIe bounce on either end;
//   * host-staged: D2H the face into the source's pinned host buffer,
//     two-sided send into the destination's host buffer, H2D push at
//     exchange_end — three hops, like pre-GPUDirect MPI.
//
// With nodes == 1 no fabric is constructed and every call forwards to
// MultiAccTileArray, bit-identically (checksums and golden traces match).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/multi_acc_array.hpp"
#include "net/fabric.hpp"

namespace tidacc::core {

/// Which wire path inter-node faces take.
enum class NetPath : int {
  kAuto = 0,       ///< GPUDirect when the fabric supports it, else staged
  kGpuDirect = 1,  ///< require NIC<->device DMA (rejects incapable fabrics)
  kStaged = 2      ///< force the pinned-host bounce on both ends
};

const char* to_string(NetPath p);
NetPath parse_net_path(const std::string& flag);

struct ClusterOptions {
  /// The array's own options, every one meaning what it does for a
  /// MultiAccTileArray; devices = 0 spans every device of every node.
  MultiAccOptions multi;
  /// Simulated nodes; devices are grouped into contiguous blocks of
  /// num_devices() / nodes ordinals. 1 means "no fabric at all".
  int nodes = 1;
  sim::FabricConfig fabric = sim::FabricConfig::infiniband();
  NetPath path = NetPath::kAuto;
  /// Codec policy for the inter-node *wire* (FabricConfig::codec prices
  /// the encode/decode stages; only the shrunken payload crosses the
  /// link). Independent of multi.compression, which governs the
  /// host<->device hops — a staged exchange can compress the wire leg
  /// while the PCIe legs stay raw, and vice versa.
  Compression compression = Compression::kOff;
};

template <typename T>
class ClusterTileArray : public MultiAccTileArray<T> {
 public:
  using Multi = MultiAccTileArray<T>;

  ClusterTileArray(const tida::Box& domain, const tida::Index3& region_size,
                   int ghost, ClusterOptions opts = {})
      : Multi(domain, region_size, ghost, opts.multi, opts.nodes),
        nodes_(opts.nodes),
        wire_compression_(opts.compression) {
    TIDACC_CHECK_MSG(nodes_ >= 1, "node count must be at least 1");
    if (nodes_ == 1) {
      return;  // degenerates to MultiAccTileArray exactly
    }
    TIDACC_CHECK_MSG(this->num_devices() % nodes_ == 0,
                     "device count must be a multiple of the node count");
    TIDACC_CHECK_MSG(
        wire_compression_ == Compression::kOff ||
            opts.fabric.codec.available,
        "wire compression requested on a fabric without a codec "
        "(FabricConfig::codec.available is false)");
    TIDACC_CHECK_MSG(opts.multi.host_alloc == tida::HostAlloc::kPinned,
                     "cluster arrays need pinned host buffers (the NIC "
                     "cannot register pageable memory)");
    switch (opts.path) {
      case NetPath::kAuto:
        use_gpudirect_ = opts.fabric.gpudirect;
        break;
      case NetPath::kGpuDirect:
        TIDACC_CHECK_MSG(opts.fabric.gpudirect,
                         "NetPath::kGpuDirect on a fabric without GPUDirect "
                         "support ('" + opts.fabric.name + "')");
        use_gpudirect_ = true;
        break;
      case NetPath::kStaged:
        use_gpudirect_ = false;
        break;
    }
    fabric_ = std::make_unique<sim::Fabric>(
        nodes_, opts.fabric, this->num_devices() / nodes_);
    // Every ordered node pair gets its queue pair up front: QP streams are
    // platform state, and creating them lazily after a world snapshot
    // would make restore see streams the snapshot never captured.
    qp_.assign(static_cast<std::size_t>(nodes_) *
                   static_cast<std::size_t>(nodes_),
               -1);
    for (int a = 0; a < nodes_; ++a) {
      for (int b = 0; b < nodes_; ++b) {
        if (a != b) {
          qp_[qp_index(a, b)] = fabric_->create_qp(a, b);
        }
      }
    }
  }

  // --- node topology ---

  int num_nodes() const { return nodes_; }
  int devices_per_node() const { return this->schedule_->devices_per_node(); }
  int node_of_region(int region) const {
    return this->schedule_->node_of(static_cast<int>(this->checked(region)));
  }
  bool gpudirect_path() const { return use_gpudirect_; }

  /// The fabric joining the nodes. A 1-node array has none: throws.
  const sim::Fabric& fabric() const {
    TIDACC_CHECK_MSG(fabric_ != nullptr,
                     "ClusterTileArray::fabric(): num_nodes() is " +
                         std::to_string(nodes_) +
                         ", and a 1-node array builds no fabric");
    return *fabric_;
  }

  /// Regions with at least one cross-node face under `bc`, in id order —
  /// the set that must wait for exchange_end before computing. Every other
  /// region is node-interior: it may compute between exchange_begin and
  /// exchange_end. The ends of the layout's cross-node region pairs.
  std::vector<int> node_boundary_regions(tida::Boundary bc) {
    std::vector<char> crosses(static_cast<std::size_t>(this->num_regions()));
    if (nodes_ > 1) {
      const tida::PairIndex& index = this->exchange_pairs(bc);
      for (const std::size_t p : wire_pairs(bc)) {
        crosses[static_cast<std::size_t>(index.pairs[p].src_region)] = 1;
        crosses[static_cast<std::size_t>(index.pairs[p].dst_region)] = 1;
      }
    }
    std::vector<int> out;
    for (int r = 0; r < this->num_regions(); ++r) {
      if (crosses[static_cast<std::size_t>(r)]) {
        out.push_back(r);
      }
    }
    return out;
  }

  /// The cross-node region pairs under `bc`, one wire message each, as
  /// indices into exchange_pairs(bc), in pair order: the layout's, derived
  /// once (ExchangeSchedule::Pairs::wire).
  const std::vector<std::size_t>& wire_pairs(tida::Boundary bc) {
    return this->schedule_->pairs(bc, this->exchange_pairs(bc)).wire;
  }

  // --- split-phase exchange ---

  /// Posts every cross-node face to the fabric, then runs the intra-node
  /// part of the exchange (replay kernels + peer copies). Returns with the
  /// network payloads still in flight: compute node-interior regions now.
  void exchange_begin(tida::Boundary bc) {
    TIDACC_CHECK_MSG(!epoch_open_,
                     "exchange_begin with the previous epoch still open");
    epoch_open_ = true;
    epoch_bc_ = bc;
    this->last_boundary_ = bc;
    if (nodes_ == 1) {
      Multi::fill_boundary(bc);
      return;
    }
    if (this->loc_.any_on_device() && this->all_regions_fit()) {
      exchange_begin_device(bc);
      return;
    }
    exchange_on_host(bc);
  }

  /// Orders what follows the epoch after its work requests, and on the
  /// staged path pushes the received faces from the host buffers into the
  /// destination slots. Completions the host can already see are reaped
  /// (Fabric::poll) and need nothing more. For every request still in
  /// flight, its destination's stream waits on its completion event, so the
  /// node-boundary kernels read the new ghost cells, and so does its
  /// source's stream, so no later write overwrites cells still being read.
  /// The host never waits: node-boundary regions may compute right after
  /// this returns, and the requests may still be in flight.
  void exchange_end() {
    TIDACC_CHECK_MSG(epoch_open_, "exchange_end without exchange_begin");
    epoch_open_ = false;
    if (nodes_ == 1) {
      return;
    }
    for (const sim::QpId qp : qp_) {
      while (qp >= 0 && fabric_->poll(qp)) {
        // Reaps, oldest first, every request already complete.
      }
    }
    // One edge per stream and queue pair: requests on one queue pair
    // complete in posting order, so the youngest in flight covers the rest.
    std::map<std::pair<cuemStream_t, sim::QpId>, sim::WrId> youngest;
    for (const EpochWr& e : epoch_wrs_) {
      if (fabric_->wr_reaped(e.wr)) {
        continue;
      }
      for (const cuemStream_t s : {e.src_stream, e.dst_stream}) {
        sim::WrId& wr = youngest.try_emplace({s, e.qp}, e.wr).first->second;
        wr = std::max(wr, e.wr);
      }
    }
    sim::Platform& p = sim::Platform::instance();
    for (const auto& [edge, wr] : youngest) {
      p.stream_wait_event(edge.first, fabric_->wr_event(wr));
    }
    epoch_wrs_.clear();
    if (!epoch_staged_.empty()) {
      const auto& plan = this->exchange_plan(epoch_bc_);
      for (const std::size_t c : epoch_staged_) {
        const tida::GhostCopy& gc = plan[c];
        cuem::DeviceGuard guard(this->device_of_region(gc.dst_region));
        this->copy_boxes(gc.dst_region, {gc.dst_box},
                         cuemMemcpyHostToDevice,
                         this->stream_of_region(gc.dst_region),
                         sim::PayloadKind::kGhostRefresh);
        this->note_device_write(gc.dst_region, gc.dst_box);
      }
      epoch_staged_.clear();
    }
    ++net_exchanges_;
  }

  /// Full exchange with no compute overlapped, the ablation baseline:
  /// exchange_begin, a host wait on each of the epoch's work requests, then
  /// exchange_end, which finds them all reaped. Shadows, not overrides:
  /// callers holding a MultiAccTileArray reference get the base
  /// (fabric-less) exchange.
  void fill_boundary(tida::Boundary bc) {
    if (nodes_ == 1) {
      Multi::fill_boundary(bc);
      return;
    }
    exchange_begin(bc);
    for (const EpochWr& e : epoch_wrs_) {
      fabric_->wait(e.wr);
    }
    exchange_end();
  }

  // --- counters ---
  // The ghost counters count wire *messages* (one per neighbouring
  // region pair per epoch — its face, edge and corner boxes ride in one
  // payload), not individual boxes.

  std::uint64_t net_exchanges() const { return net_exchanges_; }
  std::uint64_t rdma_ghost_reads() const { return rdma_ghost_reads_; }
  std::uint64_t staged_ghost_sends() const { return staged_ghost_sends_; }

  // --- snapshot ---

  void capture(sim::SnapshotWriter& w) const {
    TIDACC_CHECK_MSG(!epoch_open_,
                     "cluster snapshot during an open exchange epoch");
    w(*this);
  }

  void restore(sim::SnapshotReader& r) {
    TIDACC_CHECK_MSG(!epoch_open_,
                     "cluster restore during an open exchange epoch");
    r(*this);
  }

  /// The snapshot field list (sim/snapshot.hpp): the multi-device array's,
  /// then the fabric, the MR cache and the wire groups' built flags.
  template <typename Ar>
  void fields(Ar& ar) {
    Multi::fields(ar);
    ar.section("cluster_tile_array");
    ar.expect(nodes_, "cluster snapshot has a different node count");
    ar.expect(use_gpudirect_, "cluster snapshot disagrees on the wire path");
    ar.expect(wire_compression_,
              "cluster snapshot disagrees on wire compression");
    ar(host_fallback_warned_);
    if (nodes_ > 1) {
      // MRs registered after the snapshot no longer exist in the fabric
      // tables, and restore replaces the pointer cache to match (in-process
      // addresses are stable, so the saved pointers still name the same
      // buffers).
      sim::CountedU32 mrs{mr_cache_};
      ar(*fabric_, mrs);
      for (bool& built : this->schedule_->wire_built()) {
        ar(built);
      }
    }
    ar(net_exchanges_, rdma_ghost_reads_, staged_ghost_sends_);
  }

 private:
  std::size_t qp_index(int local, int remote) const {
    return static_cast<std::size_t>(local) *
               static_cast<std::size_t>(nodes_) +
           static_cast<std::size_t>(remote);
  }

  sim::QpId qp_for(int local, int remote) const {
    const sim::QpId qp = qp_[qp_index(local, remote)];
    TIDACC_CHECK_MSG(qp >= 0, "no queue pair between these nodes");
    return qp;
  }

  /// Registers (once) and returns the MR covering `region`'s buffer.
  sim::MrId mr_of(int node, const void* ptr, std::size_t bytes) {
    const auto it = mr_cache_.find(ptr);
    if (it != mr_cache_.end()) {
      return it->second;
    }
    const sim::MrId id = fabric_->register_memory(node, ptr, bytes);
    mr_cache_.emplace(ptr, id);
    return id;
  }

  sim::MrId device_mr_of(int region) {
    return mr_of(node_of_region(region), this->device_region(region).data,
                 this->region_bytes(region));
  }

  sim::MrId host_mr_of(int region) {
    return mr_of(node_of_region(region), this->region(region).data,
                 this->region_bytes(region));
  }

  /// What a wire message carrying planned copies `copies` touches: their
  /// exact boxes in the slot buffers (GPUDirect) or in the pinned host
  /// buffers (staged, `on_host`), not the registered regions the fabric
  /// would claim flat — interleaved rows of disjoint faces must not
  /// collide.
  cuem::Claims wire_claims(const std::vector<tida::GhostCopy>& plan,
                           std::span<const std::size_t> copies,
                           bool on_host) const {
    cuem::Claims claims(on_host ? "staged-ghost" : "rdma-ghost");
    for (const std::size_t c : copies) {
      this->add_ghost_boxes(claims, plan[c], on_host);
    }
    return claims;
  }

  /// Posts wire pair `pair` under `bc` on `qp` as one two-sided send from
  /// its source's pinned host buffer into its destination's: the receive,
  /// then the send of the pair's cells, claiming their host boxes, raw or
  /// compressed as wire_bytes_for decides.
  sim::WrId post_staged(tida::Boundary bc, sim::QpId qp,
                        const tida::RegionPair& pair, std::string label,
                        std::function<void()> action,
                        const std::vector<sim::EventId>& after) {
    const std::uint64_t bytes = pair.cells * this->ncomp() * sizeof(T);
    fabric_->post_recv(qp, host_mr_of(pair.dst_region), 0, bytes);
    const cuem::Claims claims =
        wire_claims(this->exchange_plan(bc),
                    this->exchange_pairs(bc).copies_of(pair),
                    /*on_host=*/true);
    ++staged_ghost_sends_;
    return fabric_->post_send(
        qp, host_mr_of(pair.src_region), 0, bytes, std::move(label),
        std::move(action), after,
        wire_bytes_for(sim::OpKind::kNetSend, bytes,
                       /*gpudirect_path=*/false),
        &claims);
  }

  /// Wire bytes one cross-node ghost message (work request `kind` of
  /// `bytes` logical payload) puts on the link: 0 = send raw. kAuto takes
  /// the cheaper of the raw and the compressed request under
  /// FabricConfig::wr_ns. Ghost messages carry boundary shells, hence the
  /// ghost-refresh ratio.
  std::uint64_t wire_bytes_for(sim::OpKind kind, std::uint64_t bytes,
                               bool gpudirect_path) const {
    if (wire_compression_ == Compression::kOff || bytes == 0) {
      return 0;
    }
    const sim::FabricConfig& fc = fabric_->config();
    const std::uint64_t wire =
        fc.codec.wire_bytes(bytes, sim::PayloadKind::kGhostRefresh);
    if (wire_compression_ == Compression::kAuto &&
        fc.wr_ns(kind, bytes, wire, gpudirect_path) >=
            fc.wr_ns(kind, bytes, 0, gpudirect_path)) {
      return 0;
    }
    return wire;
  }

  /// All regions resident: post cross-node faces first (phase 1), then run
  /// the intra-node exchange (phase 2) while the payloads fly. No barrier
  /// precedes them: every op waits on events for what its data needs.
  void exchange_begin_device(tida::Boundary bc) {
    for (int r = 0; r < this->num_regions(); ++r) {
      this->acquire_on_device(r);
    }

    const auto& plan = this->exchange_plan(bc);
    // Every stream the exchange orders against, marked before phase 1's
    // staging copies queue behind them: phase 2's sources, and both ends of
    // each wire message. A GPUDirect read runs on a queue pair's stream, and
    // a staged send lands in the destination's host buffer, which its last
    // push read on the destination's stream.
    const auto sources = this->mark_sources(bc, /*peers=*/true);
    sim::Platform& p = sim::Platform::instance();
    // The events a queue pair's stream waits on, each once per epoch: its
    // requests start in posting order.
    std::vector<std::pair<sim::QpId, sim::EventId>> waited;
    const auto after = [&waited](sim::QpId qp,
                                 std::initializer_list<sim::EventId> events) {
      std::vector<sim::EventId> out;
      for (const sim::EventId e : events) {
        const std::pair<sim::QpId, sim::EventId> edge{qp, e};
        if (e >= 0 &&
            std::find(waited.begin(), waited.end(), edge) == waited.end()) {
          waited.push_back(edge);
          out.push_back(e);
        }
      }
      return out;
    };

    // Phase 1: every cross-node face hits the wire before any intra-node
    // work is enqueued — network serialization lanes start draining under
    // whatever the caller computes next. All boxes for one (src, dst)
    // region pair — face, edges and corners of that neighbour — pack into
    // a single wire message, like an MPI halo exchange: one work request's
    // posting cost amortizes over the whole payload, which is what lets
    // the wire time (and not the host's posting loop) dominate the epoch.
    // The groups are the layout's cross-node region pairs
    // (ExchangeSchedule), derived once.
    const tida::PairIndex& index = this->exchange_pairs(bc);
    const std::vector<std::size_t>& groups = wire_pairs(bc);
    const bool building = !std::exchange(
        this->schedule_->wire_built()[static_cast<std::size_t>(bc)], true);

    // Staged path: every group's source boxes go down first, on the
    // source's stream, and each send waits on the event behind its
    // source's last staging copy. A region thinner than the ghost feeds
    // two neighbours from the same cells, so two groups stage the same
    // host bytes: staging them all before any send reads them keeps every
    // copy ordered before each send that reads its bytes.
    std::vector<sim::EventId> staged;
    if (!use_gpudirect_) {
      staged.assign(static_cast<std::size_t>(this->num_regions()), -1);
      for (const std::size_t g : groups) {
        const tida::RegionPair& pair = index.pairs[g];
        cuem::DeviceGuard guard(this->device_of_region(pair.src_region));
        std::vector<tida::Box> src_boxes;
        for (const std::size_t c : index.copies_of(pair)) {
          src_boxes.push_back(plan[c].src_box);
        }
        this->copy_boxes(
            pair.src_region, src_boxes, cuemMemcpyDeviceToHost,
            sources.stream[static_cast<std::size_t>(pair.src_region)],
            sim::PayloadKind::kFaceShell);
      }
      for (const std::size_t g : groups) {
        const auto src = static_cast<std::size_t>(index.pairs[g].src_region);
        if (staged[src] < 0) {
          staged[src] = p.record_event(sources.stream[src]);
        }
      }
    }

    for (const std::size_t g : groups) {
      const tida::RegionPair& head = index.pairs[g];
      const std::span<const std::size_t> group = index.copies_of(head);
      const int src_node = node_of_region(head.src_region);
      const int dst_node = node_of_region(head.dst_region);
      const cuemStream_t src_stream =
          sources.stream[static_cast<std::size_t>(head.src_region)];
      const cuemStream_t dst_stream =
          sources.stream[static_cast<std::size_t>(head.dst_region)];
      // The first exchange on the layout under `bc` builds the groups'
      // index lists. Each node has its own CPU working its own shard of
      // the plan concurrently (the cluster analogue of MPI ranks), so the
      // single simulated host thread advances by the per-node share of the
      // index bookkeeping — the makespan across node CPUs for a balanced
      // plan — group by group, so the wire starts on one while the host
      // indexes the next.
      if (building) {
        this->schedule_->pay_index_work(group.size());
      }
      const std::uint64_t bytes = head.cells * this->ncomp() * sizeof(T);
      const std::string label = "N:R" + std::to_string(head.src_region) +
                                ">R" + std::to_string(head.dst_region);
      sim::QpId qp = -1;
      sim::WrId wr = -1;
      if (use_gpudirect_) {
        // The destination pulls the remote slot boxes with a one-sided
        // read; the functional copy applies between slot buffers exactly
        // like a peer copy's.
        qp = qp_for(dst_node, src_node);
        auto action = [this, bc, group]() {
          const auto& pl = this->exchange_plan(bc);
          for (const std::size_t c : group) {
            this->apply_copy_device(pl[c]);
          }
        };
        const cuem::Claims claims =
            wire_claims(plan, group, /*on_host=*/false);
        wr = fabric_->rdma_read(
            qp, device_mr_of(head.dst_region), 0,
            device_mr_of(head.src_region), 0, bytes, label,
            std::move(action),
            after(qp, {sources.on(src_stream), sources.on(dst_stream)}),
            wire_bytes_for(sim::OpKind::kRdmaRead, bytes,
                           /*gpudirect_path=*/true),
            &claims);
        for (const std::size_t c : group) {
          this->note_device_write(plan[c].dst_region, plan[c].dst_box);
        }
        ++rdma_ghost_reads_;
      } else {
        // Staged: one two-sided send from the source's pinned buffer into
        // the destination's once the boxes landed there, H2D push at
        // exchange_end.
        qp = qp_for(src_node, dst_node);
        auto action = [this, bc, group]() {
          const auto& pl = this->exchange_plan(bc);
          for (const std::size_t c : group) {
            this->apply_copy_host(pl[c]);
          }
        };
        wr = post_staged(
            bc, qp, head, label, std::move(action),
            after(qp, {staged[static_cast<std::size_t>(head.src_region)],
                       sources.on(dst_stream)}));
        epoch_staged_.insert(epoch_staged_.end(), group.begin(), group.end());
      }
      epoch_wrs_.push_back(EpochWr{wr, qp, src_stream, dst_stream});
    }

    // Phase 2: the intra-node faces through the base device exchange —
    // peer copies for cross-device-same-node faces, one replay kernel per
    // device for the rest — with the one-time descriptor build split
    // across the node CPUs.
    this->wait_on(this->exchange_on_devices(bc, /*peers=*/true, sources));
  }

  /// Out-of-core or host-resident: drains every region, exchanges on the
  /// host, then prices each wire pair as one synchronous staged send
  /// between the nodes' pinned host buffers (post_staged) and waits for
  /// them — no overlap to be had here. The sends deliver ghost cells the
  /// host exchange already wrote, so no device may read those cells
  /// before the sends land: the drain keeps the exchange from pushing them
  /// ahead of the wire.
  void exchange_on_host(tida::Boundary bc) {
    if (!host_fallback_warned_) {
      host_fallback_warned_ = true;
      sim::Platform::instance().trace().note_warning(
          "cluster exchange fell back to the host path (regions out of "
          "core or host-resident): cross-node faces move as synchronous "
          "host sends with no compute overlap — see DESIGN.md");
    }
    this->release_all_to_host();
    Multi::fill_boundary(bc);
    const tida::PairIndex& index = this->exchange_pairs(bc);
    std::vector<sim::WrId> wrs;
    for (const std::size_t p : wire_pairs(bc)) {
      const tida::RegionPair& pair = index.pairs[p];
      wrs.push_back(post_staged(
          bc,
          qp_for(node_of_region(pair.src_region),
                 node_of_region(pair.dst_region)),
          pair,
          "S:R" + std::to_string(pair.src_region) + ">R" +
              std::to_string(pair.dst_region),
          /*action=*/{}, /*after=*/{}));
    }
    for (const sim::WrId wr : wrs) {
      fabric_->wait(wr);
    }
  }

  int nodes_ = 1;
  bool use_gpudirect_ = false;
  Compression wire_compression_ = Compression::kOff;
  /// One-shot flag for the out-of-core host-exchange fallback warning
  /// (Trace::note_warning fires on the first fallback only).
  bool host_fallback_warned_ = false;
  std::unique_ptr<sim::Fabric> fabric_;
  /// Dense (local, remote) -> QpId table, -1 on the diagonal.
  std::vector<sim::QpId> qp_;
  /// Buffer pointer -> registered MR (slot buffers and host regions).
  std::map<const void*, sim::MrId> mr_cache_;

  /// One wire message of the open epoch: its work request, the queue pair
  /// it rides, and the streams of its source and destination regions.
  struct EpochWr {
    sim::WrId wr = -1;
    sim::QpId qp = -1;
    cuemStream_t src_stream = -1;
    cuemStream_t dst_stream = -1;
  };

  bool epoch_open_ = false;
  tida::Boundary epoch_bc_ = tida::Boundary::kNone;
  std::vector<EpochWr> epoch_wrs_;
  /// Plan indices whose staged payloads still need the H2D push.
  std::vector<std::size_t> epoch_staged_;

  std::uint64_t net_exchanges_ = 0;
  std::uint64_t rdma_ghost_reads_ = 0;
  std::uint64_t staged_ghost_sends_ = 0;
};

}  // namespace tidacc::core

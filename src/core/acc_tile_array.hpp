// AccTileArray — the paper's GPU-extended tileArray (TiDA-acc).
//
// Extends tida::TileArray<T> with a device slot pool, the caching protocol
// of §IV-B4 (on-demand transfers, eviction through shared slots), per-slot
// streams, and the dual-path ghost exchange of §IV-B6 (host-side exchange
// when data lives on the host; device-side kernels with CPU index
// computation when data lives on the device).
//
// Access protocol (paper §III "caching"):
//   * acquire_on_device(r): makes region r usable by kernels; queues the
//     needed async transfers on r's slot stream and returns the device
//     pointer. Never blocks the host.
//   * acquire_on_host(r): makes region r readable/writable on the host;
//     blocks (cuemStreamSynchronize) if a device→host transfer is needed,
//     because the caller touches the data immediately (§IV-B3).
#pragma once

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/inject.hpp"
#include "core/device_pool.hpp"
#include "core/dirty_tracker.hpp"
#include "core/streaming_exchange.hpp"
#include "cuem/san.hpp"
#include "oacc/oacc.hpp"
#include "sim/snapshot.hpp"
#include "tida/tile_array.hpp"
#include "tida/tile_iterator.hpp"

namespace tidacc::core {

/// How fill_boundary picks between the streaming (delta) exchange and the
/// drain-to-host exchange in the out-of-core regime.
///   kAuto           — consult the exchange-level cost model each time:
///                     stream only when the predicted pitched-copy cost
///                     (latency + chunk overhead per shell box) beats the
///                     predicted drain cost. Default.
///   kForceStreaming — always stream (ablation / tests pinning the path).
///   kForceDrain     — never stream; drain and exchange on the host.
enum class StreamingGuard : int { kAuto = 0, kForceStreaming, kForceDrain };

/// Transfer compression policy for the host<->device link (and, through
/// ClusterOptions, the inter-node wire).
///   kOff  — every transfer moves raw bytes. Default; reproduces the
///           uncompressed transfer timings bit-for-bit.
///   kOn   — every eligible transfer runs through the codec, paying
///           encode + decode while only the shrunken payload crosses the
///           link (DeviceConfig::codec prices both stages).
///   kAuto — per-transfer cost model: compress exactly when the modeled
///           encode + wire-at-ratio + decode time beats the raw wire time
///           for this payload size, kind and link rate.
/// Prefetches always move raw: they ride a dedicated early-upload path
/// whose whole point is hiding wire time under compute, so shrinking the
/// wire buys nothing while the codec stages would delay the hint.
enum class Compression : int { kOff = 0, kOn = 1, kAuto = 2 };

/// Construction options for AccTileArray.
struct AccOptions {
  tida::HostAlloc host_alloc = tida::HostAlloc::kPinned;
  /// Cap on device slots; used by the limited-memory experiments (Fig. 8)
  /// to emulate a device that only holds N regions.
  int max_slots = std::numeric_limits<int>::max();
  /// Disables the paper's caching (§IV-B4): every device acquire re-uploads
  /// even when the region is already resident. Ablation-only switch — shows
  /// what the cache table is worth.
  bool disable_caching = false;
  /// Components per cell (BoxLib-style multi-component arrays).
  int ncomp = 1;
  /// Region→slot scheduling policy. The default reproduces the paper's
  /// static region % num_slots mapping bit-for-bit; kLru/kBeladyOracle
  /// place regions dynamically (out-of-core eviction policies).
  SlotPolicyKind slot_policy = SlotPolicyKind::kStaticModulo;
  /// Enables dirty-region tracking and delta transfers: acquires,
  /// evictions, and the out-of-core ghost exchange ship only the boxes one
  /// side has written since the copies last agreed, as pitched
  /// cuemMemcpy3DAsync copies, falling back to one flat copy when that is
  /// both safe and modeled cheaper. Off by default — the seed's
  /// whole-region transfer shapes are reproduced exactly.
  bool delta_transfers = false;
  /// Streaming-vs-drain dispatch for the out-of-core ghost exchange (only
  /// consulted when delta_transfers is on and not every region fits).
  StreamingGuard streaming_guard = StreamingGuard::kAuto;
  /// Temporal blocking depth: number of stencil sub-steps compute_k() runs
  /// per residency. 1 (default) allocates nothing extra and reproduces the
  /// seed's behaviour bit-for-bit; k > 1 gives every slot a scratch double
  /// buffer and deepens the prefetch hint to k. The array must then be
  /// built with ghost = k * stencil_radius (see choose_time_block_k).
  int time_block_k = 1;
  /// Codec policy for this array's host<->device transfers (flat region
  /// copies and pitched delta copies; prefetches stay raw). kOff keeps the
  /// transfer timings bit-identical to an uncompressed build.
  Compression compression = Compression::kOff;
};

template <typename T>
class AccTileArray : public tida::TileArray<T> {
 public:
  using Base = tida::TileArray<T>;

  AccTileArray(const tida::Box& domain, const tida::Index3& region_size,
               int ghost, AccOptions opts = {})
      : Base(domain, region_size, ghost, opts.host_alloc, opts.ncomp),
        pool_(this->partition().max_region_volume(ghost) * opts.ncomp *
                  sizeof(T),
              this->num_regions(), opts.max_slots,
              make_slot_policy(opts.slot_policy),
              /*with_scratch=*/opts.time_block_k > 1),
        loc_(this->num_regions()),
        dirty_(this->num_regions()),
        pending_xfer_(static_cast<std::size_t>(this->num_regions()), -1),
        device_(cuem::current_device()),
        disable_caching_(opts.disable_caching),
        delta_transfers_(opts.delta_transfers),
        streaming_guard_(opts.streaming_guard),
        time_block_k_(opts.time_block_k),
        compression_(opts.compression) {
    TIDACC_CHECK_MSG(opts.time_block_k >= 1,
                     "time_block_k must be at least 1");
    TIDACC_CHECK_MSG(
        compression_ == Compression::kOff ||
            sim::Platform::instance().config().codec.available,
        "compression requested on a device config without a codec "
        "(DeviceConfig::codec.available is false)");
    if (opts.time_block_k > 1) {
      // A k-deep residency spans k kernel launches; let the prefetcher run
      // as many regions ahead so the copy engine stays busy throughout.
      pool_.scheduler().set_prefetch_depth(opts.time_block_k);
    }
    if (cuem::san::enabled()) {
      for (int r = 0; r < this->num_regions(); ++r) {
        CUEM_CHECK(cuemSanAnnotate(this->region(r).data,
                                   ("host:R" + std::to_string(r)).c_str()));
      }
    }
  }

  // --- device topology ---

  int num_slots() const { return pool_.num_slots(); }
  bool all_regions_fit() const { return pool_.one_to_one(); }
  /// Device every region lives on: the one current at construction, where
  /// the slot pool and its streams were created.
  int device_of_region(int /*region*/) const { return device_; }
  int slot_of_region(int region) const { return pool_.slot_of_region(region); }
  cuemStream_t stream_of_region(int region) const {
    return pool_.stream_of_slot(pool_.slot_of_region(region));
  }
  const CacheTable& cache() const { return pool_.cache(); }
  const SlotScheduler& scheduler() const { return pool_.scheduler(); }
  SlotPolicyKind slot_policy() const { return pool_.scheduler().policy_kind(); }

  /// Temporal blocking depth this array was built for (1 = off).
  int time_block_k() const { return time_block_k_; }

  /// Codec policy this array was built with.
  Compression compression() const { return compression_; }

  /// True when every slot carries an in-slot scratch double buffer
  /// (time_block_k > 1 at construction).
  bool has_scratch() const { return pool_.has_scratch(); }

  /// Device pointer of the scratch buffer backing `region`'s slot — the
  /// write target of compute_k's odd sub-steps. Requires has_scratch().
  T* scratch_of_region(int region) {
    return static_cast<T*>(
        pool_.scratch_ptr(pool_.slot_of_region(region)));
  }

  /// Swaps `region`'s slot primary/scratch pointers after a sub-step wrote
  /// the scratch buffer (no device copy — pointer bookkeeping only).
  void swap_region_buffers(int region) {
    pool_.swap_slot_buffers(pool_.slot_of_region(region));
  }

  /// Remaps slot→stream through the pool (see
  /// DevicePool::set_stream_permutation). Fuzzing/ablation hook.
  void set_stream_permutation(const std::vector<int>& perm) {
    pool_.set_stream_permutation(perm);
  }

  /// Installs the recorded future region-access order (one entry per demand
  /// acquire, in order) for the BeladyOracle policy; other policies ignore
  /// it.
  void set_future_accesses(std::vector<int> sequence) {
    pool_.scheduler().set_future(std::move(sequence));
  }

  /// Last-access location of a region.
  Loc location(int region) const { return loc_.location(region); }

  /// Fills valid cells on the host (hides Base::fill to record that every
  /// region now has authoritative host data).
  template <typename Fn>
  void fill(Fn&& fn) {
    sync_all_pending_host();
    note_host_buffers("fill");
    Base::fill(std::forward<Fn>(fn));
    assume_host_initialized();
  }

  /// Per-component fill; same host-ownership bookkeeping as fill().
  template <typename Fn>
  void fill_components(Fn&& fn) {
    sync_all_pending_host();
    note_host_buffers("fill_components");
    Base::fill_components(std::forward<Fn>(fn));
    assume_host_initialized();
  }

  /// Declares that host buffers hold meaningful data without writing them —
  /// the timing-only-mode stand-in for fill(), so transfer shapes match
  /// functional runs.
  void assume_host_initialized() {
    for (int r = 0; r < this->num_regions(); ++r) {
      loc_.set(r, Loc::kHost);
      if (delta_transfers_) {
        dirty_.mark_all_host(r, this->region(r).grown);
      }
    }
  }

  /// Host cell access (hides Base::at to enforce the access protocol: the
  /// region must not be device-current — call acquire_on_host first). The
  /// returned reference may be written, so the host becomes the
  /// authoritative side.
  T& at(const tida::Index3& cell) {
    const int id = this->partition().region_of_cell(cell);
    TIDACC_CHECK_MSG(id >= 0, "cell outside the domain");
    TIDACC_CHECK_MSG(loc_.location(id) != Loc::kDevice,
                     "host access to a device-current region — call "
                     "acquire_on_host first (paper §IV-B3)");
    // An async transfer may still be touching this region's host buffer
    // (e.g. the D2H queued when it was evicted): wait for it before the
    // caller dereferences.
    sync_pending_host(id);
    cuem::san::note_host_access(this->region(id).data,
                                this->region_bytes(id),
                                /*write=*/true, "TileArray::at");
    loc_.set(id, Loc::kHost);
    if (delta_transfers_) {
      dirty_.note_host_write(id, tida::Box{cell, cell});
    }
    return Base::at(cell);
  }

  /// Device-side view of region `region` laid out in its slot buffer
  /// (valid whether or not the region is currently resident).
  tida::Region<T> device_region(int region) const {
    tida::Region<T> r = this->region(region);
    r.data = static_cast<T*>(pool_.slot_ptr(pool_.slot_of_region(region)));
    return r;
  }

  // --- the caching protocol ---

  /// Ensures region `region` is resident and current on the device; returns
  /// its device pointer. The slot comes from the scheduler (resident slot,
  /// else a policy-chosen victim); transfers (and the eviction of a
  /// slot-sharing victim) are queued asynchronously on the slot's stream.
  T* acquire_on_device(int region) {
    const int slot = pool_.place_region(region);
    const cuemStream_t stream = pool_.stream_of_slot(slot);
    CacheTable& cache = pool_.cache();
    T* dev = static_cast<T*>(pool_.slot_ptr(slot));

    if (cache.resident(slot) == region) {
      // Cache hit; if the host touched it since, refresh the device copy.
      // With caching disabled (ablation) the data round-trips on every
      // acquire — D2H then H2D, the per-kernel-clause behaviour a runtime
      // without the cache table would exhibit.
      if (disable_caching_ && loc_.location(region) == Loc::kDevice) {
        drain_device(region, dev, stream);
        loc_.set(region, Loc::kHost);
      }
      if (loc_.location(region) == Loc::kHost) {
        refresh_device(region, dev, stream);
      }
      loc_.set(region, Loc::kDevice);
      return dev;
    }

    const bool needs_upload = loc_.location(region) == Loc::kHost;

    if (cache.resident(slot) != -1) {
      // Paper's eviction: queue the victim's D2H on the *same* stream
      // before the newcomer's H2D — stream order guarantees correctness
      // with no global synchronization. The D2H is skipped when the
      // victim's newest data already lives on the host (e.g. it was pulled
      // back for a host-side ghost exchange): writing the stale device
      // copy over it would clobber fresher host data.
      const int victim = cache.resident(slot);
      if (loc_.location(victim) == Loc::kDevice) {
        drain_device(victim, dev, stream);
        loc_.set(victim, Loc::kHost);
      }
      cache.evict(slot);
    }

    // A miss leaves no device copy to delta against: the flat upload (or
    // the absent upload of a kUninit region) re-baselines both sides.
    if (delta_transfers_) {
      dirty_.reset(region);
    }
    // No H2D for a region whose host side never produced data (kUninit):
    // there is nothing meaningful to upload. Output arrays of Jacobi-style
    // solvers hit this path and save half the upload traffic.
    if (needs_upload) {
      order_after_pending(region, stream);
      copy_region(dev, this->region(region).data, region,
                  cuemMemcpyHostToDevice, stream);
    }
    cache.set(slot, region);
    loc_.set(region, Loc::kDevice);
    return dev;
  }

  /// Queues the asynchronous H2D bringing `region` into a policy-chosen
  /// slot *ahead* of its demand acquire, so the transfer overlaps the
  /// kernels still running on other slots (out-of-core pipelining). Never
  /// blocks the host. The receiving slot stays pinned — protected from
  /// eviction — until a demand acquire consumes the region. Returns false
  /// when nothing was queued: the region is already resident, caching is
  /// disabled, every slot is pinned, or the static mapping lands on a slot
  /// holding another in-flight prefetch (skipped rather than evicted).
  bool prefetch_to_device(int region) {
    if (disable_caching_) {
      return false;
    }
    const int slot = pool_.place_prefetch(region);
    if (slot < 0) {
      return false;
    }
    CacheTable& cache = pool_.cache();
    const cuemStream_t stream = pool_.stream_of_slot(slot);
    T* dev = static_cast<T*>(pool_.slot_ptr(slot));

    if (cache.resident(slot) != -1) {
      // Same eviction protocol as a demand acquire: the victim's D2H is
      // stream-ordered before the newcomer's H2D.
      const int victim = cache.resident(slot);
      if (loc_.location(victim) == Loc::kDevice) {
        drain_device(victim, dev, stream);
        loc_.set(victim, Loc::kHost);
      }
      cache.evict(slot);
    }

    // Like a demand miss, the prefetch upload is a full flat transfer that
    // re-baselines the dirty bookkeeping.
    if (delta_transfers_) {
      dirty_.reset(region);
    }
    if (loc_.location(region) == Loc::kHost) {
      order_after_pending(region, stream);
      CUEM_CHECK(cuem::prefetch_h2d_async(
          dev, this->region(region).data, this->region_bytes(region), stream,
          tracing() ? "P:R" + std::to_string(region) : std::string()));
      pending_xfer_[static_cast<std::size_t>(region)] = stream;
      xfer_.h2d_bytes += this->region_bytes(region);
      xfer_.h2d_wire_bytes += this->region_bytes(region);
      ++xfer_.prefetch_ops;
      ++prefetches_issued_;
    }
    cache.set(slot, region);
    loc_.set(region, Loc::kDevice);
    return true;
  }

  /// Number of prefetch transfers issued so far.
  std::uint64_t prefetches_issued() const { return prefetches_issued_; }

  /// Ensures the host copy of `region` is current. Blocks until the
  /// transfer completes when one is needed (§IV-B3: the caller may touch
  /// the data right after the request).
  void acquire_on_host(int region) {
    if (loc_.location(region) != Loc::kDevice) {
      // The caller is about to read or write host data; either way the host
      // now holds the authoritative copy. An earlier eviction may have left
      // an async D2H in flight into this buffer — wait for it first.
      sync_pending_host(region);
      cuem::san::note_host_access(this->region(region).data,
                                  this->region_bytes(region),
                                  /*write=*/true, "acquire_on_host");
      set_host_authoritative(region);
      return;
    }
    const int slot = pool_.slot_of_region(region);
    const cuemStream_t stream = pool_.stream_of_slot(slot);
    TIDACC_CHECK_MSG(pool_.cache().resident(slot) == region,
                     "region marked on-device but not resident");
    if (pending_xfer_[static_cast<std::size_t>(region)] >= 0 &&
        pending_xfer_[static_cast<std::size_t>(region)] != stream) {
      // A stale transfer on another stream (the region migrated slots) still
      // references this host buffer; the drain below would race it.
      sync_pending_host(region);
    }
    drain_device(region, static_cast<T*>(pool_.slot_ptr(slot)), stream);
    CUEM_CHECK(cuemStreamSynchronize(stream));
    pending_xfer_[static_cast<std::size_t>(region)] = -1;
    cuem::san::note_host_access(this->region(region).data,
                                this->region_bytes(region),
                                /*write=*/true, "acquire_on_host");
    set_host_authoritative(region);
  }

  /// Brings every device-held region home and waits (end-of-run helper).
  /// All downloads are queued first — pipelined across the slot streams —
  /// and each stream is synchronized exactly once, instead of the one
  /// blocking round-trip per region a loop of acquire_on_host would pay.
  void release_all_to_host() {
    StreamSyncList streams;
    for (int r = 0; r < this->num_regions(); ++r) {
      if (loc_.location(r) != Loc::kDevice) {
        // Not drained now, but an earlier eviction may have queued a D2H
        // into this host buffer that is still in flight — its stream must
        // join the batched sync below or later host reads race it.
        const cuemStream_t pending =
            pending_xfer_[static_cast<std::size_t>(r)];
        if (pending >= 0) {
          streams.add(pending);
        }
        set_host_authoritative(r);
        continue;
      }
      const int slot = pool_.slot_of_region(r);
      TIDACC_CHECK_MSG(pool_.cache().resident(slot) == r,
                       "region marked on-device but not resident");
      const cuemStream_t stream = pool_.stream_of_slot(slot);
      drain_device(r, static_cast<T*>(pool_.slot_ptr(slot)), stream);
      streams.add(stream);
      set_host_authoritative(r);
    }
    streams.sync_all();
    for (int r = 0; r < this->num_regions(); ++r) {
      pending_xfer_[static_cast<std::size_t>(r)] = -1;
      cuem::san::note_host_access(this->region(r).data, this->region_bytes(r),
                                  /*write=*/true, "release_all_to_host");
    }
  }

  // --- ghost exchange (paper §IV-B6) ---

  /// Refreshes all ghost cells. Dispatches by data location: pure host
  /// exchange when everything was last touched on the host; device-side
  /// update kernels (with pipelined CPU index computation) when the data
  /// lives on the device and every region fits; otherwise falls back to
  /// host exchange after draining the device.
  void fill_boundary(tida::Boundary bc) {
    if (!loc_.any_on_device()) {
      sync_all_pending_host();
      note_host_buffers("fill_boundary_host");
      this->fill_boundary_host(bc);
      return;
    }
    if (all_regions_fit()) {
      fill_boundary_device(bc);
      return;
    }
    if (delta_transfers_ &&
        (streaming_guard_ == StreamingGuard::kForceStreaming ||
         (streaming_guard_ == StreamingGuard::kAuto &&
          detail::streaming_cheaper<T>(*this, bc)))) {
      // Mixed/limited-memory with dirty tracking: pipeline the shells
      // region by region (core/streaming_exchange.hpp) — but only when the
      // exchange-level cost model says it beats one pipelined drain.
      detail::streaming_exchange(*this, bc);
      return;
    }
    // Mixed/limited-memory: drain to host and exchange there.
    release_all_to_host();
    note_host_buffers("fill_boundary_host");
    this->fill_boundary_host(bc);
  }

  /// Number of streaming (delta) ghost exchanges performed so far.
  std::uint64_t streaming_exchanges() const { return streaming_exchanges_; }

  /// Device-side exchange: `acc wait`, then per destination region the CPU
  /// computes the index lists (this is the exchange plan) while the GPU
  /// applies the previous region's updates — the overlap of Fig. 4.
  void fill_boundary_device(tida::Boundary bc) {
    for (int r = 0; r < this->num_regions(); ++r) {
      acquire_on_device(r);
    }
    oacc::wait_all();

    sim::Platform& p = sim::Platform::instance();
    const auto& plan = this->exchange_plan(bc);
    std::size_t begin = 0;
    while (begin < plan.size()) {
      // The plan is grouped by destination region.
      const int dst = plan[begin].dst_region;
      std::size_t end = begin;
      std::uint64_t cells = 0;
      while (end < plan.size() && plan[end].dst_region == dst) {
        cells += plan[end].dst_box.volume();
        ++end;
      }

      // CPU computes the source/destination index descriptors for this
      // region's ghost copies (host time advances while previously
      // launched update kernels run on the device — the Fig. 4 overlap).
      p.host_advance(static_cast<SimTime>(end - begin) *
                     p.config().host_index_calc_ns_per_copy);

      // GPU applies the copies: one update kernel per destination region,
      // queued on that region's stream (async clause). The kernel reads the
      // source cells and writes the ghost cells: 2 * sizeof(T) traffic.
      sim::KernelProfile prof;
      prof.elements = cells * this->ncomp();
      prof.dev_bytes_per_element = 2.0 * sizeof(T);
      prof.flops_per_element = 0.0;
      prof.tuned_geometry = false;  // OpenACC-generated update kernel

      const cuemStream_t kstream = stream_of_region(dst);
      auto action = [this, bc, dst, begin, end]() {
        const auto& pl = this->exchange_plan(bc);
        for (std::size_t c = begin; c < end; ++c) {
          apply_copy_device(pl[c]);
        }
      };
      p.enqueue_kernel(kstream, prof, p.config().oacc_dispatch_extra_ns,
                       std::move(action),
                       tracing() ? "ghost:R" + std::to_string(dst)
                                 : std::string());
      if (cuem::san::enabled()) {
        const std::string op = "ghost:R" + std::to_string(dst);
        for (std::size_t c = begin; c < end; ++c) {
          note_ghost_copy_access(kstream, plan[c], op.c_str());
        }
      }
      for (std::size_t c = begin; c < end; ++c) {
        note_device_write(dst, plan[c].dst_box);
      }
      // Stream order protects the *destination*: its stream runs this
      // update before later kernels on that region. The *sources* sit on
      // other streams, though — without an edge, the next compute kernel on
      // a source's stream could overwrite the cells this kernel is still
      // reading. Record an event here and make each source stream wait.
      std::vector<cuemStream_t> src_streams;
      for (std::size_t c = begin; c < end; ++c) {
        const cuemStream_t s = stream_of_region(plan[c].src_region);
        if (s != kstream &&
            std::find(src_streams.begin(), src_streams.end(), s) ==
                src_streams.end()) {
          src_streams.push_back(s);
        }
      }
      if (!src_streams.empty()) {
        cuemEvent_t ev = 0;
        CUEM_CHECK(cuemEventCreate(&ev));
        CUEM_CHECK(cuemEventRecord(ev, kstream));
        for (const cuemStream_t s : src_streams) {
          CUEM_CHECK(cuemStreamWaitEvent(s, ev, 0));
        }
        CUEM_CHECK(cuemEventDestroy(ev));
      }
      ++device_ghost_updates_;
      begin = end;
    }
  }

  /// Number of device-side ghost-update kernels launched so far.
  std::uint64_t device_ghost_updates() const { return device_ghost_updates_; }

  // --- dirty tracking / delta transfers ---

  /// Whether delta transfers were enabled at construction.
  bool delta_transfers() const { return delta_transfers_; }

  /// The per-region dirty-box bookkeeping (empty lists when delta
  /// transfers are off).
  const DirtyTracker& dirty() const { return dirty_; }

  /// Cumulative host↔device traffic of this array, split by transfer shape.
  const TransferAccounting& transfers() const { return xfer_; }
  std::uint64_t h2d_bytes() const { return xfer_.h2d_bytes; }
  std::uint64_t d2h_bytes() const { return xfer_.d2h_bytes; }

  /// Records that a device kernel wrote `box` of `region` (grown-box
  /// coordinates) — compute() calls this for every GPU tile it launches.
  /// No-op unless delta transfers are on.
  void note_device_write(int region, const tida::Box& box) {
    if (delta_transfers_) {
      dirty_.note_device_write(region, box);
    }
  }

  /// Records a host-side write into `box` of `region`. No-op unless delta
  /// transfers are on.
  void note_host_write(int region, const tida::Box& box) {
    if (delta_transfers_) {
      dirty_.note_host_write(region, box);
    }
  }

  // --- snapshot (see docs/FUZZING.md) ---

  /// Snapshot of the array's protocol state: pool bookkeeping, locations,
  /// dirty boxes, pending transfers and accounting. Buffer *contents* (host
  /// and device) live in cuem-registered allocations and ride in the cuem
  /// snapshot; restore requires an array of identical geometry and options.
  void capture(sim::SnapshotWriter& w) const {
    w.section("acc_tile_array");
    w.put_int(this->num_regions());
    w.put_bool(disable_caching_);
    w.put_bool(delta_transfers_);
    w.put_int(static_cast<int>(streaming_guard_));
    w.put_int(time_block_k_);
    w.put_int(static_cast<int>(compression_));
    pool_.capture(w);
    loc_.capture(w);
    dirty_.capture(w);
    w.put_int_vec(pending_xfer_);
    xfer_.capture(w);
    w.put_u64(device_ghost_updates_);
    w.put_u64(prefetches_issued_);
    w.put_u64(streaming_exchanges_);
  }

  void restore(sim::SnapshotReader& r) {
    r.section("acc_tile_array");
    TIDACC_CHECK_MSG(r.get_int() == this->num_regions(),
                     "array snapshot has a different region count");
    TIDACC_CHECK_MSG(r.get_bool() == disable_caching_,
                     "array snapshot disagrees on disable_caching");
    TIDACC_CHECK_MSG(r.get_bool() == delta_transfers_,
                     "array snapshot disagrees on delta_transfers");
    TIDACC_CHECK_MSG(static_cast<StreamingGuard>(r.get_int()) ==
                         streaming_guard_,
                     "array snapshot disagrees on streaming_guard");
    TIDACC_CHECK_MSG(r.get_int() == time_block_k_,
                     "array snapshot disagrees on time_block_k");
    TIDACC_CHECK_MSG(static_cast<Compression>(r.get_int()) == compression_,
                     "array snapshot disagrees on compression");
    pool_.restore(r);
    loc_.restore(r);
    dirty_.restore(r);
    pending_xfer_ = r.get_int_vec();
    TIDACC_CHECK_MSG(pending_xfer_.size() ==
                         static_cast<std::size_t>(this->num_regions()),
                     "array snapshot is inconsistent");
    xfer_.restore(r);
    device_ghost_updates_ = r.get_u64();
    prefetches_issued_ = r.get_u64();
    streaming_exchanges_ = r.get_u64();
  }

 private:
  template <typename A>
  friend void detail::streaming_exchange(A& a, tida::Boundary bc);

  /// True when the platform trace records full per-op events — per-op label
  /// strings are only worth building then (the fuzz hot path turns
  /// recording off and keeps stats-only accounting).
  static bool tracing() {
    return sim::Platform::instance().trace().recording();
  }

  /// Waits for the last async transfer still touching `region`'s host
  /// buffer, if any. A successful query is enough (the transfer already
  /// completed — nothing to wait for and no host time spent); only a
  /// genuinely in-flight transfer costs a synchronize.
  void sync_pending_host(int region) {
    cuemStream_t& s = pending_xfer_[static_cast<std::size_t>(region)];
    if (s < 0) {
      return;
    }
    if (cuemStreamQuery(s) != cuemSuccess) {
      CUEM_CHECK(cuemStreamSynchronize(s));
    }
    s = -1;
  }

  void sync_all_pending_host() {
    for (int r = 0; r < this->num_regions(); ++r) {
      sync_pending_host(r);
    }
  }

  /// Orders `stream` after the last async transfer still touching
  /// `region`'s host buffer from a *different* stream — the D2H queued when
  /// a dynamic policy evicted the region out of another slot. Without the
  /// edge the re-acquire's H2D would read the host buffer mid-eviction.
  /// Device-side only (event wait), so the host never blocks; under the
  /// paper's StaticModulo mapping a region never changes streams and this
  /// is a no-op.
  void order_after_pending(int region, cuemStream_t stream) {
    if (injected("evict_race")) {
      // Re-opens the pre-fix behaviour: no cross-stream edge, so the H2D
      // races the in-flight eviction D2H (fuzzer/sanitizer regression bait).
      return;
    }
    cuemStream_t& pending = pending_xfer_[static_cast<std::size_t>(region)];
    if (pending < 0 || pending == stream) {
      return;
    }
    if (cuemStreamQuery(pending) == cuemSuccess) {
      pending = -1;  // already done; the query observed completion
      return;
    }
    cuemEvent_t ev = 0;
    CUEM_CHECK(cuemEventCreate(&ev));
    CUEM_CHECK(cuemEventRecord(ev, pending));
    CUEM_CHECK(cuemStreamWaitEvent(stream, ev, 0));
    CUEM_CHECK(cuemEventDestroy(ev));
  }

  /// Sanitizer bookkeeping: conservative whole-buffer host access note for
  /// every region (no-op when the sanitizer is off or disabled).
  void note_host_buffers(const char* op) {
    if (!cuem::san::enabled()) {
      return;
    }
    for (int r = 0; r < this->num_regions(); ++r) {
      cuem::san::note_host_access(this->region(r).data, this->region_bytes(r),
                                  /*write=*/true, op);
    }
  }

  /// Sanitizer bookkeeping: the exact byte boxes one planned ghost copy
  /// touches in the source and destination slot buffers, per component.
  /// Box-precise so concurrent update kernels into *disjoint* ghost shells
  /// do not read as racing.
  void note_ghost_copy_access(cuemStream_t stream, const tida::GhostCopy& c,
                              const char* op) {
    const tida::Region<T> src = device_region(c.src_region);
    const tida::Region<T> dst = device_region(c.dst_region);
    const tida::Index3 e = c.dst_box.extent();
    for (int comp = 0; comp < this->ncomp(); ++comp) {
      cuem::san::BoxShape box;
      box.width = static_cast<std::size_t>(e.i) * sizeof(T);
      box.height = static_cast<std::size_t>(e.j);
      box.depth = static_cast<std::size_t>(e.k);
      const tida::Index3 de = dst.grown.extent();
      box.row_pitch = static_cast<std::size_t>(de.i) * sizeof(T);
      box.slice_pitch = box.row_pitch * static_cast<std::size_t>(de.j);
      cuem::san::note_kernel_box_access(stream, &dst.at(c.dst_box.lo, comp),
                                        box, /*write=*/true, op);
      const tida::Index3 se = src.grown.extent();
      box.row_pitch = static_cast<std::size_t>(se.i) * sizeof(T);
      box.slice_pitch = box.row_pitch * static_cast<std::size_t>(se.j);
      cuem::san::note_kernel_box_access(stream, &src.at(c.src_box.lo, comp),
                                        box, /*write=*/false, op);
    }
  }

  /// Raw-vs-compressed decision for one host<->device transfer of `bytes`
  /// logical payload. Mirrors the platform's compressed-copy pricing
  /// exactly: setup, latency and (for pitched copies) the memcpy3d
  /// overhead are identical on both paths, so the comparison reduces to
  /// the codec stages plus the shrunken wire against the raw wire. Because
  /// the discrete-event schedule is monotone in op durations and the op
  /// *sequence* is mode-independent, picking the per-op minimum here means
  /// kAuto's makespan never exceeds kOff's or kOn's.
  bool compress_transfer(std::uint64_t bytes, bool h2d,
                         sim::PayloadKind payload) const {
    if (compression_ == Compression::kOff || bytes == 0) {
      return false;
    }
    if (compression_ == Compression::kOn) {
      return true;
    }
    const sim::DeviceConfig& cfg = sim::Platform::instance().config();
    const bool pinned = this->host_alloc_kind() == tida::HostAlloc::kPinned;
    const double gbps = h2d ? (pinned ? cfg.pinned_h2d_gbps
                                      : cfg.pageable_h2d_gbps)
                            : (pinned ? cfg.pinned_d2h_gbps
                                      : cfg.pageable_d2h_gbps);
    const std::uint64_t wire = cfg.codec.wire_bytes(bytes, payload);
    return cfg.codec.codec_time_ns(bytes) + transfer_time_ns(wire, gbps) <
           transfer_time_ns(bytes, gbps);
  }

  /// Wire-byte accounting shared by every transfer path: raw transfers put
  /// their full payload on the wire, compressed ones only the codec output.
  void note_wire(bool h2d, std::uint64_t wire_bytes) {
    if (h2d) {
      xfer_.h2d_wire_bytes += wire_bytes;
    } else {
      xfer_.d2h_wire_bytes += wire_bytes;
    }
  }

  /// Queues one whole-region transfer on `stream`, through the codec when
  /// the policy and cost model say so (whole regions compress at the
  /// interior ratio).
  void copy_region(T* dst, const T* src, int region, cuemMemcpyKind kind,
                   cuemStream_t stream) {
    const std::size_t bytes = this->region_bytes(region);
    const bool h2d = kind == cuemMemcpyHostToDevice;
    if (compress_transfer(bytes, h2d, sim::PayloadKind::kInterior)) {
      CUEM_CHECK(cuem::compressed_memcpy_async(
          dst, src, bytes, kind, stream, sim::PayloadKind::kInterior,
          tracing() ? (h2d ? "zH2D:R" : "zD2H:R") + std::to_string(region)
                    : std::string()));
      note_wire(h2d, sim::Platform::instance().config().codec.wire_bytes(
                         bytes, sim::PayloadKind::kInterior));
      if (h2d) {
        ++xfer_.comp_h2d_ops;
      } else {
        ++xfer_.comp_d2h_ops;
      }
    } else {
      CUEM_CHECK(cuemMemcpyAsync(dst, src, bytes, kind, stream));
      note_wire(h2d, bytes);
    }
    pending_xfer_[static_cast<std::size_t>(region)] = stream;
    if (h2d) {
      xfer_.h2d_bytes += bytes;
      ++xfer_.flat_h2d_ops;
    } else {
      xfer_.d2h_bytes += bytes;
      ++xfer_.flat_d2h_ops;
    }
  }

  /// Protocol bookkeeping of handing a region to host code: the host copy
  /// becomes authoritative and — conservatively — wholly dirty, since the
  /// caller may write anywhere through raw pointers.
  void set_host_authoritative(int region) {
    loc_.set(region, Loc::kHost);
    if (delta_transfers_) {
      dirty_.mark_all_host(region, this->region(region).grown);
    }
  }

  /// True when shipping `boxes` as pitched sub-box copies is modeled
  /// cheaper than one flat whole-region transfer in direction `h2d`
  /// (latency + chunk overhead per box/component vs one full burst).
  bool delta_cheaper(int region, const std::vector<tida::Box>& boxes,
                     bool h2d) const {
    const sim::DeviceConfig& cfg = sim::Platform::instance().config();
    const double gbps = h2d ? cfg.pinned_h2d_gbps : cfg.pinned_d2h_gbps;
    const SimTime flat =
        cfg.transfer_latency_ns +
        transfer_time_ns(this->region_bytes(region), gbps);
    const tida::Box& grown = this->region(region).grown;
    SimTime delta = 0;
    for (const tida::Box& b : boxes) {
      const std::uint64_t bytes = b.volume() * sizeof(T);
      delta += static_cast<SimTime>(this->ncomp()) *
               (cfg.transfer_latency_ns +
                cfg.memcpy3d_overhead_ns(bytes, detail::chunks_for(grown, b)) +
                transfer_time_ns(bytes, gbps));
      if (delta >= flat) {
        return false;
      }
    }
    return true;
  }

  /// Queues one pitched sub-box copy per box per component between the
  /// host and device buffers of `region` (both share the grown-box
  /// geometry, so pitches are identical on both sides). Each box is priced
  /// through the codec independently when the policy allows it — `payload`
  /// names what the boxes carry (face shells of a delta exchange, ghost
  /// refreshes), which sets the modeled compression ratio.
  void copy_boxes(int region, const std::vector<tida::Box>& boxes,
                  cuemMemcpyKind kind, cuemStream_t stream,
                  sim::PayloadKind payload) {
    const tida::Region<T> host = this->region(region);
    const tida::Region<T> dev = device_region(region);
    const tida::Index3 ge = host.grown.extent();
    const std::size_t pitch = static_cast<std::size_t>(ge.i) * sizeof(T);
    const std::size_t slice = pitch * static_cast<std::size_t>(ge.j);
    const bool h2d = kind == cuemMemcpyHostToDevice;
    for (const tida::Box& b : boxes) {
      if (b.empty()) {
        continue;
      }
      const tida::Index3 e = b.extent();
      const std::uint64_t bytes = b.volume() * sizeof(T);
      for (int comp = 0; comp < this->ncomp(); ++comp) {
        cuemMemcpy3DParms parms;
        parms.dst = h2d ? static_cast<void*>(&dev.at(b.lo, comp))
                        : static_cast<void*>(&host.at(b.lo, comp));
        parms.src = h2d ? static_cast<const void*>(&host.at(b.lo, comp))
                        : static_cast<const void*>(&dev.at(b.lo, comp));
        parms.dst_pitch = parms.src_pitch = pitch;
        parms.dst_slice_pitch = parms.src_slice_pitch = slice;
        parms.width = static_cast<std::size_t>(e.i) * sizeof(T);
        parms.height = static_cast<std::size_t>(e.j);
        parms.depth = static_cast<std::size_t>(e.k);
        parms.kind = kind;
        if (compress_transfer(bytes, h2d, payload)) {
          CUEM_CHECK(cuem::compressed_memcpy3d_async(
              parms, stream, payload,
              tracing()
                  ? (h2d ? "zdH2D:R" : "zdD2H:R") + std::to_string(region)
                  : std::string()));
          note_wire(h2d, sim::Platform::instance().config().codec.wire_bytes(
                             bytes, payload));
          if (h2d) {
            ++xfer_.comp_h2d_ops;
          } else {
            ++xfer_.comp_d2h_ops;
          }
        } else {
          CUEM_CHECK(cuem::memcpy3d_async(
              parms, stream,
              tracing() ? (h2d ? "dH2D:R" : "dD2H:R") + std::to_string(region)
                        : std::string()));
          note_wire(h2d, bytes);
        }
        pending_xfer_[static_cast<std::size_t>(region)] = stream;
        if (h2d) {
          xfer_.h2d_bytes += bytes;
          ++xfer_.delta_h2d_ops;
        } else {
          xfer_.d2h_bytes += bytes;
          ++xfer_.delta_d2h_ops;
        }
      }
    }
  }

  /// Brings the host copy of a device-current region up to date: ships the
  /// device-dirty boxes as pitched copies when forced (host-dirty cells a
  /// flat copy would clobber) or modeled cheaper, else one flat D2H.
  /// Queues only — callers sync when they need the data on the host.
  void drain_device(int region, T* dev, cuemStream_t stream) {
    if (delta_transfers_) {
      const std::vector<tida::Box>& dd = dirty_.dev_dirty(region);
      if (!dirty_.host_clean(region) ||
          delta_cheaper(region, dd, /*h2d=*/false)) {
        copy_boxes(region, dd, cuemMemcpyDeviceToHost, stream,
                   sim::PayloadKind::kFaceShell);
        dirty_.clear_device(region);
        return;
      }
      dirty_.reset(region);  // flat D2H: both copies agree afterwards
    }
    copy_region(this->region(region).data, dev, region,
                cuemMemcpyDeviceToHost, stream);
  }

  /// Brings the device copy of a resident region up to date with the host:
  /// ships the host-dirty boxes as pitched copies when forced (the device
  /// has newer cells of its own a flat copy would clobber) or modeled
  /// cheaper, else one flat H2D.
  void refresh_device(int region, T* dev, cuemStream_t stream) {
    if (delta_transfers_) {
      const std::vector<tida::Box>& hd = dirty_.host_dirty(region);
      if (!dirty_.device_clean(region) ||
          delta_cheaper(region, hd, /*h2d=*/true)) {
        copy_boxes(region, hd, cuemMemcpyHostToDevice, stream,
                   sim::PayloadKind::kFaceShell);
        dirty_.clear_host(region);
        return;
      }
      dirty_.reset(region);  // flat H2D: both copies agree afterwards
    }
    copy_region(dev, this->region(region).data, region,
                cuemMemcpyHostToDevice, stream);
  }

  /// Applies one planned ghost copy between device slot buffers, all
  /// components (functional part of the device update kernel).
  void apply_copy_device(const tida::GhostCopy& c) {
    const tida::Region<T> src = device_region(c.src_region);
    const tida::Region<T> dst = device_region(c.dst_region);
    const tida::Index3 e = c.dst_box.extent();
    for (int comp = 0; comp < this->ncomp(); ++comp) {
      for (int k = 0; k < e.k; ++k) {
        for (int j = 0; j < e.j; ++j) {
          const tida::Index3 d0 = c.dst_box.lo + tida::Index3{0, j, k};
          const tida::Index3 s0 = c.src_box.lo + tida::Index3{0, j, k};
          std::memcpy(&dst.at(d0, comp), &src.at(s0, comp),
                      static_cast<std::size_t>(e.i) * sizeof(T));
        }
      }
    }
  }

  DevicePool pool_;
  LocationTracker loc_;
  DirtyTracker dirty_;
  /// Per region: stream of the last queued async transfer that reads or
  /// writes the region's *host* buffer, or -1. Host code must synchronize
  /// (sync_pending_host) before touching the buffer.
  std::vector<cuemStream_t> pending_xfer_;
  TransferAccounting xfer_;
  std::uint64_t device_ghost_updates_ = 0;
  std::uint64_t prefetches_issued_ = 0;
  std::uint64_t streaming_exchanges_ = 0;
  int device_ = 0;
  bool disable_caching_ = false;
  bool delta_transfers_ = false;
  StreamingGuard streaming_guard_ = StreamingGuard::kAuto;
  int time_block_k_ = 1;
  Compression compression_ = Compression::kOff;
};

/// A tile bound to its AccTileArray plus the traversal's GPU flag — what
/// compute() consumes.
template <typename T>
struct AccTile {
  AccTileArray<T>* array = nullptr;
  tida::Tile<T> tile;
  bool gpu = false;
};

/// Tile iterator over an AccTileArray; tile() yields AccTiles carrying the
/// GPU flag set by reset(GPU=true) (paper §V).
template <typename T>
class AccTileIterator : public tida::TileIterator<T> {
 public:
  explicit AccTileIterator(AccTileArray<T>& array,
                           const tida::Index3& tile_size = {0, 0, 0})
      : tida::TileIterator<T>(array, tile_size), array_(&array) {}

  AccTile<T> tile() const {
    return AccTile<T>{array_, tida::TileIterator<T>::tile(), this->gpu()};
  }

  /// Binds the same traversal position to a sibling array (same geometry):
  /// the paper's multi-tile compute passes tiles of several arrays at the
  /// same iterator position.
  AccTile<T> tile_in(AccTileArray<T>& other) const {
    const tida::Tile<T> t = tida::TileIterator<T>::tile();
    TIDACC_CHECK_MSG(other.partition() == array_->partition(),
                     "sibling array must share the partition geometry");
    return AccTile<T>{&other,
                      tida::Tile<T>{other.region(t.region.id), t.box},
                      this->gpu()};
  }

 private:
  AccTileArray<T>* array_;
};

}  // namespace tidacc::core

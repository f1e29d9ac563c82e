// MultiAccTileArray — the paper's GPU-extended tileArray (TiDA-acc), with
// regions distributed across the platform's simulated devices.
//
// Extends tida::TileArray<T> with one device slot pool (DevicePool +
// CacheTable + SlotScheduler) per device, the caching protocol of §IV-B4
// (on-demand transfers, eviction through shared slots), per-slot streams,
// and the dual-path ghost exchange of §IV-B6 (host-side exchange when data
// lives on the host; device-side copies driven by CPU-computed index lists
// when data lives on the device). Each region has an owning device chosen
// by a placement policy (block or round-robin); acquires and prefetches
// run the protocol against the owner's pool. Ghost faces whose source and
// destination share a device are replayed by one kernel per device from
// persistent index descriptors, which the host computes and uploads once
// per layout and boundary (core/exchange_schedule.hpp: arrays on one layout
// share them); faces crossing devices travel as peer copies (direct over
// the interconnect when peer access is enabled, staged D2H+H2D through
// pinned host memory otherwise). Events, not a barrier, order the exchange
// against the kernels around it.
//
// Access protocol (paper §III "caching"):
//   * acquire_on_device(r): makes region r usable by kernels; queues the
//     needed async transfers on r's slot stream and returns the device
//     pointer. Never blocks the host.
//   * acquire_on_host(r): makes region r readable/writable on the host;
//     blocks (cuemStreamSynchronize) if a device→host transfer is needed,
//     because the caller touches the data immediately (§IV-B3).
//
// AccTileArray (core/acc_tile_array.hpp) is this class on one device.
#pragma once

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/inject.hpp"
#include "core/device_pool.hpp"
#include "core/dirty_tracker.hpp"
#include "core/exchange_schedule.hpp"
#include "core/streaming_exchange.hpp"
#include "cuem/cuem.hpp"
#include "cuem/san.hpp"
#include "oacc/oacc.hpp"
#include "sim/snapshot.hpp"
#include "tida/tile_array.hpp"

namespace tidacc::core {

template <typename T>
class AccTileIterator;

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

/// Construction options for every tile array: MultiAccTileArray,
/// AccTileArray (core/acc_tile_array.hpp: AccOptions is this struct) and,
/// as ClusterOptions::multi, ClusterTileArray.
struct MultiAccOptions {
  tida::HostAlloc host_alloc = tida::HostAlloc::kPinned;
  /// Number of devices to distribute over; 0 means every device the
  /// platform exposes. Must not exceed cuemGetDeviceCount. AccTileArray
  /// lives on device 0 and accepts only 0 or 1.
  int devices = 0;
  DevicePlacement placement = DevicePlacement::kBlock;
  /// Cap on device slots, per device; used by the limited-memory
  /// experiments (Fig. 8) to emulate a device that only holds N regions.
  int max_slots = std::numeric_limits<int>::max();
  /// Disables the paper's caching (§IV-B4): every device acquire
  /// re-uploads even when the region is already resident. Ablation-only
  /// switch — shows what the cache table is worth.
  bool disable_caching = false;
  /// Components per cell (BoxLib-style multi-component arrays).
  int ncomp = 1;
  /// Region→slot scheduling policy within each device's pool. The default
  /// reproduces the paper's static region % num_slots mapping bit-for-bit;
  /// kLru/kBeladyOracle place regions dynamically (out-of-core eviction
  /// policies).
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
  /// buffer. The array must then be built with ghost = k * stencil_radius
  /// (see choose_time_block_k).
  int time_block_k = 1;
  /// Codec policy for host<->device transfers (flat region copies and
  /// pitched delta copies; prefetches stay raw). kOff keeps the transfer
  /// timings bit-identical to an uncompressed build.
  Compression compression = Compression::kOff;
};

/// OpenACC async queue of the device exchange's descriptor uploads and
/// replay kernels: one stream per device, beside the slots' queues
/// (DevicePool keeps slot counts, and so slot queue ids, below 2^20).
inline constexpr oacc::QueueId kExchangeQueue = 1 << 20;

template <typename T>
class MultiAccTileArray : public tida::TileArray<T> {
 public:
  using Base = tida::TileArray<T>;

  MultiAccTileArray(const tida::Box& domain, const tida::Index3& region_size,
                    int ghost, MultiAccOptions opts = {})
      : MultiAccTileArray(domain, region_size, ghost, opts, /*nodes=*/1) {}

 protected:
  /// The constructor, for an array whose exchange spans `nodes` nodes
  /// (ClusterTileArray): the node count joins the layout its exchange
  /// schedule is shared on.
  MultiAccTileArray(const tida::Box& domain, const tida::Index3& region_size,
                    int ghost, const MultiAccOptions& opts, int nodes)
      : Base(domain, region_size, ghost, opts.host_alloc, opts.ncomp),
        loc_(this->num_regions()),
        dirty_(this->num_regions()),
        pending_xfer_(static_cast<std::size_t>(this->num_regions()), -1),
        evicted_(static_cast<std::size_t>(this->num_regions()), -1),
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
    if (cuem::san::enabled()) {
      for (int r = 0; r < this->num_regions(); ++r) {
        CUEM_CHECK(cuemSanAnnotate(this->region(r).data,
                                   ("host:R" + std::to_string(r)).c_str()));
      }
    }
    const int avail = cuem::device_count();
    const int devices = opts.devices == 0 ? avail : opts.devices;
    TIDACC_CHECK_MSG(devices >= 1 && devices <= avail,
                     "device count must be in [1, cuemGetDeviceCount]");
    // The schedule places the regions (ExchangeSchedule::Layout).
    schedule_ = ExchangeSchedule::of(ExchangeSchedule::Layout{
        domain, region_size, ghost, devices, opts.placement, nodes});
    pools_.resize(static_cast<std::size_t>(devices));
    const std::size_t per_region =
        tida::descriptors_per_region(this->partition(), ghost);
    const std::size_t slot_bytes =
        this->partition().max_region_volume(ghost) * opts.ncomp * sizeof(T);
    for (int d = 0; d < num_devices(); ++d) {
      const std::size_t regions = schedule_->regions_of(d).size();
      if (regions == 0) {
        continue;  // more devices than regions: this device idles
      }
      // The pool sizes itself against the *owning* device's free memory and
      // creates its slot streams there, so construct under its guard. The
      // layout's descriptor buffer is allocated first (by the first array on
      // the layout), so the slots fit around it.
      cuem::DeviceGuard guard(d);
      schedule_->reserve(d, regions * per_region);
      pool(d) = std::make_unique<DevicePool>(
          slot_bytes, static_cast<int>(regions), opts.max_slots,
          make_slot_policy(opts.slot_policy),
          /*with_scratch=*/opts.time_block_k > 1);
      DescriptorBuffers& buffers = schedule_->device(d).buffers;
      if (buffers.device() != nullptr && buffers.stream < 0) {
        buffers.stream = oacc::get_cuem_stream(kExchangeQueue);
      }
    }
  }

 public:
  // --- device topology ---

  /// Devices this array distributes over (not necessarily all used).
  int num_devices() const { return schedule_->layout().devices; }

  /// Owning device of a region.
  int device_of_region(int region) const {
    return schedule_->device_of(static_cast<int>(checked(region)));
  }

  /// Slot `region` is bound to on its owning device.
  int slot_of_region(int region) const {
    return region_pool(region).slot_of_region(schedule_->local_id(region));
  }

  /// Global region ids owned by one device, in local order.
  const std::vector<int>& regions_of_device(int device) const {
    TIDACC_CHECK_MSG(device >= 0 && device < num_devices(),
                     "device ordinal out of range");
    return schedule_->regions_of(device);
  }

  /// True when every device's regions each have their own slot.
  bool all_regions_fit() const {
    for (const std::unique_ptr<DevicePool>& pool : pools_) {
      if (pool && !pool->one_to_one()) {
        return false;
      }
    }
    return true;
  }

  /// Slot pool bookkeeping of one device (device 0 by default — the only
  /// one of a single-device array).
  int num_slots(int device = 0) const { return pool_of(device).num_slots(); }
  const CacheTable& cache(int device = 0) const {
    return pool_of(device).cache();
  }
  const SlotScheduler& scheduler(int device = 0) const {
    return pool_of(device).scheduler();
  }

  /// Temporal blocking depth this array was built for (1 = off).
  int time_block_k() const { return time_block_k_; }

  /// True when every slot carries an in-slot scratch double buffer
  /// (time_block_k > 1 at construction).
  bool has_scratch() const { return time_block_k_ > 1; }

  /// Device pointer of the scratch buffer backing `region`'s slot on its
  /// owning device — the write target of compute_k's odd sub-steps.
  /// Requires has_scratch().
  T* scratch_of_region(int region) {
    return static_cast<T*>(
        region_pool(region).scratch_ptr(slot_of_region(region)));
  }

  /// Swaps `region`'s slot primary/scratch pointers after a sub-step wrote
  /// the scratch buffer (no device copy — pointer bookkeeping only).
  void swap_region_buffers(int region) {
    pool(device_of_region(region))->swap_slot_buffers(slot_of_region(region));
  }

  /// Remaps slot→stream on one device's pool (see
  /// DevicePool::set_stream_permutation). Fuzzing/ablation hook.
  void set_stream_permutation(int device, const std::vector<int>& perm) {
    pool_of(device);  // validates the ordinal and that the device has slots
    cuem::DeviceGuard guard(device);
    pool(device)->set_stream_permutation(perm);
  }

  /// Stream serving a region's slot, on the owning device.
  cuemStream_t stream_of_region(int region) const {
    cuem::DeviceGuard guard(device_of_region(region));
    return region_pool(region).stream_of_slot(slot_of_region(region));
  }

  /// Installs the recorded future region-access order (global ids, one
  /// entry per demand acquire, in order) for the BeladyOracle policy,
  /// splitting it into each device's local sequence; other policies
  /// ignore it.
  void set_future_accesses(std::vector<int> sequence) {
    for (int d = 0; d < num_devices(); ++d) {
      if (!pool(d)) {
        continue;
      }
      std::vector<int> local_seq;
      for (int r : sequence) {
        if (device_of_region(r) == d) {
          local_seq.push_back(schedule_->local_id(r));
        }
      }
      pool(d)->scheduler().set_future(std::move(local_seq));
    }
  }

  /// Last-access location of a region.
  Loc location(int region) const { return loc_.location(region); }

  /// Fills valid cells on the host (hides Base::fill to record that every
  /// region now has authoritative host data).
  template <typename Fn>
  void fill(Fn&& fn) {
    sync_all_pending_host();
    claim_host_buffers("fill");
    Base::fill(std::forward<Fn>(fn));
    assume_host_initialized();
  }

  /// Per-component fill; same host-ownership bookkeeping as fill().
  template <typename Fn>
  void fill_components(Fn&& fn) {
    sync_all_pending_host();
    claim_host_buffers("fill_components");
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
    claim_host_buffer(id, cuem::Role::kWrite, "TileArray::at");
    loc_.set(id, Loc::kHost);
    if (delta_transfers_) {
      dirty_.note_host_write(id, tida::Box{cell, cell});
    }
    return Base::at(cell);
  }

  /// Copies one component's valid cells out into a flat domain-ordered
  /// array (hides Base::copy_out to enforce the access protocol, as at()
  /// does: no region may be device-current — call release_all_to_host or
  /// acquire_on_host first). Waits for any async transfer still touching a
  /// host buffer, such as an eviction's D2H, before reading.
  void copy_out(T* flat, int comp = 0) {
    for (int r = 0; r < this->num_regions(); ++r) {
      TIDACC_CHECK_MSG(loc_.location(r) != Loc::kDevice,
                       "copy_out with region " + std::to_string(r) +
                           " device-current — call release_all_to_host or "
                           "acquire_on_host first (paper §IV-B3)");
    }
    sync_all_pending_host();
    claim_host_buffers("copy_out", cuem::Role::kRead);
    Base::copy_out(flat, comp);
  }

  /// Device-side view of `region` laid out in its slot buffer on the
  /// owning device (valid whether or not the region is currently
  /// resident).
  tida::Region<T> device_region(int region) const {
    tida::Region<T> r = this->region(region);
    r.data = static_cast<T*>(
        region_pool(region).slot_ptr(slot_of_region(region)));
    return r;
  }

  // --- the caching protocol (per-device pools) ---

  /// Ensures region `region` is resident and current on its owning device;
  /// returns its device pointer. The slot comes from the owner's scheduler
  /// (resident slot, else a policy-chosen victim); transfers (and the
  /// eviction of a slot-sharing victim) are queued asynchronously on the
  /// slot's stream.
  T* acquire_on_device(int region) {
    const int dev = device_of_region(region);
    cuem::DeviceGuard guard(dev);
    DevicePool& pl = *pool(dev);
    const int lr = schedule_->local_id(region);
    const int slot = pl.place_region(lr);
    const cuemStream_t stream = pl.stream_of_slot(slot);
    T* dev_ptr = static_cast<T*>(pl.slot_ptr(slot));

    if (pl.cache().resident(slot) == lr) {
      // Cache hit; if the host touched it since, refresh the device copy.
      // With caching disabled (ablation) the data round-trips on every
      // acquire — D2H then H2D, the per-kernel-clause behaviour a runtime
      // without the cache table would exhibit.
      if (disable_caching_ && loc_.location(region) == Loc::kDevice) {
        drain_device(region, dev_ptr, stream);
        loc_.set(region, Loc::kHost);
      }
      if (loc_.location(region) == Loc::kHost) {
        refresh_device(region, dev_ptr, stream);
      }
      loc_.set(region, Loc::kDevice);
      return dev_ptr;
    }

    const bool needs_upload = loc_.location(region) == Loc::kHost;
    claim_slot(pl, slot, region, dev_ptr, stream);
    // No H2D for a region whose host side never produced data (kUninit):
    // there is nothing meaningful to upload. Output arrays of Jacobi-style
    // solvers hit this path and save half the upload traffic.
    if (needs_upload) {
      order_after_pending(region, stream);
      copy_region(dev_ptr, this->region(region).data, region,
                  cuemMemcpyHostToDevice, stream);
    }
    pl.cache().set(slot, lr);
    loc_.set(region, Loc::kDevice);
    return dev_ptr;
  }

  /// Queues the asynchronous H2D bringing `region` into a policy-chosen
  /// slot of its owning device *ahead* of its demand acquire, so the
  /// transfer overlaps the kernels still running on other slots
  /// (out-of-core pipelining). Never blocks the host. The receiving slot
  /// stays pinned — protected from eviction — until a demand acquire
  /// consumes the region. Returns false when nothing was queued: the region
  /// is already resident, caching is disabled, every slot is pinned, or the
  /// static mapping lands on a slot holding another in-flight prefetch
  /// (skipped rather than evicted).
  bool prefetch_to_device(int region) {
    if (disable_caching_) {
      return false;
    }
    const int dev = device_of_region(region);
    cuem::DeviceGuard guard(dev);
    DevicePool& pl = *pool(dev);
    const int lr = schedule_->local_id(region);
    const int slot = pl.place_prefetch(lr);
    if (slot < 0) {
      return false;
    }
    const cuemStream_t stream = pl.stream_of_slot(slot);
    T* dev_ptr = static_cast<T*>(pl.slot_ptr(slot));

    // Like a demand miss, the prefetch upload is a full flat transfer.
    claim_slot(pl, slot, region, dev_ptr, stream);
    if (loc_.location(region) == Loc::kHost) {
      order_after_pending(region, stream);
      copy_region(dev_ptr, this->region(region).data, region,
                  cuemMemcpyHostToDevice, stream, /*prefetch=*/true);
    }
    pl.cache().set(slot, lr);
    loc_.set(region, Loc::kDevice);
    return true;
  }

  /// Ensures the host copy of `region` is current. Blocks until the
  /// transfer completes when one is needed (§IV-B3: the caller may touch
  /// the data right after the request).
  void acquire_on_host(int region) {
    if (loc_.location(region) != Loc::kDevice) {
      // The caller is about to read or write host data; either way the host
      // now holds the authoritative copy. An earlier eviction may have left
      // an async D2H in flight into this buffer — wait for it first.
      sync_pending_host(region);
    } else {
      const int dev = device_of_region(region);
      cuem::DeviceGuard guard(dev);
      DevicePool& pl = *pool(dev);
      const int lr = schedule_->local_id(region);
      const int slot = pl.slot_of_region(lr);
      const cuemStream_t stream = pl.stream_of_slot(slot);
      TIDACC_CHECK_MSG(pl.cache().resident(slot) == lr,
                       "region marked on-device but not resident");
      if (pending_xfer_[static_cast<std::size_t>(region)] >= 0 &&
          pending_xfer_[static_cast<std::size_t>(region)] != stream) {
        // A stale transfer on another stream (the region migrated slots)
        // still references this host buffer; the drain below would race it.
        sync_pending_host(region);
      }
      drain_device(region, static_cast<T*>(pl.slot_ptr(slot)), stream);
      CUEM_CHECK(cuemStreamSynchronize(stream));
      pending_xfer_[static_cast<std::size_t>(region)] = -1;
    }
    claim_host_buffer(region, cuem::Role::kWrite, "acquire_on_host");
    set_host_authoritative(region);
  }

  /// Brings every device-held region home and waits (end-of-run helper).
  /// All downloads are queued first — pipelined across every device's slot
  /// streams, in drain_order() — and each stream is synchronized exactly
  /// once, instead of the one blocking round-trip per region a loop of
  /// acquire_on_host would pay.
  void release_all_to_host() {
    StreamSyncList streams;
    for (const int r : drain_order()) {
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
      const int dev = device_of_region(r);
      cuem::DeviceGuard guard(dev);
      DevicePool& pl = *pool(dev);
      const int lr = schedule_->local_id(r);
      const int slot = pl.slot_of_region(lr);
      TIDACC_CHECK_MSG(pl.cache().resident(slot) == lr,
                       "region marked on-device but not resident");
      const cuemStream_t stream = pl.stream_of_slot(slot);
      drain_device(r, static_cast<T*>(pl.slot_ptr(slot)), stream);
      streams.add(stream);
      set_host_authoritative(r);
    }
    streams.sync_all();
    for (int r = 0; r < this->num_regions(); ++r) {
      pending_xfer_[static_cast<std::size_t>(r)] = -1;
      claim_host_buffer(r, cuem::Role::kWrite, "release_all_to_host");
    }
  }

  // --- ghost exchange (paper §IV-B6, extended across devices) ---

  /// Refreshes all ghost cells. Dispatches by data location: pure host
  /// exchange when everything was last touched on the host; the device
  /// exchange (replay kernels and peer copies) when the data lives on the
  /// devices and every region fits; otherwise the streaming exchange (the
  /// replay kernels for faces between regions resident on one device, the
  /// host path for every face touching an evicted region or crossing
  /// devices) or a drain to the host and a host exchange.
  void fill_boundary(tida::Boundary bc) {
    last_boundary_ = bc;
    if (!loc_.any_on_device()) {
      sync_all_pending_host();
      claim_host_buffers("fill_boundary_host");
      this->fill_boundary_host(bc);
      return;
    }
    if (all_regions_fit()) {
      fill_boundary_device(bc);
      return;
    }
    if (delta_transfers_ && streaming_guard_ != StreamingGuard::kForceDrain) {
      // Mixed/limited-memory with dirty tracking: resident faces stay on
      // the devices, the rest is pipelined region by region through the
      // host (core/streaming_exchange.hpp) — but only when the
      // exchange-level cost model says it beats one pipelined drain.
      const detail::HostHalf half = detail::host_half(*this, bc);
      if (streaming_guard_ == StreamingGuard::kForceStreaming ||
          detail::streaming_cheaper<T>(*this, bc, half)) {
        detail::streaming_exchange(*this, bc, half);
        return;
      }
    }
    // Mixed/limited-memory: drain to host and exchange there.
    release_all_to_host();
    claim_host_buffers("fill_boundary_host");
    this->fill_boundary_host(bc);
  }

  /// Boundary of the last exchange (fill_boundary, fill_boundary_device or
  /// a cluster exchange_begin); empty before the first. compute_k reads it:
  /// after a kNone exchange the out-of-domain ghost cells hold boundary
  /// values its sub-steps must not overwrite.
  std::optional<tida::Boundary> last_boundary() const {
    return last_boundary_;
  }

  /// Number of streaming (delta) ghost exchanges performed so far.
  std::uint64_t streaming_exchanges() const { return streaming_exchanges_; }

  /// Device-side exchange across all devices (exchange_on_devices, every
  /// cross-device face as a peer copy), ordered by events instead of a
  /// barrier: the host never waits. Faces between nodes move only through
  /// ClusterTileArray's exchange.
  void fill_boundary_device(tida::Boundary bc) {
    TIDACC_CHECK_MSG(schedule_->layout().nodes == 1,
                     "a multi-node array's cross-node faces move only "
                     "through ClusterTileArray's exchange");
    last_boundary_ = bc;
    for (int r = 0; r < this->num_regions(); ++r) {
      acquire_on_device(r);
    }
    wait_on(exchange_on_devices(bc, /*peers=*/true,
                                mark_sources(bc, /*peers=*/true)));
  }

  /// Number of device-side ghost replay kernels launched so far (one per
  /// device and device exchange).
  std::uint64_t device_ghost_updates() const { return device_ghost_updates_; }

  /// Number of cross-device ghost transfers issued so far (direct or
  /// host-staged, depending on peer access).
  std::uint64_t peer_ghost_copies() const { return peer_ghost_copies_; }

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

  // --- snapshot (see docs/FUZZING.md) ---

  /// Snapshot of the protocol state: every shard's pool bookkeeping and
  /// which of the layout's descriptor sets on its device are built and
  /// have their peer copies indexed, plus the global location/dirty/
  /// pending/accounting tables. Restore sets the built flags of the
  /// schedule every array on the layout shares. Buffer
  /// *contents* (host and device) live in cuem-registered allocations and
  /// ride in the cuem snapshot; restore requires an array of identical
  /// geometry, placement and options.
  void capture(sim::SnapshotWriter& w) const { w(*this); }
  void restore(sim::SnapshotReader& r) { r(*this); }

  /// The snapshot field list (sim/snapshot.hpp) capture and restore run.
  template <typename Ar>
  void fields(Ar& ar) {
    ar.section("multi_acc_tile_array");
    ar.expect(this->num_regions(),
              "array snapshot has a different region count");
    ar.expect(num_devices(), "array snapshot has a different device count");
    ar.expect(schedule_->layout().placement,
              "array snapshot disagrees on placement");
    ar.expect(disable_caching_, "array snapshot disagrees on disable_caching");
    ar.expect(delta_transfers_, "array snapshot disagrees on delta_transfers");
    ar.expect(streaming_guard_, "array snapshot disagrees on streaming_guard");
    ar.expect(time_block_k_, "array snapshot disagrees on time_block_k");
    ar.expect(compression_, "array snapshot disagrees on compression");
    for (int d = 0; d < num_devices(); ++d) {
      ar.expect(pool(d) ? 1 : 0,
                "array snapshot disagrees on device shard layout");
      if (pool(d)) {
        // A pool's restore looks its streams up on its own device.
        std::optional<cuem::DeviceGuard> guard;
        if constexpr (Ar::kRestoring) {
          guard.emplace(d);
        }
        ar(*pool(d));
      }
      for (ExchangeSchedule::DescriptorSet& set :
           schedule_->device(d).desc) {
        ar(set.built, set.peers_indexed);
      }
    }
    ar(loc_, dirty_, pending_xfer_, evicted_);
    ar.check(pending_xfer_.size() ==
                     static_cast<std::size_t>(this->num_regions()) &&
                 evicted_.size() == pending_xfer_.size(),
             "array snapshot is inconsistent");
    ar(xfer_, device_ghost_updates_, peer_ghost_copies_, streaming_exchanges_);
    int bc = last_boundary_ ? static_cast<int>(*last_boundary_) : -1;
    ar(bc);
    if constexpr (Ar::kRestoring) {
      TIDACC_CHECK_MSG(
          bc >= -1 && bc <= static_cast<int>(tida::Boundary::kPeriodic),
          "array snapshot has an invalid last boundary");
      last_boundary_ = bc < 0 ? std::nullopt
                              : std::optional(static_cast<tida::Boundary>(bc));
    }
  }

 protected:
  template <typename A>
  friend void detail::streaming_exchange(A& a, tida::Boundary bc,
                                         const detail::HostHalf& half);
  template <typename U, typename A>
  friend bool detail::streaming_cheaper(A& a, tida::Boundary bc,
                                        const detail::HostHalf& half);
  friend class AccTileIterator<T>;

  // Protected rather than private: ClusterTileArray extends the exchange
  // across simulated nodes and reuses the pools, location/dirty tracking
  // and copy plumbing wholesale; AccTileArray sets the caching ablation.

  /// Device `d`'s slot pool; null when the device holds no region.
  std::unique_ptr<DevicePool>& pool(int d) {
    return pools_[static_cast<std::size_t>(d)];
  }

  /// Visit rank of every region for the next GPU traversal, as each
  /// device's slot scheduler orders its own regions
  /// (SlotScheduler::visit_ranks): regions on the device first, so shared
  /// slots swap behind the kernels of regions that stay. Empty — the
  /// iterator's base order — while any device holds a prefetch pin.
  std::vector<int> visit_ranks() const {
    std::vector<int> rank(static_cast<std::size_t>(this->num_regions()), 0);
    for (int d = 0; d < num_devices(); ++d) {
      const DevicePool* pl = pools_[static_cast<std::size_t>(d)].get();
      if (pl == nullptr) {
        continue;
      }
      const std::vector<int>& regions = schedule_->regions_of(d);
      std::vector<bool> current(regions.size());
      for (std::size_t i = 0; i < regions.size(); ++i) {
        current[i] = loc_.location(regions[i]) == Loc::kDevice;
      }
      const std::vector<int> local =
          pl->scheduler().visit_ranks(pl->cache(), current);
      if (local.empty()) {
        return {};
      }
      for (std::size_t i = 0; i < regions.size(); ++i) {
        rank[static_cast<std::size_t>(regions[i])] = local[i];
      }
    }
    return rank;
  }

  /// The order release_all_to_host queues regions in: on every device, its
  /// device-current regions fill the positions they hold in id order least
  /// recently used first (CacheTable::last_used). A pass's kernels finish in
  /// the order the pass visits their regions, so the device's FIFO D2H
  /// engine takes each region as its last kernel finishes, and a region
  /// visited last (a cluster's node-boundary regions, the residency-ordered
  /// pass's swapped-in regions) never holds the drains of finished ones
  /// behind it. After a region-major pass this is id order.
  std::vector<int> drain_order() const {
    std::vector<int> order(static_cast<std::size_t>(this->num_regions()));
    for (int r = 0; r < this->num_regions(); ++r) {
      order[static_cast<std::size_t>(r)] = r;
    }
    for (int d = 0; d < num_devices(); ++d) {
      std::vector<int> held;  // ascending: regions_of is in id order
      for (const int r : schedule_->regions_of(d)) {
        if (loc_.location(r) == Loc::kDevice) {
          held.push_back(r);
        }
      }
      std::vector<int> by_use = held;
      const auto used = [&](int r) {
        return region_pool(r).cache().last_used(slot_of_region(r));
      };
      std::stable_sort(by_use.begin(), by_use.end(),
                       [&used](int x, int y) { return used(x) < used(y); });
      for (std::size_t i = 0; i < held.size(); ++i) {
        order[static_cast<std::size_t>(held[i])] = by_use[i];
      }
    }
    return order;
  }

  const DevicePool& pool_of(int device) const {
    TIDACC_CHECK_MSG(device >= 0 && device < num_devices(),
                     "device ordinal out of range");
    const DevicePool* pl = pools_[static_cast<std::size_t>(device)].get();
    TIDACC_CHECK_MSG(pl != nullptr, "device owns no regions");
    return *pl;
  }

  std::size_t checked(int region) const {
    TIDACC_CHECK_MSG(region >= 0 && region < this->num_regions(),
                     "region id out of range");
    return static_cast<std::size_t>(region);
  }

  /// Pool of `region`'s owning device (a device owning a region has one).
  const DevicePool& region_pool(int region) const {
    return *pools_[static_cast<std::size_t>(device_of_region(region))];
  }

  /// True when per-op label strings have a reader: the recorded trace or
  /// the sanitizer's findings. The fuzz hot path turns recording off and
  /// keeps stats-only accounting, so without the sanitizer it skips them.
  static bool labeled() {
    return sim::Platform::instance().trace().recording() ||
           cuem::san::enabled();
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
    CUEM_CHECK(cuem::order_after(stream, pending));
  }

  /// Readies `slot` for a flat load of `region`. Paper's eviction: the
  /// D2H of the region resident there (if any) is queued on the slot's own
  /// stream before the newcomer's H2D — stream order guarantees
  /// correctness with no global synchronization. The D2H is skipped when
  /// the victim's newest data already lives on the host (e.g. it was pulled
  /// back for a host-side ghost exchange): writing the stale device copy
  /// over it would clobber fresher host data. A miss leaves no device copy
  /// to delta against, so the flat upload (or the absent upload of a
  /// kUninit region) re-baselines both sides' dirty bookkeeping. With delta
  /// transfers on, an event recorded behind the eviction marks when the
  /// victim's host buffer is complete (evicted_).
  void claim_slot(DevicePool& pl, int slot, int region, T* dev_ptr,
                  cuemStream_t stream) {
    CacheTable& cache = pl.cache();
    if (cache.resident(slot) != -1) {
      const int victim = schedule_->regions_of(device_of_region(
          region))[static_cast<std::size_t>(cache.resident(slot))];
      if (loc_.location(victim) == Loc::kDevice) {
        drain_device(victim, dev_ptr, stream);
        loc_.set(victim, Loc::kHost);
        // The streaming exchange reads evicted regions' host buffers; this
        // event lets it wait for the eviction alone, not the slot stream's
        // later uploads and kernels.
        const auto v = static_cast<std::size_t>(victim);
        evicted_[v] = delta_transfers_ && pending_xfer_[v] == stream
                          ? sim::Platform::instance().record_event(stream)
                          : -1;
      }
      cache.evict(slot);
    }
    if (delta_transfers_) {
      dirty_.reset(region);
    }
  }

  /// The host claims `region`'s whole host buffer, in `role`.
  void claim_host_buffer(int region, cuem::Role role, const char* op) {
    if (cuem::claims_heard()) {
      cuem::claim(-1, this->region(region).data,
                  sim::ByteBox::span(0, this->region_bytes(region)), role,
                  op);
    }
  }

  /// The host claims every region's whole host buffer, in `role`.
  void claim_host_buffers(const char* op,
                          cuem::Role role = cuem::Role::kWrite) {
    for (int r = 0; r < this->num_regions(); ++r) {
      claim_host_buffer(r, role, op);
    }
  }

  /// Adds to `claims` the exact byte boxes one planned ghost copy touches,
  /// per component: the box it writes in the destination's slot buffer (the
  /// pinned host buffer when `on_host`), then the box it reads in the
  /// source's. Box-precise, so copies into disjoint ghost shells of one
  /// buffer neither race nor serialize.
  void add_ghost_boxes(cuem::Claims& claims, const tida::GhostCopy& c,
                       bool on_host = false) const {
    if (!claims.heard) {
      return;
    }
    const tida::Region<T> src = on_host ? this->region(c.src_region)
                                        : device_region(c.src_region);
    const tida::Region<T> dst = on_host ? this->region(c.dst_region)
                                        : device_region(c.dst_region);
    const tida::Index3 e = c.dst_box.extent();
    for (int comp = 0; comp < this->ncomp(); ++comp) {
      sim::ByteBox box;
      box.width = static_cast<std::size_t>(e.i) * sizeof(T);
      box.height = static_cast<std::size_t>(e.j);
      box.depth = static_cast<std::size_t>(e.k);
      box.row_pitch =
          static_cast<std::size_t>(dst.layout.j_stride) * sizeof(T);
      box.slice_pitch =
          static_cast<std::size_t>(dst.layout.k_stride) * sizeof(T);
      claims.add(&dst.at(c.dst_box.lo, comp), box, cuem::Role::kWrite);
      box.row_pitch =
          static_cast<std::size_t>(src.layout.j_stride) * sizeof(T);
      box.slice_pitch =
          static_cast<std::size_t>(src.layout.k_stride) * sizeof(T);
      claims.add(&src.at(c.src_box.lo, comp), box, cuem::Role::kRead);
    }
  }

  /// Each region's slot stream when it is device-current, else -1.
  std::vector<cuemStream_t> current_streams() const {
    std::vector<cuemStream_t> streams(
        static_cast<std::size_t>(this->num_regions()), -1);
    for (int r = 0; r < this->num_regions(); ++r) {
      if (loc_.location(r) == Loc::kDevice) {
        streams[static_cast<std::size_t>(r)] = stream_of_region(r);
      }
    }
    return streams;
  }

  /// What mark_sources saw, for the exchange it orders.
  struct SourceMarks {
    /// current_streams() at marking time.
    std::vector<cuemStream_t> stream;
    /// Per stream the exchange touches, the event marking the last write
    /// queued there before it, or -1 when the stream was idle.
    std::map<cuemStream_t, sim::EventId> event;

    /// True when the exchange carries the planned copies src → dst of
    /// class `cls` on the devices: both regions device-current, and either
    /// on one device or, when the exchange carries `peers`, on two devices
    /// of one node.
    bool carries(PairClass cls, bool peers, int src, int dst) const {
      return stream[static_cast<std::size_t>(src)] >= 0 &&
             stream[static_cast<std::size_t>(dst)] >= 0 &&
             (cls == PairClass::kLocal || (peers && cls == PairClass::kPeer));
    }

    /// The event marked on `s`.
    sim::EventId on(cuemStream_t s) const {
      const auto it = event.find(s);
      TIDACC_CHECK_MSG(it != event.end(),
                       "device exchange touches a stream mark_sources did "
                       "not mark");
      return it->second;
    }
  };

  /// Marks the sources of exchange_on_devices(bc, peers, ...): one event
  /// on every stream a carried copy reads through, or writes through on the
  /// device, decided per region pair. An exchange that carries `peers`
  /// carries the wire pairs too when the layout spans nodes (the cluster's,
  /// which acquires every region first), off both regions' streams, so
  /// both ends are marked. Call it before queueing anything behind those
  /// streams' last writes (the streaming exchange's pulls, the cluster's
  /// staging copies), so the exchange waits for those writes alone. An
  /// idle stream gets no event: the successful query already ordered its
  /// work before the host's next launch.
  SourceMarks mark_sources(tida::Boundary bc, bool peers) {
    SourceMarks marks{current_streams(), {}};
    std::vector<char> touched(static_cast<std::size_t>(this->num_regions()));
    for (const tida::RegionPair& pair : this->exchange_pairs(bc).pairs) {
      const int src = pair.src_region;
      const int dst = pair.dst_region;
      const PairClass cls = schedule_->class_of(src, dst);
      if (cls == PairClass::kWire ? !peers
                                  : !marks.carries(cls, peers, src, dst)) {
        continue;
      }
      touched[static_cast<std::size_t>(src)] = 1;
      if (cls != PairClass::kPeer) {
        touched[static_cast<std::size_t>(dst)] = 1;
      }
    }
    for (std::size_t r = 0; r < touched.size(); ++r) {
      if (touched[r]) {
        marks.event.emplace(marks.stream[r], -1);
      }
    }
    sim::Platform& p = sim::Platform::instance();
    for (auto& [stream, event] : marks.event) {
      if (cuemStreamQuery(stream) != cuemSuccess) {
        event = p.record_event(stream);
      }
    }
    return marks;
  }

  /// Completion edges of a device exchange: each event, recorded behind
  /// some of its copies, and the streams that must wait on it.
  using CompletionEdges =
      std::vector<std::pair<sim::EventId, std::vector<cuemStream_t>>>;

  /// The device exchange: every planned copy between two device-current
  /// regions of one device, and when it carries `peers` those between two
  /// devices of one node (PairClass; a cluster's wire carries the rest). `sources` (mark_sources) orders it after every
  /// write it reads or overwrites, so no barrier precedes it. Device by
  /// device:
  ///   * The peer copies into the device go first, destination group by
  ///     destination group, on the destination's stream (direct
  ///     interconnect when peer access is enabled, staged through pinned
  ///     host memory otherwise): one wait per distinct source stream.
  ///   * The first exchange on the layout under `bc`, by any of its
  ///     arrays, also builds the device's descriptors: before a group's
  ///     peer copies the host computes the index lists of every copy into
  ///     that destination — work shared by one CPU per node — so copy
  ///     engines start on one group while the host indexes the next
  ///     (Fig. 4). The same-device descriptors then go up with one H2D on
  ///     the device's exchange stream. The peer copies' index lists are
  ///     paid the same way by the first exchange that carries peer copies,
  ///     whichever exchange built the descriptors. Later exchanges pay no
  ///     index work.
  ///   * Then the device's replay kernel (replay_descriptors) runs while
  ///     the host moves on to the next device.
  /// Returns the completion edges: every stream a copy read or wrote
  /// through must wait on the completion event behind that copy before
  /// its next kernel, so later kernels neither read stale ghosts nor
  /// overwrite cells still being read. The caller adds them (wait_on), so
  /// they never hold one group's copies behind another's, and the
  /// streaming exchange queues its ghost pushes on a stream before that
  /// stream's wait.
  [[nodiscard]] CompletionEdges exchange_on_devices(
      tida::Boundary bc, bool peers, const SourceMarks& sources) {
    const tida::PairIndex& index = this->exchange_pairs(bc);
    CompletionEdges edges;
    for (int d = 0; d < num_devices(); ++d) {
      ExchangeSchedule::DescriptorSet& set = schedule_->descriptors(d, bc);
      const bool building = pool(d) && !set.built;
      const bool indexing_peers = peers && pool(d) && !set.peers_indexed;
      // The device's destination groups, in plan order: its regions in id
      // order, each with the pairs writing into it.
      for (const int dst : schedule_->regions_of(d)) {
        const std::span<const tida::RegionPair> group = index.pairs_into(dst);
        if (group.empty()) {
          continue;
        }
        if (building || indexing_peers) {
          std::size_t indexed = 0;
          for (const tida::RegionPair& pair : group) {
            const PairClass cls = schedule_->class_of(pair.src_region, dst);
            const bool counted = cls == PairClass::kLocal
                                     ? building
                                     : indexing_peers &&
                                           cls == PairClass::kPeer;
            indexed += counted ? pair.count() : 0;
          }
          schedule_->pay_index_work(indexed);
        }
        issue_peer_copies(bc, dst, peers, sources, edges);
      }
      if (building) {
        upload_descriptors(d, bc);
      }
      set.peers_indexed = set.peers_indexed || indexing_peers;
      replay_descriptors(d, bc, sources, edges);
    }
    return edges;
  }

  /// Makes every stream of `edges` wait on its completion event.
  static void wait_on(const CompletionEdges& edges) {
    sim::Platform& p = sim::Platform::instance();
    for (const auto& [done, streams] : edges) {
      for (const cuemStream_t s : streams) {
        p.stream_wait_event(s, done);
      }
    }
  }

  /// Device `d`'s region pairs and copies between two of its regions under
  /// `bc`, the copies in descriptor order (laid out on first use on the
  /// layout).
  const ExchangeSchedule::Local& local_copies(int d, tida::Boundary bc) {
    return schedule_->pairs(bc, this->exchange_pairs(bc))
        .local[static_cast<std::size_t>(d)];
  }

  /// One planned copy as its descriptor.
  GhostDescriptor describe(const tida::GhostCopy& c) const {
    GhostDescriptor g;
    g.src_region = c.src_region;
    g.dst_region = c.dst_region;
    g.src_lo = c.src_box.lo - this->region(c.src_region).grown.lo;
    g.dst_lo = c.dst_box.lo - this->region(c.dst_region).grown.lo;
    g.extent = c.dst_box.extent();
    return g;
  }

  /// Stages device `d`'s same-device descriptors for `bc` in pinned memory
  /// and uploads them with one H2D on its exchange stream, which queues
  /// behind no slot stream: it moves unrelated data. Marks them built for
  /// every array on the layout.
  void upload_descriptors(int d, tida::Boundary bc) {
    const DescriptorBuffers& buffers = schedule_->device(d).buffers;
    ExchangeSchedule::DescriptorSet& set = schedule_->descriptors(d, bc);
    set.built = true;
    const std::vector<std::size_t>& local = local_copies(d, bc).copies;
    if (local.empty()) {
      return;
    }
    const auto& plan = this->exchange_plan(bc);
    GhostDescriptor* staged = buffers.host() + set.offset;
    const std::size_t bytes = local.size() * sizeof(GhostDescriptor);
    cuem::claim(-1, staged, sim::ByteBox::span(0, bytes), cuem::Role::kWrite,
                "ghost descriptors");
    if (cuem::functional()) {  // timing-only buffers have no backing memory
      for (std::size_t i = 0; i < local.size(); ++i) {
        staged[i] = describe(plan[local[i]]);
      }
    }
    const cuem::DeviceGuard guard(d);
    CUEM_CHECK(cuem::memcpy_async(
        buffers.device() + set.offset, staged, bytes,
        cuemMemcpyHostToDevice, buffers.stream, cuem::Route::raw(),
        labeled() ? "desc:D" + std::to_string(d) : std::string()));
  }

  /// The carried cross-device copies into region `dst` — one
  /// destination's group — on its stream, in plan order, after one wait
  /// per distinct source stream. Whether a copy is carried is decided once
  /// per region pair. The event recorded behind them joins `edges` for
  /// those sources: the next kernel on a source must not overwrite cells
  /// still being read.
  void issue_peer_copies(tida::Boundary bc, int dst, bool peers,
                         const SourceMarks& sources, CompletionEdges& edges) {
    const auto& plan = this->exchange_plan(bc);
    const tida::PairIndex& index = this->exchange_pairs(bc);
    std::vector<std::size_t> copies;
    std::vector<cuemStream_t> srcs;
    index.append_copies(
        dst,
        [&](std::size_t p) {
          const int src = index.pairs[p].src_region;
          const PairClass cls = schedule_->class_of(src, dst);
          if (cls == PairClass::kLocal ||
              !sources.carries(cls, peers, src, dst)) {
            return false;
          }
          // Pairs come in order of first copy, so the sources do too.
          const cuemStream_t s = sources.stream[static_cast<std::size_t>(src)];
          if (std::find(srcs.begin(), srcs.end(), s) == srcs.end()) {
            srcs.push_back(s);
          }
          return true;
        },
        copies);
    if (copies.empty()) {
      return;
    }
    sim::Platform& p = sim::Platform::instance();
    const cuemStream_t dstream =
        sources.stream[static_cast<std::size_t>(dst)];
    for (const cuemStream_t s : srcs) {
      if (sources.on(s) >= 0) {
        p.stream_wait_event(dstream, sources.on(s));
      }
    }
    for (const std::size_t c : copies) {
      const tida::GhostCopy& gc = plan[c];
      auto action = [this, bc, c]() {
        apply_copy_device(this->exchange_plan(bc)[c]);
      };
      const std::string label =
          labeled() ? "G:R" + std::to_string(gc.src_region) + ">R" +
                          std::to_string(dst)
                    : std::string();
      cuem::Claims claims(label.c_str());
      add_ghost_boxes(claims, gc);
      CUEM_CHECK(cuem::peer_copy_async(
          device_of_region(dst), device_of_region(gc.src_region),
          gc.dst_box.volume() * this->ncomp() * sizeof(T), dstream, label,
          std::move(action), claims));
      note_device_write(dst, gc.dst_box);
      ++peer_ghost_copies_;
    }
    edges.emplace_back(p.record_event(dstream), std::move(srcs));
  }

  /// Device `d`'s replay kernel for `bc`, on its exchange stream: applies
  /// every descriptor whose regions are both device-current, resolving
  /// their slots at launch, and reads the whole descriptor list. It waits
  /// on the source event of every stream its copies touch; the event
  /// recorded behind it joins `edges` for those streams.
  void replay_descriptors(int d, tida::Boundary bc,
                          const SourceMarks& sources,
                          CompletionEdges& edges) {
    if (!pool(d)) {
      return;
    }
    const ExchangeSchedule::Local& local = local_copies(d, bc);
    const tida::PairIndex& index = this->exchange_pairs(bc);
    const auto current = [&sources](int region) {
      return sources.stream[static_cast<std::size_t>(region)] >= 0;
    };
    // The cells it copies and the regions it touches, pair by pair.
    std::uint64_t cells = 0;
    std::vector<char> touched(static_cast<std::size_t>(this->num_regions()));
    for (const std::size_t p : local.pairs) {
      const tida::RegionPair& pair = index.pairs[p];
      if (current(pair.src_region) && current(pair.dst_region)) {
        cells += pair.cells;
        touched[static_cast<std::size_t>(pair.src_region)] = 1;
        touched[static_cast<std::size_t>(pair.dst_region)] = 1;
      }
    }
    if (cells == 0) {
      return;
    }
    // The streams those copies touch, and the launch's region table: each
    // device-current region's slot, null elsewhere.
    std::vector<cuemStream_t> streams;
    std::vector<T*> slot(static_cast<std::size_t>(this->num_regions()),
                         nullptr);
    sim::Platform& p = sim::Platform::instance();
    for (const int r : schedule_->regions_of(d)) {
      const auto ri = static_cast<std::size_t>(r);
      if (touched[ri] && std::find(streams.begin(), streams.end(),
                                   sources.stream[ri]) == streams.end()) {
        streams.push_back(sources.stream[ri]);
      }
      if (p.functional() && current(r)) {
        slot[ri] = device_region(r).data;
      }
    }
    const DescriptorBuffers& buffers = schedule_->device(d).buffers;
    const cuemStream_t xs = buffers.stream;
    for (const cuemStream_t st : streams) {
      if (sources.on(st) >= 0) {
        p.stream_wait_event(xs, sources.on(st));
      }
    }
    const GhostDescriptor* desc =
        buffers.device() + schedule_->descriptors(d, bc).offset;
    const std::size_t count = local.copies.size();
    auto action = [this, slot = std::move(slot), desc, count]() {
      const tida::Index3 last{1, 1, 1};
      for (std::size_t i = 0; i < count; ++i) {
        const GhostDescriptor& g = desc[i];
        T* const src = slot[static_cast<std::size_t>(g.src_region)];
        T* const dst = slot[static_cast<std::size_t>(g.dst_region)];
        if (src == nullptr || dst == nullptr) {
          continue;
        }
        tida::Region<T> sv = this->region(g.src_region);
        tida::Region<T> dv = this->region(g.dst_region);
        sv.data = src;
        dv.data = dst;
        tida::GhostCopy c;
        c.src_box = tida::Box{sv.grown.lo + g.src_lo,
                              sv.grown.lo + g.src_lo + g.extent - last};
        c.dst_box = tida::Box{dv.grown.lo + g.dst_lo,
                              dv.grown.lo + g.dst_lo + g.extent - last};
        tida::copy_ghost_cells(c, sv, dv);
      }
    };
    const std::uint64_t desc_bytes = count * sizeof(GhostDescriptor);
    const std::string op = labeled() ? "ghost:D" + std::to_string(d) : "";
    p.enqueue_kernel(
        xs, ghost_update_profile(cells * this->ncomp(), sizeof(T), desc_bytes),
        p.config().oacc_dispatch_extra_ns, std::move(action), op);
    ++device_ghost_updates_;
    cuem::Claims claims(op.c_str());
    claims.add(desc, sim::ByteBox::span(0, desc_bytes), cuem::Role::kRead);
    // Per copy only for a listener or the dirty tracker.
    if (claims.heard || delta_transfers_) {
      const auto& plan = this->exchange_plan(bc);
      for (const std::size_t c : local.copies) {
        const tida::GhostCopy& gc = plan[c];
        if (current(gc.src_region) && current(gc.dst_region)) {
          add_ghost_boxes(claims, gc);
          note_device_write(gc.dst_region, gc.dst_box);
        }
      }
    }
    cuem::claim(xs, claims);
    edges.emplace_back(p.record_event(xs), std::move(streams));
  }

  /// The raw flat host<->device copy of `bytes` between this array's host
  /// buffers and a slot — as copy_region issues it, for pricing.
  sim::CopyRequest copy_request(std::uint64_t bytes, bool h2d) const {
    sim::CopyRequest req;
    req.kind = h2d ? sim::OpKind::kCopyH2D : sim::OpKind::kCopyD2H;
    req.bytes = bytes;
    req.host_mem = this->host_alloc_kind() == tida::HostAlloc::kPinned
                       ? sim::HostMemKind::kPinned
                       : sim::HostMemKind::kPageable;
    return req;
  }

  /// The pitched copy of one component of `box` between two buffers laid
  /// out as `layout` — a region's host buffer and its slot share that
  /// layout, so both sides get the same pitches. copy_boxes fills in the
  /// pointers and direction; the predictors price the shape as is.
  static cuemMemcpy3DParms box_copy_parms(const tida::CellLayout& layout,
                                          const tida::Box& box) {
    const tida::Index3 e = box.extent();
    cuemMemcpy3DParms parms;
    parms.dst_pitch = parms.src_pitch =
        static_cast<std::size_t>(layout.j_stride) * sizeof(T);
    parms.dst_slice_pitch = parms.src_slice_pitch =
        static_cast<std::size_t>(layout.k_stride) * sizeof(T);
    parms.width = static_cast<std::size_t>(e.i) * sizeof(T);
    parms.height = static_cast<std::size_t>(e.j);
    parms.depth = static_cast<std::size_t>(e.k);
    return parms;
  }

  /// One component's raw pitched copy of `box` for `region`, as copy_boxes
  /// issues it, for pricing.
  sim::CopyRequest box_copy_request(int region, const tida::Box& box,
                                    bool h2d) const {
    const cuemMemcpy3DParms parms =
        box_copy_parms(this->region(region).layout, box);
    sim::CopyRequest req =
        copy_request(parms.width * parms.height * parms.depth, h2d);
    req.kind = h2d ? sim::OpKind::kMemcpy3DH2D : sim::OpKind::kMemcpy3DD2H;
    req.chunks = cuem::memcpy3d_chunks(parms);
    return req;
  }

  /// Raw-vs-compressed decision for one host<->device transfer of `bytes`
  /// logical payload: the cheaper of the two flat copies under
  /// sim::copy_ns. Setup and (for pitched copies) the chunk overhead are
  /// identical on both paths, so a flat pair decides a pitched copy too.
  /// Because the discrete-event schedule is monotone in op durations and
  /// the op *sequence* is mode-independent, picking the per-op minimum
  /// here means kAuto's makespan never exceeds kOff's or kOn's.
  bool compress_transfer(std::uint64_t bytes, bool h2d,
                         sim::PayloadKind payload) const {
    if (compression_ == Compression::kOff || bytes == 0) {
      return false;
    }
    if (compression_ == Compression::kOn) {
      return true;
    }
    const sim::DeviceConfig& cfg = sim::Platform::instance().config();
    const sim::CopyRequest raw = copy_request(bytes, h2d);
    sim::CopyRequest packed = raw;
    packed.kind = h2d ? sim::OpKind::kMemcpyH2DCompressed
                      : sim::OpKind::kMemcpyD2HCompressed;
    packed.wire_bytes = cfg.codec.wire_bytes(bytes, payload);
    return sim::copy_ns(cfg, packed) < sim::copy_ns(cfg, raw);
  }

  /// Accounting of one queued host<->device transfer of `bytes` logical
  /// payload for `region` on `route` — a whole-region copy when `flat`,
  /// else one pitched delta box. Prefetches count apart from demand
  /// uploads. Raw transfers put their full payload on the wire, codec ones
  /// only the codec output at the route's payload ratio. The transfer
  /// touches the region's host buffer until `stream` passes it.
  void note_transfer(int region, cuemStream_t stream, bool h2d, bool flat,
                     std::uint64_t bytes, cuem::Route route) {
    const bool compressed = route.via == cuem::Route::Via::kCodec;
    const std::uint64_t wire =
        compressed ? sim::Platform::instance().config().codec.wire_bytes(
                         bytes, route.payload)
                   : bytes;
    pending_xfer_[static_cast<std::size_t>(region)] = stream;
    if (h2d) {
      xfer_.h2d_bytes += bytes;
      xfer_.h2d_wire_bytes += wire;
      xfer_.comp_h2d_ops += compressed ? 1 : 0;
      ++(route.via == cuem::Route::Via::kPrefetch ? xfer_.prefetch_ops
         : flat                                   ? xfer_.flat_h2d_ops
                                                  : xfer_.delta_h2d_ops);
    } else {
      xfer_.d2h_bytes += bytes;
      xfer_.d2h_wire_bytes += wire;
      xfer_.comp_d2h_ops += compressed ? 1 : 0;
      ++(flat ? xfer_.flat_d2h_ops : xfer_.delta_d2h_ops);
    }
  }

  /// Queues one whole-region transfer on `stream` (owner's device): a
  /// scheduler prefetch when `prefetch` (never compressed), else through
  /// the codec when the policy and cost model say so (whole regions
  /// compress at the interior ratio), else raw.
  void copy_region(T* dst, const T* src, int region, cuemMemcpyKind kind,
                   cuemStream_t stream, bool prefetch = false) {
    const std::size_t bytes = this->region_bytes(region);
    const bool h2d = kind == cuemMemcpyHostToDevice;
    const sim::PayloadKind payload = sim::PayloadKind::kInterior;
    const bool compressed =
        !prefetch && compress_transfer(bytes, h2d, payload);
    const cuem::Route route = prefetch     ? cuem::Route::prefetch()
                              : compressed ? cuem::Route::codec(payload)
                                           : cuem::Route::raw();
    // A raw flat copy stays unlabelled: the trace names it by direction.
    const char* tag = prefetch     ? "P:R"
                      : compressed ? (h2d ? "zH2D:R" : "zD2H:R")
                                   : nullptr;
    CUEM_CHECK(cuem::memcpy_async(
        dst, src, bytes, kind, stream, route,
        tag != nullptr && labeled() ? tag + std::to_string(region)
                                    : std::string()));
    note_transfer(region, stream, h2d, /*flat=*/true, bytes, route);
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

  /// True when shipping `boxes` as pitched sub-box copies (one per box and
  /// component) is priced cheaper than one flat whole-region transfer in
  /// direction `h2d`.
  bool delta_cheaper(int region, const std::vector<tida::Box>& boxes,
                     bool h2d) const {
    const sim::DeviceConfig& cfg = sim::Platform::instance().config();
    const SimTime flat =
        sim::copy_ns(cfg, copy_request(this->region_bytes(region), h2d));
    SimTime delta = 0;
    for (const tida::Box& b : boxes) {
      delta += static_cast<SimTime>(this->ncomp()) *
               sim::copy_ns(cfg, box_copy_request(region, b, h2d));
      if (delta >= flat) {
        return false;
      }
    }
    return true;
  }

  /// Queues one pitched sub-box copy per box per component between the
  /// host buffer and the owner-device slot buffer of `region` (both share
  /// the grown-box geometry, so pitches are identical on both sides). Each
  /// box is priced through the codec independently when the policy allows
  /// it — `payload` names what the boxes carry (face shells of a delta
  /// exchange, ghost refreshes), which sets the modeled compression ratio.
  void copy_boxes(int region, const std::vector<tida::Box>& boxes,
                  cuemMemcpyKind kind, cuemStream_t stream,
                  sim::PayloadKind payload) {
    const tida::Region<T> host = this->region(region);
    const tida::Region<T> dev = device_region(region);
    const bool h2d = kind == cuemMemcpyHostToDevice;
    for (const tida::Box& b : boxes) {
      if (b.empty()) {
        continue;
      }
      const std::uint64_t bytes = b.volume() * sizeof(T);
      for (int comp = 0; comp < this->ncomp(); ++comp) {
        cuemMemcpy3DParms parms = box_copy_parms(host.layout, b);
        parms.dst = h2d ? static_cast<void*>(&dev.at(b.lo, comp))
                        : static_cast<void*>(&host.at(b.lo, comp));
        parms.src = h2d ? static_cast<const void*>(&host.at(b.lo, comp))
                        : static_cast<const void*>(&dev.at(b.lo, comp));
        parms.kind = kind;
        const bool compressed = compress_transfer(bytes, h2d, payload);
        const cuem::Route route =
            compressed ? cuem::Route::codec(payload) : cuem::Route::raw();
        const char* tag = compressed ? (h2d ? "zdH2D:R" : "zdD2H:R")
                                     : (h2d ? "dH2D:R" : "dD2H:R");
        CUEM_CHECK(cuem::memcpy3d_async(
            parms, stream, route,
            labeled() ? tag + std::to_string(region) : std::string()));
        note_transfer(region, stream, h2d, /*flat=*/false, bytes, route);
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

  /// Applies one planned ghost copy between slot buffers (the functional
  /// part of a peer copy or a GPUDirect read; buffers may live on
  /// different devices).
  void apply_copy_device(const tida::GhostCopy& c) {
    tida::copy_ghost_cells(c, device_region(c.src_region),
                           device_region(c.dst_region));
  }

  /// Per device, its slot pool (null when it holds no region).
  std::vector<std::unique_ptr<DevicePool>> pools_;
  /// What the exchange derives from the layout, the placement included,
  /// shared with every array on it (core/exchange_schedule.hpp).
  std::shared_ptr<ExchangeSchedule> schedule_;
  LocationTracker loc_;
  DirtyTracker dirty_;
  /// Per region: stream of the last queued async transfer that reads or
  /// writes the region's *host* buffer, or -1. Host code must synchronize
  /// (sync_pending_host) before touching the buffer.
  std::vector<cuemStream_t> pending_xfer_;
  /// Per region: platform event recorded on the slot stream right behind
  /// the D2H that evicted it (delta transfers only), or -1. While the
  /// region stays off the device with pending_xfer_ set, the event
  /// completes exactly when its host buffer is quiet.
  std::vector<sim::EventId> evicted_;
  TransferAccounting xfer_;
  std::uint64_t device_ghost_updates_ = 0;
  std::uint64_t peer_ghost_copies_ = 0;
  std::uint64_t streaming_exchanges_ = 0;
  std::optional<tida::Boundary> last_boundary_;
  /// Caching ablation (MultiAccOptions::disable_caching): every device
  /// acquire round-trips the region even when it is already resident.
  bool disable_caching_ = false;
  bool delta_transfers_ = false;
  StreamingGuard streaming_guard_ = StreamingGuard::kAuto;
  int time_block_k_ = 1;
  Compression compression_ = Compression::kOff;
};

}  // namespace tidacc::core

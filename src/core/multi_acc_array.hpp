// MultiAccTileArray — the multi-GPU tileArray: regions distributed across
// the platform's simulated devices.
//
// Extends tida::TileArray<T> the same way AccTileArray does, but with one
// DevicePool (+ CacheTable + SlotScheduler) per device: each region has an
// owning device chosen by a placement policy (block or round-robin), demand
// acquires and prefetches run the §IV-B4 caching protocol against the
// owner's pool, and the ghost exchange of §IV-B6 is extended across device
// boundaries: interior faces whose source and destination live on the same
// device use the usual device-side update kernels; faces crossing devices
// travel as peer copies (direct over the interconnect when peer access is
// enabled, staged D2H+H2D through pinned host memory otherwise). Both reuse
// the CPU index-list pipelining — the host computes the copy descriptors
// for region k+1 while device engines work on region k's updates.
//
// With one device this class reproduces AccTileArray's operation sequence
// bit-for-bit (same streams, same transfers, same kernels, same trace) —
// the golden-trace equality test in tests/test_multi_gpu.cpp pins that.
#pragma once

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/inject.hpp"
#include "core/acc_tile_array.hpp"
#include "core/compute.hpp"
#include "core/device_pool.hpp"
#include "core/dirty_tracker.hpp"
#include "cuem/cuem.hpp"
#include "cuem/san.hpp"
#include "oacc/oacc.hpp"
#include "sim/snapshot.hpp"
#include "tida/tile_array.hpp"

namespace tidacc::core {

/// Region→device placement policy.
///   kBlock:      contiguous chunks (region r on device r / ceil(R/N)) —
///                neighbouring regions share a device, so most ghost faces
///                stay device-local (fewest peer copies).
///   kRoundRobin: region r on device r % N — balances any per-region load
///                imbalance at the cost of more cross-device faces.
enum class DevicePlacement : int { kBlock = 0, kRoundRobin = 1 };

const char* to_string(DevicePlacement p);

/// Parses "block" / "round-robin" (also "rr", "roundrobin").
DevicePlacement parse_placement(const std::string& s);

/// Construction options for MultiAccTileArray.
struct MultiAccOptions {
  tida::HostAlloc host_alloc = tida::HostAlloc::kPinned;
  /// Number of devices to distribute over; 0 means every device the
  /// platform exposes. Must not exceed cuemGetDeviceCount.
  int devices = 0;
  DevicePlacement placement = DevicePlacement::kBlock;
  /// Cap on device slots per device (limited-memory experiments).
  int max_slots_per_device = std::numeric_limits<int>::max();
  /// Components per cell.
  int ncomp = 1;
  /// Region→slot scheduling policy within each device's pool.
  SlotPolicyKind slot_policy = SlotPolicyKind::kStaticModulo;
  /// Enables dirty-region tracking and delta transfers, exactly as
  /// AccOptions::delta_transfers does for the single-device array.
  bool delta_transfers = false;
  /// Streaming-vs-drain dispatch for the out-of-core ghost exchange (see
  /// AccOptions::streaming_guard).
  StreamingGuard streaming_guard = StreamingGuard::kAuto;
  /// Temporal blocking depth (see AccOptions::time_block_k): k > 1 gives
  /// every slot on every device a scratch double buffer and deepens the
  /// prefetch hint.
  int time_block_k = 1;
  /// Codec policy for host<->device transfers (see AccOptions::compression).
  Compression compression = Compression::kOff;
};

template <typename T>
class MultiAccTileArray : public tida::TileArray<T> {
 public:
  using Base = tida::TileArray<T>;

  MultiAccTileArray(const tida::Box& domain, const tida::Index3& region_size,
                    int ghost, MultiAccOptions opts = {})
      : Base(domain, region_size, ghost, opts.host_alloc, opts.ncomp),
        loc_(this->num_regions()),
        dirty_(this->num_regions()),
        pending_xfer_(static_cast<std::size_t>(this->num_regions()), -1),
        placement_(opts.placement),
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
    num_devices_ = opts.devices == 0 ? avail : opts.devices;
    TIDACC_CHECK_MSG(num_devices_ >= 1 && num_devices_ <= avail,
                     "device count must be in [1, cuemGetDeviceCount]");
    const int nreg = this->num_regions();
    owner_.resize(static_cast<std::size_t>(nreg));
    local_.resize(static_cast<std::size_t>(nreg));
    shards_.resize(static_cast<std::size_t>(num_devices_));
    const int chunk = (nreg + num_devices_ - 1) / num_devices_;
    for (int r = 0; r < nreg; ++r) {
      const int d = placement_ == DevicePlacement::kBlock
                        ? r / chunk
                        : r % num_devices_;
      owner_[static_cast<std::size_t>(r)] = d;
      local_[static_cast<std::size_t>(r)] =
          static_cast<int>(shard(d).regions.size());
      shard(d).regions.push_back(r);
    }
    const std::size_t slot_bytes =
        this->partition().max_region_volume(ghost) * opts.ncomp * sizeof(T);
    for (int d = 0; d < num_devices_; ++d) {
      if (shard(d).regions.empty()) {
        continue;  // more devices than regions: this device idles
      }
      // The pool sizes itself against the *owning* device's free memory and
      // creates its slot streams there, so construct under its guard.
      cuem::DeviceGuard guard(d);
      shard(d).pool = std::make_unique<DevicePool>(
          slot_bytes, static_cast<int>(shard(d).regions.size()),
          opts.max_slots_per_device, make_slot_policy(opts.slot_policy),
          /*with_scratch=*/opts.time_block_k > 1);
      if (opts.time_block_k > 1) {
        shard(d).pool->scheduler().set_prefetch_depth(opts.time_block_k);
      }
    }
  }

  // --- device topology ---

  /// Devices this array distributes over (not necessarily all used).
  int num_devices() const { return num_devices_; }
  DevicePlacement placement() const { return placement_; }

  /// Owning device of a region.
  int device_of_region(int region) const {
    return owner_[checked(region)];
  }

  /// Region's index within its owning device's pool.
  int local_region(int region) const { return local_[checked(region)]; }

  /// Slot `region` is bound to on its owning device.
  int slot_of_region(int region) const {
    return pool_of(owner_[checked(region)])
        .slot_of_region(local_[static_cast<std::size_t>(region)]);
  }

  /// Global region ids owned by one device, in local order.
  const std::vector<int>& regions_of_device(int device) const {
    TIDACC_CHECK_MSG(device >= 0 && device < num_devices_,
                     "device ordinal out of range");
    return shards_[static_cast<std::size_t>(device)].regions;
  }

  /// True when every device's regions each have their own slot.
  bool all_regions_fit() const {
    for (const DeviceShard& s : shards_) {
      if (s.pool && !s.pool->one_to_one()) {
        return false;
      }
    }
    return true;
  }

  int num_slots(int device) const { return pool_of(device).num_slots(); }
  const CacheTable& cache(int device) const {
    return pool_of(device).cache();
  }
  const SlotScheduler& scheduler(int device) const {
    return pool_of(device).scheduler();
  }

  /// Temporal blocking depth this array was built for (1 = off).
  int time_block_k() const { return time_block_k_; }

  /// Codec policy this array was built with.
  Compression compression() const { return compression_; }

  /// True when slots carry scratch double buffers (time_block_k > 1).
  bool has_scratch() const {
    for (const DeviceShard& s : shards_) {
      if (s.pool) {
        return s.pool->has_scratch();
      }
    }
    return false;
  }

  /// Scratch device pointer backing `region`'s slot on its owning device.
  T* scratch_of_region(int region) {
    const int dev = owner_[checked(region)];
    const DevicePool& pool = pool_of(dev);
    return static_cast<T*>(pool.scratch_ptr(
        pool.slot_of_region(local_[static_cast<std::size_t>(region)])));
  }

  /// Swaps `region`'s slot primary/scratch pointers (see AccTileArray).
  void swap_region_buffers(int region) {
    const int dev = owner_[checked(region)];
    DevicePool& pool = *shard(dev).pool;
    pool.swap_slot_buffers(
        pool.slot_of_region(local_[static_cast<std::size_t>(region)]));
  }

  /// Remaps slot→stream on one device's pool (see
  /// DevicePool::set_stream_permutation). Fuzzing/ablation hook.
  void set_stream_permutation(int device, const std::vector<int>& perm) {
    TIDACC_CHECK_MSG(device >= 0 && device < num_devices_,
                     "device ordinal out of range");
    TIDACC_CHECK_MSG(shards_[static_cast<std::size_t>(device)].pool != nullptr,
                     "device owns no regions");
    cuem::DeviceGuard guard(device);
    shards_[static_cast<std::size_t>(device)].pool->set_stream_permutation(
        perm);
  }

  /// Stream serving a region's slot, on the owning device.
  cuemStream_t stream_of_region(int region) const {
    const int dev = owner_[checked(region)];
    cuem::DeviceGuard guard(dev);
    const DevicePool& pool = pool_of(dev);
    return pool.stream_of_slot(
        pool.slot_of_region(local_[static_cast<std::size_t>(region)]));
  }

  /// Installs the recorded future region-access order (global ids) for the
  /// BeladyOracle policy, splitting it into each device's local sequence.
  void set_future_accesses(std::vector<int> sequence) {
    for (int d = 0; d < num_devices_; ++d) {
      if (!shard(d).pool) {
        continue;
      }
      std::vector<int> local_seq;
      for (int r : sequence) {
        if (owner_[checked(r)] == d) {
          local_seq.push_back(local_[static_cast<std::size_t>(r)]);
        }
      }
      shard(d).pool->scheduler().set_future(std::move(local_seq));
    }
  }

  /// Last-access location of a region.
  Loc location(int region) const { return loc_.location(region); }

  /// Fills valid cells on the host (records host ownership, as
  /// AccTileArray::fill does).
  template <typename Fn>
  void fill(Fn&& fn) {
    sync_all_pending_host();
    note_host_buffers("fill");
    Base::fill(std::forward<Fn>(fn));
    assume_host_initialized();
  }

  template <typename Fn>
  void fill_components(Fn&& fn) {
    sync_all_pending_host();
    note_host_buffers("fill_components");
    Base::fill_components(std::forward<Fn>(fn));
    assume_host_initialized();
  }

  /// Timing-only-mode stand-in for fill().
  void assume_host_initialized() {
    for (int r = 0; r < this->num_regions(); ++r) {
      loc_.set(r, Loc::kHost);
      if (delta_transfers_) {
        dirty_.mark_all_host(r, this->region(r).grown);
      }
    }
  }

  /// Host cell access under the access protocol (see AccTileArray::at).
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

  /// Device-side view of `region` laid out in its slot buffer on the
  /// owning device.
  tida::Region<T> device_region(int region) const {
    const int dev = owner_[checked(region)];
    const DevicePool& pool = pool_of(dev);
    tida::Region<T> r = this->region(region);
    r.data = static_cast<T*>(pool.slot_ptr(
        pool.slot_of_region(local_[static_cast<std::size_t>(region)])));
    return r;
  }

  // --- the caching protocol (per-device pools) ---

  /// AccTileArray::acquire_on_device against the owner's pool: resident →
  /// refresh if the host touched it since; else evict a slot-sharing victim
  /// (its D2H stream-ordered before the newcomer's H2D) and upload.
  T* acquire_on_device(int region) {
    const int dev = owner_[checked(region)];
    cuem::DeviceGuard guard(dev);
    DevicePool& pool = *shard(dev).pool;
    const int lr = local_[static_cast<std::size_t>(region)];
    const int slot = pool.place_region(lr);
    const cuemStream_t stream = pool.stream_of_slot(slot);
    CacheTable& cache = pool.cache();
    T* dev_ptr = static_cast<T*>(pool.slot_ptr(slot));

    if (cache.resident(slot) == lr) {
      if (loc_.location(region) == Loc::kHost) {
        refresh_device(region, dev_ptr, stream);
      }
      loc_.set(region, Loc::kDevice);
      return dev_ptr;
    }

    const bool needs_upload = loc_.location(region) == Loc::kHost;

    if (cache.resident(slot) != -1) {
      const int victim =
          shard(dev).regions[static_cast<std::size_t>(cache.resident(slot))];
      if (loc_.location(victim) == Loc::kDevice) {
        drain_device(victim, dev_ptr, stream);
        loc_.set(victim, Loc::kHost);
      }
      cache.evict(slot);
    }

    // A miss leaves no device copy to delta against: the flat upload (or
    // the absent upload of a kUninit region) re-baselines both sides.
    if (delta_transfers_) {
      dirty_.reset(region);
    }
    if (needs_upload) {
      order_after_pending(region, stream);
      copy_region(dev_ptr, this->region(region).data, region,
                  cuemMemcpyHostToDevice, stream);
    }
    cache.set(slot, lr);
    loc_.set(region, Loc::kDevice);
    return dev_ptr;
  }

  /// AccTileArray::prefetch_to_device against the owner's pool. Returns
  /// false when nothing was queued.
  bool prefetch_to_device(int region) {
    const int dev = owner_[checked(region)];
    cuem::DeviceGuard guard(dev);
    DevicePool& pool = *shard(dev).pool;
    const int lr = local_[static_cast<std::size_t>(region)];
    const int slot = pool.place_prefetch(lr);
    if (slot < 0) {
      return false;
    }
    CacheTable& cache = pool.cache();
    const cuemStream_t stream = pool.stream_of_slot(slot);
    T* dev_ptr = static_cast<T*>(pool.slot_ptr(slot));

    if (cache.resident(slot) != -1) {
      const int victim =
          shard(dev).regions[static_cast<std::size_t>(cache.resident(slot))];
      if (loc_.location(victim) == Loc::kDevice) {
        drain_device(victim, dev_ptr, stream);
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
      CUEM_CHECK(cuem::prefetch_h2d_async(dev_ptr, this->region(region).data,
                                          this->region_bytes(region), stream,
                                          "P:R" + std::to_string(region)));
      pending_xfer_[static_cast<std::size_t>(region)] = stream;
      xfer_.h2d_bytes += this->region_bytes(region);
      xfer_.h2d_wire_bytes += this->region_bytes(region);
      ++xfer_.prefetch_ops;
      ++prefetches_issued_;
    }
    cache.set(slot, lr);
    loc_.set(region, Loc::kDevice);
    return true;
  }

  std::uint64_t prefetches_issued() const { return prefetches_issued_; }

  /// Makes the host copy of `region` current; blocks on the transfer.
  void acquire_on_host(int region) {
    if (loc_.location(region) != Loc::kDevice) {
      // The caller is about to read or write host data; an earlier eviction
      // may have left an async D2H in flight into this buffer — wait first.
      sync_pending_host(region);
      cuem::san::note_host_access(this->region(region).data,
                                  this->region_bytes(region),
                                  /*write=*/true, "acquire_on_host");
      set_host_authoritative(region);
      return;
    }
    const int dev = owner_[checked(region)];
    cuem::DeviceGuard guard(dev);
    DevicePool& pool = *shard(dev).pool;
    const int lr = local_[static_cast<std::size_t>(region)];
    const int slot = pool.slot_of_region(lr);
    const cuemStream_t stream = pool.stream_of_slot(slot);
    TIDACC_CHECK_MSG(pool.cache().resident(slot) == lr,
                     "region marked on-device but not resident");
    if (pending_xfer_[static_cast<std::size_t>(region)] >= 0 &&
        pending_xfer_[static_cast<std::size_t>(region)] != stream) {
      // A stale transfer on another stream (the region migrated slots) still
      // references this host buffer; the drain below would race it.
      sync_pending_host(region);
    }
    drain_device(region, static_cast<T*>(pool.slot_ptr(slot)), stream);
    CUEM_CHECK(cuemStreamSynchronize(stream));
    pending_xfer_[static_cast<std::size_t>(region)] = -1;
    cuem::san::note_host_access(this->region(region).data,
                                this->region_bytes(region),
                                /*write=*/true, "acquire_on_host");
    set_host_authoritative(region);
  }

  /// Brings every device-held region home and waits. All downloads are
  /// queued first — pipelined across every device's slot streams — then
  /// each stream is synchronized exactly once (same batching as
  /// AccTileArray::release_all_to_host, so the 1-device traces stay
  /// identical).
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
      const int dev = owner_[checked(r)];
      cuem::DeviceGuard guard(dev);
      DevicePool& pool = *shard(dev).pool;
      const int lr = local_[static_cast<std::size_t>(r)];
      const int slot = pool.slot_of_region(lr);
      TIDACC_CHECK_MSG(pool.cache().resident(slot) == lr,
                       "region marked on-device but not resident");
      const cuemStream_t stream = pool.stream_of_slot(slot);
      drain_device(r, static_cast<T*>(pool.slot_ptr(slot)), stream);
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

  // --- distributed ghost exchange (paper §IV-B6, extended across devices)

  /// Refreshes all ghost cells, dispatching by data location exactly as
  /// AccTileArray::fill_boundary does.
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
      // The same per-region pipeline as AccTileArray; pulls and pushes run
      // under each region's owning device.
      detail::streaming_exchange(*this, bc);
      return;
    }
    release_all_to_host();
    note_host_buffers("fill_boundary_host");
    this->fill_boundary_host(bc);
  }

  /// Number of streaming (delta) ghost exchanges performed so far.
  std::uint64_t streaming_exchanges() const { return streaming_exchanges_; }

  /// Device-side exchange across all devices: `acc wait`, then per
  /// destination region the CPU computes the index lists while the device
  /// engines apply the previous region's updates. Faces whose source lives
  /// on the same device go into one update kernel on the destination's
  /// stream; faces crossing devices are issued as stream-ordered peer
  /// copies (direct interconnect when peer access is enabled, staged
  /// through pinned host memory otherwise).
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
      const int dst_dev = owner_[static_cast<std::size_t>(dst)];
      std::size_t end = begin;
      std::uint64_t local_cells = 0;
      while (end < plan.size() && plan[end].dst_region == dst) {
        if (owner_[static_cast<std::size_t>(plan[end].src_region)] ==
            dst_dev) {
          local_cells += plan[end].dst_box.volume();
        }
        ++end;
      }

      // CPU index computation covers the whole group — intra-device and
      // peer faces alike ride the same pipelined descriptors (Fig. 4).
      p.host_advance(static_cast<SimTime>(end - begin) *
                     p.config().host_index_calc_ns_per_copy);

      const cuemStream_t dstream = stream_of_region(dst);

      if (local_cells > 0) {
        sim::KernelProfile prof;
        prof.elements = local_cells * this->ncomp();
        prof.dev_bytes_per_element = 2.0 * sizeof(T);
        prof.flops_per_element = 0.0;
        prof.tuned_geometry = false;  // OpenACC-generated update kernel

        auto action = [this, bc, dst_dev, begin, end]() {
          const auto& pl = this->exchange_plan(bc);
          for (std::size_t c = begin; c < end; ++c) {
            if (owner_[static_cast<std::size_t>(pl[c].src_region)] ==
                dst_dev) {
              apply_copy_device(pl[c]);
            }
          }
        };
        p.enqueue_kernel(dstream, prof, p.config().oacc_dispatch_extra_ns,
                         std::move(action), "ghost:R" + std::to_string(dst));
        ++device_ghost_updates_;
      }

      for (std::size_t c = begin; c < end; ++c) {
        const tida::GhostCopy& gc = plan[c];
        const int src_dev = owner_[static_cast<std::size_t>(gc.src_region)];
        if (src_dev == dst_dev) {
          continue;
        }
        const std::uint64_t bytes =
            gc.dst_box.volume() * this->ncomp() * sizeof(T);
        auto action = [this, bc, c]() {
          apply_copy_device(this->exchange_plan(bc)[c]);
        };
        CUEM_CHECK(cuem::peer_copy_async(
            dst_dev, src_dev, bytes, dstream,
            "G:R" + std::to_string(gc.src_region) + ">R" +
                std::to_string(dst),
            std::move(action)));
        ++peer_ghost_copies_;
      }
      if (cuem::san::enabled()) {
        const std::string op = "ghost:R" + std::to_string(dst);
        for (std::size_t c = begin; c < end; ++c) {
          note_ghost_copy_access(dstream, plan[c], op.c_str());
        }
      }
      for (std::size_t c = begin; c < end; ++c) {
        note_device_write(dst, plan[c].dst_box);
      }
      // Stream order protects the *destination*; the sources sit on other
      // streams (possibly other devices). Record an event after this
      // group's update kernel and peer copies and make each source stream
      // wait, so later kernels there cannot overwrite cells still being
      // read (mirrors AccTileArray::fill_boundary_device exactly).
      std::vector<cuemStream_t> src_streams;
      for (std::size_t c = begin; c < end; ++c) {
        const cuemStream_t s = stream_of_region(plan[c].src_region);
        if (s != dstream &&
            std::find(src_streams.begin(), src_streams.end(), s) ==
                src_streams.end()) {
          src_streams.push_back(s);
        }
      }
      if (!src_streams.empty()) {
        cuemEvent_t ev = 0;
        CUEM_CHECK(cuemEventCreate(&ev));
        CUEM_CHECK(cuemEventRecord(ev, dstream));
        for (const cuemStream_t s : src_streams) {
          CUEM_CHECK(cuemStreamWaitEvent(s, ev, 0));
        }
        CUEM_CHECK(cuemEventDestroy(ev));
      }
      begin = end;
    }
  }

  std::uint64_t device_ghost_updates() const { return device_ghost_updates_; }

  /// Number of cross-device ghost transfers issued so far (direct or
  /// host-staged, depending on peer access).
  std::uint64_t peer_ghost_copies() const { return peer_ghost_copies_; }

  // --- dirty tracking / delta transfers (see AccTileArray) ---

  bool delta_transfers() const { return delta_transfers_; }
  const DirtyTracker& dirty() const { return dirty_; }
  const TransferAccounting& transfers() const { return xfer_; }
  std::uint64_t h2d_bytes() const { return xfer_.h2d_bytes; }
  std::uint64_t d2h_bytes() const { return xfer_.d2h_bytes; }

  /// Records that a device kernel wrote `box` of `region`; no-op unless
  /// delta transfers are on.
  void note_device_write(int region, const tida::Box& box) {
    if (delta_transfers_) {
      dirty_.note_device_write(region, box);
    }
  }

  /// Records a host-side write into `box` of `region`.
  void note_host_write(int region, const tida::Box& box) {
    if (delta_transfers_) {
      dirty_.note_host_write(region, box);
    }
  }

  // --- snapshot (see docs/FUZZING.md) ---

  /// Snapshot of the distributed protocol state: every shard's pool
  /// bookkeeping plus the global location/dirty/pending/accounting tables.
  /// Buffer contents ride in the cuem snapshot; restore requires an array
  /// of identical geometry, placement and options — the multi-device
  /// mirror of AccTileArray::capture, so the schedule fuzzer can explore
  /// multi-device schedules from one warm snapshot.
  void capture(sim::SnapshotWriter& w) const {
    w.section("multi_acc_tile_array");
    w.put_int(this->num_regions());
    w.put_int(num_devices_);
    w.put_int(static_cast<int>(placement_));
    w.put_bool(delta_transfers_);
    w.put_int(static_cast<int>(streaming_guard_));
    w.put_int(time_block_k_);
    w.put_int(static_cast<int>(compression_));
    for (int d = 0; d < num_devices_; ++d) {
      const DeviceShard& s = shards_[static_cast<std::size_t>(d)];
      w.put_int(s.pool ? 1 : 0);
      if (s.pool) {
        s.pool->capture(w);
      }
    }
    loc_.capture(w);
    dirty_.capture(w);
    w.put_int_vec(pending_xfer_);
    xfer_.capture(w);
    w.put_u64(device_ghost_updates_);
    w.put_u64(peer_ghost_copies_);
    w.put_u64(prefetches_issued_);
    w.put_u64(streaming_exchanges_);
  }

  void restore(sim::SnapshotReader& r) {
    r.section("multi_acc_tile_array");
    TIDACC_CHECK_MSG(r.get_int() == this->num_regions(),
                     "array snapshot has a different region count");
    TIDACC_CHECK_MSG(r.get_int() == num_devices_,
                     "array snapshot has a different device count");
    TIDACC_CHECK_MSG(static_cast<DevicePlacement>(r.get_int()) == placement_,
                     "array snapshot disagrees on placement");
    TIDACC_CHECK_MSG(r.get_bool() == delta_transfers_,
                     "array snapshot disagrees on delta_transfers");
    TIDACC_CHECK_MSG(static_cast<StreamingGuard>(r.get_int()) ==
                         streaming_guard_,
                     "array snapshot disagrees on streaming_guard");
    TIDACC_CHECK_MSG(r.get_int() == time_block_k_,
                     "array snapshot disagrees on time_block_k");
    TIDACC_CHECK_MSG(static_cast<Compression>(r.get_int()) == compression_,
                     "array snapshot disagrees on compression");
    for (int d = 0; d < num_devices_; ++d) {
      DeviceShard& s = shards_[static_cast<std::size_t>(d)];
      TIDACC_CHECK_MSG((r.get_int() != 0) == (s.pool != nullptr),
                       "array snapshot disagrees on device shard layout");
      if (s.pool) {
        cuem::DeviceGuard guard(d);
        s.pool->restore(r);
      }
    }
    loc_.restore(r);
    dirty_.restore(r);
    pending_xfer_ = r.get_int_vec();
    TIDACC_CHECK_MSG(pending_xfer_.size() ==
                         static_cast<std::size_t>(this->num_regions()),
                     "array snapshot is inconsistent");
    xfer_.restore(r);
    device_ghost_updates_ = r.get_u64();
    peer_ghost_copies_ = r.get_u64();
    prefetches_issued_ = r.get_u64();
    streaming_exchanges_ = r.get_u64();
  }

 protected:
  template <typename A>
  friend void detail::streaming_exchange(A& a, tida::Boundary bc);

  // Protected rather than private: ClusterTileArray extends the exchange
  // across simulated nodes and reuses the pools, location/dirty tracking
  // and copy plumbing wholesale.
  struct DeviceShard {
    std::unique_ptr<DevicePool> pool;
    std::vector<int> regions;  ///< global region ids, in local order
  };

  DeviceShard& shard(int d) {
    return shards_[static_cast<std::size_t>(d)];
  }

  const DevicePool& pool_of(int device) const {
    TIDACC_CHECK_MSG(device >= 0 && device < num_devices_,
                     "device ordinal out of range");
    const DeviceShard& s = shards_[static_cast<std::size_t>(device)];
    TIDACC_CHECK_MSG(s.pool != nullptr, "device owns no regions");
    return *s.pool;
  }

  std::size_t checked(int region) const {
    TIDACC_CHECK_MSG(region >= 0 && region < this->num_regions(),
                     "region id out of range");
    return static_cast<std::size_t>(region);
  }

  /// Waits for the last async transfer still touching `region`'s host
  /// buffer, if any (see AccTileArray::sync_pending_host — a successful
  /// query costs nothing; only an in-flight transfer pays a synchronize).
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
      // races the in-flight eviction D2H (fuzzer/sanitizer regression bait,
      // same defect class as the single-device array's).
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
  /// touches in the source and destination slot buffers, per component
  /// (see AccTileArray::note_ghost_copy_access).
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

  /// Raw-vs-compressed decision for one host<->device transfer (see
  /// AccTileArray::compress_transfer — identical model, so single-device
  /// programs make identical choices through either class).
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

  /// Wire-byte accounting shared by every transfer path (see AccTileArray).
  void note_wire(bool h2d, std::uint64_t wire_bytes) {
    if (h2d) {
      xfer_.h2d_wire_bytes += wire_bytes;
    } else {
      xfer_.d2h_wire_bytes += wire_bytes;
    }
  }

  /// Queues one whole-region transfer on `stream` (owner's device),
  /// through the codec when the policy and cost model say so.
  void copy_region(T* dst, const T* src, int region, cuemMemcpyKind kind,
                   cuemStream_t stream) {
    const std::size_t bytes = this->region_bytes(region);
    const bool h2d = kind == cuemMemcpyHostToDevice;
    if (compress_transfer(bytes, h2d, sim::PayloadKind::kInterior)) {
      CUEM_CHECK(cuem::compressed_memcpy_async(
          dst, src, bytes, kind, stream, sim::PayloadKind::kInterior,
          (h2d ? "zH2D:R" : "zD2H:R") + std::to_string(region)));
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

  /// Protocol bookkeeping of handing a region to host code (see
  /// AccTileArray::set_host_authoritative).
  void set_host_authoritative(int region) {
    loc_.set(region, Loc::kHost);
    if (delta_transfers_) {
      dirty_.mark_all_host(region, this->region(region).grown);
    }
  }

  /// True when shipping `boxes` as pitched sub-box copies is modeled
  /// cheaper than one flat whole-region transfer in direction `h2d`.
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
  /// host buffer and the owner-device slot buffer of `region`. `payload`
  /// names what the boxes carry, which sets the modeled compression ratio
  /// (see AccTileArray::copy_boxes).
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
              (h2d ? "zdH2D:R" : "zdD2H:R") + std::to_string(region)));
          note_wire(h2d, sim::Platform::instance().config().codec.wire_bytes(
                             bytes, payload));
          if (h2d) {
            ++xfer_.comp_h2d_ops;
          } else {
            ++xfer_.comp_d2h_ops;
          }
        } else {
          CUEM_CHECK(cuem::memcpy3d_async(parms, stream,
                                          (h2d ? "dH2D:R" : "dD2H:R") +
                                              std::to_string(region)));
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

  /// Brings the host copy of a device-current region up to date (see
  /// AccTileArray::drain_device). Queues only.
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

  /// Brings the device copy of a resident region up to date with the host
  /// (see AccTileArray::refresh_device).
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
  /// part of an update kernel or a peer copy; buffers may live on
  /// different devices).
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

  std::vector<DeviceShard> shards_;
  std::vector<int> owner_;
  std::vector<int> local_;
  LocationTracker loc_;
  DirtyTracker dirty_;
  /// Per region: stream of the last queued async transfer that reads or
  /// writes the region's *host* buffer, or -1 (see AccTileArray).
  std::vector<cuemStream_t> pending_xfer_;
  TransferAccounting xfer_;
  DevicePlacement placement_;
  int num_devices_ = 1;
  std::uint64_t device_ghost_updates_ = 0;
  std::uint64_t peer_ghost_copies_ = 0;
  std::uint64_t prefetches_issued_ = 0;
  std::uint64_t streaming_exchanges_ = 0;
  bool delta_transfers_ = false;
  StreamingGuard streaming_guard_ = StreamingGuard::kAuto;
  int time_block_k_ = 1;
  Compression compression_ = Compression::kOff;
};

// --- whole-region compute on the owning device ---

/// Launches `body` over `region`'s valid box on the region's owning device
/// (the multi-GPU analogue of compute() over a whole-region tile: same
/// staging, stream choice, profile and label, so a 1-device program traces
/// identically to the AccTileArray path).
template <typename T, typename Fn>
void compute_gpu(MultiAccTileArray<T>& a, int region,
                 const oacc::LoopCost& cost, Fn&& body) {
  sim::Platform& p = sim::Platform::instance();
  const tida::Region<T> reg = a.region(region);
  const DeviceView<T> view{a.acquire_on_device(region), reg.grown,
                           reg.ncomp};
  const cuemStream_t kstream = a.stream_of_region(region);

  sim::KernelProfile prof;
  prof.elements = reg.valid.volume();
  prof.flops_per_element = cost.flops_per_iter;
  prof.dev_bytes_per_element = cost.dev_bytes_per_iter;
  prof.math_units_per_element = cost.math_units_per_iter;
  prof.math = cost.math;
  prof.tuned_geometry = false;  // kernels are OpenACC-generated (§IV-B5)
  prof.efficiency_factor = cost.efficiency_factor;

  auto action = [range = reg.valid, view, body = std::forward<Fn>(body)]() {
    for (int k = range.lo.k; k <= range.hi.k; ++k) {
      for (int j = range.lo.j; j <= range.hi.j; ++j) {
        for (int i = range.lo.i; i <= range.hi.i; ++i) {
          body(view, i, j, k);
        }
      }
    }
  };
  p.enqueue_kernel(kstream, prof, p.config().oacc_dispatch_extra_ns,
                   std::move(action), "C:R" + std::to_string(region));
  a.note_device_write(region, reg.valid);
  if (cuem::san::enabled()) {
    const std::string op = "C:R" + std::to_string(region);
    cuem::san::note_kernel_access(
        kstream, view.data,
        static_cast<std::size_t>(reg.grown.volume()) *
            static_cast<std::size_t>(reg.ncomp) * sizeof(T),
        /*write=*/true, op.c_str());
  }
  // Schedule-lint attribution (sanitizer-independent whole-buffer claim).
  p.graph_note_stream_access(kstream, view.data,
                             static_cast<std::size_t>(reg.grown.volume()) *
                                 static_cast<std::size_t>(reg.ncomp) *
                                 sizeof(T),
                             /*write=*/true);
}

/// Two-array variant (Jacobi-style in/out). Both arrays must place the
/// region on the same device; when the slot streams differ the kernel
/// stream waits on the output's staging (event ordering, as compute()
/// does for multi-tile calls).
template <typename T, typename Fn>
void compute_gpu(MultiAccTileArray<T>& in, MultiAccTileArray<T>& out,
                 int region, const oacc::LoopCost& cost, Fn&& body) {
  TIDACC_CHECK_MSG(in.partition() == out.partition(),
                   "in/out arrays must share the partition geometry");
  TIDACC_CHECK_MSG(in.device_of_region(region) ==
                       out.device_of_region(region),
                   "in/out region must live on the same device");
  sim::Platform& p = sim::Platform::instance();
  const tida::Region<T> rin = in.region(region);
  const tida::Region<T> rout = out.region(region);
  const DeviceView<T> vin{in.acquire_on_device(region), rin.grown,
                          rin.ncomp};
  const DeviceView<T> vout{out.acquire_on_device(region), rout.grown,
                           rout.ncomp};
  const cuemStream_t kstream = in.stream_of_region(region);
  const cuemStream_t ostream = out.stream_of_region(region);
  if (ostream != kstream) {
    cuemEvent_t ev = 0;
    CUEM_CHECK(cuemEventCreate(&ev));
    CUEM_CHECK(cuemEventRecord(ev, ostream));
    CUEM_CHECK(cuemStreamWaitEvent(kstream, ev, 0));
    CUEM_CHECK(cuemEventDestroy(ev));
  }

  sim::KernelProfile prof;
  prof.elements = rin.valid.volume();
  prof.flops_per_element = cost.flops_per_iter;
  prof.dev_bytes_per_element = cost.dev_bytes_per_iter;
  prof.math_units_per_element = cost.math_units_per_iter;
  prof.math = cost.math;
  prof.tuned_geometry = false;
  prof.efficiency_factor = cost.efficiency_factor;

  auto action = [range = rin.valid, vin, vout,
                 body = std::forward<Fn>(body)]() {
    for (int k = range.lo.k; k <= range.hi.k; ++k) {
      for (int j = range.lo.j; j <= range.hi.j; ++j) {
        for (int i = range.lo.i; i <= range.hi.i; ++i) {
          body(vin, vout, i, j, k);
        }
      }
    }
  };
  p.enqueue_kernel(kstream, prof, p.config().oacc_dispatch_extra_ns,
                   std::move(action), "C:R" + std::to_string(region));
  in.note_device_write(region, rin.valid);
  out.note_device_write(region, rout.valid);
  if (cuem::san::enabled()) {
    const std::string op = "C:R" + std::to_string(region);
    cuem::san::note_kernel_access(
        kstream, vin.data,
        static_cast<std::size_t>(rin.grown.volume()) *
            static_cast<std::size_t>(rin.ncomp) * sizeof(T),
        /*write=*/true, op.c_str());
    cuem::san::note_kernel_access(
        kstream, vout.data,
        static_cast<std::size_t>(rout.grown.volume()) *
            static_cast<std::size_t>(rout.ncomp) * sizeof(T),
        /*write=*/true, op.c_str());
  }
  // Schedule-lint attribution (sanitizer-independent): input is read-only,
  // output is written — the roles the event edges above/below protect.
  p.graph_note_stream_access(kstream, vin.data,
                             static_cast<std::size_t>(rin.grown.volume()) *
                                 static_cast<std::size_t>(rin.ncomp) *
                                 sizeof(T),
                             /*write=*/false);
  p.graph_note_stream_access(kstream, vout.data,
                             static_cast<std::size_t>(rout.grown.volume()) *
                                 static_cast<std::size_t>(rout.ncomp) *
                                 sizeof(T),
                             /*write=*/true);
  // Close the cross-stream edge: the kernel writes the output array's slot,
  // so later work on the output's stream must wait for this launch.
  if (ostream != kstream) {
    cuemEvent_t ev = 0;
    CUEM_CHECK(cuemEventCreate(&ev));
    CUEM_CHECK(cuemEventRecord(ev, kstream));
    CUEM_CHECK(cuemStreamWaitEvent(ostream, ev, 0));
    CUEM_CHECK(cuemEventDestroy(ev));
  }
}

}  // namespace tidacc::core

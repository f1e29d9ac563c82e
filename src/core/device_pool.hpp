// Device memory slot pool (paper §IV-B1/2): discovers how many uniform
// region buffers fit in free device memory (cuemMemGetInfo), allocates that
// many with cuemMalloc, and assigns one stream per slot through the OpenACC
// queue interop (acc_get_cuda_stream analogue), exactly as TileAcc does.
//
// The region→slot mapping is delegated to a SlotScheduler: the default
// StaticModulo policy reproduces the paper's region_id % num_slots rule
// bit-for-bit (one-to-one when everything fits, shared otherwise —
// out-of-core execution); Lru/BeladyOracle place regions dynamically.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "core/cache_table.hpp"
#include "core/slot_policy.hpp"
#include "cuem/cuem.hpp"

namespace tidacc::core {

/// Streams collected in first-use order, deduplicated. Batched drains sync
/// through this instead of a std::set: with FIFO copy engines the stream
/// whose transfer was queued last also finishes last, so syncing in issue
/// order lets every sync but the final one return while later transfers are
/// still in flight. Handle-order iteration would instead trail the batch
/// with one idle-stream sync round-trip for every stream that happens to
/// sort after the last finisher — a cost that depends on which slots the
/// scheduler picked rather than on the work done.
class StreamSyncList {
 public:
  void add(cuemStream_t s) {
    if (std::find(streams_.begin(), streams_.end(), s) == streams_.end()) {
      streams_.push_back(s);
    }
  }

  void sync_all() const {
    for (const cuemStream_t s : streams_) {
      CUEM_CHECK(cuemStreamSynchronize(s));
    }
  }

 private:
  std::vector<cuemStream_t> streams_;
};

class DevicePool {
 public:
  /// Allocates up to min(num_regions, fits-in-free-memory, max_slots) slots
  /// of `slot_bytes` each. Throws if not even one slot fits (the
  /// application cannot run on this device at all). A null `policy` means
  /// the paper's StaticModulo mapping. With `with_scratch` every slot gets a
  /// same-sized scratch buffer (temporal blocking's in-slot double buffer),
  /// so capacity discovery charges two buffers per slot.
  DevicePool(std::size_t slot_bytes, int num_regions, int max_slots,
             std::unique_ptr<SlotPolicy> policy = nullptr,
             bool with_scratch = false);
  ~DevicePool();

  DevicePool(const DevicePool&) = delete;
  DevicePool& operator=(const DevicePool&) = delete;

  int num_slots() const { return static_cast<int>(slots_.size()); }
  int num_regions() const { return num_regions_; }
  std::size_t slot_bytes() const { return slot_bytes_; }

  /// True when every region has its own slot (no sharing/eviction needed).
  bool one_to_one() const { return num_slots() == num_regions_; }

  /// Device base pointer of a slot.
  void* slot_ptr(int slot) const;

  /// Current region→slot binding (the slot a demand acquire would use
  /// right now). Under the default StaticModulo policy this is always the
  /// paper's region % num_slots mapping.
  int slot_of_region(int region) const;

  /// Resolves the slot for a demand acquire of `region` through the
  /// scheduler, recording the access (LRU stamps / oracle clock) and
  /// consuming a pending prefetch pin.
  int place_region(int region);

  /// Resolves and pins the slot for an asynchronous prefetch of `region`;
  /// -1 means the prefetch must be skipped (see SlotScheduler).
  int place_prefetch(int region);

  /// Stream serving a slot (shared process-wide per slot index via the
  /// OpenACC queue map, so sibling arrays pipeline on the same streams).
  /// Subject to the stream permutation installed below (identity default).
  cuemStream_t stream_of_slot(int slot) const;

  /// True when slots carry a scratch double buffer.
  bool has_scratch() const { return !scratch_.empty(); }

  /// Device base pointer of a slot's scratch buffer (temporal blocking's
  /// write target for odd sub-steps). Requires has_scratch().
  void* scratch_ptr(int slot) const;

  /// Swaps a slot's primary and scratch pointers — after a sub-step wrote
  /// the scratch buffer, the swap makes slot_ptr() point at the newest
  /// data without any device-side copy. Requires has_scratch().
  void swap_slot_buffers(int slot);

  /// Remaps slot→stream: slot s is served by queue perm[s] from now on.
  /// `perm` must be a bijection over [0, num_slots). Safe at any point:
  /// for every remapped slot an event recorded on the old stream is waited
  /// on by the new stream, so queued work keeps its ordering. The schedule
  /// fuzzer uses this to explore stream assignments directly.
  void set_stream_permutation(const std::vector<int>& perm);

  CacheTable& cache() { return cache_; }
  const CacheTable& cache() const { return cache_; }

  SlotScheduler& scheduler() { return sched_; }
  const SlotScheduler& scheduler() const { return sched_; }

  /// Snapshot field list (sim/snapshot.hpp): the pool geometry, each
  /// slot's scratch parity and stream, the cache table and the scheduler.
  /// Slot buffers and streams are owned by the cuem/oacc layers (their
  /// snapshots carry the contents); restore verifies the pool geometry
  /// matches and reinstates the bookkeeping.
  template <typename Ar>
  void fields(Ar& ar);

 private:
  std::size_t slot_bytes_;
  int num_regions_;
  std::vector<void*> slots_;
  std::vector<void*> scratch_;  ///< empty unless constructed with_scratch
  /// Whether a slot's primary/scratch pointers are currently swapped
  /// relative to construction (parity restored by snapshots).
  std::vector<char> swapped_;
  std::vector<cuemStream_t> streams_;
  std::vector<int> perm_;  ///< slot→oacc queue (identity default)
  CacheTable cache_;
  SlotScheduler sched_;
  std::uint64_t generation_;  ///< platform generation of slots and streams
};

}  // namespace tidacc::core

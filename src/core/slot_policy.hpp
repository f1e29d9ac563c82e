// Pluggable region→slot scheduling for out-of-core execution.
//
// The paper (§IV-B4) maps regions to device slots with a fixed
// region_id % num_slots rule. That is a direct-mapped cache: correct and
// zero-overhead, but it conflicts whenever the working set is not
// contiguous, and every kernel in the memory-limited regime waits for its
// own demand H2D. This header generalizes the mapping into a policy:
//
//   * StaticModulo — the paper-faithful baseline (stays the default; its
//     decisions and traces are bit-for-bit identical to the seed).
//   * Lru          — fully-associative placement evicting the
//     least-recently-used resident region (access stamps kept by the
//     CacheTable).
//   * BeladyOracle — offline-optimal eviction (MIN): given the recorded
//     region-access sequence, evicts the resident region whose next use is
//     farthest in the future. An upper bound for the benches, not a
//     practical online policy.
//
// The SlotScheduler owns the policy, the visit order of GPU traversals and
// the prefetch pin set. The order ranks the regions already on the device
// first, those holding a slot another region is waiting for ahead of the
// rest, so each shared slot swaps once per sweep, behind the kernels of the
// regions that stay. A slot
// receiving an asynchronous H2D prefetch is pinned until the region is
// consumed by a demand acquire, so no later placement can evict data that
// is still in flight. Prefetches additionally never evict the most
// recently demanded region: its kernel is the one running right now, and
// queueing an eviction behind it would serialize the prefetch chain with
// the very computation it is supposed to hide (visible as a stretched
// step barrier under BeladyOracle, whose farthest-next-use victim in a
// cyclic sweep is exactly the region just launched).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cache_table.hpp"

namespace tidacc::sim {
class SnapshotReader;
class SnapshotWriter;
}  // namespace tidacc::sim

namespace tidacc::core {

enum class SlotPolicyKind : int { kStaticModulo = 0, kLru, kBeladyOracle };

const char* to_string(SlotPolicyKind k);

/// Parses "static" / "lru" / "belady" (bench --policy= flags). Throws on
/// anything else.
SlotPolicyKind parse_slot_policy(const std::string& name);

/// Eviction/placement policy. choose_slot() is only consulted on a miss
/// (the region is not resident); residency lookups are the scheduler's job.
class SlotPolicy {
 public:
  virtual ~SlotPolicy() = default;

  virtual SlotPolicyKind kind() const = 0;

  /// Slot that shall receive `region`. `pinned[slot]` marks slots whose
  /// contents are in flight (prefetch) and must not be chosen; the caller
  /// guarantees at least one unpinned slot unless the policy is static.
  virtual int choose_slot(int region, const CacheTable& cache,
                          const std::vector<bool>& pinned) = 0;

  /// Observes a demand access of `region` resolved to `slot` (hit or just
  /// placed). Default: nothing to learn.
  virtual void on_access(int region, int slot);

  /// Installs the recorded future region-access sequence (BeladyOracle
  /// input; other policies ignore it).
  virtual void set_future(std::vector<int> sequence);

  /// True when placement depends on runtime state (i.e. not StaticModulo).
  virtual bool dynamic() const { return true; }

  /// Snapshot field list of policy-internal state (sim/snapshot.hpp), one
  /// overload per direction since the policy is virtual. StaticModulo and
  /// Lru are stateless (recency lives in the CacheTable) — the defaults
  /// list nothing; BeladyOracle lists its recorded sequence and cursor.
  virtual void fields(sim::SnapshotWriter& w);
  virtual void fields(sim::SnapshotReader& r);
};

std::unique_ptr<SlotPolicy> make_slot_policy(SlotPolicyKind kind);

/// Policy-driven region→slot resolution plus prefetch pinning. Owned by
/// the DevicePool; MultiAccTileArray drives it through the pool.
///
/// Invariants:
///   * a resident region always resolves to the slot holding it;
///   * under StaticModulo every resolution is region % num_slots (the
///     seed's behaviour, unchanged);
///   * a slot pinned by an in-flight prefetch is never chosen as a victim
///     by a dynamic policy; a prefetch that would have to evict in-flight
///     data is refused instead (place_prefetch returns -1).
class SlotScheduler {
 public:
  SlotScheduler(int num_slots, int num_regions,
                std::unique_ptr<SlotPolicy> policy);

  SlotPolicyKind policy_kind() const { return policy_->kind(); }

  int num_slots() const { return num_slots_; }

  /// Current binding of a region: the slot a demand acquire would use
  /// right now, and where device_region() views point. Before any dynamic
  /// placement this is the static mapping.
  int slot_of(int region) const;

  /// Resolves (and records) the slot for a demand acquire of `region`.
  /// Unpins the slot when this acquire consumes an in-flight prefetch.
  int place(int region, CacheTable& cache);

  /// Resolves the slot for an asynchronous prefetch of `region` and pins
  /// it until a demand acquire consumes the region. Returns -1 when the
  /// prefetch must be skipped: the region is already resident, or every
  /// candidate slot is pinned, or the only placement would evict in-flight
  /// data or the most recently demanded (still computing) region.
  int place_prefetch(int region, CacheTable& cache);

  /// Visit rank of every region for the next GPU traversal, lower first
  /// (the iterator keeps its base order within a rank). A region is
  /// resident when its slot holds it and `device_current[region]` says its
  /// newest data is there. Rank 0: resident regions whose slot a
  /// non-resident region is bound to — visited while the slot still holds
  /// them, then swapped out behind the other kernels. Rank 1: the other
  /// resident regions. Rank 2: the rest. Empty (the base order) while a
  /// prefetch pin is held: the caller is driving its own lookahead.
  std::vector<int> visit_ranks(const CacheTable& cache,
                               const std::vector<bool>& device_current) const;

  /// True while `slot` holds an in-flight (un-consumed) prefetch.
  bool pinned(int slot) const;

  /// Number of currently pinned slots.
  int pinned_count() const;

  /// Forwards the recorded future access sequence to the policy.
  void set_future(std::vector<int> sequence);

  /// Snapshot field list (sim/snapshot.hpp): bindings, prefetch pins and
  /// policy state. Restore requires a scheduler with the same slot/region
  /// counts and policy kind.
  template <typename Ar>
  void fields(Ar& ar) {
    ar.section("slot_scheduler");
    ar.expect(num_slots_, "scheduler snapshot has a different slot count");
    ar.expect(policy_->kind(),
              "scheduler snapshot was taken under a different slot policy");
    const std::size_t regions = binding_.size();
    ar(binding_);
    ar.check(binding_.size() == regions,
             "scheduler snapshot has a different region count");
    ar(pinned_region_);
    ar.check(pinned_region_.size() == static_cast<std::size_t>(num_slots_),
             "scheduler snapshot is inconsistent");
    ar(last_demand_slot_, *policy_);
  }

 private:
  void check_region(int region) const;
  void check_slot(int slot) const;

  int num_slots_;
  std::unique_ptr<SlotPolicy> policy_;
  std::vector<int> binding_;        ///< region → last resolved slot
  std::vector<int> pinned_region_;  ///< slot → in-flight region, or -1
  int last_demand_slot_ = -1;       ///< slot of the newest demand acquire
};

}  // namespace tidacc::core

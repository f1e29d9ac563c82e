#include "core/slot_policy.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "sim/snapshot.hpp"

namespace tidacc::core {

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

/// The paper's direct-mapped baseline: region % num_slots, always.
class StaticModuloPolicy final : public SlotPolicy {
 public:
  SlotPolicyKind kind() const override { return SlotPolicyKind::kStaticModulo; }
  bool dynamic() const override { return false; }

  int choose_slot(int region, const CacheTable& cache,
                  const std::vector<bool>& /*pinned*/) override {
    return region % cache.num_slots();
  }
};

/// Fully-associative placement, least-recently-used eviction. Recency comes
/// from the CacheTable's access stamps (touched on every demand resolution
/// and on every set(), so prefetched data counts as fresh).
class LruPolicy final : public SlotPolicy {
 public:
  SlotPolicyKind kind() const override { return SlotPolicyKind::kLru; }

  int choose_slot(int /*region*/, const CacheTable& cache,
                  const std::vector<bool>& pinned) override {
    int victim = -1;
    std::uint64_t oldest = kNever;
    for (int s = 0; s < cache.num_slots(); ++s) {
      if (pinned[static_cast<size_t>(s)]) {
        continue;
      }
      if (cache.resident(s) == -1) {
        return s;  // an empty slot beats any eviction
      }
      if (cache.last_used(s) < oldest) {
        oldest = cache.last_used(s);
        victim = s;
      }
    }
    TIDACC_CHECK_MSG(victim != -1, "every slot is pinned — cannot place");
    return victim;
  }
};

/// Belady's MIN: evict the resident region whose next use lies farthest in
/// the recorded future sequence (never used again beats everything).
/// on_access() advances the sequence cursor; accesses are expected to
/// follow the recording, and any out-of-script access simply does not
/// advance the clock (the oracle degrades to stale predictions, safely).
class BeladyOraclePolicy final : public SlotPolicy {
 public:
  SlotPolicyKind kind() const override {
    return SlotPolicyKind::kBeladyOracle;
  }

  void set_future(std::vector<int> sequence) override {
    seq_ = std::move(sequence);
    cursor_ = 0;
    index_future();
  }

  int choose_slot(int /*region*/, const CacheTable& cache,
                  const std::vector<bool>& pinned) override {
    int victim = -1;
    std::uint64_t farthest = 0;
    for (int s = 0; s < cache.num_slots(); ++s) {
      if (pinned[static_cast<size_t>(s)]) {
        continue;
      }
      const int resident = cache.resident(s);
      if (resident == -1) {
        return s;
      }
      const std::uint64_t use = next_use(resident);
      if (victim == -1 || use > farthest) {
        farthest = use;
        victim = s;
      }
    }
    TIDACC_CHECK_MSG(victim != -1, "every slot is pinned — cannot place");
    return victim;
  }

  void on_access(int region, int /*slot*/) override {
    if (cursor_ < seq_.size() && seq_[cursor_] == region) {
      ++cursor_;
    }
  }

  void fields(sim::SnapshotWriter& w) override { state(w); }
  void fields(sim::SnapshotReader& r) override { state(r); }

 private:
  template <typename Ar>
  void state(Ar& ar) {
    ar(seq_, cursor_);
    if constexpr (Ar::kRestoring) {
      // The per-region indices are resettable caches that only ever move
      // forward, so rebuilding them from 0 with the restored cursor
      // reproduces identical next_use answers.
      index_future();
    }
  }

  /// Rebuilds each region's positions in seq_ and rewinds next_idx_.
  void index_future() {
    positions_.clear();
    next_idx_.clear();
    for (std::size_t i = 0; i < seq_.size(); ++i) {
      const int r = seq_[i];
      TIDACC_CHECK_MSG(r >= 0, "negative region id in the access sequence");
      if (static_cast<std::size_t>(r) >= positions_.size()) {
        positions_.resize(static_cast<std::size_t>(r) + 1);
        next_idx_.resize(static_cast<std::size_t>(r) + 1, 0);
      }
      positions_[static_cast<size_t>(r)].push_back(i);
    }
  }

  /// Position of `region`'s first use at or after the cursor (kNever when
  /// it does not appear again). Amortized O(1): per-region indices only
  /// move forward.
  std::uint64_t next_use(int region) {
    if (static_cast<std::size_t>(region) >= positions_.size()) {
      return kNever;
    }
    const auto& pos = positions_[static_cast<size_t>(region)];
    std::size_t& idx = next_idx_[static_cast<size_t>(region)];
    while (idx < pos.size() && pos[idx] < cursor_) {
      ++idx;
    }
    return idx < pos.size() ? pos[idx] : kNever;
  }

  std::vector<int> seq_;
  std::size_t cursor_ = 0;
  std::vector<std::vector<std::size_t>> positions_;
  std::vector<std::size_t> next_idx_;
};

}  // namespace

const char* to_string(SlotPolicyKind k) {
  switch (k) {
    case SlotPolicyKind::kStaticModulo:
      return "static";
    case SlotPolicyKind::kLru:
      return "lru";
    case SlotPolicyKind::kBeladyOracle:
      return "belady";
  }
  return "?";
}

SlotPolicyKind parse_slot_policy(const std::string& name) {
  if (name == "static" || name == "modulo") {
    return SlotPolicyKind::kStaticModulo;
  }
  if (name == "lru") {
    return SlotPolicyKind::kLru;
  }
  if (name == "belady" || name == "oracle") {
    return SlotPolicyKind::kBeladyOracle;
  }
  TIDACC_FAIL("unknown slot policy '" + name +
              "' (expected static|lru|belady)");
}

void SlotPolicy::on_access(int /*region*/, int /*slot*/) {}

void SlotPolicy::set_future(std::vector<int> /*sequence*/) {}

void SlotPolicy::fields(sim::SnapshotWriter& /*w*/) {}

void SlotPolicy::fields(sim::SnapshotReader& /*r*/) {}

std::unique_ptr<SlotPolicy> make_slot_policy(SlotPolicyKind kind) {
  switch (kind) {
    case SlotPolicyKind::kStaticModulo:
      return std::make_unique<StaticModuloPolicy>();
    case SlotPolicyKind::kLru:
      return std::make_unique<LruPolicy>();
    case SlotPolicyKind::kBeladyOracle:
      return std::make_unique<BeladyOraclePolicy>();
  }
  TIDACC_FAIL("unknown slot policy kind");
}

SlotScheduler::SlotScheduler(int num_slots, int num_regions,
                             std::unique_ptr<SlotPolicy> policy)
    : num_slots_(num_slots), policy_(std::move(policy)) {
  TIDACC_CHECK_MSG(num_slots > 0, "scheduler needs at least one slot");
  TIDACC_CHECK_MSG(num_regions > 0, "scheduler needs at least one region");
  if (!policy_) {
    policy_ = make_slot_policy(SlotPolicyKind::kStaticModulo);
  }
  binding_.resize(static_cast<size_t>(num_regions));
  for (int r = 0; r < num_regions; ++r) {
    binding_[static_cast<size_t>(r)] = r % num_slots_;
  }
  pinned_region_.assign(static_cast<size_t>(num_slots_), -1);
}

int SlotScheduler::slot_of(int region) const {
  check_region(region);
  return binding_[static_cast<size_t>(region)];
}

int SlotScheduler::place(int region, CacheTable& cache) {
  check_region(region);
  int slot = cache.slot_holding(region);
  if (slot == -1) {
    std::vector<bool> pinned(static_cast<size_t>(num_slots_), false);
    if (pinned_count() < num_slots_) {
      // A demand acquire must succeed: pins are honoured while an unpinned
      // candidate exists, dropped otherwise.
      for (int s = 0; s < num_slots_; ++s) {
        pinned[static_cast<size_t>(s)] =
            pinned_region_[static_cast<size_t>(s)] != -1;
      }
    }
    slot = policy_->choose_slot(region, cache, pinned);
    check_slot(slot);
  }
  // Consumes an in-flight prefetch of this region — or, under the static
  // mapping, overrides a conflicting one (the demanded region wins).
  pinned_region_[static_cast<size_t>(slot)] = -1;
  last_demand_slot_ = slot;
  binding_[static_cast<size_t>(region)] = slot;
  cache.touch(slot);
  policy_->on_access(region, slot);
  return slot;
}

int SlotScheduler::place_prefetch(int region, CacheTable& cache) {
  check_region(region);
  if (cache.slot_holding(region) != -1) {
    return -1;  // already resident: nothing to transfer
  }
  if (!policy_->dynamic()) {
    const int slot = policy_->choose_slot(region, cache, {});
    check_slot(slot);
    if (pinned_region_[static_cast<size_t>(slot)] != -1 ||
        slot == last_demand_slot_) {
      // The forced slot holds in-flight data or the region computing right
      // now — skip the prefetch rather than evict either.
      return -1;
    }
    pinned_region_[static_cast<size_t>(slot)] = region;
    binding_[static_cast<size_t>(region)] = slot;
    return slot;
  }
  std::vector<bool> pinned(static_cast<size_t>(num_slots_), false);
  int blocked = 0;
  for (int s = 0; s < num_slots_; ++s) {
    const bool b = pinned_region_[static_cast<size_t>(s)] != -1 ||
                   s == last_demand_slot_;
    pinned[static_cast<size_t>(s)] = b;
    blocked += b;
  }
  if (blocked == num_slots_) {
    return -1;  // everything is in flight or computing
  }
  const int slot = policy_->choose_slot(region, cache, pinned);
  check_slot(slot);
  TIDACC_CHECK_MSG(pinned_region_[static_cast<size_t>(slot)] == -1,
                   "policy chose a pinned slot for a prefetch");
  pinned_region_[static_cast<size_t>(slot)] = region;
  binding_[static_cast<size_t>(region)] = slot;
  return slot;
}

std::vector<int> SlotScheduler::visit_ranks(
    const CacheTable& cache, const std::vector<bool>& device_current) const {
  TIDACC_CHECK_MSG(device_current.size() == binding_.size(),
                   "one device_current flag per region");
  if (pinned_count() > 0) {
    return {};
  }
  std::vector<int> holder(static_cast<std::size_t>(num_slots_), -1);
  std::vector<int> rank(binding_.size(), 2);
  for (int s = 0; s < num_slots_; ++s) {
    const int r = cache.resident(s);
    if (r != -1 && device_current[static_cast<std::size_t>(r)]) {
      holder[static_cast<std::size_t>(s)] = r;
      rank[static_cast<std::size_t>(r)] = 1;
    }
  }
  for (std::size_t r = 0; r < binding_.size(); ++r) {
    const int h = holder[static_cast<std::size_t>(binding_[r])];
    if (rank[r] == 2 && h != -1) {
      rank[static_cast<std::size_t>(h)] = 0;
    }
  }
  return rank;
}

bool SlotScheduler::pinned(int slot) const {
  check_slot(slot);
  return pinned_region_[static_cast<size_t>(slot)] != -1;
}

int SlotScheduler::pinned_count() const {
  return static_cast<int>(
      std::count_if(pinned_region_.begin(), pinned_region_.end(),
                    [](int r) { return r != -1; }));
}

void SlotScheduler::set_future(std::vector<int> sequence) {
  policy_->set_future(std::move(sequence));
}

void SlotScheduler::check_region(int region) const {
  TIDACC_CHECK_MSG(
      region >= 0 && region < static_cast<int>(binding_.size()),
      "region id out of range");
}

void SlotScheduler::check_slot(int slot) const {
  TIDACC_CHECK_MSG(slot >= 0 && slot < num_slots_, "slot out of range");
}

}  // namespace tidacc::core

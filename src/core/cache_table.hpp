// The paper's caching structure (§IV-B4): one entry per device memory
// pointer (slot); the value is the id of the region whose data currently
// occupies that slot, or -1 when the slot is empty. Together with the
// per-region last-access location this eliminates redundant transfers and
// drives the eviction protocol when device memory holds fewer slots than
// the application has regions.
#pragma once

#include <cstdint>
#include <vector>

namespace tidacc::core {

/// slot → resident region id (-1 = empty), exactly the paper's cache list.
class CacheTable {
 public:
  explicit CacheTable(int slots);

  int num_slots() const { return static_cast<int>(resident_.size()); }

  /// Region occupying `slot`, or -1.
  int resident(int slot) const;

  /// Marks `region` resident in `slot`.
  void set(int slot, int region);

  /// Empties `slot`.
  void evict(int slot);

  /// Slot currently holding `region`, or -1 (linear scan; slot counts are
  /// small — one per device buffer).
  int slot_holding(int region) const;

  /// Number of occupied slots.
  int occupied() const;

  /// Bumps `slot`'s access stamp (monotone table-wide clock). set() also
  /// stamps, so freshly placed data counts as most recently used. The
  /// stamps feed the LRU slot policy.
  void touch(int slot);

  /// Stamp of the last touch of `slot`; 0 means never touched.
  std::uint64_t last_used(int slot) const;

  /// Snapshot field list (sim/snapshot.hpp): residency, access stamps and
  /// the table clock. Restore requires a table of the same slot count.
  template <typename Ar>
  void fields(Ar& ar) {
    ar.section("cache_table");
    const std::size_t slots = resident_.size();
    ar(resident_);
    ar.check(resident_.size() == slots,
             "cache-table snapshot has a different slot count");
    ar(last_used_);
    ar.check(last_used_.size() == slots,
             "cache-table snapshot is inconsistent");
    ar(clock_);
  }

 private:
  void check_slot(int slot) const;

  std::vector<int> resident_;
  std::vector<std::uint64_t> last_used_;
  std::uint64_t clock_ = 0;
};

/// Where a region's most recent data lives (paper: "where each region is
/// accessed last time"). kUninit means no side has produced data yet — a
/// region in that state needs no H2D when first requested on the device
/// (typical for output arrays of Jacobi-style solvers).
enum class Loc : int { kUninit = 0, kHost = 1, kDevice = 2 };

const char* to_string(Loc l);

/// Per-region last-access location, all kUninit initially.
class LocationTracker {
 public:
  explicit LocationTracker(int regions);

  Loc location(int region) const;
  void set(int region, Loc loc);

  /// True if any region was last accessed on the device.
  bool any_on_device() const;

  /// Snapshot field list: every region's location. Restore requires a
  /// tracker of the same region count.
  template <typename Ar>
  void fields(Ar& ar) {
    ar.section("location_tracker");
    const std::size_t regions = loc_.size();
    ar(loc_);
    ar.check(loc_.size() == regions,
             "location-tracker snapshot has a different region count");
  }

 private:
  void check_region(int region) const;

  std::vector<Loc> loc_;
};

}  // namespace tidacc::core

#include "core/cache_table.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace tidacc::core {

CacheTable::CacheTable(int slots) {
  TIDACC_CHECK_MSG(slots > 0, "cache table needs at least one slot");
  resident_.assign(static_cast<size_t>(slots), -1);
  last_used_.assign(static_cast<size_t>(slots), 0);
}

int CacheTable::resident(int slot) const {
  check_slot(slot);
  return resident_[static_cast<size_t>(slot)];
}

void CacheTable::set(int slot, int region) {
  check_slot(slot);
  TIDACC_CHECK_MSG(region >= 0, "invalid region id");
  TIDACC_CHECK_MSG(slot_holding(region) == -1 ||
                       slot_holding(region) == slot,
                   "region already resident in another slot");
  resident_[static_cast<size_t>(slot)] = region;
  touch(slot);
}

void CacheTable::touch(int slot) {
  check_slot(slot);
  last_used_[static_cast<size_t>(slot)] = ++clock_;
}

std::uint64_t CacheTable::last_used(int slot) const {
  check_slot(slot);
  return last_used_[static_cast<size_t>(slot)];
}

void CacheTable::evict(int slot) {
  check_slot(slot);
  resident_[static_cast<size_t>(slot)] = -1;
}

int CacheTable::slot_holding(int region) const {
  for (size_t s = 0; s < resident_.size(); ++s) {
    if (resident_[s] == region) {
      return static_cast<int>(s);
    }
  }
  return -1;
}

int CacheTable::occupied() const {
  return static_cast<int>(
      std::count_if(resident_.begin(), resident_.end(),
                    [](int r) { return r >= 0; }));
}

void CacheTable::check_slot(int slot) const {
  TIDACC_CHECK_MSG(slot >= 0 && slot < num_slots(), "slot out of range");
}

const char* to_string(Loc l) {
  switch (l) {
    case Loc::kUninit:
      return "uninit";
    case Loc::kHost:
      return "host";
    case Loc::kDevice:
      return "device";
  }
  return "?";
}

LocationTracker::LocationTracker(int regions) {
  TIDACC_CHECK_MSG(regions > 0, "need at least one region");
  loc_.assign(static_cast<size_t>(regions), Loc::kUninit);
}

Loc LocationTracker::location(int region) const {
  check_region(region);
  return loc_[static_cast<size_t>(region)];
}

void LocationTracker::set(int region, Loc loc) {
  check_region(region);
  loc_[static_cast<size_t>(region)] = loc;
}

bool LocationTracker::any_on_device() const {
  return std::any_of(loc_.begin(), loc_.end(),
                     [](Loc l) { return l == Loc::kDevice; });
}

void LocationTracker::check_region(int region) const {
  TIDACC_CHECK_MSG(region >= 0 && region < static_cast<int>(loc_.size()),
                   "region id out of range");
}

}  // namespace tidacc::core

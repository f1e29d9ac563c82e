#include "core/dirty_tracker.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace tidacc::core {

using tida::Box;

void DirtyTracker::resize(int num_regions) {
  TIDACC_CHECK_MSG(num_regions >= 0, "negative region count");
  if (static_cast<std::size_t>(num_regions) > sides_.size()) {
    sides_.resize(static_cast<std::size_t>(num_regions));
  }
}

DirtyTracker::Sides& DirtyTracker::sides(int region) {
  TIDACC_CHECK_MSG(region >= 0, "negative region id");
  if (static_cast<std::size_t>(region) >= sides_.size()) {
    sides_.resize(static_cast<std::size_t>(region) + 1);
  }
  return sides_[static_cast<std::size_t>(region)];
}

const DirtyTracker::Sides& DirtyTracker::sides(int region) const {
  return const_cast<DirtyTracker*>(this)->sides(region);
}

void DirtyTracker::note_write(int region, const Box& box, bool host_side) {
  if (box.empty()) {
    return;
  }
  Sides& s = sides(region);
  std::vector<Box>& same = host_side ? s.host : s.dev;
  std::vector<Box>& other = host_side ? s.dev : s.host;

  // The write supersedes any staleness of the other copy in its footprint.
  tida::subtract_from_list(other, box);

  // Absorb: a write covering everything recorded so far replaces the list.
  const bool covers_all = std::all_of(
      same.begin(), same.end(),
      [&box](const Box& piece) { return box.contains(piece); });
  if (covers_all) {
    same.assign(1, box);
  } else {
    std::vector<Box> fresh = tida::subtract_box(box, same);
    same.insert(same.end(), fresh.begin(), fresh.end());
  }

  // Merge pieces that tile a box first (a slab's 26 ghost pieces are 6
  // boxes), so the cap below only fires on genuinely scattered writes.
  same = tida::coalesce(std::move(same));

  // Cap fragmentation: coarsen to the bounding box, carved so it never
  // claims cells the *other* side has dirtied (that would legalize a flat
  // copy that overwrites them).
  if (same.size() > kMaxPiecesPerSide) {
    same = tida::subtract_box(tida::bounding_box(same), other);
  }
}

void DirtyTracker::note_host_write(int region, const Box& box) {
  note_write(region, box, /*host_side=*/true);
}

void DirtyTracker::note_device_write(int region, const Box& box) {
  note_write(region, box, /*host_side=*/false);
}

void DirtyTracker::mark_all_host(int region, const Box& grown) {
  Sides& s = sides(region);
  s.dev.clear();
  s.host.assign(1, grown);
}

void DirtyTracker::reset(int region) {
  Sides& s = sides(region);
  s.host.clear();
  s.dev.clear();
}

void DirtyTracker::clear_host(int region) { sides(region).host.clear(); }

void DirtyTracker::clear_device(int region) { sides(region).dev.clear(); }

void DirtyTracker::note_device_shipped(int region, const Box& box) {
  tida::subtract_from_list(sides(region).dev, box);
}

const std::vector<Box>& DirtyTracker::host_dirty(int region) const {
  return sides(region).host;
}

const std::vector<Box>& DirtyTracker::dev_dirty(int region) const {
  return sides(region).dev;
}

}  // namespace tidacc::core

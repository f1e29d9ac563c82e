#include "core/dirty_tracker.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "sim/snapshot.hpp"

namespace tidacc::core {

using tida::Box;

namespace {

void put_box_list(sim::SnapshotWriter& w, const std::vector<Box>& list) {
  w.put_u64(list.size());
  for (const Box& b : list) {
    w.put_int(b.lo.i);
    w.put_int(b.lo.j);
    w.put_int(b.lo.k);
    w.put_int(b.hi.i);
    w.put_int(b.hi.j);
    w.put_int(b.hi.k);
  }
}

std::vector<Box> get_box_list(sim::SnapshotReader& r) {
  const std::uint64_t n = r.get_u64();
  std::vector<Box> list;
  list.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    Box b;
    b.lo.i = r.get_int();
    b.lo.j = r.get_int();
    b.lo.k = r.get_int();
    b.hi.i = r.get_int();
    b.hi.j = r.get_int();
    b.hi.k = r.get_int();
    list.push_back(b);
  }
  return list;
}

}  // namespace

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

void DirtyTracker::capture(sim::SnapshotWriter& w) const {
  w.section("dirty_tracker");
  w.put_u64(sides_.size());
  for (const Sides& s : sides_) {
    put_box_list(w, s.host);
    put_box_list(w, s.dev);
  }
}

void DirtyTracker::restore(sim::SnapshotReader& r) {
  r.section("dirty_tracker");
  const std::uint64_t n = r.get_u64();
  sides_.assign(static_cast<std::size_t>(n), Sides{});
  for (Sides& s : sides_) {
    s.host = get_box_list(r);
    s.dev = get_box_list(r);
  }
}

void TransferAccounting::capture(sim::SnapshotWriter& w) const {
  w.section("transfer_accounting");
  w.put_u64(h2d_bytes);
  w.put_u64(d2h_bytes);
  w.put_u64(flat_h2d_ops);
  w.put_u64(flat_d2h_ops);
  w.put_u64(delta_h2d_ops);
  w.put_u64(delta_d2h_ops);
  w.put_u64(prefetch_ops);
  w.put_u64(h2d_wire_bytes);
  w.put_u64(d2h_wire_bytes);
  w.put_u64(comp_h2d_ops);
  w.put_u64(comp_d2h_ops);
}

void TransferAccounting::restore(sim::SnapshotReader& r) {
  r.section("transfer_accounting");
  h2d_bytes = r.get_u64();
  d2h_bytes = r.get_u64();
  flat_h2d_ops = r.get_u64();
  flat_d2h_ops = r.get_u64();
  delta_h2d_ops = r.get_u64();
  delta_d2h_ops = r.get_u64();
  prefetch_ops = r.get_u64();
  h2d_wire_bytes = r.get_u64();
  d2h_wire_bytes = r.get_u64();
  comp_h2d_ops = r.get_u64();
  comp_d2h_ops = r.get_u64();
}

}  // namespace tidacc::core

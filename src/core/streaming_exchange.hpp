// The out-of-core streaming ghost exchange (delta mode) of
// MultiAccTileArray, and the cost model that decides when
// StreamingGuard::kAuto takes it.
//
// Instead of rounding whole regions through the host, the exchange pulls
// only the device-written cells the plan reads, refreshes the ghosts on the
// host, and pushes the exact ghost boxes back to resident regions. It runs
// as a per-destination pipeline, the paper's tile-by-tile overlap applied
// to the halo: every pull is issued up front with one event per pulled
// region, then each destination group of the plan (the plan is grouped by
// dst_region) is handled as soon as the pulls it reads have landed —
// wait on just those events, apply the group's host copies, push its ghost
// boxes on the destination's slot stream. Copy engines keep pulling and
// pushing while the host works through the next group and while the
// previous step's kernels drain; nothing waits for a global barrier.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "core/cache_table.hpp"
#include "cuem/cuem.hpp"
#include "cuem/san.hpp"
#include "sim/platform.hpp"
#include "tida/box.hpp"
#include "tida/ghost.hpp"

namespace tidacc::core::detail {

/// Per source region, the planned source cells its device copy has written
/// since the copies last agreed — the only cells the exchange must bring
/// home. Lists are disjoint (overlapping ghost reads are pulled once) and
/// coalesced (a slab's face pieces ship as its 6-box shell).
template <typename A>
std::vector<std::vector<tida::Box>> pull_lists(
    const A& a, const std::vector<tida::GhostCopy>& plan) {
  std::vector<std::vector<tida::Box>> pulls(
      static_cast<std::size_t>(a.num_regions()));
  for (const tida::GhostCopy& c : plan) {
    if (a.location(c.src_region) != Loc::kDevice) {
      continue;
    }
    auto& list = pulls[static_cast<std::size_t>(c.src_region)];
    for (const tida::Box& d : a.dirty().dev_dirty(c.src_region)) {
      const tida::Box x = d.intersect(c.src_box);
      if (!x.empty()) {
        std::vector<tida::Box> fresh = tida::subtract_box(x, list);
        list.insert(list.end(), fresh.begin(), fresh.end());
      }
    }
  }
  for (auto& list : pulls) {
    list = tida::coalesce(std::move(list));
  }
  return pulls;
}

/// Exchange-level cost model behind StreamingGuard::kAuto. The pipelined
/// exchange keeps both DMA directions and the host busy at once, so it
/// costs the busiest of its three legs — every coalesced pull, every push of
/// a resident region's ghost boxes, the host copies — plus the fill/drain
/// latency of one region going pull → host copy → push. The drain
/// alternative overlaps its two directions too, so it costs its busier
/// direction, plus the host copies it runs behind a barrier. Only resident
/// regions that would keep their slot through the next pass count there: a
/// region whose slot another region is bound to is evicted and re-uploaded
/// either way (exact for the static mapping, an estimate under dynamic
/// policies). Stream when not dearer. A per-region guard cannot see this
/// trade: each region's shells look cheap alone, but a periodic slab
/// exchange issues dozens of pitched ops that each pay the transfer setup.
/// Every op is the raw copy the exchange would issue, priced by
/// sim::copy_ns plus its host issue cost.
template <typename T, typename A>
bool streaming_cheaper(A& a, tida::Boundary bc) {
  const sim::DeviceConfig& cfg = sim::Platform::instance().config();
  const auto& plan = a.exchange_plan(bc);
  const auto n = static_cast<std::size_t>(a.num_regions());
  const auto elem_bytes =
      static_cast<std::uint64_t>(a.ncomp()) * sizeof(T);

  // copy_boxes issues one pitched copy per box and component.
  const auto boxes_ns = [&a, &cfg](int region,
                                   const std::vector<tida::Box>& boxes,
                                   bool h2d) {
    SimTime ns = 0;
    for (const tida::Box& b : boxes) {
      ns += static_cast<SimTime>(a.ncomp()) *
            (cfg.host_api_overhead_ns +
             sim::copy_ns(cfg, a.box_copy_request(region, b, h2d)));
    }
    return ns;
  };

  const auto pulls = pull_lists(a, plan);
  std::vector<std::vector<tida::Box>> ghosts(n);
  for (const tida::GhostCopy& c : plan) {
    ghosts[static_cast<std::size_t>(c.dst_region)].push_back(c.dst_box);
  }
  std::map<std::pair<int, int>, int> slot_sharers;  // (device, slot) → count
  for (int r = 0; r < a.num_regions(); ++r) {
    ++slot_sharers[{a.device_of_region(r), a.slot_of_region(r)}];
  }

  SimTime pull_leg = 0;
  SimTime push_leg = 0;
  SimTime latency = 0;
  SimTime drain_d2h = 0;
  SimTime drain_h2d = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const int region = static_cast<int>(r);
    const SimTime pull = boxes_ns(region, pulls[r], /*h2d=*/false);
    pull_leg += pull;
    if (a.location(region) != Loc::kDevice) {
      continue;
    }
    // The push ships the region's host-dirty boxes after its ghosts land.
    std::vector<tida::Box> boxes = a.dirty().host_dirty(region);
    boxes.insert(boxes.end(), ghosts[r].begin(), ghosts[r].end());
    const SimTime push =
        boxes_ns(region, tida::coalesce(std::move(boxes)), /*h2d=*/true);
    push_leg += push;
    latency = std::max(
        latency,
        pull + cfg.host_copy_ns(tida::list_volume(ghosts[r]) * elem_bytes) +
            push);
    if (slot_sharers[{a.device_of_region(region),
                      a.slot_of_region(region)}] == 1) {
      const std::uint64_t bytes = a.region_bytes(region);
      drain_d2h += cfg.host_api_overhead_ns +
                   sim::copy_ns(cfg, a.copy_request(bytes, /*h2d=*/false));
      drain_h2d += cfg.host_api_overhead_ns +
                   sim::copy_ns(cfg, a.copy_request(bytes, /*h2d=*/true));
    }
  }
  const SimTime host_copy =
      cfg.host_copy_ns(tida::plan_cells(plan) * elem_bytes);
  const SimTime stream_ns =
      std::max({pull_leg, push_leg, host_copy}) + latency;
  const SimTime drain_ns = std::max(drain_d2h, drain_h2d) + host_copy;
  return stream_ns <= drain_ns;
}

/// The pipelined streaming exchange (see the file comment). `A` is a
/// MultiAccTileArray<T>, which befriends this function.
/// Regions keep their device residency and location throughout, so the next
/// compute pass pays no re-upload, and nothing waits at the end: stream
/// order protects the kernels queued behind each push.
template <typename A>
void streaming_exchange(A& a, tida::Boundary bc) {
  TIDACC_CHECK_MSG(a.delta_transfers(),
                   "streaming exchange requires delta_transfers");
  sim::Platform& p = sim::Platform::instance();
  const auto& plan = a.exchange_plan(bc);
  const auto n = static_cast<std::size_t>(a.num_regions());

  // Pulls: one event per pulled region marks its shells home.
  const auto pulls = pull_lists(a, plan);
  std::vector<sim::EventId> pulled(n, -1);
  for (std::size_t r = 0; r < n; ++r) {
    if (pulls[r].empty()) {
      continue;
    }
    const int region = static_cast<int>(r);
    const cuem::DeviceGuard guard(a.device_of_region(region));
    const cuemStream_t stream = a.stream_of_region(region);
    a.copy_boxes(region, pulls[r], cuemMemcpyDeviceToHost, stream,
                 sim::PayloadKind::kFaceShell);
    for (const tida::Box& b : pulls[r]) {
      a.dirty_.note_device_shipped(region, b);
    }
    pulled[r] = p.record_event(stream);
  }

  // Destination groups in the order a host polling the pull events sees
  // them become ready. A region with no pull this round but a transfer
  // still touching its host buffer (an eviction D2H) is only tracked at
  // stream level; syncing that stream also waits for the kernels queued
  // behind the eviction, so groups touching such a region go last.
  struct Group {
    std::size_t begin = 0;
    std::size_t end = 0;
    bool stream_wait = false;
    SimTime ready = 0;
  };
  std::vector<Group> groups;
  for (std::size_t begin = 0; begin < plan.size();) {
    Group g{begin, begin};
    const int dst = plan[begin].dst_region;
    const auto touch = [&](int region) {
      const auto r = static_cast<std::size_t>(region);
      if (pulled[r] >= 0) {
        g.ready = std::max(g.ready, p.event_finish(pulled[r]));
      } else if (a.pending_xfer_[r] >= 0) {
        g.stream_wait = true;
      }
    };
    touch(dst);
    while (g.end < plan.size() && plan[g.end].dst_region == dst) {
      touch(plan[g.end].src_region);
      ++g.end;
    }
    groups.push_back(g);
    begin = g.end;
  }
  std::stable_sort(groups.begin(), groups.end(),
                   [](const Group& x, const Group& y) {
                     return x.stream_wait != y.stream_wait ? y.stream_wait
                                                           : x.ready < y.ready;
                   });

  // Host buffers a group reads or writes must be quiet first. A region
  // whose own group is done needs no further wait: later groups only read
  // its valid cells, while its push (if any) reads its ghosts.
  std::vector<char> done(n, 0);
  const auto quiesce = [&](int region) {
    const auto r = static_cast<std::size_t>(region);
    if (done[r]) {
      return;
    }
    if (pulled[r] < 0) {
      a.sync_pending_host(region);
      return;
    }
    if (p.event_finish(pulled[r]) <= p.now()) {
      p.hb_note_event_query_success(pulled[r]);  // a successful poll
    } else {
      p.sync_event(pulled[r]);
    }
    pulled[r] = -1;
    a.pending_xfer_[r] = -1;
  };
  const auto push = [&](int region) {
    done[static_cast<std::size_t>(region)] = 1;
    if (a.location(region) != Loc::kDevice || a.dirty_.host_clean(region)) {
      return;  // non-resident regions take their ghosts at the next acquire
    }
    const cuem::DeviceGuard guard(a.device_of_region(region));
    a.copy_boxes(region, a.dirty_.host_dirty(region), cuemMemcpyHostToDevice,
                 a.stream_of_region(region),
                 sim::PayloadKind::kGhostRefresh);
    a.dirty_.clear_host(region);
  };

  for (const Group& g : groups) {
    const int dst = plan[g.begin].dst_region;
    quiesce(dst);
    for (std::size_t c = g.begin; c < g.end; ++c) {
      quiesce(plan[c].src_region);
    }
    if (cuem::san::enabled()) {
      for (std::size_t c = g.begin; c < g.end; ++c) {
        const int src = plan[c].src_region;
        cuem::san::note_host_access(a.region(src).data, a.region_bytes(src),
                                    /*write=*/false, "streaming_exchange");
      }
      cuem::san::note_host_access(a.region(dst).data, a.region_bytes(dst),
                                  /*write=*/true, "streaming_exchange");
    }
    // The freshened ghost boxes are host writes the device has not seen.
    a.fill_boundary_host(bc, g.begin, g.end);
    for (std::size_t c = g.begin; c < g.end; ++c) {
      a.dirty_.note_host_write(dst, plan[c].dst_box);
    }
    push(dst);
  }
  // Resident regions no ghost lands in may still carry host-dirty boxes.
  for (std::size_t r = 0; r < n; ++r) {
    if (!done[r]) {
      push(static_cast<int>(r));
    }
  }
  ++a.streaming_exchanges_;
}

}  // namespace tidacc::core::detail

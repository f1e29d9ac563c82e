// The out-of-core streaming ghost exchange (delta mode) of
// MultiAccTileArray, and the cost model that decides when
// StreamingGuard::kAuto takes it.
//
// The exchange splits the plan by residency, the paper's dual-path
// exchange (§IV-B6) applied per copy instead of per array:
//   * Device half — every copy whose source and destination are both
//     resident on the same device runs in its device's replay kernel
//     (MultiAccTileArray::exchange_on_devices), so its data never crosses
//     PCIe. One event per source stream, recorded before the exchange
//     queues anything, orders the kernel after its sources' writes; the
//     host never waits.
//   * Host half — only copies that touch a non-resident region, or cross
//     devices, go through the host. It pulls only the device-written cells
//     those copies read, refreshes the ghosts on the host, and pushes the
//     exact ghost boxes back to resident regions.
// Issue order: the device half's source events; the host half's pulls in
// last-use order (drain_order), each right behind its source's last kernel,
// one event per pulled region; the replay kernels, whose completion edges
// every stream takes at once except a stream the host half pushes into,
// which takes them right behind its push; then the host half's destination
// groups as a pipeline — the paper's tile-by-tile overlap applied to the
// halo. Each wait covers only the transfers touching the boxes the host
// copies, so a group is handled as soon as those are quiet:
//   * a source's valid cells once its pull lands (an evicted source: its
//     eviction);
//   * a resident destination's ghost boxes once its last upload and its
//     previous push, which read them, are done — the source event on its
//     stream — not its own pull, which writes only valid cells; an evicted
//     destination's once its eviction is.
// The host applies the group's copies and pushes its ghost boxes on the
// destination's slot stream, where they run beside the replay kernel: each
// ghost cell has one source in the plan, so the replay neither reads nor
// writes them. Copy engines keep pulling and pushing while the compute
// engine runs the replay kernels and the host works through the next
// group; nothing waits for a global barrier.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/inject.hpp"
#include "common/units.hpp"
#include "core/cache_table.hpp"
#include "core/exchange_schedule.hpp"
#include "cuem/cuem.hpp"
#include "cuem/san.hpp"
#include "sim/kernel_profile.hpp"
#include "sim/platform.hpp"
#include "tida/box.hpp"
#include "tida/ghost.hpp"

namespace tidacc::core {

/// The device exchange's replay kernel over `elements` values of
/// `elem_bytes` bytes and `descriptor_bytes` of descriptors: an
/// OpenACC-generated copy loop that reads the descriptor list, then each
/// source value, and writes its ghost. The exchange launches it and both
/// of its predictors (streaming_cheaper, choose_time_block_k) price it, all
/// through this one profile.
inline sim::KernelProfile ghost_update_profile(
    std::uint64_t elements, std::size_t elem_bytes,
    std::uint64_t descriptor_bytes) {
  sim::KernelProfile prof;
  prof.elements = elements;
  prof.dev_bytes_per_element =
      2.0 * static_cast<double>(elem_bytes) +
      (elements > 0 ? static_cast<double>(descriptor_bytes) /
                          static_cast<double>(elements)
                    : 0.0);
  prof.flops_per_element = 0.0;
  prof.tuned_geometry = false;
  return prof;
}

namespace detail {

/// The host half of one exchange, derived once per fill_boundary call for
/// both streaming_cheaper and streaming_exchange, so the predictor prices
/// exactly the pulls the exchange issues.
struct HostHalf {
  /// Plan indices of every copy outside the device half (which takes the
  /// copies between two regions resident on one device), in plan order (so
  /// grouped by destination region).
  std::vector<std::size_t> copies;
  /// Per source region, the source cells of those copies that its device
  /// copy has written since the copies last agreed — the only cells the
  /// exchange must bring home. Lists are disjoint (overlapping ghost reads
  /// are pulled once) and coalesced (a slab's face pieces ship as its
  /// 6-box shell).
  std::vector<std::vector<tida::Box>> pulls;
};

/// The host half under `bc`. Which copies it takes is decided per region
/// pair, from its regions' devices (the schedule's placement) and
/// residency; the pulls are derived copy by copy, in plan order.
template <typename A>
HostHalf host_half(A& a, tida::Boundary bc) {
  const auto& plan = a.exchange_plan(bc);
  const tida::PairIndex& index = a.exchange_pairs(bc);
  HostHalf half;
  half.pulls.resize(static_cast<std::size_t>(a.num_regions()));
  for (int dst = 0; dst < a.num_regions(); ++dst) {
    const bool resident = a.location(dst) == Loc::kDevice;
    index.append_copies(
        dst,
        [&](std::size_t p) {
          const int src = index.pairs[p].src_region;
          return !resident || a.location(src) != Loc::kDevice ||
                 a.device_of_region(src) != a.device_of_region(dst);
        },
        half.copies);
  }
  for (const std::size_t i : half.copies) {
    const tida::GhostCopy& c = plan[i];
    if (a.location(c.src_region) != Loc::kDevice) {
      continue;
    }
    auto& list = half.pulls[static_cast<std::size_t>(c.src_region)];
    for (const tida::Box& d : a.dirty().dev_dirty(c.src_region)) {
      const tida::Box x = d.intersect(c.src_box);
      if (!x.empty()) {
        std::vector<tida::Box> fresh = tida::subtract_box(x, list);
        list.insert(list.end(), fresh.begin(), fresh.end());
      }
    }
  }
  for (auto& list : half.pulls) {
    list = tida::coalesce(std::move(list));
  }
  return half;
}

/// Exchange-level cost model behind StreamingGuard::kAuto, pricing the ops
/// each alternative issues. The streaming exchange keeps the host, both
/// DMA directions and the compute engine busy at once, so it costs the
/// busiest of its legs plus the fill/drain latency of one region going pull
/// → host copy → push:
///   * host — every API call it issues (replay kernels and their event
///     edges, pitched pulls and pushes, pull events), the host half's
///     copies, and the descriptors' index work while the layout's set is
///     unbuilt (ExchangeSchedule: a sibling array may have built it);
///   * D2H / H2D — the pulls, the pushes of resident regions' ghosts, and
///     an unbuilt device's descriptor upload;
///   * compute — one replay kernel per device.
/// The drain overlaps its two directions too, so it costs its busier
/// direction plus the whole plan's host copies, which run behind a
/// barrier. Its directions carry the round trip of every resident region:
/// the residency-ordered sweep (SlotScheduler::visit_ranks) would have kept
/// each of them on the device, a shared slot's holder included. Both
/// alternatives' DMA legs also carry the next sweep's swaps, the same
/// under either: a shared slot is evicted and re-filled once for every
/// region bound to it beyond the first (exact for the static mapping, an
/// estimate under dynamic policies). Stream when not dearer. Every copy is
/// priced by sim::copy_ns, every kernel by KernelProfile::duration_ns.
template <typename T, typename A>
bool streaming_cheaper(A& a, tida::Boundary bc, const HostHalf& half) {
  const sim::DeviceConfig& cfg = sim::Platform::instance().config();
  const auto& plan = a.exchange_plan(bc);
  const auto n = static_cast<std::size_t>(a.num_regions());
  const auto ncomp = static_cast<SimTime>(a.ncomp());
  const auto elem_bytes =
      static_cast<std::uint64_t>(a.ncomp()) * sizeof(T);
  const SimTime api = cfg.host_api_overhead_ns;

  // copy_boxes issues one pitched copy per box and component; the host
  // leg counts the calls.
  SimTime calls = 0;
  const auto boxes_ns = [&](int region, const std::vector<tida::Box>& boxes,
                            bool h2d) {
    SimTime ns = 0;
    for (const tida::Box& b : boxes) {
      ns += ncomp * sim::copy_ns(cfg, a.box_copy_request(region, b, h2d));
    }
    calls += ncomp * static_cast<SimTime>(boxes.size());
    return ns;
  };

  // Device half: one replay kernel per device over its same-device pairs
  // whose regions are both resident, reading every descriptor the device
  // holds for `bc`. While the layout's descriptors on a device are unbuilt,
  // the host also pays their index work and the upload. Each touched
  // stream costs its source event, the replay's wait on it and its wait on
  // the replay's completion event.
  SimTime compute_leg = 0;
  SimTime host_leg = 0;
  SimTime upload_leg = 0;
  auto cells = std::vector<std::uint64_t>(
      static_cast<std::size_t>(a.num_devices()));
  auto touched = std::vector<char>(n);
  const tida::PairIndex& index = a.exchange_pairs(bc);
  const auto resident = [&a](int r) { return a.location(r) == Loc::kDevice; };
  for (int d = 0; d < a.num_devices(); ++d) {
    for (const std::size_t p : a.local_copies(d, bc).pairs) {
      const tida::RegionPair& pair = index.pairs[p];
      if (resident(pair.src_region) && resident(pair.dst_region)) {
        cells[static_cast<std::size_t>(d)] += pair.cells;
        touched[static_cast<std::size_t>(pair.src_region)] = 1;
        touched[static_cast<std::size_t>(pair.dst_region)] = 1;
      }
    }
  }
  std::set<cuemStream_t> touched_streams;
  for (std::size_t r = 0; r < n; ++r) {
    if (touched[r]) {
      touched_streams.insert(a.stream_of_region(static_cast<int>(r)));
    }
  }
  for (int d = 0; d < a.num_devices(); ++d) {
    if (!a.pool(d)) {
      continue;
    }
    const std::size_t copies = a.local_copies(d, bc).copies.size();
    const std::uint64_t desc_bytes = copies * sizeof(GhostDescriptor);
    if (!a.schedule_->descriptors(d, bc).built && desc_bytes > 0) {
      host_leg += static_cast<SimTime>(copies) *
                  cfg.host_index_calc_ns_per_copy;
      sim::CopyRequest upload;
      upload.bytes = desc_bytes;
      upload_leg += sim::copy_ns(cfg, upload);
      ++calls;
    }
    const std::uint64_t dev_cells = cells[static_cast<std::size_t>(d)];
    if (dev_cells > 0) {
      compute_leg += cfg.kernel_launch_ns +
                     ghost_update_profile(
                         dev_cells * static_cast<std::uint64_t>(ncomp),
                         sizeof(T), desc_bytes)
                         .duration_ns(cfg);
      host_leg += cfg.oacc_dispatch_extra_ns;
      calls += 2;  // the kernel and its completion event
    }
  }
  calls += 3 * static_cast<SimTime>(touched_streams.size());

  // Host half.
  const auto& pulls = half.pulls;
  std::vector<std::vector<tida::Box>> ghosts(n);
  std::uint64_t host_cells = 0;
  for (const std::size_t c : half.copies) {
    ghosts[static_cast<std::size_t>(plan[c].dst_region)].push_back(
        plan[c].dst_box);
    host_cells += plan[c].dst_box.volume();
  }
  // One flat whole-region copy, as a swap or the drain issues it.
  const auto flat_ns = [&](int region, bool h2d) {
    return api +
           sim::copy_ns(cfg, a.copy_request(a.region_bytes(region), h2d));
  };
  // The next sweep's swaps: the first region bound to a slot keeps it, each
  // later one evicts its predecessor and uploads.
  SimTime swap_d2h = 0;
  SimTime swap_h2d = 0;
  std::map<std::pair<int, int>, int> slot_sharers;  // (device, slot) → count
  for (int r = 0; r < a.num_regions(); ++r) {
    if (++slot_sharers[{a.device_of_region(r), a.slot_of_region(r)}] > 1) {
      swap_d2h += flat_ns(r, /*h2d=*/false);
      swap_h2d += flat_ns(r, /*h2d=*/true);
    }
  }
  SimTime pull_leg = swap_d2h;
  SimTime push_leg = swap_h2d + upload_leg;
  SimTime latency = 0;
  SimTime drain_d2h = swap_d2h;
  SimTime drain_h2d = swap_h2d;
  for (std::size_t r = 0; r < n; ++r) {
    const int region = static_cast<int>(r);
    const SimTime pull = boxes_ns(region, pulls[r], /*h2d=*/false);
    pull_leg += pull;
    calls += pulls[r].empty() ? 0 : 1;  // the pull's event
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
    drain_d2h += flat_ns(region, /*h2d=*/false);
    drain_h2d += flat_ns(region, /*h2d=*/true);
  }
  host_leg += calls * api + cfg.host_copy_ns(host_cells * elem_bytes);
  const SimTime stream_ns =
      std::max({pull_leg, push_leg, host_leg, compute_leg}) + latency;
  const SimTime drain_ns =
      std::max(drain_d2h, drain_h2d) +
      cfg.host_copy_ns(index.cells * elem_bytes);
  return stream_ns <= drain_ns;
}

/// The streaming exchange (see the file comment). `A` is a
/// MultiAccTileArray<T>, which befriends this function.
/// Regions keep their device residency and location throughout, so the next
/// compute pass pays no re-upload, and nothing waits at the end: stream
/// order and event edges protect the kernels queued behind each replay
/// kernel and push.
template <typename A>
void streaming_exchange(A& a, tida::Boundary bc, const HostHalf& half) {
  TIDACC_CHECK_MSG(a.delta_transfers(),
                   "streaming exchange requires delta_transfers");
  sim::Platform& p = sim::Platform::instance();
  const auto& plan = a.exchange_plan(bc);
  const auto n = static_cast<std::size_t>(a.num_regions());
  const auto resident = [&a](std::size_t r) {
    return a.location(static_cast<int>(r)) == Loc::kDevice;
  };

  // Device half's sources, marked before the pulls queue behind them. Faces
  // crossing devices take the host half, so no peer copies.
  const auto sources = a.mark_sources(bc, /*peers=*/false);

  // What the host waits for before it writes a resident region's ghost
  // boxes: the transfers that read them, its last upload and its previous
  // push. The mark on its stream follows both and precedes this exchange's
  // pull, which writes only valid cells. None (-1) when no transfer touches
  // its host buffer or its stream was idle. Any other region waits as for
  // a source (kAsSource): an evicted region's eviction may write its
  // ghosts.
  constexpr sim::EventId kAsSource = -2;
  std::vector<sim::EventId> ghosts_quiet(n, kAsSource);
  for (std::size_t r = 0; r < n; ++r) {
    const cuemStream_t s = sources.stream[r];
    if (s >= 0 && a.pending_xfer_[r] < 0) {
      ghosts_quiet[r] = -1;
    } else if (s >= 0 && a.pending_xfer_[r] == s &&
               sources.event.contains(s)) {
      ghosts_quiet[r] = sources.on(s);
    }
  }

  // Host half, pulls: one event per pulled region marks its cells home.
  // Last-use order, so each pull leaves as its source's last kernel ends
  // instead of queueing on the D2H engine behind a later-finishing one.
  const std::vector<std::size_t>& host = half.copies;
  const auto& pulls = half.pulls;
  std::vector<sim::EventId> pulled(n, -1);
  for (const int region : a.drain_order()) {
    const auto r = static_cast<std::size_t>(region);
    if (pulls[r].empty()) {
      continue;
    }
    const cuem::DeviceGuard guard(a.device_of_region(region));
    const cuemStream_t stream = a.stream_of_region(region);
    a.copy_boxes(region, pulls[r], cuemMemcpyDeviceToHost, stream,
                 sim::PayloadKind::kFaceShell);
    for (const tida::Box& b : pulls[r]) {
      a.dirty_.note_device_shipped(region, b);
    }
    pulled[r] = p.record_event(stream);
  }

  // The replay kernels. A resident region the host half pushes into waits
  // on the replay only once its push is queued: the push writes ghost
  // boxes the replay neither reads nor writes (each ghost cell has one
  // source in the plan), so it runs beside the replay. Every other stream
  // waits at once.
  const auto edges = a.exchange_on_devices(bc, /*peers=*/false, sources);
  std::vector<char> pushes(n, 0);
  for (const std::size_t c : host) {
    pushes[static_cast<std::size_t>(plan[c].dst_region)] = 1;
  }
  std::vector<cuemStream_t> late;
  for (std::size_t r = 0; r < n; ++r) {
    pushes[r] = resident(r) &&
                (pushes[r] || !a.dirty_.host_clean(static_cast<int>(r)));
    if (pushes[r]) {
      late.push_back(sources.stream[r]);
    }
  }
  for (const auto& [done, streams] : edges) {
    for (const cuemStream_t s : streams) {
      if (std::find(late.begin(), late.end(), s) == late.end()) {
        p.stream_wait_event(s, done);
      }
    }
  }

  // The event after which a source's host buffer is quiet: its pull, else
  // the eviction D2H still draining into it, else none (-1).
  const auto settled = [&](std::size_t r) {
    if (pulled[r] >= 0) {
      return pulled[r];
    }
    return a.pending_xfer_[r] >= 0 && !resident(r) ? a.evicted_[r]
                                                   : sim::EventId{-1};
  };
  // When the host could first read a region's valid cells (`src`) or
  // write its ghost boxes.
  const auto ready_at = [&](std::size_t r, bool src) {
    if (!src && ghosts_quiet[r] != kAsSource) {
      return ghosts_quiet[r] >= 0 ? p.event_finish(ghosts_quiet[r])
                                  : SimTime{0};
    }
    const sim::EventId e = settled(r);
    if (e >= 0) {
      return p.event_finish(e);
    }
    return a.pending_xfer_[r] >= 0 ? p.stream_avail(a.pending_xfer_[r])
                                   : SimTime{0};
  };

  // Destination groups (ranges of `host`) in the order a host polling
  // those events sees them become ready.
  struct Group {
    std::size_t begin = 0;
    std::size_t end = 0;
    SimTime ready = 0;
  };
  std::vector<Group> groups;
  for (std::size_t begin = 0; begin < host.size();) {
    Group g{begin, begin};
    const int dst = plan[host[begin]].dst_region;
    g.ready = ready_at(static_cast<std::size_t>(dst), /*src=*/false);
    for (; g.end < host.size() && plan[host[g.end]].dst_region == dst;
         ++g.end) {
      g.ready = std::max(
          g.ready, ready_at(static_cast<std::size_t>(
                                plan[host[g.end]].src_region),
                            /*src=*/true));
    }
    groups.push_back(g);
    begin = g.end;
  }
  std::stable_sort(groups.begin(), groups.end(),
                   [](const Group& x, const Group& y) {
                     return x.ready < y.ready;
                   });

  const auto wait = [&p](sim::EventId e) {
    if (p.event_finish(e) <= p.now()) {
      p.hb_note_event_query_success(e);  // a successful poll
    } else {
      p.sync_event(e);
    }
  };
  // A source's valid cells must be home: its pull, else its eviction,
  // else every transfer still touching its buffer. A region already pushed
  // had its ghost wait, after which only its pull writes the buffer, and
  // its push, queued behind what it waited for, keeps it pending.
  std::vector<char> quiet(n, 0);
  std::vector<char> done(n, 0);
  const auto quiesce = [&](int region) {
    const auto r = static_cast<std::size_t>(region);
    if (quiet[r]) {
      return;
    }
    quiet[r] = 1;
    const sim::EventId e = settled(r);
    if (e >= 0) {
      wait(e);
      if (!done[r]) {
        a.pending_xfer_[r] = -1;
      }
    } else if (!done[r]) {
      a.sync_pending_host(region);
    }
  };
  const auto push = [&](int region) {
    const auto r = static_cast<std::size_t>(region);
    done[r] = 1;
    if (!pushes[r]) {
      return;  // evicted regions take their ghosts at the next acquire
    }
    const cuem::DeviceGuard guard(a.device_of_region(region));
    const cuemStream_t stream = sources.stream[r];
    a.copy_boxes(region, a.dirty_.host_dirty(region), cuemMemcpyHostToDevice,
                 stream, sim::PayloadKind::kGhostRefresh);
    a.dirty_.clear_host(region);
    for (const auto& [event, streams] : edges) {
      if (std::find(streams.begin(), streams.end(), stream) != streams.end()) {
        p.stream_wait_event(stream, event);
      }
    }
  };

  for (const Group& g : groups) {
    const int dst = plan[host[g.begin]].dst_region;
    const sim::EventId ghosts = ghosts_quiet[static_cast<std::size_t>(dst)];
    if (ghosts == kAsSource) {
      quiesce(dst);
    } else if (ghosts >= 0 && !injected("ghost_push_race")) {
      // The injected defect writes the ghost boxes while the previous
      // push or upload may still read them (sanitizer regression bait).
      wait(ghosts);
    }
    for (std::size_t i = g.begin; i < g.end; ++i) {
      quiesce(plan[host[i]].src_region);
    }
    // The freshened ghost boxes are host writes the device has not seen.
    const std::span<const std::size_t> copies(host.data() + g.begin,
                                              g.end - g.begin);
    cuem::Claims claims("streaming_exchange");
    for (const std::size_t c : copies) {
      a.add_ghost_boxes(claims, plan[c], /*on_host=*/true);
    }
    cuem::claim(-1, claims);
    a.fill_boundary_host(bc, copies);
    for (const std::size_t c : copies) {
      a.dirty_.note_host_write(dst, plan[c].dst_box);
    }
    push(dst);
  }
  // Resident regions no host-path ghost lands in may still carry
  // host-dirty boxes.
  for (std::size_t r = 0; r < n; ++r) {
    if (!done[r]) {
      push(static_cast<int>(r));
    }
  }
  ++a.streaming_exchanges_;
}

}  // namespace detail
}  // namespace tidacc::core

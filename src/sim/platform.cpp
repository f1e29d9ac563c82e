#include "sim/platform.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "sim/op_graph.hpp"
#include "sim/snapshot.hpp"

namespace tidacc::sim {

std::unique_ptr<Platform> Platform::g_instance;

bool hb_leq(const HbClock& a, const HbClock& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    const std::uint64_t bi = i < b.size() ? b[i] : 0;
    if (a[i] > bi) {
      return false;
    }
  }
  return true;
}

void hb_join(HbClock& into, const HbClock& from) {
  if (from.size() > into.size()) {
    into.resize(from.size(), 0);
  }
  for (size_t i = 0; i < from.size(); ++i) {
    into[i] = std::max(into[i], from[i]);
  }
}

const char* to_string(HostMemKind k) {
  switch (k) {
    case HostMemKind::kPageable:
      return "pageable";
    case HostMemKind::kPinned:
      return "pinned";
    case HostMemKind::kManaged:
      return "managed";
  }
  return "?";
}

Platform::Platform(DeviceConfig cfg, bool functional, int num_devices,
                   Interconnect interconnect)
    : cfg_(std::move(cfg)),
      functional_(functional),
      num_devices_(num_devices),
      interconnect_(std::move(interconnect)) {
  TIDACC_CHECK_MSG(cfg_.copy_engines == 1 || cfg_.copy_engines == 2,
                   "copy_engines must be 1 or 2");
  TIDACC_CHECK_MSG(cfg_.compute_lanes >= 1, "need at least 1 compute lane");
  TIDACC_CHECK_MSG(num_devices_ >= 1 && num_devices_ <= 64,
                   "num_devices must be in [1, 64]");
  device_lanes_.resize(static_cast<size_t>(num_devices_));
  for (int d = 0; d < num_devices_; ++d) {
    auto& el = device_lanes_[static_cast<size_t>(d)];
    el.lanes[static_cast<int>(EngineId::kCompute)].assign(
        static_cast<size_t>(cfg_.compute_lanes), 0);
    el.lanes[static_cast<int>(EngineId::kCopyH2D)].assign(1, 0);
    el.lanes[static_cast<int>(EngineId::kCopyD2H)].assign(1, 0);
    // Stream d: device d's default stream.
    stream_avail_.push_back(0);
    stream_alive_.push_back(true);
    stream_device_.push_back(d);
  }
}

StreamId Platform::default_stream(int d) const {
  check_device(d);
  return d;
}

int Platform::stream_device(StreamId s) const {
  check_stream(s);
  return stream_device_[static_cast<size_t>(s)];
}

StreamId Platform::create_stream(int device) {
  check_device(device);
  stream_avail_.push_back(host_clock_);
  stream_alive_.push_back(true);
  stream_device_.push_back(device);
  if (hb_enabled_) {
    // A new stream inherits everything the host has observed so far.
    hb_streams_.resize(stream_avail_.size());
    hb_streams_.back() = hb_host_;
  }
  return static_cast<StreamId>(stream_avail_.size() - 1);
}

void Platform::set_hb_tracking(bool on) {
  hb_enabled_ = on;
  hb_host_.clear();
  hb_streams_.assign(stream_avail_.size(), HbClock{});
  hb_events_.clear();
  hb_last_op_.clear();
}

const HbClock& Platform::hb_stream_clock(StreamId s) const {
  check_stream(s);
  static const HbClock kEmpty;
  const auto si = static_cast<size_t>(s);
  return si < hb_streams_.size() ? hb_streams_[si] : kEmpty;
}

void Platform::hb_tick_host() {
  if (hb_enabled_) {
    if (hb_host_.empty()) {
      hb_host_.resize(1, 0);
    }
    ++hb_host_[0];
  }
}

void Platform::hb_note_stream_query_success(StreamId s) {
  check_stream(s);
  if (hb_enabled_ && static_cast<size_t>(s) < hb_streams_.size()) {
    hb_join(hb_host_, hb_streams_[static_cast<size_t>(s)]);
  }
  if (graph_ != nullptr) {
    graph_->on_host_join_stream(s);
  }
}

void Platform::hb_note_event_query_success(EventId e) {
  if (hb_enabled_ && e >= 0 && static_cast<size_t>(e) < hb_events_.size()) {
    hb_join(hb_host_, hb_events_[static_cast<size_t>(e)]);
  }
  if (graph_ != nullptr && e >= 0 &&
      static_cast<size_t>(e) < events_.size()) {
    graph_->on_host_join_event(e);
  }
}

std::vector<StreamId> Platform::live_user_streams() const {
  std::vector<StreamId> out;
  for (size_t s = static_cast<size_t>(num_devices_);
       s < stream_alive_.size(); ++s) {
    if (stream_alive_[s]) {
      out.push_back(static_cast<StreamId>(s));
    }
  }
  return out;
}

void Platform::destroy_stream(StreamId s) {
  check_stream(s);
  TIDACC_CHECK_MSG(s >= num_devices_, "a default stream cannot be destroyed");
  stream_alive_[static_cast<size_t>(s)] = false;
}

bool Platform::stream_idle(StreamId s) const {
  check_stream(s);
  return stream_avail_[static_cast<size_t>(s)] <= host_clock_;
}

SimTime Platform::stream_avail(StreamId s) const {
  check_stream(s);
  return stream_avail_[static_cast<size_t>(s)];
}

void Platform::sync_stream(StreamId s) {
  check_stream(s);
  host_clock_ = std::max(host_clock_ + cfg_.sync_overhead_ns,
                         stream_avail_[static_cast<size_t>(s)]);
  if (hb_enabled_ && static_cast<size_t>(s) < hb_streams_.size()) {
    hb_join(hb_host_, hb_streams_[static_cast<size_t>(s)]);
  }
  if (graph_ != nullptr) {
    graph_->on_host_join_stream(s);
  }
}

void Platform::sync_all() {
  SimTime latest = host_clock_ + cfg_.sync_overhead_ns;
  for (size_t s = 0; s < stream_avail_.size(); ++s) {
    latest = std::max(latest, stream_avail_[s]);
  }
  host_clock_ = latest;
  if (hb_enabled_) {
    for (const HbClock& c : hb_streams_) {
      hb_join(hb_host_, c);
    }
  }
  if (graph_ != nullptr) {
    graph_->on_host_join_all();
  }
}

EngineId Platform::copy_engine_for(OpKind kind) const {
  switch (kind) {
    case OpKind::kCopyH2D:
    case OpKind::kPrefetchH2D:
    case OpKind::kMemcpy3DH2D:
    case OpKind::kMemcpyH2DCompressed:
    case OpKind::kMemcpy3DH2DCompressed:
    case OpKind::kCopyD2D:
    case OpKind::kUvmMigration:
      return EngineId::kCopyH2D;
    case OpKind::kCopyD2H:
    case OpKind::kMemcpy3DD2H:
    case OpKind::kMemcpyD2HCompressed:
    case OpKind::kMemcpy3DD2HCompressed:
      return cfg_.copy_engines == 2 ? EngineId::kCopyD2H : EngineId::kCopyH2D;
    default:
      TIDACC_FAIL("not a copy kind");
  }
}

namespace {

/// Packed identity of a device-table engine lane for OpGraph bookkeeping
/// (external lanes — fabric NIC timelines — key by pointer instead).
std::uint64_t graph_lane_key(int device, EngineId engine,
                             std::ptrdiff_t lane) {
  return (static_cast<std::uint64_t>(device) << 32) |
         (static_cast<std::uint64_t>(static_cast<int>(engine)) << 16) |
         static_cast<std::uint64_t>(lane);
}

}  // namespace

SimTime Platform::schedule(StreamId s, int device, EngineId engine,
                           OpKind kind, SimTime duration, std::uint64_t bytes,
                           std::string label,
                           const std::function<void()>& action,
                           std::uint64_t wire_bytes) {
  auto& engine_lanes = lanes(device, engine);
  // The op takes the earliest-available lane of its engine.
  auto lane = std::min_element(engine_lanes.begin(), engine_lanes.end());
  const SimTime start = std::max(
      {host_clock_, stream_avail_[static_cast<size_t>(s)], *lane});
  const SimTime finish = start + duration;
  *lane = finish;
  return commit(s, device, engine, kind, start, finish, bytes,
                std::move(label), action, wire_bytes,
                {graph_lane_key(device, engine, lane - engine_lanes.begin())});
}

SimTime Platform::commit(StreamId s, int device, EngineId engine,
                         OpKind kind, SimTime start, SimTime finish,
                         std::uint64_t bytes, std::string&& label,
                         const std::function<void()>& action,
                         std::uint64_t wire_bytes,
                         std::initializer_list<std::uint64_t> lane_keys,
                         const std::vector<SimTime*>* ext_lanes) {
  const size_t si = static_cast<size_t>(s);
  stream_avail_[si] = finish;
  last_op_start_ = start;
  last_op_finish_ = finish;
  if (hb_enabled_) {
    hb_tick_host();
    if (si >= hb_streams_.size()) {
      hb_streams_.resize(si + 1);
    }
    // host→op edge at enqueue, then the op ticks its stream component.
    HbClock& sc = hb_streams_[si];
    hb_join(sc, hb_host_);
    if (sc.size() <= si + 1) {
      sc.resize(si + 2, 0);
    }
    ++sc[si + 1];
    hb_last_op_ = sc;
  }
  if (graph_ != nullptr) {
    OpGraph::SchedRecord rec;
    rec.stream = s;
    rec.device = device;
    rec.engine = engine;
    rec.kind = kind;
    rec.start = start;
    rec.finish = finish;
    rec.bytes = bytes;
    rec.label = &label;
    rec.hb = hb_enabled_ ? &hb_last_op_ : nullptr;
    std::vector<const void*> ext_keys;
    if (ext_lanes != nullptr) {
      ext_keys.assign(ext_lanes->begin(), ext_lanes->end());
    }
    graph_->on_scheduled(rec, lane_keys, ext_keys);
  }
  if (trace_.recording()) {
    trace_.add(TraceEvent{engine, s, kind, start, finish, bytes,
                          std::move(label), device, wire_bytes});
  } else {
    trace_.note(kind, start, finish, bytes, wire_bytes);
  }
  if (functional_ && action) {
    action();
  }
  return finish;
}

void Platform::set_transfer_jitter(SimTime max_ns, std::uint64_t seed) {
  jitter_max_ns_ = max_ns;
  jitter_state_ = seed;
}

SimTime Platform::next_jitter() {
  if (jitter_max_ns_ == 0) {
    return 0;
  }
  jitter_state_ =
      jitter_state_ * 6364136223846793005ull + 1442695040888963407ull;
  return (jitter_state_ >> 33) % (jitter_max_ns_ + 1);
}

SimTime copy_ns(const DeviceConfig& cfg, const CopyRequest& req) {
  double gbps = 0.0;
  SimTime setup = cfg.transfer_latency_ns;
  switch (req.kind) {
    case OpKind::kMemcpy3DH2D:
    case OpKind::kMemcpy3DH2DCompressed:
      setup += cfg.memcpy3d_overhead_ns(req.bytes, req.chunks);
      [[fallthrough]];
    case OpKind::kCopyH2D:
    case OpKind::kPrefetchH2D:
    case OpKind::kMemcpyH2DCompressed:
      if (req.host_mem == HostMemKind::kPinned) {
        gbps = cfg.pinned_h2d_gbps;
      } else {
        gbps = cfg.pageable_h2d_gbps;
        setup += cfg.pageable_staging_ns;
      }
      break;
    case OpKind::kMemcpy3DD2H:
    case OpKind::kMemcpy3DD2HCompressed:
      setup += cfg.memcpy3d_overhead_ns(req.bytes, req.chunks);
      [[fallthrough]];
    case OpKind::kCopyD2H:
    case OpKind::kMemcpyD2HCompressed:
      if (req.host_mem == HostMemKind::kPinned) {
        gbps = cfg.pinned_d2h_gbps;
      } else {
        gbps = cfg.pageable_d2h_gbps;
        setup += cfg.pageable_staging_ns;
      }
      break;
    case OpKind::kCopyD2D:
      gbps = cfg.d2d_gbps;
      break;
    case OpKind::kUvmMigration:
      gbps = cfg.uvm_migrate_gbps;
      break;
    default:
      TIDACC_FAIL("copy priced with a non-copy OpKind");
  }

  if (req.gbps_override > 0.0) {
    gbps = req.gbps_override;
  }
  // A compressed copy streams the logical payload through the codec on
  // each side but only the shrunken wire bytes across the link: its
  // duration is encode + wire-at-ratio + decode, serialized (the chunked
  // pipelined codec is future work, so this prices the conservative case).
  std::uint64_t link_bytes = req.bytes;
  SimTime codec_ns = 0;
  if (is_compressed(req.kind)) {
    TIDACC_CHECK_MSG(cfg.codec.available,
                     "compressed copy on a config without a codec "
                     "(DeviceConfig::codec.available is false)");
    TIDACC_CHECK_MSG(req.wire_bytes > 0 && req.wire_bytes <= req.bytes,
                     "compressed copy needs wire_bytes in (0, bytes]");
    link_bytes = req.wire_bytes;
    codec_ns = cfg.codec.codec_time_ns(req.bytes);
  }
  return setup + req.extra_ns + codec_ns + transfer_time_ns(link_bytes, gbps);
}

SimTime Platform::enqueue_copy(StreamId s, const CopyRequest& req,
                               std::function<void()> action) {
  check_stream(s);
  host_clock_ += cfg_.host_api_overhead_ns;
  const SimTime duration = copy_ns(cfg_, req) + next_jitter();
  // Pageable (and managed) host-link copies stage through the host.
  const bool host_participates =
      req.blocking || (req.host_mem != HostMemKind::kPinned &&
                       req.kind != OpKind::kCopyD2D &&
                       req.kind != OpKind::kUvmMigration);
  const int device = req.device_override >= 0
                         ? req.device_override
                         : stream_device_[static_cast<size_t>(s)];
  check_device(device);
  const SimTime finish = schedule(s, device, copy_engine_for(req.kind),
                                  req.kind, duration, req.bytes, req.label,
                                  action, is_compressed(req.kind)
                                              ? req.wire_bytes
                                              : 0);
  if (host_participates) {
    host_clock_ = std::max(host_clock_, finish);
    if (hb_enabled_) {
      // Blocking / staged transfers return with the data moved: the host
      // has observed the op complete.
      hb_join(hb_host_, hb_last_op_);
    }
    if (graph_ != nullptr) {
      graph_->on_host_join_last_op();
    }
  }
  return finish;
}

SimTime Platform::enqueue_kernel(StreamId s, const KernelProfile& profile,
                                 SimTime dispatch_extra_ns,
                                 std::function<void()> action,
                                 std::string label) {
  check_stream(s);
  host_clock_ += cfg_.host_api_overhead_ns + dispatch_extra_ns;
  const SimTime duration = cfg_.kernel_launch_ns + profile.duration_ns(cfg_);
  return schedule(s, stream_device_[static_cast<size_t>(s)],
                  EngineId::kCompute, OpKind::kKernel, duration, 0,
                  std::move(label), action);
}

SimTime Platform::enqueue_peer_copy(StreamId s, int src_device,
                                    int dst_device, std::uint64_t bytes,
                                    std::string label,
                                    std::function<void()> action) {
  check_stream(s);
  check_device(src_device);
  check_device(dst_device);
  TIDACC_CHECK_MSG(src_device != dst_device,
                   "peer copy between a device and itself");
  host_clock_ += cfg_.host_api_overhead_ns;
  const SimTime duration =
      interconnect_.latency(src_device, dst_device, num_devices_) +
      transfer_time_ns(bytes,
                       interconnect_.gbps(src_device, dst_device,
                                          num_devices_)) +
      next_jitter();
  // The transfer reads through the source's outbound DMA engine and writes
  // through the destination's inbound one; both lanes are held for the
  // duration, so peer traffic contends with each endpoint's own H2D/D2H
  // streams exactly like real dual-copy-engine hardware.
  const EngineId src_engine = copy_engine_for(OpKind::kCopyD2H);
  auto& src_lanes = lanes(src_device, src_engine);
  auto& dst_lanes = lanes(dst_device, EngineId::kCopyH2D);
  auto src_lane = std::min_element(src_lanes.begin(), src_lanes.end());
  auto dst_lane = std::min_element(dst_lanes.begin(), dst_lanes.end());
  const SimTime start =
      std::max({host_clock_, stream_avail_[static_cast<size_t>(s)],
                *src_lane, *dst_lane});
  const SimTime finish = start + duration;
  *src_lane = finish;
  *dst_lane = finish;
  return commit(
      s, dst_device, EngineId::kCopyH2D, OpKind::kCopyP2P, start, finish,
      bytes, std::move(label), action, /*wire_bytes=*/0,
      {graph_lane_key(src_device, src_engine, src_lane - src_lanes.begin()),
       graph_lane_key(dst_device, EngineId::kCopyH2D,
                      dst_lane - dst_lanes.begin())});
}

SimTime Platform::enqueue_external(StreamId s, int device, EngineId engine,
                                   OpKind kind, SimTime duration,
                                   std::uint64_t bytes, std::string label,
                                   const std::vector<SimTime*>& ext_lanes,
                                   std::function<void()> action,
                                   std::uint64_t wire_bytes) {
  check_stream(s);
  check_device(device);
  SimTime start = std::max(host_clock_, stream_avail_[static_cast<size_t>(s)]);
  for (SimTime* lane : ext_lanes) {
    TIDACC_CHECK_MSG(lane != nullptr, "enqueue_external: null lane");
    start = std::max(start, *lane);
  }
  const SimTime finish = start + duration + next_jitter();
  for (SimTime* lane : ext_lanes) {
    *lane = finish;
  }
  return commit(s, device, engine, kind, start, finish, bytes,
                std::move(label), action, wire_bytes, {}, &ext_lanes);
}

EventId Platform::record_event(StreamId s) {
  check_stream(s);
  host_clock_ += cfg_.host_api_overhead_ns;
  const SimTime t = std::max(host_clock_, stream_avail_[static_cast<size_t>(s)]);
  events_.push_back(t);
  if (hb_enabled_) {
    // The record is stream-ordered: the event carries everything enqueued
    // on the stream (and known to the host) before it.
    const auto si = static_cast<size_t>(s);
    if (si >= hb_streams_.size()) {
      hb_streams_.resize(si + 1);
    }
    hb_join(hb_streams_[si], hb_host_);
    hb_events_.resize(events_.size());
    hb_events_.back() = hb_streams_[si];
  }
  if (graph_ != nullptr) {
    graph_->on_event_record(s, static_cast<EventId>(events_.size() - 1), t,
                            stream_device_[static_cast<size_t>(s)],
                            hb_enabled_ ? &hb_events_.back() : nullptr);
  }
  if (trace_.recording()) {
    trace_.add(TraceEvent{EngineId::kCompute, s, OpKind::kEventRecord, t, t,
                          0, "event", stream_device_[static_cast<size_t>(s)]});
  } else {
    trace_.note(OpKind::kEventRecord, t, t, 0);
  }
  return static_cast<EventId>(events_.size() - 1);
}

void Platform::stream_wait_event(StreamId s, EventId e) {
  check_stream(s);
  TIDACC_CHECK(e >= 0 && static_cast<size_t>(e) < events_.size());
  host_clock_ += cfg_.host_api_overhead_ns;
  auto& avail = stream_avail_[static_cast<size_t>(s)];
  avail = std::max(avail, events_[static_cast<size_t>(e)]);
  if (hb_enabled_) {
    const auto si = static_cast<size_t>(s);
    if (si >= hb_streams_.size()) {
      hb_streams_.resize(si + 1);
    }
    hb_join(hb_streams_[si], hb_host_);
    if (static_cast<size_t>(e) < hb_events_.size()) {
      hb_join(hb_streams_[si], hb_events_[static_cast<size_t>(e)]);
    }
  }
  if (graph_ != nullptr) {
    graph_->on_stream_wait_event(s, e);
  }
}

SimTime Platform::event_finish(EventId e) const {
  TIDACC_CHECK(e >= 0 && static_cast<size_t>(e) < events_.size());
  return events_[static_cast<size_t>(e)];
}

void Platform::sync_event(EventId e) {
  host_clock_ =
      std::max(host_clock_ + cfg_.sync_overhead_ns, event_finish(e));
  if (hb_enabled_ && static_cast<size_t>(e) < hb_events_.size()) {
    hb_join(hb_host_, hb_events_[static_cast<size_t>(e)]);
  }
  if (graph_ != nullptr) {
    graph_->on_host_join_event(e);
  }
}

void Platform::check_stream(StreamId s) const {
  TIDACC_CHECK_MSG(
      s >= 0 && static_cast<size_t>(s) < stream_avail_.size() &&
          stream_alive_[static_cast<size_t>(s)],
      "invalid or destroyed stream id");
}

void Platform::check_device(int d) const {
  TIDACC_CHECK_MSG(device_valid(d), "invalid device ordinal");
}

template <typename Ar>
void Platform::fields(Ar& ar) {
  ar.section("platform");
  // Configuration fingerprint: enough to reject a restore into a platform
  // whose cost model or engine layout differs from the capturing one.
  ar.expect(std::tuple(cfg_.name, num_devices_, cfg_.copy_engines,
                       cfg_.compute_lanes, interconnect_.name),
            [this](const auto& snap) {
              return "snapshot: platform configuration mismatch (snapshot "
                     "was taken on '" +
                     std::get<0>(snap) + "' x" +
                     std::to_string(std::get<1>(snap)) + " over " +
                     std::get<4>(snap) + ", live platform is '" + cfg_.name +
                     "' x" + std::to_string(num_devices_) + " over " +
                     interconnect_.name + ")";
            });
  ar(functional_, host_clock_, stream_avail_, stream_alive_, stream_device_);
  ar.check(stream_alive_.size() == stream_avail_.size() &&
               stream_device_.size() == stream_avail_.size(),
           "snapshot: inconsistent stream tables");
  ar(device_lanes_);
  ar.check(device_lanes_.size() == static_cast<std::size_t>(num_devices_),
           "snapshot: engine-lane table device count mismatch");
  ar(events_, hb_enabled_, hb_host_, hb_streams_, hb_events_, hb_last_op_,
     last_op_start_, last_op_finish_, jitter_max_ns_, jitter_state_, trace_);
}

template void Platform::fields(SnapshotWriter&);
template void Platform::fields(SnapshotReader&);

Platform& Platform::instance() {
  if (!g_instance) {
    g_instance = std::make_unique<Platform>();
  }
  return *g_instance;
}

namespace {
std::uint64_t g_generation = 0;
}

void Platform::reset_instance(DeviceConfig cfg, bool functional,
                              int num_devices, Interconnect interconnect) {
  g_instance = std::make_unique<Platform>(std::move(cfg), functional,
                                          num_devices,
                                          std::move(interconnect));
  ++g_generation;
}

std::uint64_t Platform::generation() { return g_generation; }

}  // namespace tidacc::sim

// The simulated GPU platform.
//
// Model: one host thread with a virtual clock, plus N devices (default 1),
// each with one compute engine and one or two DMA copy engines. Streams are
// in-order FIFOs bound to their owning device; operations from different
// streams overlap whenever their engines are free — exactly CUDA's stream
// semantics, which is the mechanism the paper's TiDA-acc library exploits
// to hide transfer latency. Devices are connected by a configurable
// Interconnect (PCIe-through-host or NVLink-class P2P); direct peer copies
// occupy a DMA engine on both endpoints.
//
// Scheduling is resolved eagerly at enqueue time: an operation starts at
//   max(host-enqueue time, completion of stream predecessor, engine free)
// and the engine processes work in enqueue order (hardware DMA/launch
// queues are FIFO). This makes the whole simulation a deterministic O(1)
// bookkeeping step per operation — no event queue needed.
//
// Functional duality: each operation may carry a closure that performs the
// real data movement/kernel computation on host memory. In functional mode
// (tests, examples) closures run; in timing-only mode (paper-scale benches)
// they are skipped and only virtual time advances.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/device_config.hpp"
#include "sim/kernel_profile.hpp"
#include "sim/trace.hpp"

namespace tidacc::sim {

class OpGraph;

using StreamId = int;  ///< streams 0..N-1 are the per-device default
                       ///< streams, created at construction (N = device
                       ///< count; stream 0 is device 0's default stream)
using EventId = int;

/// Happens-before vector clock over the platform's timelines: component 0
/// is the host, component s+1 is stream s. Missing components read as 0.
/// a happens-before b iff a <= b componentwise (and a != b); incomparable
/// clocks mean the two points are concurrent — the racecheck condition.
using HbClock = std::vector<std::uint64_t>;

/// True when every component of `a` is <= the matching component of `b`.
bool hb_leq(const HbClock& a, const HbClock& b);

/// Componentwise max of `into` and `from`, grown as needed.
void hb_join(HbClock& into, const HbClock& from);

/// Kind of host memory participating in a transfer (affects bandwidth and
/// whether the host must block for staging).
enum class HostMemKind : int { kPageable = 0, kPinned = 1, kManaged = 2 };

const char* to_string(HostMemKind k);

/// Parameters of a copy submitted to the platform.
struct CopyRequest {
  OpKind kind = OpKind::kCopyH2D;  ///< kCopyH2D/kCopyD2H/kCopyD2D/kUvmMigration
  std::uint64_t bytes = 0;
  /// Contiguous runs of a pitched transfer (kMemcpy3D kinds): each chunk
  /// pays DeviceConfig::memcpy3d_chunk_ns of DMA descriptor cost (or the
  /// pack-kernel fallback, whichever is cheaper). 1 = contiguous.
  std::uint64_t chunks = 1;
  HostMemKind host_mem = HostMemKind::kPinned;
  bool blocking = false;  ///< synchronous API (cuemMemcpy): host waits
  SimTime extra_ns = 0;   ///< additive cost (e.g. UVM page-fault latency)
  double gbps_override = 0.0;  ///< replaces the config bandwidth when > 0
  /// Device whose DMA engine carries the copy; -1 means the stream's own
  /// device. Used by host-staged peer transfers, where the D2H hop runs on
  /// the source device and the H2D hop on the destination.
  int device_override = -1;
  /// On-the-wire byte count of a compressed kind (k*Compressed): the link
  /// carries these bytes while the codec stages stream the full logical
  /// payload. Must be in (0, bytes] for compressed kinds; ignored (and
  /// expected 0) for raw kinds.
  std::uint64_t wire_bytes = 0;
  std::string label;
};

/// Engine duration of a copy: per-transfer setup (plus the pageable
/// staging setup and the pitched-copy chunk overhead where they apply),
/// the codec stages of a compressed kind, and the link bytes at the
/// request's rate. The one price of a copy — Platform::enqueue_copy
/// schedules with it and adds only transfer jitter, while every
/// transfer-shape decision compares it across candidate requests. Host
/// issue cost (host_api_overhead_ns) is host time, not part of it.
SimTime copy_ns(const DeviceConfig& cfg, const CopyRequest& req);

/// Deterministic discrete-event model of host + N GPUs + interconnect.
class Platform {
 public:
  explicit Platform(DeviceConfig cfg = DeviceConfig::k40m(),
                    bool functional = true, int num_devices = 1,
                    Interconnect interconnect = Interconnect::pcie());

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  const DeviceConfig& config() const { return cfg_; }

  bool functional() const { return functional_; }

  // --- devices ---

  int num_devices() const { return num_devices_; }

  const Interconnect& interconnect() const { return interconnect_; }

  /// True when `d` names a device of this platform.
  bool device_valid(int d) const { return d >= 0 && d < num_devices_; }

  /// The default stream of device `d` (streams 0..N-1 map to devices 0..N-1).
  StreamId default_stream(int d) const;

  /// Device that owns stream `s`.
  int stream_device(StreamId s) const;

  // --- streams ---

  /// Creates a new stream on device `device` and returns its id.
  StreamId create_stream(int device = 0);

  /// Destroys a stream. Pending virtual work is allowed to complete (CUDA
  /// semantics: destruction is deferred), so this only invalidates the id.
  void destroy_stream(StreamId s);

  /// True when `s` names a live (created, not destroyed) stream.
  bool stream_valid(StreamId s) const {
    return s >= 0 && static_cast<size_t>(s) < stream_avail_.size() &&
           stream_alive_[static_cast<size_t>(s)];
  }

  /// True when `e` names a recorded event.
  bool event_valid(EventId e) const {
    return e >= 0 && static_cast<size_t>(e) < events_.size();
  }

  /// True when the stream has no work completing after the host clock
  /// (the analogue of cudaStreamQuery() == cudaSuccess).
  bool stream_idle(StreamId s) const;

  /// Virtual time at which all currently enqueued work on `s` completes.
  SimTime stream_avail(StreamId s) const;

  // --- host timeline ---

  /// Current host virtual time.
  SimTime now() const { return host_clock_; }

  /// Advances the host clock by `ns` (models host-side computation).
  void host_advance(SimTime ns) { host_clock_ += ns; }

  /// Blocks the host until stream `s` drains.
  void sync_stream(StreamId s);

  /// Blocks the host until every stream drains.
  void sync_all();

  // --- operations ---

  /// Enqueues a copy; returns its virtual completion time. `action` performs
  /// the real memmove in functional mode. Pageable transfers and blocking
  /// requests hold the host until completion (CUDA staging semantics).
  SimTime enqueue_copy(StreamId s, const CopyRequest& req,
                       std::function<void()> action);

  /// Enqueues a kernel; returns its virtual completion time.
  /// `dispatch_extra_ns` models runtime-specific launch overhead on top of
  /// the base CUDA launch latency (e.g. the OpenACC runtime's dispatch).
  SimTime enqueue_kernel(StreamId s, const KernelProfile& profile,
                         SimTime dispatch_extra_ns,
                         std::function<void()> action, std::string label);

  /// Enqueues a direct peer-to-peer copy over the interconnect; returns its
  /// virtual completion time. The copy is stream-ordered on `s` and
  /// occupies a DMA engine on both the source and the destination device
  /// (the trace records it once, on the destination). Callers are expected
  /// to have verified peer access; host-staged fallbacks go through two
  /// enqueue_copy calls instead.
  SimTime enqueue_peer_copy(StreamId s, int src_device, int dst_device,
                            std::uint64_t bytes, std::string label,
                            std::function<void()> action);

  /// Enqueues an operation on an engine whose serialization lanes live
  /// outside the per-device engine tables — e.g. the NIC TX/RX timelines
  /// owned by sim::Fabric. The op is stream-ordered on `s`, serialized on
  /// every caller-owned lane in `lanes` (each advanced to the finish time),
  /// records with `engine`/`kind` on `device`, and gets the same
  /// happens-before treatment as any scheduled op. The transfer-jitter
  /// perturbation applies, so fuzzed schedules explore fabric timing too.
  /// The caller prices host-side submission cost itself (host_advance);
  /// no host_api_overhead is charged here.
  /// `wire_bytes` records the on-the-wire byte count of a compressed
  /// operation in the trace (0 for raw operations); it does not affect
  /// pricing — `duration` is caller-computed here.
  SimTime enqueue_external(StreamId s, int device, EngineId engine,
                           OpKind kind, SimTime duration, std::uint64_t bytes,
                           std::string label,
                           const std::vector<SimTime*>& lanes,
                           std::function<void()> action,
                           std::uint64_t wire_bytes = 0);

  /// Records an event on the stream; completes when prior work completes.
  EventId record_event(StreamId s);

  /// Makes subsequent work on `s` wait for `e` (cudaStreamWaitEvent).
  void stream_wait_event(StreamId s, EventId e);

  /// Virtual completion time of a recorded event.
  SimTime event_finish(EventId e) const;

  /// Blocks the host until event `e` completes.
  void sync_event(EventId e);

  // --- happens-before export (consumed by the cuem sanitizer) ---
  //
  // When tracking is on, the platform maintains one vector clock per
  // timeline and updates it on every edge its scheduling model defines:
  // host→op at enqueue, stream program order, host joins on sync_stream /
  // sync_all / sync_event / blocking (host-participating) transfers, event
  // record/wait edges, and successful completion polls (note_query_*).
  // Engine/lane FIFO serialization is deliberately NOT an edge: it orders
  // ops in this simulator but not on real hardware, which is exactly the
  // class of latent race the sanitizer exists to expose. Clock maintenance
  // never touches the virtual clocks, so timing is identical either way.

  bool hb_tracking() const { return hb_enabled_; }
  void set_hb_tracking(bool on);

  const HbClock& hb_host_clock() const { return hb_host_; }
  const HbClock& hb_stream_clock(StreamId s) const;

  /// Advances the host's own clock component. Called on every enqueue and
  /// by the sanitizer on every host memory access it records, so a host
  /// access issued after an async enqueue is concurrent with the op (not
  /// ordered before it) until a sync/event/query edge joins them.
  void hb_tick_host();

  /// Host observed stream `s` drained via a successful query — an edge in
  /// real CUDA (memory effects are visible after cudaStreamQuery succeeds).
  void hb_note_stream_query_success(StreamId s);
  /// Same for a successful event completion poll.
  void hb_note_event_query_success(EventId e);

  /// Virtual start/finish of the most recently scheduled op (independent of
  /// trace recording, which benches disable).
  SimTime last_op_start() const { return last_op_start_; }
  SimTime last_op_finish() const { return last_op_finish_; }

  // --- op-dependency graph extraction (sim/op_graph.hpp) ---
  //
  // While a graph is attached, every scheduled op becomes a node and every
  // ordering the scheduler enforces becomes a typed edge (stream FIFO,
  // engine lanes, event waits, host observation; the fabric adds credit/CQ
  // edges through the same attachment). Zero cost when detached (one
  // pointer check per op). The graph is NOT part of snapshots: attach a
  // fresh one after any restore.

  /// Attaches `g` (or detaches with nullptr). The graph only sees ops
  /// scheduled while attached, so attach before the work of interest.
  void set_op_graph(OpGraph* g) { graph_ = g; }
  OpGraph* op_graph() const { return graph_; }

  /// Live non-default streams (leak sweep at device reset).
  std::vector<StreamId> live_user_streams() const;

  // --- trace ---

  Trace& trace() { return trace_; }
  const Trace& trace() const { return trace_; }

  // --- schedule perturbation (fuzzing knob) ---

  /// Adds a deterministic pseudo-random 0..max_ns extension to the duration
  /// of every subsequent transfer (plain, pitched, peer). The perturbation
  /// stream is seeded explicitly and advances once per transfer, so a given
  /// (seed, op sequence) always produces the same timeline — it shifts
  /// completion times enough to flip stream/event query outcomes and engine
  /// assignments, which is exactly the schedule-space exploration the
  /// fuzzer needs, without breaking replayability. 0 disables (default).
  void set_transfer_jitter(SimTime max_ns, std::uint64_t seed);

  // --- snapshot ---

  /// Snapshot field list (sim/snapshot.hpp): the complete platform state
  /// (clocks, engine lanes, streams, events, vector clocks, trace, jitter
  /// stream). Restore reinstates it in place; the live platform must have
  /// a compatible configuration (same device config name, device count,
  /// engine/lane layout and interconnect), and a mismatch is refused with
  /// a clear error rather than resurrecting a world the cost model cannot
  /// have produced.
  template <typename Ar>
  void fields(Ar& ar);

  // --- process-wide instance used by the cuem C API ---

  /// Returns the global platform, creating a default one on first use.
  static Platform& instance();

  /// Replaces the global platform (device reset / reconfiguration).
  static void reset_instance(DeviceConfig cfg = DeviceConfig::k40m(),
                             bool functional = true, int num_devices = 1,
                             Interconnect interconnect = Interconnect::pcie());

  /// Monotone counter bumped on every reset_instance; layers that cache
  /// stream handles compare it to know when their state went stale.
  static std::uint64_t generation();

 private:
  void check_stream(StreamId s) const;
  void check_device(int d) const;
  EngineId copy_engine_for(OpKind kind) const;
  SimTime next_jitter();
  SimTime schedule(StreamId s, int device, EngineId engine, OpKind kind,
                   SimTime duration, std::uint64_t bytes, std::string label,
                   const std::function<void()>& action,
                   std::uint64_t wire_bytes = 0);
  /// The tail every scheduled op shares once its lanes are advanced: stream
  /// order, happens-before bump, graph record (`lane_keys` name the
  /// device-table lanes it held, `ext_lanes` the caller-owned ones), trace
  /// record and the functional action. Returns `finish`.
  SimTime commit(StreamId s, int device, EngineId engine, OpKind kind,
                 SimTime start, SimTime finish, std::uint64_t bytes,
                 std::string&& label, const std::function<void()>& action,
                 std::uint64_t wire_bytes,
                 std::initializer_list<std::uint64_t> lane_keys,
                 const std::vector<SimTime*>* ext_lanes = nullptr);
  std::vector<SimTime>& lanes(int device, EngineId engine) {
    return device_lanes_[static_cast<size_t>(device)]
        .lanes[static_cast<int>(engine)];
  }

  DeviceConfig cfg_;
  bool functional_ = true;
  int num_devices_ = 1;
  Interconnect interconnect_;
  SimTime host_clock_ = 0;
  std::vector<SimTime> stream_avail_;
  std::vector<bool> stream_alive_;
  std::vector<int> stream_device_;
  /// Per-device, per-engine lane availability (compute may have several
  /// concurrent lanes; DMA engines have one each).
  struct EngineLanes {
    std::vector<SimTime> lanes[kNumEngines];

    template <typename Ar>
    void fields(Ar& ar) {
      ar(lanes);
    }
  };
  std::vector<EngineLanes> device_lanes_;
  std::vector<SimTime> events_;
  Trace trace_;

  // Happens-before bookkeeping (all empty/idle unless hb_enabled_).
  bool hb_enabled_ = false;
  HbClock hb_host_;
  std::vector<HbClock> hb_streams_;
  std::vector<HbClock> hb_events_;
  HbClock hb_last_op_;
  SimTime last_op_start_ = 0;
  SimTime last_op_finish_ = 0;

  // Attached op-dependency graph (nullptr = extraction off; not owned,
  // not snapshotted).
  OpGraph* graph_ = nullptr;

  // Transfer-jitter perturbation stream (LCG; 0 max = off).
  SimTime jitter_max_ns_ = 0;
  std::uint64_t jitter_state_ = 0;

  static std::unique_ptr<Platform> g_instance;
};

}  // namespace tidacc::sim

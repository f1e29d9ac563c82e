// Execution trace: every simulated operation is recorded with its engine,
// stream and time interval. The trace backs the Fig-7 style Gantt charts and
// the overlap/utilization metrics reported by the benches.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace tidacc::sim {

/// Hardware engines of the simulated device. Kernels serialize on the
/// compute engine; copies run on DMA engines (H2D and D2H are separate on
/// dual-copy-engine devices such as the K40m). kNic is the node's network
/// interface: its lanes are owned by sim::Fabric, not by the per-device
/// engine tables, so kNumEngines deliberately excludes it.
enum class EngineId : int { kCompute = 0, kCopyH2D = 1, kCopyD2H = 2,
                            kNic = 3 };
inline constexpr int kNumEngines = 3;

const char* to_string(EngineId e);

/// Kind of a simulated device operation. kPrefetchH2D is a host-to-device
/// copy issued by the slot scheduler ahead of demand — priced and routed
/// exactly like kCopyH2D but kept distinguishable in traces and Gantt
/// charts so overlap analyses can separate prefetch from demand traffic.
/// kCopyP2P is a direct device-to-device copy over the inter-device
/// interconnect (multi-device platforms only); it occupies DMA engines on
/// both endpoints but is recorded once, on the destination device.
/// kMemcpy3DH2D/kMemcpy3DD2H are pitched (strided sub-box) transfers issued
/// by cuemMemcpy3DAsync — priced with per-chunk DMA overhead on top of the
/// flat-copy model, routed like their flat counterparts, and kept
/// distinguishable so delta-transfer traffic is visible in traces.
/// kNetSend/kRdmaRead/kRdmaWrite are inter-node fabric operations issued by
/// sim::Fabric work requests; they occupy NIC lanes (EngineId::kNic), never
/// the device DMA engines, and are recorded on the initiating node's first
/// device. The *Compressed kinds are the same transfers routed through an
/// on-the-fly link codec (DeviceConfig::codec): priced as
/// encode + wire-at-ratio + decode, routed and happens-before-tracked
/// exactly like their raw counterparts, and kept distinguishable so
/// compressed traffic is visible in traces and Gantt charts. New kinds must
/// be appended at the end: the snapshot format serializes OpKind as an int.
enum class OpKind : int {
  kKernel = 0,
  kCopyH2D,
  kCopyD2H,
  kCopyD2D,
  kEventRecord,
  kUvmMigration,
  kPrefetchH2D,
  kCopyP2P,
  kMemcpy3DH2D,
  kMemcpy3DD2H,
  kNetSend,
  kRdmaRead,
  kRdmaWrite,
  kMemcpyH2DCompressed,
  kMemcpyD2HCompressed,
  kMemcpy3DH2DCompressed,
  kMemcpy3DD2HCompressed
};

/// Number of OpKind enumerators. Every switch over OpKind in this module
/// is default-less, so -Wswitch makes omissions a compile error; this
/// constant lets tests sweep the full range (to_string/is_transfer/
/// is_compressed completeness) and must track the last enumerator above.
inline constexpr int kNumOpKinds =
    static_cast<int>(OpKind::kMemcpy3DD2HCompressed) + 1;

const char* to_string(OpKind k);

/// True for the compressed copy kinds (any direction, flat or pitched).
bool is_compressed(OpKind k);

/// True for every kind that moves bytes over a link or engine (PCIe DMA,
/// peer interconnect, UVM, fabric wire) — the "transfer" side of the
/// overlap analyses. False only for kKernel and kEventRecord.
bool is_transfer(OpKind k);

/// One completed operation in the simulated timeline.
struct TraceEvent {
  EngineId engine;
  int stream;
  OpKind kind;
  SimTime start;
  SimTime finish;
  std::uint64_t bytes = 0;  ///< logical payload bytes (0 for kernels)
  std::string label;
  int device = 0;  ///< device whose engine ran the op (dst for kCopyP2P)
  /// Bytes that actually crossed the link for compressed kinds; 0 for raw
  /// operations (wire == bytes).
  std::uint64_t wire_bytes = 0;

  /// Snapshot field list (sim/snapshot.hpp).
  template <typename Ar>
  void fields(Ar& ar) {
    ar(engine, stream, kind, start, finish, bytes, label, device, wire_bytes);
  }
};

/// Aggregate counters over a trace interval.
struct TraceStats {
  std::uint64_t h2d_bytes = 0;  ///< all H2D traffic, prefetch included
  std::uint64_t d2h_bytes = 0;
  /// Share of h2d_bytes moved by scheduler prefetches (kPrefetchH2D).
  std::uint64_t prefetch_h2d_bytes = 0;
  /// Share of h2d_bytes / d2h_bytes moved by pitched sub-box transfers
  /// (kMemcpy3DH2D / kMemcpy3DD2H — the delta-transfer paths).
  std::uint64_t memcpy3d_h2d_bytes = 0;
  std::uint64_t memcpy3d_d2h_bytes = 0;
  /// Direct peer-to-peer traffic over the inter-device interconnect.
  std::uint64_t p2p_bytes = 0;
  /// Inter-node traffic over the sim::Fabric (send + RDMA, either path).
  std::uint64_t net_bytes = 0;
  std::uint64_t num_kernels = 0;
  std::uint64_t num_copies = 0;
  /// Fabric work requests completed (kNetSend/kRdmaRead/kRdmaWrite);
  /// deliberately not counted into num_copies so device-only baselines
  /// keep their exact copy counts.
  std::uint64_t num_net_ops = 0;
  SimTime compute_busy = 0;  ///< total compute-engine busy time
  SimTime copy_busy = 0;     ///< total copy-engine busy time (both engines)
  SimTime nic_busy = 0;      ///< total NIC busy time across all nodes
  SimTime makespan = 0;      ///< last finish - first start
  /// Compressed-transfer split: logical payload bytes that took a
  /// compressed kind (also counted into h2d_bytes/d2h_bytes above) and the
  /// bytes those transfers actually put on the wire.
  std::uint64_t comp_h2d_bytes = 0;
  std::uint64_t comp_d2h_bytes = 0;
  std::uint64_t comp_h2d_wire_bytes = 0;
  std::uint64_t comp_d2h_wire_bytes = 0;
  /// One-shot runtime warnings surfaced through the stats path (e.g. the
  /// cluster out-of-core host-exchange fallback) — visible even when event
  /// recording is off.
  std::uint64_t num_warnings = 0;

  template <typename Ar>
  void fields(Ar& ar) {
    ar(h2d_bytes, d2h_bytes, prefetch_h2d_bytes, memcpy3d_h2d_bytes,
       memcpy3d_d2h_bytes, p2p_bytes, net_bytes, num_kernels, num_copies,
       num_net_ops, compute_busy, copy_busy, nic_busy, makespan,
       comp_h2d_bytes, comp_d2h_bytes, comp_h2d_wire_bytes,
       comp_d2h_wire_bytes, num_warnings);
  }
};

/// Append-only recorder. Recording can be disabled for long timing-only
/// benches where only the aggregate counters matter.
class Trace {
 public:
  void set_recording(bool on) { recording_ = on; }
  bool recording() const { return recording_; }

  void add(TraceEvent ev);

  /// Stats-only fast path for recording-off runs: updates the aggregate
  /// counters without materializing a TraceEvent (no label string, no
  /// vector growth). The platform's hot path takes this branch when
  /// recording is off so schedule fuzzing sustains thousands of restored
  /// iterations per second. `wire_bytes` is the on-the-wire byte count of
  /// a compressed kind (0 for raw operations).
  void note(OpKind kind, SimTime start, SimTime finish, std::uint64_t bytes,
            std::uint64_t wire_bytes = 0);

  /// One-shot-warning stats path: bumps TraceStats::num_warnings (always —
  /// this is the recording-off-safe signal) and, when recording, stores
  /// `message` so renderers can surface it. Callers own the one-shot
  /// latching; every call here counts.
  void note_warning(const std::string& message);

  /// Warning messages stored while recording (parallel to num_warnings
  /// only when recording stayed on throughout).
  const std::vector<std::string>& warnings() const { return warnings_; }

  void clear();

  /// Snapshot field list: recording flag, counters, warnings and events.
  template <typename Ar>
  void fields(Ar& ar) {
    ar.section("trace");
    ar(recording_, stats_, warnings_, events_);
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  const TraceStats& stats() const { return stats_; }

  /// Renders an ASCII Gantt chart with one row per (stream, engine-kind)
  /// lane, in the style of the paper's Fig. 7. On multi-device traces each
  /// device gets its own group of lanes, prefixed "dN/". `columns` is the
  /// chart width.
  std::string render_gantt(int columns = 100) const;

  /// Fraction of the span between the first kernel's start and the last
  /// kernel's finish during which the compute engine was busy. 1.0 means
  /// transfers were completely hidden behind computation (the paper's
  /// full-overlap claim, Fig. 7). Returns 0 when no kernels ran. With
  /// multiple compute lanes the numerator sums busy time across lanes and
  /// the result may exceed 1.
  double compute_utilization() const;

  /// Serializes the trace in Chrome-tracing ("catapult") JSON array format:
  /// load the output in chrome://tracing or https://ui.perfetto.dev to
  /// inspect the timeline interactively. Engines map to tids, streams to
  /// the "stream" argument.
  std::string to_chrome_json() const;

 private:
  bool recording_ = true;
  std::vector<TraceEvent> events_;
  std::vector<std::string> warnings_;
  TraceStats stats_;
};

}  // namespace tidacc::sim

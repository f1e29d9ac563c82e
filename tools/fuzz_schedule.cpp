// Schedule fuzzer: restores a mid-workload world snapshot thousands of
// times and replays the remaining steps under mutated schedule knobs, with
// the cuem-sanitizer (fatal mode) as the primary oracle and a data
// checksum + determinism replay as secondary invariants (docs/FUZZING.md).
//
// Outer loop: draw *world* knobs (slot policy, delta transfers, caching
// ablation, slot budget, device count, node count, fabric preset, transfer
// compression policy, sibling array, ghost width, device placement) from
// the seed, build a fresh world, run a warmup step, and capture one
// snapshot (world + arrays). Inner loop: restore the snapshot, draw
// *dynamic* knobs (transfer jitter, prefetch depth, region visit order,
// residency-ordered traversal, split-phase overlap), and replay the tail.
// The workload is the Fig. 8 limited-memory halo pattern: a
// slab-decomposed MultiAccTileArray<double> doing fill_boundary + an
// in-place ghost-reading stencil each step. A world with
// the sibling knob carries a second array on the same layout, with its own
// field and its own halo step each step: the two share the layout's
// exchange schedule (descriptors, their upload and the wire groups), so a
// replay may find them built by the other array.
//
// Worlds with nodes > 1 run the same workload on a ClusterTileArray (its
// capture/restore carries the fabric's QP/MR/counter state through every
// replay), so the oracle also explores cross-node schedules: RDMA reads
// and staged sends racing the intra-node exchange, and — under the overlap
// dynamic knob — interior kernels running while ghost payloads are still
// on the wire. The final field must not depend on any of it.
//
// Because functional-mode kernels execute eagerly in program order, and the
// stencil reads cross-region data only through ghost cells frozen at
// fill_boundary, the final field is invariant under every dynamic knob —
// any checksum drift is a transfer-protocol bug. Races are invisible to the
// checksum (data is computed eagerly); those are the sanitizer's job.
//
// Exit codes: 0 all iterations clean, 1 failures found (repro files
// written), 77 when --expect-failure is set but the sanitizer is compiled
// out (ctest SKIP_RETURN_CODE). With --expect-failure the 0/1 meanings
// invert: the run *passes* iff a failure is detected (used by the
// injected-defect regression test, see common/inject.hpp).
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <ostream>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/acc_tile_array.hpp"
#include "core/cluster_tile_array.hpp"
#include "core/compute.hpp"
#include "core/multi_acc_array.hpp"
#include "core/slot_policy.hpp"
#include "core/world_snapshot.hpp"
#include "cuem/cuem.hpp"
#include "cuem/san.hpp"
#include "kernels/stencil27.hpp"
#include "oacc/oacc.hpp"
#include "sim/op_graph.hpp"
#include "sim/platform.hpp"

namespace {

using namespace tidacc;

// --- knobs ---
//
// Each knob struct lists its knobs once, in a fields(Ar&) template: the
// repro file writer and reader and the JSON report all run that list, so
// a failure's JSON entry carries every key of its repro file.

// Fixed per world config; changing any of these changes the snapshot.
struct WorldKnobs {
  core::SlotPolicyKind policy = core::SlotPolicyKind::kStaticModulo;
  bool delta = false;
  bool disable_caching = false;
  int max_slots = 3;
  int num_devices = 1;
  int n = 32;
  int regions = 8;
  // The fuzzer's worlds are small, so the cost-model guard would always
  // drain; forcing both branches keeps the streaming exchange (and the
  // eviction/re-acquire schedules it produces) in the explored space.
  core::StreamingGuard guard = core::StreamingGuard::kAuto;
  // Cluster worlds (nodes > 1) shard the regions over a ClusterTileArray
  // and push cross-node ghost faces through a sim::Fabric.
  int nodes = 1;
  std::string fabric = "infiniband";  ///< FabricConfig::parse input
  core::NetPath path = core::NetPath::kAuto;
  // core::Compression as an int (0 off, 1 on, 2 auto). A world knob: the
  // array constructors consume it, and the snapshot pins it. Compressed
  // copies move the same bytes in functional mode, so the checksum and
  // sanitizer oracles apply to the codec paths unchanged.
  int compression = 0;
  // A second array on the same layout (and options), stepped after the
  // first each step and captured and restored with it.
  bool sibling = false;
  // Ghost width: 1, or one more than the slab thickness, so every region
  // is thinner than its ghost and one source feeds several neighbours
  // (and, on cluster worlds, several wire groups) from the same cells.
  // The sweep reads only +-1, so either width is legal.
  int ghost = 1;
  // Region->device placement of multi-device and cluster worlds.
  core::DevicePlacement placement = core::DevicePlacement::kBlock;

  template <typename Ar>
  void fields(Ar& ar) {
    ar("policy", policy);
    ar("delta", delta);
    ar("disable_caching", disable_caching);
    ar("max_slots", max_slots);
    ar("num_devices", num_devices);
    ar("guard", guard);
    ar("n", n);
    ar("regions", regions);
    ar("nodes", nodes);
    ar("fabric", fabric);
    ar("net_path", path);
    ar("compression", compression);
    ar("sibling", sibling);
    ar("ghost", ghost);
    ar("placement", placement);
  }
};

// Mutated per iteration on top of a restored snapshot.
struct DynKnobs {
  std::uint64_t jitter_max = 0;   ///< ns added to each copy, 0 = off
  std::uint64_t jitter_seed = 0;
  int prefetch_depth = 0;         ///< regions prefetched ahead of the sweep
  std::uint64_t order_seed = 0;   ///< 0 = identity region visit order
  std::uint64_t stream_perm_seed = 0;  ///< 0 = identity slot->stream map
  bool overlap = false;  ///< split-phase exchange (cluster worlds only)
  /// Visit regions in the array's own GPU traversal order (residency
  /// ranks over the order_seed permutation), recomputed after each
  /// exchange.
  bool residency_order = false;
  int steps = 3;                  ///< tail steps replayed after restore

  template <typename Ar>
  void fields(Ar& ar) {
    ar("jitter_max", jitter_max);
    ar("jitter_seed", jitter_seed);
    ar("prefetch_depth", prefetch_depth);
    ar("order_seed", order_seed);
    ar("stream_perm_seed", stream_perm_seed);
    ar("overlap", overlap);
    ar("residency_order", residency_order);
    ar("steps", steps);
  }
};

WorldKnobs draw_world(std::uint64_t seed, std::uint64_t config_index,
                      int n, int regions, int force_nodes,
                      const std::string& force_fabric,
                      int force_compression) {
  Rng rng(seed ^ (0x9e3779b97f4a7c15ull * (config_index + 1)));
  WorldKnobs w;
  w.n = n;
  w.regions = regions;
  switch (rng.next_below(3)) {
    case 0: w.policy = core::SlotPolicyKind::kStaticModulo; break;
    case 1: w.policy = core::SlotPolicyKind::kLru; break;
    default: w.policy = core::SlotPolicyKind::kBeladyOracle; break;
  }
  w.delta = rng.next_below(2) == 0;
  w.disable_caching = rng.next_below(8) == 0;
  // Keep the device under-provisioned so evictions (the interesting
  // protocol paths) happen, but leave headroom for the ghost exchange.
  w.max_slots =
      3 + static_cast<int>(rng.next_below(
              static_cast<std::uint64_t>(regions > 3 ? regions - 3 : 1)));
  w.num_devices = rng.next_below(4) == 0 ? 2 : 1;
  switch (rng.next_below(4)) {
    case 0: w.guard = core::StreamingGuard::kForceDrain; break;
    case 1: w.guard = core::StreamingGuard::kAuto; break;
    // Half the worlds force the streaming exchange: it is the path with
    // in-flight cross-stream transfers, where schedule bugs live.
    default: w.guard = core::StreamingGuard::kForceStreaming; break;
  }
  // A third of the worlds go cluster (--nodes / --fabric pin the draw).
  w.nodes = force_nodes > 0 ? force_nodes
                            : (rng.next_below(3) == 0 ? 2 : 1);
  if (w.nodes > 1) {
    // One or two devices per node; the latter keeps intra-node peer
    // copies racing the wire traffic inside the same exchange epoch.
    w.num_devices = w.nodes * (rng.next_below(4) == 0 ? 2 : 1);
    w.fabric = force_fabric.empty()
                   ? (rng.next_below(2) == 0 ? "ethernet" : "infiniband")
                   : force_fabric;
    // kAuto rides GPUDirect whenever the preset permits it; kStaged keeps
    // the pinned-host bounce in the explored space even on infiniband.
    w.path = rng.next_below(2) == 0 ? core::NetPath::kAuto
                                    : core::NetPath::kStaged;
    // The wire path engages only when every region is slot-resident, so
    // most cluster worlds get a full slot budget; the rest stay
    // under-provisioned and fuzz the host-fallback exchange instead.
    if (rng.next_below(4) != 0) {
      w.max_slots = regions + w.num_devices;
    }
  }
  // Drawn last on purpose: every seed's pre-compression knobs stay what
  // they were, so existing repro files and the injected-defect regression
  // keep their schedules. On cluster worlds the knob drives both the PCIe
  // legs (MultiAccOptions::compression) and the wire (ClusterOptions).
  w.compression = force_compression >= 0
                      ? force_compression
                      : static_cast<int>(rng.next_below(3));
  // Drawn after everything else for the same reason.
  w.sibling = rng.next_below(2) == 0;
  // Drawn last, for the same reason. A quarter of the worlds: their
  // exchanges move several times the bytes, so they cost about twice the
  // iteration time of a ghost-1 world.
  const int slab = (w.n + w.regions - 1) / w.regions;
  w.ghost = rng.next_below(4) == 0 ? slab + 1 : 1;
  // Drawn last, for the same reason. Round-robin puts neighbouring regions
  // on different devices (and, with one device per node, on different
  // nodes), so nearly every face becomes a peer copy or a wire message.
  if (rng.next_below(2) == 0 && w.num_devices > 1) {
    w.placement = core::DevicePlacement::kRoundRobin;
  }
  return w;
}

DynKnobs draw_dyn(std::uint64_t seed, std::uint64_t iter, int regions,
                  int steps) {
  Rng rng(seed ^ (0xbf58476d1ce4e5b9ull * (iter + 1)));
  DynKnobs d;
  d.steps = steps;
  d.jitter_max = rng.next_below(4) == 0 ? 0 : rng.next_below(20000);
  d.jitter_seed = rng.next_u64();
  d.prefetch_depth = static_cast<int>(
      rng.next_below(static_cast<std::uint64_t>(regions)));
  d.order_seed = rng.next_below(4) == 0 ? 0 : rng.next_u64();
  d.stream_perm_seed = rng.next_below(4) == 0 ? 0 : rng.next_u64();
  d.overlap = rng.next_below(2) == 0;  // ignored by non-cluster worlds
  // Drawn last, so every earlier knob keeps its value per seed.
  d.residency_order = rng.next_below(2) == 0;
  return d;
}

// --- workload (Fig. 8 limited-memory halo pattern) ---

std::vector<int> visit_order(int regions, std::uint64_t order_seed) {
  std::vector<int> order(static_cast<std::size_t>(regions));
  std::iota(order.begin(), order.end(), 0);
  if (order_seed != 0) {
    Rng rng(order_seed);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
  }
  return order;
}

/// The sweep's region visit order: the seeded permutation, or — with the
/// residency knob — the array's own GPU traversal over that permutation
/// (core::AccTileIterator), recomputed after each exchange because the
/// exchange is where residency settles for the sweep.
struct VisitOrder {
  std::vector<int> base;
  std::uint64_t seed = 0;
  bool residency = false;

  std::vector<int> after_exchange(core::MultiAccTileArray<double>& u) const {
    if (!residency) {
      return base;
    }
    core::AccTileIterator<double> it(u);
    if (seed != 0) {
      it.shuffle(seed);  // the same Fisher-Yates draw as visit_order()
    }
    std::vector<int> order;
    for (it.reset(/*gpu=*/true); it.isValid(); it.next()) {
      order.push_back(it.tile().tile.region.id);
    }
    return order;
  }
};

// The per-cell update every workload variant applies (reads ghosts from
// the grown box, writes only the region's own valid cells, so the result
// does not depend on the visit order or the device placement).
constexpr auto kSweepBody = [](core::DeviceView<double> v, int i, int j,
                               int k) {
  v(i, j, k) = 0.5 * v(i, j, k) +
               0.125 * (v(i - 1, j, k) + v(i + 1, j, k) + v(i, j - 1, k) +
                        v(i, j + 1, k));
};

void sweep_region(core::MultiAccTileArray<double>& u, int region,
                  const oacc::LoopCost& cost) {
  core::compute_gpu(u, region, cost, kSweepBody);
}

/// Fisher-Yates permutation of [0, slots); identity when seed == 0.
std::vector<int> stream_perm(int slots, std::uint64_t seed) {
  std::vector<int> perm(static_cast<std::size_t>(slots));
  std::iota(perm.begin(), perm.end(), 0);
  if (seed != 0) {
    Rng rng(seed);
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.next_below(i)]);
    }
  }
  return perm;
}

// Mutates the slot->stream assignment directly: every transfer and kernel
// a slot issues from here on rides a different hardware queue, reshuffling
// which operations can overlap. Event edges inside set_stream_permutation
// keep the dependency order, so the checksum must not move.
void apply_stream_perm(core::MultiAccTileArray<double>& u,
                       std::uint64_t seed) {
  if (seed == 0) return;
  for (int d = 0; d < u.num_devices(); ++d) {
    if (u.regions_of_device(d).empty()) continue;
    u.set_stream_permutation(
        d, stream_perm(u.num_slots(d),
                       seed ^ (0x9e3779b97f4a7c15ull *
                               static_cast<std::uint64_t>(d + 1))));
  }
}

// Sweeps the listed regions in order, prefetching the next `depth` after
// each kernel.
template <typename Array>
void sweep_all(Array& u, const std::vector<int>& order, int depth,
               const oacc::LoopCost& cost) {
  const int regions = static_cast<int>(order.size());
  for (int pos = 0; pos < regions; ++pos) {
    sweep_region(u, order[static_cast<std::size_t>(pos)], cost);
    for (int a = 1; a <= depth && pos + a < regions; ++a) {
      u.prefetch_to_device(order[static_cast<std::size_t>(pos + a)]);
    }
  }
}

// One halo step: exchange ghosts, then sweep every region in-place in the
// given order. The overlap knob only has a cluster meaning; here the
// exchange is always the blocking fill_boundary.
template <typename Array>
void halo_step(Array& u, const VisitOrder& order, int depth,
               const oacc::LoopCost& cost, bool /*overlap*/) {
  u.fill_boundary(tida::Boundary::kPeriodic);
  sweep_all(u, order.after_exchange(u), depth, cost);
}

// Cluster overload: with overlap on, node-interior regions compute while
// the cross-node ghost payloads are still on the wire. The sweep writes
// only valid cells and interior regions read no cross-node ghosts, so the
// final field must match the blocking replay bit for bit — overlap is a
// pure schedule mutation, which is exactly what makes it fuzzable.
void halo_step(core::ClusterTileArray<double>& u, const VisitOrder& order,
               int depth, const oacc::LoopCost& cost, bool overlap) {
  if (!overlap) {
    u.fill_boundary(tida::Boundary::kPeriodic);
    sweep_all(u, order.after_exchange(u), depth, cost);
    return;
  }
  u.exchange_begin(tida::Boundary::kPeriodic);
  const std::vector<int> crossing =
      u.node_boundary_regions(tida::Boundary::kPeriodic);
  std::vector<int> interior;
  std::vector<int> boundary;
  for (const int r : order.after_exchange(u)) {
    (std::find(crossing.begin(), crossing.end(), r) == crossing.end()
         ? interior
         : boundary)
        .push_back(r);
  }
  sweep_all(u, interior, depth, cost);
  u.exchange_end();
  sweep_all(u, boundary, depth, cost);
}

/// A world's arrays: the fuzzed array, then its sibling if any. Every
/// array gets the same dynamic knobs and its own halo step each step.
template <typename Array>
using Arrays = std::vector<Array*>;

template <typename Array>
void run_tail(const Arrays<Array>& arrays, core::SlotPolicyKind policy,
              const DynKnobs& d, const oacc::LoopCost& cost) {
  sim::Platform::instance().set_transfer_jitter(
      static_cast<SimTime>(d.jitter_max), d.jitter_seed);
  const VisitOrder order{visit_order(arrays[0]->num_regions(), d.order_seed),
                         d.order_seed, d.residency_order};
  for (Array* u : arrays) {
    apply_stream_perm(*u, d.stream_perm_seed);
    if (policy == core::SlotPolicyKind::kBeladyOracle) {
      // The oracle's script is the base order; a residency-ordered sweep
      // leaves it (BeladyOraclePolicy degrades to stale predictions,
      // safely).
      std::vector<int> future;
      for (int s = 0; s < d.steps; ++s) {
        future.insert(future.end(), order.base.begin(), order.base.end());
      }
      u->set_future_accesses(std::move(future));
    }
  }
  for (int s = 0; s < d.steps; ++s) {
    for (Array* u : arrays) {
      halo_step(*u, order, d.prefetch_depth, cost, d.overlap);
    }
  }
  for (Array* u : arrays) {
    u->release_all_to_host();
  }
}

/// FNV-1a over the valid cells of every array, in order (boxes are
/// inclusive: every valid cell counts).
template <typename Array>
std::uint64_t checksum(const Arrays<Array>& arrays) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const Array* u : arrays) {
    for (int id = 0; id < u->num_regions(); ++id) {
      const tida::Region<double> r = u->region(id);
      for (int k = r.valid.lo.k; k <= r.valid.hi.k; ++k) {
        for (int j = r.valid.lo.j; j <= r.valid.hi.j; ++j) {
          for (int i = r.valid.lo.i; i <= r.valid.hi.i; ++i) {
            std::uint64_t bits;
            const double v = r.at(i, j, k);
            std::memcpy(&bits, &v, sizeof(bits));
            for (int b = 0; b < 8; ++b) {
              h ^= (bits >> (8 * b)) & 0xffu;
              h *= 0x100000001b3ull;
            }
          }
        }
      }
    }
  }
  return h;
}

// --- one fuzz case ---

struct Outcome {
  bool failed = false;
  std::string kind;  ///< "sanitizer" | "checksum" | "nondeterminism" | "lint"
  std::string detail;
  std::uint64_t sum = 0;
  std::uint64_t h2d = 0;
  std::uint64_t d2h = 0;
  SimTime makespan = 0;
  bool linted = false;  ///< the schedule-lint oracle ran on this replay
};

/// Attaches a fresh OpGraph to the live platform for one replay (--lint);
/// detaches in the destructor so an oracle throw cannot leave a dangling
/// graph pointer on the shared platform instance.
struct LintAttach {
  sim::OpGraph g;
  bool active;
  explicit LintAttach(bool on) : active(on) {
    if (active) {
      sim::Platform::instance().set_op_graph(&g);
    }
  }
  ~LintAttach() { detach(); }
  LintAttach(const LintAttach&) = delete;
  LintAttach& operator=(const LintAttach&) = delete;
  void detach() {
    if (active) {
      sim::Platform::instance().set_op_graph(nullptr);
      active = false;
    }
  }
};

/// Second oracle beside the sanitizer: static schedule analysis of the
/// replay's extracted op graph. Flags a wait-for-graph cycle (a schedule
/// that could deadlock on real hardware), a critical path longer than the
/// achieved makespan (the CPM lower bound is broken, i.e. the graph claims
/// an ordering the run violated), and — when every waited event was seen by
/// the graph — any static/dynamic MHP disagreement.
void lint_replay(const sim::OpGraph& g, Outcome* out) {
  out->linted = true;
  const std::vector<int> cyc = g.deadlock_cycle();
  if (!cyc.empty()) {
    out->failed = true;
    out->kind = "lint";
    out->detail = "wait-for-graph cycle over " +
                  std::to_string(cyc.size()) + " ops";
    return;
  }
  if (g.find_cycle().empty()) {
    const sim::CriticalPathReport cp = g.critical_path();
    if (cp.length > cp.makespan) {
      out->failed = true;
      out->kind = "lint";
      out->detail = "critical path " + std::to_string(cp.length) +
                    " ns exceeds makespan " + std::to_string(cp.makespan) +
                    " ns";
      return;
    }
  }
  if (g.mhp_checkable()) {
    const std::vector<sim::MhpMismatch> mm = g.mhp_crosscheck(1);
    if (!mm.empty()) {
      out->failed = true;
      out->kind = "lint";
      out->detail = "static MHP disagrees with dynamic vector clocks";
    }
  }
}

/// Restores `snap` into the live world (same process, the arrays still
/// alive) and replays the tail under `d`. Any tidacc::Error — a fatal
/// sanitizer finding or an internal invariant trip — is a failure.
template <typename Array>
Outcome run_case(const std::vector<std::uint8_t>& snap,
                 const Arrays<Array>& arrays, core::SlotPolicyKind policy,
                 const DynKnobs& d, const oacc::LoopCost& cost,
                 bool lint = false) {
  Outcome out;
  try {
    sim::SnapshotReader r(snap);
    core::world_restore(r);
    for (Array* u : arrays) {
      u->restore(r);
    }
    TIDACC_CHECK_MSG(r.at_end(), "trailing bytes after the array snapshot");
    // The graph attaches AFTER the restore (graph state is transient
    // analysis state, never part of snapshots) and sees only the tail.
    LintAttach la(lint);
    run_tail(arrays, policy, d, cost);
    la.detach();
    if (lint) {
      lint_replay(la.g, &out);
      if (out.failed) {
        return out;
      }
    }
    out.sum = checksum(arrays);
    for (const Array* u : arrays) {
      out.h2d += u->h2d_bytes();
      out.d2h += u->d2h_bytes();
    }
    out.makespan = sim::Platform::instance().now();
  } catch (const tidacc::Error& e) {
    out.failed = true;
    out.kind = "sanitizer";
    out.detail = e.what();
  }
  return out;
}

// --- repro files (plain key=value lines; no JSON parser in tree) ---
//
// A knob is a bool (0/1 in a repro file, true/false in JSON), a number, a
// string, or an enum. The slot policy, wire path and placement are written
// by name (core::to_string, quoted in JSON); the streaming guard by its
// number.

template <typename T>
concept NamedKnob = requires(T v) { core::to_string(v); };

void parse_knob(const std::string& s, core::SlotPolicyKind& k) {
  k = core::parse_slot_policy(s);
}
void parse_knob(const std::string& s, core::NetPath& p) {
  p = core::parse_net_path(s);
}
void parse_knob(const std::string& s, core::DevicePlacement& p) {
  p = core::parse_placement(s);
}

/// Writes one `key=value` line per knob.
struct ReproWriter {
  std::ostream& out;

  template <typename T>
  void operator()(const char* key, const T& v) {
    out << key << '=';
    if constexpr (NamedKnob<T>) {
      out << core::to_string(v);
    } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>) {
      out << static_cast<int>(v);
    } else {
      out << v;
    }
    out << '\n';
  }
};

/// Sets the knob a `key=value` line names; other knobs stay as they are.
/// Records whether a knob took the key and whether its value parsed: a
/// number must be all digits and fit its knob, a bool 0 or 1, the streaming
/// guard 0-2, a named knob one of its names.
struct ReproReader {
  const std::string& key;
  const std::string& val;
  bool matched = false;
  bool parsed = false;

  template <typename T>
  void operator()(const char* name, T& v) {
    if (key != name) {
      return;
    }
    matched = true;
    if constexpr (NamedKnob<T>) {
      try {
        parse_knob(val, v);
        parsed = true;
      } catch (const tidacc::Error&) {
        // An unknown name: `parsed` stays false, and parse_repro reports it.
      }
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = val;
      parsed = true;
    } else if constexpr (std::is_same_v<T, bool>) {
      parsed = val == "0" || val == "1";
      v = val == "1";
    } else {
      using Int = std::conditional_t<std::is_enum_v<T>, int, T>;
      Int x{};
      const char* end = val.data() + val.size();
      const auto [ptr, ec] = std::from_chars(val.data(), end, x);
      parsed = !val.empty() && ec == std::errc() && ptr == end;
      if constexpr (std::is_same_v<T, core::StreamingGuard>) {
        parsed = parsed && x >= 0 &&
                 x <= static_cast<int>(core::StreamingGuard::kForceDrain);
      }
      v = static_cast<T>(x);
    }
  }
};

void write_repro(const std::string& path, WorldKnobs w, DynKnobs d,
                 const Outcome& o) {
  std::ofstream f(path);
  f << "# fuzz_schedule repro — run with: fuzz_schedule --repro=" << path
    << "\n";
  ReproWriter wr{f};
  w.fields(wr);
  d.fields(wr);
  f << "# kind=" << o.kind << "\n";
}

/// Reads a repro file written by write_repro. Fails, naming the file, the
/// line and the key, on a line that is not `key=value`, a key no knob has
/// or a value its knob cannot take: a mistyped file must not replay some
/// other world.
bool parse_repro(const std::string& path, WorldKnobs& w, DynKnobs& d) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "fuzz_schedule: cannot open repro file %s\n",
                 path.c_str());
    return false;
  }
  std::string line;
  for (int number = 1; std::getline(f, line); ++number) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr,
                   "fuzz_schedule: %s:%d: expected key=value, got '%s'\n",
                   path.c_str(), number, line.c_str());
      return false;
    }
    const std::string key = line.substr(0, eq);
    const std::string val = line.substr(eq + 1);
    ReproReader rd{key, val};
    w.fields(rd);
    d.fields(rd);
    if (!rd.matched) {
      std::fprintf(stderr, "fuzz_schedule: %s:%d: unknown key '%s'\n",
                   path.c_str(), number, key.c_str());
      return false;
    }
    if (!rd.parsed) {
      std::fprintf(stderr,
                   "fuzz_schedule: %s:%d: key '%s' has a malformed value "
                   "'%s'\n",
                   path.c_str(), number, key.c_str(), val.c_str());
      return false;
    }
  }
  return true;
}

// --- failure report (JSON written by hand, for CI artifacts) ---

struct Failure {
  std::uint64_t iter = 0;
  WorldKnobs world;
  DynKnobs dyn;
  std::string kind;
  std::string detail;
  std::string repro_path;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') { out += '\\'; out += c; }
    else if (c == '\n') out += "\\n";
    else if (static_cast<unsigned char>(c) < 0x20) out += ' ';
    else out += c;
  }
  return out;
}

/// Writes `, "key": value` per knob.
struct JsonWriter {
  std::ostream& out;

  template <typename T>
  void operator()(const char* key, const T& v) {
    out << ", \"" << key << "\": ";
    if constexpr (std::is_same_v<T, bool>) {
      out << (v ? "true" : "false");
    } else if constexpr (NamedKnob<T>) {
      out << '"' << core::to_string(v) << '"';
    } else if constexpr (std::is_same_v<T, std::string>) {
      out << '"' << json_escape(v) << '"';
    } else if constexpr (std::is_enum_v<T>) {
      out << static_cast<int>(v);
    } else {
      out << v;
    }
  }
};

void write_report(const std::string& path, std::uint64_t seed,
                  std::uint64_t iters_done, double iters_per_sec,
                  bool lint_enabled, std::uint64_t linted_iters,
                  const std::vector<Failure>& failures) {
  std::ofstream f(path);
  f << "{\n  \"tool\": \"fuzz_schedule\",\n";
  f << "  \"seed\": " << seed << ",\n";
  f << "  \"iterations\": " << iters_done << ",\n";
  f << "  \"iters_per_sec\": " << static_cast<std::uint64_t>(iters_per_sec)
    << ",\n";
  f << "  \"lint_enabled\": " << (lint_enabled ? "true" : "false") << ",\n";
  f << "  \"linted_iterations\": " << linted_iters << ",\n";
  f << "  \"sanitizer_compiled_in\": "
#ifdef TIDACC_CUEM_SANITIZER
    << "true"
#else
    << "false"
#endif
    << ",\n  \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    Failure x = failures[i];
    f << (i ? "," : "") << "\n    {\"iter\": " << x.iter
      << ", \"kind\": \"" << json_escape(x.kind) << '"';
    JsonWriter jw{f};
    x.world.fields(jw);
    x.dyn.fields(jw);
    f << ", \"repro\": \"" << json_escape(x.repro_path)
      << "\", \"detail\": \"" << json_escape(x.detail) << "\"}";
  }
  f << (failures.empty() ? "]" : "\n  ]") << "\n}\n";
}

// --- world construction ---

void configure_world(const WorldKnobs& w) {
  const sim::DeviceConfig cfg = sim::DeviceConfig::k40m();
  // Functional mode (kernels really execute) with trace recording off: the
  // flattened hot path is what lets the fuzzer sustain >1k iters/min.
  cuem::configure(cfg, /*functional=*/true, w.num_devices,
                  sim::Interconnect::pcie());
  oacc::reset();
  cuem::platform().trace().set_recording(false);
#ifdef TIDACC_CUEM_SANITIZER
  cuem::san::Options so;
  so.enabled = true;
  so.memcheck = true;
  so.racecheck = true;
  so.fatal = true;  // first kError finding throws — the fuzzer's oracle
  cuem::san::configure(so);
#endif
}

/// The options of a world's arrays. max_slots is a per-device budget, so
/// the world's total divides across the devices — keeping the
/// slots:regions pressure of the single-device run, which is what drives
/// eviction/re-acquire schedules (and the races hiding in them).
core::MultiAccOptions array_options(const WorldKnobs& w) {
  core::MultiAccOptions o;
  o.devices = w.num_devices;
  o.placement = w.placement;
  o.max_slots = std::max(1, w.max_slots / w.num_devices);
  o.disable_caching = w.disable_caching;
  o.delta_transfers = w.delta;
  o.slot_policy = w.policy;
  o.streaming_guard = w.guard;
  o.compression = static_cast<core::Compression>(w.compression);
  return o;
}

core::ClusterOptions cluster_options(const WorldKnobs& w) {
  core::ClusterOptions o;
  o.multi = array_options(w);
  o.nodes = w.nodes;
  o.fabric = sim::FabricConfig::parse(w.fabric);
  // kAuto on a GPUDirect-less preset degrades to staged by itself; only
  // kGpuDirect would reject it, and the draw never emits that.
  o.path = w.path;
  o.compression = static_cast<core::Compression>(w.compression);
  return o;
}

/// The live arrays of one world: one, or two on one layout with the
/// sibling knob. They must outlive every restore of the world's snapshot
/// (the restore contract is address-stable), so they are built once per
/// config block. Worlds with nodes > 1 hold cluster arrays (fabric QP/MR
/// state rides inside their snapshots), the others MultiAccTileArrays.
struct World {
  std::vector<std::unique_ptr<core::MultiAccTileArray<double>>> multi;
  std::vector<std::unique_ptr<core::ClusterTileArray<double>>> cluster;

  explicit World(const WorldKnobs& w) {
    const tida::Box domain = tida::Box::cube(w.n);
    const tida::Index3 slab{w.n, w.n, (w.n + w.regions - 1) / w.regions};
    for (int i = 0; i < (w.sibling ? 2 : 1); ++i) {
      if (w.nodes > 1) {
        cluster.push_back(std::make_unique<core::ClusterTileArray<double>>(
            domain, slab, w.ghost, cluster_options(w)));
      } else {
        multi.push_back(std::make_unique<core::MultiAccTileArray<double>>(
            domain, slab, w.ghost, array_options(w)));
      }
    }
  }

  /// fn(arrays), the arrays typed as what they were built as.
  template <typename Fn>
  auto visit(Fn&& fn) {
    if (!cluster.empty()) {
      Arrays<core::ClusterTileArray<double>> arrays;
      for (const auto& a : cluster) {
        arrays.push_back(a.get());
      }
      return fn(arrays);
    }
    Arrays<core::MultiAccTileArray<double>> arrays;
    for (const auto& a : multi) {
      arrays.push_back(a.get());
    }
    return fn(arrays);
  }
};

/// Destroys the live world with the sanitizer collecting instead of
/// throwing: the arrays' destructors free their buffers, and a free racing
/// an op still in flight must be reported, not thrown out of a destructor.
/// Returns the message of the last error finding the teardown raised, or
/// an empty string.
std::string tear_down(std::optional<World>& live) {
  const std::size_t errors = cuem::san::count(cuem::san::Severity::kError);
  const bool fatal = cuem::san::options().fatal;
  cuem::san::set_fatal(false);
  live.reset();
  cuem::san::set_fatal(fatal);
  if (cuem::san::count(cuem::san::Severity::kError) == errors) {
    return {};
  }
  const std::vector<cuem::san::Finding>& found = cuem::san::findings();
  for (auto f = found.rbegin(); f != found.rend(); ++f) {
    if (f->severity == cuem::san::Severity::kError) {
      return "world teardown: " + f->message;
    }
  }
  return "world teardown raised a sanitizer error";
}

/// Builds the world, runs the warmup step of each array (so the snapshot
/// holds a mid-workload state with live residency/dirty tracking), and
/// captures world + arrays into one buffer. Each array gets its own field.
template <typename Array>
std::vector<std::uint8_t> build_and_snapshot(const WorldKnobs& w,
                                             const Arrays<Array>& arrays,
                                             const oacc::LoopCost& cost) {
  double scale = 1.0;
  for (Array* u : arrays) {
    u->fill([scale](const tida::Index3& p) {
      return scale * (0.001 * p.i + 0.002 * p.j + 0.004 * p.k);
    });
    scale = -0.5 * scale;
    u->assume_host_initialized();
    if (w.policy == core::SlotPolicyKind::kBeladyOracle) {
      u->set_future_accesses(visit_order(w.regions, 0));
    }
  }
  for (Array* u : arrays) {
    halo_step(*u, VisitOrder{visit_order(w.regions, 0)}, /*depth=*/1, cost,
              /*overlap=*/false);
  }
  // Worlds drawn one after another snapshot to similar sizes.
  static std::size_t last = 0;
  sim::SnapshotWriter wr(last);
  core::world_capture(wr);
  for (const Array* u : arrays) {
    u->capture(wr);
  }
  last = wr.buffer().size();
  return wr.take();
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::uint64_t iters =
      static_cast<std::uint64_t>(cli.get_int("iters", 200));
  const int n = static_cast<int>(cli.get_int("n", 32));
  const int regions = static_cast<int>(cli.get_int("regions", 8));
  // 0 = let draw_world choose per config; >1 pins every world to a
  // cluster of that many nodes (--fabric likewise pins the preset).
  const int force_nodes = static_cast<int>(cli.get_int("nodes", 0));
  const std::string force_fabric = cli.get_string("fabric", "");
  // -1 = let draw_world choose per config; 0/1/2 pins every world to
  // Compression::{kOff,kOn,kAuto}.
  const int force_compression =
      static_cast<int>(cli.get_int("compression", -1));
  const int steps = static_cast<int>(cli.get_int("steps", 3));
  const std::uint64_t per_config =
      static_cast<std::uint64_t>(cli.get_int("iters-per-config", 32));
  const std::string out_path = cli.get_string("out", "");
  const std::string repro_path = cli.get_string("repro", "");
  const std::string repro_dir = cli.get_string("repro-dir", ".");
  const bool expect_failure = cli.get_bool("expect-failure", false);
  // Second oracle: extract the op graph of every replay and run the
  // static schedule checks (deadlock cycle, CPM bound, MHP cross-check).
  const bool lint = cli.get_bool("lint", false);
  const int max_failures = static_cast<int>(cli.get_int("max-failures", 5));

#ifndef TIDACC_CUEM_SANITIZER
  if (expect_failure) {
    // The race oracle is the sanitizer; without it this test can't see the
    // injected defect. 77 = ctest SKIP_RETURN_CODE.
    std::printf("fuzz_schedule: sanitizer compiled out, skipping "
                "--expect-failure run\n");
    return 77;
  }
#endif

  const oacc::LoopCost cost = kernels::box_stencil_cost(1);

  // --- single-case repro mode ---
  if (!repro_path.empty()) {
    WorldKnobs w;
    DynKnobs d;
    if (!parse_repro(repro_path, w, d)) return 2;
    configure_world(w);
    std::optional<World> live(std::in_place, w);
    Outcome o = live->visit([&](const auto& arrays) {
      const std::vector<std::uint8_t> snap =
          build_and_snapshot(w, arrays, cost);
      return run_case(snap, arrays, w.policy, d, cost, lint);
    });
    const std::string teardown = tear_down(live);
    if (!o.failed && !teardown.empty()) {
      o.failed = true;
      o.kind = "sanitizer";
      o.detail = teardown;
    }
    if (o.failed) {
      std::printf("repro FAILED (%s): %s\n", o.kind.c_str(),
                  o.detail.c_str());
      return 1;
    }
    std::printf("repro passed: checksum=%016llx h2d=%llu d2h=%llu\n",
                static_cast<unsigned long long>(o.sum),
                static_cast<unsigned long long>(o.h2d),
                static_cast<unsigned long long>(o.d2h));
    return 0;
  }

  // --- fuzz loop ---
  std::vector<Failure> failures;
  std::uint64_t iters_done = 0;
  std::uint64_t linted_iters = 0;
  const auto t0 = std::chrono::steady_clock::now();

  std::uint64_t config_index = static_cast<std::uint64_t>(-1);
  std::optional<WorldKnobs> world;
  std::optional<World> live;
  std::vector<std::uint8_t> snap;
  std::optional<Outcome> reference;
  // The knobs of the live world's last replay: its teardown frees what
  // that replay left behind, so a teardown finding reproduces with them.
  DynKnobs last_dyn;
  const auto run_one = [&](const DynKnobs& d) {
    last_dyn = d;
    return live->visit([&](const auto& arrays) {
      return run_case(snap, arrays, world->policy, d, cost, lint);
    });
  };
  // Frees the live world's buffers; a finding raised there fails it.
  const auto retire = [&](std::uint64_t i) {
    if (!live) {
      return;
    }
    const std::string teardown = tear_down(live);
    if (teardown.empty()) {
      return;
    }
    Failure x;
    x.iter = i;
    x.world = *world;
    x.dyn = last_dyn;
    x.kind = "sanitizer";
    x.detail = teardown;
    x.repro_path = repro_dir + "/fuzz_repro_" + std::to_string(i) +
                   "_teardown.txt";
    Outcome o;
    o.kind = x.kind;
    write_repro(x.repro_path, x.world, x.dyn, o);
    failures.push_back(x);
    std::printf("iter %llu: %s (%s, policy=%s slots=%d) -> %s\n",
                static_cast<unsigned long long>(i), x.kind.c_str(),
                x.detail.c_str(), core::to_string(world->policy),
                world->max_slots, x.repro_path.c_str());
  };

  for (std::uint64_t i = 0; i < iters; ++i) {
    if (i / per_config != config_index) {
      retire(i);  // before reconfiguring
      if (static_cast<int>(failures.size()) >= max_failures ||
          (expect_failure && !failures.empty())) {
        iters_done = i;
        break;
      }
      config_index = i / per_config;
      world = draw_world(seed, config_index, n, regions, force_nodes,
                         force_fabric, force_compression);
      last_dyn = DynKnobs{};
      last_dyn.steps = steps;
      try {
        configure_world(*world);
        live.emplace(*world);
        snap = live->visit([&](const auto& arrays) {
          return build_and_snapshot(*world, arrays, cost);
        });
        // Baseline replay: no jitter, no prefetch, identity order. Its
        // checksum is the reference every mutated replay must reproduce.
        DynKnobs base;
        base.steps = steps;
        reference = run_one(base);
      } catch (const tidacc::Error& e) {
        // A world that cannot even run its baseline is a finding too.
        Failure x;
        x.iter = i;
        x.world = *world;
        x.dyn.steps = steps;
        x.kind = "sanitizer";
        x.detail = e.what();
        x.repro_path = repro_dir + "/fuzz_repro_" + std::to_string(i) + ".txt";
        write_repro(x.repro_path, x.world, x.dyn, Outcome{});
        failures.push_back(x);
        reference.reset();
      }
      if (reference && reference->failed) {
        Failure x;
        x.iter = i;
        x.world = *world;
        x.dyn.steps = steps;
        x.kind = reference->kind;
        x.detail = reference->detail;
        x.repro_path = repro_dir + "/fuzz_repro_" + std::to_string(i) + ".txt";
        write_repro(x.repro_path, x.world, x.dyn, *reference);
        failures.push_back(x);
        reference.reset();
      }
      if (static_cast<int>(failures.size()) >= max_failures ||
          (expect_failure && !failures.empty())) {
        iters_done = i;
        break;
      }
      if (!reference) {
        // Skip this config's remaining iterations.
        i = (config_index + 1) * per_config - 1;
        continue;
      }
    }

    DynKnobs d = draw_dyn(seed, i, world->regions, steps);
    Outcome o = run_one(d);
    ++iters_done;
    linted_iters += o.linted ? 1 : 0;

    if (!o.failed && o.sum != reference->sum) {
      o.failed = true;
      o.kind = "checksum";
      o.detail = "final field diverged from the baseline replay";
    }
    // Determinism spot-check: replaying identical knobs must reproduce the
    // checksum AND the byte/op accounting and makespan exactly.
    if (!o.failed && (i % 61) == 0) {
      const Outcome o2 = run_one(d);
      if (o2.failed || o2.sum != o.sum || o2.h2d != o.h2d ||
          o2.d2h != o.d2h || o2.makespan != o.makespan) {
        o.failed = true;
        o.kind = "nondeterminism";
        o.detail = "identical knobs produced a different trace";
      }
    }

    if (o.failed) {
      // Greedy minimization: zero one knob group at a time, keep the
      // failure alive. Restoring the same snapshot makes re-runs cheap.
      DynKnobs min = d;
      const auto still_fails = [&](const DynKnobs& cand) {
        const Outcome c = run_one(cand);
        return c.failed || c.sum != reference->sum;
      };
      DynKnobs cand = min;
      cand.jitter_max = 0;
      cand.jitter_seed = 0;
      if (still_fails(cand)) min = cand;
      cand = min;
      cand.prefetch_depth = 0;
      if (still_fails(cand)) min = cand;
      cand = min;
      cand.order_seed = 0;
      if (still_fails(cand)) min = cand;
      cand = min;
      cand.stream_perm_seed = 0;
      if (still_fails(cand)) min = cand;
      cand = min;
      cand.overlap = false;
      if (still_fails(cand)) min = cand;
      cand = min;
      cand.residency_order = false;
      if (still_fails(cand)) min = cand;

      Failure x;
      x.iter = i;
      x.world = *world;
      x.dyn = min;
      x.kind = o.kind;
      x.detail = o.detail;
      x.repro_path = repro_dir + "/fuzz_repro_" + std::to_string(i) + ".txt";
      write_repro(x.repro_path, x.world, x.dyn, o);
      failures.push_back(x);
      std::printf("iter %llu: %s (%s, policy=%s slots=%d) -> %s\n",
                  static_cast<unsigned long long>(i), o.kind.c_str(),
                  o.detail.c_str(), core::to_string(world->policy),
                  world->max_slots, x.repro_path.c_str());
      if (static_cast<int>(failures.size()) >= max_failures ||
          expect_failure) {
        break;
      }
    }
  }

  retire(iters_done);

  const auto t1 = std::chrono::steady_clock::now();
  const double secs =
      std::chrono::duration<double>(t1 - t0).count();
  const double ips =
      secs > 0 ? static_cast<double>(iters_done) / secs : 0.0;
  std::printf("fuzz_schedule: %llu iterations, %llu failure(s), %.0f "
              "iters/sec (seed=%llu)\n",
              static_cast<unsigned long long>(iters_done),
              static_cast<unsigned long long>(failures.size()), ips,
              static_cast<unsigned long long>(seed));
  if (lint) {
    std::printf("fuzz_schedule: schedule-lint oracle ran on %llu replays\n",
                static_cast<unsigned long long>(linted_iters));
  }

  if (!out_path.empty()) {
    write_report(out_path, seed, iters_done, ips, lint, linted_iters,
                 failures);
  }
  if (expect_failure) {
    if (failures.empty()) {
      std::printf("fuzz_schedule: expected a failure but found none\n");
      return 1;
    }
    return 0;
  }
  return failures.empty() ? 0 : 1;
}

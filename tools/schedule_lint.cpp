// Static schedule linter: runs the canonical ("golden") workloads with a
// sim::OpGraph attached, then checks every analysis invariant the graph
// supports (docs/ANALYSIS.md):
//
//   * deadlock freedom — the wait-for graph over blocking edge origins
//     (stream/event/host/credit/CQ) must be acyclic;
//   * critical-path sanity — the longest dependency chain is a lower bound
//     on any legal execution, so it must not exceed the achieved makespan;
//   * false-serialization lint — no schedule edge may delay a transfer
//     behind an op it provably has no data dependency on (each finding
//     prints the op pair, edge origin and slack cost; known-accepted
//     findings are waived by label with a named reason);
//   * MHP cross-check — static reachability (excluding engine lanes) must
//     agree pairwise with the dynamic happens-before vector clocks.
//
// The scenarios are deterministic re-runs of the workloads the benches and
// tests exercise (limited-memory sincos streaming, out-of-core halo sweep
// with the drain and with the pipelined streaming exchange, multi-GPU
// exchange, cluster exchange over both fabric paths), so a
// regression in any ordering edge shows up as a diff here before it shows
// up as a slowdown. CI runs this over every scenario and fails on findings
// (exit 1); --json=<path> writes a machine-readable summary.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "baselines/sincos_baselines.hpp"
#include "common/cli.hpp"
#include "core/cluster_tile_array.hpp"
#include "core/compute.hpp"
#include "core/multi_acc_array.hpp"
#include "cuem/cuem.hpp"
#include "kernels/sincos.hpp"
#include "kernels/stencil27.hpp"
#include "oacc/oacc.hpp"
#include "sim/op_graph.hpp"
#include "sim/platform.hpp"

namespace {

using namespace tidacc;

// --- waivers ---
// Accepted false-serialization findings, each with a named reason. A waiver
// matches when both op labels appear in the finding. Keep this list empty
// unless a finding is understood and deliberately accepted.
struct Waiver {
  const char* src_label;
  const char* dst_label;
  const char* reason;
};
constexpr Waiver kWaivers[] = {
    // (none)
    {nullptr, nullptr, nullptr},
};

bool waived(const std::string& src, const std::string& dst,
            std::string* reason) {
  for (const Waiver& w : kWaivers) {
    if (w.src_label == nullptr) {
      break;
    }
    if (src == w.src_label && dst == w.dst_label) {
      *reason = w.reason;
      return true;
    }
  }
  return false;
}

// --- scenario plumbing ---

struct ScenarioResult {
  std::string name;
  int nodes = 0;
  int edges = 0;
  SimTime critical_path_ns = 0;
  SimTime makespan_ns = 0;
  double overlap_efficiency = 1.0;
  int exposed_transfers = 0;
  int deadlock_cycle_len = 0;
  int false_serializations = 0;  ///< after waivers
  int waived = 0;
  int mhp_mismatches = 0;
  bool mhp_checked = false;
  bool ok = true;
};

std::string node_desc(const sim::OpGraph& g, int id) {
  const sim::OpNode& n = g.nodes()[static_cast<std::size_t>(id)];
  std::string desc = "#";
  desc += std::to_string(id);
  desc += ' ';
  desc += n.label.empty() ? sim::to_string(n.kind) : n.label.c_str();
  desc += " s";
  desc += std::to_string(n.stream);
  return desc;
}

/// Runs every analysis over the recorded graph and prints one scenario
/// block; findings make the scenario (and the process) fail.
ScenarioResult analyze(const std::string& name, const sim::OpGraph& g) {
  ScenarioResult r;
  r.name = name;
  r.nodes = static_cast<int>(g.nodes().size());
  r.edges = static_cast<int>(g.edges().size());
  std::printf("-- %s: %d nodes, %d edges\n", name.c_str(), r.nodes,
              r.edges);

  const std::vector<int> cyc = g.deadlock_cycle();
  r.deadlock_cycle_len = static_cast<int>(cyc.size());
  if (!cyc.empty()) {
    r.ok = false;
    std::printf("   DEADLOCK cycle (%zu nodes):\n", cyc.size());
    for (const int id : cyc) {
      std::printf("     %s\n", node_desc(g, id).c_str());
    }
  }

  if (g.find_cycle().empty()) {
    const sim::CriticalPathReport cp = g.critical_path();
    r.critical_path_ns = cp.length;
    r.makespan_ns = cp.makespan;
    std::printf("   critical path %llu ns over %zu ops, makespan %llu ns\n",
                static_cast<unsigned long long>(cp.length),
                cp.path.size(),
                static_cast<unsigned long long>(cp.makespan));
    if (cp.length > cp.makespan) {
      r.ok = false;
      std::printf("   FAIL: critical path exceeds achieved makespan "
                  "(the lower bound is broken)\n");
    }

    const sim::OverlapReport ov = g.overlap();
    r.overlap_efficiency = ov.efficiency;
    r.exposed_transfers = static_cast<int>(ov.exposed.size());
    std::printf("   overlap efficiency %.1f%% (%llu of %llu transfer ns "
                "exposed, %zu ops)\n",
                ov.efficiency * 100.0,
                static_cast<unsigned long long>(ov.exposed_ns),
                static_cast<unsigned long long>(ov.transfer_busy_ns),
                ov.exposed.size());

    for (const sim::FalseSerialization& f : g.false_serializations()) {
      const sim::OpNode& src = g.nodes()[static_cast<std::size_t>(f.src)];
      const sim::OpNode& dst = g.nodes()[static_cast<std::size_t>(f.dst)];
      std::string reason;
      if (waived(src.label, dst.label, &reason)) {
        ++r.waived;
        std::printf("   waived false-serialization %s -> %s (%s): %s\n",
                    src.label.c_str(), dst.label.c_str(),
                    sim::to_string(f.origin), reason.c_str());
        continue;
      }
      ++r.false_serializations;
      r.ok = false;
      std::printf("   FALSE SERIALIZATION: %s delayed behind %s by a %s "
                  "edge, costing %llu ns (no data dependency)\n",
                  node_desc(g, f.dst).c_str(), node_desc(g, f.src).c_str(),
                  sim::to_string(f.origin),
                  static_cast<unsigned long long>(f.slack_cost_ns));
    }
  } else {
    r.ok = false;
    std::printf("   FAIL: dependency graph is cyclic — skipping CPM\n");
  }

  if (g.mhp_checkable()) {
    const std::vector<sim::MhpMismatch> mm = g.mhp_crosscheck();
    r.mhp_checked = true;
    r.mhp_mismatches = static_cast<int>(mm.size());
    for (const sim::MhpMismatch& m : mm) {
      r.ok = false;
      std::printf("   MHP MISMATCH: %s vs %s — static %s, dynamic %s\n",
                  node_desc(g, m.a).c_str(), node_desc(g, m.b).c_str(),
                  m.static_ordered ? "ordered" : "parallel",
                  m.dynamic_ordered ? "ordered" : "parallel");
    }
    if (mm.empty()) {
      std::printf("   MHP cross-check: static graph agrees with dynamic "
                  "vector clocks\n");
    }
  } else {
    std::printf("   MHP cross-check skipped (%d unknown event waits)\n",
                g.num_unknown_event_waits());
  }
  return r;
}

/// Configures a fresh platform with an attached graph and hb tracking on
/// (the MHP cross-check needs the dynamic clocks on every node).
void fresh_world(sim::OpGraph& g, int num_devices = 1) {
  cuem::configure(sim::DeviceConfig::k40m(), /*functional=*/false,
                  num_devices, sim::Interconnect::pcie());
  oacc::reset();
  cuem::platform().set_hb_tracking(true);
  cuem::platform().set_op_graph(&g);
}

constexpr auto kSweepBody = [](core::DeviceView<double> v, int i, int j,
                               int k) {
  v(i, j, k) = 0.5 * v(i, j, k) +
               0.125 * (v(i - 1, j, k) + v(i + 1, j, k) + v(i, j - 1, k) +
                        v(i, j + 1, k));
};

/// Fig. 7 scenario: limited-memory sincos streaming (regions cycling
/// through two device slots, transfers racing kernels on the other slot).
ScenarioResult scenario_sincos() {
  sim::OpGraph g;
  fresh_world(g);
  baselines::SinCosTidaParams p;
  p.n = 64;
  p.steps = 2;
  p.iterations = 16;
  p.regions = 8;
  p.max_slots = 2;
  baselines::run_sincos_tidacc(p);
  cuem::platform().set_op_graph(nullptr);
  return analyze("fig7_sincos_streaming", g);
}

/// Halo sweep over 8 slab regions: fill_boundary + an in-place
/// ghost-reading stencil, two steps, on an array built from `o`. Out of
/// core (fewer slots than regions) the eviction D2H races the next H2D;
/// with delta transfers and kForceStreaming every exchange runs the
/// streaming path — update kernels between resident regions, and the
/// pipelined host path (per-region pull events, per-group pushes) for
/// faces touching the evicted region — while the previous sweep's kernels
/// drain; the scenario fails unless both halves issued work. Resident on
/// two devices, peer copies and per-device kernel streams share one
/// fill_boundary/sweep step.
ScenarioResult scenario_halo(const char* name, const core::MultiAccOptions& o) {
  sim::OpGraph g;
  fresh_world(g, o.devices);
  const int n = 32, regions = 8;
  const int slab = (n + regions - 1) / regions;
  core::MultiAccTileArray<double> u(tida::Box::cube(n),
                                    tida::Index3{n, n, slab}, /*ghost=*/1,
                                    o);
  u.assume_host_initialized();
  const oacc::LoopCost cost = kernels::box_stencil_cost(1);
  // What the exchanges issued: device ghost-update kernels and pitched
  // (host-path) copies.
  std::uint64_t updates = 0;
  std::uint64_t pitched = 0;
  for (int s = 0; s < 2; ++s) {
    const std::uint64_t updates0 = u.device_ghost_updates();
    const core::TransferAccounting x0 = u.transfers();
    u.fill_boundary(tida::Boundary::kPeriodic);
    updates += u.device_ghost_updates() - updates0;
    pitched += u.transfers().delta_d2h_ops + u.transfers().delta_h2d_ops -
               x0.delta_d2h_ops - x0.delta_h2d_ops;
    for (int id = 0; id < u.num_regions(); ++id) {
      core::compute_gpu(u, id, cost, kSweepBody);
    }
  }
  u.release_all_to_host();
  cuem::platform().set_op_graph(nullptr);
  ScenarioResult r = analyze(name, g);
  if (o.streaming_guard == core::StreamingGuard::kForceStreaming) {
    // The streaming exchange has two halves; both must have run.
    std::printf("   streaming exchange: %llu device ghost updates, %llu "
                "host-path pitched copies\n",
                static_cast<unsigned long long>(updates),
                static_cast<unsigned long long>(pitched));
    if (updates == 0 || pitched == 0) {
      r.ok = false;
      std::printf("   FAIL: the streaming exchange lost its %s half\n",
                  updates == 0 ? "device" : "host");
    }
  }
  return r;
}

/// scenario_halo's options: `slots` slots on each of `devices` devices;
/// `streaming` turns delta transfers on and forces the streaming exchange.
core::MultiAccOptions halo_options(int devices, int slots, bool streaming) {
  core::MultiAccOptions o;
  o.devices = devices;
  o.max_slots = slots;
  o.delta_transfers = streaming;
  o.streaming_guard = streaming ? core::StreamingGuard::kForceStreaming
                                : core::StreamingGuard::kAuto;
  return o;
}

/// Cluster exchange: two nodes over a fabric, either the staged pinned
/// bounce (recv credits + two-sided sends) or GPUDirect one-sided reads.
ScenarioResult scenario_cluster(const char* name, const char* fabric,
                                core::NetPath path, bool overlap) {
  sim::OpGraph g;
  fresh_world(g, /*num_devices=*/2);
  const int n = 32, regions = 8;
  const int slab = (n + regions - 1) / regions;
  core::ClusterOptions o;
  o.multi.devices = 2;
  o.multi.max_slots = regions + 2;  // wire path needs residency
  o.nodes = 2;
  o.fabric = sim::FabricConfig::parse(fabric);
  o.path = path;
  core::ClusterTileArray<double> u(tida::Box::cube(n),
                                   tida::Index3{n, n, slab}, /*ghost=*/1,
                                   o);
  u.assume_host_initialized();
  const oacc::LoopCost cost = kernels::box_stencil_cost(1);
  const std::vector<int> boundary =
      u.node_boundary_regions(tida::Boundary::kPeriodic);
  for (int s = 0; s < 2; ++s) {
    if (overlap) {
      u.exchange_begin(tida::Boundary::kPeriodic);
      for (int id = 0; id < u.num_regions(); ++id) {
        if (std::find(boundary.begin(), boundary.end(), id) ==
            boundary.end()) {
          core::compute_gpu(u, id, cost, kSweepBody);
        }
      }
      u.exchange_end();
      for (const int id : boundary) {
        core::compute_gpu(u, id, cost, kSweepBody);
      }
    } else {
      u.fill_boundary(tida::Boundary::kPeriodic);
      for (int id = 0; id < u.num_regions(); ++id) {
        core::compute_gpu(u, id, cost, kSweepBody);
      }
    }
  }
  u.release_all_to_host();
  cuem::platform().set_op_graph(nullptr);
  return analyze(name, g);
}

void write_json(const std::string& path,
                const std::vector<ScenarioResult>& results) {
  std::ofstream f(path);
  f << "{\n  \"tool\": \"schedule_lint\",\n  \"scenarios\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    f << (i ? "," : "") << "\n    {\"name\": \"" << r.name << "\""
      << ", \"ok\": " << (r.ok ? "true" : "false")
      << ", \"nodes\": " << r.nodes << ", \"edges\": " << r.edges
      << ", \"critical_path_ns\": " << r.critical_path_ns
      << ", \"makespan_ns\": " << r.makespan_ns
      << ", \"overlap_efficiency\": " << r.overlap_efficiency
      << ", \"exposed_transfers\": " << r.exposed_transfers
      << ", \"deadlock_cycle_len\": " << r.deadlock_cycle_len
      << ", \"false_serializations\": " << r.false_serializations
      << ", \"waived\": " << r.waived
      << ", \"mhp_checked\": " << (r.mhp_checked ? "true" : "false")
      << ", \"mhp_mismatches\": " << r.mhp_mismatches << "}";
  }
  f << (results.empty() ? "]" : "\n  ]") << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const std::string only = cli.get_string("only", "");
  const std::string json = cli.get_string("json", "");

  std::vector<ScenarioResult> results;
  const auto want = [&](const char* name) {
    return only.empty() || only == name;
  };
  if (want("fig7_sincos_streaming")) {
    results.push_back(scenario_sincos());
  }
  if (want("halo_out_of_core")) {
    results.push_back(
        scenario_halo("halo_out_of_core", halo_options(1, 3, false)));
  }
  if (want("halo_streaming")) {
    // One slot short of the 8 regions.
    results.push_back(
        scenario_halo("halo_streaming", halo_options(1, 7, true)));
  }
  if (want("multigpu_exchange")) {
    // Resident: exercises the peer path.
    results.push_back(
        scenario_halo("multigpu_exchange", halo_options(2, 8, false)));
  }
  if (want("cluster_staged")) {
    results.push_back(scenario_cluster("cluster_staged", "ethernet",
                                       core::NetPath::kStaged,
                                       /*overlap=*/false));
  }
  if (want("cluster_gpudirect_overlap")) {
    results.push_back(scenario_cluster("cluster_gpudirect_overlap",
                                       "infiniband", core::NetPath::kAuto,
                                       /*overlap=*/true));
  }

  if (!json.empty()) {
    write_json(json, results);
  }

  int failures = 0;
  for (const ScenarioResult& r : results) {
    failures += !r.ok;
  }
  std::printf("\nschedule_lint: %zu scenario(s), %d failing\n",
              results.size(), failures);
  return failures == 0 ? 0 : 1;
}

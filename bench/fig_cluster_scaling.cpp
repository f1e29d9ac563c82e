// fig_cluster_scaling — the paper's overlap idea extended across a
// simulated cluster (no counterpart figure in the paper, which measures
// one K40m): ClusterTileArray shards a heat solve over nodes joined by a
// verbs-like fabric, and the split-phase exchange overlaps the wire with
// node-interior compute exactly as the tiled pipeline overlaps PCIe with
// kernels.
//
// Sweeps nodes ∈ {1, 2, 4, 8} (one device per node, PCIe within a node,
// 3 region slabs per node so every node keeps one node-interior region to
// compute under the wire) and reports, per node count:
//   * heat "staged":     blocking exchange, host-staged wire path
//                        (D2H → pinned send → H2D, pre-GPUDirect MPI);
//   * heat "gpudirect":  blocking exchange, NIC reads device memory;
//   * heat "overlap":    split-phase exchange_begin/exchange_end on the
//                        GPUDirect path, node-interior regions computing
//                        while the payloads fly;
//   * "sincos":          the compute-bound workload (no ghosts — pure
//                        strong scaling of the sharded pipeline).
//
// The ghost width is 4 by default: cluster-scale halos are where the wire
// time is large enough that hiding it matters (deep halos are also what a
// future temporal-blocking composition would ship per exchange) — with
// 1-wide halos on an EDR-class link the per-message overheads dominate and
// there is little left to overlap (pass --ghost=1 to see exactly that).
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "baselines/common.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/cluster_tile_array.hpp"
#include "core/compute.hpp"
#include "kernels/heat.hpp"
#include "kernels/sincos.hpp"

namespace {

using namespace tidacc;

struct RunResult {
  SimTime elapsed = 0;
  sim::FabricCounters net;
};

/// Sums the wire counters of the two swap arrays (each owns its own
/// fabric endpoint state; even steps exchange through `a`, odd through
/// `b`, so the run's traffic is the sum).
template <typename T>
sim::FabricCounters net_of(const core::ClusterTileArray<T>& a,
                           const core::ClusterTileArray<T>& b) {
  sim::FabricCounters out;
  for (const sim::FabricCounters& c :
       {a.fabric().counters(), b.fabric().counters()}) {
    out.sends += c.sends;
    out.rdma_reads += c.rdma_reads;
    out.rdma_writes += c.rdma_writes;
    out.net_bytes += c.net_bytes;
    out.gpudirect_bytes += c.gpudirect_bytes;
  }
  return out;
}

/// Heat solve on a ClusterTileArray pair. With `overlap` the node-interior
/// regions compute between exchange_begin and exchange_end; without it
/// every step blocks on fill_boundary first.
RunResult run_cluster_heat(int n, int steps, int regions, int ghost,
                           const core::ClusterOptions& opts, bool overlap) {
  const int slab = (n + regions - 1) / regions;
  core::ClusterTileArray<double> a(tida::Box::cube(n),
                                   tida::Index3{n, n, slab}, ghost, opts);
  core::ClusterTileArray<double> b(tida::Box::cube(n),
                                   tida::Index3{n, n, slab}, ghost, opts);
  if (cuem::functional()) {
    a.fill([](const tida::Index3& q) {
      return kernels::heat_initial(q.i, q.j, q.k);
    });
  } else {
    a.assume_host_initialized();
    b.assume_host_initialized();
  }
  // Start device-resident: the split-phase wire path needs the slots live
  // (the host-resident fallback prices a synchronous exchange instead).
  for (int r = 0; r < a.num_regions(); ++r) {
    a.acquire_on_device(r);
    b.acquire_on_device(r);
  }
  oacc::wait_all();

  const std::vector<int> boundary =
      a.node_boundary_regions(tida::Boundary::kPeriodic);
  const auto is_boundary = [&boundary](int r) {
    return std::find(boundary.begin(), boundary.end(), r) != boundary.end();
  };
  core::ClusterTileArray<double>* u = &a;
  core::ClusterTileArray<double>* un = &b;

  const baselines::Stopwatch sw;
  for (int s = 0; s < steps; ++s) {
    const auto sweep = [&](bool want_boundary) {
      for (int r = 0; r < u->num_regions(); ++r) {
        if (is_boundary(r) != want_boundary) {
          continue;
        }
        core::compute_gpu(
            *u, *un, r, kernels::heat_cost(),
            [](core::DeviceView<double> us, core::DeviceView<double> uns,
               int i, int j, int k) {
              uns(i, j, k) =
                  us(i, j, k) +
                  kernels::kHeatFac *
                      (us(i - 1, j, k) + us(i + 1, j, k) + us(i, j - 1, k) +
                       us(i, j + 1, k) + us(i, j, k - 1) + us(i, j, k + 1) -
                       6.0 * us(i, j, k));
            });
      }
    };
    if (overlap) {
      u->exchange_begin(tida::Boundary::kPeriodic);
      sweep(/*want_boundary=*/false);  // interior hides the wire
      u->exchange_end();
      sweep(/*want_boundary=*/true);
    } else {
      u->fill_boundary(tida::Boundary::kPeriodic);
      sweep(/*want_boundary=*/false);
      sweep(/*want_boundary=*/true);
    }
    std::swap(u, un);
  }
  oacc::wait_all();
  RunResult res;
  // The terminal drain is excluded from the timed window: it is the same
  // full-array D2H in every variant and would dilute the exchange signal.
  res.elapsed = sw.elapsed();
  res.net = net_of(a, b);
  u->release_all_to_host();
  baselines::check(cuemDeviceSynchronize(), "sync");
  return res;
}

/// Compute-bound sincos on one cluster array (no ghosts): pure strong
/// scaling of the sharded pipeline, nothing to exchange.
SimTime run_cluster_sincos(int n, int steps, int regions,
                           const core::ClusterOptions& opts) {
  const int slab = (n + regions - 1) / regions;
  core::ClusterTileArray<double> arr(tida::Box::cube(n),
                                     tida::Index3{n, n, slab},
                                     /*ghost=*/0, opts);
  if (cuem::functional()) {
    arr.fill([n](const tida::Index3& q) {
      const std::uint64_t x =
          (static_cast<std::uint64_t>(q.k) * n + q.j) * n + q.i;
      return kernels::sincos_initial(x);
    });
  } else {
    arr.assume_host_initialized();
  }
  const oacc::LoopCost cost = kernels::sincos_cost(
      kernels::kSinCosIterations, sim::MathClass::kPgiDefault);

  const baselines::Stopwatch sw;
  for (int s = 0; s < steps; ++s) {
    for (int r = 0; r < arr.num_regions(); ++r) {
      core::compute_gpu(arr, r, cost,
                        [](core::DeviceView<double> v, int i, int j, int k) {
                          v(i, j, k) = kernels::sincos_cell(
                              v(i, j, k), kernels::kSinCosIterations);
                        });
    }
  }
  oacc::wait_all();
  const SimTime elapsed = sw.elapsed();
  arr.release_all_to_host();
  baselines::check(cuemDeviceSynchronize(), "sync");
  return elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const int n = static_cast<int>(cli.get_int("n", 512));
  const int steps = static_cast<int>(cli.get_int("steps", 4));
  const int rpn = static_cast<int>(cli.get_int("regions-per-node", 3));
  const int ghost = static_cast<int>(cli.get_int("ghost", 4));
  const sim::FabricConfig fabric =
      sim::FabricConfig::parse(cli.get_string("fabric", "infiniband"));

  bench::banner("fig_cluster_scaling",
                "cluster extension — heat " + std::to_string(n) +
                    "^3 + sincos, ghost=" + std::to_string(ghost) + ", " +
                    std::to_string(rpn) + " regions/node, " +
                    std::to_string(steps) + " steps, fabric=" + fabric.name,
                sim::DeviceConfig::k40m());

  const std::vector<int> node_counts = {1, 2, 4, 8};
  const sim::DeviceConfig cfg = sim::DeviceConfig::k40m();

  bench::CsvSink csv(cli,
                     "nodes,staged_ns,gpudirect_ns,overlap_ns,sincos_ns,"
                     "net_bytes");
  std::vector<std::pair<std::string, double>> json;

  std::vector<RunResult> staged, direct, overlap;
  std::vector<SimTime> sincos;
  for (const int nodes : node_counts) {
    const int regions = rpn * nodes;
    core::ClusterOptions opts;
    opts.multi.devices = nodes;  // one device per node
    opts.nodes = nodes;
    opts.fabric = fabric;

    opts.path = core::NetPath::kStaged;
    bench::fresh_platform_multi(cfg, nodes, sim::Interconnect::pcie());
    staged.push_back(
        run_cluster_heat(n, steps, regions, ghost, opts, /*overlap=*/false));

    opts.path = fabric.gpudirect ? core::NetPath::kGpuDirect
                                 : core::NetPath::kStaged;
    bench::fresh_platform_multi(cfg, nodes, sim::Interconnect::pcie());
    direct.push_back(
        run_cluster_heat(n, steps, regions, ghost, opts, /*overlap=*/false));

    bench::fresh_platform_multi(cfg, nodes, sim::Interconnect::pcie());
    overlap.push_back(
        run_cluster_heat(n, steps, regions, ghost, opts, /*overlap=*/true));

    bench::fresh_platform_multi(cfg, nodes, sim::Interconnect::pcie());
    sincos.push_back(run_cluster_sincos(n, steps, regions, opts));
  }

  Table table({"nodes", "staged", "gpudirect", "overlap", "overlap gain",
               "sincos", "net traffic", "heat scaling"});
  for (std::size_t i = 0; i < node_counts.size(); ++i) {
    const double gain = static_cast<double>(direct[i].elapsed) /
                        static_cast<double>(overlap[i].elapsed);
    const double scaling = static_cast<double>(overlap[0].elapsed) /
                           static_cast<double>(overlap[i].elapsed);
    table.add_row({std::to_string(node_counts[i]), bench::ms(staged[i].elapsed),
                   bench::ms(direct[i].elapsed), bench::ms(overlap[i].elapsed),
                   fmt(gain, 3) + "x", bench::ms(sincos[i]),
                   fmt(static_cast<double>(overlap[i].net.net_bytes) / 1.0e6,
                       1) +
                       " MB",
                   fmt(scaling, 2) + "x"});
    csv.row({std::to_string(node_counts[i]), std::to_string(staged[i].elapsed),
             std::to_string(direct[i].elapsed),
             std::to_string(overlap[i].elapsed), std::to_string(sincos[i]),
             std::to_string(overlap[i].net.net_bytes)});
    std::string p = "n";
    p += std::to_string(node_counts[i]);
    p += '_';
    json.emplace_back(p + "staged_ns",
                      static_cast<double>(staged[i].elapsed));
    json.emplace_back(p + "gpudirect_ns",
                      static_cast<double>(direct[i].elapsed));
    json.emplace_back(p + "overlap_ns",
                      static_cast<double>(overlap[i].elapsed));
    json.emplace_back(p + "sincos_ns", static_cast<double>(sincos[i]));
    json.emplace_back(p + "net_bytes",
                      static_cast<double>(overlap[i].net.net_bytes));
    json.emplace_back(p + "gpudirect_bytes",
                      static_cast<double>(direct[i].net.gpudirect_bytes));
    json.emplace_back(p + "rdma_reads",
                      static_cast<double>(overlap[i].net.rdma_reads));
  }
  std::printf("%s\n", table.render().c_str());
  bench::write_bench_json("fig_cluster_scaling", json);

  // The split phase hides the wire behind node-interior kernels. Where the
  // wire lands before the replay kernel of the device that sets the
  // makespan ends (2 nodes at --n=128 --regions-per-node=8), the blocking
  // exchange exposes none of it on the critical path either, and the two
  // tie: overlap must never lose, and must win where there is wire to
  // hide.
  bench::ShapeChecks checks;
  bool overlap_never_slower = true;
  bool overlap_faster = false;
  bool direct_wins = true;
  bool has_traffic = true;
  for (std::size_t i = 0; i < node_counts.size(); ++i) {
    if (node_counts[i] < 2) {
      continue;
    }
    overlap_never_slower =
        overlap_never_slower && overlap[i].elapsed <= direct[i].elapsed;
    overlap_faster = overlap_faster || overlap[i].elapsed < direct[i].elapsed;
    direct_wins = direct_wins && direct[i].elapsed < staged[i].elapsed;
    has_traffic = has_traffic && overlap[i].net.net_bytes > 0;
  }
  checks.expect("split-phase overlap is never slower than the blocking "
                "exchange at any node count >= 2, and faster at one or more",
                overlap_never_slower && overlap_faster);
  if (fabric.gpudirect) {
    checks.expect("GPUDirect beats host staging at every node count >= 2 (" +
                      fabric.name + ")",
                  direct_wins);
  }
  checks.expect("cross-node ghost traffic actually crossed the fabric",
                has_traffic);
  checks.expect("1-node cluster run pays no wire traffic",
                overlap[0].net.net_bytes == 0);
  checks.expect("compute-bound sincos scales past 6x at 8 nodes",
                static_cast<double>(sincos[0]) /
                        static_cast<double>(sincos[3]) >
                    6.0);
  return checks.report();
}

// fig_multi_gpu_scaling — strong scaling of the tiled pipeline across
// simulated devices (the multi-GPU extension; no counterpart figure in the
// paper, which measures one K40m).
//
// Sweeps devices ∈ {1, 2, 4, 8} over two topologies:
//   * "nvlink (P2P)":   the NVLink-class preset with peer access enabled —
//                       inter-device ghost faces travel directly over the
//                       fabric (cuemMemcpyPeerAsync-style peer copies).
//   * "pcie (staged)":  the PCIe-through-host preset — peer access is
//                       unsupported, so cross-device faces stage through
//                       pinned host memory as D2H+H2D hops.
//
// Two workloads: the transfer-bound heat solver (512^3, 7-point stencil,
// periodic, ghost exchange every step) and the compute-bound sincos kernel
// (no ghosts — pure per-device pipelining). Regions are placed blockwise,
// so only slab faces at device boundaries cross the interconnect.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "baselines/common.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/compute.hpp"
#include "core/multi_acc_array.hpp"
#include "kernels/heat.hpp"
#include "kernels/sincos.hpp"

namespace {

using namespace tidacc;

/// Enables direct peer access between every ordered device pair.
void enable_all_peers(int devices) {
  for (int d = 0; d < devices; ++d) {
    cuem::DeviceGuard guard(d);
    for (int peer = 0; peer < devices; ++peer) {
      if (peer != d) {
        baselines::check(cuemDeviceEnablePeerAccess(peer, 0),
                         "peer access enable");
      }
    }
  }
}

/// Heat solver on a MultiAccTileArray pair: ghost exchange + one update
/// kernel per region per step, regions distributed over all devices.
SimTime run_heat_multi(int n, int steps, int regions,
                       core::DevicePlacement placement) {
  const int slab = (n + regions - 1) / regions;
  core::MultiAccOptions opts;
  opts.placement = placement;
  core::MultiAccTileArray<double> a(tida::Box::cube(n),
                                    tida::Index3{n, n, slab}, 1, opts);
  core::MultiAccTileArray<double> b(tida::Box::cube(n),
                                    tida::Index3{n, n, slab}, 1, opts);
  if (cuem::functional()) {
    a.fill([](const tida::Index3& q) {
      return kernels::heat_initial(q.i, q.j, q.k);
    });
  } else {
    a.assume_host_initialized();
  }

  core::MultiAccTileArray<double>* u = &a;
  core::MultiAccTileArray<double>* un = &b;

  const baselines::Stopwatch sw;
  for (int s = 0; s < steps; ++s) {
    u->fill_boundary(tida::Boundary::kPeriodic);
    for (int r = 0; r < u->num_regions(); ++r) {
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
    std::swap(u, un);
  }
  u->release_all_to_host();
  baselines::check(cuemDeviceSynchronize(), "sync");
  return sw.elapsed();
}

/// Compute-bound sincos on one MultiAccTileArray (no ghosts): every device
/// pipelines its own regions' uploads against its kernels.
SimTime run_sincos_multi(int n, int steps, int regions,
                         core::DevicePlacement placement) {
  const int slab = (n + regions - 1) / regions;
  core::MultiAccOptions opts;
  opts.placement = placement;
  core::MultiAccTileArray<double> arr(tida::Box::cube(n),
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
  arr.release_all_to_host();
  baselines::check(cuemDeviceSynchronize(), "sync");
  return sw.elapsed();
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const int n = static_cast<int>(cli.get_int("n", 512));
  const int steps = static_cast<int>(cli.get_int("steps", 8));
  const int regions = static_cast<int>(cli.get_int("regions", 16));
  const core::DevicePlacement placement =
      core::parse_placement(cli.get_string("placement", "block"));

  bench::banner("fig_multi_gpu_scaling",
                "multi-GPU extension — strong scaling, heat " +
                    std::to_string(n) + "^3 + sincos, " +
                    std::to_string(regions) + " regions, " +
                    std::to_string(steps) + " steps, placement=" +
                    core::to_string(placement),
                sim::DeviceConfig::k40m());

  const std::vector<int> device_counts = {1, 2, 4, 8};
  const sim::DeviceConfig cfg = sim::DeviceConfig::k40m();

  bench::CsvSink csv(cli,
                     "bench,devices,p2p_ns,staged_ns,p2p_speedup,scaling");

  std::vector<SimTime> heat_p2p, heat_staged, sc_p2p, sc_staged;
  for (const int d : device_counts) {
    bench::fresh_platform_multi(cfg, d, sim::Interconnect::nvlink());
    enable_all_peers(d);
    heat_p2p.push_back(run_heat_multi(n, steps, regions, placement));

    bench::fresh_platform_multi(cfg, d, sim::Interconnect::pcie());
    heat_staged.push_back(run_heat_multi(n, steps, regions, placement));

    bench::fresh_platform_multi(cfg, d, sim::Interconnect::nvlink());
    enable_all_peers(d);
    sc_p2p.push_back(run_sincos_multi(n, steps, regions, placement));

    bench::fresh_platform_multi(cfg, d, sim::Interconnect::pcie());
    sc_staged.push_back(run_sincos_multi(n, steps, regions, placement));
  }

  const auto report = [&](const char* bench_name,
                          const std::vector<SimTime>& p2p,
                          const std::vector<SimTime>& staged) {
    Table table({"devices", "nvlink (P2P)", "pcie (staged)", "P2P speedup",
                 "scaling vs 1 dev"});
    for (std::size_t i = 0; i < device_counts.size(); ++i) {
      const double p2p_speedup =
          static_cast<double>(staged[i]) / static_cast<double>(p2p[i]);
      const double scaling =
          static_cast<double>(p2p[0]) / static_cast<double>(p2p[i]);
      table.add_row({std::to_string(device_counts[i]), bench::ms(p2p[i]),
                     bench::ms(staged[i]), fmt(p2p_speedup, 2) + "x",
                     fmt(scaling, 2) + "x"});
      csv.row({bench_name, std::to_string(device_counts[i]),
               std::to_string(p2p[i]), std::to_string(staged[i]),
               fmt(p2p_speedup, 3), fmt(scaling, 3)});
    }
    std::printf("%s:\n%s\n", bench_name, table.render().c_str());
  };
  report("heat3d", heat_p2p, heat_staged);
  report("sincos", sc_p2p, sc_staged);

  bench::ShapeChecks checks;
  checks.expect("heat: >1.5x makespan improvement at 4 devices (P2P on)",
                static_cast<double>(heat_p2p[0]) /
                        static_cast<double>(heat_p2p[2]) >
                    1.5);
  bool p2p_wins = true;
  for (std::size_t i = 0; i < device_counts.size(); ++i) {
    p2p_wins = p2p_wins && heat_p2p[i] < heat_staged[i] &&
               sc_p2p[i] <= sc_staged[i];
  }
  checks.expect("P2P-on beats host-staged at every device count", p2p_wins);
  bool monotone = true;
  for (std::size_t i = 1; i < device_counts.size(); ++i) {
    monotone = monotone && heat_p2p[i] < heat_p2p[i - 1] &&
               sc_p2p[i] < sc_p2p[i - 1];
  }
  checks.expect("adding devices never slows either workload (P2P on)",
                monotone);
  checks.expect("compute-bound sincos scales past 3x at 8 devices",
                static_cast<double>(sc_p2p[0]) /
                        static_cast<double>(sc_p2p[3]) >
                    3.0);
  return checks.report();
}

// Ablation (beyond the paper): temporal blocking — k stencil steps per
// residency. The baseline out-of-core pipeline pays one region round trip
// over PCIe per stencil step; with ghost = k * radius layers and the
// in-slot scratch double buffer, compute_k() advances a region k steps
// between transfers, cutting link traffic per useful cell update by ~k at
// the price of widened ghost exchanges and shrinking-trapezoid kernels.
//
// Sweeps k x stencil radius x slot budget at the fig8 limited-memory halo
// config (256^3, 16 slab regions) and reports simulated time and traffic,
// plus the cost-model auto-tuner's pick (choose_time_block_k) for each
// radius and slot budget next to the sweep's measured best. Every rung,
// k = 1 and k > 1 alike, visits regions in the iterator's residency order,
// so each shared slot swaps once per sweep.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/tidacc.hpp"
#include "kernels/stencil27.hpp"

namespace {

using namespace tidacc;

struct TbRun {
  SimTime t = 0;
  std::uint64_t h2d = 0;
  std::uint64_t d2h = 0;
  std::uint64_t bytes() const { return h2d + d2h; }
};

TbRun run_blocked(int n, int regions, int slots, int steps, int radius,
                  int k) {
  using namespace tidacc::core;
  bench::fresh_platform(sim::DeviceConfig::k40m());
  const int slab = (n + regions - 1) / regions;
  AccOptions o;
  o.max_slots = slots;
  o.delta_transfers = true;
  o.time_block_k = k;
  AccTileArray<double> u(tida::Box::cube(n), tida::Index3{n, n, slab},
                         radius * k, o);
  u.assume_host_initialized();
  const oacc::LoopCost cost = kernels::box_stencil_cost(radius);
  AccTileIterator<double> it(u);
  const SimTime t0 = cuem::platform().now();
  for (int s = 0; s < steps; s += k) {
    u.fill_boundary(tida::Boundary::kPeriodic);
    for (it.reset(true); it.isValid(); it.next()) {
      if (k == 1) {
        // Baseline rung: the existing one-step pipeline (no scratch
        // buffers).
        core::compute(it.tile(), cost,
                      [](DeviceView<double>, int, int, int) {});
        continue;
      }
      core::compute_k(
          u, it.tile().tile.region.id, k, radius, cost,
          [radius](DeviceView<double> in, DeviceView<double> out, int i,
                   int j, int kk) {
            out(i, j, kk) = kernels::box_stencil_point(in, i, j, kk, radius);
          });
    }
  }
  u.release_all_to_host();
  TbRun r;
  r.t = cuem::platform().now() - t0;
  r.h2d = u.h2d_bytes();
  r.d2h = u.d2h_bytes();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const int n = static_cast<int>(cli.get_int("n", 256));
  const int regions = static_cast<int>(cli.get_int("regions", 16));
  const int steps = static_cast<int>(cli.get_int("steps", 24));
  const sim::DeviceConfig cfg = sim::DeviceConfig::k40m();

  bench::banner("abl_temporal_blocking",
                "extension ablation — k time-steps per residency, " +
                    std::to_string(n) + "^3 box stencil, " +
                    std::to_string(regions) + " slab regions, " +
                    std::to_string(steps) + " steps",
                cfg);

  bench::CsvSink csv(cli, "radius,slots,k,ns,h2d,d2h");
  Table table({"radius", "slots", "k", "time", "traffic", "vs k=1"});
  bench::ShapeChecks checks;
  std::vector<std::pair<std::string, double>> json;
  const int slab = (n + regions - 1) / regions;

  // The fig8 limited-memory halo config is radius=1, slots=15; track its
  // measured best for the makespan bound below.
  double fig8_best_ns = 0.0;
  double fig8_best_speedup = 0.0;
  int fig8_best_k = 1;
  std::string tuner_report;

  for (const int radius : {1, 2}) {
    // Depth is bounded by ghost = k * radius <= slab (one neighbour).
    const std::vector<int> ks =
        radius == 1 ? std::vector<int>{1, 2, 3, 4, 6, 8}
                    : std::vector<int>{1, 2, 3, 4};
    for (const int slots : {15, 8}) {
      const std::string label =
          "r" + std::to_string(radius) + " s" + std::to_string(slots);
      const std::string cfg_key =
          "r" + std::to_string(radius) + "_s" + std::to_string(slots);
      std::vector<core::TimeBlockPrediction> pred;
      const int tuner_k = core::choose_time_block_k(
          tida::Box::cube(n), tida::Index3{n, n, slab}, radius, slots,
          kernels::box_stencil_cost(radius), cfg, ks.back(), &pred);
      json.emplace_back("tuner_k_" + cfg_key, static_cast<double>(tuner_k));
      for (const auto& p : pred) {
        json.emplace_back(
            "tuner_pred_" + cfg_key + "_k" + std::to_string(p.k) + "_ns",
            p.step_ns);
      }

      double base_ns = 0.0;
      double best_ns = 0.0;
      int best_k = 1;
      double tuner_ns = 0.0;
      for (const int k : ks) {
        const TbRun r = run_blocked(n, regions, slots, steps, radius, k);
        const double ns = static_cast<double>(r.t);
        if (k == 1) base_ns = ns;
        if (k == 1 || ns < best_ns) {
          best_ns = ns;
          best_k = k;
        }
        if (k == tuner_k) tuner_ns = ns;
        const std::string key = cfg_key + "_k" + std::to_string(k);
        json.emplace_back(key + "_ns", ns);
        json.emplace_back(key + "_bytes", static_cast<double>(r.bytes()));
        table.add_row({std::to_string(radius), std::to_string(slots),
                       std::to_string(k) +
                           (k == tuner_k ? " (tuner)" : ""),
                       bench::ms(r.t), format_bytes(r.bytes()),
                       fmt(base_ns / ns, 2) + "x"});
        csv.row({std::to_string(radius), std::to_string(slots),
                 std::to_string(k), std::to_string(r.t),
                 std::to_string(r.h2d), std::to_string(r.d2h)});
      }
      if (radius == 1 && slots == 15) {
        fig8_best_ns = best_ns;
        fig8_best_k = best_k;
        fig8_best_speedup = base_ns / best_ns;
      }
      // When half the regions or more swap every sweep, blocking amortizes
      // the swaps; on 15 slots the one swap hides behind the other kernels
      // and the tuner gate below covers the pick.
      if (2 * slots <= regions) {
        checks.expect(label + ": some k>1 beats the one-step pipeline",
                      best_k > 1 && best_ns < base_ns);
      }
      checks.expect(label + ": auto-tuner's k within 10% of the sweep's "
                            "measured best",
                    tuner_ns > 0.0 && tuner_ns <= 1.1 * best_ns);
      char line[160];
      std::snprintf(line, sizeof(line),
                    "%s: best k=%d, %.2fx over k=1; tuner k=%d within "
                    "%.1f%% of best\n",
                    label.c_str(), best_k, base_ns / best_ns, tuner_k,
                    tuner_ns > 0.0 ? (tuner_ns / best_ns - 1.0) * 100.0
                                   : -1.0);
      tuner_report += line;
    }
  }

  json.emplace_back("fig8_best_k", static_cast<double>(fig8_best_k));
  json.emplace_back("fig8_speedup_x100",
                    static_cast<double>(
                        static_cast<std::uint64_t>(fig8_best_speedup * 100)));

  // A speedup ratio over k=1 also shrinks whenever the one-step exchange
  // gets faster, so the claim is pinned on the makespan instead: the fig8
  // config's best run is no slower than the best one under the phased
  // exchange (all pulls, barrier, all pushes) — 157.1 ms at the default
  // flags.
  constexpr double kPhasedExchangeBestNs = 157055384.0;
  if (n == 256 && regions == 16 && steps == 24) {
    checks.expect("fig8 limited-memory config: best blocked makespan no "
                  "slower than under the phased exchange (157.1 ms)",
                  fig8_best_ns <= kPhasedExchangeBestNs);
  }
  std::printf("%s", table.render().c_str());
  std::printf("%s\n", tuner_report.c_str());
  bench::write_bench_json("abl_temporal_blocking", json);
  return checks.report();
}

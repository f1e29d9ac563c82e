// perfbench — the repository's end-to-end benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <path>]
//   perfbench --selftest
//
// One process, one thread, linked against the library. --trace 0 prints the
// end-to-end metrics (simulated step time, simulator throughput and host
// step latency, set-up time, peak memory); --trace 1 prints the per-layer
// metrics from a separate traced run. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. See README.md.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "cuem/cuem.hpp"
#include "kernels/heat.hpp"
#include "sim/op_graph.hpp"
#include "spans.hpp"
#include "tida/ghost.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace tidacc;
using Clock = std::chrono::steady_clock;

/// Set-up timing. setup_s is the fastest set-up of the run: on a shared
/// machine outside contention only ever slows one down. How much depends on
/// the core the set-up runs on and drifts over seconds to minutes (see
/// README.md, "Host noise"), so kRounds rounds are spread over the run, and
/// each round pins the thread to every CPU it may use in turn, for at least
/// kMinSetups set-ups per CPU and more while that CPU has had under
/// kCpuBudgetS, up to kMaxSetups.
constexpr int kRounds = 6;
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 50;
constexpr double kCpuBudgetS = 0.03;

/// Share of --seconds each window of the traced run gets (untraced, then
/// traced); the rest covers set-up, checks and the reference run.
constexpr double kTraceWindowShare = 0.4;

/// Repetitions of each one-off timing in the traced run (median reported).
constexpr int kProbeReps = 5;

constexpr std::uint64_t kNoCap = std::numeric_limits<std::uint64_t>::max();

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double pct(const std::vector<double>& v, double p) {
  return v.empty() ? 0.0 : percentile(v, p);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Outcome accounting for the result line: every step attempted, plus one
/// operation per output check.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// One measured stretch of time steps on a built workload.
struct Window {
  std::uint64_t steps = 0;
  bool step_failed = false;
  double wall_s = 0.0;
  std::vector<double> step_us;  ///< host wall time of each completed step
  Counters start;
  Counters end;
};

/// Steps `w` until `seconds` of host time have passed or `cap` steps ran
/// (at least one step); a step that throws ends the window.
Window run_window(Workload& w, double seconds, std::uint64_t cap,
                  Spans& spans) {
  Window win;
  win.start = w.counters();
  const Clock::time_point t0 = Clock::now();
  while (win.steps < cap) {
    spans.set_step(static_cast<std::uint32_t>(win.steps));
    const Clock::time_point ts = Clock::now();
    try {
      const Span s(spans, "step");
      w.step(spans);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "step %llu failed: %s\n",
                   static_cast<unsigned long long>(win.steps), e.what());
      ++win.steps;
      win.step_failed = true;
      break;
    }
    win.step_us.push_back(seconds_since(ts) * 1e6);
    ++win.steps;
    if (seconds_since(t0) >= seconds) {
      break;
    }
  }
  win.wall_s = seconds_since(t0);
  win.end = w.counters();
  return win;
}

/// Host throughput and step-time percentiles of a window.
std::vector<Metric> host_step_metrics(const Window& win) {
  return {
      {"steps_per_s",
       ratio(static_cast<double>(win.step_us.size()), win.wall_s), "1/s"},
      {"host_step_us_p50", pct(win.step_us, 50), "us"},
      {"host_step_us_p99", pct(win.step_us, 99), "us"},
  };
}

/// Brings the results home and runs the workload's output check; adds the
/// window's steps and the check to `tally`.
void finish_and_check(Workload& w, const Window& win, Spans& spans,
                      Tally& tally) {
  std::vector<std::string> fails;
  if (win.step_failed) {
    fails.emplace_back("a step failed; output not checked");
  } else {
    try {
      w.finish(spans);
      fails = w.check(win.start, win.steps);
    } catch (const std::exception& e) {
      fails.emplace_back(e.what());
    }
  }
  for (const std::string& f : fails) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }
  tally.attempted += win.steps + 1;
  tally.failed += (win.step_failed ? 1 : 0) + (fails.empty() ? 0 : 1);
}

/// Peak resident memory of this process image in MB (VmHWM). Unlike
/// getrusage's ru_maxrss it restarts at exec, so the launching process's
/// footprint does not leak into the reading.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// CPUs the calling thread may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) {
    throw std::runtime_error("cannot read the CPU affinity mask");
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) {
      cpus.push_back(c);
    }
  }
  return cpus;
}

/// Restricts the calling thread to `cpus` (best effort: a refused mask
/// leaves it as it was).
void pin_to(const std::vector<int>& cpus) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (const int c : cpus) {
    CPU_SET(c, &mask);
  }
  sched_setaffinity(0, sizeof mask, &mask);
}

/// One round of set-up timing: builds the workload repeatedly on each of
/// `cpus` in turn, appending each build's host time to `samples`; returns
/// the last world built, with the thread free to run on all of `cpus`.
std::unique_ptr<Workload> timed_setups(const std::string& name,
                                       const WorkloadOptions& opts,
                                       const std::vector<int>& cpus,
                                       std::vector<double>& samples) {
  std::unique_ptr<Workload> w;
  for (const int cpu : cpus) {
    pin_to({cpu});
    const Clock::time_point cpu_t0 = Clock::now();
    for (std::size_t i = 0;
         i < kMinSetups ||
         (i < kMaxSetups && seconds_since(cpu_t0) < kCpuBudgetS);
         ++i) {
      w.reset();  // the next configure frees the old world's memory
      const Clock::time_point t0 = Clock::now();
      w = make_workload(name, opts);
      samples.push_back(seconds_since(t0));
    }
  }
  pin_to(cpus);
  return w;
}

/// --trace 0: the end-to-end metrics.
std::vector<Metric> end_to_end(const std::string& name, std::uint64_t seed,
                               double seconds, Tally& tally) {
  WorkloadOptions opts;
  opts.seed = seed;
  generate_inputs(name, opts);
  Spans off(false);

  // Simulated time comes from a fixed-length episode on its own world, so
  // it is exact for a seed whatever the host speed: from a synchronized
  // start through episode_steps() steps and the final drain of the field.
  double sim_step_us = 0.0;
  double rss_mb = 0.0;
  {
    WorkloadOptions episode = opts;
    episode.compare_field = true;
    const std::unique_ptr<Workload> w = make_workload(name, episode);
    cuem::platform().sync_all();
    const SimTime t0 = cuem::platform().now();
    const Window ep =
        run_window(*w, std::numeric_limits<double>::infinity(),
                   static_cast<std::uint64_t>(w->episode_steps()), off);
    // Read before any other world is built: exactly one set-up plus a
    // fixed number of steps, so the reading does not depend on host speed
    // (the simulator's event table grows every step).
    rss_mb = peak_rss_mb();
    finish_and_check(*w, ep, off, tally);
    sim_step_us = static_cast<double>(cuem::platform().now() - t0) /
                  static_cast<double>(ep.steps) / 1e3;
  }

  // The --seconds go to windows that step the workload between the set-up
  // rounds and check its output: they spread the rounds over the run. Each
  // window runs on the world its round built last.
  std::vector<double> setup_s;
  const std::vector<int> cpus = allowed_cpus();
  for (int r = 0; r < kRounds; ++r) {
    const std::unique_ptr<Workload> w =
        timed_setups(name, opts, cpus, setup_s);
    if (r + 1 < kRounds) {
      const Window win = run_window(*w, seconds / (kRounds - 1), kNoCap, off);
      finish_and_check(*w, win, off, tally);
    }
  }
  std::printf("setup_s samples: %zu over %zu CPU(s), median %.6g s\n",
              setup_s.size(), cpus.size(), pct(setup_s, 50));
  return {
      {"sim_step_us", sim_step_us, "us"},
      {"setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
}

/// Median milliseconds of `reps` calls of `fn`.
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return pct(ms, 50);
}

/// --trace 1: the per-layer metrics. An untraced window gives the host
/// throughput and step times and the host cost per simulated op; a second
/// world with spans and platform trace recording gives everything else.
std::vector<Metric> per_layer(const std::string& name, std::uint64_t seed,
                              double seconds, const std::string& spans_out,
                              Tally& tally) {
  WorkloadOptions opts;
  opts.seed = seed;
  generate_inputs(name, opts);
  Spans off(false);

  std::unique_ptr<Workload> w = make_workload(name, opts);
  const Window plain = run_window(*w, seconds * kTraceWindowShare, kNoCap, off);
  finish_and_check(*w, plain, off, tally);
  const sim::TraceStats& ps = plain.end.trace;
  const sim::TraceStats& p0 = plain.start.trace;
  const std::uint64_t plain_ops =
      (ps.num_kernels - p0.num_kernels) + (ps.num_copies - p0.num_copies) +
      (ps.num_net_ops - p0.num_net_ops);
  std::vector<Metric> out = host_step_metrics(plain);
  const double plain_steps_per_s = out[0].value;
  w.reset();

  opts.record_trace = true;
  opts.compare_field = true;  // the traced window has a step cap
  w = make_workload(name, opts);
  sim::Platform& p = cuem::platform();
  p.sync_all();
  p.trace().clear();  // the window's ops only
  const SimTime sim0 = p.now();
  Spans spans(true);
  const Window win =
      run_window(*w, seconds * kTraceWindowShare,
                 static_cast<std::uint64_t>(w->traced_step_cap()), spans);
  p.sync_all();
  const double sim_ns = static_cast<double>(p.now() - sim0);
  const sim::TraceStats st = p.trace().stats();
  const sim::OverlapReport overlap = sim::overlap_report(p.trace());
  finish_and_check(*w, win, spans, tally);

  const Counters& a = win.start;
  const Counters& b = win.end;
  const double steps = static_cast<double>(win.steps);
  const auto per_step = [steps](std::uint64_t v) {
    return ratio(static_cast<double>(v), steps);
  };
  const double devices = static_cast<double>(p.num_devices());
  const std::uint64_t ops = st.num_kernels + st.num_copies + st.num_net_ops;
  const std::uint64_t logical = st.h2d_bytes + st.d2h_bytes;
  const std::uint64_t comp = st.comp_h2d_bytes + st.comp_d2h_bytes;
  const std::uint64_t comp_wire =
      st.comp_h2d_wire_bytes + st.comp_d2h_wire_bytes;
  const std::uint64_t cells = b.cells - a.cells;
  const oacc::LoopCost cost = w->cost();
  const std::vector<double> compute_us = spans.durations_us("compute");
  double compute_s = 0.0;
  for (const double us : compute_us) {
    compute_s += us / 1e6;
  }
  const std::vector<double> sync_us = spans.durations_us("sync");

  const PlanGeometry geom = w->plan_geometry();
  std::size_t plan_copies = 0;
  const double plan_ms = median_ms(kProbeReps, [&] {
    plan_copies =
        tida::compute_exchange_plan(geom.partition, geom.ghost, geom.bc)
            .size();
  });

  double ref_step_ms = 0.0;
  if (name == "heat_functional") {
    const int n = w->n();
    std::vector<double> u(static_cast<std::size_t>(n) * n * n, 1.0);
    std::vector<double> un(u.size());
    ref_step_ms = median_ms(kProbeReps, [&] {
      kernels::heat_step_flat(u.data(), un.data(), n);
      u.swap(un);
    });
  }
  const sim::FabricCounters& na = a.net;
  const sim::FabricCounters& nb = b.net;
  const std::uint64_t net_bytes = nb.net_bytes - na.net_bytes;
  w.reset();

  const double traced_steps_per_s =
      ratio(static_cast<double>(win.step_us.size()), win.wall_s);

  std::printf("traced window: %llu steps, %zu spans, %.3f ms simulated\n",
              static_cast<unsigned long long>(win.steps),
              spans.records().size(), sim_ns / 1e6);
  std::printf("self time per span name (ms):");
  for (const auto& [span, ns] : spans.self_ns_by_name()) {
    std::printf(" %s=%.3f", span.c_str(), ns / 1e6);
  }
  std::printf("\n");
  if (!spans_out.empty() && !spans.write_tsv(spans_out)) {
    std::fprintf(stderr, "cannot write spans to %s\n", spans_out.c_str());
  }

  const std::vector<Metric> layers = {
      {"sim.ops_per_step", per_step(ops), "count"},
      {"sim.host_ns_per_op", ratio(plain.wall_s * 1e9,
                                   static_cast<double>(plain_ops)),
       "ns"},
      {"sim.compute_busy_frac",
       ratio(static_cast<double>(st.compute_busy), sim_ns * devices), "ratio"},
      {"sim.copy_busy_frac",
       ratio(static_cast<double>(st.copy_busy),
             sim_ns * devices * p.config().copy_engines),
       "ratio"},
      {"sim.nic_busy_frac",
       ratio(static_cast<double>(st.nic_busy), sim_ns * devices), "ratio"},
      {"sim.overlap_eff", overlap.efficiency, "ratio"},
      {"sim.transfer_exposed_us_per_step",
       ratio(static_cast<double>(overlap.exposed_ns) / 1e3, steps), "us"},
      {"sim.sync_us_p50", pct(sync_us, 50), "us"},
      {"cuem.h2d_bytes_per_step", per_step(st.h2d_bytes), "B"},
      {"cuem.d2h_bytes_per_step", per_step(st.d2h_bytes), "B"},
      {"cuem.prefetch_h2d_bytes_per_step", per_step(st.prefetch_h2d_bytes),
       "B"},
      {"cuem.memcpy3d_bytes_per_step",
       per_step(st.memcpy3d_h2d_bytes + st.memcpy3d_d2h_bytes), "B"},
      {"cuem.p2p_bytes_per_step", per_step(st.p2p_bytes), "B"},
      {"cuem.comp_wire_ratio",
       logical == 0 ? 1.0 : ratio(logical - comp + comp_wire, logical),
       "ratio"},
      {"core.compute_us_p50", pct(compute_us, 50), "us"},
      {"core.compute_us_p99", pct(compute_us, 99), "us"},
      {"core.prefetch_us_p50", pct(spans.durations_us("prefetch"), 50), "us"},
      {"core.fill_boundary_us_p50",
       pct(spans.durations_us("fill_boundary"), 50), "us"},
      {"core.delta_ops_per_step",
       per_step((b.xfer.delta_h2d_ops + b.xfer.delta_d2h_ops) -
                (a.xfer.delta_h2d_ops + a.xfer.delta_d2h_ops)),
       "count"},
      {"core.flat_ops_per_step",
       per_step((b.xfer.flat_h2d_ops + b.xfer.flat_d2h_ops) -
                (a.xfer.flat_h2d_ops + a.xfer.flat_d2h_ops)),
       "count"},
      {"core.prefetch_ops_per_step",
       per_step(b.xfer.prefetch_ops - a.xfer.prefetch_ops), "count"},
      {"core.comp_ops_per_step",
       per_step((b.xfer.comp_h2d_ops + b.xfer.comp_d2h_ops) -
                (a.xfer.comp_h2d_ops + a.xfer.comp_d2h_ops)),
       "count"},
      {"core.streaming_exchanges",
       static_cast<double>(b.streaming_exchanges - a.streaming_exchanges),
       "count"},
      {"core.resident_hit_ratio",
       ratio(b.resident_visits - a.resident_visits, b.visits - a.visits),
       "ratio"},
      {"tida.exchange_plan_ms", plan_ms, "ms"},
      {"tida.plan_copies", static_cast<double>(plan_copies), "count"},
      {"net.exchange_begin_us_p50",
       pct(spans.durations_us("exchange_begin"), 50), "us"},
      {"net.exchange_end_us_p50", pct(spans.durations_us("exchange_end"), 50),
       "us"},
      {"net.wrs_per_step",
       per_step((nb.sends + nb.rdma_reads + nb.rdma_writes) -
                (na.sends + na.rdma_reads + na.rdma_writes)),
       "count"},
      {"net.wire_bytes_per_step",
       per_step(nb.net_wire_bytes - na.net_wire_bytes), "B"},
      {"net.gpudirect_frac",
       ratio(nb.gpudirect_bytes - na.gpudirect_bytes, net_bytes), "ratio"},
      {"kernels.cell_updates_per_s",
       ratio(static_cast<double>(cells), compute_s), "1/s"},
      {"kernels.flops_per_step",
       per_step(cells) * cost.flops_per_iter, "flop"},
      {"kernels.dev_bytes_per_step",
       per_step(cells) * cost.dev_bytes_per_iter, "B"},
      {"kernels.ref_step_ms", ref_step_ms, "ms"},
      {"trace.overhead_frac", ratio(plain_steps_per_s, traced_steps_per_s) - 1,
       "ratio"},
  };
  out.insert(out.end(), layers.begin(), layers.end());
  return out;
}

/// Runs every workload at self-test scale, clean and with one deliberate
/// error, and confirms the output checks report the error as a failure.
int selftest() {
  struct Case {
    std::string workload;
    Perturb perturb;
  };
  std::vector<Case> cases;
  for (const std::string& name : workload_names()) {
    cases.push_back({name, Perturb::kNone});
    cases.push_back({name, Perturb::kCounterExpectation});
  }
  cases.push_back({"heat_functional", Perturb::kReferenceField});

  int bad = 0;
  for (const Case& c : cases) {
    WorkloadOptions opts;
    opts.tiny = true;
    opts.compare_field = true;
    opts.perturb = c.perturb;
    generate_inputs(c.workload, opts);
    Tally tally;
    Spans off(false);
    {
      const std::unique_ptr<Workload> w = make_workload(c.workload, opts);
      const Window win = run_window(*w, 60.0, 3, off);
      finish_and_check(*w, win, off, tally);
    }
    const double frac = ratio(tally.failed, tally.attempted);
    const bool want_fail = c.perturb != Perturb::kNone;
    const bool ok = want_fail ? frac > 0.0 : frac == 0.0;
    static const char* const kPerturbNames[] = {"clean", "reference field",
                                                "counter expectation"};
    std::printf("[%s] %s, %s: step_fail_frac %.3g\n", ok ? "PASS" : "FAIL",
                c.workload.c_str(),
                kPerturbNames[static_cast<int>(c.perturb)], frac);
    bad += ok ? 0 : 1;
  }
  return bad == 0 ? 0 : 1;
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // JSON has no NaN or infinity; a non-finite value reads as 0.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <path>]\n"
               "       perfbench --selftest\n",
               why);
  return 2;
}

int run(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") {
      return selftest();
    }
    if (a.rfind("--", 0) != 0 || i + 1 >= argc) {
      return usage(("bad argument '" + a + "'").c_str());
    }
    args[a.substr(2)] = argv[++i];
  }
  for (const char* key : {"workload", "seed", "seconds", "trace"}) {
    if (args.count(key) == 0) {
      return usage((std::string("missing --") + key).c_str());
    }
  }
  const std::string name = args["workload"];
  bool known = false;
  for (const std::string& w : workload_names()) {
    known = known || w == name;
  }
  char* end = nullptr;
  const unsigned long long seed = std::strtoull(args["seed"].c_str(), &end, 10);
  const bool seed_ok = *end == '\0' && !args["seed"].empty();
  const double seconds = std::strtod(args["seconds"].c_str(), &end);
  const bool seconds_ok = *end == '\0' && seconds > 0.0 && seconds <= 600.0;
  const std::string trace = args["trace"];
  if (!known || !seed_ok || !seconds_ok || (trace != "0" && trace != "1")) {
    return usage("invalid --workload, --seed, --seconds or --trace value");
  }

  std::printf("workload=%s seed=%llu seconds=%g trace=%s\n", name.c_str(),
              seed, seconds, trace.c_str());
  Tally tally;
  const std::vector<Metric> metrics =
      trace == "0"
          ? end_to_end(name, seed, seconds, tally)
          : per_layer(name, seed, seconds, args["spans-out"], tally);
  std::printf("step_fail_frac: %.6g (%llu of %llu)\n",
              ratio(tally.failed, tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  for (const Metric& m : metrics) {
    std::printf("  %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_result(tally, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    // Set-up failures leave nothing to measure: no result line.
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

// The benchmark's four workloads. Each one owns its arrays on a freshly
// configured platform and drives them only through the library's public
// API, so every layer is measured from outside: the driver times the calls
// and reads the public counters gathered here.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dirty_tracker.hpp"
#include "net/fabric.hpp"
#include "oacc/oacc.hpp"
#include "sim/trace.hpp"
#include "spans.hpp"
#include "tida/ghost.hpp"

namespace perfbench {

/// Deliberate error the self-test injects to prove the output checks fire.
enum class Perturb { kNone, kReferenceField, kCounterExpectation };

struct WorkloadOptions {
  std::uint64_t seed = 1;
  /// Platform trace recording (needed by sim::overlap_report); grows with
  /// every simulated op, so only the traced run turns it on.
  bool record_trace = false;
  /// Self-test scale: the same configuration shrunk to run in milliseconds.
  bool tiny = false;
  /// heat_functional's check also compares the final field with the plain
  /// reference, which costs about three of its own steps per step run; the
  /// driver enables it on fixed-length runs only.
  bool compare_field = false;
  Perturb perturb = Perturb::kNone;
  /// heat_functional's seeded initial field, from generate_inputs().
  std::shared_ptr<const std::vector<double>> initial_field;
};

/// Generates the seeded inputs of workload `name` into `opts`, outside any
/// timed set-up: heat_functional's initial field (uniform in [0, 1) from
/// `opts.seed`, at the size `opts.tiny` selects). The other workloads take
/// only the seed's transfer jitter, which configuring the platform applies.
void generate_inputs(const std::string& name, WorkloadOptions& opts);

/// Cumulative layer counters, read from public library state plus the
/// benchmark's own per-call bookkeeping.
struct Counters {
  tidacc::sim::TraceStats trace;  ///< platform (sim + cuem) counters
  tidacc::core::TransferAccounting xfer;  ///< summed over the arrays
  tidacc::sim::FabricCounters net;  ///< summed over the fabrics
  std::uint64_t streaming_exchanges = 0;
  std::uint64_t visits = 0;           ///< compute calls
  std::uint64_t resident_visits = 0;  ///< ... whose region was on the device
  std::uint64_t cells = 0;            ///< cells those calls updated
  std::uint64_t steps_without_net = 0;  ///< cluster steps moving no wire bytes
};

/// Geometry of the workload's ghost exchange, for one direct
/// tida::compute_exchange_plan call.
struct PlanGeometry {
  tidacc::tida::Partition partition;
  int ghost = 0;
  tidacc::tida::Boundary bc = tidacc::tida::Boundary::kNone;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Runs one time step, recording a span around each public call.
  virtual void step(Spans& spans) = 0;

  /// Brings the current field home: release_all_to_host, then a device
  /// synchronize.
  virtual void finish(Spans& spans) = 0;

  virtual Counters counters() const = 0;

  /// Checks the workload's output after finish(); `at_start` are the
  /// counters when the checked window began and `steps` its length.
  /// Returns one message per failed expectation.
  virtual std::vector<std::string> check(const Counters& at_start,
                                         std::uint64_t steps) = 0;

  virtual PlanGeometry plan_geometry() const = 0;

  /// Per-cell cost the workload's kernels are priced with.
  virtual tidacc::oacc::LoopCost cost() const = 0;

  /// Simulated steps run by the fixed-length sim_step_us episode.
  virtual int episode_steps() const = 0;

  /// Steps the traced run records at most (its trace grows per op).
  virtual int traced_step_cap() const = 0;

  /// Domain edge length (the domain is n^3 cells).
  virtual int n() const = 0;
};

/// Workload names in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Configures a fresh platform (this destroys every earlier array, so the
/// previous workload must already be gone), seeds its transfer jitter,
/// builds and initializes the workload's arrays and runs one warm-up step.
/// Throws on an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& opts);

}  // namespace perfbench

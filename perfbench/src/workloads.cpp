#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "baselines/common.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cluster_tile_array.hpp"
#include "core/tidacc.hpp"
#include "cuem/cuem.hpp"
#include "kernels/heat.hpp"
#include "kernels/sincos.hpp"
#include "kernels/stencil27.hpp"

namespace perfbench {

namespace {

using namespace tidacc;

/// Upper bound of the seeded extension added to every simulated transfer.
/// It is small next to the shortest transfer any workload issues (pitched
/// ghost shells of tens of µs), so the seed moves completion times without
/// changing the schedule's shape.
constexpr SimTime kJitterMaxNs = 1000;

/// Rebuilds the global platform for one workload instance: `devices` K40m
/// devices on PCIe, trace recording as requested, seeded transfer jitter.
void configure_platform(const WorkloadOptions& o, bool functional,
                        int devices) {
  sim::DeviceConfig cfg = sim::DeviceConfig::k40m();
  const sim::Interconnect ic = sim::Interconnect::pcie();
  ic.apply_host_link(cfg);
  cuem::configure(cfg, functional, devices, ic);
  oacc::reset();
  sim::Platform& p = cuem::platform();
  p.trace().set_recording(o.record_trace);
  p.set_transfer_jitter(kJitterMaxNs, SplitMix64(o.seed).next());
}

void sync(Spans& spans) {
  const Span s(spans, "sync");
  baselines::check(cuemDeviceSynchronize(), "device synchronize");
}

void add(core::TransferAccounting& into, const core::TransferAccounting& x) {
  into.h2d_bytes += x.h2d_bytes;
  into.d2h_bytes += x.d2h_bytes;
  into.flat_h2d_ops += x.flat_h2d_ops;
  into.flat_d2h_ops += x.flat_d2h_ops;
  into.delta_h2d_ops += x.delta_h2d_ops;
  into.delta_d2h_ops += x.delta_d2h_ops;
  into.prefetch_ops += x.prefetch_ops;
  into.h2d_wire_bytes += x.h2d_wire_bytes;
  into.d2h_wire_bytes += x.d2h_wire_bytes;
  into.comp_h2d_ops += x.comp_h2d_ops;
  into.comp_d2h_ops += x.comp_d2h_ops;
}

void add(sim::FabricCounters& into, const sim::FabricCounters& x) {
  into.sends += x.sends;
  into.rdma_reads += x.rdma_reads;
  into.rdma_writes += x.rdma_writes;
  into.net_bytes += x.net_bytes;
  into.gpudirect_bytes += x.gpudirect_bytes;
  into.net_wire_bytes += x.net_wire_bytes;
  into.compressed_wrs += x.compressed_wrs;
}

/// Adds the self-test's deliberate off-by-one to a counter expectation.
std::uint64_t expected(std::uint64_t value, Perturb p) {
  return value + (p == Perturb::kCounterExpectation ? 1 : 0);
}

/// Shared bookkeeping: the loop cost and the per-call counters the
/// benchmark keeps itself.
class Base : public Workload {
 public:
  Counters counters() const override {
    Counters c = own_;
    c.trace = cuem::platform().trace().stats();
    return c;
  }

  oacc::LoopCost cost() const override { return cost_; }

 protected:
  Base(const WorkloadOptions& o, const oacc::LoopCost& cost)
      : perturb_(o.perturb), cost_(cost) {}

  void note_visit(core::Loc before, std::uint64_t cells) {
    ++own_.visits;
    own_.resident_visits += before == core::Loc::kDevice ? 1 : 0;
    own_.cells += cells;
  }

  Perturb perturb_;
  const oacc::LoopCost cost_;
  Counters own_;
};

// --- ooc_stream: Fig. 8 limited memory, whole regions streamed -----------

class OocStream final : public Base {
 public:
  explicit OocStream(const WorkloadOptions& o)
      : Base(o, kernels::sincos_cost(kIterations, sim::MathClass::kPgiDefault)),
        n_(o.tiny ? 16 : 512),
        regions_(o.tiny ? 8 : 64) {
    configure_platform(o, /*functional=*/false, 1);
    core::AccOptions opts;
    opts.max_slots = kSlots;
    opts.slot_policy = core::SlotPolicyKind::kLru;
    arr_ = std::make_unique<core::AccTileArray<double>>(
        tida::Box::cube(n_), tida::Index3{n_, n_, n_ / regions_},
        /*ghost=*/0, opts);
    arr_->assume_host_initialized();
    it_ = std::make_unique<core::AccTileIterator<double>>(*arr_);
    for (it_->reset(); it_->isValid(); it_->next()) {
      order_.push_back(it_->tile().tile.region.id);
    }
    Spans off(false);
    step(off);
  }

  void step(Spans& spans) override {
    for (it_->reset(/*gpu=*/true); it_->isValid(); it_->next()) {
      const core::AccTile<double> t = it_->tile();
      note_visit(arr_->location(t.tile.region.id), t.tile.box.volume());
      {
        const Span s(spans, "compute");
        core::compute(t, cost_,
                      [](core::DeviceView<double> v, int i, int j, int k) {
                        v(i, j, k) = kernels::sincos_cell(v(i, j, k),
                                                          kIterations);
                      });
      }
      // The lookahead wraps into the next step, so the first uploads of
      // step s+1 are queued before the step barrier below.
      for (std::size_t a = 1; a <= kPrefetch; ++a) {
        const Span s(spans, "prefetch");
        arr_->prefetch_to_device(order_[(pos_ + a) % order_.size()]);
      }
      ++pos_;
    }
    sync(spans);
  }

  void finish(Spans& spans) override {
    {
      const Span s(spans, "release_all_to_host");
      arr_->release_all_to_host();
    }
    sync(spans);
  }

  Counters counters() const override {
    Counters c = Base::counters();
    c.xfer = arr_->transfers();
    return c;
  }

  std::vector<std::string> check(const Counters& at_start,
                                 std::uint64_t /*steps*/) override {
    const Counters now = counters();
    const std::uint64_t visits = now.visits - at_start.visits;
    const std::uint64_t resident =
        now.resident_visits - at_start.resident_visits;
    const std::uint64_t uploads =
        (now.xfer.prefetch_ops - at_start.xfer.prefetch_ops) +
        (now.xfer.flat_h2d_ops - at_start.xfer.flat_h2d_ops);
    std::vector<std::string> fails;
    if (resident != expected(visits, perturb_)) {
      fails.push_back("ooc_stream: " + std::to_string(resident) + " of " +
                      std::to_string(visits) +
                      " visits found their region resident");
    }
    if (uploads != visits) {
      fails.push_back("ooc_stream: " + std::to_string(uploads) +
                      " prefetch+flat uploads for " + std::to_string(visits) +
                      " visits");
    }
    return fails;
  }

  PlanGeometry plan_geometry() const override {
    return {arr_->partition(), 0, tida::Boundary::kNone};
  }
  int episode_steps() const override { return 100; }
  int traced_step_cap() const override { return 1000; }
  int n() const override { return n_; }

 private:
  static constexpr int kIterations = 8;
  static constexpr int kSlots = 4;
  static constexpr std::size_t kPrefetch = 2;

  int n_;
  int regions_;
  std::unique_ptr<core::AccTileArray<double>> arr_;
  std::unique_ptr<core::AccTileIterator<double>> it_;
  std::vector<int> order_;
  std::size_t pos_ = 0;
};

// --- halo_delta: out-of-core in-place sweep with streaming exchanges ------

class HaloDelta final : public Base {
 public:
  // Timing-only and fast at full size; smaller domains make kAuto drain
  // instead of stream, so the self-test keeps 256^3 too.
  explicit HaloDelta(const WorkloadOptions& o)
      : Base(o, kernels::box_stencil_cost(1)) {
    configure_platform(o, /*functional=*/false, 1);
    core::AccOptions opts;
    opts.max_slots = kRegions - 1;
    opts.delta_transfers = true;
    opts.compression = core::Compression::kAuto;
    arr_ = std::make_unique<core::AccTileArray<double>>(
        tida::Box::cube(kN), tida::Index3{kN, kN, kN / kRegions},
        /*ghost=*/1, opts);
    arr_->assume_host_initialized();
    it_ = std::make_unique<core::AccTileIterator<double>>(*arr_);
    Spans off(false);
    step(off);
  }

  void step(Spans& spans) override {
    {
      const Span s(spans, "fill_boundary");
      arr_->fill_boundary(tida::Boundary::kPeriodic);
    }
    for (it_->reset(/*gpu=*/true); it_->isValid(); it_->next()) {
      const core::AccTile<double> t = it_->tile();
      note_visit(arr_->location(t.tile.region.id), t.tile.box.volume());
      const Span s(spans, "compute");
      core::compute(t, cost_,
                    [](core::DeviceView<double> v, int i, int j, int k) {
                      v(i, j, k) = kernels::box_stencil_point(v, i, j, k, 1);
                    });
    }
  }

  void finish(Spans& spans) override {
    {
      const Span s(spans, "release_all_to_host");
      arr_->release_all_to_host();
    }
    sync(spans);
  }

  Counters counters() const override {
    Counters c = Base::counters();
    c.xfer = arr_->transfers();
    c.streaming_exchanges = arr_->streaming_exchanges();
    return c;
  }

  std::vector<std::string> check(const Counters& at_start,
                                 std::uint64_t steps) override {
    const std::uint64_t streamed =
        counters().streaming_exchanges - at_start.streaming_exchanges;
    if (streamed == expected(steps, perturb_)) {
      return {};
    }
    return {"halo_delta: " + std::to_string(streamed) + " of " +
            std::to_string(steps) + " exchanges streamed"};
  }

  PlanGeometry plan_geometry() const override {
    return {arr_->partition(), 1, tida::Boundary::kPeriodic};
  }
  int episode_steps() const override { return 50; }
  int traced_step_cap() const override { return 300; }
  int n() const override { return kN; }

 private:
  static constexpr int kN = 256;
  /// At 32 slabs Compression/StreamingGuard kAuto drains instead of
  /// streaming; 16 keeps the streaming exchange this workload exists for.
  static constexpr int kRegions = 16;

  std::unique_ptr<core::AccTileArray<double>> arr_;
  std::unique_ptr<core::AccTileIterator<double>> it_;
};

// --- cluster_overlap: split-phase heat over an 8-node fabric --------------

using ClusterArray = core::ClusterTileArray<double>;

class ClusterOverlap final : public Base {
 public:
  explicit ClusterOverlap(const WorkloadOptions& o)
      : Base(o, kernels::heat_cost()),
        n_(o.tiny ? 32 : 512),
        ghost_(o.tiny ? 2 : 4),
        regions_per_node_(o.tiny ? 2 : 16) {
    configure_platform(o, /*functional=*/false, kNodes);
    core::ClusterOptions opts;
    opts.multi.devices = kNodes;
    opts.nodes = kNodes;
    opts.fabric = sim::FabricConfig::infiniband();
    opts.path = core::NetPath::kGpuDirect;
    const int slab = n_ / (kNodes * regions_per_node_);
    for (auto* a : {&a_, &b_}) {
      *a = std::make_unique<ClusterArray>(
          tida::Box::cube(n_), tida::Index3{n_, n_, slab}, ghost_, opts);
      (*a)->assume_host_initialized();
    }
    // All regions resident: the split-phase wire path needs live slots.
    for (int r = 0; r < a_->num_regions(); ++r) {
      a_->acquire_on_device(r);
      b_->acquire_on_device(r);
    }
    oacc::wait_all();
    const std::vector<int> boundary =
        a_->node_boundary_regions(tida::Boundary::kPeriodic);
    for (int r = 0; r < a_->num_regions(); ++r) {
      (std::find(boundary.begin(), boundary.end(), r) == boundary.end()
           ? interior_
           : boundary_)
          .push_back(r);
    }
    u_ = a_.get();
    un_ = b_.get();
    Spans off(false);
    step(off);
  }

  void step(Spans& spans) override {
    const std::uint64_t wire_before = net().net_bytes;
    {
      const Span s(spans, "exchange_begin");
      u_->exchange_begin(tida::Boundary::kPeriodic);
    }
    sweep(interior_, spans);  // hides the wire
    {
      const Span s(spans, "exchange_end");
      u_->exchange_end();
    }
    sweep(boundary_, spans);
    own_.steps_without_net += net().net_bytes == wire_before ? 1 : 0;
    std::swap(u_, un_);
  }

  void finish(Spans& spans) override {
    {
      const Span s(spans, "release_all_to_host");
      u_->release_all_to_host();
    }
    sync(spans);
  }

  Counters counters() const override {
    Counters c = Base::counters();
    add(c.xfer, a_->transfers());
    add(c.xfer, b_->transfers());
    c.net = net();
    c.streaming_exchanges =
        a_->streaming_exchanges() + b_->streaming_exchanges();
    return c;
  }

  std::vector<std::string> check(const Counters& at_start,
                                 std::uint64_t /*steps*/) override {
    const Counters now = counters();
    std::vector<std::string> fails;
    const std::uint64_t idle =
        now.steps_without_net - at_start.steps_without_net;
    if (idle != expected(0, perturb_)) {
      fails.push_back("cluster_overlap: " + std::to_string(idle) +
                      " steps moved no cross-node bytes");
    }
    if (now.trace.num_warnings != 0) {
      fails.push_back("cluster_overlap: " +
                      std::to_string(now.trace.num_warnings) +
                      " runtime warnings (out-of-core host fallback)");
    }
    return fails;
  }

  PlanGeometry plan_geometry() const override {
    return {a_->partition(), ghost_, tida::Boundary::kPeriodic};
  }
  int episode_steps() const override { return 50; }
  int traced_step_cap() const override { return 300; }
  int n() const override { return n_; }

 private:
  static constexpr int kNodes = 8;

  sim::FabricCounters net() const {
    sim::FabricCounters c;
    add(c, a_->fabric().counters());
    add(c, b_->fabric().counters());
    return c;
  }

  void sweep(const std::vector<int>& regions, Spans& spans) {
    for (const int r : regions) {
      note_visit(u_->location(r), u_->region(r).valid.volume());
      const Span s(spans, "compute");
      core::compute_gpu(*u_, *un_, r, cost_,
                        [](core::DeviceView<double> us,
                           core::DeviceView<double> uns, int i, int j, int k) {
                          uns(i, j, k) = kernels::heat_point(us, i, j, k);
                        });
    }
  }

  int n_;
  int ghost_;
  int regions_per_node_;
  std::unique_ptr<ClusterArray> a_;
  std::unique_ptr<ClusterArray> b_;
  ClusterArray* u_ = nullptr;
  ClusterArray* un_ = nullptr;
  std::vector<int> interior_;
  std::vector<int> boundary_;
};

// --- heat_functional: TiDA-acc heat with real kernel bodies ---------------

int heat_n(bool tiny) { return tiny ? 16 : 128; }

std::size_t cube(int n) { return static_cast<std::size_t>(n) * n * n; }

class HeatFunctional final : public Base {
 public:
  explicit HeatFunctional(const WorkloadOptions& o)
      : Base(o, kernels::heat_cost()),
        n_(heat_n(o.tiny)),
        compare_field_(o.compare_field),
        initial_(o.initial_field) {
    TIDACC_CHECK_MSG(initial_ != nullptr && initial_->size() == cube(n_),
                     "heat_functional needs generate_inputs' initial field");
    configure_platform(o, /*functional=*/true, 1);
    const int regions = o.tiny ? 4 : 16;
    for (auto* a : {&a_, &b_}) {
      *a = std::make_unique<core::AccTileArray<double>>(
          tida::Box::cube(n_), tida::Index3{n_, n_, n_ / regions},
          /*ghost=*/1);
    }
    a_->fill([this](const tida::Index3& q) { return (*initial_)[flat(q)]; });
    it_ = std::make_unique<core::AccTileIterator<double>>(*a_);
    u_ = a_.get();
    un_ = b_.get();
    Spans off(false);
    step(off);
  }

  void step(Spans& spans) override {
    {
      const Span s(spans, "fill_boundary");
      u_->fill_boundary(tida::Boundary::kPeriodic);
    }
    for (it_->reset(/*gpu=*/true); it_->isValid(); it_->next()) {
      const core::AccTile<double> in = it_->tile_in(*u_);
      note_visit(u_->location(in.tile.region.id), in.tile.box.volume());
      const Span s(spans, "compute");
      core::compute(in, it_->tile_in(*un_), cost_,
                    [](core::DeviceView<double> us,
                       core::DeviceView<double> uns, int i, int j, int k) {
                      uns(i, j, k) = kernels::heat_point(us, i, j, k);
                    });
    }
    std::swap(u_, un_);
    ++steps_;
  }

  void finish(Spans& spans) override {
    {
      const Span s(spans, "release_all_to_host");
      u_->release_all_to_host();
    }
    sync(spans);
  }

  /// Every visit finds its region resident; with compare_field, the final
  /// field is also bitwise equal to kernels::heat_step_flat run for the same
  /// number of steps from the same initial field.
  std::vector<std::string> check(const Counters& at_start,
                                 std::uint64_t /*steps*/) override {
    std::vector<std::string> fails;
    const Counters now = counters();
    const std::uint64_t visits = now.visits - at_start.visits;
    const std::uint64_t resident =
        now.resident_visits - at_start.resident_visits;
    if (resident != expected(visits, perturb_)) {
      fails.push_back("heat_functional: " + std::to_string(resident) +
                      " of " + std::to_string(visits) +
                      " visits found their region resident");
    }
    if (!compare_field_) {
      return fails;
    }
    std::vector<double> got(initial_->size());
    u_->copy_out(got.data());
    std::vector<double> ref = *initial_;
    kernels::heat_reference(ref, n_, static_cast<int>(steps_));
    if (perturb_ == Perturb::kReferenceField) {
      ref[ref.size() / 2] += 1.0;
    }
    if (std::memcmp(got.data(), ref.data(), ref.size() * sizeof(double)) !=
        0) {
      std::size_t diff = 0;
      for (std::size_t c = 0; c < ref.size(); ++c) {
        diff += got[c] != ref[c] ? 1 : 0;
      }
      fails.push_back("heat_functional: " + std::to_string(diff) +
                      " cells differ from the heat_step_flat reference "
                      "after " +
                      std::to_string(steps_) + " steps");
    }
    return fails;
  }

  PlanGeometry plan_geometry() const override {
    return {a_->partition(), 1, tida::Boundary::kPeriodic};
  }
  int episode_steps() const override { return 10; }
  int traced_step_cap() const override { return 100; }
  int n() const override { return n_; }

 private:
  std::size_t flat(const tida::Index3& q) const {
    return (static_cast<std::size_t>(q.k) * n_ + q.j) * n_ + q.i;
  }

  int n_;
  bool compare_field_;
  std::shared_ptr<const std::vector<double>> initial_;
  std::unique_ptr<core::AccTileArray<double>> a_;
  std::unique_ptr<core::AccTileArray<double>> b_;
  core::AccTileArray<double>* u_ = nullptr;
  core::AccTileArray<double>* un_ = nullptr;
  std::unique_ptr<core::AccTileIterator<double>> it_;
  std::uint64_t steps_ = 0;  ///< steps since the initial fill
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "ooc_stream", "halo_delta", "cluster_overlap", "heat_functional"};
  return names;
}

void generate_inputs(const std::string& name, WorkloadOptions& opts) {
  if (name != "heat_functional") {
    return;
  }
  auto field = std::make_shared<std::vector<double>>(cube(heat_n(opts.tiny)));
  Rng rng(opts.seed);
  for (double& v : *field) {
    v = rng.next_double();
  }
  opts.initial_field = std::move(field);
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& opts) {
  if (name == "ooc_stream") {
    return std::make_unique<OocStream>(opts);
  }
  if (name == "halo_delta") {
    return std::make_unique<HaloDelta>(opts);
  }
  if (name == "cluster_overlap") {
    return std::make_unique<ClusterOverlap>(opts);
  }
  if (name == "heat_functional") {
    return std::make_unique<HeatFunctional>(opts);
  }
  TIDACC_FAIL("unknown workload '" + name + "'");
}

}  // namespace perfbench

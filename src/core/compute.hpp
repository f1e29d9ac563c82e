// compute() — the paper's uniform execution method (§IV-B5, §V).
//
// The programmer traverses tiles with an AccTileIterator and calls
// compute(tile..., cost, lambda), or compute_gpu(array, region, ...) for a
// whole region. The same call runs the lambda over the tile's cells on the
// CPU (GPU-disabled traversal) or launches a generated kernel on the tile's
// stream (GPU-enabled traversal). Data pointers are delivered to the lambda
// as parameters — DeviceViews — which is the paper's §V-A workaround for
// OpenACC's lambda/deviceptr limitation.
//
// Lambda signature, for N tiles:
//   [](DeviceView<T0> v0, ..., DeviceView<TN-1> vN-1, int i, int j, int k)
// Indices are global (domain) coordinates; views index globally too.
//
// Every region kernel — compute()'s GPU path, compute_gpu and compute_k's
// sub-steps — is issued by detail::launch, which orders it against its
// operands' streams and claims each operand in one role (read or written).
#pragma once

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/acc_tile_array.hpp"
#include "oacc/oacc.hpp"
#include "sim/platform.hpp"

namespace tidacc::core {

/// Indexable view of one region's buffer (host or device side), built from
/// its pointer, grown box and component count. The grown box's CellLayout is
/// computed once, at construction, so lambdas address cells by global index
/// with one multiply-add chain per access. Multi-component arrays use the
/// 4-argument accessor (component-major layout). The fields are read-only.
template <typename T>
class DeviceView {
 public:
  DeviceView(T* data, const tida::Box& grown, int ncomp = 1)
      : data_(data), grown_(grown), ncomp_(ncomp), layout_(grown) {}

  T& operator()(int i, int j, int k) const {
    return data_[layout_.offset(i, j, k)];
  }
  T& operator()(int i, int j, int k, int c) const {
    return data_[layout_.offset(i, j, k, c)];
  }

  T* data() const { return data_; }
  const tida::Box& grown() const { return grown_; }
  int ncomp() const { return ncomp_; }
  const tida::CellLayout& layout() const { return layout_; }
  /// Size of the viewed buffer: every component of the grown box.
  std::size_t bytes() const { return grown_.volume() * ncomp_ * sizeof(T); }

 private:
  T* data_;
  tida::Box grown_;
  int ncomp_;
  tida::CellLayout layout_;
};

namespace detail {

/// Runs body(views..., i, j, k) once per cell of `range`, i fastest.
template <typename Fn, typename... Views>
void for_each_cell(const tida::Box& range, Fn& body,
                   const std::tuple<Views...>& views) {
  std::apply(
      [&](const Views&... v) {
        for (int k = range.lo.k; k <= range.hi.k; ++k) {
          for (int j = range.lo.j; j <= range.hi.j; ++j) {
            for (int i = range.lo.i; i <= range.hi.i; ++i) {
              body(v..., i, j, k);
            }
          }
        }
      },
      views);
}

/// One operand of a region kernel: its view of a slot buffer, the stream
/// serving that slot, and whether the kernel may write the buffer.
template <typename T>
struct Operand {
  DeviceView<T> view;
  cuemStream_t stream;
  bool write;
};

/// The one place a region kernel is issued (§IV-B5): body(views..., i, j, k)
/// over `range` as one OpenACC-generated kernel on the first operand's
/// stream. In order, it
///   1. makes the kernel stream wait on every other operand's stream, so
///      their staging lands first;
///   2. enqueues the kernel, priced by the loop's profile (compiler-chosen
///      geometry) plus the OpenACC dispatch cost, named label() while a
///      trace records or the sanitizer is on;
///   3. claims each operand's slot buffer once, in its role
///      (cuem::claim: the sanitizer's racecheck and the op graph);
///   4. makes every other operand's stream wait on the kernel, so work
///      queued there later (its next kernel, an eviction D2H) sees it.
/// The host never synchronizes: stream order protects later work on the
/// kernel stream.
template <typename Fn, typename Label, typename... Ts>
void launch(const tida::Box& range, const oacc::LoopCost& cost, Fn&& body,
            const Label& label, const Operand<Ts>&... ops) {
  sim::Platform& p = sim::Platform::instance();
  const cuemStream_t kstream = std::get<0>(std::tie(ops...)).stream;
  const auto order = [kstream](cuemStream_t s, bool kernel_waits) {
    if (s != kstream) {
      CUEM_CHECK(kernel_waits ? cuem::order_after(kstream, s)
                              : cuem::order_after(s, kstream));
    }
  };
  (order(ops.stream, /*kernel_waits=*/true), ...);

  const std::string op = p.trace().recording() || cuem::san::enabled()
                             ? label()
                             : std::string();
  p.enqueue_kernel(kstream,
                   cost.profile(range.volume(), /*tuned_geometry=*/false),
                   p.config().oacc_dispatch_extra_ns,
                   [range, views = std::make_tuple(ops.view...),
                    body = std::forward<Fn>(body)]() {
                     for_each_cell(range, body, views);
                   },
                   op);

  cuem::Claims claims(op.c_str());
  (claims.add(ops.view.data(), sim::ByteBox::span(0, ops.view.bytes()),
              ops.write ? cuem::Role::kWrite : cuem::Role::kRead),
   ...);
  cuem::claim(kstream, claims);

  (order(ops.stream, /*kernel_waits=*/false), ...);
}

/// Throws unless `device`, where an operand's region `region` lives, is
/// the kernel's device: one kernel runs against one device's slots.
inline void check_one_device(int region, int device, int kernel_device) {
  TIDACC_CHECK_MSG(device == kernel_device,
                   "compute on region " + std::to_string(region) +
                       ": one operand lives on device " +
                       std::to_string(device) + ", the first on device " +
                       std::to_string(kernel_device) +
                       " — a kernel runs against one device's slots");
}

/// compute() over any tiles: the CPU loop, or one region kernel.
template <typename Fn, typename... Ts>
void compute_range(const tida::Box& range, const oacc::LoopCost& cost,
                   Fn&& body, const AccTile<Ts>&... tiles) {
  static_assert(sizeof...(Ts) >= 1, "compute needs at least one tile");
  const auto& first = std::get<0>(std::tie(tiles...));

  const bool gpu = first.gpu;
  TIDACC_CHECK_MSG(((tiles.gpu == gpu) && ...),
                   "all tiles of one compute must share the GPU flag");
  TIDACC_CHECK_MSG((... && (tiles.array != nullptr)), "unbound AccTile");
  TIDACC_CHECK_MSG(first.tile.region.valid.contains(range),
                   "compute range must lie inside the tile's region");

  sim::Platform& p = sim::Platform::instance();

  if (!gpu) {
    // CPU path: make every region current on the host and run the loop.
    (tiles.array->acquire_on_host(tiles.tile.region.id), ...);
    const auto views = std::make_tuple(
        DeviceView<Ts>{tiles.tile.region.data, tiles.tile.region.grown,
                       tiles.tile.region.ncomp}...);
    if (p.functional()) {
      for_each_cell(range, body, views);
    }
    p.host_advance(cost.profile(range.volume(), /*tuned_geometry=*/false)
                       .host_duration_ns(p.config()));
    return;
  }

  if constexpr (sizeof...(Ts) > 1) {
    const int device = first.array->device_of_region(first.tile.region.id);
    (check_one_device(tiles.tile.region.id,
                      tiles.array->device_of_region(tiles.tile.region.id),
                      device),
     ...);
  }
  // Stage every region, in argument order: a braced list evaluates left to
  // right, where function arguments need not. The body may write any tile,
  // so every operand is written.
  const std::tuple<Operand<Ts>...> ops{Operand<Ts>{
      DeviceView<Ts>{tiles.array->acquire_on_device(tiles.tile.region.id),
                     tiles.tile.region.grown, tiles.tile.region.ncomp},
      tiles.array->stream_of_region(tiles.tile.region.id),
      /*write=*/true}...};
  const int id = first.tile.region.id;
  std::apply(
      [&](const auto&... o) {
        launch(
            range, cost, std::forward<Fn>(body),
            [id] { return "C:R" + std::to_string(id); }, o...);
      },
      ops);
  // Dirty tracking is conservative too: every array records a device write
  // over `range`.
  (tiles.array->note_device_write(tiles.tile.region.id, range), ...);
}

/// compute_reduce() over any tiles: folds body(views..., i, j, k) over the
/// first tile's box into one value and returns it to the host.
template <typename Fn, typename... Ts>
double reduce_range(const oacc::LoopCost& cost, oacc::ReduceOp op,
                    Fn&& body, const AccTile<Ts>&... tiles) {
  const auto& first = std::get<0>(std::tie(tiles...));
  auto partial = std::make_shared<double>(oacc::detail::reduce_identity(op));
  compute_range(
      first.tile.box, cost,
      [op, partial, body = std::forward<Fn>(body)](DeviceView<Ts>... v,
                                                   int i, int j, int k) {
        *partial =
            oacc::detail::reduce_combine(op, *partial, body(v..., i, j, k));
      },
      tiles...);
  sim::Platform& p = sim::Platform::instance();
  p.host_advance(p.config().transfer_latency_ns);
  if (first.gpu) {
    CUEM_CHECK(cuemStreamSynchronize(
        first.array->stream_of_region(first.tile.region.id)));
  }
  return *partial;
}

}  // namespace detail

// --- public overloads (paper §V shapes) ---

/// compute(tile, cost, lambda)
template <typename T0, typename Fn>
void compute(const AccTile<T0>& t0, const oacc::LoopCost& cost, Fn&& body) {
  detail::compute_range(t0.tile.box, cost, std::forward<Fn>(body), t0);
}

/// compute(tile, lo, hi, cost, lambda) — restricted iteration range.
template <typename T0, typename Fn>
void compute(const AccTile<T0>& t0, const tida::Index3& lo,
             const tida::Index3& hi, const oacc::LoopCost& cost, Fn&& body) {
  detail::compute_range(tida::Box{lo, hi}, cost, std::forward<Fn>(body), t0);
}

/// compute(tileA, tileB, cost, lambda) — multi-tile input/output.
template <typename T0, typename T1, typename Fn>
void compute(const AccTile<T0>& t0, const AccTile<T1>& t1,
             const oacc::LoopCost& cost, Fn&& body) {
  detail::compute_range(t0.tile.box, cost, std::forward<Fn>(body), t0, t1);
}

/// compute(tileA, tileB, lo, hi, cost, lambda)
template <typename T0, typename T1, typename Fn>
void compute(const AccTile<T0>& t0, const AccTile<T1>& t1,
             const tida::Index3& lo, const tida::Index3& hi,
             const oacc::LoopCost& cost, Fn&& body) {
  detail::compute_range(tida::Box{lo, hi}, cost, std::forward<Fn>(body), t0,
                        t1);
}

/// compute over three tiles.
template <typename T0, typename T1, typename T2, typename Fn>
void compute(const AccTile<T0>& t0, const AccTile<T1>& t1,
             const AccTile<T2>& t2, const oacc::LoopCost& cost, Fn&& body) {
  detail::compute_range(t0.tile.box, cost, std::forward<Fn>(body), t0, t1,
                        t2);
}

/// compute over four tiles.
template <typename T0, typename T1, typename T2, typename T3, typename Fn>
void compute(const AccTile<T0>& t0, const AccTile<T1>& t1,
             const AccTile<T2>& t2, const AccTile<T3>& t3,
             const oacc::LoopCost& cost, Fn&& body) {
  detail::compute_range(t0.tile.box, cost, std::forward<Fn>(body), t0, t1,
                        t2, t3);
}

// --- whole-region compute on the owning device ---

/// Launches `body` over `region`'s valid box on the region's owning device:
/// compute() over the region's single whole-region GPU tile.
template <typename T, typename Fn>
void compute_gpu(MultiAccTileArray<T>& a, int region,
                 const oacc::LoopCost& cost, Fn&& body) {
  const tida::Region<T> reg = a.region(region);
  compute(AccTile<T>{&a, tida::Tile<T>{reg, reg.valid}, /*gpu=*/true}, cost,
          std::forward<Fn>(body));
}

/// Two-array variant (Jacobi-style in/out): body(in, out, i, j, k). Both
/// arrays must place the region on the same device. The kernel runs on the
/// input's stream, reads the input and writes the output; it acquires the
/// input first.
template <typename T, typename Fn>
void compute_gpu(MultiAccTileArray<T>& in, MultiAccTileArray<T>& out,
                 int region, const oacc::LoopCost& cost, Fn&& body) {
  TIDACC_CHECK_MSG(in.partition() == out.partition(),
                   "in/out arrays must share the partition geometry");
  detail::check_one_device(region, out.device_of_region(region),
                           in.device_of_region(region));
  const tida::Region<T> rin = in.region(region);
  const tida::Region<T> rout = out.region(region);
  const DeviceView<T> vin{in.acquire_on_device(region), rin.grown,
                          rin.ncomp};
  const DeviceView<T> vout{out.acquire_on_device(region), rout.grown,
                           rout.ncomp};
  detail::launch(
      rin.valid, cost, std::forward<Fn>(body),
      [region] { return "C:R" + std::to_string(region); },
      detail::Operand<T>{vin, in.stream_of_region(region), /*write=*/false},
      detail::Operand<T>{vout, out.stream_of_region(region), /*write=*/true});
  in.note_device_write(region, rin.valid);
  out.note_device_write(region, rout.valid);
}

// --- reductions ---

/// compute_reduce(tile, cost, op, lambda): the body returns one value per
/// cell; the combined result is returned to the host (this blocks on the
/// tile's stream — a reduction's value is host-visible). The device data is
/// not modified, so the region's location is unchanged for reads.
///
/// In timing-only mode the identity element is returned.
template <typename T0, typename Fn>
double compute_reduce(const AccTile<T0>& t0, const oacc::LoopCost& cost,
                      oacc::ReduceOp op, Fn&& body) {
  return detail::reduce_range(cost, op, std::forward<Fn>(body), t0);
}

/// Two-tile reduction: body(v0, v1, i, j, k) -> double. Used for residuals
/// and error norms between two fields without any host copies.
template <typename T0, typename T1, typename Fn>
double compute_reduce(const AccTile<T0>& t0, const AccTile<T1>& t1,
                      const oacc::LoopCost& cost, oacc::ReduceOp op,
                      Fn&& body) {
  return detail::reduce_range(cost, op, std::forward<Fn>(body), t0, t1);
}

// --- hybrid CPU/GPU traversal (paper §III: "overlapping computation in
// CPU with computation in GPU") ---

/// Outcome of one hybrid traversal.
struct HybridStats {
  int gpu_tiles = 0;
  int cpu_tiles = 0;
};

/// Runs one full traversal with the first regions' tiles on the GPU and
/// the last `cpu_regions` regions' tiles on the CPU. GPU kernels are
/// enqueued first (asynchronously), then the CPU works its share while the
/// device crunches — host and device virtual time overlap.
///
/// Regions keep a stable side across repeated calls, so steady-state runs
/// incur no ping-pong transfers.
template <typename T, typename Fn>
HybridStats compute_hybrid(AccTileIterator<T>& it, int cpu_regions,
                           const oacc::LoopCost& cost, Fn&& body) {
  TIDACC_CHECK_MSG(cpu_regions >= 0, "negative CPU share");
  HybridStats stats;
  // Pass 1: enqueue every GPU tile (returns immediately per tile).
  for (it.reset(/*gpu=*/true); it.isValid(); it.next()) {
    AccTile<T> tile = it.tile();
    const int region = tile.tile.region.id;
    if (region >= tile.array->num_regions() - cpu_regions) {
      continue;
    }
    compute(tile, cost, body);
    ++stats.gpu_tiles;
  }
  // Pass 2: the host computes its share while the device is busy.
  for (it.reset(/*gpu=*/false); it.isValid(); it.next()) {
    AccTile<T> tile = it.tile();
    const int region = tile.tile.region.id;
    if (region < tile.array->num_regions() - cpu_regions) {
      continue;
    }
    compute(tile, cost, body);
    ++stats.cpu_tiles;
  }
  return stats;
}

// --- multicore host traversal (the original TiDA execution model) ---

/// Runs one full CPU traversal with tiles distributed across a thread pool
/// — the multicore path TiDA was built for (tiles sized for cache reuse,
/// regions for NUMA placement). All involved regions are made host-current
/// first; tiles are disjoint so the body may run concurrently.
///
/// The modeled host time is the serial tile cost divided by the effective
/// parallelism min(threads, tiles).
template <typename T, typename Fn>
void compute_host_parallel(AccTileIterator<T>& it, ThreadPool& pool,
                           const oacc::LoopCost& cost, Fn&& body) {
  sim::Platform& p = sim::Platform::instance();

  // Collect the tiles and make their regions host-current.
  std::vector<AccTile<T>> tiles;
  for (it.reset(/*gpu=*/false); it.isValid(); it.next()) {
    tiles.push_back(it.tile());
  }
  std::uint64_t cells = 0;
  for (AccTile<T>& t : tiles) {
    t.array->acquire_on_host(t.tile.region.id);
    cells += t.tile.box.volume();
  }

  if (p.functional()) {
    pool.parallel_for(tiles.size(), [&](std::size_t idx) {
      const tida::Tile<T>& t = tiles[idx].tile;
      detail::for_each_cell(t.box, body,
                            std::make_tuple(DeviceView<T>{
                                t.region.data, t.region.grown,
                                t.region.ncomp}));
    });
  }

  // Parallel host cost: serial roofline cost over effective workers.
  const std::size_t workers =
      std::max<std::size_t>(1, std::min(pool.thread_count(), tiles.size()));
  p.host_advance(cost.profile(cells, /*tuned_geometry=*/false)
                     .host_duration_ns(p.config()) /
                 workers);
}

}  // namespace tidacc::core

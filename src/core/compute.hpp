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

/// Shared implementation over a parameter pack of tiles.
template <typename Fn, typename... Ts>
void compute_range(const tida::Box& range, const oacc::LoopCost& cost,
                   Fn&& body, const AccTile<Ts>&... tiles) {
  static_assert(sizeof...(Ts) >= 1, "compute needs at least one tile");
  constexpr std::size_t kN = sizeof...(Ts);

  const std::tuple<const AccTile<Ts>&...> pack(tiles...);
  const AccTile<std::tuple_element_t<0, std::tuple<Ts...>>>& first =
      std::get<0>(pack);

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

  // GPU path: stage every involved region (async, on its slot stream).
  const auto views = std::make_tuple(
      DeviceView<Ts>{tiles.array->acquire_on_device(tiles.tile.region.id),
                     tiles.tile.region.grown, tiles.tile.region.ncomp}...);

  // The kernel runs on the first tile's stream. If other tiles live on
  // different streams, their staging must complete first: record an event
  // on each and make the kernel stream wait (cross-array ordering).
  const cuemStream_t kstream =
      first.array->stream_of_region(first.tile.region.id);
  if constexpr (kN > 1) {
    const auto order_against = [&](const auto& t) {
      const cuemStream_t s = t.array->stream_of_region(t.tile.region.id);
      if (s != kstream) {
        cuemEvent_t ev = 0;
        CUEM_CHECK(cuemEventCreate(&ev));
        CUEM_CHECK(cuemEventRecord(ev, s));
        CUEM_CHECK(cuemStreamWaitEvent(kstream, ev, 0));
        CUEM_CHECK(cuemEventDestroy(ev));
      }
    };
    (order_against(tiles), ...);
  }

  auto action = [range, views, body = std::forward<Fn>(body)]() {
    for_each_cell(range, body, views);
  };

  // Kernels are OpenACC-generated (§IV-B5): compiler-chosen geometry.
  p.enqueue_kernel(kstream,
                   cost.profile(range.volume(), /*tuned_geometry=*/false),
                   p.config().oacc_dispatch_extra_ns, std::move(action),
                   p.trace().recording()
                       ? "C:R" + std::to_string(first.tile.region.id)
                       : std::string());
  // Dirty tracking is conservative: the kernel may write any involved
  // tile's cells in `range`, so every array records a device write there.
  (tiles.array->note_device_write(tiles.tile.region.id, range), ...);
  if (cuem::san::enabled()) {
    // Sanitizer racecheck bookkeeping: the kernel may read or write any
    // involved slot buffer (conservative whole-buffer claim; ordering
    // across streams is explicit above/below, so this cannot false-flag).
    const std::string op = "C:R" + std::to_string(first.tile.region.id);
    const auto note_tile = [&](const auto& t) {
      const auto& reg = t.tile.region;
      cuem::san::note_kernel_access(kstream,
                                    t.array->device_region(reg.id).data,
                                    reg.bytes(), /*write=*/true, op.c_str());
    };
    (note_tile(tiles), ...);
  }
  if (sim::Platform::instance().op_graph() != nullptr) {
    // Schedule-lint attribution: the same conservative whole-buffer write
    // claim, but independent of the sanitizer build (the graph is an
    // opt-in analysis attachment, not a compile-time mode).
    const auto graph_note_tile = [&](const auto& t) {
      const auto& reg = t.tile.region;
      sim::Platform::instance().graph_note_stream_access(
          kstream, t.array->device_region(reg.id).data, reg.bytes(),
          /*write=*/true);
    };
    (graph_note_tile(tiles), ...);
  }
  // No synchronization after the launch (§IV-B5): stream order protects
  // later operations on the same region. Cross-array ordering needs the
  // mirror of the opening edges, though: the kernel may write the *other*
  // tiles' regions, so work queued later on their streams (their next
  // kernel, an eviction D2H) must wait for this launch.
  if constexpr (kN > 1) {
    const auto order_after = [&](const auto& t) {
      const cuemStream_t s = t.array->stream_of_region(t.tile.region.id);
      if (s != kstream) {
        cuemEvent_t ev = 0;
        CUEM_CHECK(cuemEventCreate(&ev));
        CUEM_CHECK(cuemEventRecord(ev, kstream));
        CUEM_CHECK(cuemStreamWaitEvent(s, ev, 0));
        CUEM_CHECK(cuemEventDestroy(ev));
      }
    };
    (order_after(tiles), ...);
  }
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
/// arrays must place the region on the same device; when the slot streams
/// differ the kernel stream waits on the output's staging (event ordering,
/// as compute() does for multi-tile calls).
template <typename T, typename Fn>
void compute_gpu(MultiAccTileArray<T>& in, MultiAccTileArray<T>& out,
                 int region, const oacc::LoopCost& cost, Fn&& body) {
  TIDACC_CHECK_MSG(in.partition() == out.partition(),
                   "in/out arrays must share the partition geometry");
  TIDACC_CHECK_MSG(in.device_of_region(region) ==
                       out.device_of_region(region),
                   "in/out region must live on the same device");
  sim::Platform& p = sim::Platform::instance();
  const tida::Region<T> rin = in.region(region);
  const tida::Region<T> rout = out.region(region);
  const DeviceView<T> vin{in.acquire_on_device(region), rin.grown,
                          rin.ncomp};
  const DeviceView<T> vout{out.acquire_on_device(region), rout.grown,
                           rout.ncomp};
  const cuemStream_t kstream = in.stream_of_region(region);
  const cuemStream_t ostream = out.stream_of_region(region);
  if (ostream != kstream) {
    cuemEvent_t ev = 0;
    CUEM_CHECK(cuemEventCreate(&ev));
    CUEM_CHECK(cuemEventRecord(ev, ostream));
    CUEM_CHECK(cuemStreamWaitEvent(kstream, ev, 0));
    CUEM_CHECK(cuemEventDestroy(ev));
  }

  auto action = [range = rin.valid, views = std::make_tuple(vin, vout),
                 body = std::forward<Fn>(body)]() {
    detail::for_each_cell(range, body, views);
  };
  p.enqueue_kernel(kstream,
                   cost.profile(rin.valid.volume(), /*tuned_geometry=*/false),
                   p.config().oacc_dispatch_extra_ns, std::move(action),
                   p.trace().recording() ? "C:R" + std::to_string(region)
                                         : std::string());
  in.note_device_write(region, rin.valid);
  out.note_device_write(region, rout.valid);
  if (cuem::san::enabled()) {
    const std::string op = "C:R" + std::to_string(region);
    cuem::san::note_kernel_access(kstream, vin.data(), rin.bytes(),
                                  /*write=*/true, op.c_str());
    cuem::san::note_kernel_access(kstream, vout.data(), rout.bytes(),
                                  /*write=*/true, op.c_str());
  }
  // Schedule-lint attribution (sanitizer-independent): input is read-only,
  // output is written — the roles the event edges above/below protect.
  p.graph_note_stream_access(kstream, vin.data(), rin.bytes(),
                             /*write=*/false);
  p.graph_note_stream_access(kstream, vout.data(), rout.bytes(),
                             /*write=*/true);
  // Close the cross-stream edge: the kernel writes the output array's slot,
  // so later work on the output's stream must wait for this launch.
  if (ostream != kstream) {
    cuemEvent_t ev = 0;
    CUEM_CHECK(cuemEventCreate(&ev));
    CUEM_CHECK(cuemEventRecord(ev, kstream));
    CUEM_CHECK(cuemStreamWaitEvent(ostream, ev, 0));
    CUEM_CHECK(cuemEventDestroy(ev));
  }
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
  auto partial = std::make_shared<double>(oacc::detail::reduce_identity(op));
  detail::compute_range(
      t0.tile.box, cost,
      [op, partial, body = std::forward<Fn>(body)](DeviceView<T0> v, int i,
                                                   int j, int k) {
        *partial =
            oacc::detail::reduce_combine(op, *partial, body(v, i, j, k));
      },
      t0);
  sim::Platform& p = sim::Platform::instance();
  p.host_advance(p.config().transfer_latency_ns);
  if (t0.gpu) {
    CUEM_CHECK(cuemStreamSynchronize(
        t0.array->stream_of_region(t0.tile.region.id)));
  }
  return *partial;
}

/// Two-tile reduction: body(v0, v1, i, j, k) -> double. Used for residuals
/// and error norms between two fields without any host copies.
template <typename T0, typename T1, typename Fn>
double compute_reduce(const AccTile<T0>& t0, const AccTile<T1>& t1,
                      const oacc::LoopCost& cost, oacc::ReduceOp op,
                      Fn&& body) {
  auto partial = std::make_shared<double>(oacc::detail::reduce_identity(op));
  detail::compute_range(
      t0.tile.box, cost,
      [op, partial, body = std::forward<Fn>(body)](
          DeviceView<T0> v0, DeviceView<T1> v1, int i, int j, int k) {
        *partial = oacc::detail::reduce_combine(op, *partial,
                                                body(v0, v1, i, j, k));
      },
      t0, t1);
  sim::Platform& p = sim::Platform::instance();
  p.host_advance(p.config().transfer_latency_ns);
  if (t0.gpu) {
    CUEM_CHECK(cuemStreamSynchronize(
        t0.array->stream_of_region(t0.tile.region.id)));
  }
  return *partial;
}

// --- out-of-core streamed traversal (slot-scheduler prefetch) ---

/// Runs one full GPU traversal with H2D prefetch: after enqueueing each
/// tile's kernel, the regions of the next `lookahead` tile positions are
/// prefetched onto their (policy-chosen) slot streams, so their transfers
/// ride the DMA engines while earlier kernels occupy the compute engine.
/// With `lookahead` 0 this is exactly the demand-driven traversal.
///
/// Returns the number of prefetch placements issued (already-resident and
/// pinned-away regions are skipped — see prefetch_to_device()).
template <typename T, typename Fn>
std::uint64_t compute_streamed(AccTileIterator<T>& it, int lookahead,
                               const oacc::LoopCost& cost, Fn&& body) {
  TIDACC_CHECK_MSG(lookahead >= 0, "negative prefetch lookahead");
  std::uint64_t issued = 0;
  for (it.reset(/*gpu=*/true); it.isValid(); it.next()) {
    AccTile<T> tile = it.tile();
    compute(tile, cost, body);
    for (int a = 1; a <= lookahead; ++a) {
      const int next = it.peek_region(static_cast<std::size_t>(a));
      if (next >= 0 && next != tile.tile.region.id) {
        issued += tile.array->prefetch_to_device(next) ? 1 : 0;
      }
    }
  }
  return issued;
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

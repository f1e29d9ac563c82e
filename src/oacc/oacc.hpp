// oacc — an OpenACC-like runtime layered on cuem.
//
// Models the OpenACC features the paper relies on (PGI 17.1 era):
//   * `parallel loop collapse(n)` kernels generated from C++ lambdas, with
//     compiler-chosen launch geometry (slower than hand-tuned CUDA, §II-C)
//     and PGI math codegen (faster transcendentals than nvcc, §VI-B);
//   * data clauses (copy/copyin/copyout/create/present/deviceptr) resolved
//     through a present table, including the implicit per-kernel transfers
//     that make naive OpenACC slow;
//   * structured `data` regions and unstructured `enter/exit data`;
//   * activity queues mapped 1:1 onto cuem streams, with
//     `get_cuem_stream(queue)` mirroring acc_get_cuda_stream() — the
//     interoperability hook TiDA-acc is built on (§IV-B2);
//   * `-ta=tesla:pinned|managed`-style memory modes.
//
// Kernel bodies are invoked as body(ptrs..., i0, i1, i2) where ptrs... are
// the *device* translations of the bindings — data pointers must be lambda
// parameters, which is exactly the limitation the paper discusses in §V-A.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "cuem/cuem.hpp"
#include "sim/kernel_profile.hpp"

namespace tidacc::oacc {

/// OpenACC async queue identifier. kSyncQueue (acc_async_sync) executes
/// synchronously on the default stream.
using QueueId = int;
inline constexpr QueueId kSyncQueue = -1;

/// Host-memory mode, the analogue of -ta=tesla:{pinned,managed} flags.
enum class MemMode : int { kPageable = 0, kPinned, kManaged };

const char* to_string(MemMode m);

// --- runtime control ---

/// Clears queues, present table and mode (fresh program). Called implicitly
/// when the underlying platform is rebuilt.
void reset();

void set_mem_mode(MemMode m);
MemMode mem_mode();

/// Returns the cuem stream backing `queue`, creating it on first use
/// (acc_get_cuda_stream analogue). kSyncQueue maps to the default stream.
cuemStream_t get_cuem_stream(QueueId queue);

/// Drains and destroys every stream the queue map has created (the streams
/// backing explicit async queues / device-pool slots). Orderly teardown for
/// programs that end with cuemDeviceReset: the reset-time leak sweep of the
/// cuem sanitizer reports still-live user streams, and this is the sanctioned
/// way to retire them first. Idempotent; queues recreate on next use.
void release_queues();

/// Waits for one queue / all queues (acc wait).
void wait(QueueId queue);
void wait_all();

// --- snapshot (see docs/FUZZING.md) ---

/// Snapshot field list (sim/snapshot.hpp) of the runtime state: memory
/// mode, present table and the queue→stream map. Device pointers and
/// stream handles are same-process values; restore assumes the cuem layer
/// was restored first so both are live again.
template <typename Ar>
void snapshot_fields(Ar& ar);

// --- data environment ---

enum class ClauseKind : int {
  kCopy = 0,   ///< copyin at entry, copyout at exit
  kCopyIn,     ///< copyin at entry
  kCopyOut,    ///< allocate at entry, copyout at exit
  kCreate,     ///< allocate only
  kPresent,    ///< must already be present
  kDevicePtr   ///< pointer is already a device pointer
};

const char* to_string(ClauseKind k);

/// Type-erased clause as stored by data regions.
struct DataClause {
  void* host = nullptr;
  std::size_t bytes = 0;
  ClauseKind kind = ClauseKind::kCopy;
};

/// Typed clause used in parallel_loop bindings; T may be const-qualified.
template <typename T>
struct Binding {
  T* host = nullptr;
  std::size_t count = 0;
  ClauseKind kind = ClauseKind::kCopy;

  std::size_t bytes() const { return count * sizeof(T); }
  DataClause erased() const {
    return DataClause{const_cast<void*>(static_cast<const void*>(host)),
                      bytes(), kind};
  }
};

template <typename T>
Binding<T> copy(T* p, std::size_t n) {
  return {p, n, ClauseKind::kCopy};
}
template <typename T>
Binding<T> copyin(T* p, std::size_t n) {
  return {p, n, ClauseKind::kCopyIn};
}
template <typename T>
Binding<T> copyout(T* p, std::size_t n) {
  return {p, n, ClauseKind::kCopyOut};
}
template <typename T>
Binding<T> create(T* p, std::size_t n) {
  return {p, n, ClauseKind::kCreate};
}
template <typename T>
Binding<T> present(T* p, std::size_t n) {
  return {p, n, ClauseKind::kPresent};
}
template <typename T>
Binding<T> deviceptr(T* p, std::size_t n = 0) {
  return {p, n, ClauseKind::kDevicePtr};
}

/// Unstructured data lifetime (enter data / exit data directives).
void enter_data_copyin(void* host, std::size_t bytes,
                       QueueId queue = kSyncQueue);
void enter_data_create(void* host, std::size_t bytes);
void exit_data_copyout(void* host, QueueId queue = kSyncQueue);
void exit_data_delete(void* host);

/// update directives.
void update_device(void* host, std::size_t bytes, QueueId queue = kSyncQueue);
void update_self(void* host, std::size_t bytes, QueueId queue = kSyncQueue);

/// Present-table queries.
bool is_present(const void* host);
void* device_ptr(const void* host);

/// Number of live present-table entries (used by tests).
std::size_t present_entries();

/// Structured data region (the `#pragma acc data` scope): clauses enter at
/// construction and exit at destruction.
class DataRegion {
 public:
  explicit DataRegion(std::vector<DataClause> clauses,
                      QueueId queue = kSyncQueue);
  ~DataRegion();

  DataRegion(const DataRegion&) = delete;
  DataRegion& operator=(const DataRegion&) = delete;

 private:
  std::vector<DataClause> clauses_;
  QueueId queue_;
};

/// Typed builder: data_region(copy(u, n), copyin(v, m)) — the ergonomic way
/// to open a structured region from Binding<> clauses.
template <typename... Ts>
DataRegion data_region(const Binding<Ts>&... bindings) {
  return DataRegion(std::vector<DataClause>{bindings.erased()...});
}

// --- kernels ---

/// Per-iteration cost of a parallel loop (the information a real compiler
/// derives from the loop body; see DESIGN.md §1).
struct LoopCost {
  double flops_per_iter = 0.0;
  double dev_bytes_per_iter = 0.0;
  double math_units_per_iter = 0.0;
  sim::MathClass math = sim::MathClass::kNone;
  /// Access-pattern penalty (>= 1): branch divergence / uncoalesced loads
  /// (e.g. wrap-indexed boundary-face kernels).
  double efficiency_factor = 1.0;

  /// The kernel this loop launches over `elements` iterations — the one
  /// LoopCost → KernelProfile mapping, priced by KernelProfile::duration_ns
  /// (device) or host_duration_ns (CPU tile path).
  sim::KernelProfile profile(std::uint64_t elements,
                             bool tuned_geometry) const {
    sim::KernelProfile p;
    p.elements = elements;
    p.flops_per_element = flops_per_iter;
    p.dev_bytes_per_element = dev_bytes_per_iter;
    p.math_units_per_element = math_units_per_iter;
    p.math = math;
    p.tuned_geometry = tuned_geometry;
    p.efficiency_factor = efficiency_factor;
    return p;
  }
};

/// Launch options for parallel_loop.
///
/// Geometry control mirrors the paper §II-A: "num_gangs, num_workers and
/// vector_length correspond to number of CUDA blocks in a grid, number of
/// CUDA warps in a block and number of CUDA threads in a warp". Leaving
/// them 0 lets the compiler decide (the untuned-geometry penalty applies);
/// setting any of them counts as programmer tuning.
struct LaunchOpts {
  QueueId async = kSyncQueue;  ///< async(queue) clause; kSyncQueue = sync
  bool tuned_geometry = false;  ///< OpenACC default: compiler decides
  int num_gangs = 0;       ///< num_gangs(n) clause (CUDA grid blocks)
  int num_workers = 0;     ///< num_workers(n) clause (warps per block)
  int vector_length = 0;   ///< vector_length(n) clause (threads per warp)
  std::string label = "acc-kernel";

  /// True when the programmer pinned the geometry via clauses.
  bool geometry_tuned() const {
    return tuned_geometry || num_gangs > 0 || num_workers > 0 ||
           vector_length > 0;
  }
};

/// Collapsed iteration space, up to three dimensions, half-open [lo, hi).
struct Bounds {
  int lo0 = 0, hi0 = 0;
  int lo1 = 0, hi1 = 1;
  int lo2 = 0, hi2 = 1;

  static Bounds d1(int lo, int hi) { return Bounds{lo, hi, 0, 1, 0, 1}; }
  static Bounds d2(int l0, int h0, int l1, int h1) {
    return Bounds{l0, h0, l1, h1, 0, 1};
  }
  static Bounds d3(int l0, int h0, int l1, int h1, int l2, int h2) {
    return Bounds{l0, h0, l1, h1, l2, h2};
  }

  std::uint64_t volume() const {
    const auto ext = [](int lo, int hi) {
      return static_cast<std::uint64_t>(hi > lo ? hi - lo : 0);
    };
    return ext(lo0, hi0) * ext(lo1, hi1) * ext(lo2, hi2);
  }
};

namespace detail {

/// Enters all clauses; returns the translated device pointer per clause.
std::vector<void*> enter_clauses(const std::vector<DataClause>& clauses,
                                 QueueId queue);

/// Exits all clauses (copyout + release at refcount zero).
void exit_clauses(const std::vector<DataClause>& clauses, QueueId queue);

/// Enqueues the priced kernel (adds the OpenACC dispatch overhead) and, for
/// the sync queue, waits for completion.
void launch(const LaunchOpts& opts, const sim::KernelProfile& profile,
            std::function<void()> body);

}  // namespace detail

/// The `#pragma acc parallel loop collapse(n)` analogue.
///
/// Enters the bindings' data clauses, launches one kernel over `bounds`,
/// exits the clauses. The body is invoked as
///   body(p0, p1, ..., i0, i1, i2)
/// where pK is the device translation of the K-th binding. 1D/2D loops
/// receive 0 for the unused trailing indices.
template <typename... Ts, typename Fn>
void parallel_loop(const Bounds& bounds, const LoopCost& cost,
                   const LaunchOpts& opts,
                   const std::tuple<Binding<Ts>...>& bindings, Fn&& body) {
  std::vector<DataClause> clauses;
  clauses.reserve(sizeof...(Ts));
  std::apply(
      [&clauses](const auto&... b) { (clauses.push_back(b.erased()), ...); },
      bindings);

  const std::vector<void*> dev = detail::enter_clauses(clauses, opts.async);

  // Rebuild a typed tuple of translated pointers in binding order.
  const auto devtuple = [&]<std::size_t... Is>(std::index_sequence<Is...>) {
    return std::make_tuple(static_cast<Ts*>(dev[Is])...);
  }(std::index_sequence_for<Ts...>{});

  // The functional kernel: the collapsed loop nest calling the body.
  auto action = [bounds, devtuple, body = std::forward<Fn>(body)]() {
    for (int i0 = bounds.lo0; i0 < bounds.hi0; ++i0) {
      for (int i1 = bounds.lo1; i1 < bounds.hi1; ++i1) {
        for (int i2 = bounds.lo2; i2 < bounds.hi2; ++i2) {
          std::apply(body,
                     std::tuple_cat(devtuple, std::make_tuple(i0, i1, i2)));
        }
      }
    }
  };

  detail::launch(opts, cost.profile(bounds.volume(), opts.geometry_tuned()),
                 std::move(action));
  detail::exit_clauses(clauses, opts.async);
}

/// Convenience overload without data bindings (kernel works purely through
/// previously established device data, e.g. inside a DataRegion).
template <typename Fn>
void parallel_loop(const Bounds& bounds, const LoopCost& cost,
                   const LaunchOpts& opts, Fn&& body) {
  parallel_loop(bounds, cost, opts, std::tuple<>{}, std::forward<Fn>(body));
}

/// Reduction operator of a `reduction(...)` clause.
enum class ReduceOp : int { kSum = 0, kMax = 1, kMin = 2 };

const char* to_string(ReduceOp op);

namespace detail {
/// Combines two partial results.
double reduce_combine(ReduceOp op, double a, double b);
/// Identity element of the operator.
double reduce_identity(ReduceOp op);
/// Charges the cost of returning the reduction scalar to the host and
/// waits for the queue (reductions produce host-visible results).
void reduce_finish(QueueId queue);
}  // namespace detail

/// `#pragma acc parallel loop reduction(op:acc)` analogue: the body returns
/// one value per iteration; the combined result is returned after the
/// kernel completes (the call waits on the queue — a reduction's value is
/// host-visible, so OpenACC synchronizes here too).
///
/// In timing-only mode the body never runs and the identity is returned.
template <typename... Ts, typename Fn>
double parallel_loop_reduce(const Bounds& bounds, const LoopCost& cost,
                            const LaunchOpts& opts, ReduceOp op,
                            const std::tuple<Binding<Ts>...>& bindings,
                            Fn&& body) {
  auto partial = std::make_shared<double>(detail::reduce_identity(op));
  parallel_loop(
      bounds, cost, opts, bindings,
      [op, partial, body = std::forward<Fn>(body)](Ts*... ptrs, int i0,
                                                   int i1, int i2) {
        *partial =
            detail::reduce_combine(op, *partial, body(ptrs..., i0, i1, i2));
      });
  detail::reduce_finish(opts.async);
  return *partial;
}

/// Reduction without data bindings.
template <typename Fn>
double parallel_loop_reduce(const Bounds& bounds, const LoopCost& cost,
                            const LaunchOpts& opts, ReduceOp op, Fn&& body) {
  return parallel_loop_reduce(bounds, cost, opts, op, std::tuple<>{},
                              std::forward<Fn>(body));
}

}  // namespace tidacc::oacc

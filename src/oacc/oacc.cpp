#include "oacc/oacc.hpp"

#include <limits>
#include <map>
#include <memory>
#include <utility>

#include "common/log.hpp"
#include "oacc/present_table.hpp"
#include "sim/platform.hpp"
#include "sim/snapshot.hpp"

namespace tidacc::oacc {
namespace {

/// Process-wide OpenACC runtime state, invalidated whenever the underlying
/// platform is rebuilt (generation check). Queues are device-scoped, as in
/// real OpenACC where acc_get_cuda_stream depends on the current device:
/// the same queue id maps to a distinct stream per device.
struct AccState {
  std::uint64_t generation = 0;
  MemMode mode = MemMode::kPageable;
  PresentTable present;
  std::map<std::pair<int, QueueId>, cuemStream_t> queues;
};

AccState& state() {
  static AccState s;
  if (s.generation != sim::Platform::generation()) {
    s = AccState{};
    s.generation = sim::Platform::generation();
  }
  return s;
}

/// Checked wrapper: OpenACC surfaces CUDA failures as fatal runtime errors.
void acc_check(cuemError_t err, const char* what) {
  TIDACC_CHECK_MSG(err == cuemSuccess,
                   std::string("OpenACC runtime: ") + what + " failed: " +
                       cuemGetErrorString(err));
}

cuemStream_t stream_for(QueueId queue) {
  if (queue == kSyncQueue) {
    return cuem::default_stream();
  }
  TIDACC_CHECK_MSG(queue >= 0, "negative async queue id");
  AccState& s = state();
  const auto key = std::make_pair(cuem::current_device(), queue);
  const auto it = s.queues.find(key);
  if (it != s.queues.end()) {
    return it->second;
  }
  cuemStream_t stream = 0;
  acc_check(cuemStreamCreate(&stream), "stream creation");
  s.queues.emplace(key, stream);
  return stream;
}

void transfer(void* dst, const void* src, std::size_t bytes,
              cuemMemcpyKind kind, QueueId queue) {
  if (queue == kSyncQueue) {
    acc_check(cuemMemcpy(dst, src, bytes, kind), "data transfer");
  } else {
    acc_check(cuemMemcpyAsync(dst, src, bytes, kind, stream_for(queue)),
              "async data transfer");
  }
}

/// Enters one clause; returns the device pointer the kernel should use.
void* enter_clause(const DataClause& c, QueueId queue) {
  TIDACC_CHECK_MSG(c.host != nullptr, "null pointer in data clause");
  if (c.kind == ClauseKind::kDevicePtr) {
    return c.host;
  }
  // -ta=tesla:managed: data clauses are no-ops, kernels use managed memory.
  if (state().mode == MemMode::kManaged) {
    return c.host;
  }
  TIDACC_CHECK_MSG(c.bytes > 0, "zero-length data clause");

  PresentEntry* entry = state().present.find(c.host);
  if (c.kind == ClauseKind::kPresent) {
    TIDACC_CHECK_MSG(entry != nullptr,
                     "present clause on data that is not present");
    return state().present.device_ptr(c.host);
  }
  if (entry != nullptr) {
    // present_or_* semantics: reuse the mapping, skip the transfer.
    ++entry->refcount;
    return state().present.device_ptr(c.host);
  }

  void* dev = nullptr;
  const cuemError_t err = cuemMalloc(&dev, c.bytes);
  TIDACC_CHECK_MSG(err == cuemSuccess,
                   "OpenACC: insufficient device memory for data clause");
  state().present.insert(c.host, c.bytes, dev);
  if (c.kind == ClauseKind::kCopy || c.kind == ClauseKind::kCopyIn) {
    transfer(dev, c.host, c.bytes, cuemMemcpyHostToDevice, queue);
  }
  return dev;
}

/// Exits one clause (copyout + release at refcount zero).
void exit_clause(const DataClause& c, QueueId queue) {
  if (c.kind == ClauseKind::kDevicePtr || c.kind == ClauseKind::kPresent) {
    return;
  }
  if (state().mode == MemMode::kManaged) {
    return;
  }
  PresentEntry* entry = state().present.find(c.host);
  TIDACC_CHECK_MSG(entry != nullptr, "exiting a clause that never entered");
  if (--entry->refcount > 0) {
    return;
  }
  if (c.kind == ClauseKind::kCopy || c.kind == ClauseKind::kCopyOut) {
    transfer(c.host, entry->device, entry->bytes, cuemMemcpyDeviceToHost,
             queue);
    if (queue != kSyncQueue) {
      // The host may read the data right after the region closes; OpenACC
      // guarantees availability at the end of the exit, so wait here.
      acc_check(cuemStreamSynchronize(stream_for(queue)), "copyout wait");
    }
  }
  acc_check(cuemFree(entry->device), "device free");
  state().present.erase(reinterpret_cast<void*>(entry->host_base));
}

}  // namespace

const char* to_string(MemMode m) {
  switch (m) {
    case MemMode::kPageable:
      return "pageable";
    case MemMode::kPinned:
      return "pinned";
    case MemMode::kManaged:
      return "managed";
  }
  return "?";
}

const char* to_string(ClauseKind k) {
  switch (k) {
    case ClauseKind::kCopy:
      return "copy";
    case ClauseKind::kCopyIn:
      return "copyin";
    case ClauseKind::kCopyOut:
      return "copyout";
    case ClauseKind::kCreate:
      return "create";
    case ClauseKind::kPresent:
      return "present";
    case ClauseKind::kDevicePtr:
      return "deviceptr";
  }
  return "?";
}

void reset() {
  state() = AccState{};
  state().generation = sim::Platform::generation();
}

void set_mem_mode(MemMode m) { state().mode = m; }

MemMode mem_mode() { return state().mode; }

cuemStream_t get_cuem_stream(QueueId queue) { return stream_for(queue); }

void release_queues() {
  AccState& s = state();
  for (const auto& [key, stream] : s.queues) {
    (void)key;
    acc_check(cuemStreamSynchronize(stream), "queue drain");
    acc_check(cuemStreamDestroy(stream), "queue destroy");
  }
  s.queues.clear();
}

void wait(QueueId queue) {
  acc_check(cuemStreamSynchronize(stream_for(queue)), "acc wait(queue)");
}

void wait_all() { acc_check(cuemDeviceSynchronize(), "acc wait"); }

template <typename Ar>
void snapshot_fields(Ar& ar) {
  ar.section("oacc");
  AccState& s = state();
  std::vector<PresentEntry> present;
  if constexpr (!Ar::kRestoring) {
    for (const auto& kv : s.present) {
      present.push_back(kv.second);
    }
  }
  ar(s.mode, present, s.queues);
  if constexpr (Ar::kRestoring) {
    // insert() re-validates every range as it rebuilds the table.
    s.present.clear();
    for (const PresentEntry& e : present) {
      s.present.insert(reinterpret_cast<void*>(e.host_base), e.bytes,
                       e.device).refcount = e.refcount;
    }
    s.generation = sim::Platform::generation();
  }
}

template void snapshot_fields(sim::SnapshotWriter&);
template void snapshot_fields(sim::SnapshotReader&);

void enter_data_copyin(void* host, std::size_t bytes, QueueId queue) {
  enter_clause(DataClause{host, bytes, ClauseKind::kCopyIn}, queue);
}

void enter_data_create(void* host, std::size_t bytes) {
  enter_clause(DataClause{host, bytes, ClauseKind::kCreate}, kSyncQueue);
}

void exit_data_copyout(void* host, QueueId queue) {
  PresentEntry* entry = state().present.find(host);
  TIDACC_CHECK_MSG(entry != nullptr, "exit data on non-present data");
  exit_clause(DataClause{host, entry->bytes, ClauseKind::kCopyOut}, queue);
}

void exit_data_delete(void* host) {
  PresentEntry* entry = state().present.find(host);
  TIDACC_CHECK_MSG(entry != nullptr, "exit data on non-present data");
  exit_clause(DataClause{host, entry->bytes, ClauseKind::kCreate},
              kSyncQueue);
}

void update_device(void* host, std::size_t bytes, QueueId queue) {
  if (state().mode == MemMode::kManaged) {
    return;
  }
  void* dev = state().present.device_ptr(host);
  TIDACC_CHECK_MSG(dev != nullptr, "update device on non-present data");
  transfer(dev, host, bytes, cuemMemcpyHostToDevice, queue);
}

void update_self(void* host, std::size_t bytes, QueueId queue) {
  if (state().mode == MemMode::kManaged) {
    return;
  }
  void* dev = state().present.device_ptr(host);
  TIDACC_CHECK_MSG(dev != nullptr, "update self on non-present data");
  transfer(host, dev, bytes, cuemMemcpyDeviceToHost, queue);
  if (queue != kSyncQueue) {
    acc_check(cuemStreamSynchronize(stream_for(queue)), "update self wait");
  }
}

bool is_present(const void* host) {
  return state().mode == MemMode::kManaged ||
         state().present.find(host) != nullptr;
}

void* device_ptr(const void* host) {
  if (state().mode == MemMode::kManaged) {
    return const_cast<void*>(host);
  }
  return state().present.device_ptr(host);
}

std::size_t present_entries() { return state().present.size(); }

DataRegion::DataRegion(std::vector<DataClause> clauses, QueueId queue)
    : clauses_(std::move(clauses)), queue_(queue) {
  for (const DataClause& c : clauses_) {
    enter_clause(c, queue_);
  }
}

DataRegion::~DataRegion() {
  for (const DataClause& c : clauses_) {
    exit_clause(c, queue_);
  }
}

const char* to_string(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum:
      return "sum";
    case ReduceOp::kMax:
      return "max";
    case ReduceOp::kMin:
      return "min";
  }
  return "?";
}

namespace detail {

double reduce_combine(ReduceOp op, double a, double b) {
  switch (op) {
    case ReduceOp::kSum:
      return a + b;
    case ReduceOp::kMax:
      return a > b ? a : b;
    case ReduceOp::kMin:
      return a < b ? a : b;
  }
  TIDACC_FAIL("unknown reduce op");
}

double reduce_identity(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum:
      return 0.0;
    case ReduceOp::kMax:
      return -std::numeric_limits<double>::infinity();
    case ReduceOp::kMin:
      return std::numeric_limits<double>::infinity();
  }
  TIDACC_FAIL("unknown reduce op");
}

void reduce_finish(QueueId queue) {
  // The reduction scalar travels device→host: one latency-bound transfer,
  // then the host must wait for the kernel + transfer to complete.
  sim::Platform& p = sim::Platform::instance();
  p.host_advance(p.config().transfer_latency_ns);
  acc_check(cuemStreamSynchronize(stream_for(queue)), "reduction wait");
}

std::vector<void*> enter_clauses(const std::vector<DataClause>& clauses,
                                 QueueId queue) {
  std::vector<void*> out;
  out.reserve(clauses.size());
  for (const DataClause& c : clauses) {
    out.push_back(enter_clause(c, queue));
  }
  return out;
}

void exit_clauses(const std::vector<DataClause>& clauses, QueueId queue) {
  for (const DataClause& c : clauses) {
    exit_clause(c, queue);
  }
}

void launch(const LaunchOpts& opts, const sim::KernelProfile& profile,
            std::function<void()> body) {
  sim::Platform& p = sim::Platform::instance();
  const cuemStream_t stream = stream_for(opts.async);

  // Managed mode: the cuem launch path handles UVM migration; route through
  // cuem::launch so both runtimes share those semantics. Geometry comes from
  // the options (OpenACC default: compiler-chosen, i.e. untuned).
  cuem::LaunchGeometry geom;
  geom.tuned = opts.geometry_tuned();

  // OpenACC adds its own dispatch overhead on top of the CUDA launch path,
  // so enqueue directly with the extra cost rather than via cuem::launch...
  // except managed mode, which needs the UVM sweep.
  if (state().mode == MemMode::kManaged) {
    p.host_advance(p.config().oacc_dispatch_extra_ns);
    acc_check(cuem::launch(stream, geom, profile, opts.label,
                           std::move(body)),
              "kernel launch");
  } else {
    sim::KernelProfile priced = profile;
    priced.tuned_geometry = opts.geometry_tuned();
    p.enqueue_kernel(stream, priced, p.config().oacc_dispatch_extra_ns,
                     std::move(body), opts.label);
  }

  if (opts.async == kSyncQueue) {
    acc_check(cuemStreamSynchronize(0), "implicit kernel wait");
  }
}

}  // namespace detail

}  // namespace tidacc::oacc

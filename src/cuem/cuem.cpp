#include "cuem/cuem.hpp"

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "cuem/registry.hpp"
#include "cuem/san.hpp"
#include "sim/op_graph.hpp"
#include "sim/snapshot.hpp"

namespace tidacc::cuem {
namespace {

using sim::CopyRequest;
using sim::DeviceConfig;
using sim::HostMemKind;
using sim::OpKind;
using sim::Platform;

/// Process-wide runtime state behind the C API.
struct Runtime {
  PointerRegistry registry;
  std::size_t device_used = 0;
  /// Per-device allocation accounting, indexed by ordinal (lazily sized).
  std::vector<std::size_t> device_used_by_dev;
  /// Directed peer-access grants: (from, to) pairs enabled via
  /// cuemDeviceEnablePeerAccess.
  std::set<std::pair<int, int>> peer_access;
  /// Detailed message of the most recent failure (device ordinals included).
  std::string last_error;
  /// Synthetic address cursor for timing-only allocations (never
  /// dereferenced; spaced so interior-pointer arithmetic stays in range).
  std::uintptr_t synthetic_next = 0x7000'0000'0000ull;
  /// Event handle → recorded sim event (-1 while unrecorded).
  std::map<cuemEvent_t, sim::EventId> events;
  cuemEvent_t next_event = 1;

  ~Runtime() { release_backings(); }

  void release_backings() {
    // Walk the registry via managed+find API: we keep our own list instead.
    for (void* p : backings) {
      ::operator delete(p, std::align_val_t(64));
    }
    backings.clear();
  }

  std::vector<void*> backings;
};

Runtime& rt() {
  static std::unique_ptr<Runtime> g = std::make_unique<Runtime>();
  return *g;
}

/// Resets all runtime state (allocations, events).
void reset_runtime() {
  rt().release_backings();
  rt() = Runtime{};
  detail::current_device = 0;
}

/// Records a detailed failure message and passes the error code through.
cuemError_t fail(cuemError_t err, std::string msg) {
  rt().last_error = std::move(msg);
  return err;
}

/// Per-device allocation counter for `device`, lazily sized.
std::size_t& device_used(int device) {
  auto& v = rt().device_used_by_dev;
  const auto idx = static_cast<std::size_t>(device);
  if (idx >= v.size()) {
    v.resize(idx + 1, 0);
  }
  return v[idx];
}

/// Resolves stream handle 0 to the current device's default stream; CUDA
/// semantics, where the default stream follows cudaSetDevice.
cuemStream_t resolve_stream(cuemStream_t s) {
  if (s == 0) {
    return Platform::instance().default_stream(current_device());
  }
  return s;
}

/// The claims of a flat copy of `count` bytes from `src` to `dst`.
Claims span_claims(void* dst, const void* src, std::size_t count,
                   const char* op) {
  Claims c(op);
  c.add(dst, sim::ByteBox::span(0, count), Role::kWrite);
  c.add(src, sim::ByteBox::span(0, count), Role::kRead);
  return c;
}

/// The pinned buffer a host-staged copy from `src_device` to `dst_device`
/// bounces through: a synthetic address range per device pair (up to 256
/// devices), outside every user-space address, so it is claimed for the
/// op graph (the two hops and consecutive staged copies share it) and the
/// sanitizer, which tracks registered memory only, ignores it.
const void* bounce_buffer(int src_device, int dst_device) {
  constexpr std::uintptr_t kBase = 0xB000'0000'0000'0000ull;
  return reinterpret_cast<const void*>(
      kBase | static_cast<std::uintptr_t>(src_device) << 48 |
      static_cast<std::uintptr_t>(dst_device) << 40);
}

/// Allocates backing memory (real in functional mode, synthetic otherwise)
/// and registers it. Returns nullptr on device-capacity exhaustion.
void* allocate(std::size_t size, MemSpace space) {
  Platform& p = Platform::instance();
  const int dev = current_device();
  if (space == MemSpace::kDevice || space == MemSpace::kManaged) {
    if (device_used(dev) + size > p.config().usable_memory()) {
      std::ostringstream os;
      os << "allocation of " << size << " bytes exceeds device " << dev
         << " capacity (" << device_used(dev) << " of "
         << p.config().usable_memory() << " bytes in use)";
      (void)fail(cuemErrorMemoryAllocation, os.str());
      return nullptr;
    }
  }

  Allocation alloc;
  alloc.size = size;
  alloc.space = space;
  alloc.device_resident = false;
  alloc.device = dev;
  if (p.functional()) {
    alloc.backing = ::operator new(size, std::align_val_t(64));
    rt().backings.push_back(alloc.backing);
    alloc.base = reinterpret_cast<std::uintptr_t>(alloc.backing);
  } else {
    alloc.backing = nullptr;
    alloc.base = rt().synthetic_next;
    rt().synthetic_next += (size + 4095) & ~std::uintptr_t{4095};
    rt().synthetic_next += 4096;  // guard gap
  }
  rt().registry.add(alloc);
  san::hook::on_alloc(alloc);
  if (space == MemSpace::kDevice || space == MemSpace::kManaged) {
    rt().device_used += size;
    device_used(dev) += size;
  }
  return reinterpret_cast<void*>(alloc.base);
}

cuemError_t release(void* ptr, MemSpace expected, const char* op) {
  const Allocation* found = rt().registry.find(ptr);
  if (found == nullptr || found->base != reinterpret_cast<std::uintptr_t>(ptr)) {
    san::hook::on_free(ptr, /*ok=*/false, op);
    return cuemErrorInvalidValue;
  }
  // cudaFree releases managed allocations too.
  const bool ok = found->space == expected ||
                  (expected == MemSpace::kDevice &&
                   found->space == MemSpace::kManaged);
  if (!ok) {
    return expected == MemSpace::kDevice ? cuemErrorInvalidDevicePointer
                                         : cuemErrorInvalidValue;
  }
  san::hook::on_free(ptr, /*ok=*/true, op);
  const Allocation removed = rt().registry.remove(ptr);
  if (removed.space == MemSpace::kDevice ||
      removed.space == MemSpace::kManaged) {
    rt().device_used -= removed.size;
    device_used(removed.device) -= removed.size;
  }
  if (removed.backing != nullptr) {
    ::operator delete(removed.backing, std::align_val_t(64));
    std::erase(rt().backings, removed.backing);
  }
  return cuemSuccess;
}

/// Address-space classification; unregistered pointers are user host memory
/// (plain new/stack), i.e. pageable.
MemSpace space_of(const void* p) {
  const Allocation* a = rt().registry.find(p);
  return a == nullptr ? MemSpace::kHostPageable : a->space;
}

bool is_host_space(MemSpace s) {
  return s == MemSpace::kHostPageable || s == MemSpace::kHostPinned ||
         s == MemSpace::kManaged;
}
bool is_device_space(MemSpace s) {
  return s == MemSpace::kDevice || s == MemSpace::kManaged;
}

HostMemKind host_kind_of(MemSpace s) {
  switch (s) {
    case MemSpace::kHostPinned:
      return HostMemKind::kPinned;
    case MemSpace::kManaged:
      return HostMemKind::kManaged;
    default:
      return HostMemKind::kPageable;
  }
}

/// Infers the direction for cuemMemcpyDefault from pointer spaces.
cuemMemcpyKind infer_kind(MemSpace dst, MemSpace src) {
  const bool dst_dev = dst == MemSpace::kDevice;
  const bool src_dev = src == MemSpace::kDevice;
  if (dst_dev && src_dev) {
    return cuemMemcpyDeviceToDevice;
  }
  if (dst_dev) {
    return cuemMemcpyHostToDevice;
  }
  if (src_dev) {
    return cuemMemcpyDeviceToHost;
  }
  return cuemMemcpyHostToHost;
}

/// True when direct access between the two devices has been enabled in
/// either direction — the condition for routing a peer copy over the
/// interconnect instead of staging through host memory.
bool peer_route_enabled(int a, int b) {
  return rt().peer_access.count({a, b}) > 0 ||
         rt().peer_access.count({b, a}) > 0;
}

/// Shared engine of every inter-device transfer (cuemMemcpyPeer*, the
/// ghost-exchange extension, and cross-device D2D memcpys): direct over the
/// interconnect when peer access is enabled, staged through host pinned
/// buffers (D2H on the source device, then H2D on the destination, in
/// stream FIFO order) when it is not. Devices must already be validated.
/// Each op claims what it touches of `claims` (see peer_copy_async).
cuemError_t peer_transfer(int dst_device, int src_device, std::size_t count,
                          cuemStream_t stream, bool blocking,
                          std::string label, std::function<void()> action,
                          const Claims& claims) {
  Platform& p = Platform::instance();
  stream = resolve_stream(stream);
  if (!p.stream_valid(stream)) {
    return cuemErrorInvalidResourceHandle;
  }
  if (count == 0) {
    return cuemSuccess;
  }
  if (!p.functional()) {
    action = nullptr;
  }
  if (src_device == dst_device) {
    CopyRequest req;
    req.kind = OpKind::kCopyD2D;
    req.bytes = count;
    req.blocking = blocking;
    req.device_override = dst_device;
    req.label = std::move(label);
    p.enqueue_copy(stream, req, std::move(action));
    claim(stream, claims);
    return cuemSuccess;
  }
  if (peer_route_enabled(src_device, dst_device)) {
    p.enqueue_peer_copy(stream, src_device, dst_device, count,
                        std::move(label), std::move(action));
    claim(stream, claims);
    if (blocking) {
      p.sync_stream(stream);
    }
    return cuemSuccess;
  }
  // No peer access: stage through host. The driver bounces through pinned
  // staging buffers, so both hops run at pinned PCIe rates.
  san::hook::on_peer_staged(src_device, dst_device, label.c_str());
  CopyRequest d2h;
  d2h.kind = OpKind::kCopyD2H;
  d2h.bytes = count;
  d2h.host_mem = HostMemKind::kPinned;
  d2h.device_override = src_device;
  d2h.label = label + ":d2h";
  // Each hop claims its side of the copy and the bounce buffer between.
  const void* bounce = bounce_buffer(src_device, dst_device);
  const auto claim_hop = [&](Role side, Role bounce_role) {
    if (claims.accesses.empty()) {
      return;
    }
    for (const Access& a : claims.accesses) {
      if (a.role == side) {
        claim(stream, a.ptr, a.box, a.role, claims.op);
      }
    }
    claim(stream, bounce, sim::ByteBox::span(0, count), bounce_role,
          claims.op);
  };
  p.enqueue_copy(stream, d2h, nullptr);
  claim_hop(Role::kRead, Role::kWrite);
  CopyRequest h2d;
  h2d.kind = OpKind::kCopyH2D;
  h2d.bytes = count;
  h2d.host_mem = HostMemKind::kPinned;
  h2d.blocking = blocking;
  h2d.device_override = dst_device;
  h2d.label = label + ":h2d";
  p.enqueue_copy(stream, h2d, std::move(action));
  claim_hop(Role::kWrite, Role::kRead);
  return cuemSuccess;
}

/// Sets `req`'s op kind and host memory for a host<->device copy in
/// direction `kind` on `route`, flat or `pitched`, once the endpoints'
/// spaces fit the direction and the route fits the copy: a prefetch is a
/// flat host→device copy. The codec also derives the wire bytes of
/// `req.bytes`. Any other direction is invalid here.
cuemError_t classify_link(CopyRequest& req, cuemMemcpyKind kind,
                          MemSpace dst, MemSpace src, Route route,
                          bool pitched) {
  const bool h2d = kind == cuemMemcpyHostToDevice;
  const MemSpace host = h2d ? src : dst;
  if ((!h2d && kind != cuemMemcpyDeviceToHost) || !is_host_space(host) ||
      !is_device_space(h2d ? dst : src)) {
    return cuemErrorInvalidMemcpyDirection;
  }
  switch (route.via) {
    case Route::Via::kRaw:
      req.kind = pitched ? (h2d ? OpKind::kMemcpy3DH2D : OpKind::kMemcpy3DD2H)
                         : (h2d ? OpKind::kCopyH2D : OpKind::kCopyD2H);
      break;
    case Route::Via::kPrefetch:
      if (!h2d || pitched) {
        return cuemErrorInvalidMemcpyDirection;
      }
      req.kind = OpKind::kPrefetchH2D;
      break;
    case Route::Via::kCodec:
      req.kind = pitched ? (h2d ? OpKind::kMemcpy3DH2DCompressed
                                : OpKind::kMemcpy3DD2HCompressed)
                         : (h2d ? OpKind::kMemcpyH2DCompressed
                                : OpKind::kMemcpyD2HCompressed);
      req.wire_bytes = Platform::instance().config().codec.wire_bytes(
          req.bytes, route.payload);
      break;
  }
  req.host_mem = host_kind_of(host);
  return cuemSuccess;
}

/// The one flat-copy body: cuemMemcpy, cuemMemcpyAsync and memcpy_async on
/// every route. A labelled copy carries its label into the trace and names
/// its sanitizer op by it. An unlabelled one is named by its C call in
/// findings and, when raw, by its direction in the trace.
cuemError_t do_memcpy(void* dst, const void* src, std::size_t count,
                      cuemMemcpyKind kind, cuemStream_t stream,
                      bool blocking, Route route = {},
                      std::string label = {}) {
  if (dst == nullptr || src == nullptr) {
    return cuemErrorInvalidValue;
  }
  Platform& p = Platform::instance();
  stream = resolve_stream(stream);
  if (!p.stream_valid(stream)) {
    return cuemErrorInvalidResourceHandle;
  }
  if (count == 0) {
    return cuemSuccess;
  }
  const MemSpace dst_space = space_of(dst);
  const MemSpace src_space = space_of(src);
  if (kind == cuemMemcpyDefault) {
    kind = infer_kind(dst_space, src_space);
  }
  CopyRequest req;
  req.bytes = count;
  req.blocking = blocking;
  req.label = std::move(label);
  const char* op = !req.label.empty() ? req.label.c_str()
                   : blocking         ? "cuemMemcpy"
                                      : "cuemMemcpyAsync";
  // Bounds/lifetime check before the enqueue: in functional mode the copy
  // closure runs at enqueue time, so a bad endpoint must suppress the op.
  if (!san::hook::precheck_range(dst, count, op) ||
      !san::hook::precheck_range(src, count, op)) {
    return cuemErrorInvalidValue;
  }

  std::function<void()> action;
  if (p.functional()) {
    action = [dst, src, count] { std::memcpy(dst, src, count); };
  }

  const bool raw = route.via == Route::Via::kRaw;
  if (kind == cuemMemcpyHostToHost) {
    if (!raw || !is_host_space(dst_space) || !is_host_space(src_space)) {
      return cuemErrorInvalidMemcpyDirection;
    }
    // Host-local copy: no engine involved; charge host time at a
    // DRAM-copy-class bandwidth and perform the move.
    claim(-1, src, sim::ByteBox::span(0, count), Role::kRead, op);
    claim(-1, dst, sim::ByteBox::span(0, count), Role::kWrite, op);
    if (action) {
      action();
    }
    p.host_advance(p.config().host_copy_ns(count));
    return cuemSuccess;
  }
  if (kind == cuemMemcpyDeviceToDevice) {
    if (!raw || !is_device_space(dst_space) || !is_device_space(src_space)) {
      return cuemErrorInvalidMemcpyDirection;
    }
    req.kind = OpKind::kCopyD2D;
    // UVA semantics: a D2D copy whose endpoints live on different
    // devices is a peer transfer.
    const Allocation* da = rt().registry.find(dst);
    const Allocation* sa = rt().registry.find(src);
    const int dst_dev = da != nullptr ? da->device : 0;
    const int src_dev = sa != nullptr ? sa->device : 0;
    if (dst_dev != src_dev) {
      return peer_transfer(dst_dev, src_dev, count, stream, blocking, "P2P",
                           std::move(action),
                           span_claims(dst, src, count, op));
    }
  } else {
    const cuemError_t err = classify_link(req, kind, dst_space, src_space,
                                          route, /*pitched=*/false);
    if (err != cuemSuccess) {
      return err;
    }
  }
  if (!blocking && req.host_mem == HostMemKind::kPageable) {
    san::hook::on_pageable_async(stream, op);
  }
  if (raw && req.label.empty()) {
    req.label = sim::to_string(req.kind);
  }
  p.enqueue_copy(stream, req, std::move(action));
  claim(stream, span_claims(dst, src, count, op));
  return cuemSuccess;
}

/// The pitched-copy body: cuemMemcpy3DAsync and memcpy3d_async, host↔device
/// only (classify_link). Ops are named as do_memcpy names them.
cuemError_t do_memcpy3d(const cuemMemcpy3DParms& parms, cuemStream_t stream,
                        Route route, std::string label) {
  if (parms.dst == nullptr || parms.src == nullptr) {
    return cuemErrorInvalidValue;
  }
  if (parms.width == 0 || parms.height == 0 || parms.depth == 0) {
    return cuemSuccess;
  }
  if (parms.src_pitch < parms.width || parms.dst_pitch < parms.width ||
      parms.src_slice_pitch < parms.src_pitch * parms.height ||
      parms.dst_slice_pitch < parms.dst_pitch * parms.height) {
    return fail(cuemErrorInvalidValue,
                "cuemMemcpy3DAsync: pitch smaller than transfer extent");
  }
  Platform& p = Platform::instance();
  stream = resolve_stream(stream);
  if (!p.stream_valid(stream)) {
    return cuemErrorInvalidResourceHandle;
  }
  const MemSpace dst_space = space_of(parms.dst);
  const MemSpace src_space = space_of(parms.src);
  cuemMemcpyKind kind = parms.kind;
  if (kind == cuemMemcpyDefault) {
    kind = infer_kind(dst_space, src_space);
  }
  CopyRequest req;
  req.bytes = static_cast<std::uint64_t>(parms.width) * parms.height *
              parms.depth;
  req.chunks = memcpy3d_chunks(parms);
  req.label = std::move(label);
  const char* op =
      req.label.empty() ? "cuemMemcpy3DAsync" : req.label.c_str();
  const std::size_t dst_span = (parms.depth - 1) * parms.dst_slice_pitch +
                               (parms.height - 1) * parms.dst_pitch +
                               parms.width;
  const std::size_t src_span = (parms.depth - 1) * parms.src_slice_pitch +
                               (parms.height - 1) * parms.src_pitch +
                               parms.width;
  if (!san::hook::precheck_range(parms.dst, dst_span, op) ||
      !san::hook::precheck_range(parms.src, src_span, op)) {
    return cuemErrorInvalidValue;
  }
  // Only the delta-transfer directions are modeled; H2H/D2D pitched copies
  // have no consumer and no cost model.
  const cuemError_t err = classify_link(req, kind, dst_space, src_space,
                                        route, /*pitched=*/true);
  if (err != cuemSuccess) {
    return err;
  }

  std::function<void()> action;
  if (p.functional()) {
    const cuemMemcpy3DParms pr = parms;  // capture by value
    action = [pr] {
      auto* d = static_cast<unsigned char*>(pr.dst);
      const auto* s = static_cast<const unsigned char*>(pr.src);
      for (std::size_t k = 0; k < pr.depth; ++k) {
        for (std::size_t j = 0; j < pr.height; ++j) {
          std::memcpy(d + k * pr.dst_slice_pitch + j * pr.dst_pitch,
                      s + k * pr.src_slice_pitch + j * pr.src_pitch,
                      pr.width);
        }
      }
    };
  }
  if (req.host_mem == HostMemKind::kPageable) {
    san::hook::on_pageable_async(stream, op);
  }
  p.enqueue_copy(stream, req, std::move(action));
  Claims claims(op);
  sim::ByteBox box;
  box.width = parms.width;
  box.height = parms.height;
  box.depth = parms.depth;
  box.row_pitch = parms.dst_pitch;
  box.slice_pitch = parms.dst_slice_pitch;
  claims.add(parms.dst, box, Role::kWrite);
  box.row_pitch = parms.src_pitch;
  box.slice_pitch = parms.src_slice_pitch;
  claims.add(parms.src, box, Role::kRead);
  claim(stream, claims);
  return cuemSuccess;
}

}  // namespace

// --- C++ extensions ---

std::uint64_t memcpy3d_chunks(const cuemMemcpy3DParms& parms) {
  const bool rows_contiguous = parms.width == parms.src_pitch &&
                               parms.width == parms.dst_pitch;
  if (!rows_contiguous) {
    return static_cast<std::uint64_t>(parms.height) * parms.depth;
  }
  const std::size_t slice = parms.width * parms.height;
  const bool slices_contiguous =
      slice == parms.src_slice_pitch && slice == parms.dst_slice_pitch;
  return slices_contiguous ? 1 : static_cast<std::uint64_t>(parms.depth);
}

sim::Platform& platform() { return Platform::instance(); }

bool functional() { return Platform::instance().functional(); }

void configure(const DeviceConfig& cfg, bool functional_mode) {
  reset_runtime();
  Platform::reset_instance(cfg, functional_mode);
  san::hook::on_configure();
}

void configure(const DeviceConfig& cfg, bool functional_mode,
               int num_devices, const sim::Interconnect& interconnect) {
  reset_runtime();
  Platform::reset_instance(cfg, functional_mode, num_devices, interconnect);
  san::hook::on_configure();
}

int device_count() { return Platform::instance().num_devices(); }

cuemStream_t default_stream() {
  return Platform::instance().default_stream(current_device());
}

bool peer_enabled(int device, int peer) {
  return peer_route_enabled(device, peer);
}

int device_of_ptr(const void* p) {
  const Allocation* a = rt().registry.find(p);
  if (a == nullptr || !is_device_space(a->space)) {
    return -1;
  }
  return a->device;
}

void DeviceGuard::enter(int device) {
  TIDACC_CHECK_MSG(cuemSetDevice(device) == cuemSuccess,
                   cuemGetLastErrorMessage());
}

void DeviceGuard::leave() const { (void)cuemSetDevice(prev_); }

cuemError_t order_after(cuemStream_t stream, cuemStream_t before) {
  cuemEvent_t ev = 0;
  cuemError_t err = cuemEventCreate(&ev);
  if (err != cuemSuccess) {
    return err;
  }
  err = cuemEventRecord(ev, before);
  if (err == cuemSuccess) {
    err = cuemStreamWaitEvent(stream, ev, 0);
  }
  const cuemError_t destroyed = cuemEventDestroy(ev);
  return err != cuemSuccess ? err : destroyed;
}

cuemError_t peer_copy_async(int dst_device, int src_device,
                            std::size_t bytes, cuemStream_t stream,
                            std::string label, std::function<void()> action,
                            const Claims& claims) {
  Platform& p = Platform::instance();
  if (!p.device_valid(dst_device) || !p.device_valid(src_device)) {
    std::ostringstream os;
    os << "peer_copy_async: device pair (" << src_device << ", "
       << dst_device << ") outside [0, " << p.num_devices() << ")";
    return fail(cuemErrorInvalidDevice, os.str());
  }
  return peer_transfer(dst_device, src_device, bytes, stream,
                       /*blocking=*/false, std::move(label),
                       std::move(action), claims);
}

bool claims_heard() {
  return san::enabled() || Platform::instance().op_graph() != nullptr;
}

void claim(cuemStream_t stream, const void* ptr, const sim::ByteBox& box,
           Role role, const char* op) {
  const bool write = role == Role::kWrite;
  san::record_access(stream, ptr, box, write, op);
  if (stream < 0 || ptr == nullptr) {
    return;  // the graph has no host lane
  }
  sim::OpGraph* graph = Platform::instance().op_graph();
  if (graph == nullptr) {
    return;
  }
  // The graph compares boxes from the start of the allocation they lie in,
  // as the sanitizer does; an unregistered range counts from itself.
  const auto addr = reinterpret_cast<std::uintptr_t>(ptr);
  const Allocation* alloc = rt().registry.find(ptr);
  const std::uintptr_t base = alloc != nullptr ? alloc->base : addr;
  sim::AccessRange access(base, box, write);
  access.box.offset += addr - base;
  graph->note_access(stream, access);
}


bool is_device_ptr(const void* p) {
  return rt().registry.is_space(p, MemSpace::kDevice);
}

bool is_pinned_host_ptr(const void* p) {
  return rt().registry.is_space(p, MemSpace::kHostPinned);
}

bool is_managed_ptr(const void* p) {
  return rt().registry.is_space(p, MemSpace::kManaged);
}

const char* to_string(MrClass c) {
  switch (c) {
    case MrClass::kDeviceMemory:
      return "device";
    case MrClass::kPinnedHost:
      return "pinned-host";
    case MrClass::kPageableHost:
      return "pageable-host";
    case MrClass::kUnknown:
      return "unknown";
  }
  return "?";
}

MrClass mr_classify(const void* p) {
  const Allocation* a = rt().registry.find(p);
  if (a == nullptr) {
    return MrClass::kUnknown;
  }
  switch (a->space) {
    case MemSpace::kDevice:
    case MemSpace::kManaged:
      return MrClass::kDeviceMemory;
    case MemSpace::kHostPinned:
      return MrClass::kPinnedHost;
    case MemSpace::kHostPageable:
      return MrClass::kPageableHost;
  }
  return MrClass::kUnknown;
}

void* host_alloc(std::size_t bytes, bool pinned) {
  TIDACC_CHECK_MSG(bytes > 0, "host_alloc of zero bytes");
  void* p = allocate(bytes, pinned ? MemSpace::kHostPinned
                                   : MemSpace::kHostPageable);
  TIDACC_CHECK_MSG(p != nullptr, "host allocation failed");
  return p;
}

void host_free(void* ptr) {
  if (ptr == nullptr) {
    return;
  }
  const Allocation* a = rt().registry.find(ptr);
  TIDACC_CHECK_MSG(a != nullptr &&
                       a->base == reinterpret_cast<std::uintptr_t>(ptr),
                   "host_free of unknown pointer");
  const MemSpace space = a->space;
  TIDACC_CHECK_MSG(space == MemSpace::kHostPinned ||
                       space == MemSpace::kHostPageable,
                   "host_free of non-host pointer");
  TIDACC_CHECK(release(ptr, space, "host_free") == cuemSuccess);
}

std::size_t device_bytes_in_use() { return rt().device_used; }

std::size_t device_bytes_in_use(int device) {
  TIDACC_CHECK_MSG(Platform::instance().device_valid(device),
                   "device_bytes_in_use: invalid device ordinal");
  return device_used(device);
}

std::size_t live_allocation_count() { return rt().registry.live_count(); }

cuemError_t launch(cuemStream_t stream, const LaunchGeometry& geom,
                   const sim::KernelProfile& profile, std::string label,
                   std::function<void()> body) {
  Platform& p = Platform::instance();
  stream = resolve_stream(stream);
  if (!p.stream_valid(stream)) {
    return cuemErrorInvalidResourceHandle;
  }

  // UVM: make host-resident managed allocations device-usable.
  const DeviceConfig& cfg = p.config();
  for (Allocation* alloc : rt().registry.managed_allocations()) {
    if (cfg.uvm_mode == DeviceConfig::UvmMode::kKepler) {
      // Kepler (CUDA 6): bulk migrate-on-launch of every attached
      // allocation, plus a per-allocation residency check each launch.
      p.host_advance(cfg.uvm_launch_check_ns);
      if (!alloc->device_resident) {
        CopyRequest req;
        req.kind = OpKind::kUvmMigration;
        req.bytes = alloc->size;
        req.host_mem = HostMemKind::kManaged;
        req.label = "uvm-migrate-h2d";
        p.enqueue_copy(stream, req, nullptr);
        alloc->device_resident = true;
      }
    } else if (!alloc->device_resident) {
      // Pascal: demand paging — the kernel's first touches fault each page
      // in. Modeled as a stream-ordered migration whose duration includes
      // the per-page fault cost (this is what cuemMemPrefetchAsync avoids).
      const std::uint64_t pages =
          (alloc->size + cfg.uvm_page_bytes - 1) / cfg.uvm_page_bytes;
      CopyRequest req;
      req.kind = OpKind::kUvmMigration;
      req.bytes = alloc->size;
      req.host_mem = HostMemKind::kManaged;
      req.extra_ns = pages * cfg.uvm_page_fault_ns;
      req.label = "uvm-demand-fault";
      p.enqueue_copy(stream, req, nullptr);
      alloc->device_resident = true;
    }
  }

  sim::KernelProfile priced = profile;
  priced.tuned_geometry = geom.tuned;
  p.enqueue_kernel(stream, priced, /*dispatch_extra_ns=*/0, std::move(body),
                   std::move(label));
  return cuemSuccess;
}

cuemError_t memcpy_async(void* dst, const void* src, std::size_t count,
                         cuemMemcpyKind kind, cuemStream_t stream,
                         Route route, std::string label) {
  return do_memcpy(dst, src, count, kind, stream, /*blocking=*/false, route,
                   std::move(label));
}

cuemError_t memcpy3d_async(const cuemMemcpy3DParms& parms,
                           cuemStream_t stream, Route route,
                           std::string label) {
  return do_memcpy3d(parms, stream, route, std::move(label));
}

cuemError_t host_touch(void* ptr, std::size_t bytes) {
  Allocation* alloc = rt().registry.find(ptr);
  if (alloc == nullptr || alloc->space != MemSpace::kManaged) {
    return cuemSuccess;  // non-managed memory: no-op
  }
  if (!alloc->device_resident) {
    return cuemSuccess;
  }
  Platform& p = Platform::instance();
  const DeviceConfig& cfg = p.config();
  if (cfg.uvm_mode == DeviceConfig::UvmMode::kKepler) {
    // Kepler UVM requires device synchronization before CPU access.
    p.sync_all();
  }
  const std::uint64_t pages =
      (bytes + cfg.uvm_page_bytes - 1) / cfg.uvm_page_bytes;
  p.host_advance(pages * cfg.uvm_page_fault_ns +
                 transfer_time_ns(bytes, cfg.uvm_migrate_gbps));
  alloc->device_resident = false;
  claim(-1, ptr, sim::ByteBox::span(0, bytes), Role::kWrite, "host_touch");
  return cuemSuccess;
}

template <typename Ar>
void snapshot_fields(Ar& ar) {
  ar.section("cuem");
  Runtime& R = rt();
  ar(detail::current_device, R.device_used, R.device_used_by_dev,
     R.synthetic_next, R.last_error, R.peer_access, R.next_event, R.events);

  // The restore contract is same-process and address-stable: every
  // snapshotted allocation must still be live at the same base and size so
  // captured pointers stay valid. Buffers allocated after the capture are
  // released; surviving buffers get their captured bytes written back.
  const std::vector<const Allocation*> live = R.registry.all_allocations();
  std::uint64_t count = live.size();
  ar(count);
  std::set<std::uintptr_t> captured;
  for (std::uint64_t i = 0; i < count; ++i) {
    Allocation a;
    if constexpr (!Ar::kRestoring) {
      a = *live[i];
    }
    bool has_backing = a.backing != nullptr;
    ar(a.base, a.size, a.space, a.device_resident, a.device, has_backing);
    if constexpr (Ar::kRestoring) {
      Allocation* match = R.registry.find(reinterpret_cast<void*>(a.base));
      TIDACC_CHECK_MSG(
          match != nullptr && match->base == a.base,
          "snapshot restore: allocation at base " + std::to_string(a.base) +
              " (" + std::to_string(a.size) + " bytes) was freed since "
              "capture; restore requires every snapshotted allocation to "
              "still be live at the same address");
      TIDACC_CHECK_MSG(match->size == a.size,
                       "snapshot restore: allocation at base " +
                           std::to_string(a.base) + " changed size (" +
                           std::to_string(match->size) + " live vs " +
                           std::to_string(a.size) + " captured)");
      TIDACC_CHECK_MSG(
          (match->backing != nullptr) == has_backing,
          "snapshot restore: functional-mode mismatch on allocation backing "
          "(snapshot and live runtime disagree on whether buffers hold "
          "data)");
      match->space = a.space;
      match->device_resident = a.device_resident;
      match->device = a.device;
      if (has_backing) {
        ar.get_blob_into(match->backing, a.size);
      }
      captured.insert(a.base);
    } else if (has_backing) {
      ar.put_blob(a.backing, a.size);
    }
  }
  if constexpr (Ar::kRestoring) {
    std::vector<std::uintptr_t> extras;
    for (const Allocation* a : live) {
      if (captured.count(a->base) == 0) {
        extras.push_back(a->base);
      }
    }
    for (std::uintptr_t base : extras) {
      const Allocation removed =
          R.registry.remove(reinterpret_cast<void*>(base));
      if (removed.backing != nullptr) {
        ::operator delete(removed.backing, std::align_val_t(64));
        std::erase(R.backings, removed.backing);
      }
    }
  }
}

template void snapshot_fields(sim::SnapshotWriter&);
template void snapshot_fields(sim::SnapshotReader&);

}  // namespace tidacc::cuem

// --- C-shaped API ---

using namespace tidacc;         // NOLINT
using namespace tidacc::cuem;   // NOLINT
using tidacc::sim::Platform;

const char* cuemGetErrorString(cuemError_t err) {
  switch (err) {
    case cuemSuccess:
      return "no error";
    case cuemErrorMemoryAllocation:
      return "out of memory";
    case cuemErrorInvalidValue:
      return "invalid argument";
    case cuemErrorInvalidDevicePointer:
      return "invalid device pointer";
    case cuemErrorInvalidMemcpyDirection:
      return "invalid copy direction for memcpy";
    case cuemErrorInvalidResourceHandle:
      return "invalid resource handle";
    case cuemErrorNotReady:
      return "device not ready";
    case cuemErrorInvalidDevice:
      return "invalid device ordinal";
    case cuemErrorPeerAccessAlreadyEnabled:
      return "peer access is already enabled";
    case cuemErrorPeerAccessNotEnabled:
      return "peer access has not been enabled";
    case cuemErrorPeerAccessUnsupported:
      return "peer access is not supported between these devices";
  }
  return "unknown error";
}

const char* cuemGetLastErrorMessage() { return rt().last_error.c_str(); }

cuemError_t cuemMalloc(void** dev_ptr, std::size_t size) {
  if (dev_ptr == nullptr || size == 0) {
    return cuemErrorInvalidValue;
  }
  *dev_ptr = allocate(size, MemSpace::kDevice);
  return *dev_ptr == nullptr ? cuemErrorMemoryAllocation : cuemSuccess;
}

cuemError_t cuemFree(void* dev_ptr) {
  if (dev_ptr == nullptr) {
    return cuemSuccess;  // CUDA: freeing nullptr is a no-op
  }
  return release(dev_ptr, MemSpace::kDevice, "cuemFree");
}

cuemError_t cuemMallocHost(void** host_ptr, std::size_t size) {
  if (host_ptr == nullptr || size == 0) {
    return cuemErrorInvalidValue;
  }
  *host_ptr = allocate(size, MemSpace::kHostPinned);
  return *host_ptr == nullptr ? cuemErrorMemoryAllocation : cuemSuccess;
}

cuemError_t cuemFreeHost(void* host_ptr) {
  if (host_ptr == nullptr) {
    return cuemSuccess;
  }
  return release(host_ptr, MemSpace::kHostPinned, "cuemFreeHost");
}

cuemError_t cuemMallocManaged(void** ptr, std::size_t size) {
  if (ptr == nullptr || size == 0) {
    return cuemErrorInvalidValue;
  }
  *ptr = allocate(size, MemSpace::kManaged);
  return *ptr == nullptr ? cuemErrorMemoryAllocation : cuemSuccess;
}

cuemError_t cuemMemGetInfo(std::size_t* free_bytes, std::size_t* total_bytes) {
  if (free_bytes == nullptr || total_bytes == nullptr) {
    return cuemErrorInvalidValue;
  }
  const std::size_t usable = Platform::instance().config().usable_memory();
  *total_bytes = Platform::instance().config().memory_bytes;
  *free_bytes = usable - device_bytes_in_use(current_device());
  return cuemSuccess;
}

cuemError_t cuemHostRegister(void* ptr, std::size_t size, unsigned flags) {
  if (ptr == nullptr || size == 0 || flags != 0) {
    return cuemErrorInvalidValue;
  }
  Allocation* a = rt().registry.find(ptr);
  if (a == nullptr || a->base != reinterpret_cast<std::uintptr_t>(ptr) ||
      a->size != size || a->space != MemSpace::kHostPageable) {
    return cuemErrorInvalidValue;
  }
  // Page-locking takes real driver time proportional to the range.
  Platform::instance().host_advance(
      50 * tidacc::kMicrosecond +
      transfer_time_ns(size, Platform::instance().config().host_copy_gbps));
  a->space = MemSpace::kHostPinned;
  return cuemSuccess;
}

cuemError_t cuemHostUnregister(void* ptr) {
  Allocation* a = rt().registry.find(ptr);
  if (a == nullptr || a->base != reinterpret_cast<std::uintptr_t>(ptr) ||
      a->space != MemSpace::kHostPinned) {
    return cuemErrorInvalidValue;
  }
  a->space = MemSpace::kHostPageable;
  return cuemSuccess;
}

cuemError_t cuemMemcpy(void* dst, const void* src, std::size_t count,
                       cuemMemcpyKind kind) {
  return do_memcpy(dst, src, count, kind, /*stream=*/0, /*blocking=*/true);
}

namespace {

cuemError_t do_memset(void* dev_ptr, int value, std::size_t count,
                      cuemStream_t stream, bool blocking) {
  if (dev_ptr == nullptr) {
    return cuemErrorInvalidValue;
  }
  Platform& p = Platform::instance();
  stream = resolve_stream(stream);
  if (!p.stream_valid(stream)) {
    return cuemErrorInvalidResourceHandle;
  }
  if (count == 0) {
    return cuemSuccess;
  }
  const char* op = blocking ? "cuemMemset" : "cuemMemsetAsync";
  if (!san::hook::precheck_range(dev_ptr, count, op)) {
    return cuemErrorInvalidValue;
  }
  if (!tidacc::cuem::is_device_ptr(dev_ptr) &&
      !tidacc::cuem::is_managed_ptr(dev_ptr)) {
    return cuemErrorInvalidDevicePointer;
  }
  sim::CopyRequest req;
  req.kind = sim::OpKind::kCopyD2D;  // device-local fill, device bandwidth
  req.bytes = count;
  req.blocking = blocking;
  req.label = "memset";
  std::function<void()> action;
  if (p.functional()) {
    action = [dev_ptr, value, count] { std::memset(dev_ptr, value, count); };
  }
  p.enqueue_copy(stream, req, std::move(action));
  claim(stream, dev_ptr, sim::ByteBox::span(0, count), Role::kWrite, op);
  return cuemSuccess;
}

}  // namespace

cuemError_t cuemMemset(void* dev_ptr, int value, std::size_t count) {
  return do_memset(dev_ptr, value, count, 0, /*blocking=*/true);
}

cuemError_t cuemMemsetAsync(void* dev_ptr, int value, std::size_t count,
                            cuemStream_t stream) {
  return do_memset(dev_ptr, value, count, stream, /*blocking=*/false);
}

cuemError_t cuemMemcpyAsync(void* dst, const void* src, std::size_t count,
                            cuemMemcpyKind kind, cuemStream_t stream) {
  return do_memcpy(dst, src, count, kind, stream, /*blocking=*/false);
}

cuemError_t cuemMemcpy3DAsync(const cuemMemcpy3DParms* parms,
                              cuemStream_t stream) {
  if (parms == nullptr) {
    return cuemErrorInvalidValue;
  }
  return do_memcpy3d(*parms, stream, Route::raw(),
                     parms->kind == cuemMemcpyDeviceToHost ? "3D-D2H"
                                                           : "3D-H2D");
}

cuemError_t cuemMemPrefetchAsync(const void* ptr, std::size_t count,
                                 int device, cuemStream_t stream) {
  if (ptr == nullptr) {
    return cuemErrorInvalidValue;
  }
  Platform& p = Platform::instance();
  if (!p.device_valid(device)) {
    std::ostringstream os;
    os << "cuemMemPrefetchAsync: device ordinal " << device
       << " out of range [0, " << p.num_devices() << ")";
    return fail(cuemErrorInvalidDevice, os.str());
  }
  const sim::DeviceConfig& cfg = p.config();
  if (cfg.uvm_mode != sim::DeviceConfig::UvmMode::kPascal) {
    return cuemErrorInvalidValue;  // pre-Pascal drivers lack prefetch
  }
  stream = resolve_stream(stream);
  if (!p.stream_valid(stream)) {
    return cuemErrorInvalidResourceHandle;
  }
  Allocation* alloc = rt().registry.find(ptr);
  if (alloc == nullptr || alloc->space != MemSpace::kManaged) {
    return cuemErrorInvalidValue;
  }
  if (alloc->device_resident || count == 0) {
    return cuemSuccess;
  }
  // Bulk migration at prefetch bandwidth, no fault storms.
  sim::CopyRequest req;
  req.kind = sim::OpKind::kUvmMigration;
  req.bytes = alloc->size;
  req.host_mem = sim::HostMemKind::kManaged;
  req.label = "uvm-prefetch";
  // Prefetch moves at near-pinned bandwidth, no fault storms.
  req.gbps_override = cfg.uvm_prefetch_gbps;
  p.enqueue_copy(stream, req, nullptr);
  alloc->device_resident = true;
  return cuemSuccess;
}

cuemError_t cuemStreamCreate(cuemStream_t* stream) {
  if (stream == nullptr) {
    return cuemErrorInvalidValue;
  }
  *stream = Platform::instance().create_stream(current_device());
  return cuemSuccess;
}

cuemError_t cuemStreamDestroy(cuemStream_t stream) {
  Platform& p = Platform::instance();
  if (!p.stream_valid(stream) || stream < p.num_devices()) {
    return cuemErrorInvalidResourceHandle;  // default streams included
  }
  if (!p.stream_idle(stream)) {
    // CUDA semantics: destroying a busy stream lets queued work complete
    // (the handle just becomes invalid). The host must observe that work as
    // finished, so drain before invalidating. Idle streams skip the sync
    // and pay nothing.
    san::hook::on_stream_destroy_pending(stream);
    p.sync_stream(stream);
  }
  p.destroy_stream(stream);
  return cuemSuccess;
}

cuemError_t cuemStreamSynchronize(cuemStream_t stream) {
  Platform& p = Platform::instance();
  stream = resolve_stream(stream);
  if (!p.stream_valid(stream)) {
    return cuemErrorInvalidResourceHandle;
  }
  p.sync_stream(stream);
  return cuemSuccess;
}

cuemError_t cuemStreamQuery(cuemStream_t stream) {
  Platform& p = Platform::instance();
  stream = resolve_stream(stream);
  if (!p.stream_valid(stream)) {
    return cuemErrorInvalidResourceHandle;
  }
  if (!p.stream_idle(stream)) {
    return cuemErrorNotReady;
  }
  if (p.hb_tracking()) {
    // A successful query is a visibility edge in real CUDA: the host may
    // rely on the stream's memory effects afterwards.
    p.hb_note_stream_query_success(stream);
  }
  return cuemSuccess;
}

cuemError_t cuemStreamWaitEvent(cuemStream_t stream, cuemEvent_t event,
                                unsigned flags) {
  if (flags != 0) {
    return cuemErrorInvalidValue;
  }
  Platform& p = Platform::instance();
  stream = resolve_stream(stream);
  if (!p.stream_valid(stream)) {
    return cuemErrorInvalidResourceHandle;
  }
  const auto it = rt().events.find(event);
  if (it == rt().events.end()) {
    return cuemErrorInvalidResourceHandle;
  }
  if (it->second < 0) {
    return cuemSuccess;  // CUDA: waiting on an unrecorded event is a no-op
  }
  p.stream_wait_event(stream, it->second);
  return cuemSuccess;
}

cuemError_t cuemEventCreate(cuemEvent_t* event) {
  if (event == nullptr) {
    return cuemErrorInvalidValue;
  }
  *event = rt().next_event++;
  rt().events[*event] = -1;
  return cuemSuccess;
}

cuemError_t cuemEventQuery(cuemEvent_t event) {
  const auto it = rt().events.find(event);
  if (it == rt().events.end()) {
    return cuemErrorInvalidResourceHandle;
  }
  if (it->second < 0) {
    return cuemSuccess;  // CUDA: unrecorded events report complete
  }
  Platform& p = Platform::instance();
  if (p.event_finish(it->second) > p.now()) {
    return cuemErrorNotReady;
  }
  if (p.hb_tracking()) {
    p.hb_note_event_query_success(it->second);
  }
  return cuemSuccess;
}

cuemError_t cuemEventDestroy(cuemEvent_t event) {
  return rt().events.erase(event) == 1 ? cuemSuccess
                                       : cuemErrorInvalidResourceHandle;
}

cuemError_t cuemEventRecord(cuemEvent_t event, cuemStream_t stream) {
  Platform& p = Platform::instance();
  stream = resolve_stream(stream);
  if (!p.stream_valid(stream)) {
    return cuemErrorInvalidResourceHandle;
  }
  const auto it = rt().events.find(event);
  if (it == rt().events.end()) {
    return cuemErrorInvalidResourceHandle;
  }
  it->second = p.record_event(stream);
  return cuemSuccess;
}

cuemError_t cuemEventSynchronize(cuemEvent_t event) {
  const auto it = rt().events.find(event);
  if (it == rt().events.end() || it->second < 0) {
    return cuemErrorInvalidResourceHandle;
  }
  Platform::instance().sync_event(it->second);
  return cuemSuccess;
}

cuemError_t cuemEventElapsedTime(float* ms, cuemEvent_t start,
                                 cuemEvent_t end) {
  if (ms == nullptr) {
    return cuemErrorInvalidValue;
  }
  const auto its = rt().events.find(start);
  const auto ite = rt().events.find(end);
  if (its == rt().events.end() || ite == rt().events.end() ||
      its->second < 0 || ite->second < 0) {
    return cuemErrorInvalidResourceHandle;
  }
  Platform& p = Platform::instance();
  const double ns = static_cast<double>(p.event_finish(ite->second)) -
                    static_cast<double>(p.event_finish(its->second));
  *ms = static_cast<float>(ns * 1e-6);
  return cuemSuccess;
}

cuemError_t cuemGetDeviceProperties(cuemDeviceProp* prop, int device) {
  if (prop == nullptr) {
    return cuemErrorInvalidValue;
  }
  if (!Platform::instance().device_valid(device)) {
    std::ostringstream os;
    os << "cuemGetDeviceProperties: device ordinal " << device
       << " out of range [0, " << Platform::instance().num_devices() << ")";
    return fail(cuemErrorInvalidDevice, os.str());
  }
  const sim::DeviceConfig& cfg = Platform::instance().config();
  std::snprintf(prop->name, sizeof prop->name, "%s", cfg.name.c_str());
  prop->totalGlobalMem = cfg.memory_bytes;
  prop->asyncEngineCount = cfg.copy_engines;
  prop->concurrentKernels = 0;
  prop->managedMemory = 1;
  prop->memoryBandwidthGBs = cfg.device_mem_gbps;
  prop->doublePrecisionTFlops = cfg.dp_tflops;
  return cuemSuccess;
}

cuemError_t cuemGetDeviceCount(int* count) {
  if (count == nullptr) {
    return cuemErrorInvalidValue;
  }
  *count = Platform::instance().num_devices();
  return cuemSuccess;
}

cuemError_t cuemGetDevice(int* device) {
  if (device == nullptr) {
    return cuemErrorInvalidValue;
  }
  *device = current_device();
  return cuemSuccess;
}

cuemError_t cuemSetDevice(int device) {
  Platform& p = Platform::instance();
  if (!p.device_valid(device)) {
    std::ostringstream os;
    os << "cuemSetDevice: device ordinal " << device << " out of range [0, "
       << p.num_devices() << ")";
    return fail(cuemErrorInvalidDevice, os.str());
  }
  cuem::detail::current_device = device;
  return cuemSuccess;
}

cuemError_t cuemDeviceCanAccessPeer(int* can_access, int device, int peer) {
  if (can_access == nullptr) {
    return cuemErrorInvalidValue;
  }
  Platform& p = Platform::instance();
  if (!p.device_valid(device) || !p.device_valid(peer)) {
    std::ostringstream os;
    os << "cuemDeviceCanAccessPeer: device pair (" << device << ", " << peer
       << ") outside [0, " << p.num_devices() << ")";
    return fail(cuemErrorInvalidDevice, os.str());
  }
  *can_access =
      (device != peer && p.interconnect().peer_supported) ? 1 : 0;
  return cuemSuccess;
}

cuemError_t cuemDeviceEnablePeerAccess(int peer, unsigned flags) {
  if (flags != 0) {
    return cuemErrorInvalidValue;
  }
  Platform& p = Platform::instance();
  const int dev = current_device();
  if (!p.device_valid(peer) || peer == dev) {
    std::ostringstream os;
    os << "cuemDeviceEnablePeerAccess: device " << dev
       << " cannot enable peer access to ordinal " << peer;
    return fail(cuemErrorInvalidDevice, os.str());
  }
  if (!p.interconnect().peer_supported) {
    std::ostringstream os;
    os << "cuemDeviceEnablePeerAccess: interconnect '"
       << p.interconnect().name << "' has no peer path between devices "
       << dev << " and " << peer;
    return fail(cuemErrorPeerAccessUnsupported, os.str());
  }
  if (!rt().peer_access.insert({dev, peer}).second) {
    std::ostringstream os;
    os << "cuemDeviceEnablePeerAccess: device " << dev
       << " already has peer access to device " << peer;
    return fail(cuemErrorPeerAccessAlreadyEnabled, os.str());
  }
  return cuemSuccess;
}

cuemError_t cuemDeviceDisablePeerAccess(int peer) {
  Platform& p = Platform::instance();
  const int dev = current_device();
  if (!p.device_valid(peer)) {
    std::ostringstream os;
    os << "cuemDeviceDisablePeerAccess: device ordinal " << peer
       << " out of range [0, " << p.num_devices() << ")";
    return fail(cuemErrorInvalidDevice, os.str());
  }
  if (rt().peer_access.erase({dev, peer}) == 0) {
    std::ostringstream os;
    os << "cuemDeviceDisablePeerAccess: device " << dev
       << " has no peer access to device " << peer;
    return fail(cuemErrorPeerAccessNotEnabled, os.str());
  }
  return cuemSuccess;
}

namespace {

/// Validates one endpoint of a cuemMemcpyPeer: must lie in device memory
/// owned by the stated ordinal.
cuemError_t check_peer_ptr(const void* ptr, int device, const char* role) {
  Platform& p = Platform::instance();
  if (!p.device_valid(device)) {
    std::ostringstream os;
    os << "cuemMemcpyPeer: " << role << " device ordinal " << device
       << " out of range [0, " << p.num_devices() << ")";
    return fail(cuemErrorInvalidDevice, os.str());
  }
  const int owner = device_of_ptr(ptr);
  if (owner != device) {
    std::ostringstream os;
    os << "cuemMemcpyPeer: " << role << " pointer is not device memory of "
       << "device " << device;
    if (owner >= 0) {
      os << " (owned by device " << owner << ")";
    }
    return fail(cuemErrorInvalidDevicePointer, os.str());
  }
  return cuemSuccess;
}

cuemError_t do_memcpy_peer(void* dst, int dst_device, const void* src,
                           int src_device, std::size_t count,
                           cuemStream_t stream, bool blocking) {
  if (dst == nullptr || src == nullptr) {
    return cuemErrorInvalidValue;
  }
  const char* op = blocking ? "cuemMemcpyPeer" : "cuemMemcpyPeerAsync";
  if (!san::hook::precheck_range(dst, count, op) ||
      !san::hook::precheck_range(src, count, op)) {
    return cuemErrorInvalidValue;
  }
  cuemError_t err = check_peer_ptr(dst, dst_device, "destination");
  if (err != cuemSuccess) {
    return err;
  }
  err = check_peer_ptr(src, src_device, "source");
  if (err != cuemSuccess) {
    return err;
  }
  std::function<void()> action;
  if (Platform::instance().functional()) {
    action = [dst, src, count] { std::memcpy(dst, src, count); };
  }
  return peer_transfer(dst_device, src_device, count, stream, blocking,
                       "P2P", std::move(action),
                       span_claims(dst, src, count, op));
}

}  // namespace

cuemError_t cuemMemcpyPeer(void* dst, int dst_device, const void* src,
                           int src_device, std::size_t count) {
  return do_memcpy_peer(dst, dst_device, src, src_device, count,
                        /*stream=*/0, /*blocking=*/true);
}

cuemError_t cuemMemcpyPeerAsync(void* dst, int dst_device, const void* src,
                                int src_device, std::size_t count,
                                cuemStream_t stream) {
  return do_memcpy_peer(dst, dst_device, src, src_device, count, stream,
                        /*blocking=*/false);
}

cuemError_t cuemDeviceSynchronize() {
  Platform::instance().sync_all();
  return cuemSuccess;
}

cuemError_t cuemDeviceReset() {
  // Leak sweep before teardown: live allocations and user streams at reset
  // are reported, then the shadow state is rebuilt with the platform.
  san::hook::on_device_reset();
  const sim::DeviceConfig cfg = Platform::instance().config();
  const bool functional_mode = Platform::instance().functional();
  const int devices = Platform::instance().num_devices();
  const sim::Interconnect ic = Platform::instance().interconnect();
  tidacc::cuem::configure(cfg, functional_mode, devices, ic);
  return cuemSuccess;
}

cuemError_t cuemSanAnnotate(const void* ptr, const char* label) {
  if (ptr == nullptr || label == nullptr) {
    return cuemErrorInvalidValue;
  }
  tidacc::cuem::san::annotate(ptr, label);
  return cuemSuccess;
}

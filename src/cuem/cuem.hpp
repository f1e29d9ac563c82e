// cuem — "CUDA emulation" runtime API.
//
// A C-style runtime mirroring the subset of the CUDA runtime API the paper's
// library and baselines use (cudaMalloc/cudaMallocHost/cudaMallocManaged,
// cudaMemcpy{,Async}, streams, events, cudaMemGetInfo, device sync), backed
// by the sim::Platform discrete-event model instead of real hardware.
//
// Beyond the CUDA-shaped surface there are four C++ extensions, needed
// because we have neither a device compiler nor an MMU:
//   * cuem::launch        — launches a kernel given a cost profile and a
//                           functional closure (stands in for <<<...>>>).
//   * cuem::host_touch    — notifies the runtime the host is about to access
//                           a managed allocation (stands in for the CPU page
//                           fault that triggers UVM migration back).
//   * cuem::claim         — states what an op or the host touches, for the
//                           sanitizer and the op graph alike (stands in for
//                           the memory traffic a kernel body or a NIC makes
//                           behind the runtime's back).
//   * cuem::configure     — rebuilds the simulated device with a chosen
//                           DeviceConfig (stands in for picking the GPU).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/byte_box.hpp"
#include "sim/device_config.hpp"
#include "sim/kernel_profile.hpp"
#include "sim/platform.hpp"

// ---------------------------------------------------------------------------
// C-shaped API (global scope, like the CUDA runtime)
// ---------------------------------------------------------------------------

/// [[nodiscard]] on the enum makes every cuem* status return checked at
/// compile time (with -Werror): dropping a cuemError_t is a build break.
/// Deliberate discards must say so with (void) or CUEM_CHECK.
enum [[nodiscard]] cuemError_t {
  cuemSuccess = 0,
  cuemErrorMemoryAllocation,
  cuemErrorInvalidValue,
  cuemErrorInvalidDevicePointer,
  cuemErrorInvalidMemcpyDirection,
  cuemErrorInvalidResourceHandle,
  cuemErrorNotReady,
  cuemErrorInvalidDevice,
  cuemErrorPeerAccessAlreadyEnabled,
  cuemErrorPeerAccessNotEnabled,
  cuemErrorPeerAccessUnsupported
};

enum cuemMemcpyKind {
  cuemMemcpyHostToHost = 0,
  cuemMemcpyHostToDevice = 1,
  cuemMemcpyDeviceToHost = 2,
  cuemMemcpyDeviceToDevice = 3,
  cuemMemcpyDefault = 4
};

/// Stream handle; 0 is the default stream.
using cuemStream_t = int;
/// Event handle.
using cuemEvent_t = int;

const char* cuemGetErrorString(cuemError_t err);

/// Detailed message for the most recent failure, including the device
/// ordinal involved (e.g. "cuemSetDevice: ordinal 4 out of range [0, 2)").
/// Empty string when no failure has been recorded since the last reset.
const char* cuemGetLastErrorMessage();

// --- memory management ---
cuemError_t cuemMalloc(void** dev_ptr, std::size_t size);
cuemError_t cuemFree(void* dev_ptr);
cuemError_t cuemMallocHost(void** host_ptr, std::size_t size);  // pinned
cuemError_t cuemFreeHost(void* host_ptr);
cuemError_t cuemMallocManaged(void** ptr, std::size_t size);
cuemError_t cuemMemGetInfo(std::size_t* free_bytes, std::size_t* total_bytes);

/// Pins an existing pageable host range so transfers run at pinned
/// bandwidth (cudaHostRegister). The range must lie inside one allocation
/// the runtime knows (from cuem::host_alloc) and cover it exactly.
cuemError_t cuemHostRegister(void* ptr, std::size_t size, unsigned flags);
cuemError_t cuemHostUnregister(void* ptr);

// --- transfers ---
cuemError_t cuemMemcpy(void* dst, const void* src, std::size_t count,
                       cuemMemcpyKind kind);
cuemError_t cuemMemcpyAsync(void* dst, const void* src, std::size_t count,
                            cuemMemcpyKind kind, cuemStream_t stream);

/// Pitched (strided) 3D copy descriptor, the cudaMemcpy3DParms analogue.
/// `dst`/`src` point at the first byte of the transferred sub-box (any base
/// offset is already applied); rows of `width` bytes are `*_pitch` bytes
/// apart, slices of `height` rows are `*_slice_pitch` bytes apart, `depth`
/// slices in total. Only HostToDevice and DeviceToHost directions are
/// supported (the delta-transfer paths); other kinds are rejected with
/// cuemErrorInvalidMemcpyDirection.
struct cuemMemcpy3DParms {
  void* dst = nullptr;
  std::size_t dst_pitch = 0;        ///< bytes between row starts
  std::size_t dst_slice_pitch = 0;  ///< bytes between slice starts
  const void* src = nullptr;
  std::size_t src_pitch = 0;
  std::size_t src_slice_pitch = 0;
  std::size_t width = 0;   ///< bytes per row
  std::size_t height = 1;  ///< rows per slice
  std::size_t depth = 1;   ///< slices
  cuemMemcpyKind kind = cuemMemcpyDefault;
};

/// Queues a pitched sub-box copy (kMemcpy3DH2D / kMemcpy3DD2H trace ops).
/// Contiguous runs coalesce: when rows span the full pitch on both sides a
/// slice is one chunk, and when slices abut too the whole transfer is one
/// flat burst. Each remaining chunk pays DeviceConfig::memcpy3d_chunk_ns
/// (or the pack-kernel fallback) on top of the flat-copy cost model.
cuemError_t cuemMemcpy3DAsync(const cuemMemcpy3DParms* parms,
                              cuemStream_t stream);

/// Fills device memory (cudaMemset): synchronous and stream-ordered async.
cuemError_t cuemMemset(void* dev_ptr, int value, std::size_t count);
cuemError_t cuemMemsetAsync(void* dev_ptr, int value, std::size_t count,
                            cuemStream_t stream);

/// Migrates a managed range to the device ahead of the page faults
/// (cudaMemPrefetchAsync). Pascal-mode UVM only (DeviceConfig::uvm_mode);
/// the Kepler-era driver returns cuemErrorInvalidValue. `device` must be 0.
cuemError_t cuemMemPrefetchAsync(const void* ptr, std::size_t count,
                                 int device, cuemStream_t stream);

// --- streams ---
cuemError_t cuemStreamCreate(cuemStream_t* stream);
cuemError_t cuemStreamDestroy(cuemStream_t stream);
cuemError_t cuemStreamSynchronize(cuemStream_t stream);
/// cuemSuccess when the stream has drained, cuemErrorNotReady otherwise.
cuemError_t cuemStreamQuery(cuemStream_t stream);
cuemError_t cuemStreamWaitEvent(cuemStream_t stream, cuemEvent_t event,
                                unsigned flags);

// --- events ---
cuemError_t cuemEventCreate(cuemEvent_t* event);
/// cuemSuccess when the event has completed, cuemErrorNotReady otherwise.
cuemError_t cuemEventQuery(cuemEvent_t event);
cuemError_t cuemEventDestroy(cuemEvent_t event);
cuemError_t cuemEventRecord(cuemEvent_t event, cuemStream_t stream);
cuemError_t cuemEventSynchronize(cuemEvent_t event);
cuemError_t cuemEventElapsedTime(float* ms, cuemEvent_t start,
                                 cuemEvent_t end);

/// Subset of cudaDeviceProp the library and applications consult.
struct cuemDeviceProp {
  char name[64];
  std::size_t totalGlobalMem;
  int asyncEngineCount;   ///< number of DMA copy engines
  int concurrentKernels;  ///< 0 on this Kepler-era model (kernels serialize)
  int managedMemory;      ///< UVM supported
  double memoryBandwidthGBs;
  double doublePrecisionTFlops;
};

cuemError_t cuemGetDeviceProperties(cuemDeviceProp* prop, int device);

// --- devices ---
cuemError_t cuemGetDeviceCount(int* count);
cuemError_t cuemGetDevice(int* device);
/// Selects the current device. Out-of-range ordinals return
/// cuemErrorInvalidDevice (they never abort); the message from
/// cuemGetLastErrorMessage() names the offending ordinal.
cuemError_t cuemSetDevice(int device);

// --- peer access ---
/// Whether `device` can map `peer`'s memory directly (decided by the
/// platform's Interconnect: NVLink-class fabrics support it, PCIe-through-
/// host does not).
cuemError_t cuemDeviceCanAccessPeer(int* can_access, int device, int peer);
/// Enables direct access from the current device to `peer`'s memory.
cuemError_t cuemDeviceEnablePeerAccess(int peer, unsigned flags);
cuemError_t cuemDeviceDisablePeerAccess(int peer);
/// Copies between devices (cudaMemcpyPeer semantics: always legal; routed
/// directly over the interconnect when peer access is enabled between the
/// endpoints, staged through host memory as D2H+H2D otherwise).
cuemError_t cuemMemcpyPeer(void* dst, int dst_device, const void* src,
                           int src_device, std::size_t count);
cuemError_t cuemMemcpyPeerAsync(void* dst, int dst_device, const void* src,
                                int src_device, std::size_t count,
                                cuemStream_t stream);

cuemError_t cuemDeviceSynchronize();
/// Frees every allocation and rebuilds the platform with the same config
/// (all devices — the simulator models a whole-process reset). When the
/// cuem sanitizer is built in, this is also its leak-sweep point: live
/// allocations and user streams are reported before teardown.
cuemError_t cuemDeviceReset();

// --- sanitizer hook ---
/// Names the allocation containing `ptr` in sanitizer reports (e.g.
/// "host:R3" for region 3's host buffer). A no-op returning cuemSuccess
/// when TIDACC_CUEM_SANITIZER is off or the checker is disabled; returns
/// cuemErrorInvalidValue for null pointers. See docs/SANITIZER.md.
cuemError_t cuemSanAnnotate(const void* ptr, const char* label);

// ---------------------------------------------------------------------------
// C++ extensions
// ---------------------------------------------------------------------------

namespace tidacc::cuem {

/// Launch geometry, the analogue of <<<grid, block>>>. `tuned` records
/// whether the geometry was hand-tuned (paper §II-C tunes CUDA kernels and
/// lets the compiler choose for OpenACC); untuned launches run slower by
/// DeviceConfig::untuned_geometry_factor.
struct LaunchGeometry {
  unsigned grid_x = 1, grid_y = 1, grid_z = 1;
  unsigned block_x = 256, block_y = 1, block_z = 1;
  bool tuned = true;
};

/// Launches a kernel on `stream`: the profile prices it, `body` performs the
/// real computation in functional mode. Managed allocations that are
/// host-resident migrate to the device first (Kepler UVM semantics).
cuemError_t launch(cuemStream_t stream, const LaunchGeometry& geom,
                   const sim::KernelProfile& profile, std::string label,
                   std::function<void()> body);

/// The route a copy takes across the host link. Raw is the CUDA-shaped
/// copy and the only route of host→host and device→device copies. A
/// scheduler prefetch (sim::OpKind::kPrefetchH2D, flat host→device only)
/// is priced like a raw upload but stands apart in traces and Gantt
/// charts. The codec (the …Compressed kinds, host↔device only) prices
/// encode + wire at `payload`'s ratio + decode; it is lossless and fails
/// loudly on a codec-less config. A route that does not fit the copy
/// returns cuemErrorInvalidMemcpyDirection.
struct Route {
  enum class Via : std::uint8_t { kRaw, kPrefetch, kCodec };
  Via via = Via::kRaw;
  sim::PayloadKind payload = sim::PayloadKind::kInterior;  ///< codec only

  static constexpr Route raw() { return {}; }
  static constexpr Route prefetch() { return {Via::kPrefetch}; }
  static constexpr Route codec(sim::PayloadKind p) { return {Via::kCodec, p}; }
};

/// cuemMemcpyAsync on `route` with a caller-supplied trace label (e.g.
/// "P:R3" for a prefetch of region 3, "desc:D0" for the ghost exchange's
/// descriptor upload to device 0), which also names the op in sanitizer
/// findings. An unlabelled raw copy is traced by its direction.
cuemError_t memcpy_async(void* dst, const void* src, std::size_t count,
                         cuemMemcpyKind kind, cuemStream_t stream,
                         Route route, std::string label);

/// cuemMemcpy3DAsync on `route` (raw or codec) with a caller-supplied
/// trace label (e.g. "dH2D:R3" for a delta upload of region 3) — what the
/// dirty-tracking array layers use.
cuemError_t memcpy3d_async(const cuemMemcpy3DParms& parms,
                           cuemStream_t stream, Route route,
                           std::string label);

/// Contiguous runs (sim::CopyRequest::chunks) the pitched copy `parms`
/// is priced with after coalescing: full-pitch rows merge into slices,
/// full-pitch slices into one flat burst.
std::uint64_t memcpy3d_chunks(const cuemMemcpy3DParms& parms);

/// Declares that host code is about to read/write `bytes` at `ptr` inside a
/// managed allocation. Stands in for the CPU-side page fault: blocks until
/// outstanding device work finishes and charges page-granular migration.
/// No-op for non-managed pointers.
cuemError_t host_touch(void* ptr, std::size_t bytes);

/// Rebuilds the simulated device: frees everything, installs `cfg`.
void configure(const sim::DeviceConfig& cfg, bool functional = true);

/// Rebuilds the platform with `num_devices` identical devices connected by
/// `interconnect`. The single-argument overload above is equivalent to one
/// device on the PCIe preset.
void configure(const sim::DeviceConfig& cfg, bool functional,
               int num_devices, const sim::Interconnect& interconnect);

namespace detail {
/// Current device (cuemSetDevice), as in the CUDA runtime. Kept in the
/// header so current_device() and a DeviceGuard onto the device already
/// current cost one load.
inline int current_device = 0;
}  // namespace detail

/// Device count / current device without the output-parameter dance.
int device_count();
inline int current_device() { return detail::current_device; }

/// The current device's default stream (what stream handle 0 resolves to).
cuemStream_t default_stream();

/// True when direct peer access from `device` to `peer` has been enabled
/// in either direction (the condition under which peer copies between the
/// two run over the interconnect instead of staging through host).
bool peer_enabled(int device, int peer);

/// Owning device of a device/managed pointer, -1 for host or unknown.
int device_of_ptr(const void* p);

/// RAII guard: switches the current device, restores the previous one.
/// A guard onto the device already current touches nothing — the common
/// case of every per-region acquire and stream lookup on one device — so
/// only an actual switch (and its ordinal check) runs out of line.
class DeviceGuard {
 public:
  explicit DeviceGuard(int device) : prev_(detail::current_device) {
    if (device != prev_) {
      enter(device);
    }
  }
  ~DeviceGuard() {
    if (detail::current_device != prev_) {
      leave();
    }
  }
  DeviceGuard(const DeviceGuard&) = delete;
  DeviceGuard& operator=(const DeviceGuard&) = delete;

 private:
  /// cuemSetDevice(device); throws tidacc::Error naming an invalid ordinal.
  void enter(int device);
  /// Restores the device current at construction.
  void leave() const;

  int prev_;
};

/// Makes work queued on `stream` from now on wait for everything already
/// queued on `before` (an event recorded on `before`, waited on by
/// `stream`, then destroyed). The host never blocks.
cuemError_t order_after(cuemStream_t stream, cuemStream_t before);

/// What a claimed access does to its bytes.
enum class Role : std::uint8_t { kRead, kWrite };

/// One access: `box` of the buffer at `ptr` (box.offset counts from
/// `ptr`), in `role`.
struct Access {
  const void* ptr = nullptr;
  sim::ByteBox box;
  Role role = Role::kRead;
};

/// True while something listens to claims: the sanitizer, or an op graph
/// attached to the platform.
bool claims_heard();

/// The accesses of one op, claimed together under the name `op`. Whether
/// anything listens is sampled once, at construction: when nothing does,
/// add() keeps nothing, and callers skip working out boxes (`heard`).
struct Claims {
  Claims() = default;
  explicit Claims(const char* name) : op(name), heard(claims_heard()) {}

  void add(const void* ptr, const sim::ByteBox& box, Role role) {
    if (heard) {
      accesses.push_back(Access{ptr, box, role});
    }
  }

  const char* op = "";
  bool heard = false;
  std::vector<Access> accesses;
};

/// The one statement of an access: `box` of the buffer at `ptr` (box.offset
/// counts from `ptr`), in `role`, by the newest op on `stream` — claim
/// right after enqueuing it — or by the host when `stream` is -1. It feeds
/// the sanitizer's racecheck, named `op` in findings, and the op's node in
/// an attached op graph, which keeps the box for the schedule lint (the
/// graph has no host lane: it ignores host claims). Returns at once when
/// neither listens.
void claim(cuemStream_t stream, const void* ptr, const sim::ByteBox& box,
           Role role, const char* op);

/// Claims every access of `claims` for the newest op on `stream`, in order.
inline void claim(cuemStream_t stream, const Claims& claims) {
  for (const Access& a : claims.accesses) {
    claim(stream, a.ptr, a.box, a.role, claims.op);
  }
}

/// Stream-ordered peer copy with a caller-supplied functional action and
/// trace label — the cudaMemcpy3DPeerAsync analogue used by inter-device
/// ghost exchange, where the data movement is strided rather than a flat
/// memcpy. `bytes` prices the transfer; `action` performs it. The copy
/// claims `claims` (its strided source reads and destination writes):
/// direct, all on the copy; staged through the host, the reads on the D2H
/// hop and the writes on the H2D hop, each hop also claiming the device
/// pair's bounce buffer.
cuemError_t peer_copy_async(int dst_device, int src_device,
                            std::size_t bytes, cuemStream_t stream,
                            std::string label, std::function<void()> action,
                            const Claims& claims = {});

/// The platform behind the runtime (timing queries, traces).
sim::Platform& platform();

/// True when kernels/copies execute functionally (real data).
bool functional();

/// Classification helpers used by the higher layers.
bool is_device_ptr(const void* p);
bool is_pinned_host_ptr(const void* p);
bool is_managed_ptr(const void* p);

/// Memory-registration class of a pointer, as a verbs-style NIC sees it
/// (sim::Fabric::register_memory). Device memory may only be registered on
/// GPUDirect-capable fabrics; pageable host memory is rejected outright
/// (the model assumes pre-pinned bounce buffers, as every RDMA runtime
/// does in practice); unknown pointers never came from cuem at all.
enum class MrClass : int {
  kDeviceMemory = 0,
  kPinnedHost = 1,
  kPageableHost = 2,
  kUnknown = 3
};

const char* to_string(MrClass c);

/// Classifies `p` against the pointer registry. Managed memory counts as
/// device memory: the NIC would DMA its device-resident pages.
MrClass mr_classify(const void* p);

/// Allocates registered host memory: pinned (cuemMallocHost) or pageable.
/// Unlike plain new, pageable allocations made here work in timing-only mode
/// (synthetic, never dereferenced) and are visible to the pointer registry.
void* host_alloc(std::size_t bytes, bool pinned);

/// Frees memory obtained from host_alloc.
void host_free(void* ptr);

/// Bytes currently allocated across all devices.
std::size_t device_bytes_in_use();

/// Bytes currently allocated on one device.
std::size_t device_bytes_in_use(int device);

/// Number of live allocations across all spaces (leak checks in tests).
std::size_t live_allocation_count();

// ---------------------------------------------------------------------------
// Snapshot (see docs/FUZZING.md)
// ---------------------------------------------------------------------------

/// Snapshot field list of the cuem runtime (sim/snapshot.hpp): registry
/// metadata, buffer contents (functional mode), event handles, peer-access
/// grants, per-device accounting. The platform is captured alongside (sim
/// section first). Restore is in place and same-process, and its contract
/// is address-stable: every allocation live at capture time must still be
/// live at the same base and size (freeing a snapshotted buffer before
/// restoring invalidates the snapshot — restore fails with a clear error).
/// Allocations created after the capture are released; surviving buffers
/// get their captured contents written back.
template <typename Ar>
void snapshot_fields(Ar& ar);

}  // namespace tidacc::cuem

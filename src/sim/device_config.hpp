// Device/platform timing model parameters.
//
// The simulator reproduces a K40m-class GPU attached over PCIe Gen3 — the
// testbed of Bastem et al. (ICPP'17). Every constant here is documented in
// DESIGN.md §6 and can be overridden per run; benches print the config used.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace tidacc::sim {

/// Cost class of transcendental math codegen (paper §VI-B): nvcc's precise
/// libdevice DP sin/cos is slowest, PGI's codegen is faster, nvcc with
/// --use_fast_math is fastest (at lower precision).
enum class MathClass : int {
  kNone = 0,         ///< kernel uses no transcendental functions
  kNvccPrecise = 1,  ///< nvcc default DP sin/cos/sqrt
  kPgiDefault = 2,   ///< PGI (OpenACC) math codegen
  kNvccFastMath = 3  ///< nvcc --use_fast_math
};

const char* to_string(MathClass m);

/// What a compressed transfer is carrying — the achieved ratio of an
/// on-the-fly codec depends on the payload's structure, not just its size.
/// Interior regions are smooth bulk field data (best ratio); face shells
/// are thin boundary slabs (less spatial coherence); ghost refreshes are
/// freshly updated halo cells (least redundancy, worst ratio).
enum class PayloadKind : int {
  kInterior = 0,
  kFaceShell = 1,
  kGhostRefresh = 2
};

const char* to_string(PayloadKind k);

/// Timing/ratio model of an on-the-fly lossless codec attached to a link
/// (nvcomp-LZ4-class). A compressed transfer is priced as three serial
/// stages on the discrete-event clock:
///   encode (launch + logical_bytes / encode_gbps)
///   wire   (wire_bytes = logical / ratio(payload), at the link's rate)
///   decode (launch + logical_bytes / decode_gbps)
/// Throughputs are defined over the *logical* (uncompressed) payload, which
/// is what the codec kernels actually stream through device memory. The
/// default constants model a GPU LZ4-class codec on K40m-era hardware; the
/// ratios follow the compression-for-out-of-core-stencils literature
/// (smooth interior data compresses best, freshly-written halo cells
/// worst). `available = false` turns the link codec-less: compressed
/// transfers on such a config fail loudly instead of pricing nonsense.
struct CodecConfig {
  bool available = true;
  double encode_gbps = 32.0;  ///< encode throughput over logical bytes
  double decode_gbps = 48.0;  ///< decode throughput over logical bytes
  SimTime launch_ns = 4000;   ///< per-stage kernel launch/dispatch cost
  double interior_ratio = 2.6;  ///< achieved ratio on full interior regions
  double face_ratio = 1.9;      ///< on face-shell slabs
  double ghost_ratio = 1.6;     ///< on ghost-refresh payloads

  /// Achieved compression ratio for a payload kind (>= 1).
  double ratio(PayloadKind k) const;

  /// Bytes that cross the link for a `logical`-byte payload (rounded up,
  /// never 0 for a non-empty payload, never above `logical`).
  std::uint64_t wire_bytes(std::uint64_t logical, PayloadKind k) const;

  /// Encode+decode stage time (both launches + both passes over the
  /// logical payload) — everything a compressed transfer pays on top of
  /// its shrunken wire time.
  SimTime codec_time_ns(std::uint64_t logical) const;

  /// One-line description for bench headers.
  std::string summary() const;
};

/// All tunable constants of the simulated platform.
struct DeviceConfig {
  std::string name = "K40m-class (simulated)";

  // --- device memory ---
  std::uint64_t memory_bytes = 12ull * kGiB;  ///< physical device memory
  std::uint64_t reserved_bytes =
      768ull * kMiB;  ///< runtime/context reservation (not allocatable)

  // --- PCIe link ---
  double pinned_h2d_gbps = 10.5;    ///< pinned host→device bandwidth (GB/s)
  double pinned_d2h_gbps = 10.0;    ///< pinned device→host bandwidth (GB/s)
  double pageable_h2d_gbps = 5.8;   ///< pageable effective H2D bandwidth
  double pageable_d2h_gbps = 5.4;   ///< pageable effective D2H bandwidth
  double d2d_gbps = 180.0;          ///< device-to-device copy bandwidth
  SimTime transfer_latency_ns = 8 * kMicrosecond;  ///< per-transfer setup
  SimTime pageable_staging_ns =
      12 * kMicrosecond;  ///< extra staging setup per pageable transfer
  int copy_engines = 2;   ///< K40m has separate H2D and D2H DMA engines

  // --- pitched (3D / sub-box) transfers (cuemMemcpy3DAsync) ---
  /// Per-chunk DMA descriptor cost of a strided transfer: every
  /// non-contiguous run of bytes (a row, or a slice when rows coalesce) is
  /// one descriptor the copy engine processes before bursting its payload.
  SimTime memcpy3d_chunk_ns = 250;
  /// Cost of the pack/unpack kernel the driver falls back to when a
  /// transfer has so many chunks that gathering it into a contiguous
  /// staging buffer and bursting once is cheaper than per-chunk DMA
  /// (launch overhead; the gather itself is priced at device_mem_gbps).
  SimTime memcpy3d_pack_ns = 6 * kMicrosecond;

  /// Extra duration a pitched transfer of `bytes` split into `chunks`
  /// contiguous runs pays on top of the flat-copy model: the cheaper of
  /// per-chunk descriptor processing and pack-kernel + contiguous burst
  /// (read + write through device memory). 0 for contiguous transfers.
  SimTime memcpy3d_overhead_ns(std::uint64_t bytes,
                               std::uint64_t chunks) const;

  /// Concurrent-kernel lanes on the compute engine. 1 (default) serializes
  /// kernels — the model that matches the paper's era, where large kernels
  /// fill the device. >1 models Hyper-Q style concurrent kernels.
  int compute_lanes = 1;

  // --- compute ---
  double device_mem_gbps = 205.0;  ///< effective device memory bandwidth
  double dp_tflops = 1.43;         ///< DP peak
  SimTime kernel_launch_ns = 6 * kMicrosecond;  ///< CUDA launch latency
  SimTime oacc_dispatch_extra_ns =
      4 * kMicrosecond;  ///< extra OpenACC runtime dispatch per kernel
  double untuned_geometry_factor =
      1.12;  ///< slowdown when launch geometry is compiler-chosen (§II-C)

  /// flop-equivalents of one `sin+cos+sqrt` unit under nvcc precise codegen;
  /// the MathClass factors below scale it.
  double math_unit_flops = 330.0;
  double math_factor_nvcc_precise = 1.0;
  double math_factor_pgi = 0.55;
  double math_factor_nvcc_fast = 0.30;

  // --- host ---
  SimTime host_api_overhead_ns = 2 * kMicrosecond;  ///< per async API call
  SimTime sync_overhead_ns = 3 * kMicrosecond;      ///< per synchronize call
  double host_copy_gbps = 12.0;  ///< host-to-host memcpy bandwidth
  double host_dp_gflops = 60.0;  ///< host DP throughput (CPU tile path)
  double host_mem_gbps = 40.0;   ///< host memory bandwidth (CPU tile path)
  /// host-side cost to compute one ghost-copy index descriptor (source box,
  /// destination box, strides) — paper §IV-B6: the CPU computes these while
  /// the GPU applies previously computed updates.
  SimTime host_index_calc_ns_per_copy = 1000;

  // --- unified (managed) memory ---
  /// Driver generation for managed memory:
  ///  * kKepler (paper era, CUDA 6): the runtime migrates every attached
  ///    host-resident managed allocation to the device at kernel launch,
  ///    and requires device synchronization before CPU access;
  ///  * kPascal: page-fault-driven demand migration (per-page fault cost on
  ///    first device touch), plus cuemMemPrefetchAsync to move data at full
  ///    bandwidth ahead of the faults.
  enum class UvmMode : int { kKepler = 0, kPascal = 1 };
  UvmMode uvm_mode = UvmMode::kKepler;
  std::uint64_t uvm_page_bytes = 64 * kKiB;
  SimTime uvm_launch_check_ns =
      10 * kMicrosecond;  ///< per managed allocation, per kernel launch
  SimTime uvm_page_fault_ns = 15 * kMicrosecond;  ///< per page fault
  double uvm_migrate_gbps = 5.0;  ///< migration bandwidth (pageable-class)
  double uvm_prefetch_gbps = 9.5;  ///< cuemMemPrefetchAsync bandwidth

  // --- host<->device link codec ---
  /// On-the-fly transfer compression model. Only engaged by the compressed
  /// copy kinds ({Acc,MultiAcc}Options::compression != kOff); its presence
  /// here changes nothing about raw-transfer pricing.
  CodecConfig codec;

  /// Returns the math cost factor for a class (kNone → 0).
  double math_factor(MathClass m) const;

  /// Host time of a host-to-host memcpy of `bytes` (ghost copies between
  /// host buffers, cuemMemcpy HostToHost).
  SimTime host_copy_ns(std::uint64_t bytes) const;

  /// Allocatable device memory (memory_bytes - reserved_bytes).
  std::uint64_t usable_memory() const;

  /// The default preset used throughout tests and benches.
  static DeviceConfig k40m();

  /// K40m preset with device memory capped so only `bytes` are allocatable —
  /// used for the paper's limited-memory experiments (Figs 7, 8).
  static DeviceConfig k40m_limited(std::uint64_t usable_bytes);

  /// One-line description for bench headers.
  std::string summary() const;
};

/// Inter-device interconnect topology for multi-device platforms.
///
/// Presets (constants documented like the K40m table above):
///   * PCIe Gen3 through host ("pcie"): the paper-era testbed. No direct
///     peer access — peer copies stage through host memory as a D2H hop on
///     the source device followed by an H2D hop on the destination, each at
///     the pinned PCIe rates (10.5/10.0 GB/s) with a full transfer setup.
///   * PCIe Gen4-class ("pcie4"): still host-staged, but every host link
///     runs at 2x the Gen3 rates (host_link_scale = 2).
///   * NVLink-class ("nvlink"): direct peer access at 52.5 GB/s per
///     direction (5x the Gen3 pinned H2D rate — the paper's §I "faster
///     interconnect" scenario) with a 1.5 us per-transfer setup; host links
///     also run 5x (the historical abl_interconnect sweep point).
///   * custom GB/s: direct peer access at the given rate, 2 us setup; host
///     links scale proportionally to the Gen3 pinned H2D baseline.
struct Interconnect {
  std::string name = "pcie-gen3";
  /// Whether cuemDeviceEnablePeerAccess can succeed on this topology.
  bool peer_supported = false;
  /// Direct peer-to-peer bandwidth per direction (GB/s), when supported.
  double peer_gbps = 52.5;
  /// Per-transfer setup cost of a direct peer copy.
  SimTime peer_latency_ns = 1500;
  /// Scale of every host<->device link relative to the K40m PCIe Gen3
  /// baseline (applied to the pinned and pageable rates by
  /// apply_host_link); 1.0 reproduces the single-device model exactly.
  double host_link_scale = 1.0;
  /// Optional per-pair overrides, row-major [src * num_devices + dst];
  /// 0 entries fall back to peer_gbps / peer_latency_ns. Empty = uniform.
  std::vector<double> pair_gbps;
  std::vector<SimTime> pair_latency_ns;

  /// Direct-path bandwidth between a device pair.
  double gbps(int src, int dst, int num_devices) const;
  /// Direct-path per-transfer setup between a device pair.
  SimTime latency(int src, int dst, int num_devices) const;

  /// Scales the host PCIe link rates of `cfg` by host_link_scale.
  void apply_host_link(DeviceConfig& cfg) const;

  /// One-line description for bench headers.
  std::string summary() const;

  static Interconnect pcie();
  static Interconnect pcie4();
  static Interconnect nvlink();
  static Interconnect custom(double gbps);

  /// Parses the shared --interconnect flag: "pcie" | "pcie4" | "nvlink" or
  /// a positive number of GB/s (custom preset). Aborts on anything else.
  static Interconnect parse(const std::string& flag);

  /// The historical abl_interconnect sweep, slowest link first.
  static std::vector<Interconnect> sweep_presets();
};

}  // namespace tidacc::sim

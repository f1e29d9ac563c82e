// Inter-node fabric timing model.
//
// FabricConfig plays the role sim::Interconnect plays for intra-node
// device-to-device links, but for the NICs connecting simulated nodes:
// per-link bandwidth and one-way latency, the host cost of posting a work
// request, the NIC cost of generating a completion, and whether the fabric
// supports GPUDirect (NIC DMA straight into/out of device memory, skipping
// the pinned-host bounce). Presets are documented like the K40m table in
// DESIGN.md; benches print the config used.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/device_config.hpp"
#include "sim/trace.hpp"

namespace tidacc::sim {

/// Tunable constants of the simulated NIC + switch fabric.
///
/// Presets:
///   * "ethernet": 100GbE-class without RDMA offload to device memory —
///     11.5 GB/s effective per direction, 6 us one-way latency, costlier
///     work-request posting (kernel-mediated path), no GPUDirect.
///   * "infiniband": EDR-class verbs NIC — 25 GB/s per direction, 1.3 us
///     one-way latency, cheap posting, GPUDirect-capable at 92% of the
///     link rate (peer DMA reads pay a small PCIe round-trip tax).
///   * custom GB/s: GPUDirect-capable link at the given rate, 2 us latency.
struct FabricConfig {
  std::string name = "infiniband";
  /// Per-direction link bandwidth of one NIC (GB/s).
  double link_gbps = 25.0;
  /// One-way wire + switch latency per hop.
  SimTime link_latency_ns = 1300;
  /// Host cost to post one work request (send/recv/RDMA) to a queue pair.
  SimTime post_wr_ns = 600;
  /// NIC cost to generate and deliver one completion-queue entry.
  SimTime completion_ns = 900;
  /// Whether device memory can be registered (GPUDirect RDMA).
  bool gpudirect = true;
  /// Fraction of link_gbps achieved on the GPUDirect path (peer DMA across
  /// the PCIe switch is slightly below the host-memory line rate).
  double gpudirect_efficiency = 0.92;
  /// Wire-side codec: when a work request carries compressed payload
  /// (wire_bytes > 0), the sender encodes and the receiver decodes at these
  /// rates while only the shrunken bytes traverse the link. Composes with
  /// either path — a GPUDirect transfer runs the codec on the GPUs, a
  /// host-staged one on the hosts; both are priced by the same serial
  /// encode + wire + decode model. Engaged only by compressed work
  /// requests (ClusterOptions::compression != kOff).
  CodecConfig codec;

  /// Effective bandwidth of a transfer: the GPUDirect path (either endpoint
  /// registered in device memory) runs at link_gbps * gpudirect_efficiency,
  /// the host-memory path at the full link rate.
  double path_gbps(bool gpudirect_path) const;

  /// Duration of one work request moving `bytes` of logical payload: the
  /// hop latencies (an RDMA read's request crosses the wire before data
  /// flows back), the completion, and the payload at the path's rate. A
  /// compressed request (`wire_bytes` > 0) pays the codec's encode and
  /// decode stages around a wire traversal of only `wire_bytes`. The one
  /// price of a work request — Fabric::submit schedules with it and every
  /// wire-compression decision compares it.
  SimTime wr_ns(OpKind kind, std::uint64_t bytes, std::uint64_t wire_bytes,
                bool gpudirect_path) const;

  /// One-line description for bench headers.
  std::string summary() const;

  static FabricConfig ethernet();
  static FabricConfig infiniband();
  static FabricConfig custom(double gbps);

  /// Parses the shared --fabric flag: "ethernet" | "infiniband" or a
  /// positive number of GB/s (custom preset). Aborts on anything else.
  static FabricConfig parse(const std::string& flag);

  /// Sweep for benches, slowest fabric first.
  static std::vector<FabricConfig> sweep_presets();
};

}  // namespace tidacc::sim

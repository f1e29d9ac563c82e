// Kernel cost descriptor. The functional body of a kernel is an opaque
// closure; its simulated duration is computed from this profile with a
// roofline model: duration = max(memory time, compute time) * geometry.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"
#include "sim/device_config.hpp"

namespace tidacc::sim {

/// Describes the work one kernel launch performs, for the cost model.
struct KernelProfile {
  std::uint64_t elements = 0;        ///< grid points processed
  double flops_per_element = 0.0;    ///< plain FP ops per element
  double dev_bytes_per_element = 0.0;  ///< device-memory traffic per element
  double math_units_per_element = 0.0;  ///< transcendental units per element
  MathClass math = MathClass::kNone;    ///< codegen class of those units
  bool tuned_geometry = true;  ///< launch geometry hand-tuned (CUDA) or not
  /// Access-pattern inefficiency (>= 1): branch divergence and uncoalesced
  /// access multiply the achieved time (paper §III cites divergence as the
  /// reason to keep boundary updates off the branchy path).
  double efficiency_factor = 1.0;

  /// Multiplies element-proportional work by `n` (e.g. inner repeat loops).
  KernelProfile repeated(double n) const {
    KernelProfile p = *this;
    p.flops_per_element *= n;
    p.math_units_per_element *= n;
    return p;
  }

  /// Returns the profile restricted to `n` elements.
  KernelProfile with_elements(std::uint64_t n) const {
    KernelProfile p = *this;
    p.elements = n;
    return p;
  }

  /// Total device-memory bytes this launch moves.
  double total_bytes() const {
    return dev_bytes_per_element * static_cast<double>(elements);
  }

  /// Total flop count including transcendental flop-equivalents.
  double total_flops(const DeviceConfig& cfg) const {
    const double plain = flops_per_element * static_cast<double>(elements);
    const double transcendental =
        math_units_per_element * static_cast<double>(elements) *
        cfg.math_unit_flops * cfg.math_factor(math);
    return plain + transcendental;
  }

  /// Simulated execution duration (excludes launch latency, which the
  /// platform adds depending on who dispatches: CUDA or OpenACC runtime).
  SimTime duration_ns(const DeviceConfig& cfg) const;

  /// Host time of the same loop run serially on the CPU (the GPU-disabled
  /// tile path): roofline against host_mem_gbps and host_dp_gflops. Launch
  /// geometry and the device efficiency factor do not apply.
  SimTime host_duration_ns(const DeviceConfig& cfg) const;
};

}  // namespace tidacc::sim

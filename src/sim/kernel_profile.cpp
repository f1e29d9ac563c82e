#include "sim/kernel_profile.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace tidacc::sim {

SimTime KernelProfile::duration_ns(const DeviceConfig& cfg) const {
  TIDACC_CHECK_MSG(math_units_per_element == 0.0 || math != MathClass::kNone,
                   "kernel uses math units but has no MathClass");
  const SimTime mem_ns = transfer_time_ns(
      static_cast<std::uint64_t>(std::llround(total_bytes())),
      cfg.device_mem_gbps);
  const SimTime flop_ns = compute_time_ns(total_flops(cfg), cfg.dp_tflops);
  TIDACC_CHECK_MSG(efficiency_factor >= 1.0,
                   "efficiency_factor models a penalty; must be >= 1");
  const double geometry =
      tuned_geometry ? 1.0 : cfg.untuned_geometry_factor;
  const double ns = static_cast<double>(std::max(mem_ns, flop_ns)) *
                    geometry * efficiency_factor;
  return static_cast<SimTime>(std::llround(ns));
}

SimTime KernelProfile::host_duration_ns(const DeviceConfig& cfg) const {
  const double n = static_cast<double>(elements);
  const SimTime mem = transfer_time_ns(
      static_cast<std::uint64_t>(n * dev_bytes_per_element),
      cfg.host_mem_gbps);
  const double math_flops = math_units_per_element * cfg.math_unit_flops *
                            cfg.math_factor(math);
  const SimTime flop = compute_time_ns(n * (flops_per_element + math_flops),
                                       cfg.host_dp_gflops / 1000.0);
  return std::max(mem, flop);
}

}  // namespace tidacc::sim

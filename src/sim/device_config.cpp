#include "sim/device_config.hpp"

#include <sstream>

#include "common/error.hpp"

namespace tidacc::sim {

const char* to_string(MathClass m) {
  switch (m) {
    case MathClass::kNone:
      return "none";
    case MathClass::kNvccPrecise:
      return "nvcc-precise";
    case MathClass::kPgiDefault:
      return "pgi";
    case MathClass::kNvccFastMath:
      return "nvcc-fastmath";
  }
  return "?";
}

const char* to_string(PayloadKind k) {
  switch (k) {
    case PayloadKind::kInterior:
      return "interior";
    case PayloadKind::kFaceShell:
      return "face-shell";
    case PayloadKind::kGhostRefresh:
      return "ghost-refresh";
  }
  return "?";
}

double CodecConfig::ratio(PayloadKind k) const {
  double r = 1.0;
  switch (k) {
    case PayloadKind::kInterior:
      r = interior_ratio;
      break;
    case PayloadKind::kFaceShell:
      r = face_ratio;
      break;
    case PayloadKind::kGhostRefresh:
      r = ghost_ratio;
      break;
  }
  TIDACC_CHECK_MSG(r >= 1.0, "codec ratio below 1 would inflate the wire");
  return r;
}

std::uint64_t CodecConfig::wire_bytes(std::uint64_t logical,
                                      PayloadKind k) const {
  if (logical == 0) {
    return 0;
  }
  const double r = ratio(k);
  const double w = static_cast<double>(logical) / r;
  std::uint64_t wire = static_cast<std::uint64_t>(w);
  if (static_cast<double>(wire) < w) {
    ++wire;  // round up: a partial wire byte still crosses the link
  }
  if (wire == 0) {
    wire = 1;
  }
  return wire < logical ? wire : logical;
}

SimTime CodecConfig::codec_time_ns(std::uint64_t logical) const {
  return 2 * launch_ns + transfer_time_ns(logical, encode_gbps) +
         transfer_time_ns(logical, decode_gbps);
}

std::string CodecConfig::summary() const {
  if (!available) {
    return "codec: none";
  }
  std::ostringstream os;
  os << "codec: enc " << encode_gbps << " GB/s, dec " << decode_gbps
     << " GB/s, launch " << format_time(launch_ns) << ", ratio "
     << interior_ratio << "/" << face_ratio << "/" << ghost_ratio
     << " (interior/face/ghost)";
  return os.str();
}

double DeviceConfig::math_factor(MathClass m) const {
  switch (m) {
    case MathClass::kNone:
      return 0.0;
    case MathClass::kNvccPrecise:
      return math_factor_nvcc_precise;
    case MathClass::kPgiDefault:
      return math_factor_pgi;
    case MathClass::kNvccFastMath:
      return math_factor_nvcc_fast;
  }
  return 0.0;
}

SimTime DeviceConfig::memcpy3d_overhead_ns(std::uint64_t bytes,
                                           std::uint64_t chunks) const {
  if (chunks <= 1) {
    return 0;
  }
  const SimTime strided = static_cast<SimTime>(chunks) * memcpy3d_chunk_ns;
  const SimTime packed =
      memcpy3d_pack_ns + 2 * transfer_time_ns(bytes, device_mem_gbps);
  return strided < packed ? strided : packed;
}

SimTime DeviceConfig::host_copy_ns(std::uint64_t bytes) const {
  return transfer_time_ns(bytes, host_copy_gbps);
}

std::uint64_t DeviceConfig::usable_memory() const {
  TIDACC_CHECK_MSG(memory_bytes > reserved_bytes,
                   "device memory smaller than runtime reservation");
  return memory_bytes - reserved_bytes;
}

DeviceConfig DeviceConfig::k40m() { return DeviceConfig{}; }

DeviceConfig DeviceConfig::k40m_limited(std::uint64_t usable_bytes) {
  DeviceConfig cfg;
  cfg.name = "K40m-class (simulated, limited memory)";
  cfg.memory_bytes = usable_bytes + cfg.reserved_bytes;
  return cfg;
}

namespace {

/// Index into a row-major per-pair table, -1 when absent or zero.
template <typename V>
auto pair_lookup(const V& table, int src, int dst, int n) ->
    typename V::value_type {
  const std::size_t idx =
      static_cast<std::size_t>(src) * static_cast<std::size_t>(n) +
      static_cast<std::size_t>(dst);
  if (idx < table.size() && table[idx] > 0) {
    return table[idx];
  }
  return 0;
}

}  // namespace

double Interconnect::gbps(int src, int dst, int num_devices) const {
  TIDACC_CHECK_MSG(src >= 0 && src < num_devices && dst >= 0 &&
                       dst < num_devices,
                   "interconnect query outside device range");
  const double override_gbps = pair_lookup(pair_gbps, src, dst, num_devices);
  return override_gbps > 0.0 ? override_gbps : peer_gbps;
}

SimTime Interconnect::latency(int src, int dst, int num_devices) const {
  TIDACC_CHECK_MSG(src >= 0 && src < num_devices && dst >= 0 &&
                       dst < num_devices,
                   "interconnect query outside device range");
  const SimTime override_ns =
      pair_lookup(pair_latency_ns, src, dst, num_devices);
  return override_ns > 0 ? override_ns : peer_latency_ns;
}

void Interconnect::apply_host_link(DeviceConfig& cfg) const {
  cfg.pinned_h2d_gbps *= host_link_scale;
  cfg.pinned_d2h_gbps *= host_link_scale;
  cfg.pageable_h2d_gbps *= host_link_scale;
  cfg.pageable_d2h_gbps *= host_link_scale;
}

std::string Interconnect::summary() const {
  std::ostringstream os;
  os << name << ": ";
  if (peer_supported) {
    os << "P2P " << peer_gbps << " GB/s, setup "
       << format_time(peer_latency_ns);
  } else {
    os << "no P2P (host-staged peer copies)";
  }
  os << ", host links x" << host_link_scale;
  return os.str();
}

Interconnect Interconnect::pcie() {
  Interconnect ic;
  ic.name = "pcie-gen3";
  ic.peer_supported = false;
  ic.host_link_scale = 1.0;
  return ic;
}

Interconnect Interconnect::pcie4() {
  Interconnect ic;
  ic.name = "pcie-gen4";
  ic.peer_supported = false;
  ic.host_link_scale = 2.0;
  return ic;
}

Interconnect Interconnect::nvlink() {
  Interconnect ic;
  ic.name = "nvlink";
  ic.peer_supported = true;
  ic.peer_gbps = 52.5;
  ic.peer_latency_ns = 1500;
  ic.host_link_scale = 5.0;
  return ic;
}

Interconnect Interconnect::custom(double gbps) {
  TIDACC_CHECK_MSG(gbps > 0.0, "custom interconnect needs a positive GB/s");
  Interconnect ic;
  std::ostringstream os;
  os << "custom-" << gbps << "GBs";
  ic.name = os.str();
  ic.peer_supported = true;
  ic.peer_gbps = gbps;
  ic.peer_latency_ns = 2 * kMicrosecond;
  // Host links scale with the fabric, relative to the Gen3 pinned baseline.
  ic.host_link_scale = gbps / DeviceConfig{}.pinned_h2d_gbps;
  return ic;
}

Interconnect Interconnect::parse(const std::string& flag) {
  if (flag == "pcie" || flag == "pcie3" || flag == "pcie-gen3") {
    return pcie();
  }
  if (flag == "pcie4" || flag == "pcie-gen4") {
    return pcie4();
  }
  if (flag == "nvlink") {
    return nvlink();
  }
  std::size_t used = 0;
  double gbps = 0.0;
  try {
    gbps = std::stod(flag, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  TIDACC_CHECK_MSG(used == flag.size() && gbps > 0.0,
                   "--interconnect expects pcie|pcie4|nvlink or GB/s, got '" +
                       flag + "'");
  return custom(gbps);
}

std::vector<Interconnect> Interconnect::sweep_presets() {
  return {pcie(), pcie4(), nvlink()};
}

std::string DeviceConfig::summary() const {
  std::ostringstream os;
  os << name << ": mem=" << format_bytes(usable_memory())
     << " usable, PCIe pinned " << pinned_h2d_gbps << "/" << pinned_d2h_gbps
     << " GB/s, pageable " << pageable_h2d_gbps << "/" << pageable_d2h_gbps
     << " GB/s, devmem " << device_mem_gbps << " GB/s, " << dp_tflops
     << " TF/s DP, " << copy_engines << " copy engine(s)";
  return os.str();
}

}  // namespace tidacc::sim

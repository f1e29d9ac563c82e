#include "net/fabric_config.hpp"

#include <cstdlib>
#include <sstream>

#include "common/error.hpp"

namespace tidacc::sim {

double FabricConfig::path_gbps(bool gpudirect_path) const {
  return gpudirect_path ? link_gbps * gpudirect_efficiency : link_gbps;
}

SimTime FabricConfig::wr_ns(OpKind kind, std::uint64_t bytes,
                            std::uint64_t wire_bytes,
                            bool gpudirect_path) const {
  const int hops = kind == OpKind::kRdmaRead ? 2 : 1;
  const bool compressed = wire_bytes > 0;
  SimTime codec_ns = 0;
  if (compressed) {
    TIDACC_CHECK_MSG(codec.available,
                     "fabric: compressed work request on a codec-less "
                     "fabric (FabricConfig::codec.available is false)");
    TIDACC_CHECK_MSG(wire_bytes <= bytes,
                     "fabric: wire_bytes above the logical payload");
    codec_ns = codec.codec_time_ns(bytes);
  }
  const std::uint64_t link_bytes = compressed ? wire_bytes : bytes;
  return hops * link_latency_ns + completion_ns + codec_ns +
         transfer_time_ns(link_bytes, path_gbps(gpudirect_path));
}

std::string FabricConfig::summary() const {
  std::ostringstream os;
  os << name << ": " << link_gbps << " GB/s/dir, "
     << format_time(link_latency_ns) << " latency";
  if (gpudirect) {
    os << ", GPUDirect @" << path_gbps(true) << " GB/s";
  } else {
    os << ", host-staged only";
  }
  return os.str();
}

FabricConfig FabricConfig::ethernet() {
  FabricConfig f;
  f.name = "ethernet";
  f.link_gbps = 11.5;
  f.link_latency_ns = 6 * kMicrosecond;
  f.post_wr_ns = 1500;
  f.completion_ns = 2000;
  f.gpudirect = false;
  return f;
}

FabricConfig FabricConfig::infiniband() {
  FabricConfig f;
  f.name = "infiniband";
  f.link_gbps = 25.0;
  f.link_latency_ns = 1300;
  f.post_wr_ns = 600;
  f.completion_ns = 900;
  f.gpudirect = true;
  f.gpudirect_efficiency = 0.92;
  return f;
}

FabricConfig FabricConfig::custom(double gbps) {
  TIDACC_CHECK_MSG(gbps > 0.0, "fabric bandwidth must be positive");
  FabricConfig f;
  std::ostringstream os;
  os << "fabric-" << gbps << "GBps";
  f.name = os.str();
  f.link_gbps = gbps;
  f.link_latency_ns = 2 * kMicrosecond;
  f.gpudirect = true;
  return f;
}

FabricConfig FabricConfig::parse(const std::string& flag) {
  if (flag == "ethernet") {
    return ethernet();
  }
  if (flag == "infiniband") {
    return infiniband();
  }
  char* end = nullptr;
  const double gbps = std::strtod(flag.c_str(), &end);
  TIDACC_CHECK_MSG(end != nullptr && *end == '\0' && gbps > 0.0,
                   "--fabric expects 'ethernet', 'infiniband' or GB/s, got '" +
                       flag + "'");
  return custom(gbps);
}

std::vector<FabricConfig> FabricConfig::sweep_presets() {
  return {ethernet(), infiniband()};
}

}  // namespace tidacc::sim

#include "sim/trace.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>

#include "common/error.hpp"

namespace tidacc::sim {

const char* to_string(EngineId e) {
  switch (e) {
    case EngineId::kCompute:
      return "compute";
    case EngineId::kCopyH2D:
      return "copy-h2d";
    case EngineId::kCopyD2H:
      return "copy-d2h";
    case EngineId::kNic:
      return "nic";
  }
  return "?";
}

const char* to_string(OpKind k) {
  switch (k) {
    case OpKind::kKernel:
      return "kernel";
    case OpKind::kCopyH2D:
      return "H2D";
    case OpKind::kCopyD2H:
      return "D2H";
    case OpKind::kCopyD2D:
      return "D2D";
    case OpKind::kEventRecord:
      return "event";
    case OpKind::kUvmMigration:
      return "uvm";
    case OpKind::kPrefetchH2D:
      return "prefetchH2D";
    case OpKind::kCopyP2P:
      return "P2P";
    case OpKind::kMemcpy3DH2D:
      return "3D-H2D";
    case OpKind::kMemcpy3DD2H:
      return "3D-D2H";
    case OpKind::kNetSend:
      return "net-send";
    case OpKind::kRdmaRead:
      return "rdma-read";
    case OpKind::kRdmaWrite:
      return "rdma-write";
    case OpKind::kMemcpyH2DCompressed:
      return "zH2D";
    case OpKind::kMemcpyD2HCompressed:
      return "zD2H";
    case OpKind::kMemcpy3DH2DCompressed:
      return "z3D-H2D";
    case OpKind::kMemcpy3DD2HCompressed:
      return "z3D-D2H";
  }
  return "?";
}

bool is_compressed(OpKind k) {
  switch (k) {
    case OpKind::kMemcpyH2DCompressed:
    case OpKind::kMemcpyD2HCompressed:
    case OpKind::kMemcpy3DH2DCompressed:
    case OpKind::kMemcpy3DD2HCompressed:
      return true;
    default:
      return false;
  }
}

bool is_transfer(OpKind k) {
  // Default-less on purpose: adding an OpKind without classifying it here
  // is a compile error under -Wswitch (see kNumOpKinds).
  switch (k) {
    case OpKind::kKernel:
    case OpKind::kEventRecord:
      return false;
    case OpKind::kCopyH2D:
    case OpKind::kCopyD2H:
    case OpKind::kCopyD2D:
    case OpKind::kUvmMigration:
    case OpKind::kPrefetchH2D:
    case OpKind::kCopyP2P:
    case OpKind::kMemcpy3DH2D:
    case OpKind::kMemcpy3DD2H:
    case OpKind::kNetSend:
    case OpKind::kRdmaRead:
    case OpKind::kRdmaWrite:
    case OpKind::kMemcpyH2DCompressed:
    case OpKind::kMemcpyD2HCompressed:
    case OpKind::kMemcpy3DH2DCompressed:
    case OpKind::kMemcpy3DD2HCompressed:
      return true;
  }
  return false;
}

void Trace::add(TraceEvent ev) {
  note(ev.kind, ev.start, ev.finish, ev.bytes, ev.wire_bytes);
  if (recording_) {
    events_.push_back(std::move(ev));
  }
}

void Trace::note(OpKind kind, SimTime start, SimTime finish,
                 std::uint64_t bytes, std::uint64_t wire_bytes) {
  TIDACC_CHECK(finish >= start);
  const SimTime busy = finish - start;
  switch (kind) {
    case OpKind::kKernel:
      ++stats_.num_kernels;
      stats_.compute_busy += busy;
      break;
    case OpKind::kPrefetchH2D:
      stats_.prefetch_h2d_bytes += bytes;
      [[fallthrough]];
    case OpKind::kCopyH2D:
    case OpKind::kUvmMigration:
      ++stats_.num_copies;
      stats_.h2d_bytes += bytes;
      stats_.copy_busy += busy;
      break;
    case OpKind::kMemcpy3DH2D:
      ++stats_.num_copies;
      stats_.h2d_bytes += bytes;
      stats_.memcpy3d_h2d_bytes += bytes;
      stats_.copy_busy += busy;
      break;
    case OpKind::kCopyD2H:
      ++stats_.num_copies;
      stats_.d2h_bytes += bytes;
      stats_.copy_busy += busy;
      break;
    case OpKind::kMemcpy3DD2H:
      ++stats_.num_copies;
      stats_.d2h_bytes += bytes;
      stats_.memcpy3d_d2h_bytes += bytes;
      stats_.copy_busy += busy;
      break;
    case OpKind::kCopyD2D:
      ++stats_.num_copies;
      stats_.copy_busy += busy;
      break;
    case OpKind::kCopyP2P:
      ++stats_.num_copies;
      stats_.p2p_bytes += bytes;
      stats_.copy_busy += busy;
      break;
    case OpKind::kNetSend:
    case OpKind::kRdmaRead:
    case OpKind::kRdmaWrite:
      ++stats_.num_net_ops;
      stats_.net_bytes += bytes;
      stats_.nic_busy += busy;
      break;
    case OpKind::kMemcpyH2DCompressed:
    case OpKind::kMemcpy3DH2DCompressed:
      ++stats_.num_copies;
      stats_.h2d_bytes += bytes;
      stats_.comp_h2d_bytes += bytes;
      stats_.comp_h2d_wire_bytes += wire_bytes;
      if (kind == OpKind::kMemcpy3DH2DCompressed) {
        stats_.memcpy3d_h2d_bytes += bytes;
      }
      stats_.copy_busy += busy;
      break;
    case OpKind::kMemcpyD2HCompressed:
    case OpKind::kMemcpy3DD2HCompressed:
      ++stats_.num_copies;
      stats_.d2h_bytes += bytes;
      stats_.comp_d2h_bytes += bytes;
      stats_.comp_d2h_wire_bytes += wire_bytes;
      if (kind == OpKind::kMemcpy3DD2HCompressed) {
        stats_.memcpy3d_d2h_bytes += bytes;
      }
      stats_.copy_busy += busy;
      break;
    case OpKind::kEventRecord:
      break;
  }
  stats_.makespan = std::max(stats_.makespan, finish);
}

void Trace::note_warning(const std::string& message) {
  ++stats_.num_warnings;
  if (recording_) {
    warnings_.push_back(message);
  }
}

void Trace::clear() {
  events_.clear();
  warnings_.clear();
  stats_ = TraceStats{};
}

std::string Trace::render_gantt(int columns) const {
  TIDACC_CHECK(columns >= 20);
  if (events_.empty()) {
    return "(empty trace)\n";
  }

  SimTime t0 = events_.front().start;
  SimTime t1 = events_.front().finish;
  for (const TraceEvent& ev : events_) {
    t0 = std::min(t0, ev.start);
    t1 = std::max(t1, ev.finish);
  }
  const double span = std::max<double>(1.0, static_cast<double>(t1 - t0));

  // Lanes keyed by (device, stream, engine) so each stream shows its
  // transfer and compute activity on separate rows, like the paper's
  // Fig. 7, grouped per device on multi-device traces.
  std::map<std::tuple<int, int, int>, std::string> lanes;
  int max_device = 0;
  bool has_net = false;
  for (const TraceEvent& ev : events_) {
    max_device = std::max(max_device, ev.device);
    has_net = has_net || ev.engine == EngineId::kNic;
  }
  const auto lane_for = [&](int device, int stream,
                            EngineId engine) -> std::string& {
    const auto key = std::make_tuple(device, stream,
                                     static_cast<int>(engine));
    auto it = lanes.find(key);
    if (it == lanes.end()) {
      it = lanes.emplace(key, std::string(static_cast<size_t>(columns), '.'))
               .first;
    }
    return it->second;
  };
  const auto fill_char = [](OpKind k) {
    switch (k) {
      case OpKind::kKernel:
        return 'C';
      case OpKind::kCopyH2D:
        return '>';
      case OpKind::kCopyD2H:
        return '<';
      case OpKind::kCopyD2D:
        return '=';
      case OpKind::kUvmMigration:
        return 'u';
      case OpKind::kPrefetchH2D:
        return 'P';
      case OpKind::kCopyP2P:
        return '*';
      case OpKind::kMemcpy3DH2D:
        return ')';
      case OpKind::kMemcpy3DD2H:
        return '(';
      case OpKind::kNetSend:
        return 'S';
      case OpKind::kRdmaRead:
        return 'R';
      case OpKind::kRdmaWrite:
        return 'W';
      case OpKind::kMemcpyH2DCompressed:
        return 'z';
      case OpKind::kMemcpyD2HCompressed:
        return 'Z';
      case OpKind::kMemcpy3DH2DCompressed:
        return 'y';
      case OpKind::kMemcpy3DD2HCompressed:
        return 'Y';
      case OpKind::kEventRecord:
        return '|';
    }
    return '?';
  };

  for (const TraceEvent& ev : events_) {
    if (ev.kind == OpKind::kEventRecord) {
      continue;
    }
    std::string& lane = lane_for(ev.device, ev.stream, ev.engine);
    const auto col = [&](SimTime t) {
      const double frac = static_cast<double>(t - t0) / span;
      return std::min(columns - 1,
                      static_cast<int>(frac * static_cast<double>(columns)));
    };
    const int c0 = col(ev.start);
    const int c1 = std::max(c0, col(ev.finish));
    for (int c = c0; c <= c1; ++c) {
      lane[static_cast<size_t>(c)] = fill_char(ev.kind);
    }
  }

  std::ostringstream os;
  os << "time: " << format_time(t0) << " .. " << format_time(t1)
     << "   ('>' H2D, 'P' prefetch H2D, '<' D2H, ')'/'(' pitched 3D "
        "H2D/D2H, 'C' kernel, '=' D2D, 'u' UVM";
  if (max_device > 0) {
    os << ", '*' P2P";
  }
  if (has_net) {
    os << ", 'S'/'R'/'W' net send/RDMA read/write";
  }
  os << ")\n";
  for (const auto& [key, lane] : lanes) {
    const auto [device, stream, engine] = key;
    if (max_device > 0) {
      os << "d" << device << "/";
    }
    os << "s" << stream << "/" << to_string(static_cast<EngineId>(engine))
       << "  ";
    // pad engine names to equal width
    const std::string tag = to_string(static_cast<EngineId>(engine));
    for (size_t i = tag.size(); i < 8; ++i) {
      os << ' ';
    }
    os << '[' << lane << "]\n";
  }
  return os.str();
}

double Trace::compute_utilization() const {
  SimTime first_start = ~SimTime{0};
  SimTime last_finish = 0;
  SimTime busy = 0;
  for (const TraceEvent& ev : events_) {
    if (ev.kind != OpKind::kKernel) {
      continue;
    }
    first_start = std::min(first_start, ev.start);
    last_finish = std::max(last_finish, ev.finish);
    busy += ev.finish - ev.start;
  }
  if (last_finish <= first_start) {
    return 0.0;
  }
  return static_cast<double>(busy) /
         static_cast<double>(last_finish - first_start);
}

std::string Trace::to_chrome_json() const {
  std::ostringstream os;
  os << "[\n";
  bool first = true;
  for (const TraceEvent& ev : events_) {
    if (ev.kind == OpKind::kEventRecord) {
      continue;
    }
    if (!first) {
      os << ",\n";
    }
    first = false;
    // Durations in microseconds (chrome tracing convention).
    os << "  {\"name\": \"" << (ev.label.empty() ? to_string(ev.kind)
                                                 : ev.label)
       << "\", \"cat\": \"" << to_string(ev.kind) << "\", \"ph\": \"X\""
       << ", \"ts\": " << static_cast<double>(ev.start) / 1e3
       << ", \"dur\": " << static_cast<double>(ev.finish - ev.start) / 1e3
       << ", \"pid\": " << ev.device
       << ", \"tid\": " << static_cast<int>(ev.engine)
       << ", \"args\": {\"stream\": " << ev.stream
       << ", \"bytes\": " << ev.bytes << "}}";
  }
  os << "\n]\n";
  return os.str();
}

}  // namespace tidacc::sim

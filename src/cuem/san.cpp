// cuem::san implementation: shadow allocation map, interval/box access
// history, happens-before race engine, and JSON reporting. See san.hpp for
// the model overview. Everything here is shadow bookkeeping — no call in
// this file advances the platform's virtual clock.
#include "cuem/san.hpp"

#ifdef TIDACC_CUEM_SANITIZER

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "sim/platform.hpp"
#include "sim/snapshot.hpp"

namespace tidacc::cuem::san {
namespace {

/// Cap on retired (freed) allocations kept for use-after-free diagnosis.
constexpr std::size_t kMaxTombstones = 256;
/// Cap on retained access records per allocation after pruning; beyond it
/// the oldest half is dropped (documented soundness bound — in practice
/// sync points prune long before this).
constexpr std::size_t kMaxAccessesPerAlloc = 1024;

struct AccessRecord {
  sim::HbClock clock;       ///< vector clock of the access
  sim::ByteBox box;         ///< footprint, offset relative to the base
  bool write = false;
  int owner = -1;           ///< stream id, -1 = host
  std::string op;
  SimTime t_start = 0;
  SimTime t_finish = 0;

  template <typename Ar>
  void fields(Ar& ar) {
    ar(clock, box, write, owner, op, t_start, t_finish);
  }
};

struct ShadowAlloc {
  Allocation info;
  std::string label;
  std::vector<AccessRecord> accesses;

  template <typename Ar>
  void fields(Ar& ar) {
    ar(info, label, accesses);
  }
};

struct State {
  Options opts;
  std::map<std::uintptr_t, ShadowAlloc> allocs;  ///< keyed by base
  std::deque<Allocation> tombstones;
  std::vector<Finding> findings;
  std::size_t counts[3] = {0, 0, 0};  ///< indexed by Severity
  std::set<std::string> dedupe;
  std::uint64_t world_gen = ~0ull;  ///< platform generation shadowed

  // Coalescing key for consecutive identical host-access notes (at()-style
  // element loops): skip the note when nothing enqueued since the last one.
  std::uintptr_t last_host_base = 0;
  bool last_host_write = false;
  std::uint64_t last_host_comp = ~0ull;

  State() {
    if (const char* e = std::getenv("TIDACC_CUEM_SAN")) {
      const std::string v(e);
      if (v == "0" || v == "off" || v == "false") {
        opts.enabled = false;
      } else {
        opts.enabled = true;
        if (v == "fatal") opts.fatal = true;
      }
    }
    if (const char* j = std::getenv("TIDACC_CUEM_SAN_JSON")) {
      opts.json_path = j;
    }
  }
};

State& state() {
  static State st;
  return st;
}

sim::Platform& platform() { return sim::Platform::instance(); }

/// Re-syncs shadow state with the live platform: wipes stale pointers after
/// a runtime reset and (re-)arms happens-before tracking.
void ensure_world(State& st) {
  const std::uint64_t gen = sim::Platform::generation();
  if (st.world_gen != gen) {
    st.allocs.clear();
    st.tombstones.clear();
    st.last_host_comp = ~0ull;
    st.world_gen = gen;
  }
  if (st.opts.enabled && st.opts.racecheck) {
    auto& p = platform();
    if (!p.hb_tracking()) p.set_hb_tracking(true);
  }
}

ShadowAlloc* find_shadow(State& st, const void* p) {
  if (!p || st.allocs.empty()) return nullptr;
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  auto it = st.allocs.upper_bound(addr);
  if (it == st.allocs.begin()) return nullptr;
  --it;
  ShadowAlloc& sa = it->second;
  if (addr < sa.info.base || addr >= sa.info.base + sa.info.size) {
    return nullptr;
  }
  return &sa;
}

const Allocation* find_tombstone(const State& st, const void* p) {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  for (const Allocation& t : st.tombstones) {
    if (addr >= t.base && addr < t.base + t.size) return &t;
  }
  return nullptr;
}


std::string hex(std::uintptr_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

std::string name_of(const ShadowAlloc& sa) {
  return sa.label.empty() ? hex(sa.info.base) : sa.label;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string render_json(const State& st) {
  std::ostringstream os;
  os << "{\n  \"sanitizer\": \"cuem-san\",\n";
  os << "  \"errors\": " << st.counts[2] << ",\n";
  os << "  \"warnings\": " << st.counts[1] << ",\n";
  os << "  \"infos\": " << st.counts[0] << ",\n";
  os << "  \"findings\": [";
  bool first = true;
  for (const Finding& f : st.findings) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"kind\": \"" << to_string(f.kind) << "\", \"severity\": \""
       << to_string(f.severity) << "\", \"op\": \"" << json_escape(f.op)
       << "\", \"allocation\": \"" << json_escape(f.allocation)
       << "\", \"base\": \"" << hex(f.base) << "\", \"offset\": " << f.offset
       << ", \"bytes\": " << f.bytes << ", \"stream_a\": " << f.stream_a
       << ", \"stream_b\": " << f.stream_b << ", \"device\": " << f.device
       << ", \"time_start\": " << f.time_start << ", \"time_finish\": "
       << f.time_finish << ", \"message\": \"" << json_escape(f.message)
       << "\"}";
  }
  os << (first ? "]" : "\n  ]") << "\n}\n";
  return os.str();
}

bool dump_report(const State& st, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << render_json(st);
  return static_cast<bool>(out);
}

/// Appends `f` unless an identical situation was already reported. Fatal
/// mode aborts (throws tidacc::Error) on errors only.
void record(State& st, Finding f, const std::string& dedupe_key) {
  if (!st.dedupe.insert(dedupe_key).second) return;
  st.counts[static_cast<int>(f.severity)]++;
  const std::string message = f.message;
  const bool is_error = f.severity == Severity::kError;
  if (st.findings.size() < st.opts.max_findings) {
    st.findings.push_back(std::move(f));
  }
  if (!st.opts.json_path.empty()) dump_report(st, st.opts.json_path);
  if (st.opts.fatal && is_error) {
    TIDACC_FAIL("cuem-sanitizer: " + message);
  }
}

/// Overlap summary of two footprints' spans, for the report.
std::pair<std::size_t, std::size_t> overlap_span(const sim::ByteBox& a,
                                                 const sim::ByteBox& b) {
  const std::size_t lo = std::max(a.offset, b.offset);
  const std::size_t hi = std::min(sim::box_end(a), sim::box_end(b));
  return {lo, hi > lo ? hi - lo : 0};
}

// --- race engine ---------------------------------------------------------

const char* timeline_name(int owner) { return owner < 0 ? "host" : "stream"; }

std::string describe_timeline(int owner) {
  if (owner < 0) return "host";
  return "stream " + std::to_string(owner);
}

void report_race(State& st, const ShadowAlloc& sa, const AccessRecord& old_r,
                 const AccessRecord& new_r) {
  const auto [off, bytes] = overlap_span(old_r.box, new_r.box);
  Finding f;
  f.kind = FindingKind::kRace;
  f.severity = Severity::kError;
  f.op = new_r.op;
  f.allocation = name_of(sa);
  f.base = sa.info.base;
  f.offset = off;
  f.bytes = bytes;
  f.stream_a = old_r.owner;
  f.stream_b = new_r.owner;
  f.device = sa.info.device;
  f.time_start = static_cast<std::uint64_t>(new_r.t_start);
  f.time_finish = static_cast<std::uint64_t>(new_r.t_finish);
  std::ostringstream msg;
  msg << "unsynchronized " << (old_r.write ? "write" : "read") << "/"
      << (new_r.write ? "write" : "read") << " overlap on " << f.allocation
      << " [" << off << ", " << off + bytes << "): " << old_r.op << " ("
      << describe_timeline(old_r.owner) << ") vs " << new_r.op << " ("
      << describe_timeline(new_r.owner) << ")";
  f.message = msg.str();
  std::ostringstream key;
  key << "race|" << sa.info.base << "|" << timeline_name(old_r.owner)
      << old_r.owner << "|" << timeline_name(new_r.owner) << new_r.owner
      << "|" << old_r.op << "|" << new_r.op;
  record(st, std::move(f), key.str());
}

/// Drops records that happened-before the host's current clock: every
/// future access (host or op) carries a clock >= the host clock at its
/// creation, and host components only grow, so such records can never race
/// again.
void prune(ShadowAlloc& sa) {
  const sim::HbClock& host = platform().hb_host_clock();
  auto& v = sa.accesses;
  v.erase(std::remove_if(v.begin(), v.end(),
                         [&](const AccessRecord& r) {
                           return sim::hb_leq(r.clock, host);
                         }),
          v.end());
  if (v.size() > kMaxAccessesPerAlloc) {
    v.erase(v.begin(),
            v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2));
  }
}

/// Race-checks `rec` against the allocation's history, then appends it.
void add_access(State& st, ShadowAlloc& sa, AccessRecord rec) {
  prune(sa);
  for (const AccessRecord& old_r : sa.accesses) {
    if (old_r.owner == rec.owner) continue;        // same timeline: ordered
    if (!old_r.write && !rec.write) continue;      // read/read is benign
    if (sim::hb_leq(old_r.clock, rec.clock)) continue;
    if (sim::hb_leq(rec.clock, old_r.clock)) continue;
    if (!sim::boxes_overlap(old_r.box, rec.box)) continue;
    report_race(st, sa, old_r, rec);
  }
  sa.accesses.push_back(std::move(rec));
}

/// Race-checks without recording (used by on_free: the allocation is going
/// away, but freeing memory an async op still touches is itself a race).
void check_only(State& st, ShadowAlloc& sa, const AccessRecord& rec) {
  prune(sa);
  for (const AccessRecord& old_r : sa.accesses) {
    if (old_r.owner == rec.owner) continue;
    if (sim::hb_leq(old_r.clock, rec.clock)) continue;
    if (sim::hb_leq(rec.clock, old_r.clock)) continue;
    if (!sim::boxes_overlap(old_r.box, rec.box)) continue;
    report_race(st, sa, old_r, rec);
  }
}

}  // namespace

// --- public API ----------------------------------------------------------

void configure(const Options& opts) {
  State& st = state();
  st.opts = opts;
  st.findings.clear();
  st.counts[0] = st.counts[1] = st.counts[2] = 0;
  st.dedupe.clear();
  st.allocs.clear();
  st.tombstones.clear();
  st.last_host_comp = ~0ull;
  st.world_gen = sim::Platform::generation();
  platform().set_hb_tracking(opts.enabled && opts.racecheck);
}

void clear_findings() {
  State& st = state();
  st.findings.clear();
  st.counts[0] = st.counts[1] = st.counts[2] = 0;
  st.dedupe.clear();
  st.last_host_comp = ~0ull;
  for (auto& [base, sa] : st.allocs) {
    (void)base;
    sa.accesses.clear();
  }
}

bool enabled() { return state().opts.enabled; }

const Options& options() { return state().opts; }

void set_fatal(bool fatal) { state().opts.fatal = fatal; }

const std::vector<Finding>& findings() { return state().findings; }

std::size_t count(Severity s) {
  return state().counts[static_cast<int>(s)];
}

bool clean() {
  const State& st = state();
  return st.counts[1] == 0 && st.counts[2] == 0;
}

std::string report_json() { return render_json(state()); }

bool write_report(const std::string& path) {
  return dump_report(state(), path);
}

void annotate(const void* ptr, std::string label) {
  State& st = state();
  if (!st.opts.enabled) return;
  ensure_world(st);
  if (ShadowAlloc* sa = find_shadow(st, ptr)) {
    sa->label = std::move(label);
  }
}

void record_access(int stream, const void* ptr, const sim::ByteBox& box,
                   bool write, const char* op) {
  State& st = state();
  if (!st.opts.enabled || !st.opts.racecheck) return;
  ensure_world(st);
  ShadowAlloc* sa = find_shadow(st, ptr);
  if (!sa) return;  // plain host memory and synthetic ranges: untracked
  auto& p = platform();
  AccessRecord rec;
  rec.box = box;
  rec.box.offset += reinterpret_cast<std::uintptr_t>(ptr) - sa->info.base;
  rec.write = write;
  rec.owner = stream;
  rec.op = op;
  if (stream >= 0) {
    // The newest op on `stream`: the claim follows its enqueue.
    rec.clock = p.hb_stream_clock(stream);
    rec.t_start = p.last_op_start();
    rec.t_finish = p.last_op_finish();
    add_access(st, *sa, std::move(rec));
    return;
  }
  // Host spans coalesce: a span claim on the buffer the last host span
  // claim named, in the same role, with nothing enqueued in between
  // (element-wise at() loops) sees exactly the same history. The host
  // component only moves on enqueues and host ticks. Boxes never coalesce
  // (the next may name another box of the buffer), and their own tick
  // makes the span claim after them count.
  const bool span = box.row_pitch == 0 && box.slice_pitch == 0;
  const sim::HbClock& host = p.hb_host_clock();
  if (span && sa->info.base == st.last_host_base &&
      write == st.last_host_write &&
      (host.empty() ? 0 : host[0]) == st.last_host_comp) {
    return;
  }
  p.hb_tick_host();
  rec.clock = p.hb_host_clock();
  rec.t_start = p.now();
  rec.t_finish = p.now();
  add_access(st, *sa, std::move(rec));
  if (span) {
    st.last_host_base = sa->info.base;
    st.last_host_write = write;
    st.last_host_comp = host.empty() ? 0 : host[0];
  }
}

// --- hooks ---------------------------------------------------------------

namespace hook {

void on_configure() {
  State& st = state();
  if (!st.opts.enabled) return;
  ensure_world(st);
}

void on_alloc(const Allocation& alloc) {
  State& st = state();
  if (!st.opts.enabled) return;
  ensure_world(st);
  // Recycled addresses invalidate any tombstone they land on.
  const std::uintptr_t lo = alloc.base;
  const std::uintptr_t hi = alloc.base + alloc.size;
  auto& ts = st.tombstones;
  ts.erase(std::remove_if(ts.begin(), ts.end(),
                          [&](const Allocation& t) {
                            return t.base < hi && lo < t.base + t.size;
                          }),
           ts.end());
  ShadowAlloc sa;
  sa.info = alloc;
  st.allocs[alloc.base] = std::move(sa);
}

void on_free(const void* ptr, bool ok, const char* op) {
  State& st = state();
  if (!st.opts.enabled) return;
  ensure_world(st);
  if (!ok) {
    if (!st.opts.memcheck || !ptr) return;
    const Allocation* t = find_tombstone(st, ptr);
    Finding f;
    f.kind = t ? FindingKind::kDoubleFree : FindingKind::kInvalidFree;
    f.severity = Severity::kError;
    f.op = op;
    f.base = reinterpret_cast<std::uintptr_t>(ptr);
    f.allocation = hex(f.base);
    if (t) f.device = t->device;
    f.time_start = f.time_finish =
        static_cast<std::uint64_t>(platform().now());
    f.message = std::string(op) + ": " +
                (t ? "double free of " : "free of unknown pointer ") +
                f.allocation;
    const std::string key =
        std::string(to_string(f.kind)) + "|" + hex(f.base);
    record(st, std::move(f), key);
    return;
  }
  const auto addr = reinterpret_cast<std::uintptr_t>(ptr);
  auto it = st.allocs.find(addr);
  if (it == st.allocs.end()) return;
  ShadowAlloc& sa = it->second;
  if (st.opts.racecheck) {
    // Freeing memory an in-flight async op still reads/writes is a race.
    auto& p = platform();
    p.hb_tick_host();
    AccessRecord rec;
    rec.clock = p.hb_host_clock();
    rec.box = sim::ByteBox::span(0, sa.info.size);
    rec.write = true;
    rec.owner = -1;
    rec.op = op;
    rec.t_start = rec.t_finish = p.now();
    check_only(st, sa, rec);
  }
  st.tombstones.push_back(sa.info);
  if (st.tombstones.size() > kMaxTombstones) st.tombstones.pop_front();
  st.allocs.erase(it);
}

bool precheck_range(const void* ptr, std::size_t bytes, const char* op) {
  State& st = state();
  if (!st.opts.enabled || !st.opts.memcheck) return true;
  ensure_world(st);
  if (!ptr || bytes == 0) return true;
  const auto addr = reinterpret_cast<std::uintptr_t>(ptr);
  if (const ShadowAlloc* sa = find_shadow(st, ptr)) {
    const std::size_t offset = addr - sa->info.base;
    if (offset + bytes <= sa->info.size) return true;
    Finding f;
    f.kind = FindingKind::kOobCopy;
    f.severity = Severity::kError;
    f.op = op;
    f.allocation = name_of(*sa);
    f.base = sa->info.base;
    f.offset = offset;
    f.bytes = bytes;
    f.device = sa->info.device;
    f.time_start = f.time_finish =
        static_cast<std::uint64_t>(platform().now());
    std::ostringstream msg;
    msg << op << ": range [" << offset << ", " << offset + bytes
        << ") runs past " << f.allocation << " (size " << sa->info.size
        << ")";
    f.message = msg.str();
    std::ostringstream key;
    key << "oob|" << f.base << "|" << op;
    record(st, std::move(f), key.str());
    return false;
  }
  if (const Allocation* t = find_tombstone(st, ptr)) {
    Finding f;
    f.kind = FindingKind::kUseAfterFree;
    f.severity = Severity::kError;
    f.op = op;
    f.base = t->base;
    f.allocation = hex(t->base);
    f.offset = addr - t->base;
    f.bytes = bytes;
    f.device = t->device;
    f.time_start = f.time_finish =
        static_cast<std::uint64_t>(platform().now());
    std::ostringstream msg;
    msg << op << ": touches freed allocation " << f.allocation << " ("
        << to_string(t->space) << ", size " << t->size << ")";
    f.message = msg.str();
    std::ostringstream key;
    key << "uaf|" << f.base << "|" << op;
    record(st, std::move(f), key.str());
    return false;
  }
  return true;  // unregistered plain host memory
}

void on_pageable_async(int stream, const char* op) {
  State& st = state();
  if (!st.opts.enabled || !st.opts.memcheck) return;
  ensure_world(st);
  Finding f;
  f.kind = FindingKind::kPageableAsync;
  f.severity = Severity::kInfo;
  f.op = op;
  f.stream_a = stream;
  f.time_start = f.time_finish = static_cast<std::uint64_t>(platform().now());
  f.message = std::string(op) +
              ": async copy through pageable host memory degrades to a "
              "host-blocking staged transfer";
  record(st, std::move(f), std::string("pageable|") + op);
}

void on_peer_staged(int src_device, int dst_device, const char* op) {
  State& st = state();
  if (!st.opts.enabled || !st.opts.memcheck) return;
  ensure_world(st);
  Finding f;
  f.kind = FindingKind::kPeerStaged;
  f.severity = Severity::kInfo;
  f.op = op;
  f.stream_a = src_device;
  f.stream_b = dst_device;
  f.time_start = f.time_finish = static_cast<std::uint64_t>(platform().now());
  std::ostringstream msg;
  msg << op << ": peer copy device " << src_device << " -> device "
      << dst_device << " staged through the host (peer access not enabled)";
  f.message = msg.str();
  std::ostringstream key;
  key << "peer|" << src_device << "|" << dst_device << "|" << op;
  record(st, std::move(f), key.str());
}

void on_stream_destroy_pending(int stream) {
  State& st = state();
  if (!st.opts.enabled) return;
  ensure_world(st);
  Finding f;
  f.kind = FindingKind::kStreamDestroyPending;
  f.severity = Severity::kWarning;
  f.op = "cuemStreamDestroy";
  f.stream_a = stream;
  f.time_start = f.time_finish = static_cast<std::uint64_t>(platform().now());
  f.message = "cuemStreamDestroy: stream " + std::to_string(stream) +
              " destroyed with work still pending (runtime drains it)";
  record(st, std::move(f), "destroy-pending|" + std::to_string(stream));
}

void on_device_reset() {
  State& st = state();
  if (!st.opts.enabled) return;
  ensure_world(st);
  if (st.opts.memcheck) {
    for (const auto& [base, sa] : st.allocs) {
      Finding f;
      f.kind = FindingKind::kLeakAllocation;
      f.severity = Severity::kWarning;
      f.op = "cuemDeviceReset";
      f.allocation = name_of(sa);
      f.base = base;
      f.bytes = sa.info.size;
      f.device = sa.info.device;
      f.time_start = f.time_finish =
          static_cast<std::uint64_t>(platform().now());
      std::ostringstream msg;
      msg << "cuemDeviceReset: leaked " << to_string(sa.info.space)
          << " allocation " << f.allocation << " (" << sa.info.size
          << " bytes)";
      f.message = msg.str();
      record(st, std::move(f), "leak-alloc|" + hex(base));
    }
    for (sim::StreamId s : platform().live_user_streams()) {
      Finding f;
      f.kind = FindingKind::kLeakStream;
      f.severity = Severity::kWarning;
      f.op = "cuemDeviceReset";
      f.stream_a = s;
      f.time_start = f.time_finish =
          static_cast<std::uint64_t>(platform().now());
      f.message =
          "cuemDeviceReset: stream " + std::to_string(s) + " never destroyed";
      record(st, std::move(f), "leak-stream|" + std::to_string(s));
    }
  }
  if (!st.opts.json_path.empty()) dump_report(st, st.opts.json_path);
}

}  // namespace hook

// --- snapshot ---

template <typename Ar>
void snapshot_fields(Ar& ar) {
  ar.section("san");
  State& st = state();
  ar(st.opts.enabled);
  if (!st.opts.enabled) {
    // An inactive section carries no state, symmetric with the
    // compiled-out stub, so snapshots interchange freely between builds.
    // Restoring one clears the shadow state so a previously-enabled checker
    // does not report against a world it never observed.
    if constexpr (Ar::kRestoring) {
      st.allocs.clear();
      st.tombstones.clear();
      st.findings.clear();
      st.counts[0] = st.counts[1] = st.counts[2] = 0;
      st.dedupe.clear();
      st.last_host_base = 0;
      st.last_host_write = false;
      st.last_host_comp = ~0ull;
      st.world_gen = sim::Platform::generation();
    }
    return;
  }
  if constexpr (!Ar::kRestoring) {
    ensure_world(st);
  }
  ar(st.opts.memcheck, st.opts.racecheck, st.opts.fatal, st.opts.max_findings,
     st.opts.json_path, st.allocs, st.tombstones, st.findings, st.counts,
     st.dedupe, st.last_host_base, st.last_host_write, st.last_host_comp);
  if constexpr (Ar::kRestoring) {
    // The generation counter is process-local; the restore target is the
    // live world, not the numeric value at capture time.
    st.world_gen = sim::Platform::generation();
    ensure_world(st);
  }
}

template void snapshot_fields(sim::SnapshotWriter&);
template void snapshot_fields(sim::SnapshotReader&);

}  // namespace tidacc::cuem::san

#endif  // TIDACC_CUEM_SANITIZER

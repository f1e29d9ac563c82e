// World snapshot/restore (core/world_snapshot.hpp): the substrate under the
// schedule fuzzer. Three properties matter and are tested here:
//   1. capture → restore → capture is bit-identical (the fuzzer's cache of
//      one buffer per world config depends on this);
//   2. a restored world replays the exact golden trace — same events, same
//      byte accounting, same makespan — as the original run;
//   3. restore refuses to cross the sanitizer build boundary with a clear
//      error instead of fabricating or dropping shadow state;
//   4. the byte format is pinned, and restore rejects a snapshot of an
//      array that differs from the live one, naming what differs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/acc_tile_array.hpp"
#include "core/cluster_tile_array.hpp"
#include "core/compute.hpp"
#include "core/world_snapshot.hpp"
#include "cuem/cuem.hpp"
#include "cuem/san.hpp"
#include "oacc/oacc.hpp"
#include "sim/platform.hpp"
#include "sim/snapshot.hpp"
#include "snapshot_probe.hpp"

namespace {

using namespace tidacc;
using core::AccTile;
using core::AccTileArray;

constexpr int kN = 16;
constexpr int kRegions = 4;
constexpr int kSlab = (kN + kRegions - 1) / kRegions;

oacc::LoopCost stencil_cost() {
  oacc::LoopCost c;
  c.flops_per_iter = 8.0;
  c.dev_bytes_per_iter = 5 * sizeof(double);
  return c;
}

void fresh_world(bool recording) {
  cuem::configure(sim::DeviceConfig::k40m(), /*functional=*/true);
  oacc::reset();
  cuem::platform().trace().set_recording(recording);
}

core::AccOptions limited_slots() {
  core::AccOptions o;
  o.max_slots = 3;  // under-provisioned: evictions keep the state rich
  return o;
}

void init(AccTileArray<double>& u) {
  u.fill([](const tida::Index3& p) {
    return 0.25 * p.i - 0.5 * p.j + 1.5 * p.k;
  });
  u.assume_host_initialized();
}

// One halo step of the fuzzer's workload: exchange ghosts, in-place
// stencil over every region.
void halo_step(AccTileArray<double>& u) {
  u.fill_boundary(tida::Boundary::kPeriodic);
  for (int id = 0; id < u.num_regions(); ++id) {
    const tida::Region<double> r = u.region(id);
    const AccTile<double> tile{&u, tida::Tile<double>{r, r.valid},
                               /*gpu=*/true};
    core::compute(tile, stencil_cost(),
                  [](core::DeviceView<double> v, int i, int j, int k) {
                    v(i, j, k) = 0.5 * (v(i, j, k) + v(i, j, k - 1));
                  });
  }
}

std::vector<std::uint8_t> capture_all(const AccTileArray<double>& u) {
  sim::SnapshotWriter w;
  core::world_capture(w);
  u.capture(w);
  return w.take();
}

void restore_all(const std::vector<std::uint8_t>& buf,
                 AccTileArray<double>& u) {
  sim::SnapshotReader r(buf);
  core::world_restore(r);
  u.restore(r);
  ASSERT_TRUE(r.at_end());
}

TEST(WorldSnapshot, CaptureRestoreCaptureIsByteExact) {
  fresh_world(/*recording=*/true);
  AccTileArray<double> u(tida::Box::cube(kN), tida::Index3{kN, kN, kSlab},
                         /*ghost=*/1, limited_slots());
  init(u);
  halo_step(u);  // mid-workload: live residency, dirty state, trace events

  const std::vector<std::uint8_t> first = capture_all(u);
  restore_all(first, u);
  const std::vector<std::uint8_t> second = capture_all(u);
  ASSERT_EQ(first.size(), second.size());
  EXPECT_TRUE(first == second);

  // And it still holds after the restored world does more work: the
  // snapshot must not have corrupted anything that only later steps touch.
  halo_step(u);
  const std::vector<std::uint8_t> third = capture_all(u);
  restore_all(third, u);
  EXPECT_TRUE(third == capture_all(u));
}

TEST(WorldSnapshot, RestoredRunReplaysGoldenTrace) {
  fresh_world(/*recording=*/true);
  AccTileArray<double> u(tida::Box::cube(kN), tida::Index3{kN, kN, kSlab},
                         /*ghost=*/1, limited_slots());
  init(u);
  halo_step(u);
  const std::vector<std::uint8_t> snap = capture_all(u);

  // Golden run: two more steps from the snapshot point.
  halo_step(u);
  halo_step(u);
  u.release_all_to_host();
  const SimTime golden_now = cuem::platform().now();
  const sim::TraceStats golden_stats = cuem::platform().trace().stats();
  const std::vector<sim::TraceEvent> golden_events =
      cuem::platform().trace().events();
  std::vector<double> golden_field;
  for (int id = 0; id < u.num_regions(); ++id) {
    const tida::Region<double> r = u.region(id);
    golden_field.insert(golden_field.end(), r.data, r.data + r.cells());
  }

  // Replay from the snapshot: every observable must match exactly.
  restore_all(snap, u);
  halo_step(u);
  halo_step(u);
  u.release_all_to_host();
  EXPECT_EQ(golden_now, cuem::platform().now());
  const sim::TraceStats& s = cuem::platform().trace().stats();
  EXPECT_EQ(golden_stats.h2d_bytes, s.h2d_bytes);
  EXPECT_EQ(golden_stats.d2h_bytes, s.d2h_bytes);
  EXPECT_EQ(golden_stats.memcpy3d_h2d_bytes, s.memcpy3d_h2d_bytes);
  EXPECT_EQ(golden_stats.num_kernels, s.num_kernels);
  EXPECT_EQ(golden_stats.num_copies, s.num_copies);
  EXPECT_EQ(golden_stats.compute_busy, s.compute_busy);
  EXPECT_EQ(golden_stats.copy_busy, s.copy_busy);

  const std::vector<sim::TraceEvent>& e = cuem::platform().trace().events();
  ASSERT_EQ(golden_events.size(), e.size());
  for (std::size_t i = 0; i < e.size(); ++i) {
    EXPECT_EQ(golden_events[i].engine, e[i].engine) << "event " << i;
    EXPECT_EQ(golden_events[i].stream, e[i].stream) << "event " << i;
    EXPECT_EQ(golden_events[i].kind, e[i].kind) << "event " << i;
    EXPECT_EQ(golden_events[i].start, e[i].start) << "event " << i;
    EXPECT_EQ(golden_events[i].finish, e[i].finish) << "event " << i;
    EXPECT_EQ(golden_events[i].bytes, e[i].bytes) << "event " << i;
    EXPECT_EQ(golden_events[i].label, e[i].label) << "event " << i;
    EXPECT_EQ(golden_events[i].device, e[i].device) << "event " << i;
  }

  std::size_t off = 0;
  for (int id = 0; id < u.num_regions(); ++id) {
    const tida::Region<double> r = u.region(id);
    for (std::uint64_t c = 0; c < r.cells(); ++c) {
      ASSERT_EQ(golden_field[off + c], r.data[c])
          << "region " << id << " cell " << c;
    }
    off += r.cells();
  }
}

// Replays `steps` halo steps from `snap` and returns the trace events,
// the host clock and the final field.
struct Replay {
  std::vector<sim::TraceEvent> events;
  SimTime now = 0;
  std::vector<double> field;
};

Replay replay_from(const std::vector<std::uint8_t>& snap,
                   AccTileArray<double>& u, int steps) {
  restore_all(snap, u);
  for (int s = 0; s < steps; ++s) {
    halo_step(u);
  }
  u.release_all_to_host();
  Replay out{cuem::platform().trace().events(), cuem::platform().now(), {}};
  for (int id = 0; id < u.num_regions(); ++id) {
    const tida::Region<double> r = u.region(id);
    out.field.insert(out.field.end(), r.data, r.data + r.cells());
  }
  return out;
}

void expect_same_replay(const Replay& a, const Replay& b) {
  EXPECT_EQ(a.now, b.now);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].stream, b.events[i].stream) << "event " << i;
    EXPECT_EQ(a.events[i].kind, b.events[i].kind) << "event " << i;
    EXPECT_EQ(a.events[i].start, b.events[i].start) << "event " << i;
    EXPECT_EQ(a.events[i].finish, b.events[i].finish) << "event " << i;
    EXPECT_EQ(a.events[i].bytes, b.events[i].bytes) << "event " << i;
    EXPECT_EQ(a.events[i].label, b.events[i].label) << "event " << i;
  }
  EXPECT_TRUE(a.field == b.field);
}

std::size_t uploads_in(const Replay& r) {
  return static_cast<std::size_t>(
      std::count_if(r.events.begin(), r.events.end(),
                    [](const sim::TraceEvent& e) {
                      return e.label == "desc:D0";
                    }));
}

TEST(WorldSnapshot, DescriptorBuildStateRidesTheSnapshot) {
  // All regions resident: every exchange after the first upload is the
  // device exchange replaying its descriptors. A snapshot taken before the
  // first device exchange replays the build (index work and upload) again;
  // one taken after it replays with the descriptors built — their device
  // buffer riding in the cuem snapshot — and uploads nothing.
  fresh_world(/*recording=*/true);
  core::AccOptions o;
  o.max_slots = kRegions;
  AccTileArray<double> u(tida::Box::cube(kN), tida::Index3{kN, kN, kSlab},
                         /*ghost=*/1, o);
  init(u);
  halo_step(u);  // host exchange, then the regions move to the device
  const std::vector<std::uint8_t> unbuilt = capture_all(u);
  halo_step(u);  // the first device exchange builds the descriptors
  const std::vector<std::uint8_t> built = capture_all(u);

  const Replay from_unbuilt = replay_from(unbuilt, u, 3);
  EXPECT_EQ(uploads_in(from_unbuilt), 1u);
  expect_same_replay(from_unbuilt, replay_from(unbuilt, u, 3));

  const Replay from_built = replay_from(built, u, 2);
  EXPECT_EQ(uploads_in(from_built), 1u);  // the one before the snapshot
  expect_same_replay(from_built, replay_from(built, u, 2));
  // The same run, whichever snapshot it resumed from.
  EXPECT_EQ(from_built.now, from_unbuilt.now);
  EXPECT_TRUE(from_built.field == from_unbuilt.field);
}

// Two arrays on one layout, captured and restored together.
std::vector<std::uint8_t> capture_pair(const AccTileArray<double>& u,
                                       const AccTileArray<double>& v) {
  sim::SnapshotWriter w;
  core::world_capture(w);
  u.capture(w);
  v.capture(w);
  return w.take();
}

Replay replay_pair_from(const std::vector<std::uint8_t>& snap,
                        AccTileArray<double>& u, AccTileArray<double>& v,
                        int steps) {
  sim::SnapshotReader r(snap);
  core::world_restore(r);
  u.restore(r);
  v.restore(r);
  EXPECT_TRUE(r.at_end());
  for (int s = 0; s < steps; ++s) {
    halo_step(u);
    halo_step(v);
  }
  u.release_all_to_host();
  v.release_all_to_host();
  Replay out{cuem::platform().trace().events(), cuem::platform().now(), {}};
  for (const AccTileArray<double>* a : {&u, &v}) {
    for (int id = 0; id < a->num_regions(); ++id) {
      const tida::Region<double> reg = a->region(id);
      out.field.insert(out.field.end(), reg.data, reg.data + reg.cells());
    }
  }
  return out;
}

TEST(WorldSnapshot, SharedDescriptorBuildStateRidesBothSnapshots) {
  // Two arrays on one layout share its descriptors: whichever exchanges
  // first on the device builds them, the other only replays. Restored
  // from a snapshot of both taken before that build, the pair builds once
  // again; restored from one taken after it, neither uploads anything.
  fresh_world(/*recording=*/true);
  core::AccOptions o;
  o.max_slots = kRegions;
  AccTileArray<double> u(tida::Box::cube(kN), tida::Index3{kN, kN, kSlab},
                         /*ghost=*/1, o);
  AccTileArray<double> v(tida::Box::cube(kN), tida::Index3{kN, kN, kSlab},
                         /*ghost=*/1, o);
  init(u);
  v.fill([](const tida::Index3& p) { return 2.0 * p.i * p.k - 0.5 * p.j; });
  v.assume_host_initialized();
  halo_step(u);  // host exchanges, then the regions move to the device
  halo_step(v);
  const std::vector<std::uint8_t> unbuilt = capture_pair(u, v);
  halo_step(u);  // the layout's first device exchange builds
  halo_step(v);  // and the sibling replays
  const std::vector<std::uint8_t> built = capture_pair(u, v);

  const Replay from_unbuilt = replay_pair_from(unbuilt, u, v, 3);
  EXPECT_EQ(uploads_in(from_unbuilt), 1u);
  expect_same_replay(from_unbuilt, replay_pair_from(unbuilt, u, v, 3));

  const Replay from_built = replay_pair_from(built, u, v, 2);
  EXPECT_EQ(uploads_in(from_built), 1u);  // the one before the snapshot
  expect_same_replay(from_built, replay_pair_from(built, u, v, 2));
  EXPECT_EQ(from_built.now, from_unbuilt.now);
  EXPECT_TRUE(from_built.field == from_unbuilt.field);
}

TEST(WorldSnapshot, JitterStateSurvivesRestore) {
  fresh_world(/*recording=*/false);
  AccTileArray<double> u(tida::Box::cube(kN), tida::Index3{kN, kN, kSlab},
                         /*ghost=*/1, limited_slots());
  init(u);
  sim::Platform::instance().set_transfer_jitter(5000, 0xfeedu);
  halo_step(u);  // advances the jitter LCG mid-sequence
  const std::vector<std::uint8_t> snap = capture_all(u);

  halo_step(u);
  u.release_all_to_host();
  const SimTime golden = cuem::platform().now();

  restore_all(snap, u);
  halo_step(u);
  u.release_all_to_host();
  EXPECT_EQ(golden, cuem::platform().now());
}

TEST(WorldSnapshot, TimingWorldBytesArePinned) {
  // The encoding of every field is part of the format: a change to any
  // class's field list or to the encoder shows up here as a new size or
  // hash. The sanitizer is off (its state rides in the snapshot); a
  // sanitizer build sizes the platform's host vector clock even then.
  const std::vector<std::uint8_t> bytes =
      snapshot_probe::world_bytes(cuem::san::Options{});
#ifdef TIDACC_CUEM_SANITIZER
  EXPECT_EQ(bytes.size(), 18688u);
  EXPECT_EQ(snapshot_probe::fnv1a(bytes), 0x1e595dfa3d660068ull);
#else
  EXPECT_EQ(bytes.size(), 18672u);
  EXPECT_EQ(snapshot_probe::fnv1a(bytes), 0x8bf9fdefdf79b572ull);
#endif
}

// Captures the world and `from`, then restores the world and `into` from
// those bytes. Both arrays exist before the capture: restore frees every
// allocation made after it.
template <typename Array>
void restore_from_other(const Array& from, Array& into) {
  sim::SnapshotWriter w;
  core::world_capture(w);
  from.capture(w);
  const std::vector<std::uint8_t> snap = w.take();
  sim::SnapshotReader r(snap);
  core::world_restore(r);
  into.restore(r);
}

TEST(WorldSnapshot, RestoreRejectsMismatchedArrays) {
  using core::ClusterOptions;
  using core::ClusterTileArray;
  using core::MultiAccOptions;
  using core::MultiAccTileArray;
  const tida::Box domain = tida::Box::cube(kN);
  const tida::Index3 slabs{kN, kN, kSlab};
  MultiAccOptions base;
  base.devices = 1;
  // A pair of multi-device arrays differing in their options (or region
  // size), restored one from the other.
  const auto multi = [&](MultiAccOptions a, MultiAccOptions b,
                         tida::Index3 rs_b) {
    return [=] {
      MultiAccTileArray<double> from(domain, slabs, /*ghost=*/1, a);
      MultiAccTileArray<double> into(domain, rs_b, /*ghost=*/1, b);
      restore_from_other(from, into);
    };
  };
  const auto option = [&](auto set) {
    MultiAccOptions b = base;
    set(b);
    return multi(base, b, slabs);
  };
  const auto cluster = [&](auto set) {
    return [=] {
      ClusterOptions a;
      a.nodes = 2;
      a.path = core::NetPath::kStaged;
      ClusterOptions b = a;
      set(b);
      ClusterTileArray<double> from(domain, slabs, /*ghost=*/1, a);
      ClusterTileArray<double> into(domain, slabs, /*ghost=*/1, b);
      restore_from_other(from, into);
    };
  };
  struct Case {
    std::string message;  ///< what restore's error must say
    std::function<void()> restore;
  };
  const std::vector<Case> cases = {
      {"array snapshot has a different region count",
       multi(base, base, tida::Index3{kN, kN, 2 * kSlab})},
      {"array snapshot has a different device count",
       option([](MultiAccOptions& o) { o.devices = 2; })},
      {"array snapshot disagrees on placement",
       [&] {
         MultiAccOptions a = base;
         a.devices = 2;
         MultiAccOptions b = a;
         b.placement = core::DevicePlacement::kRoundRobin;
         multi(a, b, slabs)();
       }},
      {"array snapshot disagrees on disable_caching",
       [&] {
         AccTileArray<double> from(domain, slabs, /*ghost=*/1);
         core::AccOptions o;
         o.disable_caching = true;
         AccTileArray<double> into(domain, slabs, /*ghost=*/1, o);
         restore_from_other<MultiAccTileArray<double>>(from, into);
       }},
      {"array snapshot disagrees on delta_transfers",
       option([](MultiAccOptions& o) { o.delta_transfers = true; })},
      {"array snapshot disagrees on streaming_guard",
       option([](MultiAccOptions& o) {
         o.streaming_guard = core::StreamingGuard::kForceStreaming;
       })},
      {"array snapshot disagrees on time_block_k",
       option([](MultiAccOptions& o) { o.time_block_k = 2; })},
      {"array snapshot disagrees on compression",
       option([](MultiAccOptions& o) {
         o.compression = core::Compression::kOn;
       })},
      {"device-pool snapshot has a different slot count",
       option([](MultiAccOptions& o) { o.max_slots = 2; })},
      {"scheduler snapshot was taken under a different slot policy",
       option([](MultiAccOptions& o) {
         o.slot_policy = core::SlotPolicyKind::kLru;
       })},
      {"cluster snapshot has a different node count",
       cluster([](ClusterOptions& o) { o.nodes = 1; })},
      {"cluster snapshot disagrees on the wire path",
       cluster([](ClusterOptions& o) { o.path = core::NetPath::kAuto; })},
      {"cluster snapshot disagrees on wire compression",
       cluster([](ClusterOptions& o) {
         o.compression = core::Compression::kOn;
       })},
      {"snapshot: truncated buffer",
       [&] {
         MultiAccTileArray<double> u(domain, slabs, /*ghost=*/1, base);
         sim::SnapshotWriter w;
         core::world_capture(w);
         u.capture(w);
         std::vector<std::uint8_t> snap = w.take();
         snap.pop_back();
         sim::SnapshotReader r(snap);
         core::world_restore(r);
         u.restore(r);
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.message);
    cuem::configure(sim::DeviceConfig::k40m(), /*functional=*/false,
                    /*num_devices=*/2, sim::Interconnect::pcie());
    oacc::reset();
    // A rejected restore leaves the world half restored; only the error
    // is under test here.
    cuem::san::configure(cuem::san::Options{});
    try {
      c.restore();
      ADD_FAILURE() << "restore accepted the snapshot";
    } catch (const tidacc::Error& e) {
      EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos)
          << e.what();
    }
  }
}

TEST(WorldSnapshot, RejectsForeignBuffers) {
  fresh_world(/*recording=*/false);
  std::vector<std::uint8_t> junk = {0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0,
                                    0,    0,    0,    0};
  EXPECT_THROW(core::world_restore(junk), tidacc::Error);
}

#ifndef TIDACC_CUEM_SANITIZER
TEST(WorldSnapshot, RefusesSanitizerSnapshotWhenCompiledOut) {
  fresh_world(/*recording=*/false);
  std::vector<std::uint8_t> snap = core::world_snapshot();
  // Header layout: magic u32, version u32, flags u32 — flip the sanitizer
  // flag the way a capture from a TIDACC_CUEM_SANITIZER=ON build sets it.
  ASSERT_GE(snap.size(), 12u);
  snap[8] |= static_cast<std::uint8_t>(sim::kSnapshotFlagSanitizer);
  try {
    core::world_restore(snap);
    FAIL() << "expected world_restore to reject the sanitizer flag";
  } catch (const tidacc::Error& e) {
    EXPECT_NE(std::string(e.what()).find("compiled out"), std::string::npos)
        << e.what();
  }
}
#else
TEST(WorldSnapshot, SanitizerStateRidesTheSnapshot) {
  fresh_world(/*recording=*/false);
  cuem::san::Options so;
  so.enabled = true;
  so.fatal = false;
  cuem::san::configure(so);
  AccTileArray<double> u(tida::Box::cube(kN), tida::Index3{kN, kN, kSlab},
                         /*ghost=*/1, limited_slots());
  init(u);
  halo_step(u);
  const std::vector<std::uint8_t> snap = capture_all(u);
  // The header must advertise the active sanitizer (the flag an OFF build
  // uses to refuse the restore)...
  ASSERT_GE(snap.size(), 12u);
  EXPECT_TRUE(snap[8] & sim::kSnapshotFlagSanitizer);
  // ...and the round trip must stay byte-exact with shadow state aboard.
  restore_all(snap, u);
  EXPECT_TRUE(snap == capture_all(u));
  cuem::san::configure(cuem::san::Options{});
}
#endif

}  // namespace

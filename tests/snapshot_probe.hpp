// A fixed timing-only world whose snapshot bytes the tests pin: a
// two-device out-of-core array mid-run and a two-node staged cluster array
// after one split-phase exchange, captured after the world. Timing-only
// mode keeps heap addresses out of the buffer (a functional world's
// allocation blobs and backing pointers differ in every process), so the
// size and hash below are the same in every run of a build.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cluster_tile_array.hpp"
#include "core/tidacc.hpp"
#include "core/world_snapshot.hpp"
#include "cuem/cuem.hpp"
#include "cuem/san.hpp"
#include "oacc/oacc.hpp"
#include "sim/snapshot.hpp"

namespace tidacc::snapshot_probe {

/// FNV-1a over the buffer.
inline std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : bytes) {
    h = (h ^ b) * 1099511628211ull;
  }
  return h;
}

/// Builds the probe world on a fresh two-device platform, with the
/// sanitizer configured as `san` (its options ride in the snapshot), and
/// returns its snapshot.
inline std::vector<std::uint8_t> world_bytes(const cuem::san::Options& san) {
  using namespace tidacc::core;
  cuem::configure(sim::DeviceConfig::k40m(), /*functional=*/false,
                  /*num_devices=*/2, sim::Interconnect::pcie());
  oacc::reset();
  cuem::san::configure(san);
  cuem::platform().trace().set_recording(true);
  oacc::LoopCost cost;
  cost.flops_per_iter = 2;
  cost.dev_bytes_per_iter = 16;
  const auto body = [](DeviceView<double> v, int i, int j, int k) {
    v(i, j, k) = 0.5 * v(i, j, k) + 2.0;
  };

  MultiAccOptions mo;
  mo.devices = 2;
  mo.max_slots = 2;
  mo.slot_policy = SlotPolicyKind::kLru;
  mo.delta_transfers = true;
  MultiAccTileArray<double> multi(tida::Box::cube(16),
                                  tida::Index3{16, 16, 2}, /*ghost=*/1, mo);
  multi.assume_host_initialized();
  for (int step = 0; step < 2; ++step) {
    multi.fill_boundary(tida::Boundary::kPeriodic);
    for (int r = 0; r < multi.num_regions(); ++r) {
      compute_gpu(multi, r, cost, body);
    }
  }

  ClusterOptions co;
  co.nodes = 2;
  co.fabric = sim::FabricConfig::infiniband();
  co.path = NetPath::kStaged;
  ClusterTileArray<double> cluster(tida::Box::cube(16),
                                   tida::Index3{16, 16, 2}, /*ghost=*/1, co);
  cluster.assume_host_initialized();
  for (int r = 0; r < cluster.num_regions(); ++r) {
    cluster.acquire_on_device(r);
  }
  cluster.exchange_begin(tida::Boundary::kPeriodic);
  for (int r = 0; r < cluster.num_regions(); ++r) {
    compute_gpu(cluster, r, cost, body);
  }
  cluster.exchange_end();

  sim::SnapshotWriter w;
  world_capture(w);
  multi.capture(w);
  cluster.capture(w);
  return w.take();
}

}  // namespace tidacc::snapshot_probe

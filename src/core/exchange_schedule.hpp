// ExchangeSchedule — what the ghost exchange derives from the layout alone,
// derived once per layout and shared by every array built on it.
//
// TiDA-acc's host computes the exchange's source and destination index
// lists (§IV-B6, Fig. 4), and they depend only on the layout: the domain,
// region size, ghost width, device count and placement, and for the cluster
// exchange the node count. Element type, ncomp, slot budget and the other
// options do not enter: a descriptor holds region ids and region-relative
// cell boxes. So a Jacobi-style pair of arrays (u, un) shares one schedule
// (ExchangeSchedule::of), like AMReX's one FillBoundary copy pattern per box
// layout and distribution:
//   * the placement: each region's device, its index among its device's
//     regions and its node, and each device's regions, so each region
//     pair's class (PairClass: one device, a peer copy within a node, or a
//     wire message between nodes);
//   * per boundary, each device's same-device pairs and their copies, and
//     the wire pairs;
//   * per device and boundary, the descriptor buffers (device plus pinned
//     staging) and whether the index work is paid and the descriptors
//     uploaded; per boundary, whether the wire pairs' index work is paid.
// The pair views are built from the layout's pair index (tida::PairIndex):
// one pass over its pairs, never over the plan, so the exchange decides per
// (source, destination) region pair what depends only on the placement.
// The first exchange on the layout under a boundary pays the index work
// (pay_index_work, between its peer copies or wire posts) and the one
// upload; every later exchange, by any array on the layout, only replays.
// Uploads and replays of one device share its exchange stream
// (kExchangeQueue maps per device, not per array), so sharing needs no
// event edge. The lists are derived on first use and never change. The
// built flags are simulated state: each array's snapshot carries them and
// its restore sets them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "cuem/cuem.hpp"
#include "tida/ghost.hpp"

namespace tidacc::core {

/// Region→device placement policy.
///   kBlock:      contiguous chunks (region r on device r / ceil(R/N)) —
///                neighbouring regions share a device, so most ghost faces
///                stay device-local (fewest peer copies).
///   kRoundRobin: region r on device r % N — balances any per-region load
///                imbalance at the cost of more cross-device faces.
enum class DevicePlacement : int { kBlock = 0, kRoundRobin = 1 };

const char* to_string(DevicePlacement p);

/// Parses "block" / "round-robin" (also "rr", "roundrobin").
DevicePlacement parse_placement(const std::string& s);

/// One planned ghost copy as the device exchange's replay kernel reads it
/// (DESIGN.md §4 item 5): region ids and boxes relative to each region's
/// grown box, never slot pointers, so a change of residency or slot never
/// invalidates it. 16-byte aligned for vector loads.
struct alignas(16) GhostDescriptor {
  std::int32_t src_region = -1;
  std::int32_t dst_region = -1;
  tida::Index3 src_lo;  ///< first source cell, from the source's grown lo
  tida::Index3 dst_lo;  ///< first ghost cell, from the destination's grown lo
  tida::Index3 extent;
};
static_assert(sizeof(GhostDescriptor) == 48,
              "the replay kernel reads 48-byte descriptors");

/// Where the copies between two regions run: both regions on one device
/// (its replay kernel), on two devices of one node (peer copies), or on two
/// nodes (one wire message).
enum class PairClass : int { kLocal, kPeer, kWire };

/// The device buffer one device's ghost descriptors live in and the pinned
/// host copy they are uploaded from. Released with the last array on the
/// layout, after its exchange stream stops reading them (cuemFree does not
/// wait for queued kernels), unless a platform reset released them first.
class DescriptorBuffers {
 public:
  DescriptorBuffers() = default;

  /// Allocates room for `count` descriptors on the current device; fails
  /// with a reason when the device cannot hold them.
  explicit DescriptorBuffers(std::size_t count);

  DescriptorBuffers(DescriptorBuffers&& o) noexcept
      : stream(o.stream),
        generation_(o.generation_),
        device_(std::exchange(o.device_, nullptr)),
        host_(std::exchange(o.host_, nullptr)) {}

  DescriptorBuffers& operator=(DescriptorBuffers&& o) noexcept {
    std::swap(stream, o.stream);
    std::swap(generation_, o.generation_);
    std::swap(device_, o.device_);
    std::swap(host_, o.host_);
    return *this;
  }

  DescriptorBuffers(const DescriptorBuffers&) = delete;
  DescriptorBuffers& operator=(const DescriptorBuffers&) = delete;

  ~DescriptorBuffers();

  GhostDescriptor* device() const { return device_; }
  GhostDescriptor* host() const { return host_; }

  /// The device's exchange stream (kExchangeQueue); -1 until assigned.
  cuemStream_t stream = -1;

 private:
  std::uint64_t generation_ = 0;  ///< platform generation of the buffers
  GhostDescriptor* device_ = nullptr;
  GhostDescriptor* host_ = nullptr;
};

class ExchangeSchedule {
 public:
  /// What a schedule depends on.
  struct Layout {
    tida::Box domain;
    tida::Index3 region_size;
    int ghost = 0;
    int devices = 1;
    DevicePlacement placement = DevicePlacement::kBlock;
    int nodes = 1;
    bool operator==(const Layout&) const = default;
  };

  /// The copies between two regions of one device: what its replay kernel
  /// applies.
  struct Local {
    /// Indices of those region pairs in the layout's PairIndex, in pair
    /// order.
    std::vector<std::size_t> pairs;
    /// Their plan indices, in plan order: the descriptor order.
    std::vector<std::size_t> copies;
  };

  /// One boundary's region pairs by class: per device its kLocal pairs,
  /// and the kWire pairs (one wire message each; PairIndex indices, in
  /// pair order).
  struct Pairs {
    std::vector<Local> local;
    std::vector<std::size_t> wire;
  };

  /// One boundary's ghost descriptors on one device.
  struct DescriptorSet {
    /// Position of the first descriptor in the device's buffers.
    std::size_t offset = 0;
    /// Index work paid and descriptors uploaded.
    bool built = false;
    /// Index work of the peer copies into the device paid: by the first
    /// exchange that carries peer copies, which need not be the one that
    /// built the descriptors (the streaming exchange carries none).
    bool peers_indexed = false;
  };

  /// One device's descriptors, per boundary (indexed by tida::Boundary),
  /// stored in `buffers`, each with room for `capacity` descriptors.
  struct Device {
    std::array<DescriptorSet, 2> desc;
    std::size_t capacity = 0;
    DescriptorBuffers buffers;
  };

  /// Places the layout's regions: block placement gives device d the
  /// regions [d * chunk, (d + 1) * chunk) with chunk = ceil(R / devices),
  /// round-robin gives region r to device r % devices; each node owns
  /// devices / nodes contiguous device ordinals.
  explicit ExchangeSchedule(const Layout& layout);

  /// The schedule of an array built on `layout`: that of a live array on
  /// the same layout since the last platform reset, else a new one. An
  /// array that outlives a reset never lends its schedule to one built
  /// after it.
  static std::shared_ptr<ExchangeSchedule> of(const Layout& layout);

  const Layout& layout() const { return layout_; }

  // --- placement ---

  int device_of(int region) const {
    return device_[static_cast<std::size_t>(region)];
  }
  /// The region's index among its device's regions.
  int local_id(int region) const {
    return local_id_[static_cast<std::size_t>(region)];
  }
  /// Device `d`'s regions, in id order.
  const std::vector<int>& regions_of(int d) const {
    return regions_[static_cast<std::size_t>(d)];
  }
  int devices_per_node() const { return layout_.devices / layout_.nodes; }
  int node_of(int region) const {
    return device_of(region) / devices_per_node();
  }
  PairClass class_of(int src, int dst) const {
    return device_of(src) == device_of(dst) ? PairClass::kLocal
           : node_of(src) == node_of(dst)   ? PairClass::kPeer
                                            : PairClass::kWire;
  }

  /// Pays the host's index work for `copies` planned copies, worked by one
  /// CPU per node: each node indexes its own shard of the plan
  /// concurrently. Only a build pays it: a schedule's descriptors and wire
  /// pairs, each once per boundary.
  void pay_index_work(std::size_t copies) const;

  /// Gives device `d` (current) descriptor buffers for `capacity`
  /// descriptors per boundary, unless an earlier array on the layout did.
  void reserve(int d, std::size_t capacity);

  Device& device(int d) { return devices_[static_cast<std::size_t>(d)]; }
  DescriptorSet& descriptors(int d, tida::Boundary bc) {
    return device(d).desc[static_cast<std::size_t>(bc)];
  }
  /// Per boundary (indexed by tida::Boundary): the wire pairs' index work
  /// paid.
  std::array<bool, 2>& wire_built() { return wire_built_; }

  /// The region pairs under `bc` by class, from the layout's pair index
  /// `index`: one pass over the pairs, on first use.
  const Pairs& pairs(tida::Boundary bc, const tida::PairIndex& index);

 private:
  Layout layout_;
  std::vector<int> device_;
  std::vector<int> local_id_;
  std::vector<std::vector<int>> regions_;
  std::vector<Device> devices_;
  std::array<bool, 2> wire_built_{};
  std::array<std::optional<Pairs>, 2> pairs_;
};

}  // namespace tidacc::core

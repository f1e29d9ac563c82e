#include "core/exchange_schedule.hpp"

#include "common/error.hpp"
#include "common/weak_registry.hpp"
#include "cuem/san.hpp"
#include "sim/platform.hpp"

namespace tidacc::core {

const char* to_string(DevicePlacement p) {
  switch (p) {
    case DevicePlacement::kBlock:
      return "block";
    case DevicePlacement::kRoundRobin:
      return "round-robin";
  }
  return "?";
}

DevicePlacement parse_placement(const std::string& s) {
  if (s == "block") {
    return DevicePlacement::kBlock;
  }
  if (s == "round-robin" || s == "roundrobin" || s == "rr") {
    return DevicePlacement::kRoundRobin;
  }
  TIDACC_FAIL("unknown placement '" + s + "' (expected block|round-robin)");
}

DescriptorBuffers::DescriptorBuffers(std::size_t count)
    : generation_(sim::Platform::generation()) {
  const std::size_t bytes = count * sizeof(GhostDescriptor);
  void* dev = nullptr;
  TIDACC_CHECK_MSG(cuemMalloc(&dev, bytes) == cuemSuccess,
                   "device " + std::to_string(cuem::current_device()) +
                       " cannot hold the ghost exchange's " +
                       std::to_string(bytes) +
                       " B of index descriptors — choose larger regions "
                       "or fewer of them");
  device_ = static_cast<GhostDescriptor*>(dev);
  void* host = nullptr;
  CUEM_CHECK(cuemMallocHost(&host, bytes));
  host_ = static_cast<GhostDescriptor*>(host);
  if (cuem::san::enabled()) {
    const std::string d = std::to_string(cuem::current_device());
    CUEM_CHECK(cuemSanAnnotate(device_, ("ghostdesc:D" + d).c_str()));
    CUEM_CHECK(cuemSanAnnotate(host_, ("host:ghostdesc:D" + d).c_str()));
  }
}

DescriptorBuffers::~DescriptorBuffers() {
  // After a platform reset the buffers are gone and their addresses may be
  // a newer array's.
  if (device_ == nullptr || generation_ != sim::Platform::generation()) {
    return;
  }
  if (stream >= 0 && cuemStreamQuery(stream) != cuemSuccess) {
    (void)cuemStreamSynchronize(stream);
  }
  (void)cuemFree(device_);
  (void)cuemFreeHost(host_);
}

ExchangeSchedule::ExchangeSchedule(const Layout& layout)
    : layout_(layout),
      regions_(static_cast<std::size_t>(layout.devices)),
      devices_(static_cast<std::size_t>(layout.devices)) {
  const int nreg =
      tida::Partition(layout.domain, layout.region_size).num_regions();
  const int chunk = (nreg + layout.devices - 1) / layout.devices;
  for (int r = 0; r < nreg; ++r) {
    const int d = layout.placement == DevicePlacement::kBlock
                      ? r / chunk
                      : r % layout.devices;
    std::vector<int>& mine = regions_[static_cast<std::size_t>(d)];
    device_.push_back(d);
    local_id_.push_back(static_cast<int>(mine.size()));
    mine.push_back(r);
  }
}

std::shared_ptr<ExchangeSchedule> ExchangeSchedule::of(const Layout& layout) {
  static WeakRegistry<std::pair<Layout, std::uint64_t>, ExchangeSchedule>
      live;
  return live.get(std::pair(layout, sim::Platform::generation()),
                  [&] { return std::make_shared<ExchangeSchedule>(layout); });
}

void ExchangeSchedule::pay_index_work(std::size_t copies) const {
  sim::Platform& p = sim::Platform::instance();
  p.host_advance(static_cast<SimTime>(copies) *
                 p.config().host_index_calc_ns_per_copy /
                 static_cast<SimTime>(layout_.nodes));
}

void ExchangeSchedule::reserve(int d, std::size_t capacity) {
  Device& dev = device(d);
  if (capacity == 0 || dev.capacity > 0) {
    return;
  }
  dev.capacity = capacity;
  dev.desc[static_cast<std::size_t>(tida::Boundary::kNone)].offset = capacity;
  dev.buffers = DescriptorBuffers(2 * capacity);
}

const ExchangeSchedule::Pairs& ExchangeSchedule::pairs(
    tida::Boundary bc, const tida::PairIndex& index) {
  std::optional<Pairs>& out = pairs_[static_cast<std::size_t>(bc)];
  if (out) {
    return *out;
  }
  out.emplace();
  out->local.resize(devices_.size());
  // Destination by destination in id order: the pairs in pair order, each
  // device's copies in plan order.
  for (int dst = 0; dst < static_cast<int>(device_.size()); ++dst) {
    Local& local = out->local[static_cast<std::size_t>(device_of(dst))];
    index.append_copies(
        dst,
        [&](std::size_t p) {
          const PairClass cls = class_of(index.pairs[p].src_region, dst);
          if (cls == PairClass::kWire) {
            out->wire.push_back(p);
          }
          if (cls == PairClass::kLocal) {
            local.pairs.push_back(p);
          }
          return cls == PairClass::kLocal;
        },
        local.copies);
    TIDACC_CHECK_MSG(local.copies.size() <= device(device_of(dst)).capacity,
                     "ghost descriptors overflow their buffer");
  }
  return *out;
}

}  // namespace tidacc::core

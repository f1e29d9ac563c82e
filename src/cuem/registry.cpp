#include "cuem/registry.hpp"

#include "common/error.hpp"

namespace tidacc::cuem {

const char* to_string(MemSpace s) {
  switch (s) {
    case MemSpace::kHostPageable:
      return "host-pageable";
    case MemSpace::kHostPinned:
      return "host-pinned";
    case MemSpace::kDevice:
      return "device";
    case MemSpace::kManaged:
      return "managed";
  }
  return "?";
}

void PointerRegistry::add(const Allocation& alloc) {
  TIDACC_CHECK_MSG(alloc.base != 0, "null allocation base");
  TIDACC_CHECK_MSG(alloc.size > 0, "zero-sized allocation");
  // Reject overlap with the neighbouring entries.
  const auto next = by_base_.lower_bound(alloc.base);
  if (next != by_base_.end()) {
    TIDACC_CHECK_MSG(alloc.base + alloc.size <= next->first,
                     "allocation overlaps a live allocation");
  }
  if (next != by_base_.begin()) {
    const auto& prev = std::prev(next)->second;
    TIDACC_CHECK_MSG(prev.base + prev.size <= alloc.base,
                     "allocation overlaps a live allocation");
  }
  by_base_.emplace(alloc.base, alloc);
}

Allocation PointerRegistry::remove(const void* base) {
  const auto it = by_base_.find(reinterpret_cast<std::uintptr_t>(base));
  TIDACC_CHECK_MSG(it != by_base_.end(),
                   "free of a pointer the runtime does not own");
  Allocation out = it->second;
  by_base_.erase(it);
  return out;
}

const Allocation* PointerRegistry::find(const void* p) const {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  auto it = by_base_.upper_bound(addr);
  if (it == by_base_.begin()) {
    return nullptr;
  }
  --it;
  const Allocation& a = it->second;
  return (addr >= a.base && addr < a.base + a.size) ? &a : nullptr;
}

Allocation* PointerRegistry::find(const void* p) {
  return const_cast<Allocation*>(
      static_cast<const PointerRegistry*>(this)->find(p));
}

bool PointerRegistry::is_space(const void* p, MemSpace space) const {
  const Allocation* a = find(p);
  return a != nullptr && a->space == space;
}

std::vector<Allocation*> PointerRegistry::managed_allocations() {
  std::vector<Allocation*> out;
  for (auto& [base, alloc] : by_base_) {
    if (alloc.space == MemSpace::kManaged) {
      out.push_back(&alloc);
    }
  }
  return out;
}

std::vector<const Allocation*> PointerRegistry::all_allocations() const {
  std::vector<const Allocation*> out;
  out.reserve(by_base_.size());
  for (const auto& [base, alloc] : by_base_) {
    out.push_back(&alloc);
  }
  return out;
}

}  // namespace tidacc::cuem

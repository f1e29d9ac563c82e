// Pointer-space registry for the cuem runtime: tracks every allocation the
// runtime hands out (pageable host, pinned host, device, managed), supports
// containment lookups for interior pointers, and carries the managed-memory
// residency state used by the Kepler-era UVM model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace tidacc::cuem {

/// Address space of an allocation.
enum class MemSpace : int {
  kHostPageable = 0,
  kHostPinned,
  kDevice,
  kManaged
};

const char* to_string(MemSpace s);

/// One allocation known to the runtime.
struct Allocation {
  std::uintptr_t base = 0;
  std::size_t size = 0;
  MemSpace space = MemSpace::kHostPageable;
  /// For managed memory: whether the valid copy currently lives on the
  /// device (Kepler UVM migrates whole allocations on kernel launch).
  bool device_resident = false;
  /// Real backing storage (nullptr in timing-only mode, where addresses are
  /// synthetic and never dereferenced).
  void* backing = nullptr;
  /// Owning device ordinal for device/managed allocations (the device that
  /// was current at allocation time); 0 for host memory.
  int device = 0;

  /// Snapshot field list (sim/snapshot.hpp), as the sanitizer's shadow map
  /// stores it.
  template <typename Ar>
  void fields(Ar& ar) {
    ar(base, size, space, device_resident, backing, device);
  }
};

/// Registry of live allocations, keyed by base address, with containment
/// lookup so interior pointers (e.g. `ptr + offset` in a memcpy) resolve to
/// their owning allocation.
class PointerRegistry {
 public:
  /// Registers an allocation; base addresses must not overlap live entries.
  void add(const Allocation& alloc);

  /// Removes by exact base address; returns the removed entry.
  Allocation remove(const void* base);

  /// Finds the allocation containing `p`, or nullptr.
  const Allocation* find(const void* p) const;
  Allocation* find(const void* p);

  /// True when `p` lies inside an allocation of the given space.
  bool is_space(const void* p, MemSpace space) const;

  /// All live managed allocations (for launch-time UVM migration sweeps).
  std::vector<Allocation*> managed_allocations();

  /// All live allocations in base-address order (snapshot capture walks
  /// this; the order makes the serialization deterministic).
  std::vector<const Allocation*> all_allocations() const;

  std::size_t live_count() const { return by_base_.size(); }

 private:
  std::map<std::uintptr_t, Allocation> by_base_;
};

}  // namespace tidacc::cuem

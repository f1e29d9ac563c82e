// OpenACC-style present table: maps host address ranges to their device
// mirrors with reference counting, the mechanism behind `data` regions,
// `enter data`/`exit data` and implicit per-kernel data clauses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>

namespace tidacc::oacc {

/// One host-range → device-mirror mapping.
struct PresentEntry {
  std::uintptr_t host_base = 0;
  std::size_t bytes = 0;
  void* device = nullptr;
  int refcount = 0;

  /// Snapshot field list (sim/snapshot.hpp).
  template <typename Ar>
  void fields(Ar& ar) {
    ar(host_base, bytes, device, refcount);
  }
};

/// Containment-keyed table of live mappings.
class PresentTable {
 public:
  /// Finds the entry whose host range contains `host`, or nullptr.
  PresentEntry* find(const void* host);
  const PresentEntry* find(const void* host) const;

  /// Registers a new mapping with refcount 1. The range must not overlap an
  /// existing entry (OpenACC runtime error otherwise).
  PresentEntry& insert(void* host, std::size_t bytes, void* device);

  /// Removes the entry with this exact host base.
  void erase(const void* host_base);

  /// Translates a host pointer to its device counterpart (nullptr if the
  /// containing range is absent).
  void* device_ptr(const void* host) const;

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  auto begin() { return entries_.begin(); }
  auto end() { return entries_.end(); }
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

  /// Drops every mapping without touching device memory (snapshot restore
  /// rebuilds the table from serialized entries).
  void clear() { entries_.clear(); }

 private:
  std::map<std::uintptr_t, PresentEntry> entries_;
};

}  // namespace tidacc::oacc

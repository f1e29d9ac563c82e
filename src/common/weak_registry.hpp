// WeakRegistry — one value per key, shared by whoever holds it.
//
// get(key, make) returns the value some holder still keeps for `key`, or
// makes, remembers and returns a new one. The registry holds its values
// weakly, so each dies with its last holder and a later get makes it
// afresh. Keys compare with ==, and a registry stays small (one entry per
// live key), so lookup is a linear scan.
#pragma once

#include <memory>
#include <utility>
#include <vector>

namespace tidacc {

template <typename Key, typename V>
class WeakRegistry {
 public:
  template <typename Make>
  std::shared_ptr<V> get(const Key& key, Make&& make) {
    std::erase_if(live_, [](const auto& e) { return e.second.expired(); });
    for (const auto& [k, v] : live_) {
      if (k == key) {
        return v.lock();
      }
    }
    std::shared_ptr<V> v = std::forward<Make>(make)();
    live_.emplace_back(key, v);
    return v;
  }

 private:
  std::vector<std::pair<Key, std::weak_ptr<V>>> live_;
};

}  // namespace tidacc

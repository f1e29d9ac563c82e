// 3D integer index type used throughout the tiling library. 1D/2D problems
// use degenerate extents (the unused dimensions have extent 1).
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace tidacc::tida {

/// A point in Z^3 (cell index or extent vector).
struct Index3 {
  int i = 0;
  int j = 0;
  int k = 0;

  friend constexpr bool operator==(const Index3&, const Index3&) = default;

  /// Snapshot field list (sim/snapshot.hpp).
  template <typename Ar>
  void fields(Ar& ar) {
    ar(i, j, k);
  }

  constexpr Index3 operator+(const Index3& o) const {
    return {i + o.i, j + o.j, k + o.k};
  }
  constexpr Index3 operator-(const Index3& o) const {
    return {i - o.i, j - o.j, k - o.k};
  }
  constexpr Index3 operator-() const { return {-i, -j, -k}; }
  constexpr Index3 operator*(int s) const { return {i * s, j * s, k * s}; }

  /// Component-wise min / max.
  static constexpr Index3 min(const Index3& a, const Index3& b) {
    return {std::min(a.i, b.i), std::min(a.j, b.j), std::min(a.k, b.k)};
  }
  static constexpr Index3 max(const Index3& a, const Index3& b) {
    return {std::max(a.i, b.i), std::max(a.j, b.j), std::max(a.k, b.k)};
  }

  /// True when every component is >= the other's (partial order).
  constexpr bool all_ge(const Index3& o) const {
    return i >= o.i && j >= o.j && k >= o.k;
  }
  constexpr bool all_le(const Index3& o) const {
    return i <= o.i && j <= o.j && k <= o.k;
  }

  /// Uniform index (d, d, d).
  static constexpr Index3 uniform(int d) { return {d, d, d}; }

  std::string to_string() const;
};

std::ostream& operator<<(std::ostream& os, const Index3& idx);

}  // namespace tidacc::tida

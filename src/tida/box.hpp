// Axis-aligned index box: the index-space algebra regions, tiles and ghost
// exchanges are built from. Bounds are inclusive on both ends (BoxLib/AMReX
// convention, which the original TiDA follows).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "tida/index.hpp"

namespace tidacc::tida {

/// Inclusive index box [lo, hi]. A box with any hi component < lo is empty.
struct Box {
  Index3 lo{0, 0, 0};
  Index3 hi{-1, -1, -1};  // default: empty

  /// Snapshot field list (sim/snapshot.hpp).
  template <typename Ar>
  void fields(Ar& ar) {
    ar(lo, hi);
  }

  /// Box covering [0, n) in each dimension.
  static Box from_extents(const Index3& n) {
    return Box{{0, 0, 0}, {n.i - 1, n.j - 1, n.k - 1}};
  }
  /// Cube covering [0, n)^3.
  static Box cube(int n) { return from_extents({n, n, n}); }

  bool empty() const { return hi.i < lo.i || hi.j < lo.j || hi.k < lo.k; }

  /// Extent per dimension (0 when empty in that dimension).
  Index3 extent() const {
    if (empty()) {
      return {0, 0, 0};
    }
    return {hi.i - lo.i + 1, hi.j - lo.j + 1, hi.k - lo.k + 1};
  }

  /// Number of cells.
  std::uint64_t volume() const {
    const Index3 e = extent();
    return static_cast<std::uint64_t>(e.i) * static_cast<std::uint64_t>(e.j) *
           static_cast<std::uint64_t>(e.k);
  }

  bool contains(const Index3& p) const {
    return !empty() && p.all_ge(lo) && p.all_le(hi);
  }
  bool contains(const Box& b) const {
    return b.empty() || (contains(b.lo) && contains(b.hi));
  }

  /// Intersection (possibly empty).
  Box intersect(const Box& o) const {
    return Box{Index3::max(lo, o.lo), Index3::min(hi, o.hi)};
  }

  bool intersects(const Box& o) const { return !intersect(o).empty(); }

  /// Grows by `g` cells on every face (negative shrinks).
  Box grow(int g) const { return grow(Index3::uniform(g)); }
  Box grow(const Index3& g) const { return Box{lo - g, hi + g}; }

  /// Translates by `d`.
  Box shift(const Index3& d) const { return Box{lo + d, hi + d}; }

  friend bool operator==(const Box&, const Box&) = default;

  std::string to_string() const;
};

std::ostream& operator<<(std::ostream& os, const Box& b);

/// Set difference b \ a as at most 6 disjoint boxes (k-slabs first, then
/// j-slabs, then i-slabs within the overlap range). Returns {b} when the
/// boxes do not intersect and {} when a covers b. The pieces tile b's cells
/// outside a exactly — the primitive behind dirty-region bookkeeping and
/// ghost-shell decomposition.
std::vector<Box> subtract(const Box& b, const Box& a);

/// Removes `b` from every box in `list`, keeping the list disjoint (each
/// affected box is replaced by its subtract() pieces).
void subtract_from_list(std::vector<Box>& list, const Box& b);

/// Cells of `b` not covered by any box in `list` (successive subtraction).
std::vector<Box> subtract_box(const Box& b, const std::vector<Box>& list);

/// Total cells across a box list (boxes assumed disjoint).
std::uint64_t list_volume(const std::vector<Box>& list);

/// Smallest box containing every box of the list (empty for an empty list).
Box bounding_box(const std::vector<Box>& list);

/// Merges any two boxes of `list` whose union is itself a box — one
/// contains the other, or both share their extent on two axes and touch or
/// overlap on the third — until no such pair is left. Empty boxes are
/// dropped; the result covers exactly the input's cells. Merges are swept
/// axis by axis (i, then j, then k, repeated), so a periodic slab's 26 ghost
/// pieces become its 6-box ghost ring rather than an L-shaped leftover.
std::vector<Box> coalesce(std::vector<Box> list);

/// The ghost ring of `valid` grown by `g`, decomposed into at most 6
/// disjoint face shells — subtract(valid.grow(g), valid).
std::vector<Box> ghost_shells(const Box& valid, int g);

/// Writable range of sub-step `s` (0-based) of a depth-`k` temporal
/// trapezoid over `valid` with stencil radius `radius`: the interior that
/// can still be computed correctly from ghosts of width radius*k shrinks
/// by one stencil radius per sub-step, ending exactly on `valid` at the
/// last sub-step — valid.grow(radius * (k - 1 - s)).
Box trapezoid_range(const Box& valid, int radius, int k, int s);

/// Ghost shells widened for a depth-`k` trapezoid: the ring of width
/// radius*k around `valid` that sub-step 0 reads —
/// ghost_shells(valid, radius * k).
std::vector<Box> temporal_shells(const Box& valid, int radius, int k);

}  // namespace tidacc::tida

// A byte footprint inside one buffer and the one overlap test on it: the
// sanitizer's racecheck and the op graph's data-dependence lint both decide
// "do these two accesses touch a common byte" with boxes_overlap.
#pragma once

#include <cstddef>

namespace tidacc::sim {

/// Strided (box-shaped) byte footprint inside one buffer: `depth` slices
/// of `height` rows of `width` bytes, rows `row_pitch` apart and slices
/// `slice_pitch` apart, starting `offset` bytes into the buffer. A span
/// (ByteBox::span) is width=bytes, height=depth=1, no pitches.
struct ByteBox {
  std::size_t offset = 0;
  std::size_t width = 0;
  std::size_t height = 1;
  std::size_t depth = 1;
  std::size_t row_pitch = 0;
  std::size_t slice_pitch = 0;

  /// `bytes` contiguous bytes from `offset`.
  static ByteBox span(std::size_t offset, std::size_t bytes) {
    ByteBox b;
    b.offset = offset;
    b.width = bytes;
    return b;
  }

  template <typename Ar>
  void fields(Ar& ar) {
    ar(offset, width, height, depth, row_pitch, slice_pitch);
  }
};

/// One past the last byte the box can touch (counted like `offset`).
std::size_t box_end(const ByteBox& b);

/// True when the two footprints share at least one byte. Exact for spans,
/// same-pitch 2D boxes and boxes on one 3D grid; any other strided case
/// enumerates row pairs up to a cap, then falls back to conservative span
/// overlap.
bool boxes_overlap(const ByteBox& a, const ByteBox& b);

}  // namespace tidacc::sim

#include "sim/byte_box.hpp"

#include <cstdint>
#include <optional>

namespace tidacc::sim {
namespace {

/// Cap on exact row-pair enumeration in the generic overlap test; beyond
/// it the test degrades to conservative span overlap.
constexpr std::size_t kMaxRowPairs = 1 << 16;

bool box_empty(const ByteBox& b) {
  return b.width == 0 || b.height == 0 || b.depth == 0;
}

bool box_flat(const ByteBox& b) { return b.height <= 1 && b.depth <= 1; }

/// Exact O(1) overlap test for two 2D boxes sharing one row pitch (the hot
/// case: ghost halo vs interior boxes inside one slot allocation). Rows of
/// `a` live at a.offset + i*P, rows of `b` at b.offset + j*P; with widths
/// <= P the relative shift of any row pair is d mod P (or d mod P - P), so
/// overlap reduces to two residue checks plus an index-range check.
bool same_pitch_overlap(const ByteBox& a, const ByteBox& b,
                        std::size_t pitch) {
  const auto P = static_cast<std::int64_t>(pitch);
  const std::int64_t d = static_cast<std::int64_t>(b.offset) -
                         static_cast<std::int64_t>(a.offset);
  std::int64_t q = d / P;
  std::int64_t rr = d - q * P;
  if (rr < 0) {
    rr += P;
    --q;
  }
  const auto ha = static_cast<std::int64_t>(a.height);
  const auto hb = static_cast<std::int64_t>(b.height);
  const auto wa = static_cast<std::int64_t>(a.width);
  const auto wb = static_cast<std::int64_t>(b.width);
  // Row j of b overlaps row i of a iff -wb < rr + (q + j - i)*P < wa.
  // With wa, wb <= P only q + j - i in {0, -1} can land in that window.
  const auto ji_feasible = [&](std::int64_t ji) {
    return ji >= -(ha - 1) && ji <= hb - 1;
  };
  if (rr < wa && ji_feasible(-q)) return true;
  if (P - rr < wb && ji_feasible(-q - 1)) return true;
  return false;
}

/// Exact O(1) overlap test for two boxes on one 3D grid: the same row and
/// slice pitch, each row inside its slice and each box inside its rows
/// (every pitched sub-box of one slot or region buffer: ghost shells,
/// faces, interiors). Each offset then splits into (slice, row, column),
/// the footprints are index boxes, and they share a byte iff they meet in
/// every dimension. Empty when the boxes are not laid out that way.
std::optional<bool> same_grid_overlap(const ByteBox& a, const ByteBox& b) {
  const std::size_t rp = a.row_pitch;
  const std::size_t sp = a.slice_pitch;
  if (rp == 0 || sp == 0 || sp % rp != 0 || b.row_pitch != rp ||
      b.slice_pitch != sp) {
    return std::nullopt;
  }
  struct Extent {
    std::size_t lo[3];
    std::size_t hi[3];  // exclusive
  };
  const auto extent = [rp, sp](const ByteBox& x) -> std::optional<Extent> {
    const std::size_t slice = x.offset / sp;
    const std::size_t row = x.offset % sp / rp;
    const std::size_t col = x.offset % rp;
    if (col + x.width > rp || (row + x.height) * rp > sp) {
      return std::nullopt;  // wraps into the next row or slice
    }
    return Extent{{slice, row, col},
                  {slice + x.depth, row + x.height, col + x.width}};
  };
  const std::optional<Extent> ea = extent(a);
  const std::optional<Extent> eb = extent(b);
  if (!ea || !eb) {
    return std::nullopt;
  }
  for (int d = 0; d < 3; ++d) {
    if (ea->hi[d] <= eb->lo[d] || eb->hi[d] <= ea->lo[d]) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::size_t box_end(const ByteBox& b) {
  if (box_empty(b)) return b.offset;
  return b.offset + (b.depth - 1) * b.slice_pitch +
         (b.height - 1) * b.row_pitch + b.width;
}

bool boxes_overlap(const ByteBox& a, const ByteBox& b) {
  if (box_empty(a) || box_empty(b)) return false;
  if (box_end(a) <= b.offset || box_end(b) <= a.offset) return false;
  if (box_flat(a) && box_flat(b)) return true;
  if (a.depth <= 1 && b.depth <= 1 && a.row_pitch == b.row_pitch &&
      a.row_pitch > 0 && a.width <= a.row_pitch && b.width <= b.row_pitch) {
    // Treat a flat range as a 1-row box: same test applies.
    return same_pitch_overlap(a, b, a.row_pitch);
  }
  if (box_flat(a) && !box_flat(b) && b.row_pitch > 0 &&
      b.width <= b.row_pitch && b.depth <= 1 && a.width <= b.row_pitch) {
    ByteBox af = a;
    af.row_pitch = b.row_pitch;
    return same_pitch_overlap(af, b, b.row_pitch);
  }
  if (box_flat(b) && !box_flat(a) && a.row_pitch > 0 &&
      a.width <= a.row_pitch && a.depth <= 1 && b.width <= a.row_pitch) {
    ByteBox bf = b;
    bf.row_pitch = a.row_pitch;
    return same_pitch_overlap(a, bf, a.row_pitch);
  }
  if (const std::optional<bool> grid = same_grid_overlap(a, b)) {
    return *grid;
  }
  const std::size_t rows_a = a.height * a.depth;
  const std::size_t rows_b = b.height * b.depth;
  if (rows_a * rows_b > kMaxRowPairs) return true;  // conservative
  for (std::size_t sa = 0; sa < a.depth; ++sa) {
    for (std::size_t ra = 0; ra < a.height; ++ra) {
      const std::size_t astart =
          a.offset + sa * a.slice_pitch + ra * a.row_pitch;
      for (std::size_t sb = 0; sb < b.depth; ++sb) {
        for (std::size_t rb = 0; rb < b.height; ++rb) {
          const std::size_t bstart =
              b.offset + sb * b.slice_pitch + rb * b.row_pitch;
          if (astart < bstart + b.width && bstart < astart + a.width) {
            return true;
          }
        }
      }
    }
  }
  return false;
}

}  // namespace tidacc::sim

#include "tida/box.hpp"

#include <cstddef>
#include <ostream>
#include <sstream>

#include "tida/index.hpp"

namespace tidacc::tida {

std::string Index3::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Index3& idx) {
  return os << '(' << idx.i << ',' << idx.j << ',' << idx.k << ')';
}

std::string Box::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Box& b) {
  if (b.empty()) {
    return os << "[empty]";
  }
  return os << '[' << b.lo << ".." << b.hi << ']';
}

std::vector<Box> subtract(const Box& b, const Box& a) {
  if (b.empty()) {
    return {};
  }
  const Box x = b.intersect(a);
  if (x.empty()) {
    return {b};
  }
  if (x == b) {
    return {};
  }
  std::vector<Box> out;
  const auto push = [&out](const Box& piece) {
    if (!piece.empty()) {
      out.push_back(piece);
    }
  };
  // k-slabs below and above the overlap.
  push(Box{b.lo, {b.hi.i, b.hi.j, x.lo.k - 1}});
  push(Box{{b.lo.i, b.lo.j, x.hi.k + 1}, b.hi});
  // j-slabs within the overlap's k-range.
  push(Box{{b.lo.i, b.lo.j, x.lo.k}, {b.hi.i, x.lo.j - 1, x.hi.k}});
  push(Box{{b.lo.i, x.hi.j + 1, x.lo.k}, {b.hi.i, b.hi.j, x.hi.k}});
  // i-slabs within the overlap's j/k-range.
  push(Box{{b.lo.i, x.lo.j, x.lo.k}, {x.lo.i - 1, x.hi.j, x.hi.k}});
  push(Box{{x.hi.i + 1, x.lo.j, x.lo.k}, {b.hi.i, x.hi.j, x.hi.k}});
  return out;
}

void subtract_from_list(std::vector<Box>& list, const Box& b) {
  std::vector<Box> out;
  out.reserve(list.size());
  for (const Box& piece : list) {
    for (const Box& rest : subtract(piece, b)) {
      out.push_back(rest);
    }
  }
  list = std::move(out);
}

std::vector<Box> subtract_box(const Box& b, const std::vector<Box>& list) {
  std::vector<Box> pieces{b};
  if (b.empty()) {
    pieces.clear();
  }
  for (const Box& cut : list) {
    subtract_from_list(pieces, cut);
    if (pieces.empty()) {
      break;
    }
  }
  return pieces;
}

std::uint64_t list_volume(const std::vector<Box>& list) {
  std::uint64_t cells = 0;
  for (const Box& b : list) {
    cells += b.volume();
  }
  return cells;
}

Box bounding_box(const std::vector<Box>& list) {
  Box bb;  // empty
  for (const Box& b : list) {
    if (b.empty()) {
      continue;
    }
    if (bb.empty()) {
      bb = b;
    } else {
      bb = Box{Index3::min(bb.lo, b.lo), Index3::max(bb.hi, b.hi)};
    }
  }
  return bb;
}

namespace {

int component(const Index3& p, int axis) {
  return axis == 0 ? p.i : (axis == 1 ? p.j : p.k);
}

/// The box `a ∪ b` when it is one: `b` inside `a` (or the reverse), or
/// both equal on the two axes other than `axis` and touching or
/// overlapping along it. Empty otherwise.
Box union_along(const Box& a, const Box& b, int axis) {
  if (a.contains(b)) {
    return a;
  }
  if (b.contains(a)) {
    return b;
  }
  for (int d = 0; d < 3; ++d) {
    if (d != axis && (component(a.lo, d) != component(b.lo, d) ||
                      component(a.hi, d) != component(b.hi, d))) {
      return Box{};
    }
  }
  if (component(a.lo, axis) > component(b.hi, axis) + 1 ||
      component(b.lo, axis) > component(a.hi, axis) + 1) {
    return Box{};
  }
  return Box{Index3::min(a.lo, b.lo), Index3::max(a.hi, b.hi)};
}

}  // namespace

std::vector<Box> coalesce(std::vector<Box> list) {
  std::erase_if(list, [](const Box& b) { return b.empty(); });
  bool merged = true;
  while (merged) {
    merged = false;
    for (int axis = 0; axis < 3; ++axis) {
      for (std::size_t a = 0; a < list.size(); ++a) {
        for (std::size_t b = a + 1; b < list.size();) {
          const Box u = union_along(list[a], list[b], axis);
          if (u.empty()) {
            ++b;
            continue;
          }
          // The grown box may now merge with a piece it skipped before.
          list[a] = u;
          list.erase(list.begin() + static_cast<std::ptrdiff_t>(b));
          b = a + 1;
          merged = true;
        }
      }
    }
  }
  return list;
}

std::vector<Box> ghost_shells(const Box& valid, int g) {
  return subtract(valid.grow(g), valid);
}

Box trapezoid_range(const Box& valid, int radius, int k, int s) {
  return valid.grow(radius * (k - 1 - s));
}

std::vector<Box> temporal_shells(const Box& valid, int radius, int k) {
  return ghost_shells(valid, radius * k);
}

}  // namespace tidacc::tida

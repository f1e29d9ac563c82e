#include "tida/ghost.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/weak_registry.hpp"
#include "sim/platform.hpp"

namespace tidacc::tida {

const char* to_string(Boundary b) {
  switch (b) {
    case Boundary::kNone:
      return "none";
    case Boundary::kPeriodic:
      return "periodic";
  }
  return "?";
}

namespace {

/// A 1D interval with the periodic wrap shift that maps it into the domain,
/// and the region-grid coordinates [first, last] of the regions its source
/// cells (interval + shift) lie in.
struct Segment {
  int lo;
  int hi;     // inclusive
  int shift;  // src = dst + shift
  int first;
  int last;
};

/// The non-empty parts of a 1D interval: at most three.
struct Segments {
  std::array<Segment, 3> seg{};
  int count = 0;

  const Segment* begin() const { return seg.data(); }
  const Segment* end() const { return seg.data() + count; }
};

/// One dimension of a partition's region grid: per grid coordinate, the
/// valid range of its regions and the segments of their ghost piece on each
/// side — the band below the range, the range itself, the band above. The
/// regions form a tensor grid, so a region's ghost pieces are products of
/// one side per dimension, and their sub-boxes of uniform wrap products of
/// one segment per side.
struct Axis {
  std::vector<int> lo;
  std::vector<int> hi;
  std::vector<std::array<Segments, 3>> sides;
};

Axis axis(int dlo, int dhi, int size, int ghost, bool periodic) {
  const int extent = dhi - dlo + 1;
  const int n = (extent + size - 1) / size;
  const auto coord = [dlo, size](int cell) { return (cell - dlo) / size; };
  // Splits [lo, hi] against the domain, in order: below it (wraps by
  // +extent), inside (no wrap), above (wraps by -extent). Without a
  // periodic boundary the outside parts are dropped, and so is every empty
  // part.
  const auto split = [&](int lo, int hi) {
    Segments out;
    const auto add = [&](int a, int b, int shift) {
      if (a <= b) {
        out.seg[static_cast<std::size_t>(out.count++)] =
            Segment{a, b, shift, coord(a + shift), coord(b + shift)};
      }
    };
    if (periodic) {
      add(lo, std::min(hi, dlo - 1), extent);
    }
    add(std::max(lo, dlo), std::min(hi, dhi), 0);
    if (periodic) {
      add(std::max(lo, dhi + 1), hi, -extent);
    }
    return out;
  };
  Axis a;
  for (int g = 0; g < n; ++g) {
    const int lo = dlo + g * size;
    const int hi = std::min(lo + size - 1, dhi);
    a.lo.push_back(lo);
    a.hi.push_back(hi);
    a.sides.push_back({split(lo - ghost, lo - 1), split(lo, hi),
                       split(hi + 1, hi + ghost)});
  }
  return a;
}

}  // namespace

std::vector<GhostCopy> compute_exchange_plan(const Partition& part, int ghost,
                                             Boundary bc) {
  TIDACC_CHECK_MSG(ghost >= 0, "negative ghost width");
  std::vector<GhostCopy> plan;
  if (ghost == 0) {
    return plan;
  }
  const Box& domain = part.domain();
  const bool periodic = bc == Boundary::kPeriodic;
  TIDACC_CHECK_MSG(
      !periodic || (domain.extent().i >= ghost && domain.extent().j >= ghost &&
                    domain.extent().k >= ghost),
      "periodic exchange requires domain extent >= ghost width");
  plan.reserve(static_cast<std::size_t>(part.num_regions()) *
               descriptors_per_region(part, ghost));

  const Index3 size = part.region_size();
  const Index3 grid = part.grid_dims();
  const Axis ai = axis(domain.lo.i, domain.hi.i, size.i, ghost, periodic);
  const Axis aj = axis(domain.lo.j, domain.hi.j, size.j, ghost, periodic);
  const Axis ak = axis(domain.lo.k, domain.hi.k, size.k, ghost, periodic);
  // Appends the copies feeding one sub-box of `dst`'s ghost zone of uniform
  // wrap, the product of segments si, sj and sk: one per region its source
  // cells lie in, by ascending id.
  const auto feed = [&](int dst, const Segment& si, const Segment& sj,
                        const Segment& sk) {
    const Index3 shift{si.shift, sj.shift, sk.shift};
    for (int qk = sk.first; qk <= sk.last; ++qk) {
      for (int qj = sj.first; qj <= sj.last; ++qj) {
        for (int qi = si.first; qi <= si.last; ++qi) {
          const auto i = static_cast<std::size_t>(qi);
          const auto j = static_cast<std::size_t>(qj);
          const auto k = static_cast<std::size_t>(qk);
          const Box piece{{std::max(si.lo + si.shift, ai.lo[i]),
                           std::max(sj.lo + sj.shift, aj.lo[j]),
                           std::max(sk.lo + sk.shift, ak.lo[k])},
                          {std::min(si.hi + si.shift, ai.hi[i]),
                           std::min(sj.hi + sj.shift, aj.hi[j]),
                           std::min(sk.hi + sk.shift, ak.hi[k])}};
          plan.push_back(GhostCopy{(qk * grid.j + qj) * grid.i + qi, dst,
                                   piece, piece.shift(-shift), shift});
        }
      }
    }
  };
  for (int dst = 0; dst < part.num_regions(); ++dst) {
    const Index3 g = part.grid_coord(dst);
    const auto& sides_i = ai.sides[static_cast<std::size_t>(g.i)];
    const auto& sides_j = aj.sides[static_cast<std::size_t>(g.j)];
    const auto& sides_k = ak.sides[static_cast<std::size_t>(g.k)];
    // The 26 face/edge/corner boxes tiling the ghost zone of `dst`, each
    // split into its sub-boxes of uniform wrap.
    for (std::size_t dk = 0; dk < 3; ++dk) {
      for (std::size_t dj = 0; dj < 3; ++dj) {
        for (std::size_t di = 0; di < 3; ++di) {
          if (di == 1 && dj == 1 && dk == 1) {
            continue;  // the valid box itself
          }
          for (const Segment& si : sides_i[di]) {
            for (const Segment& sj : sides_j[dj]) {
              for (const Segment& sk : sides_k[dk]) {
                feed(dst, si, sj, sk);
              }
            }
          }
        }
      }
    }
  }
  return plan;
}

std::uint64_t plan_cells(const std::vector<GhostCopy>& plan) {
  std::uint64_t cells = 0;
  for (const GhostCopy& c : plan) {
    cells += c.dst_box.volume();
  }
  return cells;
}

std::size_t descriptors_per_region(const Partition& part, int ghost) {
  if (ghost == 0) {
    return 0;
  }
  Index3 m = part.domain().extent();
  for (int r = 0; r < part.num_regions(); ++r) {
    m = Index3::min(m, part.region_box(r).extent());
  }
  std::size_t pieces = 1;
  for (const int extent : {m.i, m.j, m.k}) {
    pieces *= 1 + 2 * static_cast<std::size_t>((ghost + extent - 1) / extent);
  }
  return pieces - 1;
}

PairIndex index_pairs(const std::vector<GhostCopy>& plan, int num_regions) {
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  PairIndex index;
  index.into.resize(static_cast<std::size_t>(num_regions));
  index.copies.resize(plan.size());
  // The pair of each source region within the current destination.
  std::vector<std::size_t> pair_of(static_cast<std::size_t>(num_regions),
                                   kNone);
  for (std::size_t begin = 0; begin < plan.size();) {
    const int dst = plan[begin].dst_region;
    const std::size_t first = index.pairs.size();
    auto& into = index.into[static_cast<std::size_t>(dst)];
    TIDACC_CHECK_MSG(into.first == into.second,
                     "exchange plan not grouped by destination");
    // The destination's pairs, in order of first copy, with their copy
    // counts (in `end` for now) and cells.
    std::size_t end = begin;
    for (; end < plan.size() && plan[end].dst_region == dst; ++end) {
      const GhostCopy& c = plan[end];
      std::size_t& p = pair_of[static_cast<std::size_t>(c.src_region)];
      if (p == kNone) {
        p = index.pairs.size();
        index.pairs.push_back(RegionPair{c.src_region, dst});
      }
      ++index.pairs[p].end;
      index.pairs[p].cells += c.dst_box.volume();
    }
    // The destination's copies fill [begin, end) of `copies` too, pair by
    // pair.
    std::size_t at = begin;
    for (std::size_t p = first; p < index.pairs.size(); ++p) {
      RegionPair& pair = index.pairs[p];
      const std::size_t count = pair.end;
      pair.begin = pair.end = at;
      at += count;
      index.cells += pair.cells;
    }
    for (std::size_t c = begin; c < end; ++c) {
      RegionPair& pair = index.pairs[pair_of[static_cast<std::size_t>(
          plan[c].src_region)]];
      index.copies[pair.end++] = c;
    }
    for (std::size_t p = first; p < index.pairs.size(); ++p) {
      pair_of[static_cast<std::size_t>(index.pairs[p].src_region)] = kNone;
    }
    into = {first, index.pairs.size()};
    begin = end;
  }
  return index;
}

LayoutPlans::LayoutPlans(Partition part, int ghost)
    : part_(std::move(part)), ghost_(ghost) {}

std::shared_ptr<LayoutPlans> LayoutPlans::of(const Partition& part,
                                             int ghost) {
  // A partition follows from its domain and region size.
  struct Key {
    Box domain;
    Index3 region_size;
    int ghost = 0;
    std::uint64_t generation = 0;
    bool operator==(const Key&) const = default;
  };
  static WeakRegistry<Key, LayoutPlans> live;
  return live.get(
      Key{part.domain(), part.region_size(), ghost,
          sim::Platform::generation()},
      [&] { return std::make_shared<LayoutPlans>(part, ghost); });
}

const std::vector<GhostCopy>& LayoutPlans::plan(Boundary bc) {
  std::optional<std::vector<GhostCopy>>& p =
      plans_[static_cast<std::size_t>(bc)];
  if (!p) {
    p = compute_exchange_plan(part_, ghost_, bc);
  }
  return *p;
}

const PairIndex& LayoutPlans::pairs(Boundary bc) {
  std::optional<PairIndex>& p = pairs_[static_cast<std::size_t>(bc)];
  if (!p) {
    p = index_pairs(plan(bc), part_.num_regions());
  }
  return *p;
}

}  // namespace tidacc::tida

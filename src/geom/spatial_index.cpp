#include "geom/spatial_index.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <numeric>

namespace kc {

std::int64_t grid_coord(double x, double w) noexcept {
  return static_cast<std::int64_t>(
      std::clamp(std::floor(x / w), -kGridCoordClamp, kGridCoordClamp));
}

void grid_cell_key(std::span<const double> p, double w,
                   std::span<std::int64_t> key) noexcept {
  for (std::size_t c = 0; c < p.size(); ++c) key[c] = grid_coord(p[c], w);
}

bool force_no_prune_requested() noexcept {
  static const bool forced = [] {
    const char* env = std::getenv("KC_FORCE_NO_PRUNE");
    return env != nullptr && std::string_view{env} != "0";
  }();
  return forced;
}

namespace {

/// Average points-per-occupied-cell the width tuner aims for. Low
/// enough that a cell is a meaningful prune unit, high enough that the
/// per-cell bound test, bound refresh, and kernel-call overhead
/// amortize over a cache-friendly contiguous run — measured on the
/// pruned-scan matrix, fine grids (occupancy ~30) lose more to those
/// fixed costs than the extra pruning wins.
constexpr std::size_t kTargetOccupancy = 1024;

/// Floor on average occupancy enforced by the doubling loop: more than
/// n / kMinOccupancy occupied cells means cells are too fine to pay for
/// their bound tests, so the width doubles until they merge.
constexpr std::size_t kMinOccupancy = 16;

/// Linf data radius seen from the first point — one uncounted scalar
/// pass, the same probe shape GON's first round performs. Any metric
/// would do for tuning a cell width; Linf is the cheapest and matches
/// the grid's axis-aligned geometry.
double probe_radius(const PointSet& pts) noexcept {
  const std::size_t n = pts.size();
  const std::size_t dim = pts.dim();
  const double* origin = pts.data(0);
  const double* row = pts.raw().data();
  double r = 0.0;
  for (std::size_t i = 0; i < n; ++i, row += dim) {
    double d = 0.0;
    for (std::size_t c = 0; c < dim; ++c) {
      const double g = std::fabs(row[c] - origin[c]);
      if (g > d) d = g;
    }
    if (d > r) r = d;
  }
  return r;
}

/// The distinct grid keys of one width, numbered in first-seen order:
/// an open-addressing hash set over the snapped keys, so counting a
/// width's occupied cells is one O(n * dim) pass with no sort and no
/// per-point key storage. The numbering is hash-independent (first
/// occurrence in walk order), so nothing the index or the coreset
/// exposes depends on the hash function.
class CellTable {
 public:
  explicit CellTable(std::size_t dim)
      : dim_(dim), key_(dim), slots_(64, kEmpty) {}

  /// Snaps every point at width `w` and returns the number of distinct
  /// keys, stopping as soon as that number exceeds `limit`. When
  /// `first_seen` is given (n entries), point i's entry receives the
  /// number of its key.
  std::size_t assign(const PointSet& pts, double w, std::size_t limit,
                     std::uint32_t* first_seen) {
    std::fill(slots_.begin(), slots_.end(), kEmpty);
    keys_.clear();
    hashes_.clear();
    const std::size_t n = pts.size();
    const double* row = pts.raw().data();
    for (std::size_t i = 0; i < n; ++i, row += dim_) {
      const std::uint32_t id = insert(row, w);
      if (hashes_.size() > limit) return hashes_.size();
      if (first_seen != nullptr) first_seen[i] = id;
    }
    return hashes_.size();
  }

  /// Snaps the point at `row` (dim coordinates) at width `w` and returns
  /// the number of its key: a key not seen before gets the next number.
  std::uint32_t insert(const double* row, double w) {
    grid_cell_key({row, dim_}, w, key_);
    return find_or_insert();
  }

  /// The dim coordinates of key number `id`.
  [[nodiscard]] const std::int64_t* key(std::uint32_t id) const noexcept {
    return keys_.data() + std::size_t{id} * dim_;
  }

 private:
  static constexpr std::uint32_t kEmpty = UINT32_MAX;
  /// Slots per key, at least: with points arriving in no spatial
  /// order, every probe past the first is a mispredicted branch, and at
  /// 4 bytes a slot a sparse table is cheap. Load <= 1/8 measured ~10%
  /// faster per trial than load <= 1/2 on 1M clustered 2-D points.
  static constexpr std::size_t kSparsity = 8;

  [[nodiscard]] std::uint64_t hash() const noexcept {
    std::uint64_t h = 0;
    for (const std::int64_t k : key_) {
      h = (h ^ static_cast<std::uint64_t>(k)) * 0x9E3779B97F4A7C15ULL;
    }
    h ^= h >> 33;  // murmur3 finalizer: spread the high bits into the mask
    h *= 0xFF51AFD7ED558CCDULL;
    return h ^ (h >> 33);
  }

  std::uint32_t find_or_insert() {
    const std::uint64_t h = hash();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = h & mask;; s = (s + 1) & mask) {
      const std::uint32_t id = slots_[s];
      if (id == kEmpty) {
        slots_[s] = static_cast<std::uint32_t>(hashes_.size());
        break;
      }
      if (hashes_[id] == h) {
        const std::int64_t* k = key(id);
        std::size_t c = 0;
        while (c < dim_ && k[c] == key_[c]) ++c;
        if (c == dim_) return id;
      }
    }
    const auto id = static_cast<std::uint32_t>(hashes_.size());
    hashes_.push_back(h);
    keys_.insert(keys_.end(), key_.begin(), key_.end());
    if (kSparsity * hashes_.size() > slots_.size()) grow();
    return id;
  }

  /// Doubles the slot array and re-seats every key from its stored hash.
  void grow() {
    slots_.assign(2 * slots_.size(), kEmpty);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t id = 0; id < hashes_.size(); ++id) {
      std::size_t s = hashes_[id] & mask;
      while (slots_[s] != kEmpty) s = (s + 1) & mask;
      slots_[s] = static_cast<std::uint32_t>(id);
    }
  }

  std::size_t dim_;
  std::vector<std::int64_t> key_;      ///< the point being snapped
  std::vector<std::uint32_t> slots_;   ///< key number, or kEmpty
  std::vector<std::int64_t> keys_;     ///< distinct keys, dim each
  std::vector<std::uint64_t> hashes_;  ///< per distinct key, its hash
};

}  // namespace

std::vector<index_t> first_point_per_cell(const PointSet& points,
                                          std::span<const index_t> ids,
                                          double w, std::size_t limit) {
  CellTable table(points.dim());
  std::vector<index_t> firsts;
  for (const index_t id : ids) {
    if (table.insert(points.data(id), w) < firsts.size()) continue;
    firsts.push_back(id);
    if (firsts.size() > limit) break;
  }
  return firsts;
}

SpatialIndex::SpatialIndex(const PointSet& points)
    : points_(&points), dim_(points.dim()) {
  const std::size_t n = points.size();
  if (n == 0 || dim_ == 0) {
    order_.resize(n);
    std::iota(order_.begin(), order_.end(), index_t{0});
    cell_begin_ = {0, n};
    if (n > 0) {
      rows_.assign(points.raw().begin(), points.raw().end());
    }
    return;
  }

  // Initial width: carve the probe diameter so a uniform spread lands
  // near kTargetOccupancy points per cell. Degenerate spreads (all
  // points equal) collapse to one cell at unit width.
  const double radius = probe_radius(points);
  double width = 1.0;
  if (radius > 0.0) {
    const double target_cells =
        std::max(1.0, static_cast<double>(n) /
                          static_cast<double>(kTargetOccupancy));
    const double per_axis = std::clamp(
        std::ceil(std::pow(target_cells, 1.0 / static_cast<double>(dim_))),
        1.0, 4096.0);
    width = 2.0 * radius / per_axis;
  }

  // Each trial only needs "how many cells, or over the cap": a count
  // past the cap reads as cap + 1, which every rule below treats the
  // same as the full count.
  CellTable table(dim_);
  const std::size_t cell_cap = std::max<std::size_t>(1, n / kMinOccupancy);
  const auto count = [&](double w) {
    return table.assign(points, w, cell_cap, nullptr);
  };

  // Coarsen first: too many occupied cells means the bound tests cannot
  // amortize, so double until they merge under the cap.
  std::size_t occupied = count(width);
  int attempts = 0;
  while (occupied > cell_cap && attempts++ < 200) {
    width *= 2.0;
    occupied = count(width);
  }
  // Then refine: the initial width assumes a uniform spread, so tightly
  // clustered data (the paper's GAU shapes) lands orders of magnitude
  // too coarse — whole clusters collapse into single cells and the
  // bounds prune nothing inside them. Halve while the halving actually
  // splits cells (duplicate-heavy data stops making progress) and the
  // count stays under the cap.
  while (attempts++ < 200 && occupied * kTargetOccupancy < n) {
    const double half = width / 2.0;
    if (!(half > 0.0) || !std::isfinite(half)) break;
    const std::size_t split = count(half);
    if (split > cell_cap || split <= occupied) break;
    width = half;
    occupied = split;
  }
  width_ = width;

  // The kept width: one uncapped pass numbers each point's cell in
  // first-seen order (coarsening may have given up above the cap, so
  // the table grows as needed). Ranking the distinct keys
  // lexicographically turns that into the cell order.
  std::vector<std::uint32_t> cell_of(n);
  const std::size_t cells = table.assign(points, width, n, cell_of.data());
  std::vector<std::uint32_t> by_key(cells);
  std::iota(by_key.begin(), by_key.end(), std::uint32_t{0});
  const auto key_less = [&](std::uint32_t a, std::uint32_t b) {
    const std::int64_t* ka = table.key(a);
    const std::int64_t* kb = table.key(b);
    return std::lexicographical_compare(ka, ka + dim_, kb, kb + dim_);
  };
  std::sort(by_key.begin(), by_key.end(), key_less);
  std::vector<std::uint32_t> cell_of_key(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    cell_of_key[by_key[c]] = static_cast<std::uint32_t>(c);
  }
  cell_begin_.assign(cells + 1, 0);
  for (std::uint32_t& c : cell_of) {
    c = cell_of_key[c];
    ++cell_begin_[c + 1];
  }
  std::partial_sum(cell_begin_.begin(), cell_begin_.end(),
                   cell_begin_.begin());

  // One stable counting sort: visiting ids in ascending order places
  // them ascending within each cell, copies each row into its permuted
  // 64B-aligned slot, and folds each cell's exact member bounding box
  // in that same member order (the first member seeds the box).
  order_.resize(n);
  rows_.resize(n * dim_);
  bbox_.assign(2 * cells * dim_, 0.0);
  std::vector<std::size_t> next(cell_begin_.begin(), cell_begin_.end() - 1);
  const double* src = points.raw().data();
  for (std::size_t i = 0; i < n; ++i, src += dim_) {
    const std::uint32_t cell = cell_of[i];
    const std::size_t j = next[cell]++;
    order_[j] = static_cast<index_t>(i);
    std::copy(src, src + dim_, rows_.data() + j * dim_);
    double* lo = bbox_.data() + 2 * std::size_t{cell} * dim_;
    double* hi = lo + dim_;
    if (j == cell_begin_[cell]) {
      std::copy(src, src + dim_, lo);
      std::copy(src, src + dim_, hi);
    } else {
      for (std::size_t c = 0; c < dim_; ++c) {
        lo[c] = std::min(lo[c], src[c]);
        hi[c] = std::max(hi[c], src[c]);
      }
    }
  }
}

double box_mindist_comparable(MetricKind kind, const double* p,
                              const double* lo, const double* hi,
                              std::size_t dim) noexcept {
  const auto gap = [&](std::size_t d) {
    return p[d] < lo[d] ? lo[d] - p[d] : p[d] > hi[d] ? p[d] - hi[d] : 0.0;
  };
  double acc = 0.0;
  switch (kind) {
    case MetricKind::L2:
      for (std::size_t d = 0; d < dim; ++d) {
        const double g = gap(d);
        acc += g * g;
      }
      break;
    case MetricKind::L1:
      for (std::size_t d = 0; d < dim; ++d) acc += gap(d);
      break;
    case MetricKind::Linf:
      for (std::size_t d = 0; d < dim; ++d) {
        const double g = gap(d);
        if (g > acc) acc = g;
      }
      break;
  }
  return acc;
}

double SpatialIndex::cell_mindist_comparable(MetricKind kind,
                                             const double* center,
                                             std::size_t c) const noexcept {
  return box_mindist_comparable(kind, center, cell_lo(c), cell_hi(c), dim_);
}

SampleBoxes::SampleBoxes(const PointSet& points,
                         std::span<const index_t> centers)
    : dim_(points.dim()), members_(centers.begin(), centers.end()) {
  const std::size_t n = members_.size();
  const auto coord = [&](index_t id, std::size_t axis) {
    return points.data(id)[axis];
  };
  // Exact box of members_[b, e), folded in member order.
  const auto fit_box = [&](std::size_t b, std::size_t e, double* box) {
    const double* first = points.data(members_[b]);
    std::copy(first, first + dim_, box);
    std::copy(first, first + dim_, box + dim_);
    for (std::size_t i = b + 1; i < e; ++i) {
      const double* p = points.data(members_[i]);
      for (std::size_t d = 0; d < dim_; ++d) {
        box[d] = std::min(box[d], p[d]);
        box[dim_ + d] = std::max(box[dim_ + d], p[d]);
      }
    }
  };
  begin_.assign(1, 0);
  if (n > 0) {
    begin_.push_back(n);
    box_.resize(2 * dim_);
    fit_box(0, n, box_.data());
  }

  const std::size_t target =
      std::min(kSampleBoxGroups, n / kSampleBoxMinMembers);
  while (group_count() < target) {
    std::size_t split = 0;
    std::size_t axis = 0;
    double widest = 0.0;
    for (std::size_t g = 0; g < group_count(); ++g) {
      for (std::size_t d = 0; d < dim_; ++d) {
        const double w = hi(g)[d] - lo(g)[d];
        if (w > widest) {
          widest = w;
          split = g;
          axis = d;
        }
      }
    }
    if (!(widest > 0.0)) break;  // every box is a single point

    const std::size_t b = begin_[split];
    const std::size_t e = begin_[split + 1];
    const double mid =
        lo(split)[axis] + 0.5 * (hi(split)[axis] - lo(split)[axis]);
    const auto first = members_.begin() + static_cast<std::ptrdiff_t>(b);
    const auto last = members_.begin() + static_cast<std::ptrdiff_t>(e);
    const auto below = std::stable_partition(
        first, last, [&](index_t id) { return coord(id, axis) < mid; });
    std::size_t cut = b + static_cast<std::size_t>(below - first);
    if (cut == b || cut == e) {
      // The rounded midpoint sits on a box edge (adjacent doubles, or a
      // side too wide to halve): split at the median rank instead, ties
      // by input position. A side wider than zero has two distinct
      // members, so both halves are non-empty.
      std::vector<std::size_t> rank(e - b);
      std::iota(rank.begin(), rank.end(), std::size_t{0});
      std::stable_sort(rank.begin(), rank.end(),
                       [&](std::size_t x, std::size_t y) {
                         return coord(members_[b + x], axis) <
                                coord(members_[b + y], axis);
                       });
      // Each half back in input order.
      const auto half =
          rank.begin() + static_cast<std::ptrdiff_t>(rank.size() / 2);
      std::sort(rank.begin(), half);
      std::sort(half, rank.end());
      std::vector<index_t> parted(rank.size());
      for (std::size_t i = 0; i < rank.size(); ++i) {
        parted[i] = members_[b + rank[i]];
      }
      std::copy(parted.begin(), parted.end(), first);
      cut = b + rank.size() / 2;
    }
    begin_.insert(begin_.begin() + static_cast<std::ptrdiff_t>(split + 1),
                  cut);
    box_.insert(
        box_.begin() + static_cast<std::ptrdiff_t>(2 * dim_ * (split + 1)),
        2 * dim_, 0.0);
    fit_box(b, cut, box_.data() + 2 * dim_ * split);
    fit_box(cut, e, box_.data() + 2 * dim_ * (split + 1));
  }

  // Coordinate-major rows per group, padded with +inf lanes.
  lane_begin_.assign(1, 0);
  for (std::size_t g = 0; g < group_count(); ++g) {
    const std::size_t padded = (group_size(g) + kSampleBoxLanes - 1) /
                               kSampleBoxLanes * kSampleBoxLanes;
    lane_begin_.push_back(lane_begin_.back() + padded);
  }
  soa_.assign(dim_ * lane_begin_.back(),
              std::numeric_limits<double>::infinity());
  for (std::size_t g = 0; g < group_count(); ++g) {
    double* block = soa_.data() + dim_ * lane_begin_[g];
    const std::size_t ld = lanes(g);
    for (std::size_t j = 0; j < group_size(g); ++j) {
      const double* p = points.data(members_[begin_[g] + j]);
      for (std::size_t d = 0; d < dim_; ++d) block[d * ld + j] = p[d];
    }
  }
}

}  // namespace kc

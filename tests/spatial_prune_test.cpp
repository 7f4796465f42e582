// Spatial-pruning suite: the cell-pruned scans and the sample-box scans
// (geom/spatial_index.hpp) must be **bit-identical** to the unpruned
// path — pruning may only skip pairs the triangle inequality proves
// cannot win — while charging
// strictly no more distance evaluations, splitting the skipped pairs
// into the pruned_pairs counter, and honouring the same budget/cancel
// gating contract as the unpruned scans on every backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <span>
#include <string_view>
#include <vector>

#include "algo/gonzalez.hpp"
#include "api/registry.hpp"
#include "api/solver.hpp"
#include "core/eim.hpp"
#include "data/generators.hpp"
#include "exec/backend.hpp"
#include "exec/chunk_context.hpp"
#include "geom/counters.hpp"
#include "geom/distance.hpp"
#include "geom/spatial_index.hpp"
#include "rng/rng.hpp"
#include "test_util.hpp"

namespace kc {
namespace {

void expect_bit_identical(const std::vector<double>& got,
                          const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "element " << i << ": " << got[i] << " vs " << want[i];
  }
}

/// The three input shapes pruning must handle: tight clusters (the case
/// it exists for), uniform spread (little to prune), and duplicate-heavy
/// data (giant cells, the degenerate-grid path).
PointSet make_input(int shape, std::size_t n, std::size_t dim, Rng& rng) {
  switch (shape) {
    case 0: return data::generate_gau(n, 8, dim, 100.0, 0.1, rng);
    case 1: return data::generate_unif(n, dim, 100.0, rng);
    default: {
      // ~12 distinct locations, each repeated many times exactly.
      PointSet distinct = data::generate_unif(12, dim, 100.0, rng);
      PointSet out;
      for (std::size_t i = 0; i < n; ++i) {
        out.push_back(
            distinct[static_cast<index_t>(rng.uniform_int(distinct.size()))]);
      }
      return out;
    }
  }
}

const char* shape_name(int shape) {
  return shape == 0 ? "clustered" : shape == 1 ? "uniform" : "duplicates";
}

/// `count` distinct ids from [lo, lo + range), in random order.
std::vector<index_t> shuffled_ids(std::size_t lo, std::size_t range,
                                  std::size_t count, Rng& rng) {
  std::vector<index_t> ids(range);
  std::iota(ids.begin(), ids.end(), static_cast<index_t>(lo));
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(ids[i], ids[i + rng.uniform_int(range - i)]);
  }
  ids.resize(count);
  return ids;
}

// ------------------------------------------------------- index structure

TEST(SpatialIndex, GridHelpersMatchTheSharedSnappingRule) {
  EXPECT_EQ(grid_coord(0.0, 1.0), 0);
  EXPECT_EQ(grid_coord(2.5, 1.0), 2);
  EXPECT_EQ(grid_coord(-0.5, 1.0), -1);  // floor, not trunc
  EXPECT_EQ(grid_coord(7.0, 3.5), 2);
  // Saturation: huge coordinate over tiny width clamps, no UB cast.
  EXPECT_EQ(grid_coord(1e300, 1e-30), static_cast<std::int64_t>(9.0e18));
  EXPECT_EQ(grid_coord(-1e300, 1e-30), static_cast<std::int64_t>(-9.0e18));
}

TEST(SpatialIndex, CellsPartitionPointsAndBoxesContainMembers) {
  Rng rng(321);
  for (int shape = 0; shape < 3; ++shape) {
    for (const std::size_t dim : {1u, 2u, 3u, 7u}) {
      const PointSet pts = make_input(shape, 2000, dim, rng);
      const SpatialIndex index(pts);
      SCOPED_TRACE(std::string(shape_name(shape)) + " dim=" +
                   std::to_string(dim));

      ASSERT_EQ(index.size(), pts.size());
      ASSERT_GE(index.cell_count(), 1u);
      EXPECT_EQ(index.cell_begin(0), 0u);

      // order() is a permutation; cell runs tile it; every member lies
      // inside its cell's bounding box and shares its cell's grid key;
      // the permuted rows are bitwise copies of the source rows.
      std::vector<bool> seen(pts.size(), false);
      std::vector<std::int64_t> key(dim), key0(dim);
      for (std::size_t c = 0; c < index.cell_count(); ++c) {
        const std::size_t base = index.cell_begin(c);
        const std::size_t sz = index.cell_size(c);
        ASSERT_GE(sz, 1u);
        grid_cell_key(pts[index.order()[base]], index.cell_width(), key0);
        for (std::size_t j = 0; j < sz; ++j) {
          const index_t id = index.order()[base + j];
          EXPECT_FALSE(seen[id]);
          seen[id] = true;
          grid_cell_key(pts[id], index.cell_width(), key);
          EXPECT_EQ(key, key0) << "member outside its cell's grid key";
          for (std::size_t d = 0; d < dim; ++d) {
            EXPECT_LE(index.cell_lo(c)[d], pts[id][d]);
            EXPECT_GE(index.cell_hi(c)[d], pts[id][d]);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(
                          index.rows()[(base + j) * dim + d]),
                      std::bit_cast<std::uint64_t>(pts[id][d]));
          }
        }
      }
      for (const bool s : seen) EXPECT_TRUE(s);
    }
  }
}

/// Reference coreset snapping: the std::map loop CCM's grid round ran
/// before it shared the index's cell table, kept for this test only.
/// The first point of each cell of width `w`, in `ids` order, with exact
/// keys, stopping once more than `limit` cells are occupied.
std::vector<index_t> reference_first_per_cell(const PointSet& points,
                                              std::span<const index_t> ids,
                                              double w, std::size_t limit) {
  std::vector<index_t> reps;
  std::map<std::vector<std::int64_t>, index_t> cells;
  std::vector<std::int64_t> key(points.dim());
  for (const index_t id : ids) {
    grid_cell_key(points[id], w, key);
    if (cells.try_emplace(key, id).second) {
      reps.push_back(id);
      if (reps.size() > limit) break;
    }
  }
  return reps;
}

/// first_point_per_cell against the reference: the same points in the
/// same order uncapped, and under limits below, at and above the cell
/// count, the reference's first limit + 1 exactly when the cells
/// outnumber the limit.
void expect_same_firsts(const PointSet& pts, std::span<const index_t> ids,
                        double w) {
  const std::vector<index_t> all =
      reference_first_per_cell(pts, ids, w, ids.size());
  ASSERT_EQ(first_point_per_cell(pts, ids, w, ids.size()), all);
  const std::size_t cells = all.size();
  for (const std::size_t limit :
       {std::size_t{0}, cells / 2, cells - 1, cells, cells + 1}) {
    SCOPED_TRACE("limit=" + std::to_string(limit) + " of " +
                 std::to_string(cells) + " cells");
    const std::vector<index_t> got = first_point_per_cell(pts, ids, w, limit);
    const std::size_t want = cells > limit ? limit + 1 : cells;
    ASSERT_EQ(got.size(), want);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), all.begin()));
  }
}

TEST(SpatialIndex, FirstPointPerCellMatchesTheMapReference) {
  Rng rng(606);
  for (int shape = 0; shape < 3; ++shape) {
    for (std::size_t dim = 1; dim <= 8; ++dim) {
      const std::size_t n = 1200;
      const PointSet pts = make_input(shape, n, dim, rng);
      // A block of ids in id order (a Block partition's part), and every
      // id shuffled (a Random partition's).
      const std::vector<index_t> all = pts.all_indices();
      const std::vector<index_t> shuffled = shuffled_ids(0, n, n, rng);
      for (const double w : {0.05, 1.0, 20.0}) {
        SCOPED_TRACE(std::string(shape_name(shape)) + " dim=" +
                     std::to_string(dim) + " w=" + std::to_string(w));
        expect_same_firsts(pts, std::span<const index_t>(all).subspan(300, 700),
                           w);
        expect_same_firsts(pts, shuffled, w);
      }
    }
  }

  // Coordinates huge against the width saturate the clamp, so far-apart
  // points share a key: only |x| below ~9e-12 snaps unclamped here.
  SCOPED_TRACE("saturated keys");
  constexpr double kCoords[6] = {1e300, -1e300, 0.0, 5e-12, -5e-12, 1.0};
  PointSet huge(500, 3);
  for (index_t i = 0; i < huge.size(); ++i) {
    for (double& c : huge.mutable_point(i)) c = kCoords[rng.uniform_int(6)];
  }
  expect_same_firsts(huge, shuffled_ids(0, 500, 500, rng), 1e-30);
}

// ------------------------------------------------ reference construction

/// Every field a SpatialIndex exposes, captured for bitwise comparison.
struct IndexFields {
  double width = 0.0;
  std::vector<index_t> order;
  std::vector<std::size_t> cell_begin;
  std::vector<std::uint32_t> cell_of;
  std::vector<double> rows;
  std::vector<double> bbox;  ///< per cell: dim lows, dim highs
};

/// Each point's cell, read off order() and the cell runs.
std::vector<std::uint32_t> cells_by_id(const SpatialIndex& index) {
  std::vector<std::uint32_t> cell(index.size());
  for (std::size_t c = 0; c < index.cell_count(); ++c) {
    for (std::size_t j = 0; j < index.cell_size(c); ++j) {
      cell[index.order()[index.cell_begin(c) + j]] =
          static_cast<std::uint32_t>(c);
    }
  }
  return cell;
}

IndexFields fields_of(const SpatialIndex& index) {
  const std::size_t dim = index.dim();
  IndexFields f;
  f.width = index.cell_width();
  f.order.assign(index.order().begin(), index.order().end());
  for (std::size_t c = 0; c <= index.cell_count(); ++c) {
    f.cell_begin.push_back(index.cell_begin(c));
  }
  f.cell_of = cells_by_id(index);
  f.rows.assign(index.rows(), index.rows() + index.size() * dim);
  for (std::size_t c = 0; c < index.cell_count(); ++c) {
    f.bbox.insert(f.bbox.end(), index.cell_lo(c), index.cell_lo(c) + dim);
    f.bbox.insert(f.bbox.end(), index.cell_hi(c), index.cell_hi(c) + dim);
  }
  return f;
}

/// Reference build: the comparator-sort construction that preceded the
/// counting build, for this test only. Same probe, initial width,
/// doubling and halving rules, caps and attempt limit, but every width
/// trial snaps all n points into an n * dim key array and re-sorts the
/// ids over it; the layout walks the final sorted order.
IndexFields reference_index(const PointSet& points) {
  constexpr std::size_t kTargetOccupancy = 1024;
  constexpr std::size_t kMinOccupancy = 16;
  const std::size_t n = points.size();
  const std::size_t dim = points.dim();
  IndexFields f;
  f.order.resize(n);
  std::iota(f.order.begin(), f.order.end(), index_t{0});
  f.cell_of.assign(n, 0);

  double radius = 0.0;
  for (index_t i = 0; i < n; ++i) {
    double d = 0.0;
    for (std::size_t c = 0; c < dim; ++c) {
      d = std::max(d, std::fabs(points[i][c] - points[0][c]));
    }
    radius = std::max(radius, d);
  }
  double width = 1.0;
  if (radius > 0.0) {
    const double target_cells =
        std::max(1.0, static_cast<double>(n) /
                          static_cast<double>(kTargetOccupancy));
    const double per_axis = std::clamp(
        std::ceil(std::pow(target_cells, 1.0 / static_cast<double>(dim))),
        1.0, 4096.0);
    width = 2.0 * radius / per_axis;
  }

  std::vector<std::int64_t> keys(n * dim);
  const auto same_key = [&](index_t a, index_t b) {
    return std::equal(keys.begin() + a * dim, keys.begin() + (a + 1) * dim,
                      keys.begin() + b * dim);
  };
  const std::size_t cell_cap = std::max<std::size_t>(1, n / kMinOccupancy);
  const auto regrid = [&](double w) -> std::size_t {
    for (index_t i = 0; i < n; ++i) {
      grid_cell_key(points[i], w, {keys.data() + i * dim, dim});
    }
    std::sort(f.order.begin(), f.order.end(), [&](index_t a, index_t b) {
      for (std::size_t c = 0; c < dim; ++c) {
        if (keys[a * dim + c] != keys[b * dim + c]) {
          return keys[a * dim + c] < keys[b * dim + c];
        }
      }
      return a < b;
    });
    std::size_t occupied = 1;
    for (std::size_t j = 1; j < n; ++j) {
      if (!same_key(f.order[j - 1], f.order[j])) ++occupied;
    }
    return occupied;
  };

  std::size_t occupied = regrid(width);
  int attempts = 0;
  while (occupied > cell_cap && attempts++ < 200) {
    width *= 2.0;
    occupied = regrid(width);
  }
  while (attempts++ < 200 && occupied * kTargetOccupancy < n) {
    const double half = width / 2.0;
    if (!(half > 0.0) || !std::isfinite(half)) break;
    const std::size_t split = regrid(half);
    if (split > cell_cap || split <= occupied) {
      regrid(width);
      break;
    }
    width = half;
    occupied = split;
  }
  f.width = width;

  for (std::size_t j = 0; j < n; ++j) {
    const index_t id = f.order[j];
    const std::span<const double> p = points[id];
    if (j == 0 || !same_key(f.order[j - 1], id)) {
      f.cell_begin.push_back(j);
      f.bbox.insert(f.bbox.end(), p.begin(), p.end());
      f.bbox.insert(f.bbox.end(), p.begin(), p.end());
    } else {
      double* lo = f.bbox.data() + f.bbox.size() - 2 * dim;
      double* hi = lo + dim;
      for (std::size_t c = 0; c < dim; ++c) {
        lo[c] = std::min(lo[c], p[c]);
        hi[c] = std::max(hi[c], p[c]);
      }
    }
    f.cell_of[id] = static_cast<std::uint32_t>(f.cell_begin.size() - 1);
    f.rows.insert(f.rows.end(), p.begin(), p.end());
  }
  f.cell_begin.push_back(n);
  return f;
}

std::vector<std::uint64_t> bits_of(const std::vector<double>& v) {
  std::vector<std::uint64_t> out(v.size());
  std::transform(v.begin(), v.end(), out.begin(),
                 [](double x) { return std::bit_cast<std::uint64_t>(x); });
  return out;
}

void expect_same_index(const PointSet& pts) {
  const SpatialIndex index(pts);
  const IndexFields got = fields_of(index);
  const IndexFields want = reference_index(pts);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.width),
            std::bit_cast<std::uint64_t>(want.width))
      << got.width << " vs " << want.width;
  EXPECT_EQ(got.cell_begin, want.cell_begin);
  EXPECT_EQ(got.order, want.order);
  EXPECT_EQ(got.cell_of, want.cell_of);
  EXPECT_EQ(bits_of(got.rows), bits_of(want.rows));
  EXPECT_EQ(bits_of(got.bbox), bits_of(want.bbox));
}

TEST(SpatialIndex, MatchesTheComparatorSortBuildFieldForField) {
  // The counting build must reproduce the sort-based index exactly:
  // same tuned width, cells in lexicographic key order, ascending ids
  // within a cell, bitwise rows and boxes — so every pruned scan and
  // pairs_pruned count downstream is unchanged.
  Rng rng(4242);
  for (int shape = 0; shape < 3; ++shape) {
    for (const std::size_t dim : {1u, 2u, 3u, 7u, 8u}) {
      for (const std::size_t n : {1u, 15u, 17u, 4096u, 20000u}) {
        SCOPED_TRACE(std::string(shape_name(shape)) + " dim=" +
                     std::to_string(dim) + " n=" + std::to_string(n));
        expect_same_index(make_input(shape, n, dim, rng));
      }
    }
  }

  {
    SCOPED_TRACE("far outlier beside a tight cluster");
    PointSet pts = data::generate_gau(5000, 1, 2, 1.0, 1e-3, rng);
    pts.push_back(std::vector<double>{1e15, -1e15});
    expect_same_index(pts);
  }

  {
    // +0.0 and -0.0 snap to one cell and compare equal, so which one a
    // box keeps depends on the order members are folded in.
    SCOPED_TRACE("signed zeros in one cell");
    PointSet pts{{0.0, -0.0}, {-0.0, 0.0}, {-0.0, -0.0}, {0.0, 0.0}};
    for (int i = 1; i <= 60; ++i) {
      pts.push_back(std::vector<double>{i * 3.0, -i * 7.0});
    }
    expect_same_index(pts);
    const SpatialIndex index(pts);
    const std::vector<std::uint32_t> cell = cells_by_id(index);
    const std::size_t zero_cell = cell[0];
    EXPECT_EQ(cell[1], zero_cell);
    EXPECT_EQ(cell[2], zero_cell);
    EXPECT_EQ(cell[3], zero_cell);
    EXPECT_FALSE(std::signbit(index.cell_lo(zero_cell)[0]));
    EXPECT_TRUE(std::signbit(index.cell_lo(zero_cell)[1]));
  }

  {
    // Every axis splits at the origin at any width, so coarsening gives
    // up after its attempt limit with the cell count still above the
    // cap: the final pass must hold far more keys than the trials do.
    SCOPED_TRACE("16-D uniform straddling the origin");
    const std::size_t n = 20000;
    const PointSet unif = data::generate_unif(n, 16, 100.0, rng);
    std::vector<double> coords(unif.raw().begin(), unif.raw().end());
    for (double& x : coords) x -= 50.0;
    const PointSet pts(16, coords);
    expect_same_index(pts);
    EXPECT_GT(SpatialIndex(pts).cell_count(), n / 16);
  }
}

TEST(SpatialIndex, CellMindistNeverExceedsAnyMemberDistance) {
  // The safety property the whole determinism argument rests on: the
  // cell bound, computed in rounded arithmetic, must be <= the kernel's
  // rounded comparable distance for every member and every metric.
  Rng rng(55);
  const PointSet pts = make_input(0, 1500, 3, rng);
  const SpatialIndex index(pts);
  for (const auto kind : {MetricKind::L2, MetricKind::L1, MetricKind::Linf}) {
    DistanceOracle oracle(pts, kind);
    for (index_t center = 0; center < 40; ++center) {
      for (std::size_t c = 0; c < index.cell_count(); ++c) {
        const double bound =
            index.cell_mindist_comparable(kind, pts.data(center), c);
        for (std::size_t j = 0; j < index.cell_size(c); ++j) {
          const index_t id = index.order()[index.cell_begin(c) + j];
          ASSERT_LE(bound, oracle.comparable(id, center))
              << to_string(kind) << " cell " << c << " member " << id;
        }
      }
    }
  }
}

// ---------------------------------------------------------- sample boxes

/// `n` points, then `k` centers at ids n .. n + k - 1, for the sample-box
/// scans: clustered, uniform, every center at one location (the split
/// has nothing to cut), and coordinates drawn from {+0.0, -0.0, 1, -1}
/// so signed zeros meet the box gaps.
PointSet make_boxed_input(int shape, std::size_t n, std::size_t k,
                          std::size_t dim, Rng& rng) {
  switch (shape) {
    case 0: return data::generate_gau(n + k, 8, dim, 100.0, 0.1, rng);
    case 1: return data::generate_unif(n + k, dim, 100.0, rng);
    case 2: {
      PointSet out = data::generate_gau(n, 8, dim, 100.0, 0.1, rng);
      const PointSet one = data::generate_unif(1, dim, 100.0, rng);
      for (std::size_t i = 0; i < k; ++i) out.push_back(one[0]);
      return out;
    }
    default: {
      constexpr double kSigned[4] = {0.0, -0.0, 1.0, -1.0};
      PointSet out(n + k, dim);
      for (index_t i = 0; i < n + k; ++i) {
        for (double& c : out.mutable_point(i)) c = kSigned[rng.uniform_int(4)];
      }
      return out;
    }
  }
}

const char* boxed_shape_name(int shape) {
  return shape == 0   ? "clustered"
         : shape == 1 ? "uniform"
         : shape == 2 ? "duplicates"
                      : "signed-zeros";
}

TEST(SampleBoxes, SplitKeepsInputOrderExactBoxesAndPaddedRows) {
  Rng rng(57);
  for (const std::size_t dim : {1u, 3u, 10u}) {
    for (const std::size_t k : {1u, 7u, 300u, 2100u}) {
      SCOPED_TRACE("dim=" + std::to_string(dim) + " k=" + std::to_string(k));
      const PointSet pts = data::generate_gau(k + 10, 8, dim, 100.0, 0.1, rng);
      const std::vector<index_t> centers = shuffled_ids(10, k, k, rng);
      const SampleBoxes boxes(pts, centers);
      ASSERT_EQ(boxes.size(), k);
      // Distinct clustered centers split until the cap: one group per
      // kSampleBoxMinMembers centers, at most kSampleBoxGroups.
      EXPECT_EQ(boxes.group_count(),
                std::clamp<std::size_t>(k / kSampleBoxMinMembers, 1,
                                        kSampleBoxGroups));

      std::vector<std::size_t> position(pts.size());
      for (std::size_t i = 0; i < k; ++i) position[centers[i]] = i;
      std::vector<index_t> seen;
      for (std::size_t g = 0; g < boxes.group_count(); ++g) {
        const auto members = boxes.members(g);
        ASSERT_FALSE(members.empty());
        const std::size_t lanes = boxes.lanes(g);
        EXPECT_EQ(lanes % kSampleBoxLanes, 0u);
        EXPECT_GE(lanes, members.size());
        EXPECT_LT(lanes, members.size() + kSampleBoxLanes);
        for (std::size_t j = 0; j < members.size(); ++j) {
          if (j > 0) {
            EXPECT_LT(position[members[j - 1]], position[members[j]]);
          }
          seen.push_back(members[j]);
        }
        for (std::size_t d = 0; d < dim; ++d) {
          double lo = kInfDist;
          double hi = -kInfDist;
          for (std::size_t j = 0; j < members.size(); ++j) {
            const double x = pts.data(members[j])[d];
            lo = std::min(lo, x);
            hi = std::max(hi, x);
            EXPECT_EQ(boxes.soa(g)[d * lanes + j], x);
          }
          EXPECT_EQ(boxes.lo(g)[d], lo);
          EXPECT_EQ(boxes.hi(g)[d], hi);
          for (std::size_t j = members.size(); j < lanes; ++j) {
            EXPECT_EQ(boxes.soa(g)[d * lanes + j], kInfDist);
          }
        }
      }
      std::vector<index_t> sorted_centers = centers;
      std::sort(seen.begin(), seen.end());
      std::sort(sorted_centers.begin(), sorted_centers.end());
      EXPECT_EQ(seen, sorted_centers);
    }
  }

  // Nothing to split: every center at one location.
  PointSet same;
  for (std::size_t i = 0; i < 2 * kSampleBoxMinMembers; ++i) {
    same.push_back(std::vector<double>{3.0, 4.0});
  }
  EXPECT_EQ(SampleBoxes(same, same.all_indices()).group_count(), 1u);

  // The midpoint of adjacent doubles rounds onto an edge, and a side
  // of -1e308 .. 1e308 overflows when halved: both fall back to the
  // median rank and still split, the lower value's ids (the even ones)
  // first, each half in input order.
  for (const auto& pair : {std::array<double, 2>{1.0, std::nextafter(1.0, 2.0)},
                           std::array<double, 2>{-1e308, 1e308}}) {
    std::vector<double> coords(2 * kSampleBoxMinMembers);
    for (std::size_t i = 0; i < coords.size(); ++i) coords[i] = pair[i % 2];
    const PointSet two(1, coords);
    const SampleBoxes split(two, two.all_indices());
    ASSERT_EQ(split.group_count(), 2u);
    for (std::size_t half = 0; half < 2; ++half) {
      const auto members = split.members(half);
      ASSERT_EQ(members.size(), kSampleBoxMinMembers);
      for (std::size_t j = 0; j < members.size(); ++j) {
        EXPECT_EQ(members[j], 2 * j + half);
      }
    }
  }
}

TEST(SampleBoxes, BoxMindistNeverExceedsAnyMemberDistance) {
  // The grouped scan skips a group on the same bound as the grid skips
  // a cell: the box distance, in rounded arithmetic, must be <= the
  // kernel's rounded distance to every member, for every metric.
  Rng rng(56);
  const PointSet pts = make_input(0, 1500, 3, rng);
  const SampleBoxes boxes(pts, shuffled_ids(0, 1500, 1500, rng));
  for (const auto kind : {MetricKind::L2, MetricKind::L1, MetricKind::Linf}) {
    DistanceOracle oracle(pts, kind);
    for (index_t x = 0; x < pts.size(); x += 7) {
      for (std::size_t g = 0; g < boxes.group_count(); ++g) {
        const double bound = box_mindist_comparable(
            kind, pts.data(x), boxes.lo(g), boxes.hi(g), pts.dim());
        for (const index_t member : boxes.members(g)) {
          ASSERT_LE(bound, oracle.comparable(x, member))
              << to_string(kind) << " group " << g << " point " << x;
        }
      }
    }
  }
}

// --------------------------------------------------------- bit identity

class PrunedScans : public ::testing::TestWithParam<exec::BackendKind> {};

/// Bitwise: slot j of a cell-order `got` must hold element order[j] of
/// the id-order `want`.
void expect_permuted_bit_identical(std::span<const double> got,
                                   const std::vector<double>& want,
                                   std::span<const index_t> order) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < got.size(); ++j) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[j]),
              std::bit_cast<std::uint64_t>(want[order[j]]))
        << "cell-order slot " << j << " (point " << order[j] << ")";
  }
}

TEST_P(PrunedScans, BitIdenticalToUnprunedAcrossShapesMetricsAndDims) {
  // A sweep on the grid folds into values laid out in the index's cell
  // order: values()[j] belongs to point order()[j]. The values must
  // still be bitwise those of the plain id-order scan — the permutation
  // and the skipped pairs are the only differences.
  if (force_no_prune_requested()) GTEST_SKIP() << "no sweep runs on the grid";
  const auto backend = exec::make_backend(GetParam(), 4);

  Rng rng(2024);
  for (int shape = 0; shape < 3; ++shape) {
    for (std::size_t dim = 1; dim <= 16; ++dim) {
      // Modest n keeps the full dim sweep fast; the sharding threshold
      // is irrelevant to identity (chunks write disjoint slices).
      const std::size_t n = 1800;
      const PointSet pts = make_input(shape, n, dim, rng);
      const std::vector<index_t> ids = pts.all_indices();
      std::vector<index_t> centers(12);
      for (auto& c : centers) {
        c = static_cast<index_t>(rng.uniform_int(n));
      }
      const SpatialIndex index(pts);

      for (const auto kind :
           {MetricKind::L2, MetricKind::L1, MetricKind::Linf}) {
        SCOPED_TRACE(std::string(shape_name(shape)) + " dim=" +
                     std::to_string(dim) + " " + std::string(to_string(kind)));
        DistanceOracle plain(pts, kind);
        plain.bind_executor(backend.get(), /*min_items=*/256);
        DistanceOracle pruned(pts, kind);
        pruned.bind_executor(backend.get(), /*min_items=*/256);
        pruned.bind_index(&index, PruneMode::On);

        // Multi scan from fresh infinity (covering-radius shape).
        std::vector<double> want(n, kInfDist);
        NearestSweep got(pruned, ids);
        ASSERT_TRUE(got.on_grid());
        const WorkScope plain_work;
        plain.update_nearest_multi(ids, centers, want);
        const WorkCounters plain_elapsed = plain_work.elapsed();
        const WorkScope pruned_work;
        got.fold(centers);
        const WorkCounters pruned_elapsed = pruned_work.elapsed();
        expect_permuted_bit_identical(got.values(), want, index.order());

        // Work accounting: never more evals than unpruned, and the
        // evaluated/pruned split sums to the unpruned total.
        EXPECT_LE(pruned_elapsed.distance_evals, plain_elapsed.distance_evals);
        EXPECT_EQ(pruned_elapsed.distance_evals + pruned_elapsed.pruned_pairs,
                  plain_elapsed.distance_evals);

        // Gonzalez-shaped sequence: one sweep, one center per fold,
        // cell bounds carried across folds.
        NearestSweep got_seq(pruned, ids);
        std::vector<double> want_seq(n, kInfDist);
        const WorkScope seq_work;
        for (const index_t c : centers) got_seq.fold(c);
        const WorkCounters seq_elapsed = seq_work.elapsed();
        for (const index_t c : centers) {
          plain.update_nearest(ids, c, want_seq);
        }
        expect_permuted_bit_identical(got_seq.values(), want_seq,
                                      index.order());
        EXPECT_EQ(seq_elapsed.distance_evals + seq_elapsed.pruned_pairs,
                  std::uint64_t{n} * centers.size());
      }
    }
  }
}

/// The sweep's bound contract: after every completed fold from the
/// second on, each cell's bound is the maximum of its values, bit for
/// bit.
void expect_exact_bounds(const NearestSweep& sweep, const SpatialIndex& index) {
  const std::span<const double> ub = sweep.cell_bounds();
  const std::span<const double> best = sweep.values();
  ASSERT_EQ(ub.size(), index.cell_count());
  for (std::size_t c = 0; c < index.cell_count(); ++c) {
    const auto first =
        best.begin() + static_cast<std::ptrdiff_t>(index.cell_begin(c));
    const double want = *std::max_element(
        first, first + static_cast<std::ptrdiff_t>(index.cell_size(c)));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(ub[c]),
              std::bit_cast<std::uint64_t>(want))
        << "cell " << c << ": bound " << ub[c] << " vs max " << want;
  }
}

TEST_P(PrunedScans, CacheBoundsAreEachCellsExactMaximum) {
  // GON's argmax from the bounds will rely on this: a scanned cell
  // refreshes its bound from its values, and a skipped cell's bound is
  // untouched, like its values. The first fold starts from +inf, where
  // nothing prunes, so it keeps no bounds; the second derives them.
  if (force_no_prune_requested()) GTEST_SKIP() << "no sweep runs on the grid";
  const auto backend = exec::make_backend(GetParam(), 4);

  Rng rng(2029);
  for (int shape = 0; shape < 2; ++shape) {  // clustered, uniform
    for (const std::size_t dim : {2u, 3u}) {
      const std::size_t n = 20'000;
      const PointSet pts = make_input(shape, n, dim, rng);
      const SpatialIndex index(pts);
      const std::vector<index_t> ids = pts.all_indices();
      std::vector<index_t> centers(24);
      for (auto& c : centers) c = static_cast<index_t>(rng.uniform_int(n));
      const std::span<const index_t> all(centers);

      for (const auto kind :
           {MetricKind::L2, MetricKind::L1, MetricKind::Linf}) {
        SCOPED_TRACE(std::string(shape_name(shape)) + " dim=" +
                     std::to_string(dim) + " " + std::string(to_string(kind)));
        DistanceOracle oracle(pts, kind);
        oracle.bind_executor(backend.get(), /*min_items=*/256);
        oracle.bind_index(&index, PruneMode::On);

        // GON-shaped: one center per fold on one sweep, then a
        // multi-center fold on the same sweep.
        NearestSweep sweeps(oracle, ids);
        ASSERT_TRUE(sweeps.on_grid());
        const WorkScope work;
        for (std::size_t f = 0; f < 16; ++f) {
          sweeps.fold(all[f]);
          if (f == 0) {
            EXPECT_TRUE(sweeps.cell_bounds().empty());
          } else {
            expect_exact_bounds(sweeps, index);
          }
        }
        sweeps.fold(all.subspan(16));
        expect_exact_bounds(sweeps, index);
        if (shape == 0) {
          EXPECT_GT(work.elapsed().pruned_pairs, 0u);
        }

        // Cold multi-center first folds, more centers than one block and
        // fewer (the global pass folds them all); the next fold derives
        // the bounds from what they left.
        for (const std::size_t k : {centers.size(), std::size_t{3}}) {
          NearestSweep cold(oracle, ids);
          cold.fold(all.first(k));
          EXPECT_TRUE(cold.cell_bounds().empty());
          cold.fold(all.last(3));
          expect_exact_bounds(cold, index);
        }
      }
    }
  }
}

TEST_P(PrunedScans, GonzalezRunsBitIdenticalWithPruning) {
  const auto backend = exec::make_backend(GetParam(), 4);

  Rng rng(77);
  const PointSet pts = data::generate_gau(20'000, 16, 2, 100.0, 0.1, rng);
  const SpatialIndex index(pts);
  const std::vector<index_t> ids = pts.all_indices();

  DistanceOracle plain(pts);
  plain.bind_executor(backend.get());
  DistanceOracle pruned(pts);
  pruned.bind_executor(backend.get());
  pruned.bind_index(&index, PruneMode::On);

  const WorkScope plain_work;
  const GonzalezResult want = gonzalez(plain, ids, 16, {});
  const std::uint64_t plain_evals = plain_work.elapsed().distance_evals;
  const WorkScope pruned_work;
  const GonzalezResult got = gonzalez(pruned, ids, 16, {});
  const WorkCounters pruned_elapsed = pruned_work.elapsed();

  EXPECT_EQ(got.centers, want.centers);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.radius_comparable),
            std::bit_cast<std::uint64_t>(want.radius_comparable));
  expect_bit_identical(got.greedy_radii_comparable,
                       want.greedy_radii_comparable);
  EXPECT_EQ(pruned_elapsed.distance_evals + pruned_elapsed.pruned_pairs,
            plain_evals);
  if (!force_no_prune_requested()) {
    // Clustered data at k=16 must actually prune (this is the whole
    // point); the ratio bar lives in the bench, here just "engaged".
    EXPECT_GT(pruned_elapsed.pruned_pairs, 0u);
  }
}

TEST_P(PrunedScans, GonzalezBreaksTiesOnTheSmallestId) {
  // A 101 x 101 integer lattice numbered from its far corner, so ids
  // run against the grid's cell order: after the first picks, lattice
  // corners and edges tie for farthest, and cell order lists a larger
  // id first. Pruned GON must still take the smallest id at every tie.
  const auto backend = exec::make_backend(GetParam(), 4);
  constexpr int kSide = 101;
  PointSet pts;
  for (int x = kSide - 1; x >= 0; --x) {
    for (int y = kSide - 1; y >= 0; --y) {
      pts.push_back(
          std::vector<double>{static_cast<double>(x), static_cast<double>(y)});
    }
  }
  const SpatialIndex index(pts);
  const std::vector<index_t> ids = pts.all_indices();
  for (const auto kind : {MetricKind::L2, MetricKind::L1, MetricKind::Linf}) {
    SCOPED_TRACE(std::string(to_string(kind)));
    DistanceOracle plain(pts, kind);
    plain.bind_executor(backend.get(), /*min_items=*/256);
    DistanceOracle pruned(pts, kind);
    pruned.bind_executor(backend.get(), /*min_items=*/256);
    pruned.bind_index(&index, PruneMode::On);
    const GonzalezResult want = gonzalez(plain, ids, 12, {});
    const GonzalezResult got = gonzalez(pruned, ids, 12, {});
    EXPECT_EQ(got.centers, want.centers);
    expect_bit_identical(got.greedy_radii_comparable,
                         want.greedy_radii_comparable);
  }
}

TEST_P(PrunedScans, GroupedScanBitIdenticalToUpdateNearestMulti) {
  const auto backend = exec::make_backend(GetParam(), 4);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };

  Rng rng(2027);
  constexpr std::size_t kPoints = 400;
  constexpr std::size_t kIds = 150;
  for (const std::size_t k : {1u, 33u, 500u, 4096u}) {
    for (const std::size_t dim : {1u, 2u, 3u, 8u, 10u, 16u}) {
      for (int shape = 0; shape < 4; ++shape) {
        const PointSet pts = make_boxed_input(shape, kPoints, k, dim, rng);
        // Random subsets of points and centers alike, in random order.
        const std::vector<index_t> ids =
            shuffled_ids(0, pts.size(), kIds, rng);
        const std::vector<index_t> centers = shuffled_ids(kPoints, k, k, rng);
        const SampleBoxes boxes(pts, centers);

        for (const auto kind :
             {MetricKind::L2, MetricKind::L1, MetricKind::Linf}) {
          SCOPED_TRACE(std::string(boxed_shape_name(shape)) +
                       " k=" + std::to_string(k) +
                       " dim=" + std::to_string(dim) + " " +
                       std::string(to_string(kind)));
          DistanceOracle oracle(pts, kind);
          oracle.bind_executor(backend.get(), /*min_items=*/256);
          std::vector<double> exact(kIds, kInfDist);
          oracle.update_nearest_multi(ids, centers, exact);

          // best starting all infinite, tight (the final values), and
          // mixed: infinite, tight, or one random center's distance.
          for (int start = 0; start < 3; ++start) {
            std::vector<double> init(kIds);
            for (std::size_t i = 0; i < kIds; ++i) {
              const std::size_t pick = start == 2 ? i % 3 : start;
              init[i] = pick == 0   ? kInfDist
                        : pick == 1 ? exact[i]
                                    : oracle.comparable(
                                          ids[i], centers[rng.uniform_int(k)]);
            }
            std::vector<double> want = init;
            oracle.update_nearest_multi(ids, centers, want);
            std::vector<double> got = init;
            const WorkScope work;
            oracle.update_nearest_grouped(ids, boxes, got);
            const WorkCounters elapsed = work.elapsed();
            for (std::size_t i = 0; i < kIds; ++i) {
              ASSERT_EQ(bits(got[i]), bits(want[i]))
                  << "start " << start << " element " << i;
            }
            EXPECT_EQ(elapsed.distance_evals + elapsed.pruned_pairs,
                      std::uint64_t{kIds} * k);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, PrunedScans,
                         ::testing::Values(exec::BackendKind::Sequential,
                                           exec::BackendKind::ThreadPool),
                         [](const auto& param_info) {
                           return std::string(exec::to_string(param_info.param));
                         });

// ------------------------------------------------------------ grid domain

TEST(OrderedScans, RequireAMatchingBoundIndex) {
  Rng rng(910);
  const PointSet pts = data::generate_gau(2000, 8, 2, 100.0, 0.1, rng);
  const std::vector<index_t> ids = pts.all_indices();

  // No index bound: the grid does not even exist.
  DistanceOracle bare(pts);
  EXPECT_FALSE(NearestSweep(bare, ids).on_grid());

  // Index bound but pruning off: same.
  const SpatialIndex index(pts);
  DistanceOracle off(pts);
  off.bind_index(&index, PruneMode::Off);
  EXPECT_FALSE(NearestSweep(off, ids).on_grid());

  // An index over another point set of the same size: same.
  const PointSet other = data::generate_gau(2000, 8, 2, 100.0, 0.1, rng);
  const SpatialIndex foreign(other);
  DistanceOracle mismatched(pts);
  mismatched.bind_index(&foreign, PruneMode::On);
  EXPECT_FALSE(NearestSweep(mismatched, ids).on_grid());

  // A matching index admits the whole set in id order, and nothing
  // else: no strict subset, no other order.
  DistanceOracle on(pts);
  on.bind_index(&index, PruneMode::On);
  EXPECT_EQ(NearestSweep(on, ids).on_grid(), !force_no_prune_requested());
  const std::span<const index_t> all(ids);
  EXPECT_FALSE(NearestSweep(on, {}).on_grid());
  EXPECT_FALSE(NearestSweep(on, all.first(ids.size() - 1)).on_grid());
  EXPECT_FALSE(NearestSweep(on, all.subspan(1)).on_grid());
  const std::vector<index_t> reversed(ids.rbegin(), ids.rend());
  EXPECT_FALSE(NearestSweep(on, reversed).on_grid());
}

// ------------------------------------------------------------ fallbacks

TEST(PrunedScansFallback, PartialRangeScansTakeTheExactUnprunedPath) {
  Rng rng(31);
  const PointSet pts = data::generate_gau(4000, 8, 2, 100.0, 0.1, rng);
  const SpatialIndex index(pts);
  DistanceOracle pruned(pts);
  pruned.bind_index(&index, PruneMode::On);
  DistanceOracle plain(pts);

  // A strict subset (EIM part shape): must not engage pruning — the
  // index's cell runs only tile the full set.
  std::vector<index_t> subset(1000);
  std::iota(subset.begin(), subset.end(), index_t{500});
  std::vector<double> want(subset.size(), kInfDist);
  std::vector<double> got(subset.size(), kInfDist);
  plain.update_nearest(subset, 3, want);
  const WorkScope scope;
  pruned.update_nearest(subset, 3, got);
  expect_bit_identical(got, want);
  EXPECT_EQ(scope.elapsed().pruned_pairs, 0u);
  EXPECT_EQ(scope.elapsed().distance_evals, subset.size());

  // The whole set in id order: still the exact scan, which never
  // prunes — only a sweep on the grid does.
  const std::vector<index_t> ids = pts.all_indices();
  std::vector<index_t> centers(12);
  std::iota(centers.begin(), centers.end(), index_t{0});
  std::vector<double> want_all(ids.size(), kInfDist);
  std::vector<double> got_all(ids.size(), kInfDist);
  plain.update_nearest_multi(ids, centers, want_all);
  plain.update_nearest(ids, 100, want_all);
  const WorkScope all_scope;
  pruned.update_nearest_multi(ids, centers, got_all);
  pruned.update_nearest(ids, 100, got_all);
  expect_bit_identical(got_all, want_all);
  EXPECT_EQ(all_scope.elapsed().pruned_pairs, 0u);
  EXPECT_EQ(all_scope.elapsed().distance_evals,
            ids.size() * (centers.size() + 1));
}

TEST(PrunedScansFallback, PruneModeOffKeepsTheUnprunedPathAndCounters) {
  Rng rng(32);
  const PointSet pts = data::generate_gau(4000, 8, 2, 100.0, 0.1, rng);
  const SpatialIndex index(pts);
  DistanceOracle oracle(pts);
  oracle.bind_index(&index, PruneMode::Off);
  const std::vector<index_t> ids = pts.all_indices();
  EXPECT_FALSE(NearestSweep(oracle, ids).on_grid());

  std::vector<double> best(ids.size(), kInfDist);
  const WorkScope scope;
  oracle.update_nearest(ids, 0, best);
  EXPECT_EQ(scope.elapsed().pruned_pairs, 0u);
  EXPECT_EQ(scope.elapsed().distance_evals, ids.size());
}

// --------------------------------------------------------- budget/cancel

TEST(PrunedScansGated, BudgetStopsWithinOneGateAndNeverOvercharges) {
  if (force_no_prune_requested()) GTEST_SKIP() << "no sweep runs on the grid";
  Rng rng(41);
  const PointSet pts = data::generate_gau(300'000, 16, 2, 100.0, 0.5, rng);
  const SpatialIndex index(pts);
  DistanceOracle oracle(pts);
  oracle.bind_index(&index, PruneMode::On);

  constexpr std::uint64_t kBudget = 1'000'000;
  exec::ChunkContext ctx;
  ctx.budget = std::make_shared<exec::EvalBudget>(kBudget);
  oracle.bind_context(&ctx);

  const std::vector<index_t> ids = pts.all_indices();
  std::vector<index_t> centers(16);
  std::iota(centers.begin(), centers.end(), index_t{0});
  NearestSweep sweep(oracle, ids);
  EXPECT_THROW(sweep.fold(centers), BudgetExceededError);
  // Never overdrawn, and stopped promptly: the pruned scan pre-buys
  // credit in gate batches and refunds the unexecuted remainder on the
  // stop, so consumed() can sit up to ~two gates under the limit but
  // no executed work ever exceeds it.
  EXPECT_LE(ctx.budget->consumed(), kBudget);
  EXPECT_GE(ctx.budget->consumed() + 2 * exec::kGateEvals, kBudget);
}

TEST(PrunedScansGated, CancellationStopsThePrunedScan) {
  if (force_no_prune_requested()) GTEST_SKIP() << "no sweep runs on the grid";
  Rng rng(42);
  const PointSet pts = data::generate_gau(100'000, 16, 2, 100.0, 0.5, rng);
  const SpatialIndex index(pts);
  DistanceOracle oracle(pts);
  oracle.bind_index(&index, PruneMode::On);

  exec::ChunkContext ctx;
  ctx.cancel = CancellationToken::make();
  oracle.bind_context(&ctx);
  ctx.cancel.request_cancel();

  const std::vector<index_t> ids = pts.all_indices();
  std::vector<index_t> centers(16);
  std::iota(centers.begin(), centers.end(), index_t{0});
  NearestSweep sweep(oracle, ids);
  EXPECT_THROW(sweep.fold(centers), CancelledError);
}

TEST(PrunedScansGated, CompletedGatedScanChargesExactlyItsEvaluatedPairs) {
  if (force_no_prune_requested()) GTEST_SKIP() << "no sweep runs on the grid";
  Rng rng(43);
  const PointSet pts = data::generate_gau(50'000, 16, 2, 100.0, 0.1, rng);
  const SpatialIndex index(pts);
  DistanceOracle oracle(pts);
  oracle.bind_index(&index, PruneMode::On);

  exec::ChunkContext ctx;
  ctx.budget = std::make_shared<exec::EvalBudget>(std::uint64_t{1} << 40);
  oracle.bind_context(&ctx);

  const std::vector<index_t> ids = pts.all_indices();
  std::vector<index_t> centers(16);
  std::iota(centers.begin(), centers.end(), index_t{0});
  NearestSweep sweep(oracle, ids);
  const WorkScope scope;
  sweep.fold(centers);
  // The budget odometer and the thread-local counters agree exactly on
  // a completed scan: evaluated pairs, with the pruned ones free.
  EXPECT_EQ(ctx.budget->consumed(), scope.elapsed().distance_evals);
  EXPECT_GT(scope.elapsed().pruned_pairs, 0u);
}

/// 200k clustered 2-D points and 4096 of them split into sample boxes:
/// a grouped scan of every point evaluates tens of millions of pairs and
/// skips far more, so it crosses many gates either way.
struct GroupedGateWorkload {
  PointSet pts;
  std::vector<index_t> ids;
  SampleBoxes boxes;

  explicit GroupedGateWorkload(std::uint64_t seed)
      : pts([seed] {
          Rng rng(seed);
          return data::generate_gau(200'000, 16, 2, 100.0, 0.5, rng);
        }()),
        ids(pts.all_indices()),
        boxes(pts, [this] {
          std::vector<index_t> centers;
          for (index_t i = 0; i < pts.size(); i += 48) centers.push_back(i);
          return centers;
        }()) {}
};

TEST(PrunedScansGated, GroupedScanBudgetStopsWithinOneGateAndNeverOvercharges) {
  const GroupedGateWorkload work(44);
  DistanceOracle oracle(work.pts);
  constexpr std::uint64_t kBudget = 1'000'000;
  exec::ChunkContext ctx;
  ctx.budget = std::make_shared<exec::EvalBudget>(kBudget);
  oracle.bind_context(&ctx);

  std::vector<double> best(work.ids.size(), kInfDist);
  EXPECT_THROW(oracle.update_nearest_grouped(work.ids, work.boxes, best),
               BudgetExceededError);
  // Credit is pre-bought in gate batches and the unexecuted remainder
  // refunded on the stop, so no executed work exceeds the budget and
  // the scan stops within a gate of it.
  EXPECT_LE(ctx.budget->consumed(), kBudget);
  EXPECT_GE(ctx.budget->consumed() + 2 * exec::kGateEvals, kBudget);
}

TEST(PrunedScansGated, GroupedScanCancellationStopsItEvenWhenAllIsSkipped) {
  const GroupedGateWorkload work(45);
  DistanceOracle oracle(work.pts);
  exec::ChunkContext ctx;
  ctx.cancel = CancellationToken::make();
  oracle.bind_context(&ctx);
  ctx.cancel.request_cancel();
  // From infinity the first fold's payment sees the cancel. From best
  // = 0 no box is nearer, so every group is skipped and nothing is paid
  // for: only the token poll, which counts skipped pairs, can see it.
  std::vector<double> fresh(work.ids.size(), kInfDist);
  EXPECT_THROW(oracle.update_nearest_grouped(work.ids, work.boxes, fresh),
               CancelledError);
  std::vector<double> zero(work.ids.size(), 0.0);
  EXPECT_THROW(oracle.update_nearest_grouped(work.ids, work.boxes, zero),
               CancelledError);
}

TEST(PrunedScansGated, CompletedGroupedScanChargesExactlyItsEvaluatedPairs) {
  const GroupedGateWorkload work(46);
  const auto pool = exec::make_backend(exec::BackendKind::ThreadPool, 4);
  DistanceOracle oracle(work.pts);
  oracle.bind_executor(pool.get());
  exec::ChunkContext ctx;
  ctx.budget = std::make_shared<exec::EvalBudget>(std::uint64_t{1} << 40);
  oracle.bind_context(&ctx);

  std::vector<double> best(work.ids.size(), kInfDist);
  const WorkScope scope;
  oracle.update_nearest_grouped(work.ids, work.boxes, best);
  // Every shard refunds its unused credit: the odometer and the
  // counters agree exactly, the skipped pairs free.
  EXPECT_EQ(ctx.budget->consumed(), scope.elapsed().distance_evals);
  EXPECT_EQ(scope.elapsed().distance_evals + scope.elapsed().pruned_pairs,
            std::uint64_t{work.ids.size()} * work.boxes.size());
}

// ------------------------------------------------------------- api knob

/// A k at which Auto builds the grid for GON's sweeps on 2-D points
/// (geom/spatial_index.hpp, kAutoPruneBreakEven).
constexpr std::size_t kGonBuildsK = 400;

/// A request for `algorithm` on `points` at k, under `prune`.
api::SolveRequest prune_request(const PointSet& points, const char* algorithm,
                                std::size_t k, PruneMode prune) {
  api::SolveRequest request;
  request.points = &points;
  request.k = k;
  request.algorithm = algorithm;
  request.prune = prune;
  return request;
}

bool builds(const api::SolveRequest& request) {
  return api::builds_index(*api::registry().find(request.algorithm), request);
}

TEST(ApiSolverPrune, BuildsIndexPricesTheDeclaredSweepsAndTheEvaluation) {
  const PointSet million(1'000'000, 2);
  const PointSet small(kAutoPruneMinPoints - 1, 2);
  const PointSet high_dim(10'000, kAutoPruneMaxDim + 1);
  const PointSet ten_k(10'000, 2);
  const bool forced_off = force_no_prune_requested();

  // Off and KC_FORCE_NO_PRUNE never build; On always does, where the
  // environment lets it.
  for (const PointSet* points : {&million, &small, &high_dim}) {
    for (const char* algorithm : {"gon", "mrg", "hs"}) {
      EXPECT_FALSE(
          builds(prune_request(*points, algorithm, 400, PruneMode::Off)));
      EXPECT_EQ(builds(prune_request(*points, algorithm, 25, PruneMode::On)),
                !forced_off);
    }
  }
  // Auto: never past the dimension cap or under the point floor, even
  // for GON's many sweeps.
  EXPECT_FALSE(builds(prune_request(high_dim, "gon", 400, PruneMode::Auto)));
  EXPECT_FALSE(builds(prune_request(small, "gon", 400, PruneMode::Auto)));

  // At 1M 2-D points and k = 25, no entry's scans repay the build: the
  // evaluation alone is about 1.4 ms of pruning against a build of about
  // 0.13 s, and GON's 25 sweeps do not close the gap.
  for (const char* algorithm : {"mrg", "ccm", "mrg-du", "hs", "gon", "eim"}) {
    SCOPED_TRACE(algorithm);
    EXPECT_FALSE(
        builds(prune_request(million, algorithm, 25, PruneMode::Auto)));
  }
  // GON's 400 sweeps do. So does EIM's, where it degenerates to GON on
  // the whole set (10,000 points at k = 400), unless its final
  // algorithm is HS.
  EXPECT_EQ(builds(prune_request(million, "gon", 400, PruneMode::Auto)),
            !forced_off);
  // From 1e5 2-D points the sweeps save more per point, so GON's 100
  // sweeps repay the build there, but not on 10,000 points.
  EXPECT_EQ(builds(prune_request(million, "gon", 100, PruneMode::Auto)),
            !forced_off);
  EXPECT_FALSE(builds(prune_request(ten_k, "gon", 100, PruneMode::Auto)));
  api::SolveRequest eim = prune_request(ten_k, "eim", 400, PruneMode::Auto);
  ASSERT_TRUE(eim_degenerates(ten_k.size(), 400, EimOptions{}));
  EXPECT_EQ(builds(eim), !forced_off);
  EimOptions hs_final;
  hs_final.final_algo = SeqAlgo::HochbaumShmoys;
  eim.options = hs_final;
  EXPECT_FALSE(builds(eim));
  // A sampling EIM at k = 400 declares no sweeps, like a reducing MRG.
  ASSERT_FALSE(eim_degenerates(million.size(), 400, EimOptions{}));
  EXPECT_EQ(builds(prune_request(million, "eim", 400, PruneMode::Auto)),
            builds(prune_request(million, "mrg", 400, PruneMode::Auto)));
  // MRG on a set that fits one machine (10,000 <= k * 50 machines) runs
  // no reduce round: its final round is GON on the whole set.
  EXPECT_EQ(builds(prune_request(ten_k, "mrg", 400, PruneMode::Auto)),
            !forced_off);

  // An entry that declares nothing is priced on the evaluation alone,
  // which repays the build once k is large enough.
  api::AlgorithmInfo undeclared = *api::registry().find("mrg");
  undeclared.whole_set_sweeps = nullptr;
  const api::SolveRequest huge_k =
      prune_request(million, "mrg", 100'000, PruneMode::Auto);
  EXPECT_EQ(api::builds_index(undeclared, huge_k), !forced_off);
  EXPECT_FALSE(api::builds_index(
      undeclared, prune_request(million, "mrg", 25, PruneMode::Auto)));
  // So does a declared-empty one past 1,000 centers in 2-D: HS on
  // 4,200 points at k = 1,001, the CLI prune-invariance shape.
  const PointSet hs_rows(4200, 2);
  EXPECT_EQ(builds(prune_request(hs_rows, "hs", 1001, PruneMode::Auto)),
            !forced_off);
  EXPECT_FALSE(builds(prune_request(hs_rows, "hs", 1000, PruneMode::Auto)));
}

TEST(ApiSolverPrune, AutoMatchesOffWhereTheGridDoesNotPay) {
  // At k = 25 no entry's scans repay the build, so Auto builds no grid
  // and reports exactly what Off reports: the same centers, value and
  // work, none of it pruned. EIM degenerates to GON on this shape, and
  // HS runs on 4,200 points, under its 8,192-point cap.
  Rng rng(2025);
  const PointSet pts = data::generate_gau(10'000, 25, 2, 100.0, 0.1, rng);
  const PointSet hs_pts = data::generate_gau(4200, 25, 2, 100.0, 0.1, rng);
  for (const char* algorithm : {"gon", "mrg", "ccm", "mrg-du", "eim", "hs"}) {
    SCOPED_TRACE(algorithm);
    const PointSet& points = std::string_view(algorithm) == "hs" ? hs_pts : pts;
    api::SolveRequest request =
        prune_request(points, algorithm, 25, PruneMode::Off);
    api::Solver solver;
    const api::SolveReport off = solver.solve(request);
    request.prune = PruneMode::Auto;
    ASSERT_FALSE(builds(request));
    const api::SolveReport automatic = solver.solve(request);

    EXPECT_EQ(automatic.centers, off.centers);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(automatic.value),
              std::bit_cast<std::uint64_t>(off.value));
    EXPECT_EQ(automatic.dist_evals, off.dist_evals);
    EXPECT_EQ(automatic.pairs_pruned, 0u);
  }
}

TEST(ApiSolverPrune, AutoPrunesBitIdenticallyAndReportsTheSplit) {
  // GON and every cluster algorithm: a cluster algorithm's pruned pairs
  // are attributed per machine task and must reach the report just like
  // a sequential solve's, and each one's centers are evaluated on the
  // grid. At this k Auto builds it for GON's sweeps; on this shape MRG
  // fits one machine and EIM degenerates to one GON round, so both
  // declare GON's sweeps and prune as GON does. mrg-du and CCM declare
  // none, so they run under On.
  Rng rng(2025);
  const PointSet pts = data::generate_gau(10'000, 25, 2, 100.0, 0.1, rng);

  for (const char* algorithm : {"gon", "mrg", "eim", "mrg-du", "ccm"}) {
    SCOPED_TRACE(algorithm);
    const bool sweeps = std::string_view(algorithm) == "gon" ||
                        std::string_view(algorithm) == "mrg" ||
                        std::string_view(algorithm) == "eim";
    api::SolveRequest request =
        prune_request(pts, algorithm, kGonBuildsK, PruneMode::Off);
    api::Solver solver;
    const api::SolveReport off = solver.solve(request);

    request.prune = sweeps ? PruneMode::Auto : PruneMode::On;
    ASSERT_EQ(builds(request), !force_no_prune_requested());
    const api::SolveReport on = solver.solve(request);

    EXPECT_EQ(on.centers, off.centers);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(on.value),
              std::bit_cast<std::uint64_t>(off.value));
    EXPECT_EQ(off.pairs_pruned, 0u);
    EXPECT_EQ(on.dist_evals + on.pairs_pruned, off.dist_evals);
    if (!force_no_prune_requested() && sweeps) {
      EXPECT_GT(on.pairs_pruned, 0u);
    }
  }
}

TEST(ApiSolverPrune, HochbaumShmoysPrunesItsRadiusPassBitIdentically) {
  // HS's candidate list is quadratic, so n sits under HS's cap. Auto
  // would not pay for a grid at this k, so On forces it, and HS's final
  // radius pass runs on it.
  Rng rng(2025);
  const PointSet pts = data::generate_gau(4200, 25, 2, 100.0, 0.1, rng);
  api::SolveRequest request = prune_request(pts, "hs", 25, PruneMode::Off);
  api::Solver solver;
  const api::SolveReport off = solver.solve(request);
  request.prune = PruneMode::On;
  const api::SolveReport on = solver.solve(request);

  EXPECT_EQ(on.centers, off.centers);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(on.value),
            std::bit_cast<std::uint64_t>(off.value));
  EXPECT_EQ(off.pairs_pruned, 0u);
  EXPECT_EQ(on.dist_evals + on.pairs_pruned, off.dist_evals);
  if (!force_no_prune_requested()) {
    EXPECT_GT(on.pairs_pruned, 0u);
  }
}

TEST(ApiSolverPrune, EimSampleBoxesPruneBitIdenticallyOnEveryBackend) {
  // 20,000 points at k = 25 are above EIM's loop threshold (about
  // 11,600), so EIM samples and folds each new sample through its boxes.
  // The 2-D leg runs under On, so its centers are also evaluated on the
  // grid. The 10-D leg runs under Auto, which builds no grid there (nor
  // at 2-D for a sampling EIM at this k), so the boxes are the only
  // pruning; a prune=Off request must still report none.
  for (const std::size_t dim : {2u, 10u}) {
    SCOPED_TRACE("dim=" + std::to_string(dim));
    Rng rng(2028);
    const PointSet pts = data::generate_gau(20'000, 25, dim, 100.0, 0.1, rng);
    std::vector<api::SolveReport> pruned;
    for (const auto kind :
         {exec::BackendKind::Sequential, exec::BackendKind::ThreadPool}) {
      SCOPED_TRACE(std::string(exec::to_string(kind)));
      api::SolveRequest request;
      request.points = &pts;
      request.k = 25;
      request.algorithm = "eim";
      request.exec.kind = kind;
      request.exec.threads = 4;
      request.prune = PruneMode::Off;
      api::Solver solver;
      const api::SolveReport off = solver.solve(request);
      request.prune = dim == 2 ? PruneMode::On : PruneMode::Auto;
      ASSERT_EQ(builds(request), dim == 2 && !force_no_prune_requested());
      const api::SolveReport on = solver.solve(request);

      ASSERT_TRUE(on.sampled);
      EXPECT_EQ(on.centers, off.centers);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(on.value),
                std::bit_cast<std::uint64_t>(off.value));
      EXPECT_EQ(on.iterations, off.iterations);
      EXPECT_EQ(on.final_sample_size, off.final_sample_size);
      EXPECT_EQ(off.pairs_pruned, 0u);
      EXPECT_EQ(on.dist_evals + on.pairs_pruned, off.dist_evals);
      if (!force_no_prune_requested()) {
        EXPECT_GT(on.pairs_pruned, 0u);
      }
      // The same rounds, each with the same pairs; every select and
      // prune round folds through the boxes, and every prune round ships
      // them to each of its machines, two rows per group (each new
      // sample here has about 2,600 members, so the full
      // kSampleBoxGroups groups).
      const auto& on_rounds = on.trace.rounds();
      const auto& off_rounds = off.trace.rounds();
      ASSERT_EQ(on_rounds.size(), off_rounds.size());
      const std::uint64_t boxes_shipped =
          force_no_prune_requested()
              ? 0
              : static_cast<std::uint64_t>(request.exec.machines) * 2 *
                    kSampleBoxGroups;
      for (std::size_t r = 0; r < on_rounds.size(); ++r) {
        const std::string& name = on_rounds[r].name;
        EXPECT_EQ(name, off_rounds[r].name);
        EXPECT_EQ(
            on_rounds[r].total_dist_evals + on_rounds[r].total_pairs_pruned,
            off_rounds[r].total_dist_evals)
            << name;
        if (!force_no_prune_requested() &&
            (name == "eim-select" || name == "eim-prune")) {
          EXPECT_GT(on_rounds[r].total_pairs_pruned, 0u) << name;
        }
        const std::uint64_t extra =
            on_rounds[r].shuffle_items - off_rounds[r].shuffle_items;
        EXPECT_EQ(extra, name == "eim-prune" ? boxes_shipped : 0u) << name;
      }
      pruned.push_back(on);
    }
    EXPECT_EQ(pruned[0].centers, pruned[1].centers);
    EXPECT_EQ(pruned[0].dist_evals, pruned[1].dist_evals);
    EXPECT_EQ(pruned[0].pairs_pruned, pruned[1].pairs_pruned);
  }
}

TEST(ApiSolverPrune, AutoStaysOffInHighDimensionOrSmallInstances) {
  Rng rng(2026);
  api::Solver solver;

  // dim > kAutoPruneMaxDim: auto must not build an index.
  const PointSet high_dim =
      data::generate_gau(5000, 8, kAutoPruneMaxDim + 1, 100.0, 0.1, rng);
  api::SolveRequest request;
  request.points = &high_dim;
  request.k = 4;
  request.algorithm = "gon";
  const api::SolveReport hd = solver.solve(request);
  EXPECT_EQ(hd.pairs_pruned, 0u);

  // Small n: same.
  const PointSet small =
      data::generate_gau(kAutoPruneMinPoints - 1, 8, 2, 100.0, 0.1, rng);
  request.points = &small;
  const api::SolveReport sm = solver.solve(request);
  EXPECT_EQ(sm.pairs_pruned, 0u);

  // But On forces the index even there, still bit-identically.
  request.prune = PruneMode::On;
  const api::SolveReport forced = solver.solve(request);
  EXPECT_EQ(forced.centers, sm.centers);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(forced.value),
            std::bit_cast<std::uint64_t>(sm.value));
}

}  // namespace
}  // namespace kc

// Spatial-pruning suite: the cell-pruned scans (geom/spatial_index.hpp)
// must be **bit-identical** to the unpruned path — pruning may only
// skip pairs the triangle inequality proves cannot win — while charging
// strictly no more distance evaluations, splitting the skipped pairs
// into the pruned_pairs counter, and honouring the same budget/cancel
// gating contract as the unpruned scans on every backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string_view>
#include <vector>

#include "algo/gonzalez.hpp"
#include "api/solver.hpp"
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
          EXPECT_EQ(index.cell_of(id), c);
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

IndexFields fields_of(const SpatialIndex& index) {
  const std::size_t dim = index.dim();
  IndexFields f;
  f.width = index.cell_width();
  f.order.assign(index.order().begin(), index.order().end());
  for (std::size_t c = 0; c <= index.cell_count(); ++c) {
    f.cell_begin.push_back(index.cell_begin(c));
  }
  for (index_t id = 0; id < index.size(); ++id) {
    f.cell_of.push_back(index.cell_of(id));
  }
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
    const std::size_t zero_cell = index.cell_of(0);
    EXPECT_EQ(index.cell_of(1), zero_cell);
    EXPECT_EQ(index.cell_of(2), zero_cell);
    EXPECT_EQ(index.cell_of(3), zero_cell);
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

// --------------------------------------------------------- bit identity

class PrunedScans : public ::testing::TestWithParam<exec::BackendKind> {};

TEST_P(PrunedScans, BitIdenticalToUnprunedAcrossShapesMetricsAndDims) {
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
        std::vector<double> got(n, kInfDist);
        const WorkScope plain_work;
        plain.update_nearest_multi(ids, centers, want);
        const WorkCounters plain_elapsed = plain_work.elapsed();
        const WorkScope pruned_work;
        pruned.update_nearest_multi(ids, centers, got);
        const WorkCounters pruned_elapsed = pruned_work.elapsed();
        expect_bit_identical(got, want);

        // Work accounting: never more evals than unpruned, and the
        // evaluated/pruned split sums to the unpruned total.
        EXPECT_LE(pruned_elapsed.distance_evals, plain_elapsed.distance_evals);
        EXPECT_EQ(pruned_elapsed.distance_evals + pruned_elapsed.pruned_pairs,
                  plain_elapsed.distance_evals);

        // Gonzalez-shaped sequence: one best[], one center per sweep,
        // cached bounds carried across sweeps.
        PruneCache cache(index);
        std::vector<double> want_seq(n, kInfDist);
        std::vector<double> got_seq(n, kInfDist);
        for (const index_t c : centers) {
          plain.update_nearest(ids, c, want_seq);
          pruned.update_nearest(ids, c, got_seq, &cache);
        }
        expect_bit_identical(got_seq, want_seq);
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

INSTANTIATE_TEST_SUITE_P(AllBackends, PrunedScans,
                         ::testing::Values(exec::BackendKind::Sequential,
                                           exec::BackendKind::ThreadPool),
                         [](const auto& param_info) {
                           return std::string(exec::to_string(param_info.param));
                         });

// -------------------------------------------------------- ordered domain

TEST(OrderedScans, ValuesMatchTheUnprunedScanAtPermutedPositions) {
  // The ordered scans fold into best[] laid out in the index's cell
  // order: best_ordered[j] belongs to point order()[j]. The values must
  // still be bitwise those of the plain id-order scan — the permutation
  // is the only difference.
  Rng rng(909);
  for (int shape = 0; shape < 3; ++shape) {
    for (const std::size_t dim : {1u, 2u, 5u}) {
      const std::size_t n = 2500;
      const PointSet pts = make_input(shape, n, dim, rng);
      const std::vector<index_t> ids = pts.all_indices();
      const SpatialIndex index(pts);
      std::vector<index_t> centers(10);
      for (auto& c : centers) c = static_cast<index_t>(rng.uniform_int(n));

      for (const auto kind :
           {MetricKind::L2, MetricKind::L1, MetricKind::Linf}) {
        SCOPED_TRACE(std::string(shape_name(shape)) + " dim=" +
                     std::to_string(dim) + " " + std::string(to_string(kind)));
        DistanceOracle plain(pts, kind);
        DistanceOracle pruned(pts, kind);
        pruned.bind_index(&index, PruneMode::On);
        ASSERT_EQ(pruned.ordered_scans_available(),
                  !force_no_prune_requested());
        if (!pruned.ordered_scans_available()) GTEST_SKIP();

        // Multi scan from fresh infinity.
        std::vector<double> want(n, kInfDist);
        std::vector<double> got(n, kInfDist);
        const WorkScope plain_work;
        plain.update_nearest_multi(ids, centers, want);
        const std::uint64_t plain_evals = plain_work.elapsed().distance_evals;
        const WorkScope pruned_work;
        pruned.update_nearest_multi_ordered(centers, got);
        const WorkCounters pruned_elapsed = pruned_work.elapsed();
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got[j]),
                    std::bit_cast<std::uint64_t>(want[index.order()[j]]))
              << "ordered slot " << j;
        }
        EXPECT_EQ(pruned_elapsed.distance_evals + pruned_elapsed.pruned_pairs,
                  plain_evals);

        // Sweep sequence sharing one cache across centers (GON shape).
        PruneCache cache(index);
        std::vector<double> want_seq(n, kInfDist);
        std::vector<double> got_seq(n, kInfDist);
        for (const index_t c : centers) {
          plain.update_nearest(ids, c, want_seq);
          pruned.update_nearest_ordered(c, got_seq, &cache);
        }
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got_seq[j]),
                    std::bit_cast<std::uint64_t>(want_seq[index.order()[j]]))
              << "ordered slot " << j;
        }
      }
    }
  }
}

TEST(OrderedScans, RequireAMatchingBoundIndex) {
  Rng rng(910);
  const PointSet pts = data::generate_gau(2000, 8, 2, 100.0, 0.1, rng);
  std::vector<double> best(pts.size(), kInfDist);
  const index_t centers[2] = {0, 1};

  // No index bound: the ordered domain does not even exist, so the
  // scans refuse rather than silently fall back to id order (the caller
  // would misread the result's layout).
  DistanceOracle bare(pts);
  EXPECT_FALSE(bare.ordered_scans_available());
  EXPECT_THROW(bare.update_nearest_ordered(0, best), std::logic_error);
  EXPECT_THROW(bare.update_nearest_multi_ordered(centers, best),
               std::logic_error);

  // Index bound but pruning off: same contract.
  const SpatialIndex index(pts);
  DistanceOracle off(pts);
  off.bind_index(&index, PruneMode::Off);
  EXPECT_FALSE(off.ordered_scans_available());
  EXPECT_THROW(off.update_nearest_ordered(0, best), std::logic_error);

  // Wrong-size best[]: the ordered domain covers the full point set
  // only.
  DistanceOracle on(pts);
  on.bind_index(&index, PruneMode::On);
  if (on.ordered_scans_available()) {
    std::vector<double> wrong(pts.size() - 1, kInfDist);
    EXPECT_THROW(on.update_nearest_multi_ordered(centers, wrong),
                 std::logic_error);
  }
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
}

TEST(PrunedScansFallback, PruneModeOffKeepsTheUnprunedPathAndCounters) {
  Rng rng(32);
  const PointSet pts = data::generate_gau(4000, 8, 2, 100.0, 0.1, rng);
  const SpatialIndex index(pts);
  DistanceOracle oracle(pts);
  oracle.bind_index(&index, PruneMode::Off);
  EXPECT_FALSE(oracle.pruning_enabled());

  const std::vector<index_t> ids = pts.all_indices();
  std::vector<double> best(ids.size(), kInfDist);
  const WorkScope scope;
  oracle.update_nearest(ids, 0, best);
  EXPECT_EQ(scope.elapsed().pruned_pairs, 0u);
  EXPECT_EQ(scope.elapsed().distance_evals, ids.size());
}

// --------------------------------------------------------- budget/cancel

TEST(PrunedScansGated, BudgetStopsWithinOneGateAndNeverOvercharges) {
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
  std::vector<double> best(ids.size(), kInfDist);
  EXPECT_THROW(oracle.update_nearest_multi(ids, centers, best),
               BudgetExceededError);
  // Never overdrawn, and stopped promptly: the pruned scan pre-buys
  // credit in gate batches and refunds the unexecuted remainder on the
  // stop, so consumed() can sit up to ~two gates under the limit but
  // no executed work ever exceeds it.
  EXPECT_LE(ctx.budget->consumed(), kBudget);
  EXPECT_GE(ctx.budget->consumed() + 2 * exec::kGateEvals, kBudget);
}

TEST(PrunedScansGated, CancellationStopsThePrunedScan) {
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
  std::vector<double> best(ids.size(), kInfDist);
  EXPECT_THROW(oracle.update_nearest_multi(ids, centers, best),
               CancelledError);
}

TEST(PrunedScansGated, CompletedGatedScanChargesExactlyItsEvaluatedPairs) {
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
  std::vector<double> best(ids.size(), kInfDist);
  const WorkScope scope;
  oracle.update_nearest_multi(ids, centers, best);
  // The budget odometer and the thread-local counters agree exactly on
  // a completed scan: evaluated pairs, with the pruned ones free.
  EXPECT_EQ(ctx.budget->consumed(), scope.elapsed().distance_evals);
}

// ------------------------------------------------------------- api knob

TEST(ApiSolverPrune, AutoPrunesBitIdenticallyAndReportsTheSplit) {
  // GON and every cluster algorithm: a cluster algorithm's pruned pairs
  // are attributed per machine task and must reach the report just like
  // a sequential solve's. On this shape EIM degenerates to one GON
  // round, so it prunes as GON does.
  Rng rng(2025);
  const PointSet pts = data::generate_gau(10'000, 25, 2, 100.0, 0.1, rng);

  for (const char* algorithm : {"gon", "mrg", "eim", "mrg-du", "ccm"}) {
    SCOPED_TRACE(algorithm);
    api::SolveRequest request;
    request.points = &pts;
    request.k = 25;
    request.algorithm = algorithm;
    request.prune = PruneMode::Off;
    api::Solver solver;
    const api::SolveReport off = solver.solve(request);

    request.prune = PruneMode::Auto;  // n >= 4096, dim 2: auto builds
    const api::SolveReport on = solver.solve(request);

    EXPECT_EQ(on.centers, off.centers);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(on.value),
              std::bit_cast<std::uint64_t>(off.value));
    EXPECT_EQ(off.pairs_pruned, 0u);
    EXPECT_EQ(on.dist_evals + on.pairs_pruned, off.dist_evals);
    if (!force_no_prune_requested() &&
        (std::string_view(algorithm) == "gon" ||
         std::string_view(algorithm) == "eim")) {
      EXPECT_GT(on.pairs_pruned, 0u);
    }
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

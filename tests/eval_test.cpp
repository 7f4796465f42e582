#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "geom/spatial_index.hpp"
#include "test_util.hpp"

namespace kc::eval {
namespace {

TEST(CoveringRadius, MatchesHandComputation) {
  const PointSet ps{{0.0, 0.0}, {1.0, 0.0}, {4.0, 0.0}, {10.0, 0.0}};
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const std::vector<index_t> centers{0, 3};
  const auto result = covering_radius(oracle, all, centers);
  // Point 4.0 is 4 from center 0 and 6 from center 10: radius 4.
  EXPECT_DOUBLE_EQ(result.radius, 4.0);
  EXPECT_EQ(result.witness, 2u);
  EXPECT_DOUBLE_EQ(result.radius_comparable, 16.0);
}

TEST(CoveringRadius, ZeroWhenCentersCoverAll) {
  const PointSet ps{{0.0, 0.0}, {5.0, 5.0}};
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const auto result = covering_radius(oracle, all, all);
  EXPECT_DOUBLE_EQ(result.radius, 0.0);
}

// Evaluation on the execution substrate: an oracle bound to a pool
// (sharded covering scan, assignment chunks fanned out over
// parallel_for) gives the same bits as an unbound one, ungated and
// under an armed context, and an armed run charges the same evals.
TEST(EvalOnSubstrate, PoolBoundMatchesUnboundBitForBit) {
  const PointSet ps = test::small_gaussian_instance(6, 3000, 1);
  ASSERT_GE(ps.size(), 4u * 4096u);  // four assignment chunks of 4096+
  const auto all = ps.all_indices();
  const std::vector<index_t> centers{0, 100, 700, 1500, 9000, 17000};
  const auto pool = exec::make_backend(exec::BackendKind::ThreadPool, 4);
  DistanceOracle unbound(ps);
  DistanceOracle bound(ps);
  bound.bind_executor(pool.get());

  const auto expect_same = [&] {
    const auto want = covering_radius(unbound, all, centers);
    const auto got = covering_radius(bound, all, centers);
    EXPECT_EQ(got.radius_comparable, want.radius_comparable);
    EXPECT_EQ(got.radius, want.radius);
    EXPECT_EQ(got.witness, want.witness);
    EXPECT_EQ(assign_clusters(bound, all, centers),
              assign_clusters(unbound, all, centers));
  };
  {
    SCOPED_TRACE("ungated");
    expect_same();
  }

  exec::ChunkContext unbound_ctx;
  unbound_ctx.budget = std::make_shared<exec::EvalBudget>(1ull << 40);
  exec::ChunkContext bound_ctx;
  bound_ctx.budget = std::make_shared<exec::EvalBudget>(1ull << 40);
  unbound.bind_context(&unbound_ctx);
  bound.bind_context(&bound_ctx);
  {
    SCOPED_TRACE("armed");
    expect_same();
  }
  // One covering scan and one assignment pass per armed oracle.
  EXPECT_EQ(bound_ctx.budget->consumed(), unbound_ctx.budget->consumed());
  EXPECT_EQ(bound_ctx.budget->consumed(), 2u * ps.size() * centers.size());
}

// Under pruning the covering scan runs in the grid's cell order, where
// the first maximum is the one in the lowest cell. The witness must
// still be the smallest id among the maxima, as without an index.
TEST(CoveringRadius, PrunedWitnessIsTheSmallestIdAmongTiedMaxima) {
  // A 101 x 101 integer lattice numbered from its far corner, so id 0
  // is (100, 100) and lies in the last cell. Nine centers on a 3 x 3
  // grid leave the four lattice corners, in four different cells, tied
  // farthest (under L1 and L2; Linf ties many more points).
  constexpr int kSide = 101;
  PointSet ps;
  for (int x = kSide - 1; x >= 0; --x) {
    for (int y = kSide - 1; y >= 0; --y) {
      ps.push_back(std::vector<double>{static_cast<double>(x),
                                       static_cast<double>(y)});
    }
  }
  const auto id_of = [](int x, int y) {
    return static_cast<index_t>((kSide - 1 - x) * kSide + (kSide - 1 - y));
  };
  std::vector<index_t> centers;
  for (const int cx : {20, 50, 80}) {
    for (const int cy : {20, 50, 80}) centers.push_back(id_of(cx, cy));
  }
  const auto all = ps.all_indices();
  const SpatialIndex index(ps);
  ASSERT_GT(index.cell_count(), 1u);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };

  for (const auto kind : {MetricKind::L2, MetricKind::L1, MetricKind::Linf}) {
    SCOPED_TRACE(std::string(to_string(kind)));
    const DistanceOracle unbound(ps, kind);
    const Evaluation want = covering_radius(unbound, all, centers);

    // The ties are real, and cell order lists another of them first.
    std::vector<double> best(ps.size(), kInfDist);
    unbound.update_nearest_multi(all, centers, best);
    std::vector<index_t> tied;
    for (const index_t id : index.order()) {
      if (best[id] == want.radius_comparable) tied.push_back(id);
    }
    ASSERT_GT(tied.size(), 1u);
    EXPECT_EQ(want.witness, *std::min_element(tied.begin(), tied.end()));
    EXPECT_NE(tied.front(), want.witness);

    for (const auto backend_kind :
         {exec::BackendKind::Sequential, exec::BackendKind::ThreadPool}) {
      SCOPED_TRACE(std::string(exec::to_string(backend_kind)));
      const auto backend = exec::make_backend(backend_kind, 4);
      DistanceOracle pruned(ps, kind);
      pruned.bind_executor(backend.get(), /*min_items=*/256);
      pruned.bind_index(&index, PruneMode::On);
      const WorkScope work;
      const Evaluation got = covering_radius(pruned, all, centers);
      EXPECT_EQ(bits(got.radius_comparable), bits(want.radius_comparable));
      EXPECT_EQ(bits(got.radius), bits(want.radius));
      EXPECT_EQ(got.witness, want.witness);
      if (!force_no_prune_requested()) {
        EXPECT_GT(work.elapsed().pruned_pairs, 0u);
      }
    }
  }
}

TEST(CoveringRadius, ValidatesInput) {
  const PointSet ps{{0.0, 0.0}};
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  EXPECT_THROW((void)covering_radius(oracle, all, {}),
               std::invalid_argument);
  EXPECT_THROW((void)covering_radius(oracle, {}, all),
               std::invalid_argument);
}

TEST(AssignClusters, NearestCenterWins) {
  const PointSet ps{{0.0, 0.0}, {9.0, 0.0}, {1.0, 0.0}, {8.0, 0.0}};
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const std::vector<index_t> centers{0, 1};
  const auto assignment = assign_clusters(oracle, all, centers);
  EXPECT_EQ(assignment[0], 0u);
  EXPECT_EQ(assignment[1], 1u);
  EXPECT_EQ(assignment[2], 0u);
  EXPECT_EQ(assignment[3], 1u);
}

TEST(ClusterStats, SizesAndRadii) {
  const PointSet ps{{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0},
                    {50.0, 0.0}, {51.0, 0.0}};
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const std::vector<index_t> centers{0, 3};
  const auto stats = cluster_stats(oracle, all, centers);
  ASSERT_EQ(stats.sizes.size(), 2u);
  EXPECT_EQ(stats.sizes[0], 3u);
  EXPECT_EQ(stats.sizes[1], 2u);
  EXPECT_DOUBLE_EQ(stats.radii[0], 2.0);
  EXPECT_DOUBLE_EQ(stats.radii[1], 1.0);
  EXPECT_DOUBLE_EQ(stats.max_radius, 2.0);
  EXPECT_DOUBLE_EQ(stats.mean_radius, 1.5);
  EXPECT_EQ(stats.largest_cluster, 3u);
  EXPECT_EQ(stats.smallest_cluster, 2u);
}

TEST(ClusterStats, MaxRadiusEqualsCoveringRadius) {
  const PointSet ps = test::small_gaussian_instance(5, 200, 2);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const auto gon = gonzalez(oracle, all, 5);
  const auto stats = cluster_stats(oracle, all, gon.centers);
  const auto cover = covering_radius(oracle, all, gon.centers);
  EXPECT_NEAR(stats.max_radius, cover.radius, 1e-9);
}

TEST(LowerBound, NeverExceedsExactOptimum) {
  Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    PointSet ps(14, 2);
    for (index_t i = 0; i < 14; ++i) {
      for (auto& c : ps.mutable_point(i)) c = rng.uniform(0, 10);
    }
    const DistanceOracle oracle(ps);
    const auto all = ps.all_indices();
    const auto opt = brute_force_opt(oracle, all, 3);
    const double lb = gonzalez_lower_bound(oracle, all, 3);
    EXPECT_LE(lb, oracle.to_reported(opt.radius_comparable) + 1e-9);
    // And it is not vacuous: at least OPT/2 by the GON guarantee.
    EXPECT_GE(lb, oracle.to_reported(opt.radius_comparable) / 2.0 - 1e-9);
  }
}

TEST(LowerBound, ExactOnPlantedInstances) {
  Rng rng(4);
  const auto inst = data::make_planted(4, 9, 1.0, 10.0, 2, rng);
  const DistanceOracle oracle(inst.points);
  const auto all = inst.points.all_indices();
  const double lb = gonzalez_lower_bound(oracle, all, 4);
  EXPECT_LE(lb, inst.opt_radius + 1e-9);
  EXPECT_GE(lb, inst.opt_radius / 2.0 - 1e-9);
}

TEST(RatioUpperBound, BoundsGonzalezByTwo) {
  const PointSet ps = test::small_gaussian_instance(6, 300, 5);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const auto gon = gonzalez(oracle, all, 6);
  const double value = oracle.to_reported(gon.radius_comparable);
  // value / LB <= value / (value/2) = 2... but LB uses its own GON run;
  // both are within a factor 2 of OPT so the ratio is at most 4; for
  // the same run's radius the certified bound is exactly <= 2 when LB
  // derives from the same greedy sequence. Use the weaker sound bound.
  EXPECT_LE(ratio_upper_bound(oracle, all, 6, value), 4.0 + 1e-9);
}

TEST(RatioUpperBound, DegenerateZeroRadius) {
  const PointSet ps = test::all_duplicates(10);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  EXPECT_DOUBLE_EQ(ratio_upper_bound(oracle, all, 2, 0.0), 1.0);
}

}  // namespace
}  // namespace kc::eval

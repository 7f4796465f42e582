#include <gtest/gtest.h>

#include <cmath>

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

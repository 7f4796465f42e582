// Tests for EIM (Algorithm 2 + Select): termination (including the
// §4.1 fixes), the sampling/no-sampling regimes, the phi knob, and the
// probabilistic approximation guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "test_util.hpp"

namespace kc {
namespace {

EimOptions default_options(std::uint64_t seed = 1) {
  EimOptions options;
  options.seed = seed;
  return options;
}

TEST(EimThreshold, MatchesFormula) {
  EimOptions options;
  options.epsilon = 0.1;
  options.log_base = LogBase::Ten;
  const double t = eim_loop_threshold(100000, 25, options);
  EXPECT_NEAR(t, (4.0 / 0.1) * 25 * std::pow(100000.0, 0.1) * 5.0, 1e-6);
}

TEST(EimThreshold, LogBasesAreOrdered) {
  EimOptions options;
  options.log_base = LogBase::Two;
  const double t2 = eim_loop_threshold(50000, 10, options);
  options.log_base = LogBase::E;
  const double te = eim_loop_threshold(50000, 10, options);
  options.log_base = LogBase::Ten;
  const double t10 = eim_loop_threshold(50000, 10, options);
  EXPECT_GT(t2, te);
  EXPECT_GT(te, t10);
}

TEST(EimThreshold, LogBaseNames) {
  EXPECT_EQ(to_string(LogBase::E), "ln");
  EXPECT_EQ(to_string(LogBase::Two), "log2");
  EXPECT_EQ(to_string(LogBase::Ten), "log10");
  EXPECT_DOUBLE_EQ(log_with_base(8.0, LogBase::Two), 3.0);
  EXPECT_DOUBLE_EQ(log_with_base(100.0, LogBase::Ten), 2.0);
  EXPECT_NEAR(log_with_base(std::exp(1.0), LogBase::E), 1.0, 1e-12);
}

TEST(Eim, SamplesWhenAboveThreshold) {
  const PointSet ps = test::small_gaussian_instance(10, 3000, 1);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(10);
  const EimOptions options = default_options();
  ASSERT_GT(static_cast<double>(ps.size()),
            eim_loop_threshold(ps.size(), 10, options));
  const auto result = eim(oracle, all, 10, cluster, options);
  EXPECT_TRUE(result.sampled);
  EXPECT_GE(result.iterations, 1);
  // 3 MapReduce rounds per iteration plus the final clean-up.
  EXPECT_EQ(result.trace.num_rounds(), 3 * result.iterations + 1);
  EXPECT_EQ(result.centers.size(), 10u);
  EXPECT_TRUE(test::valid_center_set(result.centers, ps.size()));
  // The final sample is a strict subset of the input.
  EXPECT_LT(result.final_sample_size, ps.size());
  EXPECT_GE(result.final_sample_size, 10u);
}

TEST(Eim, DegeneratesToSequentialWhenKTooLarge) {
  // Figure 3b / 4b: when n <= (4/eps) k n^eps log n the loop never
  // runs and the whole input goes to one machine.
  const PointSet ps = test::small_gaussian_instance(10, 200, 2);  // n = 2000
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(10);
  const EimOptions options = default_options();
  ASSERT_LE(static_cast<double>(ps.size()),
            eim_loop_threshold(ps.size(), 100, options));
  const auto result = eim(oracle, all, 100, cluster, options);
  EXPECT_FALSE(result.sampled);
  EXPECT_EQ(result.iterations, 0);
  EXPECT_EQ(result.trace.num_rounds(), 1);
  EXPECT_EQ(result.final_sample_size, ps.size());
  EXPECT_EQ(result.centers.size(), 100u);
}

TEST(Eim, DegenerateRunMatchesGonzalezValue) {
  const PointSet ps = test::small_gaussian_instance(8, 100, 3);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(10);
  const auto result = eim(oracle, all, 50, cluster, default_options());
  ASSERT_FALSE(result.sampled);
  // Same algorithm (GON with random seed) on the same full input: the
  // value must be within GON's guarantee band.
  const auto gon = gonzalez(oracle, all, 50);
  const double eim_value = test::value_of(oracle, all, result.centers);
  const double gon_value = oracle.to_reported(gon.radius_comparable);
  EXPECT_LT(eim_value, 2.5 * gon_value + 1e-9);
  EXPECT_LT(gon_value, 2.5 * eim_value + 1e-9);
}

TEST(Eim, TerminatesOnAllDuplicatePoints) {
  // The adversarial case behind the §4.1 fixes: every distance is 0,
  // so the original "remove strictly closer than v" rule would loop
  // forever. With the `<=` rule R drains and the algorithm halts.
  const PointSet ps = test::all_duplicates(5000);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(10);
  EimOptions options = default_options();
  options.max_iterations = 50;
  const auto result = eim(oracle, all, 2, cluster, options);
  EXPECT_EQ(result.centers.size(), 2u);
  EXPECT_LE(result.iterations, 3);  // ties all removed in one pass
}

TEST(Eim, TerminatesOnTwoValueData) {
  // Half the points at one location, half at another: massive ties.
  PointSet ps(4000, 2);
  for (index_t i = 0; i < ps.size(); ++i) {
    auto p = ps.mutable_point(i);
    p[0] = (i % 2 == 0) ? 0.0 : 50.0;
    p[1] = 0.0;
  }
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(10);
  const auto result = eim(oracle, all, 2, cluster, default_options());
  EXPECT_EQ(result.centers.size(), 2u);
  // Both locations must be represented: the value is 0.
  EXPECT_NEAR(test::value_of(oracle, all, result.centers), 0.0, 1e-12);
}

TEST(Eim, OriginalRemovalRuleStallsOnTies) {
  // Regression demonstration for §4.1: with the original strict-<
  // removal and without forced sample removal, an all-ties instance
  // never shrinks R ("the procedure looping indefinitely" in the
  // paper's words); our safety valve converts that into an exception.
  const PointSet ps = test::all_duplicates(5000);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(10);
  EimOptions original = default_options();
  original.tie_breaking_removal = false;
  original.remove_sampled = false;
  original.max_iterations = 8;
  EXPECT_THROW((void)eim(oracle, all, 2, cluster, original),
               std::runtime_error);
}

TEST(Eim, EachFixAloneRestoresTermination) {
  // Either §4.1 fix suffices on the all-ties adversary: `<=` prunes
  // the tied points, and sample removal drains R via the samples.
  const PointSet ps = test::all_duplicates(5000);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(10);

  EimOptions tie_fix_only = default_options();
  tie_fix_only.remove_sampled = false;
  EXPECT_EQ(eim(oracle, all, 2, cluster, tie_fix_only).centers.size(), 2u);

  EimOptions sample_fix_only = default_options();
  sample_fix_only.tie_breaking_removal = false;
  sample_fix_only.max_iterations = 50;
  EXPECT_EQ(eim(oracle, all, 2, cluster, sample_fix_only).centers.size(), 2u);
}

TEST(Eim, StrictRuleStillWorksOnContinuousData) {
  // On continuous data the only tie is the pivot itself (its distance
  // *equals* the threshold), so the strict-< rule merely keeps v alive
  // a little longer: the run still terminates with comparable quality.
  const PointSet ps = test::small_gaussian_instance(5, 2000, 12);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(10);
  EimOptions strict = default_options(5);
  strict.tie_breaking_removal = false;
  const auto fixed = eim(oracle, all, 5, cluster, default_options(5));
  const auto original = eim(oracle, all, 5, cluster, strict);
  const double v_fixed = test::value_of(oracle, all, fixed.centers);
  const double v_original = test::value_of(oracle, all, original.centers);
  EXPECT_LT(v_original, 3.0 * v_fixed + 1e-9);
  EXPECT_LT(v_fixed, 3.0 * v_original + 1e-9);
}

TEST(Eim, SampledPointsNeverSurviveInR) {
  // §4.1 fix 2: the output C = S + R has no duplicates (a sampled
  // point must leave R, otherwise it would appear twice).
  const PointSet ps = test::small_gaussian_instance(5, 2000, 4);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(10);
  const auto result = eim(oracle, all, 5, cluster, default_options());
  ASSERT_TRUE(result.sampled);
  EXPECT_TRUE(test::valid_center_set(result.centers, ps.size()));
}

TEST(Eim, RejectsInvalidArguments) {
  const PointSet ps{{0.0, 0.0}};
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(2);
  EXPECT_THROW((void)eim(oracle, all, 0, cluster), std::invalid_argument);
  EXPECT_THROW((void)eim(oracle, {}, 1, cluster), std::invalid_argument);
  EimOptions bad = default_options();
  bad.epsilon = 0.0;
  EXPECT_THROW((void)eim(oracle, all, 1, cluster, bad), std::invalid_argument);
  bad = default_options();
  bad.epsilon = 1.0;
  EXPECT_THROW((void)eim(oracle, all, 1, cluster, bad), std::invalid_argument);
  bad = default_options();
  bad.phi = 0.0;
  EXPECT_THROW((void)eim(oracle, all, 1, cluster, bad), std::invalid_argument);
}

TEST(Eim, DeterministicGivenSeed) {
  const PointSet ps = test::small_gaussian_instance(5, 2000, 5);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(10);
  const auto a = eim(oracle, all, 5, cluster, default_options(77));
  const auto b = eim(oracle, all, 5, cluster, default_options(77));
  EXPECT_EQ(a.centers, b.centers);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.final_sample_size, b.final_sample_size);
}

TEST(Eim, SmallerPhiPrunesFaster) {
  // phi controls the pivot rank: lower phi picks a farther pivot,
  // removes more of R per iteration, and needs no more iterations.
  const PointSet ps = test::small_gaussian_instance(10, 5000, 7);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(10);

  EimOptions low = default_options(3);
  low.phi = 1.0;
  EimOptions high = default_options(3);
  high.phi = 8.0;
  const auto fast = eim(oracle, all, 10, cluster, low);
  const auto slow = eim(oracle, all, 10, cluster, high);
  ASSERT_TRUE(fast.sampled);
  ASSERT_TRUE(slow.sampled);
  EXPECT_LE(fast.iterations, slow.iterations);
  EXPECT_LE(fast.trace.total_dist_evals(), slow.trace.total_dist_evals());
}

TEST(Eim, SampleSizeGrowsWithK) {
  const PointSet ps = test::small_gaussian_instance(10, 5000, 8);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(10);
  const auto small_k = eim(oracle, all, 2, cluster, default_options(9));
  const auto big_k = eim(oracle, all, 10, cluster, default_options(9));
  ASSERT_TRUE(small_k.sampled);
  ASSERT_TRUE(big_k.sampled);
  EXPECT_LT(small_k.final_sample_size, big_k.final_sample_size);
}

TEST(Eim, FinalRoundRunsOnOneMachine) {
  const PointSet ps = test::small_gaussian_instance(5, 2000, 10);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(10);
  const auto result = eim(oracle, all, 5, cluster, default_options());
  const auto& final_round = result.trace.rounds().back();
  EXPECT_EQ(final_round.machines_used, 1);
  EXPECT_EQ(final_round.items_in, result.final_sample_size);
  EXPECT_EQ(final_round.items_out, result.centers.size());
}

TEST(Eim, HochbaumShmoysFinalAlgorithm) {
  const PointSet ps = test::small_gaussian_instance(4, 1500, 11);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(10);
  EimOptions options = default_options();
  options.final_algo = SeqAlgo::HochbaumShmoys;
  // HS is quadratic: keep the sample small by construction (k small).
  const auto result = eim(oracle, all, 4, cluster, options);
  EXPECT_LE(result.centers.size(), 4u);
  EXPECT_FALSE(result.centers.empty());
}

class EimApproximation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EimApproximation, WithinTenTimesPlantedOptimum) {
  // The 10-approximation holds "with sufficient probability" (§6);
  // on planted instances with well-separated unit clusters we check
  // the bound directly for several seeds.
  Rng rng(GetParam());
  const auto inst = data::make_planted(6, 1001, 1.0, 12.0, 2, rng);
  const DistanceOracle oracle(inst.points);
  const auto all = inst.points.all_indices();
  const mr::SimCluster cluster(10);
  EimOptions options = default_options(GetParam() * 31 + 1);
  options.phi = 6.0;  // within the provable range (phi > 5.15)
  const auto result = eim(oracle, all, 6, cluster, options);
  EXPECT_LE(test::value_of(oracle, all, result.centers),
            10.0 * inst.opt_radius + 1e-9);
}

TEST_P(EimApproximation, ComparableToGonzalezOnClusteredData) {
  // §8: "the solutions for the parallelized algorithms are comparable
  // to those of the baseline". Enforce a loose factor to catch
  // regressions without flaking on randomness.
  const PointSet ps = test::small_gaussian_instance(10, 4000, GetParam() + 50);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(10);
  const auto result =
      eim(oracle, all, 10, cluster, default_options(GetParam()));
  const auto gon = gonzalez(oracle, all, 10);
  EXPECT_LE(test::value_of(oracle, all, result.centers),
            3.0 * oracle.to_reported(gon.radius_comparable) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EimApproximation,
                         ::testing::Range<std::uint64_t>(0, 6));

}  // namespace
}  // namespace kc

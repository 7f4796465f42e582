// Tests for MRG (Algorithm 1): round structure, approximation factors,
// capacity handling and the adversarial tightness witness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "test_util.hpp"

namespace kc {
namespace {

MrgOptions default_options(std::uint64_t seed = 1) {
  MrgOptions options;
  options.seed = seed;
  return options;
}

TEST(Mrg, TwoRoundsWithDerivedCapacity) {
  const PointSet ps = test::small_gaussian_instance(5, 200, 1);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(10);
  const auto result = mrg(oracle, all, 5, cluster, default_options());
  EXPECT_EQ(result.reduce_rounds, 1);          // one while-loop pass
  EXPECT_EQ(result.trace.num_rounds(), 2);     // + final = 2 MapReduce rounds
  EXPECT_EQ(result.guaranteed_factor(), 4);
  EXPECT_EQ(result.centers.size(), 5u);
  EXPECT_TRUE(test::valid_center_set(result.centers, ps.size()));
}

TEST(Mrg, FirstRoundUsesAllMachines) {
  const PointSet ps = test::small_gaussian_instance(4, 100, 2);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(8);
  const auto result = mrg(oracle, all, 4, cluster, default_options());
  EXPECT_EQ(result.trace.rounds()[0].machines_used, 8);
  EXPECT_EQ(result.trace.rounds()[1].machines_used, 1);  // final round
}

TEST(Mrg, RoundAccountingTracksItemFlow) {
  const PointSet ps = test::small_gaussian_instance(4, 100, 3);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(8);
  const auto result = mrg(oracle, all, 4, cluster, default_options());
  const auto& reduce = result.trace.rounds()[0];
  const auto& final_round = result.trace.rounds()[1];
  EXPECT_EQ(reduce.items_in, ps.size());
  EXPECT_EQ(reduce.items_out, 8u * 4u);  // k centers per machine
  EXPECT_EQ(final_round.items_in, reduce.items_out);
  EXPECT_EQ(final_round.items_out, 4u);
}

TEST(Mrg, SingleMachineEqualsSequentialGonzalez) {
  const PointSet ps = test::small_gaussian_instance(6, 50, 4);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(1);
  // With m=1 and capacity >= n the loop never runs: MRG *is* GON.
  MrgOptions options = default_options();
  options.capacity = ps.size();
  const auto parallel = mrg(oracle, all, 6, cluster, options);
  const auto sequential = gonzalez(oracle, all, 6);
  EXPECT_EQ(parallel.centers, sequential.centers);
  EXPECT_EQ(parallel.reduce_rounds, 0);
  EXPECT_EQ(parallel.guaranteed_factor(), 2);  // no parallel loss
}

TEST(Mrg, MultiRoundUnderTightCapacity) {
  const PointSet ps = test::small_gaussian_instance(4, 500, 5);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(20);
  MrgOptions options = default_options();
  // n/m = 100 fits capacity 100, but k*m = 8*20 = 160 centers exceed
  // it, so the sample itself needs another reduce round.
  options.capacity = 100;
  const auto result = mrg(oracle, all, 8, cluster, options);
  EXPECT_GE(result.reduce_rounds, 2);
  EXPECT_EQ(result.guaranteed_factor(), 2 * (result.reduce_rounds + 1));
  EXPECT_EQ(result.centers.size(), 8u);
  // Every reduce round after the first uses just enough machines.
  for (int r = 1; r + 1 < result.trace.num_rounds(); ++r) {
    const auto& round = result.trace.rounds()[r];
    const auto needed = static_cast<int>(
        (round.items_in + options.capacity - 1) / options.capacity);
    EXPECT_EQ(round.machines_used, std::min(20, needed));
  }
}

TEST(Mrg, MachineCountShrinksPerInequalityOne) {
  // Inequality (1): m_i <= m * (k/c)^i + (1 - (k/c)^i) / (1 - k/c).
  const PointSet ps = test::small_gaussian_instance(2, 1000, 6);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const int m = 40;  // n/m = 50 = c, but k*m = 80 > c: multi-round
  const std::size_t k = 2;
  const std::size_t c = 50;
  const mr::SimCluster cluster(m);
  MrgOptions options = default_options();
  options.capacity = c;
  const auto result = mrg(oracle, all, k, cluster, options);
  const double ratio = static_cast<double>(k) / static_cast<double>(c);
  for (int i = 1; i + 1 < result.trace.num_rounds(); ++i) {
    const double bound = m * std::pow(ratio, i) +
                         (1.0 - std::pow(ratio, i)) / (1.0 - ratio);
    EXPECT_LE(result.trace.rounds()[i].machines_used, bound + 1e-9)
        << "round " << i;
  }
}

TEST(Mrg, ThrowsWhenInputCannotFitCluster) {
  const PointSet ps = test::small_gaussian_instance(2, 500, 7);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(2);
  MrgOptions options = default_options();
  options.capacity = 100;  // ceil(1000/2) = 500 > 100
  EXPECT_THROW((void)mrg(oracle, all, 2, cluster, options), std::length_error);
}

TEST(Mrg, ThrowsWhenKTooLargeForCapacity) {
  const PointSet ps = test::small_gaussian_instance(2, 500, 8);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(10);
  MrgOptions options = default_options();
  // k = 120 > c = 100: selecting k centers on one machine is impossible,
  // and reduce rounds cannot shrink the sample (k*m' >= |S|).
  options.capacity = 100;
  EXPECT_THROW((void)mrg(oracle, all, 120, cluster, options),
               std::runtime_error);
}

TEST(Mrg, RejectsInvalidArguments) {
  const PointSet ps{{0.0, 0.0}};
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(2);
  EXPECT_THROW((void)mrg(oracle, all, 0, cluster), std::invalid_argument);
  EXPECT_THROW((void)mrg(oracle, {}, 1, cluster), std::invalid_argument);
}

TEST(Mrg, DeterministicGivenSeed) {
  const PointSet ps = test::small_gaussian_instance(5, 100, 9);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(7);
  const auto a = mrg(oracle, all, 5, cluster, default_options(42));
  const auto b = mrg(oracle, all, 5, cluster, default_options(42));
  EXPECT_EQ(a.centers, b.centers);
}

TEST(Mrg, ShuffledPartitionIsSeedDeterministic) {
  const PointSet ps = test::small_gaussian_instance(5, 100, 10);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(7);
  MrgOptions options = default_options(42);
  options.partition = mr::PartitionStrategy::Shuffled;
  const auto a = mrg(oracle, all, 5, cluster, options);
  const auto b = mrg(oracle, all, 5, cluster, options);
  EXPECT_EQ(a.centers, b.centers);
}

TEST(Mrg, HochbaumShmoysAsInnerAlgorithm) {
  const PointSet ps = test::small_gaussian_instance(4, 100, 12);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(8);
  MrgOptions options = default_options();
  options.inner = SeqAlgo::HochbaumShmoys;
  options.final_algo = SeqAlgo::HochbaumShmoys;
  const auto result = mrg(oracle, all, 4, cluster, options);
  EXPECT_LE(result.centers.size(), 4u);
  EXPECT_FALSE(result.centers.empty());
  // Still a 4-approx in two rounds (Lemma 1 holds for any 2-approx inner).
  EXPECT_EQ(result.trace.num_rounds(), 2);
}

TEST(Mrg, ExplicitPartitionValidated) {
  const PointSet ps = test::small_gaussian_instance(2, 50, 13);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(2);
  MrgOptions options = default_options();
  options.partition = mr::PartitionStrategy::Explicit;
  // Missing assignment vector.
  EXPECT_THROW((void)mrg(oracle, all, 2, cluster, options),
               std::invalid_argument);
  options.explicit_assignment = std::vector<int>{0, 1};  // wrong arity
  EXPECT_THROW((void)mrg(oracle, all, 2, cluster, options),
               std::invalid_argument);
}

// ------------------------------------------------- approximation factors

class MrgApproximation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MrgApproximation, TwoRoundRunIsFourApproxOnPlanted) {
  Rng rng(GetParam());
  const auto inst = data::make_planted(6, 21, 1.0, 10.0, 2, rng);
  const DistanceOracle oracle(inst.points);
  const auto all = inst.points.all_indices();
  const mr::SimCluster cluster(6);
  MrgOptions options = default_options(GetParam());
  options.partition = mr::PartitionStrategy::Shuffled;
  const auto result = mrg(oracle, all, 6, cluster, options);
  ASSERT_EQ(result.reduce_rounds, 1);
  EXPECT_LE(test::value_of(oracle, all, result.centers),
            4.0 * inst.opt_radius + 1e-9);
}

TEST_P(MrgApproximation, MultiRoundRespectsLoosenedBound) {
  Rng rng(GetParam() + 500);
  const auto inst = data::make_planted(4, 51, 1.0, 12.0, 2, rng);
  const DistanceOracle oracle(inst.points);
  const auto all = inst.points.all_indices();
  const mr::SimCluster cluster(17);
  MrgOptions options = default_options(GetParam());
  options.capacity = 30;  // force k*m = 68 > 30: multiple rounds
  const auto result = mrg(oracle, all, 4, cluster, options);
  EXPECT_GE(result.reduce_rounds, 2);
  EXPECT_LE(test::value_of(oracle, all, result.centers),
            result.guaranteed_factor() * inst.opt_radius + 1e-9);
}

TEST_P(MrgApproximation, WithinFourTimesBruteForceOnRandomInstances) {
  Rng rng(GetParam() + 900);
  const std::size_t n = 16;
  const std::size_t k = 2 + rng.uniform_int(2);
  PointSet ps(n, 2);
  for (index_t i = 0; i < n; ++i) {
    for (auto& c : ps.mutable_point(i)) c = rng.uniform(0, 10);
  }
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const auto opt = brute_force_opt(oracle, all, k);
  const mr::SimCluster cluster(2);
  MrgOptions options = default_options(GetParam());
  options.capacity = std::max<std::size_t>(n / 2, k * 2);
  const auto result = mrg(oracle, all, k, cluster, options);
  EXPECT_LE(test::value_of(oracle, all, result.centers),
            4.0 * oracle.to_reported(opt.radius_comparable) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MrgApproximation,
                         ::testing::Range<std::uint64_t>(0, 8));

// ------------------------------------------------- tightness witness

TEST(Mrg, AdversarialInstanceRealizesNearlyFactorFour) {
  // Hand-derived 1-D instance (see test_util.hpp): four unit clusters
  // A{0,1,2} B{4,5,6.05} C{8,9,10} D{12,13,14}; exact OPT = 1.05.
  // Block partition M1 = {4,13,9,8,12,5}, M2 = {2,14,6.05,10,0,1}:
  //   GON(M1) emits [4,13,9,8]; GON(M2) emits [2,14,6.05,10]
  //   (0 is never the farthest point, so it survives as a non-center
  //   at distance 2 from its representative 2);
  //   final GON on C = [4,13,9,8,2,14,6.05,10] seeded at 4 emits
  //   {4,14,9,6.05} - covering 2 via 4 - and point 0 ends up at
  //   distance 4.0 = 3.81 * OPT, demonstrating the paper's claim that
  //   MRG's factor 4 is tight (future-work section).
  const test::AdversarialMrgInstance inst;
  const DistanceOracle oracle(inst.points);
  const auto all = inst.points.all_indices();

  // Confirm the claimed exact optimum by brute force.
  const auto opt = brute_force_opt(oracle, all, inst.k);
  ASSERT_NEAR(oracle.to_reported(opt.radius_comparable), inst.opt, 1e-9);

  const mr::SimCluster cluster(inst.machines);
  MrgOptions options;
  options.partition = mr::PartitionStrategy::Block;
  const auto result = mrg(oracle, all, inst.k, cluster, options);
  ASSERT_EQ(result.reduce_rounds, 1);

  const double value = test::value_of(oracle, all, result.centers);
  EXPECT_NEAR(value, inst.expected_value, 1e-9);

  const double ratio = value / inst.opt;
  EXPECT_GT(ratio, 3.5);                      // far beyond GON's factor 2
  EXPECT_LE(value, 4.0 * inst.opt + 1e-9);    // but still within Lemma 2
}

TEST(Mrg, AdversarialInstanceIsEasyForSequentialGonzalez) {
  // The same instance is solved well by plain GON (the badness is the
  // partition, not the data).
  const test::AdversarialMrgInstance inst;
  const DistanceOracle oracle(inst.points);
  const auto all = inst.points.all_indices();
  const auto gon = gonzalez(oracle, all, inst.k);
  EXPECT_LE(test::value_of(oracle, all, gon.centers), 2.0 * inst.opt + 1e-9);
}

}  // namespace
}  // namespace kc

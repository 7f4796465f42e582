// Additional edge-case and property coverage across modules: failure
// injection, degenerate geometries, and accounting invariants that the
// per-module suites do not exercise.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "cli/args.hpp"
#include "data/loader.hpp"
#include "harness/experiment.hpp"
#include "harness/paper_ref.hpp"
#include "test_util.hpp"

namespace kc {
namespace {

// ------------------------------------------------------- degenerate data

TEST(EdgeCases, SinglePointInstanceEverywhere) {
  const PointSet ps{{3.0, 4.0}};
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(4);

  EXPECT_EQ(gonzalez(oracle, all, 1).centers, std::vector<index_t>{0});
  EXPECT_EQ(hochbaum_shmoys(oracle, all, 1).centers, std::vector<index_t>{0});
  EXPECT_EQ(mrg(oracle, all, 1, cluster).centers, std::vector<index_t>{0});
  EXPECT_EQ(eim(oracle, all, 1, cluster).centers, std::vector<index_t>{0});
  EXPECT_EQ(brute_force_opt(oracle, all, 1).centers,
            std::vector<index_t>{0});
}

TEST(EdgeCases, TwoPointsKOne) {
  const PointSet ps{{0.0, 0.0}, {6.0, 8.0}};
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const auto gon = gonzalez(oracle, all, 1);
  EXPECT_EQ(gon.centers.size(), 1u);
  EXPECT_DOUBLE_EQ(oracle.to_reported(gon.radius_comparable), 10.0);
}

TEST(EdgeCases, CollinearPointsAllAlgorithms) {
  PointSet ps(101, 2);
  for (index_t i = 0; i <= 100; ++i) {
    ps.mutable_point(i)[0] = static_cast<double>(i);
    ps.mutable_point(i)[1] = 0.0;
  }
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const auto opt = brute_force_opt(oracle, all, 2);
  // Best 2-center split of [0,100]: centers 25 and 75, radius 25.
  EXPECT_DOUBLE_EQ(oracle.to_reported(opt.radius_comparable), 25.0);
  const auto gon = gonzalez(oracle, all, 2);
  EXPECT_LE(oracle.to_reported(gon.radius_comparable), 50.0 + 1e-9);
  const auto hs = hochbaum_shmoys(oracle, all, 2);
  EXPECT_LE(oracle.to_reported(hs.radius_comparable), 50.0 + 1e-9);
}

TEST(EdgeCases, ZeroSigmaGauIsDuplicateClusters) {
  Rng rng(1);
  const PointSet ps = data::generate_gau(1000, 5, 2, 100.0, 0.0, rng);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const auto gon = gonzalez(oracle, all, 5);
  EXPECT_NEAR(oracle.to_reported(gon.radius_comparable), 0.0, 1e-12);
}

TEST(EdgeCases, HugeCoordinateOverflowBehaviour) {
  // The squared-L2 comparable value overflows to inf beyond |coord|
  // ~1e153; below that it stays finite and ordered. L1 never squares.
  const PointSet safe{{1e150, 0.0}, {-1e150, 0.0}};
  const DistanceOracle d_safe(safe);
  EXPECT_TRUE(std::isfinite(d_safe.comparable(0, 1)));

  const PointSet overflow{{1e160, 0.0}, {-1e160, 0.0}};
  const DistanceOracle d_over(overflow);
  EXPECT_TRUE(std::isinf(d_over.comparable(0, 1)));
  const DistanceOracle l1(overflow, MetricKind::L1);
  EXPECT_DOUBLE_EQ(l1.distance(0, 1), 2e160);
}

TEST(EdgeCases, OneDimensionalMetricSpace) {
  PointSet ps(10, 1);
  for (index_t i = 0; i < 10; ++i) {
    ps.mutable_point(i)[0] = static_cast<double>(i * i);
  }
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const auto gon = gonzalez(oracle, all, 3);
  EXPECT_EQ(gon.centers.size(), 3u);
}

// ------------------------------------------------------- failure injection

TEST(FailureInjection, EimMaxIterationsTrips) {
  const PointSet ps = test::small_gaussian_instance(10, 3000, 2);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(10);
  EimOptions options;
  options.max_iterations = 0;  // the loop body may never run
  ASSERT_GT(static_cast<double>(ps.size()),
            eim_loop_threshold(ps.size(), 10, options));
  EXPECT_THROW((void)eim(oracle, all, 10, cluster, options),
               std::runtime_error);
}

TEST(FailureInjection, MrgMaxRoundsTrips) {
  const PointSet ps = test::small_gaussian_instance(2, 1000, 3);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(40);
  MrgOptions options;
  options.capacity = 50;  // n/m = 50 fits; k*m = 80 > 50: multi-round
  options.max_rounds = 1; // but only one round allowed
  EXPECT_THROW((void)mrg(oracle, all, 2, cluster, options),
               std::runtime_error);
}

TEST(FailureInjection, TaskExceptionPropagatesFromCluster) {
  const mr::SimCluster cluster(2);
  mr::JobTrace trace;
  EXPECT_THROW(cluster.run_round(
                   "boom", 2,
                   [](int machine) {
                     if (machine == 1) throw std::runtime_error("boom");
                   },
                   trace),
               std::runtime_error);
}

TEST(FailureInjection, SaveCsvToUnwritablePathThrows) {
  const PointSet ps{{1.0, 2.0}};
  EXPECT_THROW(data::save_csv(ps, "/nonexistent_dir/out.csv"),
               std::runtime_error);
}

// ------------------------------------------------------- accounting

TEST(Accounting, MrgShuffleVolumeMatchesSampleSizes) {
  const PointSet ps = test::small_gaussian_instance(4, 250, 4);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(5);
  const auto result = mrg(oracle, all, 4, cluster, {});
  // Round 0 shuffles all n points; the final round shuffles k*m.
  EXPECT_EQ(result.trace.rounds()[0].shuffle_items, ps.size());
  EXPECT_EQ(result.trace.rounds()[1].shuffle_items, 4u * 5u);
}

TEST(Accounting, EimItemFlowIsConsistent) {
  const PointSet ps = test::small_gaussian_instance(5, 2000, 5);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(10);
  const auto result = eim(oracle, all, 5, cluster, {});
  ASSERT_TRUE(result.sampled);
  // Per iteration: prune rounds shrink R monotonically.
  std::uint64_t last_r = ps.size();
  for (const auto& round : result.trace.rounds()) {
    if (round.name != "eim-prune") continue;
    EXPECT_EQ(round.items_in, last_r);
    EXPECT_LT(round.items_out, round.items_in);
    last_r = round.items_out;
  }
}

TEST(Accounting, RunAlgorithmCountsAllWork) {
  const PointSet ps = test::small_gaussian_instance(4, 500, 6);
  harness::AlgoConfig config;
  config.kind = harness::AlgoKind::GON;
  counters::reset();
  const auto run = harness::run_algorithm(config, ps, 4, 7);
  // GON itself: exactly k*n evals; the recorded dist_evals excludes
  // the offline covering-radius evaluation.
  EXPECT_EQ(run.dist_evals, 4u * ps.size());
}

// ------------------------------------------------------- loader extras

TEST(LoaderExtras, SemicolonDelimiter) {
  const auto path =
      (std::filesystem::temp_directory_path() / "kc_semi.csv").string();
  {
    std::ofstream out(path);
    out << "1;2\n3;4\n";
  }
  data::CsvOptions options;
  options.delimiter = ';';
  const PointSet ps = data::load_numeric_csv(path, options);
  EXPECT_EQ(ps.size(), 2u);
  EXPECT_EQ(ps[1][1], 4.0);
  std::filesystem::remove(path);
}

TEST(LoaderExtras, ScientificNotationValues) {
  const auto path =
      (std::filesystem::temp_directory_path() / "kc_sci.csv").string();
  {
    std::ofstream out(path);
    out << "1e3,-2.5E-2\n4.0,5e0\n";
  }
  const PointSet ps = data::load_numeric_csv(path);
  EXPECT_DOUBLE_EQ(ps[0][0], 1000.0);
  EXPECT_DOUBLE_EQ(ps[0][1], -0.025);
  std::filesystem::remove(path);
}

// ------------------------------------------------------- lower bound extras

TEST(LowerBoundExtras, ZeroOnDuplicates) {
  const PointSet ps = test::all_duplicates(20);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  EXPECT_DOUBLE_EQ(eval::gonzalez_lower_bound(oracle, all, 3), 0.0);
  EXPECT_DOUBLE_EQ(eval::ratio_upper_bound(oracle, all, 3, 0.0), 1.0);
  EXPECT_EQ(eval::ratio_upper_bound(oracle, all, 3, 1.0), kInfDist);
}

TEST(LowerBoundExtras, ScalesLinearlyWithData) {
  // Doubling all coordinates doubles the lower bound (metric linearity).
  Rng rng(7);
  PointSet ps(100, 2);
  PointSet doubled(100, 2);
  for (index_t i = 0; i < 100; ++i) {
    for (std::size_t d = 0; d < 2; ++d) {
      const double c = rng.uniform(0, 10);
      ps.mutable_point(i)[d] = c;
      doubled.mutable_point(i)[d] = 2.0 * c;
    }
  }
  const DistanceOracle o1(ps);
  const DistanceOracle o2(doubled);
  const auto all = ps.all_indices();
  EXPECT_NEAR(2.0 * eval::gonzalez_lower_bound(o1, all, 4),
              eval::gonzalez_lower_bound(o2, all, 4), 1e-9);
}

// ------------------------------------------------------- harness extras

TEST(HarnessExtras, RunRepeatedIsDeterministic) {
  const auto pool = harness::DatasetPool::make(
      [](Rng& rng) { return data::generate_gau(500, 4, 2, 100.0, 0.5, rng); },
      2, 3);
  harness::AlgoConfig config;
  config.kind = harness::AlgoKind::MRG;
  config.machines = 4;
  const auto a = harness::run_repeated(config, pool, 4, 2, 9);
  const auto b = harness::run_repeated(config, pool, 4, 2, 9);
  EXPECT_DOUBLE_EQ(a.value, b.value);
}

TEST(HarnessExtras, ArgsEmptyValueFallsBack) {
  const char* argv[] = {"prog", "--n="};
  cli::Args args(2, argv);
  EXPECT_EQ(args.size("n", 42), 42u);
}

TEST(HarnessExtras, PaperSweepIsTheSixPaperKs) {
  // The quality tables all use k in {2,5,10,25,50,100}.
  const std::vector<std::size_t> expected{2, 5, 10, 25, 50, 100};
  std::vector<std::size_t> ks;
  for (const auto& row : harness::paper_table2()) {
    ks.push_back(static_cast<std::size_t>(row.k));
  }
  EXPECT_EQ(ks, expected);
}

}  // namespace
}  // namespace kc

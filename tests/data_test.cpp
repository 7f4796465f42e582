#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "algo/brute_force.hpp"
#include "algo/gonzalez.hpp"
#include "data/generators.hpp"
#include "data/loader.hpp"
#include "data/planted.hpp"
#include "data/surrogates.hpp"
#include "eval/evaluate.hpp"
#include "geom/distance.hpp"

namespace kc::data {
namespace {

// ---------------------------------------------------------------- UNIF

TEST(Unif, PointsStayInCube) {
  Rng rng(1);
  const PointSet ps = generate_unif(5000, 3, 50.0, rng);
  EXPECT_EQ(ps.size(), 5000u);
  EXPECT_EQ(ps.dim(), 3u);
  for (index_t i = 0; i < ps.size(); ++i) {
    for (const double c : ps[i]) {
      EXPECT_GE(c, 0.0);
      EXPECT_LT(c, 50.0);
    }
  }
}

TEST(Unif, CoordinatesFillTheCube) {
  Rng rng(2);
  const PointSet ps = generate_unif(20000, 2, 100.0, rng);
  double mean_x = 0.0;
  for (index_t i = 0; i < ps.size(); ++i) mean_x += ps[i][0];
  mean_x /= static_cast<double>(ps.size());
  EXPECT_NEAR(mean_x, 50.0, 1.5);
}

TEST(Unif, RejectsZeroPoints) {
  Rng rng(3);
  EXPECT_THROW((void)generate_unif(0, 2, 1.0, rng), std::invalid_argument);
}

// ---------------------------------------------------------------- GAU

TEST(Gau, HasRequestedShape) {
  Rng rng(4);
  const PointSet ps = generate_gau(10000, 25, 2, 100.0, 0.1, rng);
  EXPECT_EQ(ps.size(), 10000u);
  EXPECT_EQ(ps.dim(), 2u);
}

TEST(Gau, PointsConcentrateNearClusterCenters) {
  // With sigma = 0.1 and side = 100, a k'-center solution with k = k'
  // must have a tiny radius compared to the cube: that is the defining
  // property the paper's Tables 2/4 exhibit (values drop ~40x at k=k').
  Rng rng(5);
  const std::size_t kPrime = 8;
  const PointSet ps = generate_gau(4000, kPrime, 2, 100.0, 0.1, rng);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  // Gonzalez with k = k' should find every cluster: radius < 2 (vs
  // ~100 for the whole cube).
  const auto result = gonzalez(oracle, all, kPrime);
  EXPECT_LT(oracle.to_reported(result.radius_comparable), 2.0);
}

TEST(Gau, ClusterSizesRoughlyBalanced) {
  Rng rng(6);
  const std::size_t kPrime = 10;
  const PointSet ps = generate_gau(20000, kPrime, 2, 1000.0, 0.1, rng);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const auto gon = gonzalez(oracle, all, kPrime);
  const auto stats = eval::cluster_stats(oracle, all, gon.centers);
  // Uniform assignment: each cluster ~2000 points; allow generous slack.
  EXPECT_GT(stats.smallest_cluster, 1000u);
  EXPECT_LT(stats.largest_cluster, 4000u);
}

// ---------------------------------------------------------------- UNB

TEST(Unb, HeavyClusterGetsRequestedFraction) {
  Rng rng(7);
  const std::size_t kPrime = 10;
  const PointSet ps =
      generate_unb(20000, kPrime, 2, 1000.0, 0.1, 0.5, rng);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const auto gon = gonzalez(oracle, all, kPrime);
  const auto stats = eval::cluster_stats(oracle, all, gon.centers);
  // One cluster holds ~half of everything.
  EXPECT_GT(stats.largest_cluster, 9000u);
  EXPECT_LT(stats.largest_cluster, 11000u);
}

TEST(Unb, FractionOneCollapsesToSingleCluster) {
  Rng rng(8);
  const PointSet ps = generate_unb(1000, 5, 2, 1000.0, 0.1, 1.0, rng);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  // All points in one Gaussian blob: 1-center radius is tiny.
  const auto gon = gonzalez(oracle, all, 1);
  EXPECT_LT(oracle.to_reported(gon.radius_comparable), 2.0);
}

TEST(Unb, ValidatesFraction) {
  Rng rng(9);
  EXPECT_THROW((void)generate_unb(10, 2, 2, 1.0, 0.1, 1.5, rng),
               std::invalid_argument);
  EXPECT_THROW((void)generate_unb(10, 2, 2, 1.0, 0.1, -0.1, rng),
               std::invalid_argument);
}

// ---------------------------------------------------------------- spec

TEST(SyntheticSpec, DispatchesToAllKinds) {
  for (const auto kind :
       {SyntheticKind::Unif, SyntheticKind::Gau, SyntheticKind::Unb}) {
    SyntheticSpec spec;
    spec.kind = kind;
    spec.n = 500;
    Rng rng(10);
    const PointSet ps = generate(spec, rng);
    EXPECT_EQ(ps.size(), 500u);
    EXPECT_EQ(ps.dim(), 2u);
  }
}

TEST(SyntheticSpec, KindNames) {
  EXPECT_EQ(to_string(SyntheticKind::Unif), "UNIF");
  EXPECT_EQ(to_string(SyntheticKind::Gau), "GAU");
  EXPECT_EQ(to_string(SyntheticKind::Unb), "UNB");
}

TEST(SyntheticSpec, SameSeedSameData) {
  SyntheticSpec spec;
  spec.n = 200;
  Rng r1(11);
  Rng r2(11);
  const PointSet a = generate(spec, r1);
  const PointSet b = generate(spec, r2);
  for (index_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i][0], b[i][0]);
    EXPECT_EQ(a[i][1], b[i][1]);
  }
}

// ---------------------------------------------------------------- planted

TEST(Planted, ExactOptConstruction) {
  Rng rng(12);
  const auto inst = make_planted(4, 9, 1.0, 10.0, 2, rng);
  EXPECT_EQ(inst.points.size(), 36u);
  EXPECT_EQ(inst.optimal_centers.size(), 4u);
  EXPECT_DOUBLE_EQ(inst.opt_radius, 1.0);

  // The planted centers cover everything at exactly the claimed OPT.
  const DistanceOracle oracle(inst.points);
  const auto all = inst.points.all_indices();
  const auto cover = eval::covering_radius(oracle, all, inst.optimal_centers);
  EXPECT_NEAR(cover.radius, 1.0, 1e-9);
}

TEST(Planted, SatellitesSitAtExactRadius) {
  Rng rng(13);
  const auto inst = make_planted(2, 5, 3.0, 20.0, 3, rng);
  const DistanceOracle oracle(inst.points);
  // Cluster c occupies indices [c*5, (c+1)*5); index c*5 is the site.
  for (index_t c = 0; c < 2; ++c) {
    const index_t site = c * 5;
    for (index_t s = 1; s < 5; ++s) {
      EXPECT_NEAR(oracle.distance(site, site + s), 3.0, 1e-9);
    }
  }
}

TEST(Planted, AntipodalPairsAreDiametrical) {
  Rng rng(14);
  const auto inst = make_planted(1, 7, 2.0, 20.0, 2, rng);
  const DistanceOracle oracle(inst.points);
  // Satellites come in consecutive antipodal pairs after the site.
  for (index_t p = 1; p < 7; p += 2) {
    EXPECT_NEAR(oracle.distance(p, p + 1), 4.0, 1e-9);
  }
}

TEST(Planted, BruteForceConfirmsOptimality) {
  Rng rng(15);
  const auto inst = make_planted(3, 3, 1.5, 10.0, 2, rng);
  const DistanceOracle oracle(inst.points);
  const auto all = inst.points.all_indices();
  const auto opt = brute_force_opt(oracle, all, 3);
  EXPECT_NEAR(oracle.to_reported(opt.radius_comparable), 1.5, 1e-9);
}

TEST(Planted, ValidatesArguments) {
  Rng rng(16);
  EXPECT_THROW((void)make_planted(0, 3, 1.0, 10.0, 2, rng),
               std::invalid_argument);
  EXPECT_THROW((void)make_planted(2, 4, 1.0, 10.0, 2, rng),
               std::invalid_argument);  // even per-cluster count
  EXPECT_THROW((void)make_planted(2, 3, 1.0, 3.0, 2, rng),
               std::invalid_argument);  // separation <= 4r
  EXPECT_THROW((void)make_planted(2, 3, 1.0, 10.0, 1, rng),
               std::invalid_argument);  // dim < 2
}

// ---------------------------------------------------------------- surrogates

TEST(PokerSurrogate, EncodesValidHands) {
  Rng rng(17);
  const PointSet hands = poker_hand_surrogate(2000, rng);
  EXPECT_EQ(hands.size(), 2000u);
  EXPECT_EQ(hands.dim(), kPokerHandDim);
  for (index_t i = 0; i < hands.size(); ++i) {
    const auto h = hands[i];
    std::set<std::pair<int, int>> cards;
    for (int c = 0; c < 5; ++c) {
      const int suit = static_cast<int>(h[2 * c]);
      const int rank = static_cast<int>(h[2 * c + 1]);
      EXPECT_GE(suit, 1);
      EXPECT_LE(suit, 4);
      EXPECT_GE(rank, 1);
      EXPECT_LE(rank, 13);
      cards.insert({suit, rank});
    }
    EXPECT_EQ(cards.size(), 5u) << "hand " << i << " has duplicate cards";
  }
}

TEST(PokerSurrogate, DistanceScaleMatchesPaper) {
  // Table 5's values range ~8.4..19.4; the hand-space diameter is
  // sqrt(5*(3^2+12^2)) ~ 27.7. The surrogate's 2-center value must sit
  // in the same band.
  Rng rng(18);
  const PointSet hands = poker_hand_surrogate(5000, rng);
  const DistanceOracle oracle(hands);
  const auto all = hands.all_indices();
  const auto gon = gonzalez(oracle, all, 2);
  const double value = eval::covering_radius(oracle, all, gon.centers).radius;
  EXPECT_GT(value, 10.0);
  EXPECT_LT(value, 27.7);
}

TEST(KddSurrogate, ShapeAndArchetypeMix) {
  Rng rng(19);
  const PointSet kdd = kdd_cup_surrogate(20000, rng);
  EXPECT_EQ(kdd.size(), 20000u);
  EXPECT_EQ(kdd.dim(), kKddCupDim);

  // The smurf archetype (~57%) pins src_bytes in [520, 1032] with
  // count near 500: check the dominant mode is present.
  std::size_t smurf_like = 0;
  for (index_t i = 0; i < kdd.size(); ++i) {
    const auto f = kdd[i];
    if (f[1] >= 520.0 && f[1] <= 1032.0 && f[19] >= 450.0) ++smurf_like;
  }
  EXPECT_GT(smurf_like, kdd.size() / 2);
  EXPECT_LT(smurf_like, kdd.size() * 7 / 10);
}

TEST(KddSurrogate, ContainsExtremeOutliers) {
  // Figure 1's 10^8..10^9 values at small k require enormous flows.
  Rng rng(20);
  const PointSet kdd = kdd_cup_surrogate(10000, rng);
  double max_src = 0.0;
  for (index_t i = 0; i < kdd.size(); ++i) {
    max_src = std::max(max_src, kdd[i][1]);
  }
  EXPECT_GT(max_src, 1e8);
}

TEST(KddSurrogate, SmallKValuesSpanOrdersOfMagnitude) {
  Rng rng(21);
  const PointSet kdd = kdd_cup_surrogate(20000, rng);
  const DistanceOracle oracle(kdd);
  const auto all = kdd.all_indices();
  const double v2 =
      eval::covering_radius(oracle, all, gonzalez(oracle, all, 2).centers)
          .radius;
  const double v64 =
      eval::covering_radius(oracle, all, gonzalez(oracle, all, 64).centers)
          .radius;
  EXPECT_GT(v2, 1e7);          // dominated by the bulk-transfer outliers
  EXPECT_LT(v64, v2 / 10.0);   // value collapses as k grows (Figure 1)
}

// ---------------------------------------------------------------- loader

class LoaderTest : public ::testing::Test {
 protected:
  // One file per test: ctest runs the tests of this fixture as parallel
  // processes, which must not write and delete each other's input.
  std::filesystem::path path_ =
      std::filesystem::temp_directory_path() /
      (std::string("kc_loader_test_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name() +
       ".csv");
  void TearDown() override { std::filesystem::remove(path_); }
  void write(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }
};

TEST_F(LoaderTest, ParsesPlainNumericCsv) {
  write("1,2,3\n4,5,6\n7,8,9\n");
  const PointSet ps = load_numeric_csv(path_.string());
  EXPECT_EQ(ps.size(), 3u);
  EXPECT_EQ(ps.dim(), 3u);
  EXPECT_EQ(ps[1][2], 6.0);
}

TEST_F(LoaderTest, DropsNonNumericColumns) {
  // KDD-style rows: protocol/service/flag strings are skipped.
  write("0,tcp,http,SF,215,45076\n0,udp,domain,SF,44,133\n");
  const PointSet ps = load_numeric_csv(path_.string());
  EXPECT_EQ(ps.size(), 2u);
  EXPECT_EQ(ps.dim(), 3u);  // duration, src_bytes, dst_bytes
  EXPECT_EQ(ps[0][1], 215.0);
  EXPECT_EQ(ps[1][2], 133.0);
}

TEST_F(LoaderTest, DropLastColumnRemovesLabel) {
  write("1,2,9\n3,4,9\n");
  CsvOptions options;
  options.drop_last_column = true;
  const PointSet ps = load_numeric_csv(path_.string(), options);
  EXPECT_EQ(ps.dim(), 2u);
}

TEST_F(LoaderTest, MaxRowsTruncates) {
  write("1\n2\n3\n4\n5\n");
  CsvOptions options;
  options.max_rows = 3;
  const PointSet ps = load_numeric_csv(path_.string(), options);
  EXPECT_EQ(ps.size(), 3u);
}

TEST_F(LoaderTest, SkipsHeaderAndBlankLines) {
  write("x,y\n\n1,2\n3,4\n");
  const PointSet ps = load_numeric_csv(path_.string());
  EXPECT_EQ(ps.size(), 2u);
  EXPECT_EQ(ps.dim(), 2u);
}

TEST_F(LoaderTest, RejectsInconsistentRows) {
  write("1,2\n3,4,5\n");
  EXPECT_THROW((void)load_numeric_csv(path_.string()), std::runtime_error);
}

TEST_F(LoaderTest, RejectsMissingFile) {
  EXPECT_THROW((void)load_numeric_csv("/nonexistent/file.csv"),
               std::runtime_error);
}

TEST_F(LoaderTest, ValidatesExpectedDim) {
  write("1,2,3\n");
  CsvOptions options;
  options.expect_dim = 4;
  EXPECT_THROW((void)load_numeric_csv(path_.string(), options),
               std::runtime_error);
}

TEST_F(LoaderTest, SaveLoadRoundTrip) {
  Rng rng(22);
  const PointSet original = generate_unif(50, 3, 10.0, rng);
  save_csv(original, path_.string());
  const PointSet loaded = load_numeric_csv(path_.string());
  ASSERT_EQ(loaded.size(), original.size());
  ASSERT_EQ(loaded.dim(), original.dim());
  for (index_t i = 0; i < original.size(); ++i) {
    for (std::size_t d = 0; d < original.dim(); ++d) {
      EXPECT_DOUBLE_EQ(loaded[i][d], original[i][d]);
    }
  }
}

}  // namespace
}  // namespace kc::data

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "geom/counters.hpp"
#include "geom/distance.hpp"
#include "geom/point_set.hpp"
#include "rng/rng.hpp"

namespace kc {
namespace {

// ---------------------------------------------------------------- PointSet

TEST(PointSet, SizedConstructorZeroInitializes) {
  PointSet ps(4, 3);
  EXPECT_EQ(ps.size(), 4u);
  EXPECT_EQ(ps.dim(), 3u);
  for (index_t i = 0; i < 4; ++i) {
    for (const double c : ps[i]) EXPECT_EQ(c, 0.0);
  }
}

TEST(PointSet, RejectsZeroDim) {
  EXPECT_THROW(PointSet(4, 0), std::invalid_argument);
}

TEST(PointSet, CoordinateConstructorChecksArity) {
  EXPECT_THROW(PointSet(3, std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
  const PointSet ps(2, std::vector<double>{1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(ps.size(), 2u);
  EXPECT_EQ(ps[1][0], 3.0);
}

TEST(PointSet, MovedBufferConstructorChecksDimAndArityAndTakesTheBuffer) {
  EXPECT_THROW(PointSet(0, CoordStorage{1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(PointSet(3, CoordStorage{1.0, 2.0}), std::invalid_argument);
  CoordStorage coords{1.0, 2.0, 3.0, 4.0};
  coords.reserve(64);
  const double* buffer = coords.data();
  const PointSet ps(2, std::move(coords));
  EXPECT_EQ(ps.size(), 2u);
  EXPECT_EQ(ps[1][0], 3.0);
  EXPECT_EQ(ps.data(0), buffer);  // taken over, not copied
}

TEST(PointSet, InitializerListConstruction) {
  const PointSet ps{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  EXPECT_EQ(ps.size(), 3u);
  EXPECT_EQ(ps.dim(), 2u);
  EXPECT_EQ(ps[2][1], 6.0);
}

TEST(PointSet, PushBackInfersDimThenEnforcesIt) {
  PointSet ps;
  const std::vector<double> p1{1.0, 2.0, 3.0};
  ps.push_back(p1);
  EXPECT_EQ(ps.dim(), 3u);
  const std::vector<double> bad{1.0};
  EXPECT_THROW(ps.push_back(bad), std::invalid_argument);
}

TEST(PointSet, SubsetGathersInOrder) {
  const PointSet ps{{0.0, 0.0}, {1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}};
  const std::vector<index_t> ids{3, 1};
  const PointSet sub = ps.subset(ids);
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub[0][0], 3.0);
  EXPECT_EQ(sub[1][0], 1.0);
}

TEST(PointSet, SubsetValidatesIndices) {
  const PointSet ps{{0.0, 0.0}};
  const std::vector<index_t> bad{5};
  EXPECT_THROW((void)ps.subset(bad), std::out_of_range);
}

TEST(PointSet, AllIndicesIsIota) {
  const PointSet ps{{0.0}, {1.0}, {2.0}};
  const auto ids = ps.all_indices();
  ASSERT_EQ(ids.size(), 3u);
  for (index_t i = 0; i < 3; ++i) EXPECT_EQ(ids[i], i);
}

TEST(PointSet, MemoryBytesTracksStorage) {
  const PointSet ps(100, 4);
  EXPECT_EQ(ps.memory_bytes(), 100u * 4u * sizeof(double));
}

// ---------------------------------------------------------------- Metrics

class MetricAxioms : public ::testing::TestWithParam<MetricKind> {};

TEST_P(MetricAxioms, IdentityOfIndiscernibles) {
  Rng rng(1);
  PointSet ps(20, 3);
  for (index_t i = 0; i < 20; ++i) {
    for (auto& c : ps.mutable_point(i)) c = rng.uniform(-10, 10);
  }
  const DistanceOracle d(ps, GetParam());
  for (index_t i = 0; i < 20; ++i) {
    EXPECT_EQ(d.distance(i, i), 0.0);
  }
}

TEST_P(MetricAxioms, Symmetry) {
  Rng rng(2);
  PointSet ps(20, 4);
  for (index_t i = 0; i < 20; ++i) {
    for (auto& c : ps.mutable_point(i)) c = rng.uniform(-10, 10);
  }
  const DistanceOracle d(ps, GetParam());
  for (index_t i = 0; i < 20; ++i) {
    for (index_t j = 0; j < 20; ++j) {
      EXPECT_DOUBLE_EQ(d.distance(i, j), d.distance(j, i));
    }
  }
}

TEST_P(MetricAxioms, TriangleInequalityOnReportedDistances) {
  Rng rng(3);
  PointSet ps(15, 3);
  for (index_t i = 0; i < 15; ++i) {
    for (auto& c : ps.mutable_point(i)) c = rng.uniform(-5, 5);
  }
  const DistanceOracle d(ps, GetParam());
  for (index_t i = 0; i < 15; ++i) {
    for (index_t j = 0; j < 15; ++j) {
      for (index_t k = 0; k < 15; ++k) {
        EXPECT_LE(d.distance(i, k), d.distance(i, j) + d.distance(j, k) + 1e-12);
      }
    }
  }
}

TEST_P(MetricAxioms, ComparableIsOrderIsomorphicToReported) {
  Rng rng(4);
  PointSet ps(30, 2);
  for (index_t i = 0; i < 30; ++i) {
    for (auto& c : ps.mutable_point(i)) c = rng.uniform(0, 100);
  }
  const DistanceOracle d(ps, GetParam());
  for (index_t i = 1; i < 30; ++i) {
    const double ca = d.comparable(0, i);
    const double cb = d.comparable(0, (i + 1) % 30 == 0 ? 1 : (i + 1) % 30);
    EXPECT_EQ(ca < cb, d.to_reported(ca) < d.to_reported(cb));
  }
}

TEST_P(MetricAxioms, ReportedRoundTrips) {
  Rng rng(5);
  PointSet ps(10, 5);
  for (index_t i = 0; i < 10; ++i) {
    for (auto& c : ps.mutable_point(i)) c = rng.uniform(-3, 3);
  }
  const DistanceOracle d(ps, GetParam());
  for (index_t i = 0; i < 10; ++i) {
    for (index_t j = 0; j < 10; ++j) {
      const double comp = d.comparable(i, j);
      EXPECT_NEAR(d.from_reported(d.to_reported(comp)), comp,
                  1e-9 * (1.0 + comp));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, MetricAxioms,
                         ::testing::Values(MetricKind::L2, MetricKind::L1,
                                           MetricKind::Linf),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

TEST(Distance, L2ComparableIsSquaredEuclidean) {
  const PointSet ps{{0.0, 0.0}, {3.0, 4.0}};
  const DistanceOracle d(ps, MetricKind::L2);
  EXPECT_DOUBLE_EQ(d.comparable(0, 1), 25.0);
  EXPECT_DOUBLE_EQ(d.distance(0, 1), 5.0);
}

TEST(Distance, L1AndLinfValues) {
  const PointSet ps{{0.0, 0.0, 0.0}, {1.0, -2.0, 3.0}};
  const DistanceOracle l1(ps, MetricKind::L1);
  const DistanceOracle li(ps, MetricKind::Linf);
  EXPECT_DOUBLE_EQ(l1.distance(0, 1), 6.0);
  EXPECT_DOUBLE_EQ(li.distance(0, 1), 3.0);
}

TEST(Distance, HighDimensionalGenericKernel) {
  // dim > 3 exercises the generic loop rather than the specializations.
  PointSet ps(2, 10);
  for (std::size_t c = 0; c < 10; ++c) {
    ps.mutable_point(1)[c] = 1.0;
  }
  const DistanceOracle d(ps, MetricKind::L2);
  EXPECT_DOUBLE_EQ(d.comparable(0, 1), 10.0);
}

TEST(Distance, UpdateNearestMatchesPairwise) {
  Rng rng(6);
  PointSet ps(50, 3);
  for (index_t i = 0; i < 50; ++i) {
    for (auto& c : ps.mutable_point(i)) c = rng.uniform(0, 10);
  }
  const DistanceOracle d(ps);
  const auto ids = ps.all_indices();
  std::vector<double> best(50, kInfDist);
  d.update_nearest(ids, 7, best);
  d.update_nearest(ids, 23, best);
  for (index_t i = 0; i < 50; ++i) {
    const double expected = std::min(d.comparable(i, 7), d.comparable(i, 23));
    EXPECT_DOUBLE_EQ(best[i], expected);
  }
}

TEST(Distance, UpdateNearestMultiEqualsSequentialUpdates) {
  Rng rng(7);
  PointSet ps(40, 2);
  for (index_t i = 0; i < 40; ++i) {
    for (auto& c : ps.mutable_point(i)) c = rng.uniform(0, 10);
  }
  const DistanceOracle d(ps);
  const auto ids = ps.all_indices();
  const std::vector<index_t> centers{3, 9, 27};

  std::vector<double> a(40, kInfDist);
  std::vector<double> b(40, kInfDist);
  d.update_nearest_multi(ids, centers, a);
  for (const index_t c : centers) d.update_nearest(ids, c, b);
  for (index_t i = 0; i < 40; ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(Distance, UpdateNearestOnlyImproves) {
  const PointSet ps{{0.0, 0.0}, {1.0, 0.0}, {5.0, 0.0}};
  const DistanceOracle d(ps);
  const auto ids = ps.all_indices();
  std::vector<double> best{0.01, 0.01, 0.01};  // already tiny
  d.update_nearest(ids, 0, best);
  EXPECT_DOUBLE_EQ(best[1], 0.01);  // not overwritten upward
  EXPECT_DOUBLE_EQ(best[0], 0.0);   // improved to zero
}

TEST(Distance, ArgmaxSmallestIdBreaksTiesOnTheIds) {
  const std::vector<double> values{1.0, 3.0, 2.0, 3.0, 3.0, 0.5};
  // The maximum sits at positions 1, 3 and 4; position 3 has the
  // smallest id.
  const std::vector<index_t> ids{4, 9, 0, 7, 8, 1};
  EXPECT_EQ(argmax_smallest_id(values, ids), 3u);
  // Ascending ids: the first maximum, as argmax gives.
  const std::vector<index_t> ascending{0, 1, 2, 3, 4, 5};
  EXPECT_EQ(argmax_smallest_id(values, ascending), argmax(values));
  // No tie: the one maximum, whatever the ids.
  const std::vector<double> single{1.0, 2.0, 5.0, 2.0};
  const std::vector<index_t> any{9, 0, 7, 1};
  EXPECT_EQ(argmax_smallest_id(single, any), 2u);
}

TEST(Distance, PairwiseComparableIsSymmetricWithZeroDiagonal) {
  Rng rng(8);
  PointSet ps(12, 2);
  for (index_t i = 0; i < 12; ++i) {
    for (auto& c : ps.mutable_point(i)) c = rng.uniform(0, 10);
  }
  const DistanceOracle d(ps);
  const auto ids = ps.all_indices();
  const auto matrix = d.pairwise_comparable(ids);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(matrix[i * 12 + i], 0.0);
    for (std::size_t j = 0; j < 12; ++j) {
      EXPECT_DOUBLE_EQ(matrix[i * 12 + j], matrix[j * 12 + i]);
      EXPECT_DOUBLE_EQ(matrix[i * 12 + j],
                       d.comparable(ids[i], ids[j]));
    }
  }
}

TEST(Argmax, FirstOfTiesWins) {
  const std::vector<double> v{1.0, 5.0, 5.0, 2.0};
  EXPECT_EQ(argmax(v), 1u);
}

TEST(Argmax, SingleElement) {
  const std::vector<double> v{3.0};
  EXPECT_EQ(argmax(v), 0u);
}

// ---------------------------------------------------------------- Counters

TEST(Counters, SinglePairEvaluationCounts) {
  const PointSet ps{{0.0, 0.0}, {1.0, 1.0}};
  const DistanceOracle d(ps);
  counters::reset();
  (void)d.comparable(0, 1);
  EXPECT_EQ(counters::read().distance_evals, 1u);
  EXPECT_EQ(counters::read().coord_ops, 2u);
}

TEST(Counters, BulkKernelCountsAllPairs) {
  const PointSet ps{{0.0, 0.0}, {1.0, 1.0}, {2.0, 2.0}};
  const DistanceOracle d(ps);
  const auto ids = ps.all_indices();
  std::vector<double> best(3, kInfDist);
  counters::reset();
  d.update_nearest(ids, 0, best);
  EXPECT_EQ(counters::read().distance_evals, 3u);
}

TEST(Counters, WorkScopeMeasuresDeltas) {
  const PointSet ps{{0.0, 0.0}, {1.0, 1.0}};
  const DistanceOracle d(ps);
  (void)d.comparable(0, 1);
  const WorkScope scope;
  (void)d.comparable(0, 1);
  (void)d.comparable(1, 0);
  EXPECT_EQ(scope.elapsed().distance_evals, 2u);
}

TEST(Counters, CounterArithmetic) {
  WorkCounters a{10, 20};
  const WorkCounters b{3, 6};
  const WorkCounters diff = a - b;
  EXPECT_EQ(diff.distance_evals, 7u);
  EXPECT_EQ(diff.coord_ops, 14u);
  const WorkCounters sum = diff + b;
  EXPECT_EQ(sum.distance_evals, 10u);
  EXPECT_EQ(sum.coord_ops, 20u);
}

}  // namespace
}  // namespace kc

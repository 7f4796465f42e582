// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "core/kcenter.hpp"

namespace kc::test {

/// Small clustered instance for algorithm tests: `clusters` Gaussian
/// blobs of `per_cluster` points each in 2-D.
inline PointSet small_gaussian_instance(std::size_t clusters,
                                        std::size_t per_cluster,
                                        std::uint64_t seed,
                                        double side = 100.0,
                                        double sigma = 0.5) {
  Rng rng(seed);
  return data::generate_gau(clusters * per_cluster, clusters, 2, side, sigma,
                            rng);
}

/// A point set where every point is identical: the adversarial input
/// for termination tests (all pairwise distances are zero).
inline PointSet all_duplicates(std::size_t n, std::size_t dim = 2) {
  PointSet ps(n, dim);
  for (index_t i = 0; i < n; ++i) {
    auto p = ps.mutable_point(i);
    for (auto& c : p) c = 42.0;
  }
  return ps;
}

/// True if `centers` is a subset of `universe` with no duplicates.
inline bool valid_center_set(std::span<const index_t> centers,
                             std::size_t universe_size) {
  std::vector<bool> seen(universe_size, false);
  for (const index_t c : centers) {
    if (c >= universe_size) return false;
    if (seen[c]) return false;
    seen[c] = true;
  }
  return true;
}

/// Covering radius in reported scale.
inline double value_of(const DistanceOracle& oracle,
                       std::span<const index_t> pts,
                       std::span<const index_t> centers) {
  return eval::covering_radius(oracle, pts, centers).radius;
}

/// The hand-crafted 1-D instance on which 2-round MRG with block
/// partitioning and first-point seeding realizes approximation ratio
/// ~3.81 (the paper's future-work section states the factor 4 is
/// tight). Layout: four unit-radius clusters A{0,1,2}, B{4,5,6.05},
/// C{8,9,10}, D{12,13,14}; exact OPT = 1.05 (one center per cluster,
/// B forces 1.05); block partition M1 = first six points, M2 = last
/// six leads GON astray as derived in the accompanying test comments.
struct AdversarialMrgInstance {
  PointSet points{12, 1};
  std::size_t k = 4;
  int machines = 2;
  double opt = 1.05;
  double expected_value = 4.0;

  AdversarialMrgInstance() {
    const double coords[12] = {// machine 1's block
                               4.0, 13.0, 9.0, 8.0, 12.0, 5.0,
                               // machine 2's block
                               2.0, 14.0, 6.05, 10.0, 0.0, 1.0};
    for (index_t i = 0; i < 12; ++i) points.mutable_point(i)[0] = coords[i];
  }
};

}  // namespace kc::test

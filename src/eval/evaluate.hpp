// Solution evaluation: the paper's "solution value" is the covering
// radius of the returned centers over the *entire* input, computed
// offline (it is not charged to any algorithm's runtime, matching the
// paper's methodology of reporting quality separately from timing).
//
// Offline does not mean free: a service evaluating solutions for
// untrusted requests must be able to stop a runaway evaluation. Every
// function here therefore honours a ChunkContext bound onto the oracle
// (DistanceOracle::bind_context) exactly like the solve-path kernels —
// the scans run in gate chunks of ~exec::kGateEvals pair evaluations,
// polling the cancellation token and charging the budget per chunk,
// and throw CancelledError / BudgetExceededError within one chunk of a
// stop condition. With no bound (or unarmed) context the behaviour is
// unchanged: unbounded, uncharged offline evaluation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/distance.hpp"

namespace kc::eval {

struct Evaluation {
  double radius_comparable = 0.0;
  double radius = 0.0;       ///< reported metric value (the table cell)
  index_t witness = 0;       ///< a point attaining the radius
};

/// Max over `pts` of the distance to the nearest of `centers`, with the
/// earliest point of `pts` attaining it as the witness. One batch fold
/// of a NearestSweep, so a bound executor shards it (gated or not)
/// exactly like the solve-path kernels, and over a whole point set with
/// a bound grid it prunes there. A stop raises under the fold's label
/// (update_nearest_multi, or update_nearest_multi_ordered on the grid).
/// The radius bits and the witness are the same either way.
[[nodiscard]] Evaluation covering_radius(const DistanceOracle& oracle,
                                         std::span<const index_t> pts,
                                         std::span<const index_t> centers);

/// assignment[i] = index into `centers` of the center nearest pts[i].
/// The pass spreads chunks of points over the bound executor's
/// parallel_for, gated or not: each chunk's tile stream carries its own
/// gate, and its pair evaluations count on the thread that ran it. The
/// labels do not depend on the executor.
[[nodiscard]] std::vector<std::uint32_t> assign_clusters(
    const DistanceOracle& oracle, std::span<const index_t> pts,
    std::span<const index_t> centers);

struct ClusterStats {
  /// assign_clusters(oracle, pts, centers): the label of each point.
  std::vector<std::uint32_t> assignment;
  std::vector<std::size_t> sizes;       ///< points per center
  std::vector<double> radii;            ///< per-cluster covering radius
  double max_radius = 0.0;              ///< == covering radius
  double mean_radius = 0.0;             ///< average of per-cluster radii
  std::size_t largest_cluster = 0;
  /// Size of the smallest cluster that owns at least one point. A
  /// center can own zero points (duplicate centers, or a center
  /// shadowed by an equidistant earlier one); those clusters are
  /// reported in `empty_clusters` and excluded here, so the field
  /// never degenerates to 0 just because a degenerate input produced
  /// a redundant center.
  std::size_t smallest_cluster = 0;
  std::size_t empty_clusters = 0;  ///< centers owning no point
};

/// Per-cluster breakdown of a solution (reported-scale radii).
[[nodiscard]] ClusterStats cluster_stats(const DistanceOracle& oracle,
                                         std::span<const index_t> pts,
                                         std::span<const index_t> centers);

}  // namespace kc::eval

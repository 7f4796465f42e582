// CCM: grid-coreset parallel k-center in the style of Coy, Czumaj &
// Mishra, "On Parallel k-Center Clustering" (arXiv:2304.05883).
//
// Where MRG compresses by running GON per machine every round, CCM
// compresses *geometrically* in a constant number of rounds:
//
//   round 1 (ccm-estimate): partition V across the m reducers; each
//     runs GON with k centers on its part and emits those centers plus
//     its local covering radius r_i. r_hat = max_i r_i is a constant-
//     factor over-estimate of OPT (each part is covered by k of its
//     own points within r_i, and a part's k-center optimum is at most
//     twice the whole input's).
//   round 2 (ccm-grid): each reducer snaps its part to an axis-aligned
//     grid of width w ~ eps * r_hat / (2 * norm(d)) and emits the first
//     point of each non-empty cell, in part order — a coreset: every
//     input point has a representative within eps * r_hat / 2. The
//     snapping and the cell table are the pruning index's own
//     (first_point_per_cell, geom/spatial_index.hpp). No distance
//     evaluations are spent; the compression is pure coordinate
//     arithmetic, which is what makes the round communication-light.
//     A reducer whose part needs more cells than the per-machine cap
//     doubles w locally until the representatives fit.
//   round 3 (ccm-final): one reducer runs the sequential subroutine on
//     the union of representatives; the returned centers are within
//     2 * OPT + O(eps) * r_hat of optimal for the whole input.
//
// Degenerate inputs are handled without distance work: when r_hat == 0
// every machine's part is duplicates of its local centers, so the
// round-1 centers already form an exact coreset and the grid round is
// skipped.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "algo/gonzalez.hpp"
#include "algo/result.hpp"
#include "core/driver.hpp"
#include "core/hooks.hpp"
#include "geom/distance.hpp"
#include "mapreduce/cluster.hpp"
#include "mapreduce/partition.hpp"

namespace kc {

struct CcmOptions {
  /// Grid resolution: cell width w = epsilon * r_hat / (2 * norm(d)).
  /// Smaller epsilon = larger coreset = better solution. Must be in
  /// (0, 1].
  double epsilon = 0.5;

  /// Per-machine cap on emitted grid representatives; a machine
  /// needing more doubles its cell width until it fits. 0 derives
  /// max(64, 8 * k) — enough cells that the coreset loses little at
  /// the default epsilon while the final round stays tiny.
  std::size_t max_coreset_per_machine = 0;

  /// How the mapper splits V across machines (round 1 and 2 use the
  /// same parts, so each point is snapped exactly once).
  mr::PartitionStrategy partition = mr::PartitionStrategy::Block;

  /// Sequential subroutine for the final round.
  SeqAlgo final_algo = SeqAlgo::Gonzalez;

  /// GON seeding inside reducers and the final round.
  GonzalezOptions::FirstCenter first_center =
      GonzalezOptions::FirstCenter::FirstPoint;
  std::uint64_t seed = 1;

  /// Cooperative hooks (core/hooks.hpp): `progress` fires after each
  /// round; a cancelled token stops at the next round boundary.
  ProgressFn progress;
  CancellationToken cancel;
};

struct CcmResult : KCenterResult {
  /// Effective grid width in reported scale (0 when the grid round was
  /// skipped because r_hat == 0).
  double grid_width = 0.0;
  std::size_t coreset_size = 0;  ///< representatives the final round saw
  mr::JobTrace trace;
};

/// Runs CCM on `pts` with the given simulated cluster.
///
/// Preconditions: k >= 1, pts non-empty, 0 < epsilon <= 1 (throws
/// std::invalid_argument otherwise).
[[nodiscard]] CcmResult ccm(const DistanceOracle& oracle,
                            std::span<const index_t> pts, std::size_t k,
                            const mr::SimCluster& cluster,
                            const CcmOptions& options = {});

}  // namespace kc

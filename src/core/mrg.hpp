// MRG: multi-round MapReduce Gonzalez (Algorithm 1 of the paper; the
// paper's primary contribution together with the parameterized EIM).
//
//   S <- V
//   while |S| > c:
//     partition S across the reducers (|part| <= ceil(|S|/machines))
//     each reducer runs GON on its part and emits k centers
//     S <- union of the emitted centers
//   one reducer runs GON on S and returns the k final centers
//
// With n/m <= c and k*m <= c the loop body executes once and the whole
// job is two MapReduce rounds and a 4-approximation (Lemma 2). Each
// additional round adds 2 to the factor (Lemma 3); the machine count
// needed after i rounds obeys Inequality (1). Progress requires k < c:
// each round maps |S| points to at most k per machine.
#pragma once

#include <cstdint>
#include <optional>
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

struct MrgOptions {
  /// Per-machine capacity c in points. 0 derives the smallest capacity
  /// that admits a 2-round run: max(ceil(n/m), k*m) (Lemma 2's premise).
  /// Set explicitly (smaller) to force multi-round behaviour.
  std::size_t capacity = 0;

  /// How the mapper splits S each round ("arbitrarily" in the paper).
  mr::PartitionStrategy partition = mr::PartitionStrategy::Block;

  /// First-round machine assignment for PartitionStrategy::Explicit
  /// (one machine id per input point; adversarial-tightness tests).
  /// Later rounds fall back to Block.
  std::optional<std::vector<int>> explicit_assignment;

  /// Sequential subroutine per reducer and for the final round.
  SeqAlgo inner = SeqAlgo::Gonzalez;
  SeqAlgo final_algo = SeqAlgo::Gonzalez;

  /// GON seeding inside reducers. FirstPoint is deterministic; Random
  /// draws per-machine streams from `seed`.
  GonzalezOptions::FirstCenter first_center =
      GonzalezOptions::FirstCenter::FirstPoint;
  std::uint64_t seed = 1;

  /// Safety valve on the while loop (the theory needs at most
  /// O(log_{c/k} m) rounds; anything near this limit is a bug).
  int max_rounds = 64;

  /// Cooperative hooks (core/hooks.hpp). `progress` fires after every
  /// reduce round; a cancelled `cancel` token stops the run at the next
  /// round boundary (before the final round included) by throwing
  /// CancelledError. Both default inert. (Solves driven through
  /// api::Solver additionally observe the token *inside* the bulk
  /// distance scans — chunk-granular, via the oracle's ChunkContext.)
  ProgressFn progress;
  CancellationToken cancel;
};

struct MrgResult : KCenterResult {
  /// Iterations of the while loop (so MapReduce rounds = reduce_rounds + 1).
  int reduce_rounds = 0;
  /// Approximation factor guaranteed for this run: 2*(reduce_rounds + 1).
  [[nodiscard]] int guaranteed_factor() const noexcept {
    return 2 * (reduce_rounds + 1);
  }
  mr::JobTrace trace;
};

/// The per-machine capacity c MRG runs n points with on m machines:
/// options.capacity, or max(ceil(n/m), k*m) when that is 0. When n <= c
/// MRG runs no reduce round, and its final round runs options.final_algo
/// on all n points.
[[nodiscard]] std::size_t mrg_capacity(std::size_t n, std::size_t k,
                                       std::size_t m,
                                       const MrgOptions& options);

/// Runs MRG on `pts` with the given simulated cluster.
///
/// Preconditions: k >= 1, pts non-empty. Throws std::length_error if the
/// input cannot fit the cluster (ceil(n/m) > c) and std::runtime_error
/// if no round can reduce |S| (k too large relative to c).
///
/// The returned radius_comparable is the covering radius of the final
/// centers over the final-round sample S only; use eval::covering_radius
/// for the whole-input solution value (the paper's reported metric).
[[nodiscard]] MrgResult mrg(const DistanceOracle& oracle,
                            std::span<const index_t> pts, std::size_t k,
                            const mr::SimCluster& cluster,
                            const MrgOptions& options = {});

}  // namespace kc

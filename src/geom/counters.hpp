// Work counters for empirical complexity verification.
//
// Every distance kernel reports how many point-pair evaluations it
// performed into a thread-local counter. Tests use the counters to
// check the paper's operation counts (e.g. GON performs exactly
// (k-1)*(N-1) pair evaluations on N points); the MapReduce cluster
// samples them per simulated machine to attribute work to rounds.
//
// Counters are thread-local so that parallel execution attributes work
// to the machine task that performed it without synchronization.
#pragma once

#include <cstdint>

namespace kc {

/// Snapshot of the calling thread's work counters.
struct WorkCounters {
  std::uint64_t distance_evals = 0;  ///< point-pair distance computations
  std::uint64_t coord_ops = 0;       ///< coordinate-level operations (~= evals * dim)
  /// Point-pair evaluations a spatial-index scan skipped outright (the
  /// triangle-inequality bound proved the pair could not improve any
  /// result). For a pruned scan, distance_evals + pruned_pairs equals
  /// what the unpruned scan would have charged to distance_evals.
  std::uint64_t pruned_pairs = 0;

  friend WorkCounters operator-(WorkCounters a, const WorkCounters& b) {
    a.distance_evals -= b.distance_evals;
    a.coord_ops -= b.coord_ops;
    a.pruned_pairs -= b.pruned_pairs;
    return a;
  }
  friend WorkCounters operator+(WorkCounters a, const WorkCounters& b) {
    a.distance_evals += b.distance_evals;
    a.coord_ops += b.coord_ops;
    a.pruned_pairs += b.pruned_pairs;
    return a;
  }
};

namespace counters {

/// Current thread's counters (monotonically increasing).
[[nodiscard]] WorkCounters read() noexcept;

/// Adds to the current thread's counters. Called by distance kernels.
void add_distance_evals(std::uint64_t evals, std::uint64_t dim) noexcept;

/// Records point-pair evaluations skipped by a spatial-index prune.
/// Called by the cell-pruned scans (geom/spatial_index.hpp).
void add_pruned_pairs(std::uint64_t pairs) noexcept;

/// Resets the current thread's counters to zero. Intended for tests;
/// production code should difference two read() snapshots instead.
void reset() noexcept;

}  // namespace counters

/// RAII scope that measures the work performed on this thread between
/// construction and elapsed().
class WorkScope {
 public:
  WorkScope() noexcept : start_(counters::read()) {}
  [[nodiscard]] WorkCounters elapsed() const noexcept {
    return counters::read() - start_;
  }

 private:
  WorkCounters start_;
};

}  // namespace kc

// Uniform-grid spatial index for cell-granular geometric pruning.
//
// Every algorithm in the repo bottoms out in update_nearest /
// update_nearest_multi scans that touch all n x k point-center pairs.
// Most of those pairs provably cannot change the result: once a point
// has *some* nearby center, a candidate center far away loses every
// comparison. This index makes that provable wholesale — per grid
// cell, not per pair — so the hot scans can skip entire cells without
// looking at a single coordinate inside them.
//
// Structure: points are snapped to a uniform grid (cell width
// auto-tuned from a GON-style radius probe over the data), and the
// point ids are permuted so each occupied cell owns one contiguous run
// of the order() array; the coordinate rows are copied into the same
// permuted layout (64-byte aligned, like PointSet), so a scan over one
// cell streams contiguous rows and keeps the SIMD kernels' contiguous
// fast path. Per cell the exact coordinate-wise bounding box of its
// members is stored.
//
// The pruning rule, Elkan-style via the triangle inequality: during an
// update_nearest* scan, a cell's *upper bound* is the maximum of the
// caller's current best[] over the cell's members. If a candidate
// center's distance to the cell's bounding box is at least that bound,
// then for every member p: d(p, c) >= mindist(c, box) >= ub >= best[p],
// so the min-fold is a no-op for the entire cell and the scan skips it,
// charging the skipped pairs to counters::add_pruned_pairs instead of
// distance evaluations.
//
// The determinism contract (see docs/architecture.md, "Spatial
// pruning"): pruned results are **bit-identical** to the unpruned
// scalar path. Two facts carry it: (1) update_nearest*'s per-point
// fold only depends on that point's row and the centers, never on scan
// order, so visiting points cell-by-cell instead of index order writes
// the same bits; (2) cell_mindist_comparable's floating-point value is
// <= the kernel-computed comparable distance of every member (each
// per-coordinate gap is a single rounded subtraction that is
// coordinate-wise dominated by the kernel's own subtraction, and IEEE
// rounding is monotone through the identical square/abs/accumulate
// fold), so a skipped fold is one that could not have updated best[]
// even in the rounded arithmetic the kernel actually performs.
//
// The KC_FORCE_NO_PRUNE environment variable (set and not "0")
// disables pruning process-wide regardless of bound indexes — the
// escape hatch mirroring KC_FORCE_SCALAR, and the CI leg that proves
// the pruned and unpruned paths agree on the whole suite.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/distance.hpp"
#include "geom/point_set.hpp"

namespace kc {

// ---------------------------------------------------------------------------
// Grid snapping helpers, shared with core/ccm.cpp's coreset grid so the
// two grids cannot drift.

/// Clamp bound for snapped cell coordinates: a coordinate huge relative
/// to the width (e.g. a tiny width under far-flung outliers) must
/// saturate, not overflow the int64 cast.
inline constexpr double kGridCoordClamp = 9.0e18;

/// Snaps one coordinate to its grid cell at width `w` (clamped floor).
[[nodiscard]] std::int64_t grid_coord(double x, double w) noexcept;

/// Fills `key` (dim entries) with the cell coordinates of point `p`.
void grid_cell_key(std::span<const double> p, double w,
                   std::span<std::int64_t> key) noexcept;

/// True when the KC_FORCE_NO_PRUNE environment variable requests that
/// spatial pruning be disabled (set and not "0"). Read once per process.
[[nodiscard]] bool force_no_prune_requested() noexcept;

/// PruneMode::Auto thresholds, used by the api::Solver when deciding
/// whether to build an index for a request: a uniform grid loses its
/// bite as dimension grows (cell bounding boxes stop separating
/// anything well before dim 20), and below a few thousand points the
/// index build plus bound tests cost more than the full scans they
/// avoid.
inline constexpr std::size_t kAutoPruneMaxDim = 8;
inline constexpr std::size_t kAutoPruneMinPoints = 4096;

// ---------------------------------------------------------------------------

class SpatialIndex {
 public:
  /// Builds the index over `points` (not owned; must outlive the
  /// index). The cell width starts from a GON-style radius probe — one
  /// scalar distance scan from the first point gives the data radius —
  /// and doubles until the occupied-cell count fits a cap of n / 16,
  /// so degenerate inputs (duplicates, outliers) settle into few cells
  /// instead of millions, then halves while clustered data still
  /// splits. Each width trial is one O(n * dim) pass that hash-counts
  /// distinct cell keys and stops as soon as the count passes the cap.
  /// The kept width takes one more pass that numbers each point's
  /// cell, a sort of the distinct keys only, and one stable counting
  /// sort of the ids: cells in lexicographic key order, ascending ids
  /// within a cell. Spends no tracked distance evaluations.
  explicit SpatialIndex(const PointSet& points);

  [[nodiscard]] const PointSet& points() const noexcept { return *points_; }
  [[nodiscard]] std::size_t size() const noexcept { return order_.size(); }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] double cell_width() const noexcept { return width_; }
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return cell_begin_.empty() ? 0 : cell_begin_.size() - 1;
  }

  /// Point ids permuted cell-major: cell c owns order()[cell_begin(c)
  /// .. cell_begin(c + 1)), cells in lexicographic order of their grid
  /// keys, ascending ids within a cell.
  [[nodiscard]] std::span<const index_t> order() const noexcept {
    return order_;
  }
  [[nodiscard]] std::size_t cell_begin(std::size_t c) const noexcept {
    return cell_begin_[c];
  }
  [[nodiscard]] std::size_t cell_size(std::size_t c) const noexcept {
    return cell_begin_[c + 1] - cell_begin_[c];
  }
  /// Cell containing point `id`.
  [[nodiscard]] std::uint32_t cell_of(index_t id) const noexcept {
    return cell_of_[id];
  }

  /// Coordinate rows in the permuted layout: row j (of point
  /// order()[j]) starts at rows() + j * dim(). Bitwise copies of the
  /// source rows, 64-byte-aligned storage, so per-cell scans take the
  /// kernels' contiguous fast path.
  [[nodiscard]] const double* rows() const noexcept { return rows_.data(); }

  /// Exact member bounding box of cell c (dim lows, dim highs).
  [[nodiscard]] const double* cell_lo(std::size_t c) const noexcept {
    return bbox_.data() + 2 * c * dim_;
  }
  [[nodiscard]] const double* cell_hi(std::size_t c) const noexcept {
    return bbox_.data() + (2 * c + 1) * dim_;
  }

  /// Comparable-scale lower bound on the distance from `center` (dim()
  /// coordinates) to any member of cell c: per coordinate the gap
  /// between the center and the box, pushed through the same
  /// square/abs/max fold as the metric's scalar kernel, so the rounded
  /// result never exceeds any member's kernel-computed distance.
  [[nodiscard]] double cell_mindist_comparable(MetricKind kind,
                                               const double* center,
                                               std::size_t c) const noexcept;

 private:
  const PointSet* points_;
  std::size_t dim_ = 0;
  double width_ = 1.0;
  std::vector<index_t> order_;          ///< point ids, cell-major
  std::vector<std::size_t> cell_begin_; ///< cell_count() + 1 offsets
  std::vector<std::uint32_t> cell_of_;  ///< per point id, its cell
  CoordStorage rows_;                   ///< permuted coordinate rows
  std::vector<double> bbox_;            ///< per cell: dim lows, dim highs
};

/// Per-cell cached upper bounds for a *sequence* of pruned scans that
/// share one best[] array — the Gonzalez shape, where each round calls
/// update_nearest with one new center on the same best[]. Skipped
/// cells keep their cached bound (their best[] entries were not
/// touched); scanned cells refresh it from the values just written, so
/// across the sequence no full re-derivation of the bounds is needed.
///
/// Lifetime contract: a cache is only valid while the paired best[]
/// array exists, is only mutated through the oracle's pruned scans,
/// and is never re-initialized. The oracle invalidates the cache
/// whenever a call bypasses the pruned path, so a later pruned call
/// re-primes from scratch rather than trusting stale bounds.
class PruneCache {
 public:
  explicit PruneCache(const SpatialIndex& index)
      : index_(&index), ub_(index.cell_count(), kInfDist) {}

  [[nodiscard]] const SpatialIndex* index() const noexcept { return index_; }
  [[nodiscard]] bool primed() const noexcept { return primed_; }
  void invalidate() noexcept { primed_ = false; }

  /// Oracle-internal access to the per-cell bounds.
  [[nodiscard]] std::span<double> bounds() noexcept { return ub_; }
  void set_primed() noexcept { primed_ = true; }

 private:
  const SpatialIndex* index_;
  std::vector<double> ub_;
  bool primed_ = false;
};

}  // namespace kc

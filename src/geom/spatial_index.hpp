// Uniform-grid spatial index for cell-granular geometric pruning.
//
// Every algorithm in the repo bottoms out in update_nearest /
// update_nearest_multi scans that touch all n x k point-center pairs.
// Most of those pairs provably cannot change the result: once a point
// has *some* nearby center, a candidate center far away loses every
// comparison. This index makes that provable wholesale — per grid
// cell, not per pair — so a NearestSweep (geom/distance.hpp) over the
// whole point set (GON's sweeps, the offline covering radius, HS's
// radius pass) skips entire cells without looking at a single
// coordinate inside them. Which scans run on the grid, and how it
// orders, bounds and snaps points, is decided here and in
// geom/distance.cpp only; the rest of the library sees a NearestSweep
// and, for CCM's coreset, first_point_per_cell.
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
// The pruning rule, Elkan-style via the triangle inequality: on the
// grid, a sweep's best[] is laid out in order(), and a cell's *upper
// bound* is the maximum of its contiguous slice of best[]. If a
// candidate center's distance to the cell's bounding box is at least
// that bound,
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
// Grid snapping: the index and CCM's coreset (first_point_per_cell)
// snap through the same helpers, so the two grids cannot drift.

/// Clamp bound for snapped cell coordinates: a coordinate huge relative
/// to the width (e.g. a tiny width under far-flung outliers) must
/// saturate, not overflow the int64 cast.
inline constexpr double kGridCoordClamp = 9.0e18;

/// Snaps one coordinate to its grid cell at width `w` (clamped floor).
[[nodiscard]] std::int64_t grid_coord(double x, double w) noexcept;

/// Fills `key` (dim entries) with the cell coordinates of point `p`.
void grid_cell_key(std::span<const double> p, double w,
                   std::span<std::int64_t> key) noexcept;

/// The first point of each occupied grid cell of width `w`, in `ids`
/// order: `ids` (ids into `points`) is walked once, and a point is kept
/// when its cell has not been seen before. Stops once more than `limit`
/// cells are occupied, so the result has limit + 1 entries exactly when
/// the cells of `ids` outnumber `limit`. Cell keys are exact (snapped
/// with grid_cell_key, compared coordinate by coordinate), so the
/// result does not depend on hashing. Spends no distance evaluations.
[[nodiscard]] std::vector<index_t> first_point_per_cell(
    const PointSet& points, std::span<const index_t> ids, double w,
    std::size_t limit);

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

/// PruneMode::Auto's price list (api::builds_index), per dimension and
/// point-count class. Building the grid and each scan it prunes cost
/// time linear in n, so a price comparison reduces to break-even counts:
/// `sweeps` whole-set single-center sweeps (GON's) save one build, and
/// so do `centers` centers of the offline evaluation's one multi-center
/// pass. Auto builds when sweeps / row.sweeps + k / row.centers > 1. So
/// GON, which makes k sweeps and is evaluated at k centers, builds once
/// k exceeds 1 / (1 / sweeps + 1 / centers): at dim 2, 200 below 1e5
/// points and 90 from there; 93 at dims 3-4; 350 at dims 5-8. An entry
/// that declares no sweeps (CCM, mrg-du, HS, a reducing MRG, a sampling
/// EIM) builds once k exceeds `centers`: 1,000 up to dim 4, never above.
///
/// Fitted with bench_auto_prune (Sequential, 4-vCPU AVX-512 host, seed
/// 1, fastest run under its stopping rule). Per shape, the build in ns
/// per point and the k at which the grid breaks even for GON (build
/// over one sweep's plus one center's saving) and for an evaluation-only
/// entry (build over one center's saving), as ranges over one to five
/// runs at k = 100 and k = 400 and, at dims 2 and 4, one at k = 1,000
/// (in the GON ranges, and after the slash in the eval column):
///
///             build ns/pt        GON break-even k        eval break-even k
///   dim  n    gau     unif    gau     unif    gau          unif
///   2    1e4  60-89   43-56   104-232 118-900 476-657/715  585-1210/563
///   2    3e4  59-104  57-81   150-183 161-493 603-948/396  680-1145/499
///   2    1e5  82-160  48-90   111-156 66-118  498-861/648  348-688/334
///   2    3e5  126-198 49-89   102-162 47-75   977-1014/589 325-469/295
///   2    1e6  109-198 54-109  88-140  44-98   462-1289/519 242-681/242
///   4    1e4  75-77   50-51   51-55   57-262  197-209/196  313-1460/216
///   4    3e4  88-100  50-52   54-67   46-89   198-216/183  220-575/171
///   4    1e5  141-156 90-134  63-81   61-87   325-369/294  2326-16767/938
///   4    3e5  187-248 104-108 87-106  49-74   361-422/470  635+/660
///   4    1e6  208-332 91-138  93-167  56-70   390-774/345  241-411/411
///   8    1e4  127     89      39-41   never   124-144      never
///   8    3e4  191     91      45-56   never   147-161      462+
///   8    1e5  361     88      66-69   205+    300-301      332+
///   8    3e5  495     210     90-105  406+    432-505      586+
///   8    1e6  357-358 451-486 31-99   104-166 127-428      never
///
/// ("+": one of k = 100 and 400 never breaks even.) Where the two
/// shapes disagree, a row sits between them or on the side that does
/// not lose. Below 1e5 2-D points the scans run from cache and save
/// little per sweep, so GON waits for k = 200; from 1e5 points the row
/// sits between clustered (88-162) and uniform (44-118) points, and at
/// k = 100 a whole GON solve reads 4-26% slower built on clustered
/// points and 0-28% faster on uniform ones. At 8-D
/// uniform points GON's pruned sweeps save nothing below 1e5 points and
/// the pruned evaluation runs slower, so GON waits for k = 350 and
/// sweep-free entries never build. At k = 1,000 every measured shape up
/// to dim 4 repays the build on the evaluation alone (break-even
/// 171-938), so sweep-free entries build above it. Refit when the build
/// or the scans change.
struct AutoPruneBreakEven {
  std::size_t max_dim;     ///< the row serves dims up to this one
  std::size_t min_points;  ///< and point sets of at least this many
  double sweeps;           ///< whole-set sweeps whose saving repays a build
  double centers;          ///< evaluation centers whose saving repays it
};
inline constexpr AutoPruneBreakEven kAutoPruneBreakEven[] = {
    {2, 100'000, 100.0, 1000.0},
    {2, kAutoPruneMinPoints, 250.0, 1000.0},
    {4, kAutoPruneMinPoints, 103.0, 1000.0},
    {kAutoPruneMaxDim, kAutoPruneMinPoints, 350.0, kInfDist},
};

/// The first row of kAutoPruneBreakEven that serves `dim` (at most
/// kAutoPruneMaxDim) and `n` points (at least kAutoPruneMinPoints).
[[nodiscard]] constexpr const AutoPruneBreakEven& auto_prune_break_even(
    std::size_t dim, std::size_t n) noexcept {
  std::size_t row = 0;
  while (dim > kAutoPruneBreakEven[row].max_dim ||
         n < kAutoPruneBreakEven[row].min_points) {
    ++row;
  }
  return kAutoPruneBreakEven[row];
}

/// Comparable-scale lower bound on the distance from `p` (dim
/// coordinates) to any point inside the axis-aligned box [lo, hi]: per
/// coordinate the gap between p and the box interval, pushed through the
/// same square/abs/max fold, in the same coordinate order, as the
/// metric's scalar kernel. For any q in the box, each rounded gap is at
/// most the kernel's rounded |p[d] - q[d]| (lo[d] <= q[d] <= hi[d], and
/// rounding is monotone), and the identical monotone fold keeps that
/// domination, so the bound never exceeds the kernel-computed distance.
/// The grid's cell bounds and the sample boxes both skip work on it.
/// Defined out of line, in the library built with -ffp-contract=off: a
/// fused multiply-add in the L2 fold could round the bound above a
/// member's distance.
[[nodiscard]] double box_mindist_comparable(MetricKind kind, const double* p,
                                            const double* lo,
                                            const double* hi,
                                            std::size_t dim) noexcept;

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
  /// coordinates) to any member of cell c: box_mindist_comparable over
  /// the cell's box, so it never exceeds any member's kernel-computed
  /// distance.
  [[nodiscard]] double cell_mindist_comparable(MetricKind kind,
                                               const double* center,
                                               std::size_t c) const noexcept;

 private:
  const PointSet* points_;
  std::size_t dim_ = 0;
  double width_ = 1.0;
  std::vector<index_t> order_;          ///< point ids, cell-major
  std::vector<std::size_t> cell_begin_; ///< cell_count() + 1 offsets
  CoordStorage rows_;                   ///< permuted coordinate rows
  std::vector<double> bbox_;            ///< per cell: dim lows, dim highs
};

// ---------------------------------------------------------------------------
// Sample boxes: the grid's skip rule for a *center* set. EIM folds each
// iteration's new sample into d(x, S) for every point still in play;
// the grid cannot serve that scan (a subset of points against thousands
// of centers, at any dim), so the centers are split into a few
// axis-aligned boxes instead, and each point folds only the groups
// whose box is nearer than its current best
// (DistanceOracle::update_nearest_grouped).

/// Most groups a SampleBoxes split makes, and fewest centers per group
/// on average: a split of n centers stops at min(kSampleBoxGroups,
/// n / kSampleBoxMinMembers) groups. More groups skip more pairs, but
/// every point tests every box (groups * dim scalar gap terms), so a
/// group must be worth its box test. Measured on EIM solves over 200k
/// points (4-vCPU AVX-512 host, 4 threads, 50 machines, 8 seeds, median
/// of 3, s per solve): at k = 25 (samples of ~4,000 centers) 16 groups
/// against 32 ran 10-D GAU in 0.147 against 0.234, 10-D UNIF 0.465
/// against 0.575, 16-D UNIF 0.943 against 1.135 and 2-D GAU 0.081
/// against 0.101 (prune=off: 1.331, 1.267, 1.758, 0.285). At k = 2
/// (samples of ~330 centers) the floor decides: with it (two groups)
/// 10-D UNIF ran in 0.079, 16-D UNIF in 0.112 and 10-D GAU in 0.064;
/// without it (16 groups of ~20) in 0.241, 0.327 and 0.097, against
/// prune=off's 0.113, 0.158 and 0.128.
inline constexpr std::size_t kSampleBoxGroups = 16;
inline constexpr std::size_t kSampleBoxMinMembers = 128;

/// Lane padding of each group's coordinate-major copy: a multiple of
/// every kernel table's vector width (AVX-512 holds 8 doubles), so the
/// fold kernel never runs a ragged tail.
inline constexpr std::size_t kSampleBoxLanes = 8;

class SampleBoxes {
 public:
  /// Splits `centers` (ids into `points`; the rows are copied, so
  /// `points` need not outlive the boxes) into groups with a kd-style
  /// split. Repeatedly, the group whose box has the widest side (first
  /// group, then first coordinate, on ties) is split at the midpoint of
  /// that side, or at the median rank when rounding leaves one side
  /// empty, by a stable partition, so every group lists its members in
  /// input order. Stops at min(kSampleBoxGroups, size() /
  /// kSampleBoxMinMembers) groups (one, when that is zero and there are
  /// centers) or when every box is a single point. Keeps each group's exact member box
  /// and a coordinate-major copy of its rows padded with +inf to a
  /// multiple of kSampleBoxLanes lanes. Spends no distance evaluations.
  SampleBoxes(const PointSet& points, std::span<const index_t> centers);

  /// Centers over all groups.
  [[nodiscard]] std::size_t size() const noexcept { return members_.size(); }
  [[nodiscard]] std::size_t group_count() const noexcept {
    return begin_.size() - 1;
  }
  [[nodiscard]] std::size_t group_size(std::size_t g) const noexcept {
    return begin_[g + 1] - begin_[g];
  }
  /// Center ids of group g, in input order.
  [[nodiscard]] std::span<const index_t> members(std::size_t g) const noexcept {
    return {members_.data() + begin_[g], group_size(g)};
  }
  /// Exact member box of group g (dim lows, dim highs).
  [[nodiscard]] const double* lo(std::size_t g) const noexcept {
    return box_.data() + 2 * g * dim_;
  }
  [[nodiscard]] const double* hi(std::size_t g) const noexcept {
    return lo(g) + dim_;
  }
  /// Group g's rows, coordinate-major: coordinate d of member j is
  /// soa(g)[d * lanes(g) + j]; lanes(g) is group_size(g) rounded up to
  /// kSampleBoxLanes, and the padding lanes hold +inf.
  [[nodiscard]] const double* soa(std::size_t g) const noexcept {
    return soa_.data() + dim_ * lane_begin_[g];
  }
  [[nodiscard]] std::size_t lanes(std::size_t g) const noexcept {
    return lane_begin_[g + 1] - lane_begin_[g];
  }

 private:
  std::size_t dim_;
  std::vector<index_t> members_;         ///< center ids, group-major
  std::vector<std::size_t> begin_;       ///< group_count() + 1 offsets
  std::vector<std::size_t> lane_begin_;  ///< group_count() + 1 offsets
  std::vector<double> box_;              ///< per group: dim lows, dim highs
  CoordStorage soa_;                     ///< per group: dim x lanes(g)
};

}  // namespace kc

// Metrics and bulk distance kernels.
//
// Everything in this library compares distances far more often than it
// reports them, so kernels operate on a *comparable* value: a number
// that is order-isomorphic to the true metric but cheaper to compute.
// For Euclidean (the paper's metric, §7.2) the comparable value is the
// squared distance, which avoids a sqrt per pair; `to_reported`
// converts back when a human-facing value (a table cell) is needed.
// L1 and Linf use the true distance as their comparable value.
//
// The hot loops dispatch on the metric once per kernel call, then run
// through the SIMD kernel engine (geom/kernels.hpp): runtime-selected
// scalar/AVX2/AVX-512 tables with small-dimension specializations,
// contiguous-range fast paths, and center-blocked multi scans; all
// algorithm code stays non-templated and ISA-agnostic.
#pragma once

#include <functional>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "geom/counters.hpp"
#include "geom/kernels.hpp"
#include "geom/point_set.hpp"

namespace kc::exec {
class ExecutionBackend;
struct ChunkContext;
}  // namespace kc::exec

namespace kc {

class SpatialIndex;
class SampleBoxes;

/// Default minimum scan length before a bulk kernel shards across an
/// execution backend; below this the fan-out overhead dominates the
/// O(n * dim) work of the scan itself.
inline constexpr std::size_t kShardMinItems = std::size_t{1} << 14;

/// Whether the oracle may skip provably irrelevant pairs: whole-set
/// sweeps (NearestSweep) on a bound spatial index's grid, and EIM's
/// nearest-sample scans through sample boxes (geom/spatial_index.hpp).
enum class PruneMode {
  Off,   ///< never prune; the exact pre-index code path
  Auto,  ///< prune when an index is bound (the facade builds one only
         ///< where api::builds_index prices it below its saving);
         ///< also turns on EIM's sample boxes, at any dim
  On,    ///< prune whenever an index is bound; sample boxes as Auto
};

[[nodiscard]] std::string_view to_string(PruneMode mode) noexcept;

enum class MetricKind {
  L2,    ///< Euclidean; comparable value = squared distance
  L1,    ///< Manhattan
  Linf,  ///< Chebyshev
};

[[nodiscard]] std::string_view to_string(MetricKind kind) noexcept;

/// Sentinel "no center assigned yet" comparable distance.
inline constexpr double kInfDist = std::numeric_limits<double>::infinity();

/// A view over a PointSet with a chosen metric. Cheap to copy; does not
/// own the points. Thread-safe: methods only read the point set and
/// bump thread-local work counters.
///
/// Optionally binds an execution backend (bind_executor) so the bulk
/// kernels — update_nearest / update_nearest_multi — shard large scans
/// across host cores. Sharding never changes results or counter
/// attribution: chunks are deterministic, the per-element min-fold is
/// order-independent, and a scan's pairs are charged to the calling
/// thread's counters once its fan-out joined.
///
/// Optionally binds a ChunkContext (bind_context) carrying a
/// CancellationToken and a shared distance-eval budget. Every bulk scan
/// then pays the budget and polls the token through one gate per chunk,
/// on every backend, including a purely sequential scan, and throws
/// CancelledError / BudgetExceededError, labelled with the public scan,
/// on a stop. A completed scan charges the budget and the counters
/// exactly its evaluated pairs. A stopped scan does the same for the
/// pairs that ran, and stops within one step (an id-order scan's
/// ~kGateEvals pairs), one pruned cell block or one tile of an
/// exhausted budget, and within about one gate of a cancel. Gating
/// never changes results: chunks write disjoint output slices with the
/// same order-independent fold.
class DistanceOracle {
 public:
  explicit DistanceOracle(const PointSet& points,
                          MetricKind kind = MetricKind::L2) noexcept
      : points_(&points), kind_(kind) {}

  [[nodiscard]] const PointSet& points() const noexcept { return *points_; }
  [[nodiscard]] MetricKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::size_t dim() const noexcept { return points_->dim(); }

  /// Binds (or, with nullptr, unbinds) the backend used to shard bulk
  /// scans of at least `min_items` elements. The oracle does not own
  /// the backend; the caller keeps it alive.
  void bind_executor(exec::ExecutionBackend* backend,
                     std::size_t min_items = kShardMinItems) noexcept {
    exec_ = backend;
    shard_min_ = min_items > 0 ? min_items : kShardMinItems;
  }
  [[nodiscard]] exec::ExecutionBackend* executor() const noexcept {
    return exec_;
  }

  /// Binds (or, with nullptr, unbinds) the stop-condition context the
  /// bulk kernels check between gate chunks. The oracle does not own
  /// the context; the caller keeps it alive across the scans. An
  /// unarmed context (no token, no budget) is ignored.
  void bind_context(const exec::ChunkContext* context) noexcept {
    ctx_ = context;
  }
  [[nodiscard]] const exec::ChunkContext* context() const noexcept {
    return ctx_;
  }

  /// Binds (or, with nullptr, unbinds) a spatial index built over this
  /// oracle's PointSet. With an index bound and `mode` not Off, a
  /// NearestSweep over the whole point set (GON's sweeps, the offline
  /// covering radius, HS's radius pass) runs on the grid, skipping
  /// whole cells the triangle inequality proves irrelevant:
  /// bit-identical values, with the skipped pairs charged to counters
  /// as pruned_pairs instead of distance_evals. update_nearest and
  /// update_nearest_multi never prune. A mismatched index or the
  /// KC_FORCE_NO_PRUNE environment variable leaves every sweep on the
  /// exact id-order path. The oracle does not own the index. The mode
  /// also governs sample_boxes_enabled(), with or without an index.
  void bind_index(const SpatialIndex* index,
                  PruneMode mode = PruneMode::Auto) noexcept {
    index_ = index;
    prune_mode_ = mode;
  }
  [[nodiscard]] const SpatialIndex* spatial_index() const noexcept {
    return index_;
  }
  [[nodiscard]] PruneMode prune_mode() const noexcept { return prune_mode_; }

  /// True when callers may route nearest-sample scans through sample
  /// boxes (update_nearest_grouped): the mode is not Off and
  /// KC_FORCE_NO_PRUNE does not veto. Needs no index.
  [[nodiscard]] bool sample_boxes_enabled() const noexcept;

  /// Overrides the kernel table used by this oracle (nullptr restores
  /// the process-wide selection). Test/bench seam for A/B-ing SIMD
  /// levels inside one process; the KC_FORCE_SCALAR environment
  /// variable is the whole-process equivalent.
  void force_kernels(const simd::KernelTable* table) noexcept {
    kernels_ = table != nullptr ? table : &simd::active_kernels();
  }
  [[nodiscard]] const simd::KernelTable* kernels() const noexcept {
    return kernels_;
  }

  /// Comparable distance between points a and b.
  [[nodiscard]] double comparable(index_t a, index_t b) const noexcept;

  /// True metric distance between points a and b.
  [[nodiscard]] double distance(index_t a, index_t b) const noexcept {
    return to_reported(comparable(a, b));
  }

  /// Converts a comparable value to the true metric value.
  [[nodiscard]] double to_reported(double comp) const noexcept;

  /// Converts a true metric value to the comparable scale.
  [[nodiscard]] double from_reported(double dist) const noexcept;

  /// best[i] = min(best[i], comparable(ids[i], center)) for all i.
  /// This is the workhorse of Gonzalez's algorithm and of the EIM
  /// incremental d(x, S) maintenance. An exact id-order scan that never
  /// prunes: work counters record ids.size() pair evaluations. With a
  /// bound armed context, throws CancelledError / BudgetExceededError
  /// within one gate chunk of a stop condition.
  void update_nearest(std::span<const index_t> ids, index_t center,
                      std::span<double> best) const;

  /// best[i] = min over c in centers of comparable(ids[i], c), folded
  /// into the existing best[i]. Bit-identical to repeated
  /// update_nearest, but tiles centers in blocks of simd::kCenterBlock
  /// so each streaming pass over the points folds several centers per
  /// load of best/ids — ~4x less memory traffic for EIM's select-round
  /// batches. Exact and context-gated like update_nearest.
  void update_nearest_multi(std::span<const index_t> ids,
                            std::span<const index_t> centers,
                            std::span<double> best) const;

  /// update_nearest_multi against the centers of `boxes`, skipping the
  /// groups that provably cannot win: per point, the box distances
  /// (box_mindist_comparable) are computed, the group with the nearest
  /// box is folded first, then every other group, in group order, whose
  /// box distance is below the point's tightening best. Points run in
  /// blocks of 8 that walk the groups together, so a group's rows are
  /// read once per block; each point keeps the visit order above. A
  /// skipped group could not have lowered best[i] even in rounded
  /// arithmetic, so the result is bit-identical to
  /// update_nearest_multi(ids, all centers, best). Evaluated pairs go to
  /// distance_evals and skipped pairs to pruned_pairs, together
  /// ids.size() * boxes.size(); each point's split depends only on that
  /// point, never on how a backend shards the ids. Context-gated like
  /// every bulk scan; skipped pairs count toward the token poll.
  void update_nearest_grouped(std::span<const index_t> ids,
                              const SampleBoxes& boxes,
                              std::span<double> best) const;

  /// Receives one dense tile of comparable distances from the tiled
  /// pairwise engine: `tile[r * ldt + c]` is the comparable distance
  /// between a-point `i0 + r` and b-point `j0 + c` (indices into the
  /// caller's id spans), for r < m, c < n. The pointer is only valid
  /// during the call — the engine reuses one cache-sized buffer for
  /// every tile, which is the point: consumers fold tiles into running
  /// results instead of materializing the full |a| x |b| matrix.
  using TileConsumer = std::function<void(
      std::size_t i0, std::size_t j0, std::size_t m, std::size_t n,
      const double* tile, std::size_t ldt)>;

  /// Streams the full |a_ids| x |b_ids| rectangle of comparable
  /// distances through `consume` in cache-blocked tiles computed by the
  /// active table's pairwise_tile kernel (bit-identical to per-pair
  /// scalar calls), on the calling thread. The stream pays per tile
  /// under the class's gate contract: a stop raises (labelled `where`)
  /// within one tile of an exhausted budget, and the budget and the
  /// counters are charged exactly the pairs `consume` received.
  /// `gated = false` skips context checks entirely — for call sites
  /// whose pre-tile code did per-pair comparable() calls, which never
  /// consulted the context.
  void pairwise_tiles(std::span<const index_t> a_ids,
                      std::span<const index_t> b_ids,
                      const TileConsumer& consume,
                      std::string_view where = "pairwise_tiles",
                      bool gated = true) const;

  /// Streams the strictly-upper-triangle pairs (i < j) of |ids|^2
  /// through `consume` as tiles: full m x n blocks right of the
  /// diagonal plus 1 x n row tiles inside diagonal blocks, covering
  /// each unordered pair exactly once — so exactly ids.size() *
  /// (ids.size() - 1) / 2 pair evaluations are computed, gated and
  /// charged as pairwise_tiles does.
  void pairwise_upper_tiles(
      std::span<const index_t> ids, const TileConsumer& consume,
      std::string_view where = "pairwise_upper_tiles") const;

  /// Dense comparable distance matrix for a small subset (row-major,
  /// ids.size()^2 entries, zero diagonal). A thin adapter over
  /// pairwise_upper_tiles for callers that genuinely need the whole
  /// matrix resident; anything scanning it once should consume tiles
  /// instead and skip the n^2 allocation.
  [[nodiscard]] std::vector<double> pairwise_comparable(
      std::span<const index_t> ids) const;

 private:
  [[nodiscard]] std::size_t metric_index() const noexcept {
    return static_cast<std::size_t>(kind_);
  }

  /// The exact id-order blocked scan behind update_nearest (a
  /// one-center span) and update_nearest_multi. A stop raises labelled
  /// `where`.
  void nearest_scan(std::span<const index_t> ids,
                    std::span<const index_t> centers, std::span<double> best,
                    std::string_view where) const;

  /// A NearestSweep's fold on the grid: `best` is in the bound index's
  /// cell order and folded in place, skipping each cell whose box is no
  /// nearer than the cell's bound. With `bounds` null, `best` is all
  /// +inf and no bound outlives the scan; otherwise `*bounds` holds
  /// one upper bound per cell (empty: derived from `best` as the scan
  /// reaches each cell) and is left at each cell's maximum. Charges
  /// evaluated and pruned pairs to the calling thread's counters from
  /// what actually ran; a stop raises labelled `where`.
  void pruned_scan(std::span<const index_t> centers, std::span<double> best,
                   std::vector<double>* bounds, std::string_view where) const;

  friend class NearestSweep;

  const PointSet* points_;
  MetricKind kind_;
  exec::ExecutionBackend* exec_ = nullptr;        ///< not owned; may be null
  const exec::ChunkContext* ctx_ = nullptr;       ///< not owned; may be null
  const SpatialIndex* index_ = nullptr;           ///< not owned; may be null
  PruneMode prune_mode_ = PruneMode::Auto;
  std::size_t shard_min_ = kShardMinItems;
  /// Active kernel table; never null (defaults to the process-wide
  /// runtime-dispatched selection).
  const simd::KernelTable* kernels_ = &simd::active_kernels();
};

/// The nearest-center distance of every point of one subset, folded
/// center by center: GON's sweeps, the offline covering radius and HS's
/// radius pass. Every value starts at kInfDist. The constructor decides
/// once where the folds run. On the grid when the oracle has a bound
/// index over its points, the mode is not Off, KC_FORCE_NO_PRUNE does
/// not veto, and `pts` is the whole point set in id order: values()
/// then sit in the index's cell order and each fold skips the cells
/// whose box is no nearer than the cell's bound. Otherwise in `pts`
/// order through the exact scans. The values are bit-identical either
/// way, and evaluated plus pruned pairs sum to the id-order count.
///
/// A fold is gated like every bulk scan of the oracle. A stop raises
/// under the scan's label: update_nearest or update_nearest_multi in
/// id order, update_nearest_ordered or update_nearest_multi_ordered on
/// the grid. A stopped sweep must not be used again. The sweep keeps
/// one bound per cell from its second fold on (the first starts from
/// +inf, where nothing prunes): derived from values() as that fold
/// reaches each cell, then refreshed from each cell it scans, so after
/// every completed fold from the second on, cell_bounds()[c] is the
/// maximum of cell c's values, bit for bit.
///
/// Holds views of the oracle and of `pts`; both must outlive the sweep.
class NearestSweep {
 public:
  NearestSweep(const DistanceOracle& oracle, std::span<const index_t> pts);

  /// Folds one center, or a batch of centers, into every value.
  void fold(index_t center);
  void fold(std::span<const index_t> centers);

  struct Farthest {
    index_t id = 0;           ///< the point
    double comparable = 0.0;  ///< its value
  };
  /// The point with the largest value: of the points at the maximum,
  /// the one that comes first in `pts`, on the grid as in id order.
  [[nodiscard]] Farthest farthest() const noexcept;

  [[nodiscard]] bool on_grid() const noexcept { return grid_ != nullptr; }
  /// values()[j] belongs to point ids()[j]: the index's order() on the
  /// grid, `pts` otherwise.
  [[nodiscard]] std::span<const double> values() const noexcept {
    return best_;
  }
  [[nodiscard]] std::span<const index_t> ids() const noexcept { return ids_; }
  /// One bound per grid cell; empty off the grid and before the second
  /// fold.
  [[nodiscard]] std::span<const double> cell_bounds() const noexcept {
    return bounds_;
  }

 private:
  const DistanceOracle* oracle_;
  const SpatialIndex* grid_ = nullptr;  ///< the oracle's index, on the grid
  std::span<const index_t> ids_;
  std::vector<double> best_;
  std::vector<double> bounds_;  ///< per cell; empty until the second fold
  bool folded_ = false;         ///< a fold with centers has run
};

/// Position of the maximum element (first on ties); spans must be
/// non-empty and NaN-free (distance arrays always are). Vectorized via
/// the active kernel table.
[[nodiscard]] std::size_t argmax(std::span<const double> values) noexcept;

/// Position of a maximum element of `values`, where values[j] belongs to
/// point ids[j] (same length, non-empty, NaN-free): of the positions
/// holding the maximum, the one with the smallest id. On values in
/// cell order this picks the point the id-order argmax picks, so
/// NearestSweep::farthest does not depend on where the sweep runs.
[[nodiscard]] std::size_t argmax_smallest_id(
    std::span<const double> values, std::span<const index_t> ids) noexcept;

}  // namespace kc

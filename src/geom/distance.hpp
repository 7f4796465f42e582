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
class PruneCache;
class SampleBoxes;

/// Default minimum scan length before a bulk kernel shards across an
/// execution backend; below this the fan-out overhead dominates the
/// O(n * dim) work of the scan itself.
inline constexpr std::size_t kShardMinItems = std::size_t{1} << 14;

/// Whether the oracle may skip provably irrelevant pairs: whole-set
/// scans through a bound spatial index's ordered scans, and EIM's
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
  /// oracle's PointSet. With an index bound and `mode` not Off, callers
  /// whose scan covers the whole point set (GON's sweeps, the offline
  /// covering radius, HS's radius pass) may run the ordered scans below,
  /// which skip whole grid cells the triangle inequality proves
  /// irrelevant — bit-identical values, with the skipped pairs charged
  /// to counters as pruned_pairs instead of distance_evals; they ask
  /// ordered_scans_available(ids) first. update_nearest and
  /// update_nearest_multi never prune. A mismatched index or the
  /// KC_FORCE_NO_PRUNE environment variable leaves no ordered scans,
  /// so callers keep the exact id-order path. The oracle does not own
  /// the index. The mode also governs sample_boxes_enabled(), with or
  /// without an index.
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

  /// True when a scan over `ids` may run as an ordered scan: `ids` is
  /// the whole point set in id order (what all_indices() returns), an
  /// index over this oracle's points is bound, the mode is not Off and
  /// KC_FORCE_NO_PRUNE does not veto. Every caller that could prune
  /// asks this, so none re-derives "whole set".
  [[nodiscard]] bool ordered_scans_available(
      std::span<const index_t> ids) const noexcept;

  /// Cell-order ("ordered") variants of the two scans above, the only
  /// scans that prune on the grid: element j of `best_ordered` belongs
  /// to point spatial_index()->order()[j], so every grid cell is a
  /// contiguous slice that the scan folds kernels straight into, and
  /// skips when the cell's box is no nearer than the slice's maximum.
  /// The folded *values* are bit-identical to what
  /// update_nearest(all_indices(), ...) leaves at the permuted
  /// positions; evaluated plus pruned pairs sum to its count, and
  /// context gating behaves the same, under these scans' own labels.
  /// Callers must check ordered_scans_available(ids) first (throws
  /// std::logic_error otherwise) and fall back to the id-order scans —
  /// that is what keeps KC_FORCE_NO_PRUNE an exact-path switch.
  ///
  /// `cache` (optional) carries per-cell bounds across a sequence of
  /// ordered scans that share one best array — see PruneCache's
  /// lifetime contract.
  void update_nearest_ordered(index_t center, std::span<double> best_ordered,
                              PruneCache* cache = nullptr) const;
  void update_nearest_multi_ordered(std::span<const index_t> centers,
                                    std::span<double> best_ordered,
                                    PruneCache* cache = nullptr) const;

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

  /// True when the ordered domain exists: pruning is permitted and the
  /// bound index covers this oracle's non-empty point set.
  [[nodiscard]] bool ordered_domain() const noexcept;

  /// The exact id-order blocked scan behind update_nearest (a
  /// one-center span) and update_nearest_multi. A stop raises labelled
  /// `where`.
  void nearest_scan(std::span<const index_t> ids,
                    std::span<const index_t> centers, std::span<double> best,
                    std::string_view where) const;

  /// The cell-pruned scan body of both ordered scans: `best` is in the
  /// index's cell order and folded in place (throws std::logic_error
  /// labelled `where` unless ordered_domain() and best covers the point
  /// set). Charges
  /// evaluated and pruned pairs to the calling thread's counters from
  /// what actually ran.
  void pruned_scan(std::span<const index_t> centers, std::span<double> best,
                   PruneCache* cache, std::string_view where) const;

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

/// Position of the maximum element (first on ties); spans must be
/// non-empty and NaN-free (distance arrays always are). Vectorized via
/// the active kernel table.
[[nodiscard]] std::size_t argmax(std::span<const double> values) noexcept;

/// Position of a maximum element of `values`, where values[j] belongs to
/// point ids[j] (same length, non-empty, NaN-free): of the positions
/// holding the maximum, the one with the smallest id. On a best[] in
/// cell order this picks the point the id-order argmax picks, so GON's
/// next center and the covering-radius witness do not depend on the
/// scan's domain.
[[nodiscard]] std::size_t argmax_smallest_id(
    std::span<const double> values, std::span<const index_t> ids) noexcept;

}  // namespace kc

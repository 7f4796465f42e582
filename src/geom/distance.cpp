#include "geom/distance.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>

#include "exec/backend.hpp"
#include "exec/chunk_context.hpp"
#include "geom/spatial_index.hpp"

namespace kc {

namespace {

/// What the chunks of one gated scan share: the stop flag their gates
/// publish on, and the evaluated and skipped pair totals.
struct ScanTally {
  std::atomic<int> stop{0};
  std::atomic<std::uint64_t> evals{0};
  std::atomic<std::uint64_t> pruned{0};

  /// After the fan-out joined: charges the pairs that actually ran to
  /// the calling thread's counters (evaluated plus skipped sum to the
  /// unpruned scan's count when the scan completes), then raises a
  /// published stop, labelled `where`.
  void finish(std::size_t dim, std::string_view where) const {
    // Relaxed loads: the fan-out joined, so every chunk's stores
    // happened-before these reads.
    counters::add_distance_evals(evals.load(std::memory_order_relaxed), dim);
    counters::add_pruned_pairs(pruned.load(std::memory_order_relaxed));
    // Relaxed: the same join orders the chunk that stored the stop.
    const auto reason =
        static_cast<exec::StopReason>(stop.load(std::memory_order_relaxed));
    if (reason != exec::StopReason::None) {
      exec::ChunkContext::raise(reason, where);
    }
  }
};

/// The budget/cancel gate and pair tally of one chunk of a scan: every
/// bulk scan of the oracle (id-order, cell-pruned, sample-box and tile
/// stream) pays through one. Budget credit is pre-bought in ~kGateEvals
/// batches (one atomic per gate), never more than the chunk's remaining
/// `cap`, and the unused tail refunded by settle(), so a completed scan
/// charges exactly what it evaluated. When a batch overshoots the
/// budget's remainder the exact need is tried, so a scan stops only on
/// an actual shortfall. The token poll counts skipped pairs too: a scan
/// that prunes nearly everything does little kernel work but must
/// still notice a cancel within ~one gate of bound tests. A stop is
/// published on the scan's shared flag, which every chunk reads between
/// units of work.
class ScanGate {
 public:
  /// A null or unarmed `ctx` leaves the chunk ungated: pay() and poll()
  /// always pass. `cap` is at least the pairs the chunk will pay for.
  ScanGate(const exec::ChunkContext* ctx, ScanTally& tally,
           std::uint64_t cap) noexcept
      : ctx_(ctx != nullptr && ctx->armed() ? ctx : nullptr),
        tally_(tally),
        unbought_(cap) {}

  [[nodiscard]] bool armed() const noexcept { return ctx_ != nullptr; }

  /// Pays for `evals` pairs about to be evaluated; false when the
  /// budget or the token stops the scan.
  [[nodiscard]] bool pay(std::uint64_t evals) {
    if (!charge(evals)) return false;
    evals_ += evals;
    return true;
  }

  /// Records `pairs` skipped without evaluation.
  void skip(std::uint64_t pairs) noexcept {
    pruned_ += pairs;
    since_poll_ += pairs;
  }

  /// Polls the token once ~kGateEvals pairs, evaluated or skipped, went
  /// by since the last poll; false on a stop.
  [[nodiscard]] bool poll() {
    if (ctx_ == nullptr || since_poll_ < exec::kGateEvals) return true;
    since_poll_ = 0;
    const exec::StopReason reason = ctx_->check();
    if (reason == exec::StopReason::None) return true;
    publish(reason);
    return false;
  }

  /// True once any chunk of the scan has published a stop.
  [[nodiscard]] bool stopped() const noexcept {
    // Relaxed stop protocol: the flag carries a tiny enum with no
    // dependent data, staleness costs at most one unit of work, and the
    // fan-out join orders the flag before the final read.
    return ctx_ != nullptr &&
           tally_.stop.load(std::memory_order_relaxed) != 0;
  }

  /// Refunds the unused pre-bought credit and adds this chunk's pairs
  /// to the scan's tally; call once, at chunk end.
  void settle() {
    if (ctx_ != nullptr && credit_ > 0 && ctx_->budget != nullptr) {
      ctx_->budget->credit(credit_);
    }
    credit_ = 0;
    // Relaxed: the tallies are read after the join; only the sum
    // matters, not the order of the additions.
    tally_.evals.fetch_add(evals_, std::memory_order_relaxed);
    tally_.pruned.fetch_add(pruned_, std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] bool charge(std::uint64_t evals) {
    if (ctx_ == nullptr) return true;
    since_poll_ += evals;
    if (credit_ >= evals) {
      credit_ -= evals;
      return true;
    }
    const std::uint64_t need = evals - credit_;
    const std::uint64_t batch =
        std::max(need, std::min(exec::kGateEvals, unbought_));
    exec::StopReason reason = ctx_->charge(batch);
    if (reason == exec::StopReason::None) {
      unbought_ -= batch;
      credit_ = credit_ + batch - evals;
      return true;
    }
    if (reason == exec::StopReason::BudgetExhausted && batch != need) {
      // The gate-sized pre-buy overshot the budget's remainder; the
      // exact need may still fit — only an actual shortfall stops the
      // scan, so the budget drains to within one sub-call of empty.
      reason = ctx_->charge(need);
      if (reason == exec::StopReason::None) {
        unbought_ -= need;
        credit_ = 0;
        return true;
      }
    }
    publish(reason);
    return false;
  }

  void publish(exec::StopReason reason) noexcept {
    // Relaxed: see stopped().
    tally_.stop.store(static_cast<int>(reason), std::memory_order_relaxed);
  }

  const exec::ChunkContext* ctx_;
  ScanTally& tally_;
  std::uint64_t unbought_;
  std::uint64_t credit_ = 0;
  std::uint64_t since_poll_ = 0;
  std::uint64_t evals_ = 0;
  std::uint64_t pruned_ = 0;
};

/// Max over a non-empty range. Four independent accumulator chains keep
/// the loop ILP-bound (one maxsd per chain per cycle) instead of
/// serialized on a single compare — this runs after every surviving
/// center block of a pruned scan, so it sits on the hot path.
[[nodiscard]] double max_of(const double* v, std::size_t n) noexcept {
  double m0 = v[0], m1 = v[0], m2 = v[0], m3 = v[0];
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    m0 = v[j] > m0 ? v[j] : m0;
    m1 = v[j + 1] > m1 ? v[j + 1] : m1;
    m2 = v[j + 2] > m2 ? v[j + 2] : m2;
    m3 = v[j + 3] > m3 ? v[j + 3] : m3;
  }
  for (; j < n; ++j) m0 = v[j] > m0 ? v[j] : m0;
  m0 = m1 > m0 ? m1 : m0;
  m2 = m3 > m2 ? m3 : m2;
  return m2 > m0 ? m2 : m0;
}

}  // namespace

// The kernel tables are indexed by MetricKind's enumerator values.
static_assert(static_cast<std::size_t>(MetricKind::L2) == 0 &&
              static_cast<std::size_t>(MetricKind::L1) == 1 &&
              static_cast<std::size_t>(MetricKind::Linf) == 2 &&
              simd::kMetricCount == 3);

std::string_view to_string(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::L2: return "L2";
    case MetricKind::L1: return "L1";
    case MetricKind::Linf: return "Linf";
  }
  return "?";
}

std::string_view to_string(PruneMode mode) noexcept {
  switch (mode) {
    case PruneMode::Off: return "off";
    case PruneMode::Auto: return "auto";
    case PruneMode::On: return "on";
  }
  return "?";
}

bool DistanceOracle::sample_boxes_enabled() const noexcept {
  return prune_mode_ != PruneMode::Off && !force_no_prune_requested();
}

double DistanceOracle::comparable(index_t a, index_t b) const noexcept {
  counters::add_distance_evals(1, dim());
  return kernels_->pair[metric_index()](points_->data(a), points_->data(b),
                                        dim());
}

double DistanceOracle::to_reported(double comp) const noexcept {
  return kind_ == MetricKind::L2 ? std::sqrt(comp) : comp;
}

double DistanceOracle::from_reported(double dist) const noexcept {
  return kind_ == MetricKind::L2 ? dist * dist : dist;
}

void DistanceOracle::pruned_scan(std::span<const index_t> centers,
                                 std::span<double> best,
                                 std::vector<double>* bounds,
                                 std::string_view where) const {
  const SpatialIndex& idx = *index_;
  const std::size_t n = points_->size();
  const std::size_t d = dim();
  const std::size_t k = centers.size();
  const std::size_t ncells = idx.cell_count();
  const std::size_t m = metric_index();

  // Every bound keeps ub[c] >= best[i] for each member i of cell c,
  // which is what makes a skip a provable no-op; min-folds only ever
  // lower best, so a bound can go stale large (less pruning) but never
  // stale small. A cold scan (best all infinite) keeps none: no bound
  // can prune its first center block anywhere, so that block folds over
  // whole contiguous row ranges at full blocked-kernel speed instead of
  // cell by cell, and later blocks prune against each cell's maximum
  // after it. Bounds kept for the first time start at +inf, and each
  // cell seeds its own from its slice when the walk reaches it, so a
  // stop anywhere leaves every bound valid.
  const bool cold = bounds == nullptr;
  const bool seed = !cold && bounds->empty();
  if (seed) bounds->assign(ncells, kInfDist);
  double* const ub = cold ? nullptr : bounds->data();
  const std::size_t nb0 = cold ? std::min(k, simd::kCenterBlock) : 0;

  ScanTally tally;

  const exec::ExecutionBackend::RangeBody body = [&](std::size_t clo,
                                                     std::size_t chi) {
    const double* cptr[simd::kCenterBlock];
    // The chunk's cells occupy one contiguous row range.
    const std::size_t row_lo = idx.cell_begin(clo);
    const std::size_t row_hi = idx.cell_begin(chi);
    ScanGate gate(ctx_, tally, std::uint64_t{row_hi - row_lo} * k);
    bool stopped = false;

    // Global pass for cold scans: best is in the same order as the
    // rows, so the first block streams them exactly like the unpruned
    // blocked kernel.
    if (nb0 > 0) {
      for (std::size_t j = 0; j < nb0; ++j) {
        cptr[j] = points_->data(centers[j]);
      }
      const std::size_t rgate = std::max<std::size_t>(
          1, static_cast<std::size_t>(exec::kGateEvals) / nb0);
      for (std::size_t r = row_lo; r < row_hi && !stopped; r += rgate) {
        const std::size_t re = std::min(row_hi, r + rgate);
        if (!gate.pay(static_cast<std::uint64_t>(re - r) * nb0)) {
          stopped = true;
          break;
        }
        kernels_->nearest_multi_contig[m](idx.rows() + r * d, d, re - r, cptr,
                                          nb0, best.data() + r);
      }
    }

    // A cold scan whose global pass covered every center is done.
    const bool cell_walk = !(cold && nb0 >= k);
    for (std::size_t c = clo; c < chi && !stopped && cell_walk; ++c) {
      if (gate.stopped()) break;
      const std::size_t base = idx.cell_begin(c);
      const std::size_t sz = idx.cell_size(c);
      double* slice = best.data() + base;
      // After a global pass, or for a bound kept for the first time,
      // seed the bound from the slice itself.
      double ubc = cold || seed ? max_of(slice, sz) : ub[c];
      std::size_t pos = nb0;
      while (pos < k && !stopped) {
        // Next block of surviving centers, in ascending center order —
        // the same global fold order as the unpruned scan, so skipped
        // centers (provable no-ops) are the only difference.
        std::size_t nb = 0;
        while (pos < k && nb < simd::kCenterBlock) {
          const double* cen = points_->data(centers[pos]);
          if (idx.cell_mindist_comparable(kind_, cen, c) >= ubc) {
            gate.skip(sz);
          } else {
            cptr[nb++] = cen;
          }
          ++pos;
        }
        if (nb == 0) continue;
        // Giant cells (duplicate-heavy data) are gated in row
        // sub-ranges so one kernel call never overruns a stop by more
        // than ~kGateEvals pairs.
        const std::size_t rgate = std::max<std::size_t>(
            1, static_cast<std::size_t>(exec::kGateEvals) / nb);
        for (std::size_t r = 0; r < sz; r += rgate) {
          const std::size_t re = std::min(sz, r + rgate);
          if (!gate.pay(static_cast<std::uint64_t>(re - r) * nb)) {
            stopped = true;
            break;
          }
          kernels_->nearest_multi_contig[m](idx.rows() + (base + r) * d, d,
                                            re - r, cptr, nb, slice + r);
        }
        if (stopped) break;
        // Refresh the bound from the just-tightened values so the
        // remaining centers prune against them — this is what lets a
        // cold scan prune every block after the first. After the last
        // block the max only matters when the scan keeps its bounds.
        if (pos < k || !cold) ubc = max_of(slice, sz);
      }
      if (!stopped && !cold) ub[c] = ubc;
      if (!gate.poll()) stopped = true;
    }
    gate.settle();
  };

  // Fan out over *cell* ranges (cells own disjoint slices of best and
  // of the bounds, so chunks never share state); the grain targets the
  // same ~shard_min_/2 pair evaluations per chunk as the unpruned scans.
  const bool fan_out =
      exec_ != nullptr && k > 0 && n > shard_min_ / k && ncells > 1;
  if (fan_out) {
    const std::size_t grain = std::max<std::size_t>(
        1, (shard_min_ / 2) * ncells / std::max<std::size_t>(1, n * k));
    exec_->parallel_for(ncells, grain, body);
  } else {
    body(0, ncells);
  }
  tally.finish(d, where);
}

NearestSweep::NearestSweep(const DistanceOracle& oracle,
                           std::span<const index_t> pts)
    : oracle_(&oracle), ids_(pts), best_(pts.size(), kInfDist) {
  const SpatialIndex* index = oracle.spatial_index();
  const std::size_t n = oracle.points().size();
  if (index != nullptr && oracle.prune_mode() != PruneMode::Off &&
      !force_no_prune_requested() && &index->points() == &oracle.points() &&
      n > 0 && pts.size() == n && pts.front() == 0 &&
      simd::is_contiguous_run(pts.data(), n)) {
    grid_ = index;
    ids_ = index->order();
  }
}

void NearestSweep::fold(index_t center) {
  if (grid_ == nullptr) {
    oracle_->update_nearest(ids_, center, best_);
    return;
  }
  const index_t one[1] = {center};
  oracle_->pruned_scan(one, best_, folded_ ? &bounds_ : nullptr,
                       "update_nearest_ordered");
  folded_ = true;
}

void NearestSweep::fold(std::span<const index_t> centers) {
  if (grid_ == nullptr) {
    oracle_->update_nearest_multi(ids_, centers, best_);
    return;
  }
  if (centers.empty()) return;
  oracle_->pruned_scan(centers, best_, folded_ ? &bounds_ : nullptr,
                       "update_nearest_multi_ordered");
  folded_ = true;
}

NearestSweep::Farthest NearestSweep::farthest() const noexcept {
  const std::size_t pos =
      grid_ != nullptr ? argmax_smallest_id(best_, ids_) : argmax(best_);
  return {ids_[pos], best_[pos]};
}

void DistanceOracle::update_nearest(std::span<const index_t> ids,
                                    index_t center,
                                    std::span<double> best) const {
  const index_t one[1] = {center};
  nearest_scan(ids, {one, 1}, best, "update_nearest");
}

void DistanceOracle::update_nearest_multi(std::span<const index_t> ids,
                                          std::span<const index_t> centers,
                                          std::span<double> best) const {
  if (ids.empty() || centers.empty()) return;
  nearest_scan(ids, centers, best, "update_nearest_multi");
}

void DistanceOracle::nearest_scan(std::span<const index_t> ids,
                                  std::span<const index_t> centers,
                                  std::span<double> best,
                                  std::string_view where) const {
  if (ids.empty()) return;
  // Iota id spans — what all_indices() produces and most call sites
  // pass — skip the gather indirection and stream PointSet rows.
  const bool contig = simd::is_contiguous_run(ids.data(), ids.size());
  const std::size_t m = metric_index();
  const std::size_t d = dim();
  const std::size_t k = centers.size();
  ScanTally tally;

  const exec::ExecutionBackend::RangeBody body = [&](std::size_t lo,
                                                     std::size_t hi) {
    ScanGate gate(ctx_, tally, std::uint64_t{hi - lo} * k);
    // Gated, a step is the ids one gate's pairs cover; ungated, the
    // whole shard, so each center block is one kernel call.
    const std::size_t step =
        gate.armed() ? std::max<std::size_t>(1, exec::kGateEvals / k)
                     : hi - lo;
    for (std::size_t pos = lo; pos < hi && !gate.stopped(); pos += step) {
      const std::size_t end = std::min(hi, pos + step);
      if (!gate.pay(std::uint64_t{end - pos} * k)) break;
      // Centers go in blocks of kCenterBlock: each streaming pass over
      // the step folds a whole block per load of best/ids. Fold order
      // stays center-major (block by block, in-block in order), which
      // is bit-identical to one pass per center.
      for (std::size_t cb = 0; cb < k; cb += simd::kCenterBlock) {
        const std::size_t nc = std::min(simd::kCenterBlock, k - cb);
        const double* cptr[simd::kCenterBlock];
        for (std::size_t j = 0; j < nc; ++j) {
          cptr[j] = points_->data(centers[cb + j]);
        }
        if (contig) {
          kernels_->nearest_multi_contig[m](points_->data(ids[pos]), d,
                                            end - pos, cptr, nc,
                                            best.data() + pos);
        } else {
          kernels_->nearest_multi_gather[m](points_->raw().data(), d,
                                            ids.data() + pos, end - pos, cptr,
                                            nc, best.data() + pos);
        }
      }
    }
    gate.settle();
  };

  // Shard on *total* work (ids x centers pairs): tall-thin batches —
  // few ids against many new centers, EIM's select round shape — carry
  // as many evals as a wide single-center scan. The predicate divides
  // instead of multiplying so it cannot overflow; the grain shrinks
  // with the center count so each chunk still does ~shard_min_/2 pair
  // evals.
  if (exec_ != nullptr && ids.size() > 1 && ids.size() > shard_min_ / k) {
    exec_->parallel_for(ids.size(),
                        std::max<std::size_t>(1, shard_min_ / 2 / k), body);
  } else {
    body(0, ids.size());
  }
  tally.finish(d, where);
}

void DistanceOracle::update_nearest_grouped(std::span<const index_t> ids,
                                            const SampleBoxes& boxes,
                                            std::span<double> best) const {
  if (ids.empty() || boxes.size() == 0) return;
  const std::size_t d = dim();
  const std::size_t groups = boxes.group_count();
  const auto fold = kernels_->nearest_soa[metric_index()];
  const std::size_t k = boxes.size();
  ScanTally tally;

  const exec::ExecutionBackend::RangeBody body = [&](std::size_t lo,
                                                     std::size_t hi) {
    // Points go in blocks, and a block walks the groups once, so each
    // group's rows are read once per block, not once per point (at 64-D
    // a sample of 4,000 centers is 2 MB of rows, more than a core's L2).
    // Each point still folds its nearest group first, then the others in
    // group order, as it would alone.
    constexpr std::size_t kBlock = 8;
    std::array<double, kBlock * kSampleBoxGroups> gap{};
    std::array<std::size_t, kBlock> nearest{};
    std::array<double, kBlock> b{};
    ScanGate gate(ctx_, tally, std::uint64_t{hi - lo} * k);
    bool stop = false;
    for (std::size_t i0 = lo; i0 < hi && !stop && !gate.stopped();
         i0 += kBlock) {
      const std::size_t nb = std::min(kBlock, hi - i0);
      for (std::size_t p = 0; p < nb; ++p) {
        const double* x = points_->data(ids[i0 + p]);
        double* row = gap.data() + p * kSampleBoxGroups;
        nearest[p] = 0;
        for (std::size_t g = 0; g < groups; ++g) {
          row[g] =
              box_mindist_comparable(kind_, x, boxes.lo(g), boxes.hi(g), d);
          if (row[g] < row[nearest[p]]) nearest[p] = g;
        }
        b[p] = best[i0 + p];
      }
      // A group whose box is no nearer than the point's best cannot
      // lower it: every member's kernel distance is >= the box's.
      const auto visit = [&](std::size_t p, std::size_t g) {
        const std::size_t size = boxes.group_size(g);
        if (!(gap[p * kSampleBoxGroups + g] < b[p])) {
          gate.skip(size);
          return true;
        }
        if (!gate.pay(size)) return false;
        b[p] = fold(points_->data(ids[i0 + p]), boxes.soa(g), d,
                    boxes.lanes(g), boxes.lanes(g), b[p]);
        return true;
      };
      for (std::size_t p = 0; p < nb && !stop; ++p) {
        stop = !visit(p, nearest[p]);
      }
      for (std::size_t g = 0; g < groups && !stop; ++g) {
        for (std::size_t p = 0; p < nb && !stop; ++p) {
          if (g != nearest[p]) stop = !visit(p, g);
        }
      }
      for (std::size_t p = 0; p < nb; ++p) best[i0 + p] = b[p];
      if (!stop && !gate.poll()) stop = true;
    }
    gate.settle();
  };

  // The same fan-out rule as update_nearest_multi, on the unpruned pair
  // count: a point that prunes everything still tests every box.
  if (exec_ != nullptr && ids.size() > 1 && ids.size() > shard_min_ / k) {
    exec_->parallel_for(ids.size(),
                        std::max<std::size_t>(1, shard_min_ / 2 / k), body);
  } else {
    body(0, ids.size());
  }
  tally.finish(d, "update_nearest_grouped");
}

namespace {

/// Cache-blocked tile shape for the streaming pairwise engine. One tile
/// is kTileRows * kTileCols doubles (16 KiB — comfortably L1/L2
/// resident together with the point rows it reads); a stream pays tile
/// by tile, so a stop lands within one tile of an exhausted budget.
constexpr std::size_t kTileRows = 8;
constexpr std::size_t kTileCols = 256;

/// Contiguous rows for an id span: points straight into the PointSet
/// when the span is an iota run, otherwise gathers the rows into
/// `stage` once (O(n * dim) — linear, unlike the O(n^2) matrices the
/// tile engine exists to avoid).
[[nodiscard]] const double* rows_of(const PointSet& points,
                                    std::span<const index_t> ids,
                                    std::size_t dim,
                                    std::vector<double>& stage) {
  if (simd::is_contiguous_run(ids.data(), ids.size())) {
    return points.data(ids.front());
  }
  stage.resize(ids.size() * dim);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const double* p = points.data(ids[i]);
    std::copy(p, p + dim, stage.data() + i * dim);
  }
  return stage.data();
}

}  // namespace

void DistanceOracle::pairwise_tiles(std::span<const index_t> a_ids,
                                    std::span<const index_t> b_ids,
                                    const TileConsumer& consume,
                                    std::string_view where, bool gated) const {
  const std::size_t na = a_ids.size();
  const std::size_t nb = b_ids.size();
  if (na == 0 || nb == 0) return;
  const auto tile_fn = kernels_->pairwise_tile[metric_index()];
  const std::size_t d = dim();
  std::vector<double> astage, bstage;
  const double* arows = rows_of(*points_, a_ids, d, astage);
  const double* brows = rows_of(*points_, b_ids, d, bstage);
  std::vector<double> tile(std::min(kTileRows, na) * std::min(kTileCols, nb));
  ScanTally tally;
  ScanGate gate(gated ? ctx_ : nullptr, tally, std::uint64_t{na} * nb);
  for (std::size_t i0 = 0; i0 < na && !gate.stopped(); i0 += kTileRows) {
    const std::size_t tm = std::min(kTileRows, na - i0);
    for (std::size_t j0 = 0; j0 < nb; j0 += kTileCols) {
      const std::size_t tn = std::min(kTileCols, nb - j0);
      if (!gate.pay(std::uint64_t{tm} * tn)) break;
      tile_fn(arows + i0 * d, brows + j0 * d, d, tm, tn, tile.data(), tn);
      consume(i0, j0, tm, tn, tile.data(), tn);
    }
  }
  gate.settle();
  tally.finish(d, where);
}

void DistanceOracle::pairwise_upper_tiles(std::span<const index_t> ids,
                                          const TileConsumer& consume,
                                          std::string_view where) const {
  const std::size_t n = ids.size();
  if (n < 2) return;
  const auto tile_fn = kernels_->pairwise_tile[metric_index()];
  const std::size_t d = dim();
  std::vector<double> stage;
  const double* rows = rows_of(*points_, ids, d, stage);
  std::vector<double> tile(kTileRows * std::min(kTileCols, n));
  ScanTally tally;
  ScanGate gate(ctx_, tally, std::uint64_t{n} * (n - 1) / 2);
  for (std::size_t i0 = 0; i0 < n && !gate.stopped(); i0 += kTileRows) {
    const std::size_t i1 = std::min(n, i0 + kTileRows);
    // Ragged diagonal part: row i against columns (i, i1) — per-row
    // tiles, still vectorized across the columns.
    for (std::size_t i = i0; i + 1 < i1; ++i) {
      const std::size_t len = i1 - i - 1;
      if (!gate.pay(len)) break;
      tile_fn(rows + i * d, rows + (i + 1) * d, d, 1, len, tile.data(), len);
      consume(i, i + 1, 1, len, tile.data(), len);
    }
    // Full blocks strictly right of this diagonal block.
    const std::size_t tm = i1 - i0;
    for (std::size_t j0 = i1; j0 < n && !gate.stopped(); j0 += kTileCols) {
      const std::size_t tn = std::min(kTileCols, n - j0);
      if (!gate.pay(std::uint64_t{tm} * tn)) break;
      tile_fn(rows + i0 * d, rows + j0 * d, d, tm, tn, tile.data(), tn);
      consume(i0, j0, tm, tn, tile.data(), tn);
    }
  }
  gate.settle();
  tally.finish(d, where);
}

std::vector<double> DistanceOracle::pairwise_comparable(
    std::span<const index_t> ids) const {
  const std::size_t n = ids.size();
  std::vector<double> matrix(n * n, 0.0);
  if (n < 2) return matrix;
  // Thin adapter: mirror each upper-triangle tile into both halves of
  // the dense matrix. Gating and counters are the tile stream's, under
  // this adapter's label.
  pairwise_upper_tiles(
      ids,
      [&](std::size_t i0, std::size_t j0, std::size_t tm, std::size_t tn,
          const double* tile, std::size_t ldt) {
        for (std::size_t r = 0; r < tm; ++r) {
          const std::size_t i = i0 + r;
          const double* src = tile + r * ldt;
          for (std::size_t c = 0; c < tn; ++c) {
            const double v = src[c];
            matrix[i * n + (j0 + c)] = v;
            matrix[(j0 + c) * n + i] = v;
          }
        }
      },
      "pairwise_comparable");
  return matrix;
}

std::size_t argmax(std::span<const double> values) noexcept {
  return simd::active_kernels().argmax(values.data(), values.size());
}

std::size_t argmax_smallest_id(std::span<const double> values,
                               std::span<const index_t> ids) noexcept {
  std::size_t pos = argmax(values);
  const double v = values[pos];
  // A vectorizable equality count first, so the common no-tie case
  // costs one extra streaming pass only.
  std::size_t ties = 0;
  for (std::size_t j = pos + 1; j < values.size(); ++j) {
    ties += values[j] == v ? 1 : 0;
  }
  if (ties == 0) return pos;
  for (std::size_t j = pos + 1; j < values.size(); ++j) {
    if (values[j] == v && ids[j] < ids[pos]) pos = j;
  }
  return pos;
}

}  // namespace kc

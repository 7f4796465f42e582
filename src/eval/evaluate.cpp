#include "eval/evaluate.hpp"

#include <stdexcept>
#include <vector>

#include "exec/backend.hpp"

namespace kc::eval {

Evaluation covering_radius(const DistanceOracle& oracle,
                           std::span<const index_t> pts,
                           std::span<const index_t> centers) {
  if (pts.empty()) throw std::invalid_argument("covering_radius: empty points");
  if (centers.empty()) {
    throw std::invalid_argument("covering_radius: empty centers");
  }

  NearestSweep sweep(oracle, pts);
  sweep.fold(centers);
  const NearestSweep::Farthest far = sweep.farthest();

  Evaluation out;
  out.radius_comparable = far.comparable;
  out.radius = oracle.to_reported(far.comparable);
  out.witness = far.id;
  return out;
}

std::vector<std::uint32_t> assign_clusters(const DistanceOracle& oracle,
                                           std::span<const index_t> pts,
                                           std::span<const index_t> centers) {
  if (centers.empty()) {
    throw std::invalid_argument("assign_clusters: empty centers");
  }
  std::vector<std::uint32_t> assignment(pts.size(), 0);
  if (pts.empty()) return assignment;

  // Streams point-rows x center-columns tiles out of the tiled pairwise
  // engine and folds a per-row first-wins strict-< argmin. Center tiles
  // arrive in ascending order, so each point gets the first of its
  // nearest centers — on bit-identical distances (the tile kernel's
  // contract) — without a scalar pair call per (point, center). Chunks
  // of at least kChunk points stream independent rectangles into
  // disjoint slices, each through its own gated stream, so the labels
  // do not depend on the executor.
  std::vector<double> best(pts.size(), kInfDist);
  constexpr std::size_t kChunk = 4096;
  const auto stream = [&](std::size_t lo, std::size_t hi) {
    oracle.pairwise_tiles(
        pts.subspan(lo, hi - lo), centers,
        [&assignment, &best, lo](std::size_t i0, std::size_t j0,
                                 std::size_t tm, std::size_t tn,
                                 const double* tile, std::size_t ldt) {
          for (std::size_t r = 0; r < tm; ++r) {
            const std::size_t i = lo + i0 + r;
            const double* row = tile + r * ldt;
            for (std::size_t c = 0; c < tn; ++c) {
              if (row[c] < best[i]) {
                best[i] = row[c];
                assignment[i] = static_cast<std::uint32_t>(j0 + c);
              }
            }
          }
        },
        "assign_clusters");
  };
  if (exec::ExecutionBackend* executor = oracle.executor()) {
    executor->parallel_for(pts.size(), kChunk, stream);
  } else {
    stream(0, pts.size());
  }
  return assignment;
}

ClusterStats cluster_stats(const DistanceOracle& oracle,
                           std::span<const index_t> pts,
                           std::span<const index_t> centers) {
  if (centers.empty()) {
    throw std::invalid_argument("cluster_stats: empty centers");
  }
  ClusterStats stats;
  stats.assignment = assign_clusters(oracle, pts, centers);
  stats.sizes.assign(centers.size(), 0);
  for (const std::uint32_t c : stats.assignment) ++stats.sizes[c];

  // Bucket the member points per cluster (counting sort), then stream
  // each cluster's center-to-members row through the tiled engine and
  // fold the max. Exactly one pair evaluation per point — the same
  // total the old per-point loop charged — and the max fold is
  // order-independent over NaN-free distances, so the radii stay
  // bit-identical. Gating (budget/cancel, label "cluster_stats") is
  // handled by the engine.
  std::vector<std::size_t> offset(centers.size() + 1, 0);
  for (std::size_t c = 0; c < centers.size(); ++c) {
    offset[c + 1] = offset[c] + stats.sizes[c];
  }
  std::vector<index_t> members(pts.size());
  {
    std::vector<std::size_t> cursor(offset.begin(), offset.end() - 1);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      members[cursor[stats.assignment[i]]++] = pts[i];
    }
  }
  std::vector<double> radii_comp(centers.size(), 0.0);
  for (std::size_t c = 0; c < centers.size(); ++c) {
    const std::size_t sz = offset[c + 1] - offset[c];
    if (sz == 0) continue;
    const index_t cid[1] = {centers[c]};
    double rmax = 0.0;
    oracle.pairwise_tiles(
        {cid, 1}, std::span<const index_t>(members).subspan(offset[c], sz),
        [&rmax](std::size_t, std::size_t, std::size_t, std::size_t tn,
                const double* tile, std::size_t) {
          for (std::size_t j = 0; j < tn; ++j) {
            if (tile[j] > rmax) rmax = tile[j];
          }
        },
        "cluster_stats");
    radii_comp[c] = rmax;
  }

  stats.radii.resize(centers.size());
  double sum = 0.0;
  stats.largest_cluster = 0;
  stats.smallest_cluster = 0;
  std::size_t smallest_nonempty = pts.size() + 1;
  for (std::size_t c = 0; c < centers.size(); ++c) {
    stats.radii[c] = oracle.to_reported(radii_comp[c]);
    sum += stats.radii[c];
    if (stats.radii[c] > stats.max_radius) stats.max_radius = stats.radii[c];
    if (stats.sizes[c] > stats.largest_cluster) {
      stats.largest_cluster = stats.sizes[c];
    }
    if (stats.sizes[c] == 0) {
      ++stats.empty_clusters;
    } else if (stats.sizes[c] < smallest_nonempty) {
      smallest_nonempty = stats.sizes[c];
    }
  }
  if (smallest_nonempty <= pts.size()) stats.smallest_cluster = smallest_nonempty;
  stats.mean_radius = sum / static_cast<double>(centers.size());
  return stats;
}

}  // namespace kc::eval

#include "algo/hochbaum_shmoys.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace kc {

namespace {

/// Threshold test: greedily 2r-cover `pts`. Returns the chosen centers
/// if at most k suffice, otherwise an empty vector. `cover_comp` is the
/// comparable-scale equivalent of distance 2r.
[[nodiscard]] std::vector<index_t> threshold_cover(
    const DistanceOracle& oracle, std::span<const index_t> pts, std::size_t k,
    double cover_comp) {
  std::vector<index_t> centers;
  std::vector<bool> covered(pts.size(), false);
  // Scratch for the per-center scan: the uncovered survivors' ids (the
  // tile's b side) and their positions in pts (to mark covered).
  std::vector<index_t> uncov_ids;
  std::vector<std::size_t> uncov_pos;
  std::size_t first_uncovered = 0;
  while (true) {
    while (first_uncovered < pts.size() && covered[first_uncovered]) {
      ++first_uncovered;
    }
    if (first_uncovered == pts.size()) return centers;  // all covered
    if (centers.size() == k) return {};                 // infeasible
    const index_t center = pts[first_uncovered];
    centers.push_back(center);
    covered[first_uncovered] = true;
    // Gather the uncovered survivors, then evaluate the new center
    // against exactly those points as one tiled 1 x u row — the same
    // pairs (and eval count) the old per-pair loop computed, through
    // the vectorized tile kernel. Ungated, like the per-pair
    // comparable() calls it replaces, which never consulted the bound
    // context.
    uncov_ids.clear();
    uncov_pos.clear();
    for (std::size_t i = first_uncovered + 1; i < pts.size(); ++i) {
      if (!covered[i]) {
        uncov_ids.push_back(pts[i]);
        uncov_pos.push_back(i);
      }
    }
    if (uncov_ids.empty()) continue;
    const index_t cid[1] = {center};
    oracle.pairwise_tiles(
        {cid, 1}, uncov_ids,
        [&](std::size_t, std::size_t j0, std::size_t, std::size_t tn,
            const double* tile, std::size_t) {
          for (std::size_t c = 0; c < tn; ++c) {
            if (tile[c] <= cover_comp) covered[uncov_pos[j0 + c]] = true;
          }
        },
        "threshold_cover", /*gated=*/false);
  }
}

}  // namespace

KCenterResult hochbaum_shmoys(const DistanceOracle& oracle,
                              std::span<const index_t> pts, std::size_t k,
                              const HochbaumShmoysOptions& options) {
  if (pts.empty()) {
    throw std::invalid_argument("hochbaum_shmoys: empty point subset");
  }
  if (k == 0) {
    throw std::invalid_argument("hochbaum_shmoys: k must be at least 1");
  }
  if (pts.size() > options.max_points) {
    throw std::length_error(
        "hochbaum_shmoys: subset too large for the quadratic candidate list");
  }

  if (pts.size() <= k) {
    KCenterResult all;
    all.centers.assign(pts.begin(), pts.end());
    all.radius_comparable = 0.0;
    return all;
  }

  // Candidate radii: all pairwise comparable distances, deduplicated.
  // Streamed out of the tiled pairwise engine (upper triangle only) so
  // the list is produced by the cache-blocked SIMD kernel without ever
  // materializing the n^2 matrix; the sort below makes the append order
  // irrelevant.
  std::vector<double> candidates;
  candidates.reserve(pts.size() * (pts.size() - 1) / 2);
  oracle.pairwise_upper_tiles(
      pts,
      [&](std::size_t, std::size_t, std::size_t tm, std::size_t tn,
          const double* tile, std::size_t ldt) {
        for (std::size_t r = 0; r < tm; ++r) {
          const double* row = tile + r * ldt;
          candidates.insert(candidates.end(), row, row + tn);
        }
      },
      "hs_candidates");
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  const auto cover_threshold = [&](double r_comp) {
    // distance 2r in comparable scale (exactly 4*r_comp for L2).
    return oracle.from_reported(2.0 * oracle.to_reported(r_comp));
  };

  // Binary search the smallest feasible candidate.
  std::size_t lo = 0;
  std::size_t hi = candidates.size() - 1;  // max distance is always feasible
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (threshold_cover(oracle, pts, k, cover_threshold(candidates[mid]))
            .empty()) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }

  KCenterResult result;
  result.centers = threshold_cover(oracle, pts, k, cover_threshold(candidates[lo]));
  if (result.centers.empty()) {
    throw std::logic_error("hochbaum_shmoys: feasibility search failed");
  }

  // Report the solution's actual covering radius over pts: one batch
  // fold instead of one sweep per center.
  NearestSweep sweep(oracle, pts);
  sweep.fold(result.centers);
  result.radius_comparable = sweep.farthest().comparable;
  return result;
}

}  // namespace kc

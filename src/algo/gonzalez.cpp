#include "algo/gonzalez.hpp"

#include <optional>
#include <stdexcept>

#include "geom/spatial_index.hpp"
#include "rng/rng.hpp"

namespace kc {

GonzalezResult gonzalez(const DistanceOracle& oracle,
                        std::span<const index_t> pts, std::size_t k,
                        const GonzalezOptions& options) {
  if (pts.empty()) throw std::invalid_argument("gonzalez: empty point subset");
  if (k == 0) throw std::invalid_argument("gonzalez: k must be at least 1");

  const std::size_t n = pts.size();
  const std::size_t centers_wanted = std::min(k, n);

  GonzalezResult result;
  result.centers.reserve(centers_wanted);
  result.greedy_radii_comparable.reserve(centers_wanted);

  std::size_t first_pos = 0;
  if (options.first == GonzalezOptions::FirstCenter::Random) {
    Rng rng(options.seed);
    first_pos = static_cast<std::size_t>(rng.uniform_int(n));
  }

  // best[i] = comparable distance from pts[i] to the nearest chosen
  // center so far. Each new center costs one update_nearest sweep, for
  // the O(k*N) total the paper cites in §5.1. The sweep and the argmax
  // both run on the SIMD kernel engine; top-level callers pass
  // all_indices(), so the sweep takes the contiguous fast path and
  // streams PointSet rows without the ids gather.
  //
  // When the scan covers the oracle's whole point set and a grid index
  // is bound, best[] is kept in *cell order* (the oracle's ordered
  // scans), so pruned sweeps fold kernels into contiguous slices.
  // Gonzalez is exactly the shape PruneCache exists for: k sweeps over
  // one best[] array that only ever tightens, so per-cell bounds from
  // sweep t keep pruning sweep t+1 without an O(n) re-derivation. The
  // cache lives and dies with best[] right here, per its contract. The
  // values are bit-identical in either domain; only the argmax needs
  // care, because the id-order argmax breaks value ties on the smallest
  // id and the permuted order would break them on grid position.
  std::vector<double> best(n, kInfDist);
  const bool ordered = oracle.ordered_scans_available(pts);
  std::optional<PruneCache> cache;
  if (ordered) cache.emplace(*oracle.spatial_index());
  // ids[j] is the point whose distance best[j] holds.
  const std::span<const index_t> ids =
      ordered ? oracle.spatial_index()->order() : pts;

  index_t current = pts[first_pos];
  result.centers.push_back(current);
  result.greedy_radii_comparable.push_back(0.0);

  for (std::size_t step = 1; step <= centers_wanted; ++step) {
    if (ordered) {
      oracle.update_nearest_ordered(current, best, &*cache);
    } else {
      oracle.update_nearest(pts, current, best);
    }
    if (step == centers_wanted) break;
    const std::size_t far_pos =
        ordered ? argmax_smallest_id(best, ids) : argmax(best);
    result.greedy_radii_comparable.push_back(best[far_pos]);
    current = ids[far_pos];
    result.centers.push_back(current);
  }

  result.radius_comparable = best[argmax(std::span<const double>(best))];
  return result;
}

}  // namespace kc

#include "algo/gonzalez.hpp"

#include <stdexcept>

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

  // The sweep holds each point's comparable distance to the nearest
  // chosen center so far. Each new center costs one fold, for the
  // O(k*N) total the paper cites in §5.1, and the farthest point is the
  // next center. Top-level callers pass all_indices(), so the folds take
  // the kernels' contiguous fast path, or run on the grid when one is
  // bound: k folds into one array that only ever tightens is the shape
  // the sweep's per-cell bounds exist for.
  NearestSweep sweep(oracle, pts);
  index_t current = pts[first_pos];
  result.centers.push_back(current);
  result.greedy_radii_comparable.push_back(0.0);

  for (std::size_t step = 1; step <= centers_wanted; ++step) {
    sweep.fold(current);
    if (step == centers_wanted) break;
    const NearestSweep::Farthest far = sweep.farthest();
    result.greedy_radii_comparable.push_back(far.comparable);
    current = far.id;
    result.centers.push_back(current);
  }

  result.radius_comparable = sweep.farthest().comparable;
  return result;
}

}  // namespace kc

#include "core/eim.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "exec/scheduler.hpp"
#include "geom/spatial_index.hpp"
#include "rng/rng.hpp"

namespace kc {

std::string_view to_string(LogBase base) noexcept {
  switch (base) {
    case LogBase::E: return "ln";
    case LogBase::Two: return "log2";
    case LogBase::Ten: return "log10";
  }
  return "?";
}

double log_with_base(double x, LogBase base) noexcept {
  switch (base) {
    case LogBase::E: return std::log(x);
    case LogBase::Two: return std::log2(x);
    case LogBase::Ten: return std::log10(x);
  }
  return std::log(x);
}

double eim_loop_threshold(std::size_t n, std::size_t k,
                          const EimOptions& options) {
  const double dn = static_cast<double>(n);
  return (4.0 / options.epsilon) * static_cast<double>(k) *
         std::pow(dn, options.epsilon) * log_with_base(dn, options.log_base);
}

bool eim_degenerates(std::size_t n, std::size_t k, const EimOptions& options) {
  const double threshold = eim_loop_threshold(n, k, options);
  return static_cast<double>(n) <= threshold || threshold <= 0.0;
}

namespace {

void check_cancelled(const EimOptions& options, int iterations_done) {
  if (options.cancel.cancelled()) {
    throw CancelledError("eim: cancelled after " +
                         std::to_string(iterations_done) + " iteration(s)");
  }
}

}  // namespace

EimResult eim(const DistanceOracle& oracle, std::span<const index_t> pts,
              std::size_t k, const mr::SimCluster& cluster,
              const EimOptions& options) {
  if (pts.empty()) throw std::invalid_argument("eim: empty point subset");
  if (k == 0) throw std::invalid_argument("eim: k must be at least 1");
  if (!(options.epsilon > 0.0) || !(options.epsilon < 1.0)) {
    throw std::invalid_argument("eim: epsilon must be in (0, 1)");
  }
  if (!(options.phi > 0.0)) {
    throw std::invalid_argument("eim: phi must be positive");
  }

  const std::size_t n = pts.size();
  const double dn = static_cast<double>(n);
  const double n_eps = std::pow(dn, options.epsilon);
  const double log_n = log_with_base(dn, options.log_base);
  const double loop_threshold = eim_loop_threshold(n, k, options);
  const std::size_t m = static_cast<std::size_t>(cluster.machines());

  EimResult result;
  Rng rng(options.seed);

  // Degenerate regime (Figures 3b and 4b): the while-loop condition
  // |R| > (4/eps) k n^eps log n never holds, so the whole input goes to
  // one machine and the procedure *is* the sequential algorithm. A
  // non-positive threshold (n = 1 makes log n = 0) degenerates too:
  // the sampling probabilities would all be zero.
  if (eim_degenerates(n, k, options)) {
    check_cancelled(options, 0);
    KCenterResult final_result;
    auto& round = cluster.run_round(
        "eim-final(degenerate)", 1,
        [&](int) {
          final_result = run_sequential(options.final_algo, oracle, pts, k,
                                        rng.split(0)());
        },
        result.trace);
    round.items_in = n;
    round.items_out = final_result.centers.size();
    round.shuffle_items = n;
    result.centers = std::move(final_result.centers);
    result.radius_comparable = final_result.radius_comparable;
    result.sampled = false;
    result.final_sample_size = n;
    return result;
  }

  // Local positions into `pts`; dist_to_sample[p] = comparable d(pts[p], S).
  std::vector<index_t> r_set(n);
  std::iota(r_set.begin(), r_set.end(), index_t{0});
  std::vector<double> dist_to_sample(n, kInfDist);
  std::vector<std::uint8_t> in_sample(n, 0);

  std::vector<index_t> sample_global;  // S, as global point ids
  const bool boxes_enabled = oracle.sample_boxes_enabled();

  while (static_cast<double>(r_set.size()) > loop_threshold) {
    check_cancelled(options, result.iterations);
    if (result.iterations >= options.max_iterations) {
      throw std::runtime_error("eim: exceeded max_iterations; |R| = " +
                               std::to_string(r_set.size()));
    }
    ++result.iterations;

    const double r_size = static_cast<double>(r_set.size());
    const double p_sample = std::min(1.0, 9.0 * k * n_eps * log_n / r_size);
    const double p_pivot = std::min(1.0, 4.0 * n_eps * log_n / r_size);

    // ---- Round 1 (Algorithm 2, lines 3-4): per-machine Bernoulli
    // sampling of the new S members and the pivot-candidate set H.
    const std::size_t chunks = std::min(m, r_set.size());
    std::vector<std::vector<index_t>> sampled_parts(chunks);
    std::vector<std::vector<index_t>> pivot_parts(chunks);
    auto& sample_round = cluster.run_round(
        "eim-sample", static_cast<int>(chunks),
        [&](int machine) {
          const auto [lo, hi] = exec::chunk_bounds(
              r_set.size(), chunks, static_cast<std::size_t>(machine));
          Rng machine_rng =
              Rng(options.seed)
                  .split((static_cast<std::uint64_t>(result.iterations) << 32) |
                         static_cast<std::uint64_t>(machine));
          auto& sampled = sampled_parts[static_cast<std::size_t>(machine)];
          auto& pivots = pivot_parts[static_cast<std::size_t>(machine)];
          for (std::size_t i = lo; i < hi; ++i) {
            const index_t p = r_set[i];
            if (machine_rng.bernoulli(p_sample)) sampled.push_back(p);
            if (machine_rng.bernoulli(p_pivot)) pivots.push_back(p);
          }
        },
        result.trace);

    std::vector<index_t> delta_positions;  // new S members (local positions)
    std::vector<index_t> pivot_positions;  // H (local positions)
    for (const auto& part : sampled_parts) {
      delta_positions.insert(delta_positions.end(), part.begin(), part.end());
    }
    for (const auto& part : pivot_parts) {
      pivot_positions.insert(pivot_positions.end(), part.begin(), part.end());
    }
    sample_round.items_in = r_set.size();
    sample_round.items_out = delta_positions.size() + pivot_positions.size();

    std::vector<index_t> delta_global;
    delta_global.reserve(delta_positions.size());
    for (const index_t p : delta_positions) {
      in_sample[p] = 1;
      delta_global.push_back(pts[p]);
    }
    sample_global.insert(sample_global.end(), delta_global.begin(),
                         delta_global.end());

    // ---- Round 2 (lines 5-6): one machine receives H and S and picks
    // the pivot v = the phi*log(n)-th farthest point of H from S.
    // d(x, S) is maintained incrementally: only the distances to the
    // *new* sample members are computed. Unless the oracle's prune
    // mode is Off, this machine splits them into sample boxes
    // (geom/spatial_index.hpp), and H here and R in round 3 fold
    // through them.
    double removal_threshold = -kInfDist;
    std::optional<SampleBoxes> boxes;
    auto& select_round = cluster.run_round(
        "eim-select", 1,
        [&](int) {
          if (boxes_enabled) boxes.emplace(oracle.points(), delta_global);
          if (pivot_positions.empty()) return;
          std::vector<index_t> h_global(pivot_positions.size());
          std::vector<double> h_best(pivot_positions.size());
          for (std::size_t i = 0; i < pivot_positions.size(); ++i) {
            h_global[i] = pts[pivot_positions[i]];
            h_best[i] = dist_to_sample[pivot_positions[i]];
          }
          if (boxes) {
            oracle.update_nearest_grouped(h_global, *boxes, h_best);
          } else {
            oracle.update_nearest_multi(h_global, delta_global, h_best);
          }
          for (std::size_t i = 0; i < pivot_positions.size(); ++i) {
            dist_to_sample[pivot_positions[i]] = h_best[i];
          }
          std::sort(h_best.begin(), h_best.end(), std::greater<>());
          const auto rank = static_cast<std::size_t>(
              std::max<long long>(1, std::llround(options.phi * log_n)));
          removal_threshold = h_best[std::min(rank, h_best.size()) - 1];
        },
        result.trace);
    select_round.items_in = pivot_positions.size() + sample_global.size();
    select_round.items_out = 1;
    select_round.shuffle_items = pivot_positions.size() + sample_global.size();

    // ---- Round 3 (lines 7-9): every machine updates d(x, S) for its
    // share of R against the new sample members and drops the points
    // that are now represented at least as well as the pivot. Sampled
    // points always leave R (the §4.1 termination fix); the `<=`
    // comparison removes distance ties (the other §4.1 fix).
    std::vector<std::vector<index_t>> survivor_parts(chunks);
    auto& prune_round = cluster.run_round(
        "eim-prune", static_cast<int>(chunks),
        [&](int machine) {
          const auto [lo, hi] = exec::chunk_bounds(
              r_set.size(), chunks, static_cast<std::size_t>(machine));
          const std::size_t len = hi - lo;
          std::vector<index_t> chunk_global(len);
          std::vector<double> chunk_best(len);
          for (std::size_t i = 0; i < len; ++i) {
            chunk_global[i] = pts[r_set[lo + i]];
            chunk_best[i] = dist_to_sample[r_set[lo + i]];
          }
          if (boxes) {
            oracle.update_nearest_grouped(chunk_global, *boxes, chunk_best);
          } else {
            oracle.update_nearest_multi(chunk_global, delta_global,
                                        chunk_best);
          }
          auto& survivors = survivor_parts[static_cast<std::size_t>(machine)];
          for (std::size_t i = 0; i < len; ++i) {
            const index_t p = r_set[lo + i];
            dist_to_sample[p] = chunk_best[i];
            const bool pruned = options.tie_breaking_removal
                                    ? chunk_best[i] <= removal_threshold
                                    : chunk_best[i] < removal_threshold;
            if (pruned || (options.remove_sampled && in_sample[p])) continue;
            survivors.push_back(p);
          }
        },
        result.trace);

    std::vector<index_t> next_r;
    for (const auto& part : survivor_parts) {
      next_r.insert(next_r.end(), part.begin(), part.end());
    }
    prune_round.items_in = r_set.size();
    prune_round.items_out = next_r.size();
    // Each machine receives the new sample, plus its boxes (two rows
    // per group) when there are boxes.
    prune_round.shuffle_items =
        r_set.size() +
        chunks * (delta_global.size() + (boxes ? 2 * boxes->group_count() : 0));

    // With |R| above the loop threshold the no-progress probability is
    // astronomically small (it requires an empty S *and* H draw); the
    // iteration simply retries and max_iterations bounds pathology.
    r_set = std::move(next_r);
    if (options.progress) {
      options.progress({"eim", "eim-prune", result.iterations, r_set.size(),
                        result.trace.total_dist_evals()});
    }
  }

  // Output C = S [union] R, then the final clean-up round (one machine).
  check_cancelled(options, result.iterations);
  std::vector<index_t> final_set = sample_global;
  final_set.reserve(sample_global.size() + r_set.size());
  for (const index_t p : r_set) final_set.push_back(pts[p]);

  KCenterResult final_result;
  auto& final_round = cluster.run_round(
      "eim-final", 1,
      [&](int) {
        final_result = run_sequential(options.final_algo, oracle, final_set, k,
                                      rng.split(~0ull)());
      },
      result.trace);
  final_round.items_in = final_set.size();
  final_round.items_out = final_result.centers.size();
  final_round.shuffle_items = final_set.size();

  result.centers = std::move(final_result.centers);
  result.radius_comparable = final_result.radius_comparable;
  result.sampled = true;
  result.final_sample_size = final_set.size();
  return result;
}

}  // namespace kc

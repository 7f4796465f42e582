#include "core/ccm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "geom/spatial_index.hpp"
#include "rng/rng.hpp"

namespace kc {

namespace {

void check_cancelled(const CcmOptions& options, const char* where) {
  if (options.cancel.cancelled()) {
    throw CancelledError(std::string("ccm: cancelled before ") + where);
  }
}

/// Dimension normalizer of the snapping bound: a point moves by at
/// most w/2 per coordinate, i.e. by at most w/2 * norm(d) in the
/// metric, so w = eps * r_hat / norm(d) keeps the move within
/// eps * r_hat / 2.
[[nodiscard]] double metric_norm(MetricKind kind, std::size_t dim) noexcept {
  switch (kind) {
    case MetricKind::L2: return std::sqrt(static_cast<double>(dim));
    case MetricKind::L1: return static_cast<double>(dim);
    case MetricKind::Linf: return 1.0;
  }
  return 1.0;
}

/// One representative point (the part's first, deterministically) per
/// non-empty grid cell of width `w`, in part order; doubles `w` until
/// at most `cap` cells are occupied. Spends no distance evaluations.
[[nodiscard]] std::vector<index_t> grid_representatives(
    const PointSet& points, std::span<const index_t> part, double w,
    std::size_t cap, double* effective_w) {
  // The snapping is the pruning index's own (geom/spatial_index.hpp),
  // clamped so a coordinate huge relative to w (tiny r_hat under
  // far-flung outliers) saturates instead of overflowing.
  std::vector<index_t> reps = first_point_per_cell(points, part, w, cap);
  while (reps.size() > cap) {
    w *= 2.0;  // halve the resolution until the part fits the cap
    reps = first_point_per_cell(points, part, w, cap);
  }
  *effective_w = w;
  return reps;
}

}  // namespace

CcmResult ccm(const DistanceOracle& oracle, std::span<const index_t> pts,
              std::size_t k, const mr::SimCluster& cluster,
              const CcmOptions& options) {
  if (pts.empty()) throw std::invalid_argument("ccm: empty point subset");
  if (k == 0) throw std::invalid_argument("ccm: k must be at least 1");
  if (!(options.epsilon > 0.0) || options.epsilon > 1.0) {
    throw std::invalid_argument("ccm: epsilon must be in (0, 1]");
  }

  const std::size_t cap = options.max_coreset_per_machine != 0
                              ? options.max_coreset_per_machine
                              : std::max<std::size_t>(64, 8 * k);
  const bool randomize = options.first_center ==
                         GonzalezOptions::FirstCenter::Random;

  CcmResult result;
  Rng rng(options.seed);
  const auto parts = mr::partition_items(pts, cluster.machines(),
                                         options.partition, &rng);

  // ---- Round 1: local GON per machine -> local centers + radius.
  check_cancelled(options, "ccm-estimate");
  std::vector<std::vector<index_t>> local_centers(parts.size());
  std::vector<double> local_radius(parts.size(), 0.0);
  auto& estimate_round = cluster.run_round(
      "ccm-estimate", static_cast<int>(parts.size()),
      [&](int machine) {
        const auto& part = parts[static_cast<std::size_t>(machine)];
        const std::uint64_t machine_seed =
            Rng(options.seed).split(static_cast<std::uint64_t>(machine))();
        KCenterResult local = run_sequential(SeqAlgo::Gonzalez, oracle, part,
                                             k, machine_seed, randomize);
        local_radius[static_cast<std::size_t>(machine)] =
            local.radius_comparable;
        local_centers[static_cast<std::size_t>(machine)] =
            std::move(local.centers);
      },
      result.trace);
  double r_hat_comparable = 0.0;
  std::size_t local_total = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    r_hat_comparable = std::max(r_hat_comparable, local_radius[i]);
    local_total += local_centers[i].size();
  }
  estimate_round.items_in = pts.size();
  estimate_round.items_out = local_total;
  estimate_round.shuffle_items = pts.size();
  if (options.progress) {
    options.progress({"ccm", "ccm-estimate", 1, local_total,
                      result.trace.total_dist_evals()});
  }

  // ---- Round 2: grid-snap each part into a coreset. Skipped when
  // r_hat == 0 (every part is duplicates of its local centers, which
  // therefore already form an exact coreset).
  std::vector<index_t> coreset;
  if (r_hat_comparable > 0.0) {
    check_cancelled(options, "ccm-grid");
    const double r_hat = oracle.to_reported(r_hat_comparable);
    const double width =
        options.epsilon * r_hat / (2.0 * metric_norm(oracle.kind(), oracle.dim()));
    std::vector<std::vector<index_t>> emitted(parts.size());
    std::vector<double> widths(parts.size(), width);
    auto& grid_round = cluster.run_round(
        "ccm-grid", static_cast<int>(parts.size()),
        [&](int machine) {
          const std::size_t i = static_cast<std::size_t>(machine);
          emitted[i] = grid_representatives(oracle.points(), parts[i], width,
                                            cap, &widths[i]);
        },
        result.trace);
    std::size_t emitted_total = 0;
    for (const auto& e : emitted) emitted_total += e.size();
    coreset.reserve(emitted_total);
    for (const auto& e : emitted) {
      coreset.insert(coreset.end(), e.begin(), e.end());
    }
    result.grid_width = *std::max_element(widths.begin(), widths.end());
    grid_round.items_in = pts.size();
    grid_round.items_out = emitted_total;
    grid_round.shuffle_items = emitted_total;
    if (options.progress) {
      options.progress({"ccm", "ccm-grid", 2, emitted_total,
                        result.trace.total_dist_evals()});
    }
  } else {
    coreset.reserve(local_total);
    for (const auto& centers : local_centers) {
      coreset.insert(coreset.end(), centers.begin(), centers.end());
    }
  }
  result.coreset_size = coreset.size();

  // ---- Round 3: one reducer solves the coreset sequentially.
  check_cancelled(options, "ccm-final");
  KCenterResult final_result;
  auto& final_round = cluster.run_round(
      "ccm-final", 1,
      [&](int) {
        final_result =
            run_sequential(options.final_algo, oracle, coreset, k,
                           Rng(options.seed).split(~0ull)(), randomize);
      },
      result.trace);
  final_round.items_in = coreset.size();
  final_round.items_out = final_result.centers.size();
  final_round.shuffle_items = coreset.size();
  if (options.progress) {
    options.progress({"ccm", "ccm-final", 3, final_result.centers.size(),
                      result.trace.total_dist_evals()});
  }

  result.centers = std::move(final_result.centers);
  result.radius_comparable = final_result.radius_comparable;
  return result;
}

}  // namespace kc

#include "core/mrg.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "rng/rng.hpp"

namespace kc {

namespace {

[[nodiscard]] std::size_t ceil_div(std::size_t a, std::size_t b) noexcept {
  return (a + b - 1) / b;
}

void check_cancelled(const MrgOptions& options, int rounds_done) {
  if (options.cancel.cancelled()) {
    throw CancelledError("mrg: cancelled after " + std::to_string(rounds_done) +
                         " reduce round(s)");
  }
}

}  // namespace

std::size_t mrg_capacity(std::size_t n, std::size_t k, std::size_t m,
                         const MrgOptions& options) {
  return options.capacity != 0 ? options.capacity
                               : std::max(ceil_div(n, m), k * m);
}

MrgResult mrg(const DistanceOracle& oracle, std::span<const index_t> pts,
              std::size_t k, const mr::SimCluster& cluster,
              const MrgOptions& options) {
  if (pts.empty()) throw std::invalid_argument("mrg: empty point subset");
  if (k == 0) throw std::invalid_argument("mrg: k must be at least 1");

  const std::size_t n = pts.size();
  const std::size_t m = static_cast<std::size_t>(cluster.machines());
  const std::size_t capacity = mrg_capacity(n, k, m, options);

  if (ceil_div(n, m) > capacity) {
    throw std::length_error(
        "mrg: input does not fit the cluster (ceil(n/m) = " +
        std::to_string(ceil_div(n, m)) + " > capacity " +
        std::to_string(capacity) + ")");
  }

  MrgResult result;
  Rng rng(options.seed);

  std::vector<index_t> sample(pts.begin(), pts.end());

  while (sample.size() > capacity) {
    check_cancelled(options, result.reduce_rounds);
    if (result.reduce_rounds >= options.max_rounds) {
      throw std::runtime_error("mrg: exceeded max_rounds without converging");
    }

    // First round: all m machines (Algorithm 1 line 3). Later rounds:
    // just enough machines to respect capacity, which maximizes the
    // per-round reduction (the multi-round analysis in §3.3 uses
    // m' = ceil(k*m/c) likewise).
    const bool first_round = (result.reduce_rounds == 0);
    const std::size_t machines_this_round =
        first_round ? m : std::min(m, ceil_div(sample.size(), capacity));

    // Progress requires strictly fewer output centers than input points.
    if (k * machines_this_round >= sample.size()) {
      throw std::runtime_error(
          "mrg: cannot reduce sample of " + std::to_string(sample.size()) +
          " points with k=" + std::to_string(k) + " on " +
          std::to_string(machines_this_round) +
          " machines; k is too large for capacity " + std::to_string(capacity));
    }

    // Explicit assignments address the first round's machines, so later
    // rounds fall back to Block.
    std::span<const int> assignment;
    mr::PartitionStrategy strategy = options.partition;
    if (strategy == mr::PartitionStrategy::Explicit) {
      if (!first_round) {
        strategy = mr::PartitionStrategy::Block;
      } else if (!options.explicit_assignment ||
                 options.explicit_assignment->size() != sample.size()) {
        throw std::invalid_argument(
            "mrg: Explicit partition requires one machine id per input "
            "point");
      } else {
        assignment = *options.explicit_assignment;
      }
    }
    const auto parts =
        mr::partition_items(sample, static_cast<int>(machines_this_round),
                            strategy, &rng, assignment);

    // Reducers: k centers from each part via the inner algorithm.
    std::vector<std::vector<index_t>> emitted(parts.size());
    mr::RoundStats& round = cluster.run_round(
        "mrg-reduce", static_cast<int>(parts.size()),
        [&](int machine) {
          const auto& part = parts[static_cast<std::size_t>(machine)];
          const std::uint64_t machine_seed =
              Rng(options.seed).split(static_cast<std::uint64_t>(machine))();
          KCenterResult local = run_sequential(
              options.inner, oracle, part, k, machine_seed,
              options.first_center == GonzalezOptions::FirstCenter::Random);
          emitted[static_cast<std::size_t>(machine)] =
              std::move(local.centers);
        },
        result.trace);

    std::size_t emitted_total = 0;
    for (const auto& e : emitted) emitted_total += e.size();

    round.items_in = sample.size();
    round.items_out = emitted_total;
    // The paper does not charge data movement (§7.1); we still record
    // the records that crossed machines for completeness.
    round.shuffle_items = sample.size();

    sample.clear();
    sample.reserve(emitted_total);
    for (const auto& e : emitted) {
      sample.insert(sample.end(), e.begin(), e.end());
    }
    ++result.reduce_rounds;
    if (options.progress) {
      options.progress({"mrg", "mrg-reduce", result.reduce_rounds,
                        sample.size(), result.trace.total_dist_evals()});
    }
  }

  // Final round: the mapper sends all of S to a single reducer, which
  // runs the sequential algorithm to pick the k result centers.
  check_cancelled(options, result.reduce_rounds);
  KCenterResult final_result;
  mr::RoundStats& final_round = cluster.run_round(
      "mrg-final", 1,
      [&](int) {
        final_result = run_sequential(
            options.final_algo, oracle, sample, k,
            Rng(options.seed).split(~0ull)(),
            options.first_center == GonzalezOptions::FirstCenter::Random);
      },
      result.trace);
  final_round.items_in = sample.size();
  final_round.items_out = final_result.centers.size();
  final_round.shuffle_items = sample.size();

  result.centers = std::move(final_result.centers);
  result.radius_comparable = final_result.radius_comparable;
  return result;
}

}  // namespace kc

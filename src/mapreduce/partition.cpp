#include "mapreduce/partition.hpp"

#include <algorithm>
#include <stdexcept>

#include "exec/scheduler.hpp"

namespace kc::mr {

std::string_view to_string(PartitionStrategy s) noexcept {
  switch (s) {
    case PartitionStrategy::Block: return "block";
    case PartitionStrategy::RoundRobin: return "round-robin";
    case PartitionStrategy::Shuffled: return "shuffled";
    case PartitionStrategy::Explicit: return "explicit";
  }
  return "?";
}

namespace {

[[nodiscard]] std::vector<std::vector<index_t>> block_partition(
    std::span<const index_t> items, int machines) {
  const std::size_t n = items.size();
  const std::size_t m = static_cast<std::size_t>(machines);
  const std::size_t parts = std::min(m, n);
  std::vector<std::vector<index_t>> out(parts);
  // Sizes differ by at most one, all <= ceil(n/m).
  for (std::size_t p = 0; p < parts; ++p) {
    const auto [lo, hi] = exec::chunk_bounds(n, parts, p);
    out[p].assign(items.begin() + lo, items.begin() + hi);
  }
  return out;
}

[[nodiscard]] std::vector<std::vector<index_t>> round_robin_partition(
    std::span<const index_t> items, int machines) {
  const std::size_t parts =
      std::min<std::size_t>(static_cast<std::size_t>(machines), items.size());
  std::vector<std::vector<index_t>> out(parts);
  for (auto& part : out) part.reserve(items.size() / parts + 1);
  for (std::size_t i = 0; i < items.size(); ++i) {
    out[i % parts].push_back(items[i]);
  }
  return out;
}

}  // namespace

std::vector<std::vector<index_t>> partition_items(
    std::span<const index_t> items, int machines, PartitionStrategy strategy,
    Rng* rng, std::span<const int> assignment) {
  if (machines <= 0) {
    throw std::invalid_argument("partition_items: machines must be positive");
  }
  if (items.empty()) return {};

  switch (strategy) {
    case PartitionStrategy::Block:
      return block_partition(items, machines);

    case PartitionStrategy::RoundRobin:
      return round_robin_partition(items, machines);

    case PartitionStrategy::Shuffled: {
      if (rng == nullptr) {
        throw std::invalid_argument(
            "partition_items: Shuffled strategy requires an Rng");
      }
      std::vector<index_t> shuffled(items.begin(), items.end());
      rng->shuffle(std::span<index_t>(shuffled));
      return block_partition(shuffled, machines);
    }

    case PartitionStrategy::Explicit: {
      if (assignment.size() != items.size()) {
        throw std::invalid_argument(
            "partition_items: Explicit strategy needs one machine id per item");
      }
      std::vector<std::vector<index_t>> out(static_cast<std::size_t>(machines));
      for (std::size_t i = 0; i < items.size(); ++i) {
        const int machine = assignment[i];
        if (machine < 0 || machine >= machines) {
          throw std::out_of_range("partition_items: machine id out of range");
        }
        out[static_cast<std::size_t>(machine)].push_back(items[i]);
      }
      // Drop empty parts: reducers without input do not run.
      std::erase_if(out, [](const auto& part) { return part.empty(); });
      return out;
    }
  }
  throw std::logic_error("partition_items: unknown strategy");
}

}  // namespace kc::mr

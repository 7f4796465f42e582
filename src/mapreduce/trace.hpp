// Job-level trace: the ordered list of MapReduce rounds an algorithm
// executed, with aggregate queries used by the benchmarks and tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mapreduce/round_stats.hpp"

namespace kc::mr {

class JobTrace {
 public:
  /// Appends a round and assigns its round_index. Returns a reference
  /// the caller may annotate (items_in/out, shuffle volume).
  RoundStats& add_round(RoundStats stats);

  [[nodiscard]] const std::vector<RoundStats>& rounds() const noexcept {
    return rounds_;
  }
  [[nodiscard]] int num_rounds() const noexcept {
    return static_cast<int>(rounds_.size());
  }

  /// The paper's reported runtime: sum over rounds of the max simulated
  /// machine time.
  [[nodiscard]] double simulated_seconds() const noexcept;

  [[nodiscard]] std::uint64_t total_dist_evals() const noexcept;
  [[nodiscard]] std::uint64_t total_pairs_pruned() const noexcept;

  /// Multi-line human-readable dump.
  [[nodiscard]] std::string to_string() const;

  /// Merges another trace's rounds after this one (used when an
  /// algorithm delegates to a sub-job).
  void append(const JobTrace& other);

 private:
  std::vector<RoundStats> rounds_;
};

}  // namespace kc::mr

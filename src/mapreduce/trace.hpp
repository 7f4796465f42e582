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
  [[nodiscard]] bool empty() const noexcept { return rounds_.empty(); }

  /// The paper's reported runtime: sum over rounds of the max simulated
  /// machine time.
  [[nodiscard]] double simulated_seconds() const noexcept;

  /// Total CPU work across all machines and rounds.
  [[nodiscard]] double total_machine_seconds() const noexcept;

  /// Host wall time actually spent executing the job.
  [[nodiscard]] double wall_seconds() const noexcept;

  [[nodiscard]] std::uint64_t total_dist_evals() const noexcept;
  [[nodiscard]] std::uint64_t total_pairs_pruned() const noexcept;
  [[nodiscard]] std::uint64_t total_shuffle_items() const noexcept;

  /// Largest number of machines used by any round.
  [[nodiscard]] int max_machines_used() const noexcept;

  /// Multi-line human-readable dump.
  [[nodiscard]] std::string to_string() const;

  void clear() noexcept { rounds_.clear(); }

  /// Merges another trace's rounds after this one (used when an
  /// algorithm delegates to a sub-job).
  void append(const JobTrace& other);

 private:
  std::vector<RoundStats> rounds_;
};

}  // namespace kc::mr

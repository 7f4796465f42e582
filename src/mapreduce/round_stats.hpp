// Per-round accounting for the simulated MapReduce cluster.
//
// The paper's experimental method (§7.1): "We simulate the parallel
// machines sequentially on a single machine, taking the longest
// processing time of the simulated machines as the processing time for
// that MapReduce round." RoundStats records exactly that quantity
// (max_machine_seconds) plus enough detail to audit it: total work,
// per-round shuffle volume, and distance-evaluation counts.
//
// Per-machine times are measured with the task thread's CPU clock
// (exec/cpu_clock.hpp), not wall time: a machine's processing time is
// the work it performed, so neither host-core contention under the
// parallel backends nor a blocked task can inflate the simulated
// metric. wall_seconds remains host wall time for the whole round.
#pragma once

#include <cstdint>
#include <string>

namespace kc::mr {

struct RoundStats {
  std::string name;            ///< human-readable round label
  std::string backend;         ///< effective execution backend for the round
  int round_index = 0;         ///< 0-based position within the job
  int machines_used = 0;       ///< reducers that ran this round
  /// Simulated machines lost to injected failure ("sim.machine" fault
  /// site) before doing any work. A round with losses is recorded and
  /// then re-run by the algorithm on the survivors, so a trace may
  /// contain both the failed and the retried round.
  int machines_lost = 0;

  double max_machine_seconds = 0.0;   ///< the paper's "processing time"
                                      ///  (max per-task thread CPU time)
  double total_machine_seconds = 0.0; ///< sum of per-task CPU times
  double wall_seconds = 0.0;          ///< host wall time for the round

  std::uint64_t max_machine_dist_evals = 0;
  std::uint64_t total_dist_evals = 0;
  /// Pairs the machines' cell-pruned scans skipped; total_dist_evals +
  /// total_pairs_pruned is what the unpruned round would have charged.
  std::uint64_t total_pairs_pruned = 0;

  std::uint64_t items_in = 0;     ///< records entering the round (mapper side)
  std::uint64_t items_out = 0;    ///< records produced by the reducers
  std::uint64_t shuffle_items = 0;///< records moved between machines

  /// One-line summary, e.g. for --trace output.
  [[nodiscard]] std::string summary() const;
};

}  // namespace kc::mr

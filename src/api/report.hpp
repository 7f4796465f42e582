// SolveReport: the single result contract of the solve facade.
//
// One struct carries every field the divergent per-algorithm result
// subtypes (GonzalezResult, MrgResult, EimResult, ...) used to expose,
// plus the offline-evaluated solution value and the execution facts
// (effective backend, kernel ISA, timings) callers previously had to
// assemble by hand.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geom/point_set.hpp"
#include "mapreduce/trace.hpp"

namespace kc::api {

struct SolveReport {
  std::string algorithm;  ///< canonical registry name that ran

  // ---- The solution.
  std::vector<index_t> centers;
  /// Covering radius over the subset the final sequential solver saw,
  /// in comparable scale (squared distance for L2).
  double radius_comparable = 0.0;
  /// Covering radius over the *whole* input in reported scale — the
  /// paper's solution value, evaluated offline and not charged to the
  /// algorithm's work counters.
  double value = 0.0;
  /// Worst-case approximation factor guaranteed for this particular
  /// run, e.g. "2", "4", "10 (w.s.p.)".
  std::string guarantee;

  // ---- Round structure and work.
  int rounds = 0;      ///< MapReduce rounds executed (0 = sequential path)
  int iterations = 0;  ///< MRG reduce rounds / EIM main-loop iterations
  bool sampled = false;               ///< EIM: false = degenerated to GON
  std::size_t final_sample_size = 0;  ///< EIM: |C| at loop exit
  std::uint64_t dist_evals = 0;       ///< distance evaluations charged
  /// Point-pair evaluations the spatial-index pruning skipped (0 when
  /// pruning was off or never engaged). dist_evals + pairs_pruned is
  /// comparable to an unpruned run's dist_evals.
  std::uint64_t pairs_pruned = 0;
  /// Evaluations charged to the request's EvalBudget odometer during
  /// this solve (solve + offline evaluation when budgeted_eval is on).
  /// Exact for a budget private to the request; for a budget shared
  /// across concurrent solves it is the interleaved delta and only
  /// the budget's own consumed() is authoritative.
  std::uint64_t budget_consumed = 0;
  mr::JobTrace trace;                 ///< per-round detail (empty for GON/HS)

  // ---- Resilience facts (set by retrying front-ends, e.g. the
  // service loop; a direct Solver::solve leaves the defaults).
  /// Solve attempts this report took (1 = first try succeeded).
  int attempts = 1;
  /// True when the request ran under a degraded policy (shrunk budget,
  /// cheaper algorithm) because the service was above its queue
  /// high-watermark.
  bool degraded = false;

  // ---- Timings and execution facts.
  /// Simulated parallel time: sum over rounds of the max per-machine
  /// thread-CPU time (== wall for sequential algorithms).
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;  ///< host wall time of the algorithm run
  /// CPU time the solve consumed on its driving thread (excludes work
  /// the backends ran on workers; contention- and sleep-invariant).
  double cpu_seconds = 0.0;
  std::string backend;        ///< effective execution backend name
  std::string kernel_isa;     ///< effective SIMD kernel table (scalar/avx2/...)
};

}  // namespace kc::api

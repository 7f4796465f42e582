// Simulated MapReduce cluster.
//
// Executes the reducer tasks of one round through a pluggable
// execution backend (src/exec): sequentially (the paper's methodology:
// run each simulated machine in turn and charge the round the
// *maximum* per-machine time) or on the work-stealing scheduler.
// Either way, each task is timed individually with its thread's CPU
// clock (CLOCK_THREAD_CPUTIME_ID, see exec/cpu_clock.hpp) — so
// contention for host cores or a blocked task cannot inflate simulated
// time — and its distance-evaluation work is attributed via the
// thread-local counters, so every simulated *count* is identical
// across execution backends. Simulated *times* are exact under the
// sequential backend (a task's scans run inline on its own
// thread); under parallel backends, scan work a task fans out to other
// threads is not charged to it, so per-machine times are a lower bound
// there — produce paper figures with --exec=seq.
//
// Machine loss is handled here, once, for every algorithm, the way
// MapReduce handles a failed task: run_round runs the lost machines'
// tasks again, under their own machine indices, until every task has
// run. Each body runs exactly once in a completed round, so no
// algorithm ever sees a loss, and a solve that completes reports what
// the lossless solve reports; only the trace (one entry per attempt)
// and the simulated time differ.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>

#include "exec/backend.hpp"
#include "mapreduce/round_stats.hpp"
#include "mapreduce/trace.hpp"

namespace kc::mr {

/// Attempts (first run + retries) run_round gives one logical round
/// before treating the cluster as unusable. Each attempt draws fresh
/// loss decisions (the round ordinal advances) for the machines it
/// re-runs, so a round fails only when some machine is lost on all 8
/// attempts: on c machines at loss probability p that happens with
/// probability at most c * p^8, e.g. 1.3e-12 for 50 machines at
/// p = 0.02 and 5e-7 at p = 0.1.
inline constexpr int kMaxRoundAttempts = 8;

class SimCluster {
 public:
  /// A cluster of `machines` simulated reducers whose rounds run on
  /// `backend`, shared so one persistent pool serves many clusters and
  /// runs. A null backend runs the rounds sequentially.
  explicit SimCluster(int machines,
                      std::shared_ptr<exec::ExecutionBackend> backend = {});

  [[nodiscard]] int machines() const noexcept { return machines_; }

  /// The effective execution backend (what actually runs the rounds;
  /// its name() is recorded into every RoundStats this cluster emits).
  [[nodiscard]] const exec::ExecutionBackend& backend() const noexcept {
    return *backend_;
  }

  /// Seeds the machine-failure model for subsequent rounds. A machine
  /// is lost in a round when the "sim.machine" fault site fires for the
  /// key mix(scope, round ordinal, machine index) — keyed, not
  /// counter-based, so with a fixed FaultPlan seed the same machines
  /// die regardless of execution backend or thread interleaving. The
  /// Solver passes the request seed as the scope.
  void set_fault_scope(std::uint64_t scope) noexcept { fault_scope_ = scope; }
  [[nodiscard]] std::uint64_t fault_scope() const noexcept {
    return fault_scope_;
  }

  /// Runs one round of `count` reducers, `body(machine)` for each
  /// machine index, and appends one RoundStats entry per attempt to
  /// `trace`. Returns the last attempt's entry so callers can annotate
  /// items_in / items_out / shuffle_items.
  ///
  /// Machine loss: when the "sim.machine" site is armed, each machine
  /// may be lost before doing any work (a lost machine contributes
  /// nothing, never partial output). An attempt that loses machines is
  /// recorded with machines_lost > 0, and the next attempt runs only
  /// the lost machines' bodies (its machines_used), up to
  /// kMaxRoundAttempts attempts; then std::runtime_error. So `body`
  /// runs exactly once per machine index in a completed round.
  RoundStats& run_round(std::string_view name, int count,
                        const std::function<void(int)>& body,
                        JobTrace& trace) const;

 private:
  int machines_;
  std::shared_ptr<exec::ExecutionBackend> backend_;
  std::uint64_t fault_scope_ = 0;
};

}  // namespace kc::mr

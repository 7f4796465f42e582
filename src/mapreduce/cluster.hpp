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
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "exec/backend.hpp"
#include "geom/counters.hpp"
#include "mapreduce/round_stats.hpp"
#include "mapreduce/trace.hpp"

namespace kc::mr {

/// A reducer round lost simulated machines (the "sim.machine" fault
/// site fired for them). The lost machines did no work and produced no
/// output; the round's stats (with machines_lost set) are already in
/// the trace when this is thrown. Algorithms catch it and re-run the
/// round on the survivors — see kMaxRoundAttempts.
class MachineFailure : public std::runtime_error {
 public:
  MachineFailure(std::string_view round, int lost, int survivors);
  [[nodiscard]] int lost() const noexcept { return lost_; }
  /// Machines still alive for the retry (always >= 1).
  [[nodiscard]] int survivors() const noexcept { return survivors_; }

 private:
  int lost_;
  int survivors_;
};

/// Upper bound on attempts (first run + retries) an algorithm gives one
/// logical round before treating the cluster as unusable. With the
/// keyed loss decisions each retry is a fresh draw (the round ordinal
/// advances), so eight attempts make even loss probability 0.5 fail
/// spuriously less than 1 in 2^8 per machine.
inline constexpr int kMaxRoundAttempts = 8;

class SimCluster {
 public:
  /// A cluster of `machines` simulated reducers with per-machine RAM
  /// `capacity_items` (measured in points; 0 = unlimited). Capacity is
  /// advisory: algorithms consult it to decide their round structure
  /// and call check_capacity() to assert they respected it.
  ///
  /// This convenience overload constructs a fresh backend of the given
  /// kind (`threads` as in exec::make_backend).
  explicit SimCluster(int machines, std::size_t capacity_items = 0,
                      exec::BackendKind backend = exec::BackendKind::Sequential,
                      int threads = 0);

  /// Shares an existing backend (so one persistent thread pool serves
  /// many clusters/runs). `backend` must be non-null.
  SimCluster(int machines, std::size_t capacity_items,
             std::shared_ptr<exec::ExecutionBackend> backend);

  [[nodiscard]] int machines() const noexcept { return machines_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// The effective execution backend (what actually runs the rounds;
  /// its name() is recorded into every RoundStats this cluster emits).
  [[nodiscard]] const exec::ExecutionBackend& backend() const noexcept {
    return *backend_;
  }

  /// Throws std::length_error if a reducer would receive more than the
  /// configured capacity (no-op when capacity is unlimited).
  void check_capacity(std::size_t items_on_one_machine,
                      std::string_view round_name) const;

  using Task = std::function<void()>;

  /// Seeds the machine-failure model for subsequent rounds. A machine
  /// is lost in a round when the "sim.machine" fault site fires for the
  /// key mix(scope, round ordinal, machine index) — keyed, not
  /// counter-based, so with a fixed FaultPlan seed the same machines
  /// die regardless of execution backend or thread interleaving. The
  /// Solver passes the request seed as the scope.
  void set_fault_scope(std::uint64_t scope) noexcept { fault_scope_ = scope; }

  /// Runs the tasks of one round (one task = one reducer) and appends a
  /// RoundStats entry to `trace`. Returns a reference to that entry so
  /// callers can annotate items_in / items_out / shuffle_items.
  ///
  /// Machine failure: when the "sim.machine" site is armed, each task
  /// may be lost before doing any work. The round still completes for
  /// the survivors, its stats (machines_lost > 0) are appended to
  /// `trace`, and then MachineFailure is thrown so the caller can
  /// re-run the round on the survivors. Rounds are atomic-per-machine:
  /// a lost machine contributes nothing, never partial output.
  RoundStats& run_round(std::string_view name, std::span<Task> tasks,
                        JobTrace& trace) const;

  /// Convenience: `count` reducers, task receives its machine index.
  RoundStats& run_indexed_round(std::string_view name, int count,
                                const std::function<void(int)>& body,
                                JobTrace& trace) const;

  /// Like run_indexed_round, but machine failure re-runs the whole
  /// round (same tasks — the survivors take over the lost machines'
  /// shares) up to kMaxRoundAttempts times before giving up with
  /// std::runtime_error. Requires an idempotent `body`: each machine
  /// writes only its own output slot, so completed machines re-running
  /// is harmless. Algorithms that re-partition on retry (MRG, EIM)
  /// keep their own loops instead.
  RoundStats& run_indexed_round_retrying(std::string_view name, int count,
                                         const std::function<void(int)>& body,
                                         JobTrace& trace) const;

 private:
  int machines_;
  std::size_t capacity_;
  std::shared_ptr<exec::ExecutionBackend> backend_;
  std::uint64_t fault_scope_ = 0;
};

}  // namespace kc::mr

#include "mapreduce/cluster.hpp"

#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/cpu_clock.hpp"
#include "fault/fault.hpp"
#include "geom/counters.hpp"
#include "rng/rng.hpp"

namespace kc::mr {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start) noexcept {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Loss key for one machine of one round: depends only on the fault
/// scope (request seed), the round's ordinal in the trace, and the
/// machine index — never on which thread ran the task or in what
/// order, so the set of lost machines is identical on every backend.
[[nodiscard]] std::uint64_t machine_key(std::uint64_t scope,
                                        std::uint64_t round_ordinal,
                                        std::uint64_t machine) noexcept {
  std::uint64_t state = scope;
  state ^= splitmix64_next(state) + round_ordinal;
  state ^= splitmix64_next(state) + machine;
  return splitmix64_next(state);
}

/// One attempt of a round on `backend`: runs `body` for each machine
/// index in `pending` and leaves in `pending` the machines it lost. The
/// stats are not yet in the trace.
[[nodiscard]] RoundStats run_attempt(exec::ExecutionBackend& backend,
                                     std::uint64_t scope, std::string_view name,
                                     std::vector<int>& pending,
                                     const std::function<void(int)>& body,
                                     std::uint64_t round_ordinal) {
  RoundStats stats;
  stats.name = std::string(name);
  stats.backend = std::string(backend.name());
  stats.machines_used = static_cast<int>(pending.size());

  const auto round_start = Clock::now();
  const std::size_t tasks = pending.size();
  std::vector<double> task_seconds(tasks, 0.0);
  std::vector<WorkCounters> task_work(tasks);
  // Failure model: decided per machine from a key that is fixed before
  // any task runs, so the loss set cannot depend on scheduling. A lost
  // machine's task body never runs — no partial output, zero work.
  std::vector<unsigned char> lost(tasks, 0);

  // Each wrapper runs entirely on whichever thread the backend picks,
  // so the WorkScope reads that thread's counters around exactly this
  // task — per-machine attribution is backend-independent. Simulated
  // time is the task's *thread CPU time*, not wall time: the paper's
  // per-machine processing time must not inflate when parallel tasks
  // contend for host cores, and must not count a task's blocked time.
  // (Work a task fans out to other threads through the sharded kernels
  // is not charged to it; the metric stays fully faithful under the
  // sequential backend, where everything runs inline.)
  std::vector<exec::ExecutionBackend::Task> wrapped;
  wrapped.reserve(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    wrapped.emplace_back([&body, &task_seconds, &task_work, &lost, scope,
                          round_ordinal, t, machine = pending[t]] {
      if (fault::armed() &&
          fault::fires("sim.machine",
                       machine_key(scope, round_ordinal,
                                   static_cast<std::uint64_t>(machine)))) {
        lost[t] = 1;
        return;
      }
      const WorkScope work;
      const double cpu_start = exec::thread_cpu_seconds();
      body(machine);
      task_seconds[t] = exec::thread_cpu_seconds() - cpu_start;
      task_work[t] = work.elapsed();
    });
  }
  backend.run_tasks(wrapped);

  stats.wall_seconds = seconds_since(round_start);
  std::size_t kept = 0;
  for (std::size_t t = 0; t < tasks; ++t) {
    if (lost[t] != 0) pending[kept++] = pending[t];
    stats.total_machine_seconds += task_seconds[t];
    stats.total_dist_evals += task_work[t].distance_evals;
    stats.total_pairs_pruned += task_work[t].pruned_pairs;
    if (task_seconds[t] > stats.max_machine_seconds) {
      stats.max_machine_seconds = task_seconds[t];
    }
    if (task_work[t].distance_evals > stats.max_machine_dist_evals) {
      stats.max_machine_dist_evals = task_work[t].distance_evals;
    }
  }
  pending.resize(kept);
  stats.machines_lost = static_cast<int>(kept);
  return stats;
}

}  // namespace

SimCluster::SimCluster(int machines,
                       std::shared_ptr<exec::ExecutionBackend> backend)
    : machines_(machines),
      backend_(backend != nullptr
                   ? std::move(backend)
                   : exec::make_backend(exec::BackendKind::Sequential)) {
  if (machines <= 0) {
    throw std::invalid_argument("SimCluster: machines must be positive");
  }
}

RoundStats& SimCluster::run_round(std::string_view name, int count,
                                  const std::function<void(int)>& body,
                                  JobTrace& trace) const {
  std::vector<int> pending(static_cast<std::size_t>(count));
  std::iota(pending.begin(), pending.end(), 0);
  for (int attempt = 1;; ++attempt) {
    // The keys advance with the trace ordinal, so each attempt draws
    // fresh loss decisions for the machines it runs.
    RoundStats& recorded = trace.add_round(
        run_attempt(*backend_, fault_scope_, name, pending, body,
                    static_cast<std::uint64_t>(trace.num_rounds())));
    if (pending.empty()) return recorded;
    if (attempt == kMaxRoundAttempts) {
      throw std::runtime_error("SimCluster: round '" + std::string(name) +
                               "' failed " + std::to_string(kMaxRoundAttempts) +
                               " attempts (machine loss)");
    }
  }
}

}  // namespace kc::mr

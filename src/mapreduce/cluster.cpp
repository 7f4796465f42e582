#include "mapreduce/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

#include "exec/cpu_clock.hpp"
#include "fault/fault.hpp"
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

}  // namespace

MachineFailure::MachineFailure(std::string_view round, int lost, int survivors)
    : std::runtime_error("round '" + std::string(round) + "' lost " +
                         std::to_string(lost) + " machine(s), " +
                         std::to_string(survivors) + " survive"),
      lost_(lost),
      survivors_(survivors) {}

SimCluster::SimCluster(int machines, std::size_t capacity_items,
                       exec::BackendKind backend, int threads)
    : SimCluster(machines, capacity_items,
                 exec::make_backend(backend, threads)) {}

SimCluster::SimCluster(int machines, std::size_t capacity_items,
                       std::shared_ptr<exec::ExecutionBackend> backend)
    : machines_(machines),
      capacity_(capacity_items),
      backend_(std::move(backend)) {
  if (machines <= 0) {
    throw std::invalid_argument("SimCluster: machines must be positive");
  }
  if (backend_ == nullptr) {
    throw std::invalid_argument("SimCluster: backend must be non-null");
  }
}

void SimCluster::check_capacity(std::size_t items_on_one_machine,
                                std::string_view round_name) const {
  if (capacity_ != 0 && items_on_one_machine > capacity_) {
    throw std::length_error("SimCluster: round '" + std::string(round_name) +
                            "' would place " +
                            std::to_string(items_on_one_machine) +
                            " items on one machine (capacity " +
                            std::to_string(capacity_) + ")");
  }
}

RoundStats& SimCluster::run_round(std::string_view name, std::span<Task> tasks,
                                  JobTrace& trace) const {
  RoundStats stats;
  stats.name = std::string(name);
  stats.backend = std::string(backend_->name());
  stats.machines_used = static_cast<int>(tasks.size());

  const auto round_start = Clock::now();
  std::vector<double> task_seconds(tasks.size(), 0.0);
  std::vector<WorkCounters> task_work(tasks.size());
  // Failure model: decided per machine from a key that is fixed before
  // any task runs, so the loss set cannot depend on scheduling. A lost
  // machine's task body never runs — no partial output, zero work. The
  // keys advance with the trace ordinal, so a retried round draws
  // fresh decisions.
  std::vector<unsigned char> lost(tasks.size(), 0);
  const std::uint64_t round_ordinal =
      static_cast<std::uint64_t>(trace.num_rounds());

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
  wrapped.reserve(tasks.size());
  const std::uint64_t scope = fault_scope_;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    wrapped.emplace_back(
        [&tasks, &task_seconds, &task_work, &lost, scope, round_ordinal, t] {
          if (fault::armed() &&
              fault::fires("sim.machine",
                           machine_key(scope, round_ordinal, t))) {
            lost[t] = 1;
            return;
          }
          const WorkScope work;
          const double cpu_start = exec::thread_cpu_seconds();
          tasks[t]();
          task_seconds[t] = exec::thread_cpu_seconds() - cpu_start;
          task_work[t] = work.elapsed();
        });
  }
  backend_->run_tasks(wrapped);

  stats.wall_seconds = seconds_since(round_start);
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    stats.machines_lost += lost[t] != 0 ? 1 : 0;
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
  RoundStats& recorded = trace.add_round(std::move(stats));
  if (recorded.machines_lost > 0) {
    const int survivors = std::max(
        1, static_cast<int>(tasks.size()) - recorded.machines_lost);
    throw MachineFailure(name, recorded.machines_lost, survivors);
  }
  return recorded;
}

RoundStats& SimCluster::run_indexed_round(std::string_view name, int count,
                                          const std::function<void(int)>& body,
                                          JobTrace& trace) const {
  std::vector<Task> tasks;
  tasks.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    tasks.emplace_back([&body, i] { body(i); });
  }
  return run_round(name, tasks, trace);
}

RoundStats& SimCluster::run_indexed_round_retrying(
    std::string_view name, int count, const std::function<void(int)>& body,
    JobTrace& trace) const {
  for (int attempt = 0; attempt < kMaxRoundAttempts; ++attempt) {
    try {
      return run_indexed_round(name, count, body, trace);
    } catch (const MachineFailure&) {
      // Re-run everything: the keys advance with the trace ordinal,
      // so the retry draws fresh loss decisions.
    }
  }
  throw std::runtime_error("SimCluster: round '" + std::string(name) +
                           "' failed " + std::to_string(kMaxRoundAttempts) +
                           " attempts (machine loss)");
}

}  // namespace kc::mr

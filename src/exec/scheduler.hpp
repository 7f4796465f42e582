// Work-stealing task scheduler: the execution core behind the
// ThreadPool backend.
//
// The previous pool ran one "job" at a time off a single global atomic
// ticket: concurrent submitters serialized on a mutex, and a nested
// submission from inside pool work always degraded to sequential. This
// scheduler replaces that with per-worker Chase–Lev deques
// (exec/deque.hpp) and a TaskGroup handle:
//
//   - every submission belongs to a TaskGroup; independent groups (two
//     Solvers on different threads, overlapping MapReduce rounds)
//     interleave across the workers instead of queueing behind each
//     other;
//   - a thread waiting on its group *helps*, executing that group's
//     remaining tasks — and only that group's: executing a foreign
//     task inside a reducer task's measurement window would corrupt
//     per-task CPU-time and distance-eval attribution (the simulated-
//     cluster metrics), so waiters use the deques' predicate claims to
//     skip foreign work;
//   - workers with an empty deque steal the oldest task of any group,
//     so a nested scan fanned out by one reducer is picked up by
//     whoever is idle;
//   - exceptions are captured per group: every task of the group is
//     attempted, the first exception is rethrown to that group's
//     waiter, and other groups are unaffected.
//
// Determinism contract, unchanged from the old pool: the scheduler
// decides only *where* a task runs, never what it computes. Chunk
// partitions are deterministic (chunk_bounds); each task executes
// entirely on one thread, so thread-local counters sampled around it
// attribute its work exactly.
//
// Destruction is graceful: the destructor waits for every live
// TaskGroup to complete (their waiters receive results and exceptions
// as usual), then joins the workers — destroying the scheduler while a
// job is in flight no longer races the worker shutdown.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "compat/thread_safety.hpp"
#include "exec/deque.hpp"

namespace kc::exec {

class Scheduler;
class TaskGroup;

/// Bounds [lo, hi) of chunk `c` when [0, n) is cut into `chunks`
/// near-equal pieces (the first n % chunks pieces get one extra item).
/// The partition is deterministic: it depends only on (n, chunks, c).
[[nodiscard]] constexpr std::pair<std::size_t, std::size_t> chunk_bounds(
    std::size_t n, std::size_t chunks, std::size_t c) noexcept {
  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;
  const std::size_t lo = c * base + (c < extra ? c : extra);
  return {lo, lo + base + (c < extra ? 1 : 0)};
}

namespace detail {

/// Shared completion/error state of one TaskGroup. Lives in the
/// TaskGroup handle; tasks hold raw pointers, which stay valid because
/// wait-for-completion always precedes handle destruction.
struct GroupCore {
  std::atomic<std::size_t> pending{0};  ///< submitted, not yet finished
  compat::Mutex mutex;                  ///< guards completed/error/cv
  compat::CondVar done;
  /// pending hit 0 (cleared by submit)
  bool completed KC_GUARDED_BY(mutex) = false;
  /// first task failure of the group
  std::exception_ptr error KC_GUARDED_BY(mutex);
};

/// One schedulable unit: either a [lo, hi) chunk of a borrowed range
/// body, a borrowed task closure, or an owned task closure.
///
/// Nodes are allocated from a per-scheduler recycling arena, never
/// freed before the scheduler dies: a racing deque peek may read a
/// node that was already executed and recycled, which is harmless —
/// the peek only loads `group` (atomically, hence the atomic member)
/// to compare pointer values, and the deque's claim CAS rejects any
/// element that has left its window — but would be a use-after-free
/// if node storage were owned by the (transient) groups.
struct TaskNode {
  std::atomic<GroupCore*> group{nullptr};
  const std::function<void(std::size_t, std::size_t)>* range = nullptr;
  std::size_t lo = 0;
  std::size_t hi = 0;
  const std::function<void()>* borrowed = nullptr;
  std::function<void()> owned;

  void run() {
    if (range != nullptr) {
      (*range)(lo, hi);
    } else if (borrowed != nullptr) {
      (*borrowed)();
    } else {
      owned();
    }
  }
};

}  // namespace detail

/// A batch of tasks scheduled together: submit any number of tasks,
/// then wait() once — it executes the group's remaining tasks on the
/// calling thread alongside the workers and rethrows the first task
/// exception. Use one TaskGroup per logical job; groups submitted from
/// different threads run interleaved.
///
/// A TaskGroup is single-threaded on the submitting side (submit/wait
/// from the thread that created it) and must not outlive its
/// Scheduler. The destructor waits for completion (discarding any
/// unobserved error), so a group can never leak running tasks.
class TaskGroup {
 public:
  explicit TaskGroup(Scheduler& scheduler);
  ~TaskGroup();
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Schedules one task. The closure is moved into the group.
  void submit(std::function<void()> task);

  /// Schedules `chunks` tasks covering [0, n) via chunk_bounds.
  /// `body` is borrowed: it must stay alive until wait() returns.
  void submit_chunks(std::size_t n, std::size_t chunks,
                     const std::function<void(std::size_t, std::size_t)>& body);

  /// Schedules every task of `tasks` by reference (the span's backing
  /// storage must stay alive until wait() returns).
  void submit_all(std::span<const std::function<void()>> tasks);

  /// Blocks until every submitted task has finished, helping to
  /// execute the group's own tasks meanwhile. Rethrows the first
  /// exception any task of this group threw. May be called repeatedly
  /// (submit more, wait again).
  void wait();

 private:
  friend class Scheduler;

  Scheduler* scheduler_;
  detail::GroupCore core_;
  std::vector<detail::TaskNode*> scratch_;  ///< batch-submit staging
  int lease_slot_ = -1;      ///< participant slot held, if any
  bool lease_owned_ = false; ///< holds one refcount on that slot's lease
};

class Scheduler {
 public:
  using Task = std::function<void()>;
  using RangeBody = std::function<void(std::size_t, std::size_t)>;

  /// Total concurrency `threads` (the submitting thread counts as one,
  /// so `threads - 1` workers are spawned). `threads <= 0` uses
  /// std::thread::hardware_concurrency().
  explicit Scheduler(int threads = 0);

  /// Waits for every live TaskGroup to complete — their waiters still
  /// receive results and exceptions — then joins the workers. Never
  /// throws; task exceptions always belong to their group.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Total concurrency: spawned workers + the submitting thread.
  [[nodiscard]] int concurrency() const noexcept { return concurrency_; }
  [[nodiscard]] int workers() const noexcept {
    return static_cast<int>(threads_.size());
  }

  /// Cuts [0, n) into `chunks` pieces (clamped to [1, n]) and runs
  /// `body(lo, hi)` for each across the pool; blocks until done and
  /// rethrows the first chunk exception. The partition is
  /// deterministic; only the thread assignment varies between runs.
  void run_chunks(std::size_t n, std::size_t chunks, const RangeBody& body);

  /// Runs every task to completion (each entirely on one thread),
  /// blocking until done; rethrows the first task exception after all
  /// tasks have been attempted.
  void run_tasks(std::span<const Task> tasks);

  /// Scheduling counters, aggregated over all workers and participant
  /// slots since construction. Monotone; taken with relaxed loads.
  struct Stats {
    std::uint64_t executed = 0;  ///< tasks run to completion
    std::uint64_t stolen = 0;    ///< tasks claimed from a foreign deque
    std::uint64_t injected = 0;  ///< tasks routed through the overflow queue
  };
  [[nodiscard]] Stats stats() const noexcept;

 private:
  friend class TaskGroup;

  struct Slot {
    WorkDeque<detail::TaskNode*> deque;
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> stolen{0};
    /// Free-node cache, touched only by the thread currently owning
    /// the slot (a worker, or the participant lease holder — the lease
    /// mutex orders successive holders), so acquire/release of task
    /// nodes stays off the global pool mutex in steady state.
    std::vector<detail::TaskNode*> node_cache;
  };

  /// Deferred group-completion tally: a run of same-group tasks
  /// executed back-to-back by one thread decrements the group's
  /// `pending` once, when the run ends (the thread switches groups,
  /// finds no immediate work, or is about to sleep) — not once per
  /// task. Decrements are only ever *delayed*, so `pending` always
  /// over-approximates outstanding work and a group can never look
  /// complete while one of its tasks still runs; every code path that
  /// stops executing tasks flushes first, so completion is published
  /// promptly. This halves the seq_cst atomic traffic of a chunk
  /// dispatch (see BENCH_exec.json dispatch_ns_per_chunk_*).
  struct CompletionBatch {
    detail::GroupCore* group = nullptr;
    std::size_t count = 0;
  };
  void flush_completions(CompletionBatch& batch) noexcept;

  void worker_loop(int slot);
  void execute(detail::TaskNode* node, int slot, CompletionBatch& batch);
  [[nodiscard]] detail::TaskNode* find_any_work(int self);
  [[nodiscard]] detail::TaskNode* find_group_work(detail::GroupCore& group,
                                                  int self, bool dig = false);
  [[nodiscard]] detail::TaskNode* take_injected(detail::GroupCore* group)
      KC_EXCLUDES(injector_mutex_);
  void acquire_nodes(std::size_t count, int slot,
                     std::vector<detail::TaskNode*>& out)
      KC_EXCLUDES(pool_mutex_);
  void release_node(detail::TaskNode* node, int slot) noexcept
      KC_EXCLUDES(pool_mutex_);
  void submit_node(detail::TaskNode* node, int slot)
      KC_EXCLUDES(injector_mutex_);
  void notify_work() KC_EXCLUDES(idle_mutex_);
  void wait_for_group(detail::GroupCore& group, int slot);

  // TaskGroup lease management (participant slots for non-worker
  // submitters; refcounted per thread so sibling groups share one
  // slot and may be destroyed in any order).
  [[nodiscard]] int lease_slot_for_this_thread(bool& ref_taken)
      KC_EXCLUDES(lease_mutex_);
  void release_slot(int slot) KC_EXCLUDES(lease_mutex_);

  int concurrency_ = 1;
  std::vector<std::thread> threads_;
  std::vector<std::unique_ptr<Slot>> slots_;  ///< workers + participants
  int worker_slots_ = 0;

  std::atomic<std::uint64_t> slotless_executed_{0};
  std::atomic<std::uint64_t> slotless_stolen_{0};
  std::atomic<std::size_t> steal_rr_{0};  ///< slotless steal-sweep offset

  compat::Mutex pool_mutex_;  ///< guards the node arena and free list
  std::vector<std::unique_ptr<detail::TaskNode>> arena_
      KC_GUARDED_BY(pool_mutex_);
  std::vector<detail::TaskNode*> free_nodes_ KC_GUARDED_BY(pool_mutex_);

  compat::Mutex injector_mutex_;
  std::deque<detail::TaskNode*> injector_ KC_GUARDED_BY(injector_mutex_);
  std::atomic<std::uint64_t> injected_{0};

  compat::Mutex idle_mutex_;
  compat::CondVar idle_cv_;
  std::atomic<std::uint64_t> work_epoch_{0};
  std::atomic<int> idle_workers_{0};
  std::atomic<bool> stop_{false};

  compat::Mutex lease_mutex_;
  std::vector<int> free_participant_slots_ KC_GUARDED_BY(lease_mutex_);

  compat::Mutex drain_mutex_;
  compat::CondVar drained_;
  int live_groups_ KC_GUARDED_BY(drain_mutex_) = 0;
};

}  // namespace kc::exec

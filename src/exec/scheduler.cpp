#include "exec/scheduler.hpp"

#include <algorithm>
#include <chrono>

#include "fault/fault.hpp"

namespace kc::exec {

namespace {

/// Participant slots: deques for non-worker threads (a main thread
/// driving a solve, a test thread submitting concurrently). A thread
/// that cannot get one still works correctly through the injector
/// queue, just without a private deque.
constexpr int kParticipantSlots = 16;

/// The scheduler this thread currently submits to, and its slot index.
/// Workers set it for their lifetime (depth 0); external threads hold
/// it while any of their TaskGroups is alive — `depth` counts those
/// groups, so the participant slot returns to the free list only when
/// the thread's last group dies, in whatever order the groups are
/// destroyed.
struct ThreadRef {
  Scheduler* scheduler = nullptr;
  int slot = -1;
  int depth = 0;
};
thread_local ThreadRef t_ref;

}  // namespace

// ------------------------------------------------------------- TaskGroup

TaskGroup::TaskGroup(Scheduler& scheduler) : scheduler_(&scheduler) {
  {
    const compat::LockGuard lock(scheduler.drain_mutex_);
    ++scheduler.live_groups_;
  }
  // Empty groups are born completed so wait() on one returns at once.
  // (Locked although the group is not yet shared: `completed` is
  // guarded state and the annotations hold everywhere, not just where
  // contention is possible.)
  {
    const compat::LockGuard lock(core_.mutex);
    core_.completed = true;
  }
  lease_slot_ = scheduler.lease_slot_for_this_thread(lease_owned_);
}

TaskGroup::~TaskGroup() {
  // Tasks may still be running (wait() threw, or was never called):
  // block until the group is quiescent, discarding any unobserved
  // error, so no task can outlive its group state.
  scheduler_->wait_for_group(core_, lease_slot_);
  if (lease_owned_) scheduler_->release_slot(lease_slot_);
  {
    const compat::LockGuard lock(scheduler_->drain_mutex_);
    if (--scheduler_->live_groups_ == 0) scheduler_->drained_.notify_all();
  }
}

void TaskGroup::submit(std::function<void()> task) {
  scheduler_->acquire_nodes(1, lease_slot_, scratch_);
  detail::TaskNode* node = scratch_.back();
  scratch_.clear();
  // Relaxed: the node is still private here; submit_node's seq_cst
  // deque publication is what makes it (and this field) visible.
  node->group.store(&core_, std::memory_order_relaxed);
  node->owned = std::move(task);
  core_.pending.fetch_add(1, std::memory_order_seq_cst);
  {
    const compat::LockGuard lock(core_.mutex);
    core_.completed = false;
  }
  scheduler_->submit_node(node, lease_slot_);
  scheduler_->notify_work();
}

void TaskGroup::submit_chunks(
    std::size_t n, std::size_t chunks,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0 || chunks == 0) return;
  scheduler_->acquire_nodes(chunks, lease_slot_, scratch_);
  // All chunks are counted before any is published, so the group
  // cannot transiently look complete mid-submission.
  core_.pending.fetch_add(chunks, std::memory_order_seq_cst);
  {
    const compat::LockGuard lock(core_.mutex);
    core_.completed = false;
  }
  for (std::size_t c = 0; c < chunks; ++c) {
    detail::TaskNode* node = scratch_[c];
    // Relaxed: node is private until submit_node publishes it.
    node->group.store(&core_, std::memory_order_relaxed);
    node->range = &body;
    const auto [lo, hi] = chunk_bounds(n, chunks, c);
    node->lo = lo;
    node->hi = hi;
    scheduler_->submit_node(node, lease_slot_);
  }
  scratch_.clear();
  scheduler_->notify_work();
}

void TaskGroup::submit_all(std::span<const std::function<void()>> tasks) {
  if (tasks.empty()) return;
  scheduler_->acquire_nodes(tasks.size(), lease_slot_, scratch_);
  core_.pending.fetch_add(tasks.size(), std::memory_order_seq_cst);
  {
    const compat::LockGuard lock(core_.mutex);
    core_.completed = false;
  }
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    detail::TaskNode* node = scratch_[t];
    // Relaxed: node is private until submit_node publishes it.
    node->group.store(&core_, std::memory_order_relaxed);
    node->borrowed = &tasks[t];
    scheduler_->submit_node(node, lease_slot_);
  }
  scratch_.clear();
  scheduler_->notify_work();
}

void TaskGroup::wait() {
  scheduler_->wait_for_group(core_, lease_slot_);
  std::exception_ptr error;
  {
    const compat::LockGuard lock(core_.mutex);
    error = core_.error;
    core_.error = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

// ------------------------------------------------------------- Scheduler

Scheduler::Scheduler(int threads) {
  int total = threads > 0 ? threads
                          : static_cast<int>(std::thread::hardware_concurrency());
  total = std::max(total, 1);
  concurrency_ = total;
  worker_slots_ = total - 1;
  slots_.reserve(static_cast<std::size_t>(worker_slots_ + kParticipantSlots));
  for (int s = 0; s < worker_slots_ + kParticipantSlots; ++s) {
    slots_.push_back(std::make_unique<Slot>());
  }
  {
    // No worker exists yet, but the free list is guarded state — keep
    // the annotation honest rather than special-case construction.
    const compat::LockGuard lock(lease_mutex_);
    free_participant_slots_.reserve(kParticipantSlots);
    for (int s = worker_slots_ + kParticipantSlots - 1; s >= worker_slots_;
         --s) {
      free_participant_slots_.push_back(s);
    }
  }
  threads_.reserve(static_cast<std::size_t>(worker_slots_));
  for (int s = 0; s < worker_slots_; ++s) {
    threads_.emplace_back([this, s] { worker_loop(s); });
  }
}

Scheduler::~Scheduler() {
  // Graceful drain: every live TaskGroup completes (its waiter gets
  // results and exceptions as usual) before the workers stop, so a
  // destructor racing an in-flight job joins cleanly instead of
  // tearing the queues down under it.
  {
    compat::MutexLock lock(drain_mutex_);
    while (live_groups_ != 0) drained_.wait(lock);
  }
  stop_.store(true, std::memory_order_seq_cst);
  {
    const compat::LockGuard lock(idle_mutex_);
  }
  idle_cv_.notify_all();
  for (auto& thread : threads_) thread.join();
}

namespace {
/// Per-slot free-node cache bound: beyond this, released nodes go back
/// to the global pool so a submit-heavy thread can reuse them.
constexpr std::size_t kNodeCacheMax = 1024;
}  // namespace

void Scheduler::acquire_nodes(std::size_t count, int slot,
                              std::vector<detail::TaskNode*>& out) {
  out.clear();
  out.reserve(count);
  if (slot >= 0) {
    auto& cache = slots_[static_cast<std::size_t>(slot)]->node_cache;
    while (!cache.empty() && out.size() < count) {
      out.push_back(cache.back());
      cache.pop_back();
    }
  }
  if (out.size() == count) return;
  const compat::LockGuard lock(pool_mutex_);
  while (!free_nodes_.empty() && out.size() < count) {
    out.push_back(free_nodes_.back());
    free_nodes_.pop_back();
  }
  while (out.size() < count) {
    arena_.push_back(std::make_unique<detail::TaskNode>());
    out.push_back(arena_.back().get());
  }
}

void Scheduler::release_node(detail::TaskNode* node, int slot) noexcept {
  node->range = nullptr;
  node->borrowed = nullptr;
  node->lo = node->hi = 0;
  node->owned = nullptr;
  // node->group is left as-is: stale deque peeks may still read it
  // (atomically); they compare the pointer value only and the claim
  // CAS rejects any element no longer in its deque window.
  if (slot >= 0) {
    auto& cache = slots_[static_cast<std::size_t>(slot)]->node_cache;
    if (cache.size() < kNodeCacheMax) {
      cache.push_back(node);
      return;
    }
  }
  const compat::LockGuard lock(pool_mutex_);
  free_nodes_.push_back(node);
}

void Scheduler::run_chunks(std::size_t n, std::size_t chunks,
                           const RangeBody& body) {
  if (n == 0) return;
  chunks = std::clamp<std::size_t>(chunks, 1, n);
  if (chunks == 1 || workers() == 0) {
    body(0, n);
    return;
  }
  TaskGroup group(*this);
  group.submit_chunks(n, chunks, body);
  group.wait();
}

void Scheduler::run_tasks(std::span<const Task> tasks) {
  if (tasks.empty()) return;
  if (tasks.size() == 1 || workers() == 0) {
    std::exception_ptr error;
    for (const Task& task : tasks) {
      try {
        task();
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }
  TaskGroup group(*this);
  group.submit_all(tasks);
  group.wait();
}

Scheduler::Stats Scheduler::stats() const noexcept {
  // Relaxed throughout: monitoring counters; the sum is an unsnapshot
  // approximation by design and feeds no control decisions.
  Stats out;
  for (const auto& slot : slots_) {
    out.executed += slot->executed.load(std::memory_order_relaxed);  // monitor
    out.stolen += slot->stolen.load(std::memory_order_relaxed);      // monitor
  }
  out.executed += slotless_executed_.load(std::memory_order_relaxed);  // monitor
  out.stolen += slotless_stolen_.load(std::memory_order_relaxed);     // monitor
  out.injected = injected_.load(std::memory_order_relaxed);           // monitor
  return out;
}

int Scheduler::lease_slot_for_this_thread(bool& ref_taken) {
  ref_taken = false;
  if (t_ref.scheduler == this) {
    // Worker thread (depth stays 0, the slot is permanent) or a thread
    // with live groups already: share the slot, bump the refcount.
    if (t_ref.depth > 0) {
      ++t_ref.depth;
      ref_taken = true;
    }
    return t_ref.slot;
  }
  if (t_ref.scheduler != nullptr) return -1;  // busy with another pool
  const compat::LockGuard lock(lease_mutex_);
  if (free_participant_slots_.empty()) return -1;
  const int slot = free_participant_slots_.back();
  free_participant_slots_.pop_back();
  t_ref = {this, slot, 1};
  ref_taken = true;
  return slot;
}

void Scheduler::release_slot(int slot) {
  // Drop one group's reference; the slot frees only with the last one,
  // so sibling groups destroyed in any order never strand or double-
  // lease a deque.
  if (t_ref.scheduler != this || t_ref.depth == 0) return;  // worker slot
  if (--t_ref.depth > 0) return;
  t_ref = {};
  const compat::LockGuard lock(lease_mutex_);
  free_participant_slots_.push_back(slot);
}

/// Publishes one node; callers notify_work() once per batch.
void Scheduler::submit_node(detail::TaskNode* node, int slot) {
  if (slot < 0 || !slots_[static_cast<std::size_t>(slot)]->deque.push(node)) {
    {
      const compat::LockGuard lock(injector_mutex_);
      injector_.push_back(node);
    }
    // Relaxed: monitoring counter; the node was published under
    // injector_mutex_ just above.
    injected_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Scheduler::notify_work() {
  work_epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (idle_workers_.load(std::memory_order_seq_cst) > 0) {
    {
      const compat::LockGuard lock(idle_mutex_);
    }
    idle_cv_.notify_all();
  }
}

detail::TaskNode* Scheduler::take_injected(detail::GroupCore* group) {
  const compat::LockGuard lock(injector_mutex_);
  if (group == nullptr) {
    if (injector_.empty()) return nullptr;
    detail::TaskNode* node = injector_.front();
    injector_.pop_front();
    return node;
  }
  for (auto it = injector_.begin(); it != injector_.end(); ++it) {
    // Relaxed: pointer-value comparison only; the node's contents were
    // published under injector_mutex_, which we hold.
    if ((*it)->group.load(std::memory_order_relaxed) == group) {
      detail::TaskNode* node = *it;
      injector_.erase(it);
      return node;
    }
  }
  return nullptr;
}

detail::TaskNode* Scheduler::find_any_work(int self) {
  using Claim = WorkDeque<detail::TaskNode*>::Claim;
  detail::TaskNode* node = nullptr;
  if (self >= 0 &&
      slots_[static_cast<std::size_t>(self)]->deque.pop(node) == Claim::Ok) {
    return node;
  }
  if ((node = take_injected(nullptr)) != nullptr) return node;
  const std::size_t n = slots_.size();
  const std::size_t start =
      self >= 0 ? static_cast<std::size_t>(self) + 1
                // Relaxed: round-robin cursor; any interleaving of the
                // increments yields a valid victim rotation.
                : steal_rr_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t victim = (start + i) % n;
    if (self >= 0 && victim == static_cast<std::size_t>(self)) continue;
    if (slots_[victim]->deque.steal(node) == Claim::Ok) {
      if (self >= 0) {
        // Relaxed: monitoring counters (stats()), nothing is ordered
        // against them.
        slots_[static_cast<std::size_t>(self)]->stolen.fetch_add(
            1, std::memory_order_relaxed);
      } else {
        slotless_stolen_.fetch_add(1, std::memory_order_relaxed);  // monitor
      }
      return node;
    }
  }
  return nullptr;
}

detail::TaskNode* Scheduler::find_group_work(detail::GroupCore& group,
                                             int self, bool dig) {
  using Claim = WorkDeque<detail::TaskNode*>::Claim;
  const auto is_ours = [&group](detail::TaskNode* candidate) {
    // Relaxed: pointer-value comparison only; the deque claim protocol
    // re-validates the element before it is executed.
    return candidate->group.load(std::memory_order_relaxed) == &group;
  };
  detail::TaskNode* node = nullptr;
  if (self >= 0) {
    auto& own = slots_[static_cast<std::size_t>(self)]->deque;
    for (;;) {
      // Our group's tasks are the most recent pushes, so they sit at
      // the bottom; the first foreign task normally marks the end of
      // them.
      const Claim claim = own.pop_if(is_ours, node);
      if (claim == Claim::Ok) return node;
      if (claim != Claim::Skipped || !dig) break;
      // Digging (after a fruitless timeout): non-LIFO submit/wait
      // interleavings can bury our task between another group's tasks
      // in our own deque, where neither pop_if (bottom) nor steal_if
      // (top) can reach it and — with no idle worker — nobody ever
      // would. Relocate the foreign bottom task to the injector (it
      // stays claimable by everyone; executing it here would corrupt
      // the other group's attribution) until ours surfaces.
      if (own.pop(node) == Claim::Ok) {
        if (is_ours(node)) return node;  // raced a thief; ours surfaced
        {
          const compat::LockGuard lock(injector_mutex_);
          injector_.push_back(node);
        }
        // Relaxed: monitoring counter; publication was under the lock.
        injected_.fetch_add(1, std::memory_order_relaxed);
        notify_work();
      }
    }
  }
  if ((node = take_injected(&group)) != nullptr) return node;
  // The sweep includes the waiter's own deque: one of our tasks can be
  // buried beneath a newer group's task at the bottom (pop_if stopped
  // at it), and with no idle worker around nobody else would ever dig
  // it out — stealing it from the top is the only way to reach it.
  const std::size_t n = slots_.size();
  for (std::size_t victim = 0; victim < n; ++victim) {
    if (slots_[victim]->deque.steal_if(is_ours, node) == Claim::Ok) {
      const bool from_self =
          self >= 0 && victim == static_cast<std::size_t>(self);
      if (!from_self) {
        if (self >= 0) {
          // Relaxed: monitoring counters (stats()) only.
          slots_[static_cast<std::size_t>(self)]->stolen.fetch_add(
              1, std::memory_order_relaxed);
        } else {
          slotless_stolen_.fetch_add(1, std::memory_order_relaxed);  // monitor
        }
      }
      return node;
    }
  }
  return nullptr;
}

void Scheduler::flush_completions(CompletionBatch& batch) noexcept {
  detail::GroupCore* group = batch.group;
  const std::size_t count = batch.count;
  batch.group = nullptr;
  batch.count = 0;
  if (group == nullptr || count == 0) return;
  if (group->pending.fetch_sub(count, std::memory_order_seq_cst) == count) {
    // Publish completion under the mutex so a waiter can never observe
    // "complete", destroy the group, and leave this thread notifying a
    // dead condition variable. Re-check pending under the lock: the
    // owner may have submitted again between our fetch_sub and here,
    // and a stale completed=true would let its wait() return with that
    // new task still running.
    const compat::LockGuard lock(group->mutex);
    if (group->pending.load(std::memory_order_seq_cst) == 0) {
      group->completed = true;
      group->done.notify_all();
    }
  }
}

void Scheduler::execute(detail::TaskNode* node, int slot,
                        CompletionBatch& batch) {
  // Relaxed: the claim that delivered `node` (seq_cst deque CAS or
  // injector_mutex_) happened-before this read and carries the field.
  detail::GroupCore* group = node->group.load(std::memory_order_relaxed);
  if (batch.group != group) flush_completions(batch);
  try {
    fault::point("exec.task.run");
    node->run();
  } catch (...) {
    const compat::LockGuard lock(group->mutex);
    if (!group->error) group->error = std::current_exception();
  }
  if (slot >= 0) {
    // Relaxed: monitoring counters (stats()) only.
    slots_[static_cast<std::size_t>(slot)]->executed.fetch_add(
        1, std::memory_order_relaxed);
  } else {
    slotless_executed_.fetch_add(1, std::memory_order_relaxed);  // monitor
  }
  release_node(node, slot);
  batch.group = group;
  ++batch.count;
}

void Scheduler::wait_for_group(detail::GroupCore& group, int slot) {
  using namespace std::chrono_literals;
  CompletionBatch batch;
  bool dig = false;  // unbury own-deque tasks only after a fruitless wait
  while (group.pending.load(std::memory_order_seq_cst) != 0) {
    detail::TaskNode* node = find_group_work(group, slot, dig);
    if (node != nullptr) {
      dig = false;
      execute(node, slot, batch);
      continue;
    }
    // No immediately claimable task: publish our tally first — it may
    // be the one that completes the group.
    flush_completions(batch);
    if (group.pending.load(std::memory_order_seq_cst) == 0) break;
    // Everything left is claimed and running elsewhere — or hiding
    // behind a claim race, or buried in our own deque. The timeout
    // re-scans (with digging armed), bounding both without
    // busy-spinning.
    compat::MutexLock lock(group.mutex);
    if (group.completed) break;
    group.done.wait_for(lock, 200us);
    dig = true;
  }
  flush_completions(batch);
  compat::MutexLock lock(group.mutex);
  while (!group.completed) group.done.wait(lock);
}

void Scheduler::worker_loop(int slot) {
  using namespace std::chrono_literals;
  t_ref = {this, slot};
  CompletionBatch batch;
  auto backoff = 1ms;
  for (;;) {
    detail::TaskNode* node = find_any_work(slot);
    if (node != nullptr) {
      backoff = 1ms;
      execute(node, slot, batch);
      continue;
    }
    // Deque exhausted: publish the tally before anyone waits on it.
    flush_completions(batch);
    if (stop_.load(std::memory_order_seq_cst)) break;
    // Idle protocol: read the epoch, re-scan, then sleep only if no
    // submission bumped the epoch meanwhile (the seq_cst epoch/idle
    // pair makes a lost wakeup impossible; the timeout is a backstop,
    // backed off exponentially so a long-idle pool costs ~1 wakeup/s
    // per worker instead of a steady poll).
    const std::uint64_t epoch = work_epoch_.load(std::memory_order_seq_cst);
    node = find_any_work(slot);
    if (node != nullptr) {
      backoff = 1ms;
      execute(node, slot, batch);
      continue;
    }
    idle_workers_.fetch_add(1, std::memory_order_seq_cst);
    {
      compat::MutexLock lock(idle_mutex_);
      if (work_epoch_.load(std::memory_order_seq_cst) == epoch &&
          !stop_.load(std::memory_order_seq_cst)) {
        idle_cv_.wait_for(lock, backoff);
        backoff = std::min(backoff * 2, std::chrono::milliseconds(1000));
      }
    }
    idle_workers_.fetch_sub(1, std::memory_order_seq_cst);
  }
  t_ref = {};
}

}  // namespace kc::exec

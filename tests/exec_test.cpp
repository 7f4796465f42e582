// Tests for the execution-backend subsystem: the work-stealing
// scheduler (task completion, TaskGroup isolation, exception
// propagation per group, interleaving of independent jobs, graceful
// destruction with a job in flight) and the backend interface
// (parsing, availability, the deterministic chunk partition,
// run_tasks/parallel_for semantics).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/backend.hpp"
#include "exec/deque.hpp"
#include "exec/scheduler.hpp"

namespace kc::exec {
namespace {

// ---------------------------------------------------------- chunk_bounds

TEST(ChunkBounds, PartitionsExactlyAndEvenly) {
  for (const std::size_t n : {1u, 7u, 64u, 1000u}) {
    for (const std::size_t chunks : {1u, 2u, 3u, 7u}) {
      if (chunks > n) continue;
      std::size_t covered = 0;
      std::size_t previous_hi = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const auto [lo, hi] = chunk_bounds(n, chunks, c);
        EXPECT_EQ(lo, previous_hi);  // contiguous, in order
        EXPECT_GE(hi, lo);
        EXPECT_LE(hi - lo, n / chunks + 1);  // near-equal
        covered += hi - lo;
        previous_hi = hi;
      }
      EXPECT_EQ(covered, n);
      EXPECT_EQ(previous_hi, n);
    }
  }
}

// --------------------------------------------------------------- WorkDeque

TEST(WorkDeque, LifoForOwnerFifoForThief) {
  WorkDeque<int*> deque(8);
  int items[4] = {0, 1, 2, 3};
  for (int& item : items) ASSERT_TRUE(deque.push(&item));

  int* out = nullptr;
  ASSERT_EQ(deque.steal(out), WorkDeque<int*>::Claim::Ok);
  EXPECT_EQ(out, &items[0]);  // thief takes the oldest
  ASSERT_EQ(deque.pop(out), WorkDeque<int*>::Claim::Ok);
  EXPECT_EQ(out, &items[3]);  // owner takes the newest
  ASSERT_EQ(deque.pop(out), WorkDeque<int*>::Claim::Ok);
  EXPECT_EQ(out, &items[2]);
  ASSERT_EQ(deque.steal(out), WorkDeque<int*>::Claim::Ok);
  EXPECT_EQ(out, &items[1]);
  EXPECT_EQ(deque.pop(out), WorkDeque<int*>::Claim::Empty);
  EXPECT_EQ(deque.steal(out), WorkDeque<int*>::Claim::Empty);
}

TEST(WorkDeque, ReportsFullInsteadOfGrowing) {
  WorkDeque<int*> deque(4);
  int item = 0;
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(deque.push(&item));
  EXPECT_FALSE(deque.push(&item));
  int* out = nullptr;
  ASSERT_EQ(deque.pop(out), WorkDeque<int*>::Claim::Ok);
  EXPECT_TRUE(deque.push(&item));  // space reclaimed
}

TEST(WorkDeque, PredicateClaimsSkipWithoutRemoving) {
  WorkDeque<int*> deque(8);
  int mine = 0;
  int foreign = 0;
  ASSERT_TRUE(deque.push(&foreign));
  ASSERT_TRUE(deque.push(&mine));

  const auto only_mine = [&](int* candidate) { return candidate == &mine; };
  int* out = nullptr;
  // Bottom is `mine`: pop_if takes it, then refuses `foreign`.
  ASSERT_EQ(deque.pop_if(only_mine, out), WorkDeque<int*>::Claim::Ok);
  EXPECT_EQ(out, &mine);
  EXPECT_EQ(deque.pop_if(only_mine, out), WorkDeque<int*>::Claim::Skipped);
  EXPECT_EQ(deque.steal_if(only_mine, out), WorkDeque<int*>::Claim::Skipped);
  // The skipped element is still there for an unconditional claim.
  ASSERT_EQ(deque.steal(out), WorkDeque<int*>::Claim::Ok);
  EXPECT_EQ(out, &foreign);
}

TEST(WorkDeque, ConcurrentOwnerAndThievesLoseNothing) {
  constexpr int kItems = 20'000;
  WorkDeque<std::intptr_t*> deque(1024);
  std::vector<std::intptr_t> items(kItems);
  std::atomic<std::int64_t> claimed_sum{0};
  std::atomic<int> claimed_count{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> thieves;
  for (int t = 0; t < 3; ++t) {
    thieves.emplace_back([&] {
      std::intptr_t* out = nullptr;
      while (!done.load() || deque.size_hint() > 0) {
        if (deque.steal(out) == WorkDeque<std::intptr_t*>::Claim::Ok) {
          claimed_sum.fetch_add(*out);
          claimed_count.fetch_add(1);
        }
      }
    });
  }

  std::int64_t expected_sum = 0;
  std::intptr_t* out = nullptr;
  for (int i = 0; i < kItems; ++i) {
    items[i] = i;
    expected_sum += i;
    while (!deque.push(&items[i])) {
      // Full: drain one ourselves.
      if (deque.pop(out) == WorkDeque<std::intptr_t*>::Claim::Ok) {
        claimed_sum.fetch_add(*out);
        claimed_count.fetch_add(1);
      }
    }
    if (i % 3 == 0 &&
        deque.pop(out) == WorkDeque<std::intptr_t*>::Claim::Ok) {
      claimed_sum.fetch_add(*out);
      claimed_count.fetch_add(1);
    }
  }
  done.store(true);
  for (auto& thief : thieves) thief.join();
  // Owner drains the rest.
  while (deque.pop(out) == WorkDeque<std::intptr_t*>::Claim::Ok) {
    claimed_sum.fetch_add(*out);
    claimed_count.fetch_add(1);
  }

  EXPECT_EQ(claimed_count.load(), kItems);  // every item exactly once
  EXPECT_EQ(claimed_sum.load(), expected_sum);
}

// --------------------------------------------------------------- Scheduler

TEST(Scheduler, RunsEveryChunkExactlyOnce) {
  Scheduler scheduler(4);
  EXPECT_EQ(scheduler.concurrency(), 4);
  EXPECT_EQ(scheduler.workers(), 3);

  std::vector<std::atomic<int>> hits(1000);
  scheduler.run_chunks(hits.size(), 16, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Scheduler, ReusedAcrossManyRounds) {
  // The whole point of a persistent pool: hundreds of rounds, zero
  // respawns.
  Scheduler scheduler(4);
  std::atomic<std::int64_t> sum{0};
  for (int round = 0; round < 200; ++round) {
    scheduler.run_chunks(64, 8, [&](std::size_t lo, std::size_t hi) {
      sum.fetch_add(static_cast<std::int64_t>(hi - lo));
    });
  }
  EXPECT_EQ(sum.load(), 200 * 64);
}

TEST(Scheduler, UsesMultipleThreadsWhenAvailable) {
  Scheduler scheduler(4);
  std::mutex mutex;
  std::set<std::thread::id> seen;
  // Many more chunks than threads; the exact spread is
  // scheduling-dependent, so assert only that no *more* than
  // `concurrency` threads participate.
  scheduler.run_chunks(64, 64, [&](std::size_t, std::size_t) {
    const std::lock_guard<std::mutex> lock(mutex);
    seen.insert(std::this_thread::get_id());
  });
  EXPECT_GE(seen.size(), 1u);
  EXPECT_LE(seen.size(), 4u);
}

TEST(Scheduler, PropagatesFirstException) {
  Scheduler scheduler(4);
  std::atomic<int> executed{0};
  EXPECT_THROW(
      scheduler.run_chunks(32, 32,
                           [&](std::size_t lo, std::size_t) {
                             executed.fetch_add(1);
                             if (lo == 7) throw std::runtime_error("chunk 7");
                           }),
      std::runtime_error);
  // Every chunk is still attempted.
  EXPECT_EQ(executed.load(), 32);
  // And the scheduler remains usable afterwards.
  std::atomic<int> after{0};
  scheduler.run_chunks(8, 8,
                       [&](std::size_t, std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 8);
}

TEST(Scheduler, NestedSubmissionCompletes) {
  Scheduler scheduler(4);
  std::atomic<int> inner_total{0};
  scheduler.run_chunks(8, 8, [&](std::size_t, std::size_t) {
    // A nested submission from inside scheduler work must not deadlock;
    // with per-worker deques it is a real submission other workers can
    // steal from, not a sequential degrade.
    scheduler.run_chunks(4, 4, [&](std::size_t lo, std::size_t hi) {
      inner_total.fetch_add(static_cast<int>(hi - lo));
    });
  });
  EXPECT_EQ(inner_total.load(), 8 * 4);
}

TEST(Scheduler, SingleThreadSchedulerRunsInline) {
  Scheduler scheduler(1);
  EXPECT_EQ(scheduler.workers(), 0);
  int calls = 0;
  scheduler.run_chunks(100, 10, [&](std::size_t lo, std::size_t hi) {
    ++calls;
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 100u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(Scheduler, GroupErrorDoesNotLeakIntoOtherGroups) {
  Scheduler scheduler(4);
  TaskGroup good(scheduler);
  TaskGroup bad(scheduler);
  std::atomic<int> good_ran{0};
  for (int t = 0; t < 8; ++t) {
    good.submit([&good_ran] { good_ran.fetch_add(1); });
    bad.submit([] { throw std::runtime_error("bad group"); });
  }
  EXPECT_THROW(bad.wait(), std::runtime_error);
  EXPECT_NO_THROW(good.wait());
  EXPECT_EQ(good_ran.load(), 8);
}

TEST(Scheduler, InterleavedGroupsOnOneThreadWithoutWorkers) {
  // Two groups interleaved in one participant deque, zero workers: the
  // waiter must reach its own task even when a newer group's task sits
  // at the bottom of its deque (it steals it from the top).
  Scheduler scheduler(1);
  ASSERT_EQ(scheduler.workers(), 0);
  int first = 0;
  int second = 0;
  TaskGroup g1(scheduler);
  TaskGroup g2(scheduler);
  g1.submit([&first] { ++first; });
  g2.submit([&second] { ++second; });
  g1.wait();  // g1's task is buried beneath g2's
  EXPECT_EQ(first, 1);
  g2.wait();
  EXPECT_EQ(second, 1);
}

TEST(Scheduler, TaskBuriedMidDequeIsStillReachable) {
  // Pathological non-LIFO interleaving: g1's task sits *between* two
  // g2 tasks in the one participant deque, where neither the bottom
  // pop nor the top steal can see it and no worker exists to drain
  // the others. The waiter must relocate the blockers (not execute
  // them — attribution) and finish.
  Scheduler scheduler(1);
  ASSERT_EQ(scheduler.workers(), 0);
  int g1_ran = 0;
  int g2_ran = 0;
  TaskGroup g1(scheduler);
  TaskGroup g2(scheduler);
  g2.submit([&g2_ran] { ++g2_ran; });
  g1.submit([&g1_ran] { ++g1_ran; });
  g2.submit([&g2_ran] { ++g2_ran; });
  g1.wait();
  EXPECT_EQ(g1_ran, 1);
  g2.wait();
  EXPECT_EQ(g2_ran, 2);
}

TEST(Scheduler, NonLifoGroupDestructionKeepsTheLeaseSound) {
  // Sibling groups on one thread share a refcounted participant-slot
  // lease: destroying the first-created group while a sibling lives
  // must not free the slot under it (another thread could then co-own
  // the deque). The surviving group keeps submitting afterwards.
  Scheduler scheduler(4);
  std::atomic<int> ran{0};
  auto g1 = std::make_unique<TaskGroup>(scheduler);
  TaskGroup g2(scheduler);
  g1->submit([&ran] { ran.fetch_add(1); });
  g2.submit([&ran] { ran.fetch_add(1); });
  g1->wait();
  g1.reset();  // non-LIFO: the oldest group dies first
  g2.submit([&ran] { ran.fetch_add(1); });
  g2.wait();
  EXPECT_EQ(ran.load(), 3);
}

TEST(Scheduler, ResubmitAfterCompletionNeverDropsWork) {
  // Stresses the completion/resubmit race: a task finishing (pending
  // hits 0) while the owner immediately submits the next one must not
  // leave a stale "completed" that lets wait() return early.
  Scheduler scheduler(4);
  std::atomic<int> ran{0};
  TaskGroup group(scheduler);
  int expected = 0;
  for (int i = 0; i < 3000; ++i) {
    group.submit([&ran] { ran.fetch_add(1); });
    ++expected;
    if (i % 3 == 0) {
      group.wait();
      EXPECT_EQ(ran.load(), expected);
    }
  }
  group.wait();
  EXPECT_EQ(ran.load(), expected);
}

TEST(Scheduler, IndependentJobsFromTwoThreadsBothComplete) {
  Scheduler scheduler(4);
  std::atomic<std::int64_t> total{0};
  const auto job = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      scheduler.run_chunks(256, 16, [&](std::size_t lo, std::size_t hi) {
        total.fetch_add(static_cast<std::int64_t>(hi - lo));
      });
    }
  };
  std::thread a(job, 50);
  std::thread b(job, 50);
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 2 * 50 * 256);
}

TEST(Scheduler, StatsCountExecutionAndStealing) {
  Scheduler scheduler(4);
  // Skewed chunks: one long chunk pins a thread, the rest must be
  // claimed by others, so steals are overwhelmingly likely (but not
  // guaranteed — assert only on the executed count).
  std::atomic<int> executed{0};
  for (int round = 0; round < 20; ++round) {
    scheduler.run_chunks(64, 64,
                         [&](std::size_t, std::size_t) { executed.fetch_add(1); });
  }
  const Scheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(executed.load(), 20 * 64);
  EXPECT_EQ(stats.executed, 20u * 64u);
  EXPECT_LE(stats.stolen, stats.executed);
}

// Satellite: destroying the scheduler while a job is in flight must
// join cleanly — the in-flight job completes, its waiter receives the
// result (or the first task exception) — instead of racing the worker
// shutdown.
TEST(Scheduler, DestructorWithJobInFlightJoinsCleanly) {
  std::atomic<std::int64_t> sum{0};
  std::atomic<bool> started{false};
  std::thread submitter;
  {
    Scheduler scheduler(4);
    submitter = std::thread([&] {
      scheduler.run_chunks(512, 64, [&](std::size_t lo, std::size_t hi) {
        started.store(true);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        sum.fetch_add(static_cast<std::int64_t>(hi - lo));
      });
    });
    while (!started.load()) std::this_thread::yield();
    // Scheduler destructor runs here, mid-job.
  }
  submitter.join();
  EXPECT_EQ(sum.load(), 512);
}

TEST(Scheduler, DestructorPropagatesTaskExceptionToWaiter) {
  std::atomic<bool> started{false};
  std::atomic<bool> threw{false};
  std::thread submitter;
  {
    Scheduler scheduler(4);
    submitter = std::thread([&] {
      try {
        scheduler.run_chunks(128, 32, [&](std::size_t lo, std::size_t) {
          started.store(true);
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          if (lo == 0) throw std::runtime_error("task failure");
        });
      } catch (const std::runtime_error&) {
        threw.store(true);
      }
    });
    while (!started.load()) std::this_thread::yield();
  }
  submitter.join();
  EXPECT_TRUE(threw.load());
}

// -------------------------------------------------------- backend basics

TEST(Backend, ParseAndToStringRoundTrip) {
  EXPECT_EQ(parse_backend("seq"), BackendKind::Sequential);
  EXPECT_EQ(parse_backend("sequential"), BackendKind::Sequential);
  EXPECT_EQ(parse_backend("pool"), BackendKind::ThreadPool);
  EXPECT_EQ(parse_backend("threadpool"), BackendKind::ThreadPool);
  EXPECT_EQ(parse_backend("gpu"), std::nullopt);
  for (const auto kind : {BackendKind::Sequential, BackendKind::ThreadPool}) {
    EXPECT_EQ(parse_backend(to_string(kind)), kind);
  }
}

TEST(Backend, FactoryHonorsAvailability) {
  EXPECT_EQ(make_backend(BackendKind::Sequential)->name(), "sequential");
  EXPECT_EQ(make_backend(BackendKind::ThreadPool, 2)->name(), "threadpool");
  // No silent degrade: a kind the factory cannot build throws.
  EXPECT_THROW((void)make_backend(static_cast<BackendKind>(1)),
               std::invalid_argument);
}

TEST(Backend, SequentialRunsTasksInOrder) {
  SequentialBackend backend;
  EXPECT_EQ(backend.concurrency(), 1);
  std::vector<int> order;
  std::vector<ExecutionBackend::Task> tasks;
  for (int t = 0; t < 5; ++t) {
    tasks.emplace_back([&order, t] { order.push_back(t); });
  }
  backend.run_tasks(tasks);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

class BackendParam
    : public ::testing::TestWithParam<BackendKind> {};

TEST_P(BackendParam, RunsAllTasksAndPropagatesException) {
  const auto backend = make_backend(GetParam(), 4);

  std::vector<std::atomic<int>> hits(16);
  std::vector<ExecutionBackend::Task> tasks;
  for (std::size_t t = 0; t < hits.size(); ++t) {
    tasks.emplace_back([&hits, t] { hits[t].fetch_add(1); });
  }
  backend->run_tasks(tasks);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  std::vector<ExecutionBackend::Task> failing;
  std::atomic<int> attempted{0};
  for (int t = 0; t < 8; ++t) {
    failing.emplace_back([&attempted, t] {
      attempted.fetch_add(1);
      if (t == 3) throw std::invalid_argument("task 3");
    });
  }
  EXPECT_THROW(backend->run_tasks(failing), std::invalid_argument);
  EXPECT_EQ(attempted.load(), 8);
}

TEST_P(BackendParam, ParallelForCoversRangeDisjointly) {
  const auto backend = make_backend(GetParam(), 4);
  std::vector<std::atomic<int>> hits(10'000);
  backend->parallel_for(hits.size(), 128, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendParam,
                         ::testing::Values(BackendKind::Sequential,
                                           BackendKind::ThreadPool),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

}  // namespace
}  // namespace kc::exec

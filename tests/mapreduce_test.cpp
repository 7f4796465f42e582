#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "geom/distance.hpp"
#include "mapreduce/cluster.hpp"
#include "mapreduce/partition.hpp"
#include "mapreduce/trace.hpp"
#include "rng/rng.hpp"

namespace kc::mr {
namespace {

std::vector<index_t> iota_items(std::size_t n) {
  std::vector<index_t> v(n);
  std::iota(v.begin(), v.end(), index_t{0});
  return v;
}

// ---------------------------------------------------------------- partition

struct PartitionCase {
  PartitionStrategy strategy;
  std::size_t n;
  int machines;
};

class PartitionInvariants : public ::testing::TestWithParam<PartitionCase> {};

TEST_P(PartitionInvariants, UnionEqualsInputAndSizesBounded) {
  const auto [strategy, n, machines] = GetParam();
  const auto items = iota_items(n);
  Rng rng(5);
  const auto parts = partition_items(items, machines, strategy, &rng);

  // Union check (as multiset: every input exactly once).
  std::vector<int> seen(n, 0);
  std::size_t total = 0;
  for (const auto& part : parts) {
    EXPECT_FALSE(part.empty());
    for (const index_t x : part) {
      ASSERT_LT(x, n);
      ++seen[x];
      ++total;
    }
  }
  EXPECT_EQ(total, n);
  for (const int count : seen) EXPECT_EQ(count, 1);

  // Size bound: |part| <= ceil(n / machines) (Algorithm 1 line 3).
  const std::size_t cap = (n + machines - 1) / machines;
  for (const auto& part : parts) EXPECT_LE(part.size(), cap);

  // Machine bound.
  EXPECT_LE(parts.size(), static_cast<std::size_t>(machines));
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, PartitionInvariants,
    ::testing::Values(
        PartitionCase{PartitionStrategy::Block, 100, 7},
        PartitionCase{PartitionStrategy::Block, 1000, 50},
        PartitionCase{PartitionStrategy::Block, 5, 50},
        PartitionCase{PartitionStrategy::RoundRobin, 100, 7},
        PartitionCase{PartitionStrategy::RoundRobin, 999, 50},
        PartitionCase{PartitionStrategy::Shuffled, 100, 7},
        PartitionCase{PartitionStrategy::Shuffled, 1000, 13},
        PartitionCase{PartitionStrategy::Block, 1, 4},
        PartitionCase{PartitionStrategy::RoundRobin, 4, 4}),
    [](const auto& param_info) {
      std::string name(to_string(param_info.param.strategy));
      std::erase(name, '-');  // gtest test names must be alphanumeric
      return name + "_n" + std::to_string(param_info.param.n) + "_m" +
             std::to_string(param_info.param.machines);
    });

TEST(Partition, BlockIsContiguous) {
  const auto items = iota_items(10);
  const auto parts = partition_items(items, 3, PartitionStrategy::Block);
  ASSERT_EQ(parts.size(), 3u);
  // Sizes 4,3,3 and contiguous ranges.
  EXPECT_EQ(parts[0].size(), 4u);
  EXPECT_EQ(parts[1].size(), 3u);
  EXPECT_EQ(parts[2].size(), 3u);
  for (const auto& part : parts) {
    for (std::size_t i = 1; i < part.size(); ++i) {
      EXPECT_EQ(part[i], part[i - 1] + 1);
    }
  }
}

TEST(Partition, RoundRobinInterleaves) {
  const auto items = iota_items(9);
  const auto parts = partition_items(items, 3, PartitionStrategy::RoundRobin);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], (std::vector<index_t>{0, 3, 6}));
  EXPECT_EQ(parts[1], (std::vector<index_t>{1, 4, 7}));
  EXPECT_EQ(parts[2], (std::vector<index_t>{2, 5, 8}));
}

TEST(Partition, ShuffledRequiresRng) {
  const auto items = iota_items(10);
  EXPECT_THROW(
      (void)partition_items(items, 2, PartitionStrategy::Shuffled, nullptr),
      std::invalid_argument);
}

TEST(Partition, ShuffledIsSeedDeterministic) {
  const auto items = iota_items(50);
  Rng r1(9);
  Rng r2(9);
  const auto a = partition_items(items, 5, PartitionStrategy::Shuffled, &r1);
  const auto b = partition_items(items, 5, PartitionStrategy::Shuffled, &r2);
  EXPECT_EQ(a, b);
}

TEST(Partition, ExplicitHonorsAssignment) {
  const auto items = iota_items(6);
  const std::vector<int> assignment{2, 0, 2, 1, 0, 2};
  const auto parts = partition_items(items, 3, PartitionStrategy::Explicit,
                                     nullptr, assignment);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], (std::vector<index_t>{1, 4}));
  EXPECT_EQ(parts[1], (std::vector<index_t>{3}));
  EXPECT_EQ(parts[2], (std::vector<index_t>{0, 2, 5}));
}

TEST(Partition, ExplicitDropsEmptyMachines) {
  const auto items = iota_items(3);
  const std::vector<int> assignment{4, 4, 4};
  const auto parts = partition_items(items, 5, PartitionStrategy::Explicit,
                                     nullptr, assignment);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].size(), 3u);
}

TEST(Partition, ExplicitValidatesArity) {
  const auto items = iota_items(4);
  const std::vector<int> bad{0, 1};
  EXPECT_THROW((void)partition_items(items, 2, PartitionStrategy::Explicit,
                                     nullptr, bad),
               std::invalid_argument);
}

TEST(Partition, ExplicitValidatesMachineRange) {
  const auto items = iota_items(2);
  const std::vector<int> bad{0, 7};
  EXPECT_THROW((void)partition_items(items, 2, PartitionStrategy::Explicit,
                                     nullptr, bad),
               std::out_of_range);
}

TEST(Partition, RejectsNonPositiveMachines) {
  const auto items = iota_items(4);
  EXPECT_THROW((void)partition_items(items, 0, PartitionStrategy::Block),
               std::invalid_argument);
}

TEST(Partition, EmptyInputYieldsNoParts) {
  const std::vector<index_t> empty;
  EXPECT_TRUE(partition_items(empty, 4, PartitionStrategy::Block).empty());
}

// ---------------------------------------------------------------- cluster

TEST(SimCluster, RejectsNonPositiveMachines) {
  EXPECT_THROW(SimCluster(0), std::invalid_argument);
}

TEST(SimCluster, RunsAllTasksAndRecordsStats) {
  const SimCluster cluster(4);
  JobTrace trace;
  std::vector<int> hits(4, 0);
  cluster.run_round("work", 4, [&](int machine) { hits[machine] = 1; }, trace);
  for (const int h : hits) EXPECT_EQ(h, 1);
  ASSERT_EQ(trace.num_rounds(), 1);
  const auto& round = trace.rounds()[0];
  EXPECT_EQ(round.machines_used, 4);
  EXPECT_EQ(round.name, "work");
  EXPECT_GE(round.max_machine_seconds, 0.0);
  EXPECT_GE(round.total_machine_seconds, round.max_machine_seconds);
}

TEST(SimCluster, MaxMachineTimeDominatesSkewedRound) {
  const SimCluster cluster(3);
  JobTrace trace;
  cluster.run_round(
      "skewed", 3,
      [&](int machine) {
        if (machine == 1) {
          // One straggler dominates the round.
          volatile double sink = 0.0;
          for (int i = 0; i < 3000000; ++i) sink = sink + i * 0.5;
        }
      },
      trace);
  const auto& round = trace.rounds()[0];
  // The max must be a large share of the total: the two idle machines
  // contribute (almost) nothing.
  EXPECT_GT(round.max_machine_seconds, 0.5 * round.total_machine_seconds);
}

// Simulated time is per-task *thread CPU time*: a task that sleeps
// (or blocks on I/O, or waits for a core) performs no work, so it must
// not inflate the paper's processing-time metric the way wall-clock
// charging did.
TEST(SimCluster, WallClockSleepDoesNotInflateSimulatedTime) {
  for (const auto kind :
       {exec::BackendKind::Sequential, exec::BackendKind::ThreadPool}) {
    const SimCluster cluster(3, exec::make_backend(kind, /*threads=*/3));
    JobTrace trace;
    cluster.run_round(
        "sleepy", 3,
        [&](int machine) {
          if (machine == 1) {
            std::this_thread::sleep_for(std::chrono::milliseconds(60));
          }
        },
        trace);
    const auto& round = trace.rounds()[0];
    // 60ms of sleep, virtually zero CPU: the simulated max must be far
    // below the wall time of the sleeping task.
    EXPECT_LT(round.max_machine_seconds, 0.030)
        << "backend " << exec::to_string(kind);
    EXPECT_GE(round.wall_seconds, 0.050);
  }
}

// And a task that *computes* is charged its CPU time even when other
// tasks contend for the host: the busy task's charge reflects its own
// work, not the host's scheduling.
TEST(SimCluster, BusyTaskChargedItsOwnCpuTime) {
  const SimCluster cluster(2);
  JobTrace trace;
  cluster.run_round(
      "busy", 2,
      [&](int machine) {
        if (machine == 0) {
          volatile double sink = 0.0;
          for (int i = 0; i < 2'000'000; ++i) sink = sink + i * 0.5;
        }
      },
      trace);
  const auto& round = trace.rounds()[0];
  EXPECT_GT(round.max_machine_seconds, 0.0);
  EXPECT_GE(round.total_machine_seconds, round.max_machine_seconds);
}

TEST(SimCluster, AttributesDistanceWorkToRound) {
  const PointSet ps{{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}, {3.0, 0.0}};
  const DistanceOracle oracle(ps);
  const SimCluster cluster(2);
  JobTrace trace;
  cluster.run_round(
      "dist", 2,
      [&](int machine) {
        (void)oracle.comparable(0, static_cast<index_t>(machine + 1));
        if (machine == 1) (void)oracle.comparable(2, 3);
      },
      trace);
  const auto& round = trace.rounds()[0];
  EXPECT_EQ(round.total_dist_evals, 3u);
  EXPECT_EQ(round.max_machine_dist_evals, 2u);
}

TEST(SimCluster, BackendsProduceSameResults) {
  // Results must be backend-independent: each task writes its own slot.
  const auto body = [](int machine, std::vector<std::uint64_t>& out) {
    Rng rng(static_cast<std::uint64_t>(machine) + 1);
    out[machine] = rng();
  };
  const auto run_with = [&](exec::BackendKind kind) {
    std::vector<std::uint64_t> out(8, 0);
    const SimCluster cluster(8, exec::make_backend(kind, /*threads=*/4));
    JobTrace trace;
    cluster.run_round("r", 8, [&](int m) { body(m, out); }, trace);
    return out;
  };
  const auto seq = run_with(exec::BackendKind::Sequential);
  EXPECT_EQ(seq, run_with(exec::BackendKind::ThreadPool));
}

TEST(SimCluster, RecordsEffectiveBackendInRoundStats) {
  const SimCluster cluster(
      2, exec::make_backend(exec::BackendKind::ThreadPool, 2));
  EXPECT_EQ(cluster.backend().name(), "threadpool");
  JobTrace trace;
  cluster.run_round("r", 2, [](int) {}, trace);
  EXPECT_EQ(trace.rounds()[0].backend, "threadpool");
  EXPECT_NE(trace.rounds()[0].summary().find("exec=threadpool"),
            std::string::npos);
}

// ------------------------------------------------------- machine loss

// Each round below runs on a Sequential cluster, so the machines hit
// the "sim.machine" site in index order and `nth=2` loses exactly
// machine 1 of the first attempt.

TEST(SimCluster, LostAttemptStaysInTheTraceAndTheRoundReturnsTheLast) {
  const fault::ScopedPlan armed("sim.machine:nth=2");
  const SimCluster cluster(4);
  JobTrace trace;
  RoundStats& last = cluster.run_round("r", 4, [](int) {}, trace);
  ASSERT_EQ(trace.num_rounds(), 2);
  EXPECT_EQ(trace.rounds()[0].name, "r");
  EXPECT_EQ(trace.rounds()[0].machines_used, 4);
  EXPECT_EQ(trace.rounds()[0].machines_lost, 1);
  EXPECT_EQ(&last, &trace.rounds()[1]);
  EXPECT_EQ(last.round_index, 1);
  EXPECT_EQ(last.machines_lost, 0);
}

TEST(SimCluster, RetryRunsOnlyTheLostMachines) {
  const fault::ScopedPlan armed("sim.machine:nth=2");
  const SimCluster cluster(4);
  JobTrace trace;
  std::vector<int> runs(4, 0);
  const RoundStats& last = cluster.run_round(
      "r", 4, [&](int machine) { ++runs[machine]; }, trace);
  ASSERT_EQ(trace.num_rounds(), 2);
  EXPECT_EQ(runs, (std::vector<int>{1, 1, 1, 1}));
  EXPECT_EQ(last.machines_used, 1);
}

TEST(SimCluster, UnsurvivableLossThrowsAfterEveryAttemptIsRecorded) {
  const fault::ScopedPlan armed("sim.machine:p=1");
  const SimCluster cluster(3);
  JobTrace trace;
  int runs = 0;
  try {
    cluster.run_round("doomed", 3, [&](int) { ++runs; }, trace);
    FAIL() << "the round survived sim.machine:p=1";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(),
                 "SimCluster: round 'doomed' failed 8 attempts (machine loss)");
  }
  EXPECT_EQ(runs, 0);
  ASSERT_EQ(trace.num_rounds(), kMaxRoundAttempts);
  for (const RoundStats& round : trace.rounds()) {
    EXPECT_EQ(round.machines_lost, 3);
  }
}

TEST(SimCluster, UnarmedRoundMakesOneAttempt) {
  const SimCluster cluster(4);
  JobTrace trace;
  cluster.run_round("r", 4, [](int) {}, trace);
  ASSERT_EQ(trace.num_rounds(), 1);
  EXPECT_EQ(trace.rounds()[0].machines_lost, 0);
}

// ---------------------------------------------------------------- trace

TEST(JobTrace, SimulatedTimeIsSumOfRoundMaxima) {
  JobTrace trace;
  RoundStats r1;
  r1.max_machine_seconds = 1.5;
  r1.total_machine_seconds = 6.0;
  RoundStats r2;
  r2.max_machine_seconds = 0.5;
  r2.total_machine_seconds = 0.5;
  trace.add_round(r1);
  trace.add_round(r2);
  EXPECT_DOUBLE_EQ(trace.simulated_seconds(), 2.0);
}

TEST(JobTrace, RoundIndicesAreAssignedSequentially) {
  JobTrace trace;
  trace.add_round(RoundStats{});
  trace.add_round(RoundStats{});
  trace.add_round(RoundStats{});
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(trace.rounds()[i].round_index, i);
  }
}

TEST(JobTrace, AggregatesWorkAndShuffle) {
  JobTrace trace;
  RoundStats r;
  r.total_dist_evals = 100;
  r.total_pairs_pruned = 7;
  trace.add_round(r);
  r.total_dist_evals = 50;
  r.total_pairs_pruned = 5;
  trace.add_round(r);
  EXPECT_EQ(trace.total_dist_evals(), 150u);
  EXPECT_EQ(trace.total_pairs_pruned(), 12u);
}

TEST(JobTrace, AppendReindexesRounds) {
  JobTrace a;
  a.add_round(RoundStats{});
  JobTrace b;
  b.add_round(RoundStats{});
  b.add_round(RoundStats{});
  a.append(b);
  ASSERT_EQ(a.num_rounds(), 3);
  EXPECT_EQ(a.rounds()[2].round_index, 2);
}

TEST(JobTrace, ToStringHasOneLinePerRound) {
  JobTrace trace;
  RoundStats r;
  r.name = "alpha";
  trace.add_round(r);
  r.name = "beta";
  trace.add_round(r);
  const std::string s = trace.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("beta"), std::string::npos);
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 2);
}

}  // namespace
}  // namespace kc::mr

// Chunk-granular stop conditions: the EvalBudget primitive, the gated
// oracle scans (cancel/budget observed between ~kGateEvals-pair
// chunks, on every backend), and the end-to-end acceptance bar — an
// MRG/EIM solve whose single round performs >= 10M point-pair
// evaluations stops well short of the full scan when its budget runs
// dry or its token fires, with Error::budget-exceeded / cancelled
// semantics preserved through the facade.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "algo/hochbaum_shmoys.hpp"
#include "api/solver.hpp"
#include "data/generators.hpp"
#include "eval/evaluate.hpp"
#include "exec/chunk_context.hpp"
#include "geom/spatial_index.hpp"
#include "test_util.hpp"

namespace kc {
namespace {

using exec::ChunkContext;
using exec::EvalBudget;
using exec::StopReason;

// -------------------------------------------------------------- EvalBudget

TEST(EvalBudget, ChargesUntilExhaustedWithoutPartialDeduction) {
  EvalBudget budget(100);
  EXPECT_TRUE(budget.try_charge(60));
  EXPECT_EQ(budget.consumed(), 60u);
  EXPECT_FALSE(budget.try_charge(50));  // would overdraw: nothing deducted
  EXPECT_EQ(budget.consumed(), 60u);
  EXPECT_TRUE(budget.try_charge(40));  // exactly the remainder is fine
  EXPECT_EQ(budget.consumed(), 100u);
  EXPECT_EQ(budget.remaining(), 0u);
  EXPECT_FALSE(budget.try_charge(1));
}

TEST(EvalBudget, ConcurrentChargesNeverOverdraw) {
  constexpr std::uint64_t kLimit = 100'000;
  EvalBudget budget(kLimit);
  std::atomic<std::uint64_t> granted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10'000; ++i) {
        if (budget.try_charge(7)) granted.fetch_add(7);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(granted.load(), budget.consumed());
  EXPECT_LE(budget.consumed(), kLimit);
  // 8 * 10'000 * 7 = 560'000 demanded: the budget must be (nearly)
  // fully handed out — at most one failed last charge of slack.
  EXPECT_GE(budget.consumed(), kLimit - 7);
}

TEST(ChunkContext, ChecksCancelBeforeBudgetAndChargesNothingOnStop) {
  ChunkContext ctx;
  ctx.cancel = CancellationToken::make();
  ctx.budget = std::make_shared<EvalBudget>(1000);
  EXPECT_TRUE(ctx.armed());
  EXPECT_EQ(ctx.charge(100), StopReason::None);
  ctx.cancel.request_cancel();
  EXPECT_EQ(ctx.charge(100), StopReason::Cancelled);  // not BudgetExhausted
  EXPECT_EQ(ctx.budget->consumed(), 100u);            // stop charged nothing
  EXPECT_EQ(ctx.check(), StopReason::Cancelled);
}

TEST(ChunkContext, InertByDefault) {
  const ChunkContext ctx;
  EXPECT_FALSE(ctx.armed());
  EXPECT_EQ(ctx.check(), StopReason::None);
  EXPECT_EQ(ctx.charge(std::uint64_t{1} << 40), StopReason::None);
}

// ------------------------------------------------------ gated oracle scans

class GatedScans : public ::testing::TestWithParam<exec::BackendKind> {};

TEST_P(GatedScans, BudgetStopsUpdateNearestMultiWithinOneGate) {
  const auto backend = exec::make_backend(GetParam(), 4);

  // 1M ids x 16 centers = 16M pair evals in one bulk scan.
  Rng rng(11);
  const PointSet data = data::generate_gau(1'000'000, 16, 2, 100.0, 0.5, rng);
  DistanceOracle oracle(data);
  oracle.bind_executor(backend.get());

  constexpr std::uint64_t kBudget = 100'000;
  ChunkContext ctx;
  ctx.budget = std::make_shared<EvalBudget>(kBudget);
  oracle.bind_context(&ctx);

  const std::vector<index_t> ids = data.all_indices();
  std::vector<index_t> centers(16);
  std::iota(centers.begin(), centers.end(), index_t{0});
  std::vector<double> best(ids.size(), kInfDist);

  EXPECT_THROW(oracle.update_nearest_multi(ids, centers, best),
               BudgetExceededError);
  // The scan stopped within one gate chunk of exhaustion: everything
  // the budget could cover ran, nothing beyond one further gate did.
  EXPECT_LE(ctx.budget->consumed(), kBudget);
  EXPECT_GE(ctx.budget->consumed(), kBudget - exec::kGateEvals);
}

TEST_P(GatedScans, CancellationStopsScanMidFlight) {
  const auto backend = exec::make_backend(GetParam(), 4);

  Rng rng(12);
  const PointSet data = data::generate_gau(1'000'000, 16, 2, 100.0, 0.5, rng);
  DistanceOracle oracle(data);
  oracle.bind_executor(backend.get());

  // Huge-limit budget as an odometer: the canceller waits for the scan
  // to start (first gate charged), fires, and the scan must stop well
  // short of its 16M pair evaluations.
  constexpr std::uint64_t kTotalEvals = 16'000'000;
  ChunkContext ctx;
  ctx.cancel = CancellationToken::make();
  ctx.budget = std::make_shared<EvalBudget>(std::uint64_t{1} << 40);
  oracle.bind_context(&ctx);

  std::thread canceller([&] {
    while (ctx.budget->consumed() == 0) std::this_thread::yield();
    ctx.cancel.request_cancel();
  });

  const std::vector<index_t> ids = data.all_indices();
  std::vector<index_t> centers(16);
  std::iota(centers.begin(), centers.end(), index_t{0});
  std::vector<double> best(ids.size(), kInfDist);
  // On a loaded (or single-core) host the canceller may not get a
  // timeslice before one scan finishes, so keep scanning until the
  // token lands; it must then stop the in-flight scan between gates,
  // well short of that scan's 16M pair evaluations.
  bool cancelled = false;
  std::uint64_t consumed_before_last = 0;
  for (int scan = 0; scan < 1000 && !cancelled; ++scan) {
    consumed_before_last = ctx.budget->consumed();
    try {
      oracle.update_nearest_multi(ids, centers, best);
    } catch (const CancelledError&) {
      cancelled = true;
    }
  }
  canceller.join();
  ASSERT_TRUE(cancelled);
  EXPECT_LT(ctx.budget->consumed() - consumed_before_last, kTotalEvals);
}

TEST_P(GatedScans, CompletedScansChargeExactlyTheirEvalsAndStayBitIdentical) {
  const auto backend = exec::make_backend(GetParam(), 4);

  const PointSet data = test::small_gaussian_instance(8, 4000, 13);
  const std::vector<index_t> ids = data.all_indices();
  const std::size_t n = ids.size();

  // Ungated reference.
  DistanceOracle plain(data);
  plain.bind_executor(backend.get());
  std::vector<double> want(n, kInfDist);
  plain.update_nearest(ids, 0, want);
  const auto pair_matrix_want = plain.pairwise_comparable(
      std::span<const index_t>(ids).subspan(0, 600));

  // Gated run with an ample budget: identical results, exact charge.
  DistanceOracle gated(data);
  gated.bind_executor(backend.get());
  ChunkContext ctx;
  ctx.budget = std::make_shared<EvalBudget>(std::uint64_t{1} << 40);
  gated.bind_context(&ctx);

  std::vector<double> got(n, kInfDist);
  gated.update_nearest(ids, 0, got);
  EXPECT_EQ(ctx.budget->consumed(), n);
  EXPECT_EQ(got, want);

  const auto before = ctx.budget->consumed();
  const auto pair_matrix_got = gated.pairwise_comparable(
      std::span<const index_t>(ids).subspan(0, 600));
  EXPECT_EQ(ctx.budget->consumed() - before, 600u * 599u / 2u);
  EXPECT_EQ(pair_matrix_got, pair_matrix_want);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, GatedScans,
                         ::testing::Values(exec::BackendKind::Sequential,
                                           exec::BackendKind::ThreadPool),
                         [](const auto& param_info) {
                           return std::string(
                               exec::to_string(param_info.param));
                         });

// A stopped scan's error names the public scan, as the CLI and service
// print it. update_nearest runs update_nearest_multi's body, so each
// keeps its own label, with or without an index bound (neither prunes);
// a sweep's folds on the grid, the only pruned ones, carry their own
// labels too, and off it (under KC_FORCE_NO_PRUNE) the id-order ones.
TEST(GatedScanLabels, BudgetErrorsNameTheScanThatStopped) {
  Rng rng(14);
  const PointSet data = data::generate_gau(4096, 4, 2, 100.0, 0.5, rng);
  const std::vector<index_t> ids = data.all_indices();
  const std::vector<index_t> centers{0, 1, 2};
  const SpatialIndex index(data);
  DistanceOracle oracle(data);
  ChunkContext ctx;
  oracle.bind_context(&ctx);
  const auto message = [&](const auto& scan) {
    ctx.budget = std::make_shared<EvalBudget>(1);
    std::vector<double> best(ids.size(), kInfDist);
    try {
      scan(best);
    } catch (const BudgetExceededError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const auto one = [&](std::vector<double>& best) {
    oracle.update_nearest(ids, 0, best);
  };
  const auto multi = [&](std::vector<double>& best) {
    oracle.update_nearest_multi(ids, centers, best);
  };
  const SpatialIndex* const bounds[] = {nullptr, &index};
  for (const SpatialIndex* bound : bounds) {
    oracle.bind_index(bound, PruneMode::On);
    EXPECT_EQ(message(one),
              "update_nearest: distance-evaluation budget exhausted");
    EXPECT_EQ(message(multi),
              "update_nearest_multi: distance-evaluation budget exhausted");
  }

  const bool grid = !force_no_prune_requested();
  ASSERT_EQ(NearestSweep(oracle, ids).on_grid(), grid);
  EXPECT_EQ(message([&](std::vector<double>&) {
              NearestSweep(oracle, ids).fold(0);
            }),
            grid ? "update_nearest_ordered: distance-evaluation budget exhausted"
                 : "update_nearest: distance-evaluation budget exhausted");
  EXPECT_EQ(message([&](std::vector<double>&) {
              NearestSweep(oracle, ids).fold(centers);
            }),
            grid ? "update_nearest_multi_ordered: distance-evaluation budget "
                   "exhausted"
                 : "update_nearest_multi: distance-evaluation budget exhausted");
}

// The tile streams, the sample-box scan, the evaluation passes and
// HS's candidate list name themselves too, each stopped by a budget of
// 1 on the Sequential backend.
TEST(GatedScanLabels, TileStreamsGroupedScansAndEvaluationNameTheirScan) {
  Rng rng(15);
  const PointSet data = data::generate_gau(4096, 4, 2, 100.0, 0.5, rng);
  const std::vector<index_t> ids = data.all_indices();
  const std::span<const index_t> few =
      std::span<const index_t>(ids).subspan(0, 64);
  const std::vector<index_t> centers{0, 1, 2};
  const auto sequential = exec::make_backend(exec::BackendKind::Sequential, 1);
  DistanceOracle oracle(data);
  oracle.bind_executor(sequential.get());
  ChunkContext ctx;
  oracle.bind_context(&ctx);
  const auto message = [&](const auto& scan) {
    ctx.budget = std::make_shared<EvalBudget>(1);
    try {
      scan();
    } catch (const BudgetExceededError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const auto exhausted = [](const std::string& label) {
    return label + ": distance-evaluation budget exhausted";
  };

  const SampleBoxes boxes(data, centers);
  EXPECT_EQ(message([&] {
              std::vector<double> best(ids.size(), kInfDist);
              oracle.update_nearest_grouped(ids, boxes, best);
            }),
            exhausted("update_nearest_grouped"));
  EXPECT_EQ(message([&] { (void)eval::assign_clusters(oracle, ids, centers); }),
            exhausted("assign_clusters"));
  // One point and one center: the assignment pays the budget's one
  // pair, so the radius pass is the scan that stops.
  const index_t one[1] = {5};
  EXPECT_EQ(message([&] { (void)eval::cluster_stats(oracle, one, one); }),
            exhausted("cluster_stats"));
  EXPECT_EQ(message([&] { (void)oracle.pairwise_comparable(few); }),
            exhausted("pairwise_comparable"));
  EXPECT_EQ(message([&] { (void)hochbaum_shmoys(oracle, few, 2); }),
            exhausted("hs_candidates"));
}

// A stopped tile stream charges the budget and the counters exactly the
// pairs its consumer received, and drains the budget to within one
// tile (8 x 256 pairs) before it stops.
TEST(GatedTileStreams, StoppedStreamChargesWhatItDeliveredAndDrainsTheBudget) {
  const PointSet data = test::small_gaussian_instance(8, 4000, 13);
  const std::vector<index_t> all = data.all_indices();
  // 600 * 599 / 2 = 179,700 pairs.
  const std::span<const index_t> ids =
      std::span<const index_t>(all).subspan(0, 600);
  const auto sequential = exec::make_backend(exec::BackendKind::Sequential, 1);
  DistanceOracle oracle(data);
  oracle.bind_executor(sequential.get());
  for (const std::uint64_t budget : {100'000u, 179'000u}) {
    SCOPED_TRACE(budget);
    ChunkContext ctx;
    ctx.budget = std::make_shared<EvalBudget>(budget);
    oracle.bind_context(&ctx);
    std::uint64_t received = 0;
    const WorkScope scope;
    EXPECT_THROW(oracle.pairwise_upper_tiles(
                     ids,
                     [&received](std::size_t, std::size_t, std::size_t tm,
                                 std::size_t tn, const double*, std::size_t) {
                       received += std::uint64_t{tm} * tn;
                     }),
                 BudgetExceededError);
    EXPECT_EQ(ctx.budget->consumed(), received);
    EXPECT_EQ(scope.elapsed().distance_evals, received);
    EXPECT_LT(budget - ctx.budget->consumed(), 2048u);
    oracle.bind_context(nullptr);
  }
}

// ------------------------------------------------- facade acceptance bar

/// MRG request whose whole job is one MapReduce round performing
/// >= 10M point-pair evaluations: one machine, capacity n, so the
/// while loop never runs and the final round is Gonzalez on all 1M
/// points with k = 11 — ten 1M-point scans.
api::SolveRequest ten_megapair_single_round_request(const PointSet& data,
                                                    const char* algorithm) {
  api::SolveRequest request;
  request.points = &data;
  request.k = 11;
  request.algorithm = algorithm;
  request.exec.machines = 1;
  request.seed = 3;
  return request;
}

class HugeRoundStops : public ::testing::Test {
 protected:
  static const PointSet& data() {
    static const PointSet* points = [] {
      Rng rng(21);
      return new PointSet(
          data::generate_gau(1'000'000, 16, 2, 100.0, 0.5, rng));
    }();
    return *points;
  }
};

TEST_F(HugeRoundStops, MrgBudgetExhaustionStopsWithinOneChunkOfTheScan) {
  api::SolveRequest request = ten_megapair_single_round_request(data(), "mrg");
  constexpr std::uint64_t kBudget = 150'000;
  request.budget = std::make_shared<EvalBudget>(kBudget);
  api::Solver solver;
  try {
    (void)solver.solve(request);
    FAIL() << "expected BudgetExceeded";
  } catch (const api::Error& e) {
    EXPECT_EQ(e.kind(), api::ErrorKind::BudgetExceeded);
  }
  // The round would have evaluated >= 10M pairs; the gated kernels
  // stopped it within one gate chunk of the budget.
  EXPECT_LE(request.budget->consumed(), kBudget);
  EXPECT_GE(request.budget->consumed(), kBudget - exec::kGateEvals);
}

TEST_F(HugeRoundStops, EimBudgetExhaustionStopsMidIteration) {
  api::SolveRequest request = ten_megapair_single_round_request(data(), "eim");
  request.exec.machines = 16;
  constexpr std::uint64_t kBudget = 150'000;
  request.budget = std::make_shared<EvalBudget>(kBudget);
  api::Solver solver;
  try {
    (void)solver.solve(request);
    FAIL() << "expected BudgetExceeded";
  } catch (const api::Error& e) {
    EXPECT_EQ(e.kind(), api::ErrorKind::BudgetExceeded);
  }
  EXPECT_LE(request.budget->consumed(), kBudget);
  EXPECT_GE(request.budget->consumed(), kBudget - exec::kGateEvals);
}

TEST_F(HugeRoundStops, MrgCancellationStopsMidScan) {
  api::SolveRequest request = ten_megapair_single_round_request(data(), "mrg");
  const CancellationToken token = CancellationToken::make();
  request.cancel = token;
  // Odometer only — never exhausted.
  request.budget = std::make_shared<EvalBudget>(std::uint64_t{1} << 40);

  std::thread canceller([&] {
    while (request.budget->consumed() == 0) std::this_thread::yield();
    token.request_cancel();
  });
  api::Solver solver;
  // Loop until the token lands (a starved canceller thread may miss
  // the first solve entirely); once it does, the in-flight solve must
  // stop between chunks — its >= 10M-pair round cut short.
  bool cancelled = false;
  std::uint64_t consumed_before_last = 0;
  for (int attempt = 0; attempt < 1000 && !cancelled; ++attempt) {
    consumed_before_last = request.budget->consumed();
    try {
      (void)solver.solve(request);
    } catch (const api::Error& e) {
      ASSERT_EQ(e.kind(), api::ErrorKind::Cancelled);
      cancelled = true;
    }
  }
  canceller.join();
  ASSERT_TRUE(cancelled);
  EXPECT_LT(request.budget->consumed() - consumed_before_last, 10'000'000u);
}

TEST_F(HugeRoundStops, AmpleBudgetDoesNotPerturbTheSolve) {
  api::SolveRequest budgeted =
      ten_megapair_single_round_request(data(), "mrg");
  budgeted.budget = std::make_shared<EvalBudget>(std::uint64_t{1} << 40);
  api::SolveRequest plain = ten_megapair_single_round_request(data(), "mrg");
  api::Solver solver;
  const api::SolveReport a = solver.solve(budgeted);
  const api::SolveReport b = solver.solve(plain);
  EXPECT_EQ(a.centers, b.centers);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.dist_evals, b.dist_evals);
  // A completed job's budget odometer equals its kernel evaluations
  // (single-pair calls are counted by the counters only).
  EXPECT_LE(budgeted.budget->consumed(), a.dist_evals);
  EXPECT_GT(budgeted.budget->consumed(), a.dist_evals * 9 / 10);
}

// ------------------------------------------------ offline eval gating

/// Offline evaluation of untrusted requests must be budget-gated and
/// cancellable too: eval::covering_radius / assign_clusters /
/// cluster_stats honour the oracle's bound ChunkContext, and a solve
/// with budgeted_eval charges its evaluation scans against the same
/// budget — so no request can burn unbounded CPU after its solve
/// completed within budget.
class HugeEvalStops : public ::testing::Test {
 protected:
  static const PointSet& data() {
    static const PointSet* points = [] {
      Rng rng(22);
      return new PointSet(
          data::generate_gau(1'000'000, 16, 2, 100.0, 0.5, rng));
    }();
    return *points;
  }
};

TEST_F(HugeEvalStops, CoveringRadiusStopsWithinOneGateOfItsBudget) {
  DistanceOracle oracle(data());
  constexpr std::uint64_t kBudget = 120'000;
  ChunkContext ctx;
  ctx.budget = std::make_shared<EvalBudget>(kBudget);
  oracle.bind_context(&ctx);

  const std::vector<index_t> pts = data().all_indices();
  std::vector<index_t> centers(16);
  std::iota(centers.begin(), centers.end(), index_t{0});
  // 1M x 16 = 16M pair evals if unchecked.
  EXPECT_THROW((void)eval::covering_radius(oracle, pts, centers),
               BudgetExceededError);
  EXPECT_LE(ctx.budget->consumed(), kBudget);
  EXPECT_GE(ctx.budget->consumed(), kBudget - exec::kGateEvals);
}

TEST_F(HugeEvalStops, AssignClustersAndStatsStopWithinOneGate) {
  DistanceOracle oracle(data());
  const std::vector<index_t> pts = data().all_indices();
  std::vector<index_t> centers(16);
  std::iota(centers.begin(), centers.end(), index_t{0});

  for (const bool stats : {false, true}) {
    constexpr std::uint64_t kBudget = 120'000;
    ChunkContext ctx;
    ctx.budget = std::make_shared<EvalBudget>(kBudget);
    oracle.bind_context(&ctx);
    if (stats) {
      EXPECT_THROW((void)eval::cluster_stats(oracle, pts, centers),
                   BudgetExceededError);
    } else {
      EXPECT_THROW((void)eval::assign_clusters(oracle, pts, centers),
                   BudgetExceededError);
    }
    EXPECT_LE(ctx.budget->consumed(), kBudget);
    EXPECT_GE(ctx.budget->consumed(), kBudget - exec::kGateEvals);
    oracle.bind_context(nullptr);
  }
}

TEST_F(HugeEvalStops, CancelledContextStopsEvaluationImmediately) {
  DistanceOracle oracle(data());
  ChunkContext ctx;
  ctx.cancel = CancellationToken::make();
  ctx.budget = std::make_shared<EvalBudget>(std::uint64_t{1} << 40);
  ctx.cancel.request_cancel();
  oracle.bind_context(&ctx);

  const std::vector<index_t> pts = data().all_indices();
  const std::vector<index_t> centers = {0, 1, 2, 3};
  EXPECT_THROW((void)eval::covering_radius(oracle, pts, centers),
               CancelledError);
  EXPECT_THROW((void)eval::assign_clusters(oracle, pts, centers),
               CancelledError);
  // A cancelled stop charges nothing.
  EXPECT_EQ(ctx.budget->consumed(), 0u);
}

TEST_F(HugeEvalStops, BudgetedEvalSolveFailsWhenEvaluationExhaustsBudget) {
  // GON with k = 1 spends exactly n kernel evals solving; the offline
  // evaluation then needs n more. A budget of 1.5n covers the solve
  // and runs dry mid-evaluation — with budgeted_eval the request must
  // fail.
  api::SolveRequest request;
  request.points = &data();
  request.k = 1;
  request.algorithm = "gon";
  request.seed = 5;
  request.budgeted_eval = true;
  const std::uint64_t n = data().size();
  request.budget = std::make_shared<EvalBudget>(n * 3 / 2);
  api::Solver solver;
  try {
    (void)solver.solve(request);
    FAIL() << "expected BudgetExceeded";
  } catch (const api::Error& e) {
    EXPECT_EQ(e.kind(), api::ErrorKind::BudgetExceeded);
  }
  EXPECT_LE(request.budget->consumed(), n * 3 / 2);
  EXPECT_GE(request.budget->consumed(), n * 3 / 2 - exec::kGateEvals);
}

TEST_F(HugeEvalStops, DefaultSolveKeepsEvaluationOffBudget) {
  // Identical request without budgeted_eval: the same budget suffices,
  // because offline evaluation is not charged (paper methodology), and
  // the odometer records only kernel solve work.
  api::SolveRequest request;
  request.points = &data();
  request.k = 1;
  request.algorithm = "gon";
  request.seed = 5;
  const std::uint64_t n = data().size();
  request.budget = std::make_shared<EvalBudget>(n * 3 / 2);
  api::Solver solver;
  const api::SolveReport report = solver.solve(request);
  EXPECT_GT(report.value, 0.0);
  EXPECT_LE(request.budget->consumed(), report.dist_evals);
  EXPECT_EQ(report.budget_consumed, request.budget->consumed());
}

/// One budget shared across requests: the service pattern. The second
/// solve starts with whatever the first left over.
TEST(SharedBudget, SpansMultipleSolves) {
  const PointSet data = test::small_gaussian_instance(6, 200, 31);
  api::SolveRequest request;
  request.points = &data;
  request.k = 6;
  request.algorithm = "gon";
  const auto shared = std::make_shared<EvalBudget>(1'000'000);
  request.budget = shared;

  api::Solver solver;
  (void)solver.solve(request);
  const std::uint64_t after_first = shared->consumed();
  EXPECT_GT(after_first, 0u);
  (void)solver.solve(request);
  EXPECT_GT(shared->consumed(), after_first);
}

}  // namespace
}  // namespace kc

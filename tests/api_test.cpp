// The solve facade: registry round-trips, request validation and the
// typed error taxonomy, budget enforcement, cooperative cancellation
// (a multi-round run must stop within one round of the request), and
// bit-identity between Solver output and the direct free-function path
// on every available execution backend.

// GCC 12 under -fsanitize=address,undefined reports the disengaged
// std::optional<std::vector<int>> inside MrgOptions as
// "maybe-uninitialized" when a request is built by value (GCC
// PR80635 family). False positive, suppressed for this TU; later GCCs
// and Clang are unaffected.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ == 12
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cli/algos.hpp"
#include "cli/args.hpp"
#include "geom/spatial_index.hpp"
#include "harness/experiment.hpp"
#include "test_util.hpp"

namespace kc {
namespace {

using api::ErrorKind;

/// Runs `request` and returns the Error kind it throws; fails the test
/// if it does not throw api::Error.
ErrorKind error_kind_of(api::SolveRequest& request) {
  api::Solver solver;
  try {
    (void)solver.solve(request);
  } catch (const api::Error& e) {
    return e.kind();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected api::Error, got: " << e.what();
    return ErrorKind::BadRequest;
  }
  ADD_FAILURE() << "expected api::Error, got success";
  return ErrorKind::BadRequest;
}

TEST(ApiRegistry, BuiltinsRegisteredAndAliasesRoundTrip) {
  const auto names = api::registry().names();
  for (const char* expected :
       {"gon", "hs", "brute", "mrg", "eim", "mrg-du", "ccm"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing built-in '" << expected << "'";
  }
  for (const auto& algo : api::registry().algorithms()) {
    EXPECT_FALSE(algo.description.empty()) << algo.name;
    EXPECT_EQ(api::registry().find(algo.name), &algo);
    for (const auto& alias : algo.aliases) {
      EXPECT_EQ(api::registry().find(alias), &algo)
          << "alias '" << alias << "' does not round-trip";
    }
  }
  EXPECT_EQ(api::registry().find("gon")->options_index,
            api::options_index_of<GonzalezOptions>());
  EXPECT_EQ(api::registry().find("mrg")->options_index,
            api::options_index_of<MrgOptions>());
  EXPECT_EQ(api::registry().find("eim")->options_index,
            api::options_index_of<EimOptions>());
  EXPECT_EQ(api::registry().find("no-such-algorithm"), nullptr);
}

TEST(ApiRegistry, SolveRunsEveryBuiltin) {
  const PointSet data = test::small_gaussian_instance(3, 10, 41);
  for (const auto& name : api::registry().names()) {
    api::SolveRequest request;
    request.points = &data;
    request.k = 3;
    request.algorithm = name;
    request.exec.machines = 8;
    request.seed = 7;
    api::Solver solver;
    const api::SolveReport report = solver.solve(request);
    EXPECT_EQ(report.algorithm, name);
    EXPECT_EQ(report.centers.size(), 3u) << name;
    EXPECT_TRUE(test::valid_center_set(report.centers, data.size())) << name;
    EXPECT_GT(report.value, 0.0) << name;
    EXPECT_FALSE(report.guarantee.empty()) << name;
    EXPECT_EQ(report.backend, "sequential") << name;
    EXPECT_FALSE(report.kernel_isa.empty()) << name;
    const bool uses_cluster = api::registry().find(name)->uses_cluster;
    EXPECT_EQ(report.rounds > 0, uses_cluster) << name;
    EXPECT_GT(report.dist_evals, 0u) << name;
  }
}

TEST(ApiSolver, ValidationErrorKinds) {
  const PointSet data = test::small_gaussian_instance(3, 10, 42);
  api::SolveRequest request;
  request.points = &data;
  request.k = 3;

  {
    api::SolveRequest r = request;
    r.points = nullptr;
    EXPECT_EQ(error_kind_of(r), ErrorKind::BadRequest);
  }
  {
    api::SolveRequest r = request;
    r.k = 0;
    EXPECT_EQ(error_kind_of(r), ErrorKind::BadRequest);
  }
  {
    api::SolveRequest r = request;
    r.algorithm = "no-such-algorithm";
    EXPECT_EQ(error_kind_of(r), ErrorKind::BadRequest);
  }
  {
    api::SolveRequest r = request;
    r.algorithm = "gon";
    r.options = EimOptions{};  // variant does not match the algorithm
    EXPECT_EQ(error_kind_of(r), ErrorKind::BadRequest);
  }
  {
    api::SolveRequest r = request;
    r.algorithm = "mrg";
    r.exec.machines = 0;
    EXPECT_EQ(error_kind_of(r), ErrorKind::BadRequest);
  }
  {
    api::SolveRequest r = request;
    r.exec.threads = -1;
    EXPECT_EQ(error_kind_of(r), ErrorKind::BadRequest);
  }
  {
    // Option *values* the algorithm itself rejects surface as
    // BadRequest too (mapped from std::invalid_argument).
    api::SolveRequest r = request;
    r.algorithm = "eim";
    EimOptions bad;
    bad.epsilon = 1.5;
    r.options = bad;
    EXPECT_EQ(error_kind_of(r), ErrorKind::BadRequest);
  }
  {
    api::SolveRequest r = request;
    r.k = data.size() + 1;  // k > n can never be satisfied
    EXPECT_EQ(error_kind_of(r), ErrorKind::BadRequest);
  }
  {
    api::SolveRequest r = request;
    r.algorithm = "ccm";
    CcmOptions bad;
    bad.epsilon = 0.0;
    r.options = bad;
    EXPECT_EQ(error_kind_of(r), ErrorKind::BadRequest);
  }
}

TEST(ApiSolver, NonFiniteCoordinatesAreRejectedUpFront) {
  for (const double poison : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()}) {
    PointSet data = test::small_gaussian_instance(3, 20, 44);
    data.mutable_point(11)[1] = poison;
    api::SolveRequest request;
    request.points = &data;
    request.k = 3;
    EXPECT_EQ(error_kind_of(request), ErrorKind::BadRequest);
  }
}

TEST(ApiSolver, DuplicateOnlyInputsSolveWithoutCrashOrNonsense) {
  // Every point identical: any k <= n must produce a radius-0 report
  // (never UB in the kernels, never an untyped escape), and the eval
  // layer must keep its per-cluster stats well-defined even when
  // redundant centers own zero points.
  const PointSet data = test::all_duplicates(40);
  for (const auto& name : api::registry().names()) {
    api::SolveRequest request;
    request.points = &data;
    request.k = 3;
    request.algorithm = name;
    request.exec.machines = 4;
    api::Solver solver;
    const api::SolveReport report = solver.solve(request);
    EXPECT_EQ(report.value, 0.0) << name;
    ASSERT_FALSE(report.centers.empty()) << name;

    const DistanceOracle oracle(data);
    const auto all = data.all_indices();
    const auto stats = eval::cluster_stats(oracle, all, report.centers);
    EXPECT_EQ(stats.max_radius, 0.0) << name;
    // All points land on the first center; extra centers are empty and
    // must not zero out smallest_cluster.
    EXPECT_EQ(stats.largest_cluster, data.size()) << name;
    EXPECT_EQ(stats.smallest_cluster, data.size()) << name;
    EXPECT_EQ(stats.empty_clusters, report.centers.size() - 1) << name;
  }
}

TEST(ApiSolver, UnsupportedBackendKind) {
  const PointSet data = test::small_gaussian_instance(3, 10, 43);
  api::SolveRequest request;
  request.points = &data;
  request.k = 3;
  request.algorithm = "gon";
  // A kind no backend implements (1 is a retired kind's number).
  request.exec.kind = static_cast<exec::BackendKind>(1);
  EXPECT_EQ(error_kind_of(request), ErrorKind::UnsupportedBackend);
}

TEST(ApiSolver, BudgetExceededOnSequentialRun) {
  const PointSet data = test::small_gaussian_instance(5, 100, 44);
  api::SolveRequest request;
  request.points = &data;
  request.k = 5;
  request.algorithm = "gon";
  request.max_dist_evals = 10;  // GON needs (k-1)*(n-1) ~ 2000
  EXPECT_EQ(error_kind_of(request), ErrorKind::BudgetExceeded);
}

/// MRG configuration that needs several reduce rounds: capacity is
/// large enough for the input (>= ceil(n/m)) but far below k*m, so the
/// emitted sample must be re-clustered repeatedly (§3.3).
api::SolveRequest multi_round_request(const PointSet& data) {
  api::SolveRequest request;
  request.points = &data;
  request.k = 16;
  request.algorithm = "mrg";
  request.exec.machines = 32;
  MrgOptions options;
  options.capacity = 64;  // ceil(2048/32) = 64 <= c < k*m = 512
  request.options = options;
  return request;
}

TEST(ApiSolver, BudgetStopsMultiRoundMrgMidRun) {
  const PointSet data = test::small_gaussian_instance(16, 128, 45);
  ASSERT_EQ(data.size(), 2048u);

  // Unbudgeted reference: the run takes several rounds and many evals.
  api::SolveRequest reference = multi_round_request(data);
  api::Solver solver;
  const api::SolveReport full = solver.solve(reference);
  ASSERT_GE(full.iterations, 2);

  // Budget enforcement lives in the chunk-gated kernels: a starved
  // budget aborts inside the first round's first scan, before any
  // progress tick can fire.
  api::SolveRequest budgeted = multi_round_request(data);
  budgeted.max_dist_evals = 1;
  int events = 0;
  budgeted.progress = [&events](const ProgressEvent&) { ++events; };
  EXPECT_EQ(error_kind_of(budgeted), ErrorKind::BudgetExceeded);
  EXPECT_EQ(events, 0);

  // A mid-run budget (covers round 1, not the whole job) lets at least
  // one round complete — its progress event fires — and still aborts
  // with BudgetExceeded before reaching the reference's total.
  api::SolveRequest mid = multi_round_request(data);
  mid.budget = std::make_shared<exec::EvalBudget>(
      full.trace.rounds()[0].total_dist_evals + 100);
  int mid_events = 0;
  mid.progress = [&mid_events](const ProgressEvent&) { ++mid_events; };
  EXPECT_EQ(error_kind_of(mid), ErrorKind::BudgetExceeded);
  EXPECT_GE(mid_events, 1);
  EXPECT_LT(mid.budget->consumed(), full.dist_evals);
}

TEST(ApiSolver, CancellationStopsMrgWithinOneRound) {
  const PointSet data = test::small_gaussian_instance(16, 128, 46);
  api::SolveRequest request = multi_round_request(data);

  const CancellationToken token = CancellationToken::make();
  std::vector<ProgressEvent> events;
  request.cancel = token;
  request.progress = [&events, token](const ProgressEvent& event) {
    events.push_back(event);
    token.request_cancel();  // fire mid-run, after the first round
  };

  EXPECT_EQ(error_kind_of(request), ErrorKind::Cancelled);
  // The loop noticed the token at the next round boundary: exactly one
  // more progress tick ever happened.
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].algorithm, "mrg");
  EXPECT_EQ(events[0].round, 1);
  EXPECT_GT(events[0].dist_evals, 0u);
}

TEST(ApiSolver, CancellationStopsEimWithinOneIteration) {
  Rng rng(47);
  const PointSet data =
      data::generate_gau(20'000, 10, 2, 100.0, 0.5, rng);
  api::SolveRequest request;
  request.points = &data;
  request.k = 5;
  request.algorithm = "eim";
  request.exec.machines = 16;

  const CancellationToken token = CancellationToken::make();
  std::vector<ProgressEvent> events;
  request.cancel = token;
  request.progress = [&events, token](const ProgressEvent& event) {
    events.push_back(event);
    token.request_cancel();
  };

  EXPECT_EQ(error_kind_of(request), ErrorKind::Cancelled);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].algorithm, "eim");
}

TEST(ApiSolver, BudgetOnlyRequestKeepsVariantEmbeddedProgress) {
  const PointSet data = test::small_gaussian_instance(16, 128, 54);
  api::SolveRequest request = multi_round_request(data);
  // Callback lives in the options variant; the request sets only a
  // budget. The budget wrapper must chain to (not silence) it.
  int events = 0;
  MrgOptions options = std::get<MrgOptions>(request.options);
  options.progress = [&events](const ProgressEvent&) { ++events; };
  request.options = options;
  request.max_dist_evals = std::uint64_t{1} << 60;  // never exceeded
  api::Solver solver;
  const api::SolveReport report = solver.solve(request);
  EXPECT_EQ(events, report.iterations);
}

TEST(ApiSolver, MrgDuProgressReportsJobCumulativeEvals) {
  const PointSet data = test::small_gaussian_instance(8, 100, 52);
  api::SolveRequest request;
  request.points = &data;
  request.k = 4;
  request.algorithm = "mrg-du";
  request.exec.machines = 8;
  DisjointUnionOptions options;
  options.instances = 4;
  request.options = options;
  std::vector<ProgressEvent> events;
  request.progress = [&events](const ProgressEvent& e) {
    events.push_back(e);
  };
  api::Solver solver;
  const api::SolveReport report = solver.solve(request);
  // Every chunk run fires at least one event (here each chunk is a
  // 2-round MRG with one reduce round) and dist_evals is cumulative
  // across chunks — the invariant global budget enforcement needs.
  ASSERT_GE(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].algorithm, "mrg-du");
    if (i > 0) {
      EXPECT_GT(events[i].dist_evals, events[i - 1].dist_evals);
    }
  }
  EXPECT_LE(events.back().dist_evals, report.dist_evals);
}

TEST(ApiSolver, BackendAccessorTracksRequestSuppliedBackend) {
  const PointSet data = test::small_gaussian_instance(3, 10, 53);
  api::SolveRequest request;
  request.points = &data;
  request.k = 3;
  request.algorithm = "gon";
  api::Solver solver;
  EXPECT_EQ(solver.backend(), nullptr);  // nothing ran yet
  const auto shared = exec::make_backend(exec::BackendKind::ThreadPool, 2);
  request.exec.backend = shared;
  (void)solver.solve(request);
  EXPECT_EQ(solver.backend(), shared);
  request.exec.backend = nullptr;  // fall back to the ExecSpec kind
  (void)solver.solve(request);
  ASSERT_NE(solver.backend(), nullptr);
  EXPECT_EQ(solver.backend()->kind(), exec::BackendKind::Sequential);

  // The lazily built backend is keyed on (kind, threads): a repeat of
  // the same pair reuses it, a new thread count builds a fresh one.
  request.exec.kind = exec::BackendKind::ThreadPool;
  request.exec.threads = 2;
  (void)solver.solve(request);
  const auto pool = solver.backend();
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->kind(), exec::BackendKind::ThreadPool);
  EXPECT_EQ(pool->concurrency(), 2);
  (void)solver.solve(request);
  EXPECT_EQ(solver.backend(), pool);
  request.exec.threads = 3;
  (void)solver.solve(request);
  ASSERT_NE(solver.backend(), nullptr);
  EXPECT_NE(solver.backend(), pool);
  EXPECT_EQ(solver.backend()->concurrency(), 3);
}

TEST(ApiSolver, PreCancelledTokenStopsBeforeDispatch) {
  const PointSet data = test::small_gaussian_instance(3, 10, 48);
  api::SolveRequest request;
  request.points = &data;
  request.k = 3;
  request.algorithm = "gon";
  const CancellationToken token = CancellationToken::make();
  token.request_cancel();
  request.cancel = token;
  bool progressed = false;
  request.progress = [&progressed](const ProgressEvent&) { progressed = true; };
  EXPECT_EQ(error_kind_of(request), ErrorKind::Cancelled);
  EXPECT_FALSE(progressed);
}

TEST(ApiSolver, RequestSeedOverridesVariantSeed) {
  const PointSet data = test::small_gaussian_instance(5, 40, 49);
  api::SolveRequest request;
  request.points = &data;
  request.k = 5;
  request.algorithm = "gon";
  GonzalezOptions options;
  options.first = GonzalezOptions::FirstCenter::Random;
  options.seed = 999;  // must be ignored in favour of request.seed
  request.options = options;
  request.seed = 7;
  api::Solver solver;
  const auto via_variant_seed = solver.solve(request);

  options.seed = 7;
  request.options = options;
  const auto via_request_seed = solver.solve(request);
  EXPECT_EQ(via_variant_seed.centers, via_request_seed.centers);
}

std::vector<std::shared_ptr<exec::ExecutionBackend>> all_backends() {
  std::vector<std::shared_ptr<exec::ExecutionBackend>> backends;
  backends.push_back(exec::make_backend(exec::BackendKind::Sequential));
  backends.push_back(exec::make_backend(exec::BackendKind::ThreadPool, 4));
  return backends;
}

// The acceptance bar for the facade: routing through Solver must be
// bit-identical to calling the free functions directly, on every
// execution backend this build provides.
TEST(ApiDeterminism, SolverMatchesFreeFunctionPathOnAllBackends) {
  const PointSet data = test::small_gaussian_instance(8, 400, 50);
  const std::size_t k = 8;
  const std::uint64_t seed = 1234;
  const int machines = 16;
  const std::vector<index_t> all = data.all_indices();

  for (const auto& backend : all_backends()) {
    SCOPED_TRACE(std::string(backend->name()));
    DistanceOracle oracle(data);
    oracle.bind_executor(backend.get());
    const mr::SimCluster cluster(machines, 0, backend);

    api::SolveRequest request;
    request.points = &data;
    request.k = k;
    request.seed = seed;
    request.exec.backend = backend;
    request.exec.machines = machines;
    api::Solver solver;

    {  // GON
      GonzalezOptions options;
      options.first = GonzalezOptions::FirstCenter::Random;
      options.seed = seed;
      const GonzalezResult direct = gonzalez(oracle, all, k, options);

      request.algorithm = "gon";
      request.options = options;
      const api::SolveReport report = solver.solve(request);
      EXPECT_EQ(report.centers, direct.centers);
      EXPECT_EQ(report.radius_comparable, direct.radius_comparable);
      EXPECT_EQ(report.value,
                eval::covering_radius(oracle, all, direct.centers).radius);
    }
    {  // MRG (registry defaults == MrgOptions defaults)
      MrgOptions options;
      options.seed = seed;
      const MrgResult direct = mrg(oracle, all, k, cluster, options);

      request.algorithm = "mrg";
      request.options = std::monostate{};
      const api::SolveReport report = solver.solve(request);
      EXPECT_EQ(report.centers, direct.centers);
      EXPECT_EQ(report.radius_comparable, direct.radius_comparable);
      EXPECT_EQ(report.iterations, direct.reduce_rounds);
      EXPECT_EQ(report.rounds, direct.trace.num_rounds());
      EXPECT_EQ(report.dist_evals, direct.trace.total_dist_evals());
    }
    {  // EIM
      EimOptions options;
      options.seed = seed;
      const EimResult direct = eim(oracle, all, k, cluster, options);

      request.algorithm = "eim";
      request.options = std::monostate{};
      const api::SolveReport report = solver.solve(request);
      EXPECT_EQ(report.centers, direct.centers);
      EXPECT_EQ(report.radius_comparable, direct.radius_comparable);
      EXPECT_EQ(report.iterations, direct.iterations);
      EXPECT_EQ(report.sampled, direct.sampled);
      EXPECT_EQ(report.final_sample_size, direct.final_sample_size);
      EXPECT_EQ(report.dist_evals, direct.trace.total_dist_evals());
    }
  }
}

// harness::run_algorithm is now a thin adapter over the facade; its
// RunResult must agree with a direct Solver call.
TEST(ApiDeterminism, HarnessAdapterMatchesSolver) {
  const PointSet data = test::small_gaussian_instance(6, 100, 51);
  harness::AlgoConfig config;
  config.kind = harness::AlgoKind::MRG;
  config.machines = 12;
  const harness::RunResult run = harness::run_algorithm(config, data, 6, 99);

  api::SolveRequest request;
  request.points = &data;
  request.k = 6;
  request.algorithm = "mrg";
  request.seed = 99;
  request.exec.machines = 12;
  api::Solver solver;
  const api::SolveReport report = solver.solve(request);
  EXPECT_EQ(run.centers, report.centers);
  EXPECT_EQ(run.value, report.value);
  EXPECT_EQ(run.dist_evals, report.dist_evals);
  EXPECT_EQ(run.map_reduce_rounds, report.rounds);

  // GON under the default prune=Auto: the adapter must carry the pruned
  // pairs too, or the paper benches under-count the work they check.
  Rng rng(2025);
  const PointSet gau = data::generate_gau(8000, 16, 2, 100.0, 0.1, rng);
  config.kind = harness::AlgoKind::GON;
  const harness::RunResult gon_run = harness::run_algorithm(config, gau, 8, 99);
  request.points = &gau;
  request.k = 8;
  request.algorithm = "gon";
  const api::SolveReport gon_report = solver.solve(request);
  EXPECT_EQ(gon_run.centers, gon_report.centers);
  EXPECT_EQ(gon_run.dist_evals, gon_report.dist_evals);
  EXPECT_EQ(gon_run.pairs_pruned, gon_report.pairs_pruned);
  if (!force_no_prune_requested()) {
    EXPECT_GT(gon_run.pairs_pruned, 0u);
  }
}

TEST(CliAlgoKind, ResolvesRegistryNamesAndAliases) {
  {
    const char* argv[] = {"prog", "--algo=gonzalez"};
    cli::Args args(2, argv);
    EXPECT_EQ(cli::algo_kind(args), "gon");
  }
  {
    const char* argv[] = {"prog"};
    cli::Args args(1, argv);
    EXPECT_EQ(cli::algo_kind(args), "mrg");  // default fallback
    EXPECT_EQ(cli::algo_kind(args, ""), "");  // empty fallback = no choice
  }
  {
    const char* argv[] = {"prog", "--algo=nope"};
    cli::Args args(2, argv);
    EXPECT_THROW((void)cli::algo_kind(args), std::invalid_argument);
  }
}

TEST(CliAlgoKind, ListAlgosPrintsEveryRegisteredAlgorithm) {
  {
    const char* argv[] = {"prog"};
    cli::Args args(1, argv);
    EXPECT_FALSE(cli::list_algos(args));
  }
  const char* argv[] = {"prog", "--list-algos"};
  cli::Args args(2, argv);
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  EXPECT_TRUE(cli::list_algos(args, sink));
  std::rewind(sink);
  std::string output;
  char buffer[4096];
  std::size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), sink)) > 0) {
    output.append(buffer, got);
  }
  std::fclose(sink);
  for (const auto& name : api::registry().names()) {
    EXPECT_NE(output.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace kc

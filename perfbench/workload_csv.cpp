// csv-gau-1m: kcenter_cli's default path. One op loads a 1M-point CSV
// and solves it with MRG on the Sequential backend under the default
// PruneMode::Auto. Ingest and the Auto index build are nearly the whole
// op; the execution layer and the kernels barely matter.
#include <malloc.h>

#include <cstdio>
#include <memory>
#include <optional>

#include "api/solver.hpp"
#include "bench.hpp"
#include "data/generators.hpp"
#include "data/loader.hpp"
#include "eval/evaluate.hpp"
#include "eval/lower_bound.hpp"
#include "geom/spatial_index.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kPoints = 1'000'000;
constexpr std::size_t kClusters = 25;
constexpr std::size_t kCenters = 25;
constexpr int kMachines = 50;

kc::api::SolveRequest request_for(const kc::PointSet& points) {
  kc::api::SolveRequest request;
  request.points = &points;
  request.k = kCenters;
  request.algorithm = "mrg";
  request.exec.machines = kMachines;
  return request;
}

}  // namespace

Result run_csv(const Options& options) {
  std::optional<MemFile> csv;
  std::optional<kc::api::Solver> solver;
  const double setup_s = timed_setups([&] {
    kc::Rng rng(options.seed);
    const kc::PointSet points =
        kc::data::generate_gau(kPoints, kClusters, 2, 100.0, 0.1, rng);
    csv.emplace("perfbench-gau-1m.csv");
    kc::data::save_csv(points, csv->path());
    solver.emplace(std::make_shared<kc::exec::SequentialBackend>());
  });

  Result result;
  std::vector<OpSample> ops;
  std::vector<kc::api::SolveReport> reports;  // empty centers = failed op
  std::vector<std::size_t> solve_spans;
  const double timed_start = now_s();
  const double cpu_start = process_cpu_s();
  while (ops.empty() || now_s() - timed_start < options.seconds) {
    // Odd ops run untraced, so a traced run can price its own spans.
    const bool traced = options.trace && ops.size() % 2 == 0;
    const auto op = static_cast<std::int64_t>(ops.size());
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    ++result.attempted;
    try {
      const kc::PointSet points = kc::data::load_numeric_csv(csv->path());
      const double t1 = now_s();
      reports.push_back(solver->solve(request_for(points)));
      const double t2 = now_s();
      if (traced) {
        const int root = static_cast<int>(result.spans.size());
        result.spans.push_back({"op", op, -1, t0, t2, false});
        result.spans.push_back({"data.load", op, root, t0, t1, false});
        solve_spans.push_back(result.spans.size());
        result.spans.push_back({"api.solve", op, root, t1, t2, false});
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: op %lld failed: %s\n",
                   static_cast<long long>(op), e.what());
      ++result.failed;
      reports.emplace_back();
    }
    ops.push_back({now_s() - t0, process_cpu_s() - cpu0, traced});
    // Each kcenter_cli run is a fresh process: hand the op's freed heap
    // back, outside the timed op, so ops do not inherit fragments of
    // earlier ones and VmHWM stays the peak of one op.
    malloc_trim(0);
  }
  const double timed_wall = now_s() - timed_start;
  const double timed_cpu = process_cpu_s() - cpu_start;
  const double peak_mb = peak_rss_mb();

  // Output check against the byte-identity reference: the same input on
  // the Sequential backend with pruning off.
  const kc::PointSet points = kc::data::load_numeric_csv(csv->path());
  kc::api::SolveRequest reference_request = request_for(points);
  reference_request.prune = kc::PruneMode::Off;
  kc::api::Solver reference_solver(
      std::make_shared<kc::exec::SequentialBackend>());
  const kc::api::SolveReport reference =
      reference_solver.solve(reference_request);
  // A failed op has no centers, so it fails the check too.
  result.correct = true;
  for (const kc::api::SolveReport& report : reports) {
    result.correct = result.correct && same_solution(report, reference);
  }
  const std::vector<kc::index_t> all = points.all_indices();
  const double ratio =
      reference.value / kc::eval::gonzalez_lower_bound(
                            kc::DistanceOracle(points), all, kCenters);

  if (!options.trace) {
    add_end_to_end(result, walls(ops), timed_wall, timed_cpu, setup_s, ratio,
                   peak_mb);
    return result;
  }

  // Layers that run only inside the solve, timed standalone on the same
  // input after the timed ops: the index build and the value evaluation
  // as the facade binds them (backend and index).
  std::vector<double> index_s;
  std::vector<double> radius_s;
  std::size_t cells = 0;
  kc::exec::SequentialBackend backend;
  for (int i = 0; i < kStandaloneRepeats; ++i) {
    const double t0 = now_s();
    const kc::SpatialIndex index(points);
    index_s.push_back(now_s() - t0);
    cells = index.cell_count();
    kc::DistanceOracle oracle(points);
    oracle.bind_executor(&backend);
    oracle.bind_index(&index, kc::PruneMode::Auto);
    const double t1 = now_s();
    const double value =
        kc::eval::covering_radius(oracle, all, reference.centers).radius;
    radius_s.push_back(now_s() - t1);
    result.correct = result.correct && value == reference.value;
  }
  const double radius = median(radius_s);

  std::vector<double> load_s;
  std::vector<double> solve_s;
  std::vector<double> residual_s;
  for (const std::size_t s : solve_spans) {
    const Span solve = result.spans[s];
    const kc::api::SolveReport& report =
        reports[static_cast<std::size_t>(solve.op)];
    load_s.push_back(result.spans[s - 1].duration());
    solve_s.push_back(solve.duration());
    residual_s.push_back(
        residual(solve.duration(), report.wall_seconds, radius));
    lay_out_solve(result.spans, s, report, radius);
  }
  std::vector<double> algorithm_s;
  std::vector<double> sim_s;
  std::vector<double> cpu_ns_per_eval;
  std::vector<double> busy;
  std::vector<double> traced_walls;
  std::vector<double> untraced_walls;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    (ops[i].traced ? traced_walls : untraced_walls).push_back(ops[i].wall_s);
    if (reports[i].centers.empty()) continue;
    algorithm_s.push_back(reports[i].wall_seconds);
    sim_s.push_back(reports[i].sim_seconds);
    cpu_ns_per_eval.push_back(ops[i].cpu_s * 1e9 /
                              static_cast<double>(reports[i].dist_evals));
    busy.push_back(busy_share(ops[i].cpu_s, ops[i].wall_s, 1));
  }
  const kc::api::SolveReport& timed = reports.front();
  const RoundTotals rounds = round_totals(timed.trace);
  const double load = median(load_s);
  const auto evals = static_cast<double>(timed.dist_evals);
  const auto pruned = static_cast<double>(timed.pairs_pruned);
  add(result, "data.load_s", load, "s");
  add(result, "data.load_mb_per_s",
      static_cast<double>(csv->size()) / 1e6 / load, "MB/s");
  add(result, "api.solve_s", median(solve_s), "s");
  add(result, "api.algorithm_s", median(algorithm_s), "s");
  add(result, "api.residual_s", median(residual_s), "s");
  add(result, "geom.index_build_s", median(index_s), "s");
  add(result, "geom.index_cells", static_cast<double>(cells), "count");
  add(result, "geom.dist_evals", evals, "count");
  add(result, "geom.pairs_pruned", pruned, "count");
  add(result, "geom.prune_share", share(pruned, evals + pruned), "ratio");
  add(result, "geom.cpu_ns_per_eval", median(cpu_ns_per_eval), "ns");
  add(result, "core.mrg.wall_s", median(algorithm_s), "s");
  add(result, "core.mrg.ratio", ratio, "ratio");
  add(result, "mapreduce.rounds", rounds.rounds, "count");
  add(result, "mapreduce.shuffle_items",
      static_cast<double>(rounds.shuffle_items), "count");
  add(result, "mapreduce.round_wall_s", rounds.wall_s, "s");
  add(result, "mapreduce.round_skew",
      share(rounds.max_machine_s, rounds.mean_machine_s), "ratio");
  add(result, "mapreduce.mrg.sim_s", median(sim_s), "s");
  add(result, "exec.busy_share", median(busy), "ratio");
  add(result, "eval.radius_s", radius, "s");
  add(result, "trace.overhead_share",
      overhead_share(traced_walls, untraced_walls), "ratio");
  add(result, "trace.unattributed_share", unattributed_share(result.spans),
      "ratio");
  return result;
}

}  // namespace perfbench

#include "harness/experiment.hpp"

#include <stdexcept>
#include <utility>

#include "api/solver.hpp"

namespace kc::harness {

std::string_view to_string(AlgoKind kind) noexcept {
  switch (kind) {
    case AlgoKind::GON: return "GON";
    case AlgoKind::MRG: return "MRG";
    case AlgoKind::EIM: return "EIM";
  }
  return "?";
}

std::string_view registry_name(AlgoKind kind) noexcept {
  switch (kind) {
    case AlgoKind::GON: return "gon";
    case AlgoKind::MRG: return "mrg";
    case AlgoKind::EIM: return "eim";
  }
  return "?";
}

RunResult run_algorithm(const AlgoConfig& config, const PointSet& points,
                        std::size_t k, std::uint64_t seed, MetricKind metric) {
  // Thin adapter over the facade: translate the experiment protocol's
  // AlgoConfig into a SolveRequest, dispatch through the registry, and
  // flatten the unified report into the protocol's RunResult. The
  // request carries the config's resolved backend, so one persistent
  // thread pool serves both the cluster's reducer fan-out and the
  // oracle's sharded distance scans across a whole sweep.
  api::SolveRequest request;
  request.points = &points;
  request.metric = metric;
  request.k = k;
  request.algorithm = config.algorithm();
  request.seed = seed;
  request.exec.kind = config.exec;
  request.exec.threads = config.threads;
  request.exec.backend = config.resolve_backend();
  request.exec.machines = config.machines;
  if (request.algorithm == "mrg") {
    request.options = config.mrg;
  } else if (request.algorithm == "eim") {
    request.options = config.eim;
  }

  api::Solver solver;
  api::SolveReport report = solver.solve(request);

  RunResult result;
  result.backend = std::move(report.backend);
  result.value = report.value;
  result.sim_seconds = report.sim_seconds;
  result.wall_seconds = report.wall_seconds;
  result.map_reduce_rounds = report.rounds;
  if (report.algorithm == "eim") {
    result.eim_iterations = report.iterations;
    result.eim_sampled = report.sampled;
    result.final_sample_size = report.final_sample_size;
  }
  result.dist_evals = report.dist_evals;
  result.pairs_pruned = report.pairs_pruned;
  result.centers = std::move(report.centers);
  return result;
}

Aggregate Aggregate::of(const std::vector<RunResult>& results) {
  Aggregate agg;
  if (results.empty()) return agg;
  for (const auto& r : results) {
    agg.value += r.value;
    agg.sim_seconds += r.sim_seconds;
    agg.wall_seconds += r.wall_seconds;
    agg.map_reduce_rounds += r.map_reduce_rounds;
    agg.eim_iterations += r.eim_iterations;
    agg.sampled_fraction += r.eim_sampled ? 1.0 : 0.0;
    agg.dist_evals += static_cast<double>(r.dist_evals);
  }
  const auto n = static_cast<double>(results.size());
  agg.value /= n;
  agg.sim_seconds /= n;
  agg.wall_seconds /= n;
  agg.map_reduce_rounds /= n;
  agg.eim_iterations /= n;
  agg.sampled_fraction /= n;
  agg.dist_evals /= n;
  agg.runs = static_cast<int>(results.size());
  return agg;
}

DatasetPool DatasetPool::make(const Generator& generate, int graphs,
                              std::uint64_t seed) {
  if (graphs <= 0) {
    throw std::invalid_argument("DatasetPool: graphs must be positive");
  }
  DatasetPool pool;
  Rng root(seed);
  pool.graphs_.reserve(static_cast<std::size_t>(graphs));
  for (int g = 0; g < graphs; ++g) {
    Rng graph_rng = root.split(static_cast<std::uint64_t>(g));
    pool.graphs_.push_back(generate(graph_rng));
  }
  return pool;
}

DatasetPool DatasetPool::wrap(PointSet points) {
  DatasetPool pool;
  pool.graphs_.push_back(std::move(points));
  return pool;
}

Aggregate run_repeated(const AlgoConfig& config, const DatasetPool& pool,
                       std::size_t k, int runs_per_graph, std::uint64_t seed,
                       MetricKind metric) {
  if (runs_per_graph <= 0) {
    throw std::invalid_argument("run_repeated: runs_per_graph must be positive");
  }
  // Resolve the backend once so a thread pool persists across every
  // run of the sweep instead of being respawned per run.
  AlgoConfig resolved = config;
  resolved.backend = config.resolve_backend();
  std::vector<RunResult> results;
  results.reserve(static_cast<std::size_t>(pool.num_graphs() * runs_per_graph));
  Rng root(seed);
  for (int g = 0; g < pool.num_graphs(); ++g) {
    for (int r = 0; r < runs_per_graph; ++r) {
      const std::uint64_t run_seed =
          root.split(static_cast<std::uint64_t>(g * 1000 + r))();
      results.push_back(
          run_algorithm(resolved, pool.graph(g), k, run_seed, metric));
    }
  }
  return Aggregate::of(results);
}

}  // namespace kc::harness

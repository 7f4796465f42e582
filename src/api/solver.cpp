#include "api/solver.hpp"

#include <chrono>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "api/registry.hpp"
#include "eval/evaluate.hpp"
#include "exec/chunk_context.hpp"
#include "exec/cpu_clock.hpp"
#include "geom/counters.hpp"
#include "geom/kernels.hpp"
#include "geom/spatial_index.hpp"
#include "mapreduce/cluster.hpp"

namespace kc::api {

namespace {

using Clock = std::chrono::steady_clock;

/// All coordinates finite? A single NaN would reach the bulk kernels
/// and poison every comparison (argmax documents its input NaN-free),
/// so the facade refuses the request up front. O(n * dim) over raw
/// doubles — noise next to even one O(n * k) solve scan.
[[nodiscard]] bool all_finite(const PointSet& points) noexcept {
  for (const double c : points.raw()) {
    if (!std::isfinite(c)) return false;
  }
  return true;
}

/// Validates everything checkable before any work happens; returns the
/// registry entry the request names.
const AlgorithmInfo& validate(const SolveRequest& request) {
  if (request.points == nullptr) {
    throw Error(ErrorKind::BadRequest, "request has no point set");
  }
  if (request.points->size() == 0) {
    throw Error(ErrorKind::BadRequest, "point set is empty");
  }
  if (request.k == 0) {
    throw Error(ErrorKind::BadRequest, "k must be at least 1");
  }
  if (request.k > request.points->size()) {
    throw Error(ErrorKind::BadRequest,
                "k = " + std::to_string(request.k) + " exceeds the " +
                    std::to_string(request.points->size()) +
                    " points in the set");
  }
  if (!all_finite(*request.points)) {
    throw Error(ErrorKind::BadRequest,
                "point set contains non-finite coordinates");
  }
  const AlgorithmInfo* info = registry().find(request.algorithm);
  if (info == nullptr) {
    throw Error(ErrorKind::BadRequest,
                "unknown algorithm '" + request.algorithm + "' (known: " +
                    known_algorithms() + ")");
  }
  if (request.options.index() != 0 &&
      request.options.index() != info->options_index) {
    throw Error(ErrorKind::BadRequest,
                "options variant does not match algorithm '" + info->name +
                    "'");
  }
  if (request.exec.threads < 0) {
    throw Error(ErrorKind::BadRequest, "threads must be non-negative");
  }
  if (info->uses_cluster && request.exec.machines < 1) {
    throw Error(ErrorKind::BadRequest,
                "machines must be at least 1 for algorithm '" + info->name +
                    "'");
  }
  return *info;
}

}  // namespace

bool builds_index(const AlgorithmInfo& info, const SolveRequest& request) {
  if (request.prune == PruneMode::Off || force_no_prune_requested()) {
    return false;
  }
  if (request.prune == PruneMode::On) return true;
  const std::size_t dim = request.points->dim();
  const std::size_t n = request.points->size();
  if (dim > kAutoPruneMaxDim || n < kAutoPruneMinPoints) return false;
  const AutoPruneBreakEven& row = auto_prune_break_even(dim, n);
  const std::size_t sweeps =
      info.whole_set_sweeps ? info.whole_set_sweeps(request) : 0;
  return static_cast<double>(sweeps) / row.sweeps +
             static_cast<double>(request.k) / row.centers >
         1.0;
}

Solver::Solver(std::shared_ptr<exec::ExecutionBackend> backend)
    : pinned_(std::move(backend)) {
  if (pinned_ == nullptr) {
    throw Error(ErrorKind::BadRequest, "Solver: pinned backend must be non-null");
  }
}

std::shared_ptr<exec::ExecutionBackend> Solver::resolve_backend(
    const SolveRequest& request) {
  if (request.exec.backend != nullptr) return request.exec.backend;
  if (pinned_ != nullptr) return pinned_;
  if (cached_ != nullptr && cached_kind_ == request.exec.kind &&
      cached_threads_ == request.exec.threads) {
    return cached_;
  }
  try {
    cached_ = exec::make_backend(request.exec.kind, request.exec.threads);
  } catch (const std::exception& e) {
    throw Error(ErrorKind::UnsupportedBackend, e.what());
  }
  cached_kind_ = request.exec.kind;
  cached_threads_ = request.exec.threads;
  return cached_;
}

SolveReport Solver::solve(const SolveRequest& request) {
  const AlgorithmInfo& info = validate(request);
  if (request.cancel.cancelled()) {
    throw Error(ErrorKind::Cancelled, "request cancelled before dispatch");
  }

  SolveContext context;
  context.request = &request;
  context.backend = resolve_backend(request);
  last_ = context.backend;
  context.progress = request.progress;
  context.cancel = request.cancel;

  // Budget enforcement lives in the chunk-gated kernels: the context
  // below carries the cancellation token and an eval budget, and the
  // oracle's bulk scans check both every ~exec::kGateEvals pair
  // evaluations — so a cancel or an exhausted budget stops even a
  // single huge round within one chunk, on every backend.
  exec::ChunkContext chunk_context;
  chunk_context.cancel = request.cancel;
  chunk_context.budget =
      request.budget != nullptr
          ? request.budget
          : (request.max_dist_evals > 0
                 ? std::make_shared<exec::EvalBudget>(request.max_dist_evals)
                 : nullptr);

  DistanceOracle oracle(*request.points, request.metric);
  oracle.bind_executor(context.backend.get());
  if (chunk_context.armed()) oracle.bind_context(&chunk_context);

  // Spatial pruning: build the grid index where builds_index prices it
  // worth its build. The mode is bound either way, since it also
  // switches EIM's sample boxes, which need no index. The scans stay
  // bit-identical; without an index they take the exact id-order path.
  std::optional<SpatialIndex> index;
  if (builds_index(info, request)) index.emplace(*request.points);
  oracle.bind_index(index ? &*index : nullptr, request.prune);
  context.oracle = &oracle;
  const std::vector<index_t> all = request.points->all_indices();
  context.points = all;

  std::optional<mr::SimCluster> cluster;
  if (info.uses_cluster) {
    cluster.emplace(request.exec.machines, context.backend);
    // Machine-failure injection is keyed per request: same request
    // seed + same FaultPlan seed => the same machines die, on every
    // backend (see SimCluster::set_fault_scope).
    cluster->set_fault_scope(request.seed);
    context.cluster = &*cluster;
  }

  SolveReport report;
  report.algorithm = info.name;
  report.backend = std::string(context.backend->name());
  report.kernel_isa = std::string(simd::to_string(simd::active_level()));

  const std::uint64_t odometer_before =
      chunk_context.budget != nullptr ? chunk_context.budget->consumed() : 0;
  const WorkScope work;
  const auto start = Clock::now();
  const double cpu_start = exec::thread_cpu_seconds();
  try {
    info.run(context, report);
  } catch (const Error&) {
    throw;
  } catch (const BudgetExceededError& e) {
    throw Error(ErrorKind::BudgetExceeded, e.what());
  } catch (const CancelledError& e) {
    throw Error(ErrorKind::Cancelled, e.what());
  } catch (const std::invalid_argument& e) {
    throw Error(ErrorKind::BadRequest, e.what());
  } catch (const std::length_error& e) {
    throw Error(ErrorKind::BadRequest, e.what());
  }
  report.cpu_seconds = exec::thread_cpu_seconds() - cpu_start;
  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  // Cluster algorithms take their counts and simulated time from the
  // trace (attributed per machine task, backend-invariant). Sequential
  // ones ran entirely on this thread, so the WorkScope covers them and
  // simulated time is wall time — sampled before the offline value
  // evaluation below, which is not charged to the algorithm.
  if (!info.uses_cluster) {
    const WorkCounters elapsed = work.elapsed();
    report.dist_evals = elapsed.distance_evals;
    report.pairs_pruned = elapsed.pruned_pairs;
    report.sim_seconds = report.wall_seconds;
  }
  if (request.max_dist_evals > 0 &&
      report.dist_evals > request.max_dist_evals) {
    throw Error(ErrorKind::BudgetExceeded,
                info.name + ": " + std::to_string(report.dist_evals) +
                    " distance evaluations exceed budget " +
                    std::to_string(request.max_dist_evals));
  }

  // Offline value evaluation. By default it must not consume budget
  // (it is not charged to the algorithm, and a solve that finished
  // within its budget must not be failed by free bookkeeping) — but it
  // must stay *cancellable*: the evaluation scans are O(n * k) over
  // the whole input, easily dwarfing a budget-truncated solve. With
  // budgeted_eval the request's full context (budget included) stays
  // in force, so no untrusted request can trigger unbudgeted
  // evaluation work; exhaustion mid-evaluation fails the request.
  if (report.centers.empty()) {
    // A runner breaking its contract on a validated request is a
    // server-side bug, not the client's: deliberately NOT an
    // api::Error, so front-ends surface it as an internal failure.
    throw std::logic_error(info.name + ": algorithm returned no centers");
  }
  exec::ChunkContext eval_context;
  eval_context.cancel = request.cancel;
  if (request.budgeted_eval) eval_context.budget = chunk_context.budget;
  oracle.bind_context(eval_context.armed() ? &eval_context : nullptr);
  try {
    report.value = eval::covering_radius(oracle, all, report.centers).radius;
  } catch (const BudgetExceededError& e) {
    throw Error(ErrorKind::BudgetExceeded, e.what());
  } catch (const CancelledError& e) {
    throw Error(ErrorKind::Cancelled, e.what());
  }
  if (chunk_context.budget != nullptr) {
    report.budget_consumed =
        chunk_context.budget->consumed() - odometer_before;
  }
  return report;
}

}  // namespace kc::api

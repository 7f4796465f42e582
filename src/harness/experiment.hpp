// Experiment driver shared by all benchmark binaries.
//
// Encodes the paper's protocol (§7): m = 50 simulated machines; each
// synthetic configuration is generated as three independent graphs and
// every algorithm runs twice per graph (six results averaged); real
// data sets get four runs averaged. Parallel algorithms report
// *simulated* time (sum over rounds of the max per-machine time); the
// sequential baseline reports wall time. Solution values are covering
// radii over the full input, evaluated offline.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/eim.hpp"
#include "core/mrg.hpp"
#include "eval/evaluate.hpp"
#include "exec/backend.hpp"
#include "geom/distance.hpp"
#include "mapreduce/cluster.hpp"
#include "rng/rng.hpp"

namespace kc::harness {

enum class AlgoKind { GON, MRG, EIM };

[[nodiscard]] std::string_view to_string(AlgoKind kind) noexcept;

/// The api registry name AlgoKind maps to ("gon"/"mrg"/"eim").
[[nodiscard]] std::string_view registry_name(AlgoKind kind) noexcept;

/// One algorithm configuration to benchmark.
///
/// This is the experiment protocol's view of a solve; run_algorithm
/// translates it into an api::SolveRequest and dispatches through the
/// kc::api::Solver facade, so any registry algorithm can be driven by
/// the harness.
struct AlgoConfig {
  AlgoKind kind = AlgoKind::GON;
  /// Registry name of the algorithm to run; overrides `kind` when
  /// non-empty (so harness sweeps can drive algorithms the legacy enum
  /// does not know, e.g. "hs" or "mrg-du").
  std::string algo;
  std::string label;  ///< defaults to the algorithm name if empty

  int machines = 50;  ///< paper fixes m = 50 (§7.2)

  /// Execution backend for the simulated cluster and the sharded
  /// distance kernels. `backend`, when set, is used directly (so one
  /// persistent thread pool serves a whole sweep); otherwise
  /// resolve_backend() constructs one from `exec` + `threads`.
  exec::BackendKind exec = exec::BackendKind::Sequential;
  int threads = 0;  ///< 0 = backend default (hardware concurrency)
  std::shared_ptr<exec::ExecutionBackend> backend;

  MrgOptions mrg;  ///< used when the algorithm resolves to "mrg"
  EimOptions eim;  ///< used when the algorithm resolves to "eim"

  /// The registry name this config runs: `algo` if set, else the
  /// mapping of `kind`.
  [[nodiscard]] std::string algorithm() const {
    return algo.empty() ? std::string(registry_name(kind)) : algo;
  }

  [[nodiscard]] std::string display_label() const {
    return label.empty() ? (algo.empty() ? std::string(to_string(kind)) : algo)
                         : label;
  }

  /// The backend this config runs on; throws if the build lacks it.
  [[nodiscard]] std::shared_ptr<exec::ExecutionBackend> resolve_backend()
      const {
    return backend != nullptr ? backend : exec::make_backend(exec, threads);
  }
};

/// Outcome of a single algorithm execution on a single data set.
struct RunResult {
  std::string backend;       ///< effective execution backend name
  double value = 0.0;        ///< covering radius over all points (reported)
  double sim_seconds = 0.0;  ///< simulated parallel time (GON: == wall)
  double wall_seconds = 0.0;
  int map_reduce_rounds = 0; ///< 0 for the sequential baseline
  int eim_iterations = 0;
  bool eim_sampled = false;
  std::size_t final_sample_size = 0;
  std::uint64_t dist_evals = 0;
  std::uint64_t pairs_pruned = 0;  ///< skipped by pruning; see SolveReport
  std::vector<index_t> centers;
};

/// Runs one algorithm once on the full point set with the given seed.
[[nodiscard]] RunResult run_algorithm(const AlgoConfig& config,
                                      const PointSet& points, std::size_t k,
                                      std::uint64_t seed,
                                      MetricKind metric = MetricKind::L2);

/// Mean-aggregate of repeated runs.
struct Aggregate {
  double value = 0.0;
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;
  double map_reduce_rounds = 0.0;
  double eim_iterations = 0.0;
  double sampled_fraction = 0.0;
  double dist_evals = 0.0;
  int runs = 0;

  [[nodiscard]] static Aggregate of(const std::vector<RunResult>& results);
};

/// A pool of replicate data sets ("We generate three graphs of each
/// size and type", §7.3). The generator receives a per-graph Rng.
class DatasetPool {
 public:
  using Generator = std::function<PointSet(Rng&)>;

  /// Generates `graphs` replicates with independent seeds derived from
  /// `seed`.
  static DatasetPool make(const Generator& generate, int graphs,
                          std::uint64_t seed);

  /// Wraps existing data (real data sets: one "graph").
  static DatasetPool wrap(PointSet points);

  [[nodiscard]] int num_graphs() const noexcept {
    return static_cast<int>(graphs_.size());
  }
  [[nodiscard]] const PointSet& graph(int i) const { return graphs_.at(i); }

 private:
  std::vector<PointSet> graphs_;
};

/// Runs `config` `runs_per_graph` times on every graph in the pool and
/// averages: the paper's six-results-per-synthetic-config (3 graphs x
/// 2 runs) and four-runs-per-real-set protocols both reduce to this.
[[nodiscard]] Aggregate run_repeated(const AlgoConfig& config,
                                     const DatasetPool& pool, std::size_t k,
                                     int runs_per_graph, std::uint64_t seed,
                                     MetricKind metric = MetricKind::L2);

}  // namespace kc::harness

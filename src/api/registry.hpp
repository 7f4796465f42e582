// The string-keyed algorithm registry behind the solve facade.
//
// Every algorithm the library can run — built-in or user-registered —
// lands here as an AlgorithmInfo: a canonical name, aliases, a one-line
// description (what --list-algos prints), which AlgoOptions alternative
// it accepts, a runner closure, and the whole-set sweeps the runner
// makes (the scans a grid index could prune). The Solver validates a
// request, prepares a SolveContext (bound oracle, resolved backend,
// simulated cluster) and dispatches to the runner; nothing else in the
// codebase switches on algorithm identity.
//
// The built-ins (gon, hs, brute, mrg, eim, mrg-du) self-register via
// their factory functions the first time registry() is called, so a
// static-library link can never drop them. New algorithms — e.g. the
// Coy–Czumaj–Mishra parallel scheme or an MPC variant — land by calling
// registry().add() at startup; every front-end (harness, CLI, benches,
// a future service) picks them up without modification.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/report.hpp"
#include "api/request.hpp"
#include "mapreduce/cluster.hpp"

namespace kc::api {

/// Everything a runner needs at dispatch time, prepared by the Solver:
/// the validated request, an oracle bound to the resolved backend, and
/// (for cluster algorithms) the simulated cluster.
struct SolveContext {
  const SolveRequest* request = nullptr;
  const DistanceOracle* oracle = nullptr;
  std::span<const index_t> points;  ///< all indices of the request's set
  std::shared_ptr<exec::ExecutionBackend> backend;
  const mr::SimCluster* cluster = nullptr;  ///< null for sequential algos

  /// Hooks the runner must install into the algorithm options: the
  /// request's cancellation token and progress callback (which takes
  /// precedence over a variant-embedded one). Null/inert when unused.
  /// Budget enforcement no longer rides the progress hook — it lives
  /// in the chunk-gated kernels via the ChunkContext the Solver binds
  /// onto the oracle.
  ProgressFn progress;
  CancellationToken cancel;
};

struct AlgorithmInfo {
  std::string name;                  ///< canonical registry key
  std::vector<std::string> aliases;  ///< accepted alternate spellings
  std::string description;           ///< one line, shown by --list-algos
  bool uses_cluster = false;         ///< needs a SimCluster (parallel family)

  /// The AlgoOptions alternative this algorithm accepts (via
  /// options_index_of<T>()); monostate is always accepted and means
  /// "defaults".
  std::size_t options_index = 0;

  /// Runs the algorithm and fills the algorithm-specific report fields:
  /// centers, radius_comparable, guarantee, rounds/iterations, trace.
  /// The Solver fills value, timings, dist_evals for sequential algos,
  /// backend and kernel_isa afterwards.
  std::function<void(const SolveContext&, SolveReport&)> run;

  /// The runner's whole-set sweeps: how many single-center scans over
  /// the request's whole point set it makes, as a pure function of the
  /// (validated) request. These are the only runner scans the grid
  /// index can prune; scans over machine partitions, samples or pairs
  /// cannot use it. Null declares none. Under PruneMode::Auto the
  /// Solver prices them, with the offline evaluation's one k-center
  /// pass, against the index build (builds_index in api/solver.hpp).
  std::function<std::size_t(const SolveRequest&)> whole_set_sweeps;
};

class Registry {
 public:
  /// Registers an algorithm. Throws std::invalid_argument on an empty
  /// name, a missing runner, or a name/alias collision.
  void add(AlgorithmInfo info);

  /// Looks up a canonical name or alias; nullptr when unknown.
  [[nodiscard]] const AlgorithmInfo* find(
      std::string_view name_or_alias) const noexcept;

  /// Canonical names, in registration order (built-ins first).
  [[nodiscard]] std::vector<std::string> names() const;

  [[nodiscard]] const std::vector<AlgorithmInfo>& algorithms() const noexcept {
    return algos_;
  }

 private:
  std::vector<AlgorithmInfo> algos_;
};

/// The process-wide registry, with the built-in algorithms registered
/// on first use. Not synchronized: register custom algorithms during
/// startup, before concurrent solves begin.
[[nodiscard]] Registry& registry();

/// Comma-joined canonical names of registry(), for error messages
/// ("unknown algorithm 'x' (known: gon, hs, ...)"); shared by the
/// Solver and the CLI so the two never drift apart.
[[nodiscard]] std::string known_algorithms();

}  // namespace kc::api

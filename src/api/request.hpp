// SolveRequest: the single request contract of the solve facade.
//
// One struct describes everything a k-center solve needs — the data,
// the metric, k, which algorithm (by registry name), that algorithm's
// options, where to execute, the seed, an optional work budget, and
// cooperative hooks. The Solver validates it (api/solver.hpp) and
// dispatches through the algorithm registry (api/registry.hpp), so new
// algorithms and new front-ends meet at this one seam.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>

#include "algo/gonzalez.hpp"
#include "algo/hochbaum_shmoys.hpp"
#include "core/ccm.hpp"
#include "core/disjoint_union.hpp"
#include "core/eim.hpp"
#include "core/hooks.hpp"
#include "core/mrg.hpp"
#include "exec/backend.hpp"
#include "exec/chunk_context.hpp"
#include "geom/distance.hpp"
#include "geom/point_set.hpp"

namespace kc::api {

/// Options for the exact brute-force reference solver
/// (algo/brute_force.hpp takes a bare limit; the facade wraps it so it
/// fits the options variant like every other algorithm).
struct BruteForceOptions {
  /// Refuse instances with more than this many center subsets.
  std::uint64_t max_subsets = 2'000'000;
};

/// Per-algorithm options carried by a SolveRequest. `monostate` means
/// "the registry entry's defaults". The Solver rejects (ErrorKind::
/// BadRequest) a request whose alternative does not match the named
/// algorithm, so an EIM request can never silently run with MRG knobs.
using AlgoOptions =
    std::variant<std::monostate, GonzalezOptions, HochbaumShmoysOptions,
                 BruteForceOptions, MrgOptions, EimOptions,
                 DisjointUnionOptions, CcmOptions>;

/// Index of option type T within AlgoOptions (registry entries record
/// which alternative they accept).
template <typename T>
[[nodiscard]] constexpr std::size_t options_index_of() noexcept {
  return AlgoOptions(std::in_place_type<T>).index();
}

/// Where and how wide a solve executes: the execution backend for both
/// the simulated cluster's reducer fan-out and the oracle's sharded
/// distance kernels, plus the simulated cluster width.
struct ExecSpec {
  exec::BackendKind kind = exec::BackendKind::Sequential;
  int threads = 0;  ///< 0 = backend default (hardware concurrency)

  /// When set, used directly and `kind`/`threads` are ignored — one
  /// persistent thread pool can serve many requests and Solvers.
  std::shared_ptr<exec::ExecutionBackend> backend;

  int machines = 50;  ///< simulated cluster width (paper fixes 50, §7.2)
};

struct SolveRequest {
  /// The data to cluster. Required; not owned — must outlive the solve.
  const PointSet* points = nullptr;
  MetricKind metric = MetricKind::L2;

  std::size_t k = 0;  ///< number of centers; required, >= 1

  /// Registry name or alias (see api::registry().names()).
  std::string algorithm = "mrg";

  /// Per-algorithm options; monostate = defaults. The `seed` below
  /// always overrides any seed field inside the variant, so repeated
  /// runs only vary the one knob the experiment protocol varies.
  AlgoOptions options;

  ExecSpec exec;
  std::uint64_t seed = 1;

  /// Spatial pruning of the bulk distance scans (geom/spatial_index.hpp).
  /// Auto builds a grid index, on which whole-set sweeps (GON's, the
  /// offline evaluation, HS's radius pass) skip whole cells, only where
  /// their predicted saving exceeds the predicted
  /// build: low dimension, enough points, and enough whole-set sweeps
  /// or evaluation centers (api::builds_index). Auto also turns on EIM's
  /// sample boxes, at any dim, built or not; On forces the index
  /// regardless; Off keeps the exact pre-index code path, as does the
  /// KC_FORCE_NO_PRUNE environment variable. Results are bit-identical
  /// either way; only dist_evals vs pairs_pruned shift.
  PruneMode prune = PruneMode::Auto;

  /// Optional distance-evaluation budget; 0 = unlimited. Enforced at
  /// chunk granularity inside the bulk distance kernels (the Solver
  /// builds an exec::EvalBudget and binds it, with the cancellation
  /// token, onto the oracle as a ChunkContext), so even one huge scan
  /// stops within ~exec::kGateEvals pair evaluations of exhaustion; a
  /// solve that exceeds it throws Error kind BudgetExceeded.
  std::uint64_t max_dist_evals = 0;

  /// Optional externally owned budget, e.g. one global odometer a
  /// service shares across every request it admits. When set it is
  /// used instead of max_dist_evals (which then only serves as the
  /// after-the-run counter check when non-zero), and the caller can
  /// read consumed() after the solve — including after an aborted one.
  std::shared_ptr<exec::EvalBudget> budget;

  /// Gate the offline value evaluation with the same budget as the
  /// solve. Off by default, matching the paper's methodology: the
  /// budget limits the *algorithm's* work and the reported value is
  /// evaluated for free afterwards. A service front-end handling
  /// untrusted requests turns it on so the post-solve evaluation scans
  /// (O(n * k) on the whole input) are charged against the request's
  /// budget too and no request can burn unbudgeted CPU after its solve
  /// completes — exhaustion mid-evaluation fails the request with
  /// BudgetExceeded. The cancellation token is honoured during the
  /// offline evaluation regardless of this flag.
  bool budgeted_eval = false;

  /// Cooperative hooks (core/hooks.hpp), installed into the algorithm
  /// loops by the Solver; the cancellation token is additionally
  /// polled between chunks inside the bulk kernels. A request-level
  /// progress callback takes precedence over one embedded in the
  /// options variant.
  ProgressFn progress;
  CancellationToken cancel;
};

}  // namespace kc::api

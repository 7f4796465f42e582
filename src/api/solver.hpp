// The reusable solve facade: one stable seam through which every
// front-end (harness, CLI, examples, benches, a future service) runs a
// k-center algorithm.
//
//   kc::api::SolveRequest request;
//   request.points = &data;
//   request.k = 25;
//   request.algorithm = "mrg";
//   kc::api::Solver solver;
//   kc::api::SolveReport report = solver.solve(request);
//
// solve() validates the request (throwing api::Error with a typed
// kind), binds one persistent execution backend across calls, prepares
// the oracle/cluster, dispatches through the algorithm registry, and
// returns the unified SolveReport — including the offline-evaluated
// solution value and the effective backend/kernel ISA.
#pragma once

#include <memory>

#include "api/error.hpp"
#include "api/report.hpp"
#include "api/request.hpp"
#include "exec/backend.hpp"

namespace kc::api {

struct AlgorithmInfo;

/// Whether Solver::solve builds the grid index (geom/spatial_index.hpp)
/// for `request`, run as `info`. On always builds; Off and the
/// KC_FORCE_NO_PRUNE environment variable never do. Auto builds only
/// where the build is predicted to pay for itself: dim <=
/// kAutoPruneMaxDim, n >= kAutoPruneMinPoints, and the pruning of the
/// entry's whole-set sweeps (AlgorithmInfo::whole_set_sweeps) plus the
/// offline evaluation's k-center pass is predicted to save more than
/// the build costs. Both predictions are linear in n, so the comparison
/// runs on break-even counts per dim and point-count class
/// (kAutoPruneBreakEven in geom/spatial_index.hpp). Expects a request
/// solve() would accept, and depends on its prune mode, points, k,
/// machines and options only — never on a timing.
[[nodiscard]] bool builds_index(const AlgorithmInfo& info,
                                const SolveRequest& request);

class Solver {
 public:
  /// A solver that builds its backend lazily from the first request's
  /// ExecSpec and reuses it for every subsequent request with the same
  /// kind/threads (so a thread pool's workers persist across calls).
  Solver() = default;

  /// Pins `backend` for every solve this instance performs; requests'
  /// ExecSpec kind/threads are ignored (a request-level
  /// ExecSpec::backend still takes precedence). Must be non-null.
  explicit Solver(std::shared_ptr<exec::ExecutionBackend> backend);

  /// Validates and runs one request. Throws api::Error:
  ///   BadRequest          missing/empty points, k == 0, unknown
  ///                       algorithm, mismatched options variant, or
  ///                       option values the algorithm rejects
  ///   UnsupportedBackend  ExecSpec::kind names no backend, or the
  ///                       backend failed to start
  ///   BudgetExceeded      the eval budget ran out (enforced at chunk
  ///                       granularity inside the bulk kernels — even
  ///                       one huge scan stops within ~kGateEvals pair
  ///                       evaluations — plus a counter check after
  ///                       the run for non-kernel evaluations)
  ///   Cancelled           the cancellation token fired (checked before
  ///                       dispatch, at every round boundary, and
  ///                       between chunks inside the bulk kernels)
  [[nodiscard]] SolveReport solve(const SolveRequest& request);

  /// The backend the last solve ran on — including a request-supplied
  /// ExecSpec::backend, which outranks a pinned one. Before the first
  /// solve: the pinned backend, or null on an unpinned solver.
  [[nodiscard]] const std::shared_ptr<exec::ExecutionBackend>& backend()
      const noexcept {
    return last_ != nullptr ? last_ : pinned_;
  }

 private:
  [[nodiscard]] std::shared_ptr<exec::ExecutionBackend> resolve_backend(
      const SolveRequest& request);

  std::shared_ptr<exec::ExecutionBackend> pinned_;  ///< from the ctor
  std::shared_ptr<exec::ExecutionBackend> cached_;  ///< lazily built
  std::shared_ptr<exec::ExecutionBackend> last_;    ///< last solve's backend
  exec::BackendKind cached_kind_ = exec::BackendKind::Sequential;
  int cached_threads_ = 0;
};

}  // namespace kc::api

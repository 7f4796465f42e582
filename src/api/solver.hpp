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

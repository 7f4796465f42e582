// Chunk-granular stop conditions for long scans.
//
// A ChunkContext bundles the two reasons a running solve may have to
// stop mid-scan — a cooperative CancellationToken and a shared atomic
// distance-evaluation budget — so the bulk distance kernels can check
// them between chunks of a single scan. Before this existed, budgets
// and cancellation were only consulted at MapReduce round boundaries;
// one round with a 10M-point-pair scan would run to completion before
// noticing either. The facade (api::Solver) binds a context onto the
// DistanceOracle; each chunk of the oracle's scans then pays the budget
// and polls the token through one gate every ~kGateEvals pair
// evaluations, on every backend (the gate is part of the scan loop,
// not of the fan-out, so even a purely sequential scan stops within
// one gate chunk).
//
// The budget is an *enforcement* mechanism, deliberately separate from
// the thread-local work counters (geom/counters.hpp): a scan charges
// its counters on the calling thread after its fan-out joined, so
// per-machine attribution stays bit-identical across backends, while
// the budget is decremented gate by gate by whichever thread runs the
// chunk. Both record exactly the pairs that were evaluated, for a
// completed scan and for a stopped one alike.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "exec/cancellation.hpp"

namespace kc::exec {

/// Pair evaluations between consecutive context checks inside a gated
/// scan. Small enough that a cancel/budget stop lands promptly (a gate
/// chunk is ~0.1 ms of kernel work), large enough that the per-gate
/// atomic traffic vanishes next to the O(gate * dim) scan work.
inline constexpr std::uint64_t kGateEvals = std::uint64_t{1} << 16;

/// Shared atomic countdown of distance evaluations. One budget can
/// serve a single solve (api::Solver builds one from
/// SolveRequest::max_dist_evals) or be shared across many solves (a
/// service handing one global budget to every request it admits).
class EvalBudget {
 public:
  explicit EvalBudget(std::uint64_t limit) noexcept
      : limit_(limit), remaining_(limit) {}

  /// Atomically deducts `evals` if that much budget remains. Returns
  /// false — deducting nothing — when it does not; the budget is then
  /// exhausted for every future charge of more than the remainder.
  [[nodiscard]] bool try_charge(std::uint64_t evals) noexcept {
    // Relaxed throughout: the counter is a pure quota — no other data
    // is published through it, and the CAS already makes each deduction
    // atomic; cross-thread ordering of unrelated writes is irrelevant.
    std::uint64_t current = remaining_.load(std::memory_order_relaxed);
    do {
      if (current < evals) return false;
    } while (!remaining_.compare_exchange_weak(
        current, current - evals, std::memory_order_relaxed));  // see above
    return true;
  }

  /// Returns previously charged evaluations to the budget. The service
  /// layer reserves a request's worst-case budget from its tenant's
  /// budget at admission and refunds the unused remainder here once the
  /// request settles; crediting more than was charged is a caller bug
  /// (consumed() would underflow) and is clamped.
  void credit(std::uint64_t evals) noexcept {
    // Relaxed: same pure-quota argument as try_charge above.
    std::uint64_t current = remaining_.load(std::memory_order_relaxed);
    std::uint64_t next;
    do {
      next = std::min(limit_, current + evals);
    } while (!remaining_.compare_exchange_weak(
        current, next, std::memory_order_relaxed));  // see above
  }

  [[nodiscard]] std::uint64_t limit() const noexcept { return limit_; }
  [[nodiscard]] std::uint64_t remaining() const noexcept {
    // Relaxed: monitoring read; callers tolerate a stale snapshot.
    return remaining_.load(std::memory_order_relaxed);
  }
  /// Evaluations successfully charged so far.
  [[nodiscard]] std::uint64_t consumed() const noexcept {
    return limit_ - remaining();
  }

 private:
  std::uint64_t limit_;
  std::atomic<std::uint64_t> remaining_;
};

/// Why a gated scan stopped early (None = it should keep going).
enum class StopReason : int {
  None = 0,
  Cancelled = 1,
  BudgetExhausted = 2,
};

/// The stop conditions one solve threads through its scans. Cheap to
/// copy; an all-defaults context is inert (armed() == false) and the
/// oracle skips gating entirely.
struct ChunkContext {
  CancellationToken cancel;
  std::shared_ptr<EvalBudget> budget;  ///< null = unlimited

  [[nodiscard]] bool armed() const noexcept {
    return cancel.armed() || budget != nullptr;
  }

  /// Poll without charging. Budget exhaustion only surfaces from
  /// charge(): a check between scans must not fail a run that will do
  /// no further work.
  [[nodiscard]] StopReason check() const noexcept {
    return cancel.cancelled() ? StopReason::Cancelled : StopReason::None;
  }

  /// Poll and charge `evals` against the budget. Cancellation is
  /// checked first (a cancelled job should not consume budget); on a
  /// stop nothing is charged, so consumed() reflects only work that
  /// actually ran.
  [[nodiscard]] StopReason charge(std::uint64_t evals) const noexcept {
    if (cancel.cancelled()) return StopReason::Cancelled;
    if (budget != nullptr && !budget->try_charge(evals))
      return StopReason::BudgetExhausted;
    return StopReason::None;
  }

  /// Throws the error matching `reason` (CancelledError /
  /// BudgetExceededError), labelled with the scan that stopped.
  [[noreturn]] static void raise(StopReason reason, std::string_view where) {
    if (reason == StopReason::Cancelled) {
      throw CancelledError(std::string(where) + ": cancelled mid-scan");
    }
    throw BudgetExceededError(std::string(where) +
                              ": distance-evaluation budget exhausted");
  }
};

}  // namespace kc::exec

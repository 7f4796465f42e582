// The batch solve service: untrusted JSON-lines requests in, one
// report line per request out, with per-tenant budgets, deadlines and
// bounded admission between them.
//
//   producers                ServiceLoop                 shared pool
//   ---------                -----------                 -----------
//   stdin reader --\                                  +-> worker
//   socket conn  ---+--> submit() --> BoundedQueue -->|   worker
//   socket conn  --/    (parse,           |           |   worker
//                        admit,           v           +-> ...
//                        reserve     run(): one exec::TaskGroup per
//                        tenant      request, <= max_in_flight live;
//                        budget,     each group's single task drives
//                        arm         Solver::solve on the shared
//                        deadline)   scheduler, so a request's reducer
//                                    fan-out and sharded scans are
//                                    stealable work for every worker.
//
// Admission is where untrusted turns into bounded: the codec rejects
// malformed records (api::Error taxonomy), the tenant's EvalBudget is
// *reserved* for the request's cap (refunded pro rata when it
// settles — concurrent requests of one tenant can never oversubscribe
// it), the service timer fires a cancellation token at the deadline
// that the gated kernels observe within one chunk, and the queue bound
// backpressures producers (or answers "overloaded" in non-blocking
// mode). Every admitted request runs with budgeted_eval, so offline
// evaluation is charged like solve work and no request can burn
// unbudgeted CPU.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/solver.hpp"
#include "compat/thread_safety.hpp"
#include "exec/backend.hpp"
#include "exec/chunk_context.hpp"
#include "svc/codec.hpp"
#include "svc/queue.hpp"

namespace kc::svc {

/// Retry of *transient internal* failures (injected faults, escaped
/// non-taxonomy exceptions). Client errors (bad-request), budget
/// exhaustion, cancellation and deadlines are terminal — retrying
/// them could never succeed.
struct RetryPolicy {
  int max_attempts = 1;  ///< total attempts per request (1 = no retry)
  /// Exponential backoff between attempts: base * factor^(attempt-1),
  /// capped, plus seeded jitter in [0, base). Purely wall-clock —
  /// never part of the report bytes, so retries keep replays
  /// byte-identical.
  std::uint64_t backoff_base_ms = 1;
  double backoff_factor = 2.0;
  std::uint64_t backoff_max_ms = 50;
  std::uint64_t jitter_seed = 0x5eedf00dull;
  /// Retry attempts (beyond each request's first) a tenant may consume
  /// over the service lifetime; 0 = unlimited. A tenant at its budget
  /// fails fast instead of retrying.
  std::uint64_t tenant_retry_budget = 0;
};

/// Graceful degradation above a queue high-watermark: shed load by
/// making requests cheaper *before* shedding them as "overloaded".
/// Configurable per tenant (ServiceConfig::tenant_degrade) on top of
/// the service-wide default.
struct DegradePolicy {
  /// Queue fill fraction (size/capacity) at which degradation engages;
  /// anything > 1.0 disables it (the default: degradation changes
  /// results, so it is strictly opt-in).
  double high_watermark = 2.0;
  /// Shrink factor applied to the request's evaluation cap (where one
  /// exists) while degraded.
  double budget_factor = 0.5;
  /// Reroute the expensive multi-round algorithms (mrg, eim, mrg-du)
  /// to the cheaper single-pass ccm coreset path while degraded.
  bool use_coreset = true;

  [[nodiscard]] bool enabled() const noexcept {
    return high_watermark <= 1.0;
  }
};

struct ServiceConfig {
  /// Execution substrate for every request (ThreadPool = concurrent
  /// requests on one work-stealing scheduler; Sequential = one at a
  /// time, for deterministic replays and differential testing).
  exec::BackendKind backend = exec::BackendKind::ThreadPool;
  int threads = 0;  ///< pool width; 0 = hardware concurrency

  std::size_t queue_capacity = 256;  ///< admission queue bound
  int max_in_flight = 4;             ///< concurrently executing requests

  /// Distance-evaluation budget per tenant (0 = unlimited). Requests
  /// reserve from it at admission and refund the unspent remainder.
  std::uint64_t tenant_budget = 0;
  /// Default per-request evaluation cap when the request names none
  /// (0 = uncapped; a capless request under a limited tenant budget
  /// draws on the shared tenant odometer directly instead of
  /// reserving, so concurrent capless requests never starve each
  /// other at admission).
  std::uint64_t request_budget = 0;
  /// Default deadline for requests that name none (0 = none).
  std::uint64_t default_deadline_ms = 0;

  /// Gate the offline value evaluation with the request budget
  /// (SolveRequest::budgeted_eval). On by default: this is the
  /// untrusted-request front-end.
  bool budgeted_eval = true;

  /// Bound on distinct tenants (each holds an EvalBudget entry for the
  /// service's lifetime); a request naming a new tenant beyond it is
  /// refused "overloaded", so attacker-minted tenant names cannot grow
  /// the tenant table without bound. Only meaningful with a tenant
  /// budget configured.
  std::size_t max_tenants = 4096;

  CodecLimits limits;
  ReportStyle style;

  RetryPolicy retry;
  /// Service-wide degradation ladder; disabled by default.
  DegradePolicy degrade;
  /// Per-tenant overrides of `degrade` (missing tenants use the
  /// service-wide policy).
  std::map<std::string, DegradePolicy, std::less<>> tenant_degrade;

  /// Watchdog: cancel a request whose budget odometer made no progress
  /// for this many milliseconds (settled "internal-error" with
  /// diagnostics). 0 disables. Only requests with a budget odometer
  /// are watchable — an unbudgeted request exposes no progress signal.
  std::uint64_t watchdog_ms = 0;

  /// Fault-injection plan armed for this service's lifetime (see
  /// fault/fault.hpp for the grammar; empty = none). Process-global:
  /// meant for one-service processes and tests, the constructor arms
  /// it and the destructor disarms.
  std::string fault_plan;
};

/// Writes one finished report line (no trailing newline). Called from
/// the ServiceLoop consumer thread; serialize externally if several
/// sinks share a stream.
using EmitFn = std::function<void(const std::string&)>;

class ServiceLoop {
 public:
  /// `backend` overrides config.backend/threads when non-null (so
  /// tests and benches can share one pool across services).
  explicit ServiceLoop(const ServiceConfig& config,
                       std::shared_ptr<exec::ExecutionBackend> backend =
                           nullptr);
  ~ServiceLoop();
  ServiceLoop(const ServiceLoop&) = delete;
  ServiceLoop& operator=(const ServiceLoop&) = delete;

  /// Parses and admits one request line (thread-safe; producers may
  /// call concurrently). Returns nullopt when the request was admitted
  /// (its report will reach `emit` from the consumer); otherwise the
  /// ready-to-write rejection line (malformed request, tenant budget
  /// exhausted, queue full in non-blocking mode, service closed).
  /// `cancel`, when armed, becomes the request's cancellation token —
  /// a connection handler passes one per request and fires them on
  /// disconnect; an unarmed token is replaced by a service-owned one
  /// so deadlines and cancel_all() always have a handle.
  [[nodiscard]] std::optional<std::string> submit(
      std::string_view line, EmitFn emit, bool blocking = true,
      CancellationToken cancel = {})
      KC_EXCLUDES(state_mutex_, timer_mutex_);

  /// Ends admission: submit() refuses, run() returns once the queue
  /// and the in-flight window drain.
  void close();

  /// Fires every admitted-but-unfinished request's token (shutdown /
  /// global disconnect). Does not close admission by itself.
  void cancel_all() KC_EXCLUDES(state_mutex_);

  /// Consumer loop: executes admitted requests until close() and the
  /// backlog drains. Call from exactly one thread.
  void run() KC_EXCLUDES(state_mutex_, timer_mutex_);

  struct Stats {
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;   ///< refused at submit()
    std::uint64_t completed = 0;  ///< reports with status "ok"
    std::uint64_t failed = 0;     ///< reports with any error status
    std::uint64_t retries = 0;    ///< solve attempts beyond each first
    std::uint64_t degraded = 0;   ///< requests admitted degraded
    std::uint64_t watchdog_fired = 0;  ///< requests the watchdog killed
  };
  [[nodiscard]] Stats stats() const KC_EXCLUDES(state_mutex_);

  /// Armed deadline entries (tests assert none leak after a drain).
  [[nodiscard]] std::size_t deadline_entries() const
      KC_EXCLUDES(timer_mutex_);
  /// Requests currently tracked by the watchdog (tests assert none
  /// leak after a drain).
  [[nodiscard]] std::size_t watchdog_entries() const
      KC_EXCLUDES(timer_mutex_);

  [[nodiscard]] const std::shared_ptr<exec::ExecutionBackend>& backend()
      const noexcept {
    return backend_;
  }

  /// The tenant's budget odometer (null when tenant_budget == 0 or the
  /// tenant has not been seen yet).
  [[nodiscard]] std::shared_ptr<exec::EvalBudget> tenant_budget(
      std::string_view tenant) const KC_EXCLUDES(state_mutex_);

 private:
  struct Admitted {
    WireRequest wire;
    EmitFn emit;
    std::string line;  ///< finished report, written by the solve task
    std::shared_ptr<exec::EvalBudget> budget;         ///< per-request
    std::shared_ptr<exec::EvalBudget> tenant_budget;  ///< reservation source
    std::uint64_t reserved = 0;
    std::shared_ptr<std::atomic<bool>> deadline_fired;
    /// Timer-map key of this request's deadline entry (valid when
    /// deadline_fired is non-null); settle() erases the entry so the
    /// timer does not retain tokens of settled requests for up to the
    /// full deadline horizon.
    std::chrono::steady_clock::time_point deadline_at;
    std::uint64_t serial = 0;  ///< active-token registry key
    bool degraded = false;     ///< ran under the degradation ladder
    /// Set by the watchdog when it cancelled this request (maps the
    /// resulting Cancelled to "internal-error" with diagnostics).
    std::shared_ptr<std::atomic<bool>> watchdog_fired;
  };

  void execute(Admitted& item) KC_EXCLUDES(state_mutex_, timer_mutex_);
  void settle(Admitted& item) KC_EXCLUDES(state_mutex_, timer_mutex_);
  /// One solve attempt; returns true on success, sets
  /// `status`/`message` and `retryable` otherwise.
  bool attempt_solve(Admitted& item, int attempt, std::string& status,
                     std::string& message, bool& retryable);
  /// Consumes one unit of the tenant's retry budget; false when
  /// exhausted.
  bool take_retry_token(const std::string& tenant) KC_EXCLUDES(state_mutex_);
  void watchdog_register(Admitted& item) KC_EXCLUDES(timer_mutex_);
  void watchdog_unregister(std::uint64_t serial) KC_EXCLUDES(timer_mutex_);
  /// One watchdog pass at `now`: refreshes progress marks and cancels
  /// every attempt whose odometer sat still for the whole horizon.
  /// Returns how many it cancelled.
  std::uint64_t watchdog_pass(std::chrono::steady_clock::time_point now)
      KC_REQUIRES(timer_mutex_);
  void arm_deadline(std::chrono::steady_clock::time_point when,
                    CancellationToken token,
                    std::shared_ptr<std::atomic<bool>> fired)
      KC_EXCLUDES(timer_mutex_);
  /// Removes the deadline entry identified by (when, fired), if still
  /// armed; called from settle() and from the admission rollback so no
  /// path retains a dead request's token for its deadline horizon.
  void retire_deadline(std::chrono::steady_clock::time_point when,
                       const std::shared_ptr<std::atomic<bool>>& fired)
      KC_EXCLUDES(timer_mutex_);
  /// The service's one helper thread: fires due deadlines and, while
  /// any attempt is watched, ticks the watchdog.
  void timer_loop() KC_EXCLUDES(timer_mutex_, state_mutex_);

  ServiceConfig config_;
  std::shared_ptr<exec::ExecutionBackend> backend_;
  BoundedQueue<std::unique_ptr<Admitted>> queue_;

  /// Set by close() and cancel_all(): submit() settles "shutting-down"
  /// without touching the queue.
  std::atomic<bool> shutting_down_{false};
  /// True when this instance armed config_.fault_plan (disarmed in the
  /// destructor).
  bool armed_fault_plan_ = false;

  mutable compat::Mutex state_mutex_;
  std::map<std::string, std::shared_ptr<exec::EvalBudget>, std::less<>>
      tenants_ KC_GUARDED_BY(state_mutex_);
  /// Retry tokens each tenant has consumed (only grown when a
  /// tenant_retry_budget is configured).
  std::map<std::string, std::uint64_t, std::less<>> tenant_retries_
      KC_GUARDED_BY(state_mutex_);
  std::map<std::uint64_t, CancellationToken> active_tokens_
      KC_GUARDED_BY(state_mutex_);
  std::uint64_t next_serial_ KC_GUARDED_BY(state_mutex_) = 0;
  Stats stats_ KC_GUARDED_BY(state_mutex_);

  // Timer state: armed deadlines and watched attempts share one mutex,
  // one CondVar and one helper thread (timer_loop).
  struct DeadlineEntry {
    CancellationToken token;
    std::shared_ptr<std::atomic<bool>> fired;
  };
  /// One entry per executing attempt, keyed by the request serial.
  /// Progress = the budget odometer moving.
  struct WatchdogEntry {
    std::shared_ptr<exec::EvalBudget> budget;
    CancellationToken token;
    std::shared_ptr<std::atomic<bool>> fired;
    std::uint64_t last_consumed = 0;
    std::chrono::steady_clock::time_point last_progress;
  };
  mutable compat::Mutex timer_mutex_;
  compat::CondVar timer_cv_;
  std::multimap<std::chrono::steady_clock::time_point, DeadlineEntry>
      deadlines_ KC_GUARDED_BY(timer_mutex_);
  std::map<std::uint64_t, WatchdogEntry> watchdog_
      KC_GUARDED_BY(timer_mutex_);
  bool timer_stop_ KC_GUARDED_BY(timer_mutex_) = false;
  /// Stored under timer_mutex_ by the constructor; the destructor moves
  /// it out under the mutex before joining.
  std::thread timer_thread_ KC_GUARDED_BY(timer_mutex_);
};

}  // namespace kc::svc

#include "svc/service.hpp"

#include <algorithm>
#include <deque>
#include <new>
#include <utility>

#include "api/error.hpp"
#include "fault/fault.hpp"
#include "rng/rng.hpp"

namespace kc::svc {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] exec::Scheduler* scheduler_of(exec::ExecutionBackend* backend) {
  if (backend != nullptr && backend->kind() == exec::BackendKind::ThreadPool) {
    return &static_cast<exec::ThreadPoolBackend*>(backend)->scheduler();
  }
  return nullptr;
}

/// Deterministic backoff before retry `attempt` (1-based count of
/// attempts already made): exponential in the attempt, capped, plus
/// seeded jitter keyed by (jitter_seed, request serial, attempt) — no
/// global RNG state, so concurrent retries never perturb each other.
[[nodiscard]] std::chrono::milliseconds backoff_delay(
    const RetryPolicy& retry, std::uint64_t serial, int attempt) noexcept {
  double delay = static_cast<double>(retry.backoff_base_ms);
  for (int i = 1; i < attempt; ++i) delay *= retry.backoff_factor;
  delay = std::min(delay, static_cast<double>(retry.backoff_max_ms));
  std::uint64_t state = retry.jitter_seed;
  state ^= splitmix64_next(state) + serial;
  state ^= splitmix64_next(state) + static_cast<std::uint64_t>(attempt);
  const std::uint64_t jitter_range = std::max<std::uint64_t>(
      1, retry.backoff_base_ms);
  const std::uint64_t jitter = splitmix64_next(state) % jitter_range;
  return std::chrono::milliseconds(static_cast<std::uint64_t>(delay) + jitter);
}

/// True for the multi-round algorithms the degradation ladder reroutes
/// to the cheaper coreset path.
[[nodiscard]] bool reroutable_to_coreset(std::string_view algo) noexcept {
  return algo == "mrg" || algo == "eim" || algo == "mrg-du" ||
         algo == "disjoint-union";
}

}  // namespace

ServiceLoop::ServiceLoop(const ServiceConfig& config,
                         std::shared_ptr<exec::ExecutionBackend> backend)
    : config_(config),
      backend_(backend != nullptr
                   ? std::move(backend)
                   : exec::make_backend(config.backend, config.threads)),
      queue_(config.queue_capacity) {
  config_.max_in_flight = std::max(config_.max_in_flight, 1);
  if (!config_.fault_plan.empty()) {
    fault::arm(fault::FaultPlan::parse(config_.fault_plan));
    armed_fault_plan_ = true;
  }
  std::thread timer([this] { timer_loop(); });
  const compat::LockGuard lock(timer_mutex_);
  timer_thread_ = std::move(timer);
}

ServiceLoop::~ServiceLoop() {
  queue_.close();
  std::thread timer;
  {
    const compat::LockGuard lock(timer_mutex_);
    timer_stop_ = true;
    timer = std::move(timer_thread_);
  }
  timer_cv_.notify_all();
  timer.join();
  if (armed_fault_plan_) fault::disarm();
}

void ServiceLoop::close() {
  // Relaxed: a pure go/no-go flag with no payload; queue_.close() has
  // its own mutex and is what workers actually synchronize on.
  shutting_down_.store(true, std::memory_order_relaxed);
  queue_.close();
}

void ServiceLoop::cancel_all() {
  // Relaxed: same go/no-go argument as close() above.
  shutting_down_.store(true, std::memory_order_relaxed);
  const compat::LockGuard lock(state_mutex_);
  for (auto& [serial, token] : active_tokens_) token.request_cancel();
}

ServiceLoop::Stats ServiceLoop::stats() const {
  const compat::LockGuard lock(state_mutex_);
  return stats_;
}

std::size_t ServiceLoop::deadline_entries() const {
  const compat::LockGuard lock(timer_mutex_);
  return deadlines_.size();
}

std::size_t ServiceLoop::watchdog_entries() const {
  const compat::LockGuard lock(timer_mutex_);
  return watchdog_.size();
}

std::shared_ptr<exec::EvalBudget> ServiceLoop::tenant_budget(
    std::string_view tenant) const {
  const compat::LockGuard lock(state_mutex_);
  const auto it = tenants_.find(tenant);
  return it != tenants_.end() ? it->second : nullptr;
}

void ServiceLoop::arm_deadline(Clock::time_point when,
                               CancellationToken token,
                               std::shared_ptr<std::atomic<bool>> fired) {
  bool earliest = false;
  {
    const compat::LockGuard lock(timer_mutex_);
    const auto it = deadlines_.emplace(
        when, DeadlineEntry{std::move(token), std::move(fired)});
    earliest = it == deadlines_.begin();
  }
  // The timer only needs waking when its next wake-up moved earlier.
  if (earliest) timer_cv_.notify_all();
}

void ServiceLoop::timer_loop() {
  const auto tick =
      std::max(std::chrono::milliseconds(1),
               std::chrono::milliseconds(config_.watchdog_ms / 4));
  constexpr Clock::time_point kNever = Clock::time_point::max();
  // The next watchdog pass; kNever while no attempt is watched.
  Clock::time_point next_tick = kNever;
  for (;;) {
    std::uint64_t cancelled = 0;
    {
      compat::MutexLock lock(timer_mutex_);
      for (;;) {
        if (timer_stop_) return;
        const auto now = Clock::now();
        // Fire everything that is due. Firing the token of a request
        // that already settled is harmless: tokens are per-request.
        while (!deadlines_.empty() && deadlines_.begin()->first <= now) {
          DeadlineEntry entry = std::move(deadlines_.begin()->second);
          deadlines_.erase(deadlines_.begin());
          // Relaxed: the flag only biases the settle-path error message
          // (deadline vs generic cancel); both readers tolerate
          // staleness.
          entry.fired->store(true, std::memory_order_relaxed);
          entry.token.request_cancel();
        }
        if (watchdog_.empty()) {
          next_tick = kNever;
        } else if (next_tick == kNever) {
          next_tick = now + tick;
        } else if (next_tick <= now) {
          next_tick = now + tick;
          cancelled = watchdog_pass(now);
          if (cancelled != 0) break;
        }
        // Sleep until the earlier of the next deadline and the next tick.
        Clock::time_point wake = next_tick;
        if (!deadlines_.empty()) {
          wake = std::min(wake, deadlines_.begin()->first);
        }
        if (wake == kNever) {
          timer_cv_.wait(lock);
        } else {
          timer_cv_.wait_until(lock, wake);
        }
      }
    }
    // Counted after timer_mutex_ is released: the timer never holds two
    // service mutexes at once.
    const compat::LockGuard lock(state_mutex_);
    stats_.watchdog_fired += cancelled;
  }
}

std::optional<std::string> ServiceLoop::submit(std::string_view line,
                                               EmitFn emit, bool blocking,
                                               CancellationToken cancel) {
  const auto reject = [this](std::string report) {
    {
      const compat::LockGuard lock(state_mutex_);
      ++stats_.rejected;
    }
    return report;
  };

  auto item = std::make_unique<Admitted>();
  try {
    item->wire = parse_request(line, config_.limits);
  } catch (const api::Error& e) {
    // The id/tenant of a malformed line are unknown; 0/"" marks that.
    return reject(write_error(0, "", api::to_string(e.kind()), e.what()));
  } catch (const std::bad_alloc&) {
    // Point storage of a *valid* line failed to materialize (real OOM
    // or the "codec.alloc" site): a server-side transient, not a
    // client error.
    return reject(
        write_error(0, "", "internal-error", "request allocation failed"));
  } catch (const fault::InjectedFault& e) {
    return reject(write_error(0, "", "internal-error", e.what()));
  }
  item->emit = std::move(emit);

  // A closed (or globally cancelled) service refuses with its own
  // typed status: producers distinguish "shed this one, try later"
  // (overloaded) from "stop sending" (shutting-down).
  if (shutting_down_.load(std::memory_order_relaxed)) {
    return reject(write_error(item->wire.id, item->wire.tenant,
                              "shutting-down",
                              "service is shutting down"));
  }

  // Degradation ladder: above the high-watermark, make the request
  // cheaper before the queue bound would shed it.
  const DegradePolicy* degrade = &config_.degrade;
  if (const auto it = config_.tenant_degrade.find(item->wire.tenant);
      it != config_.tenant_degrade.end()) {
    degrade = &it->second;
  }
  if (degrade->enabled()) {
    const double fill = static_cast<double>(queue_.size()) /
                        static_cast<double>(queue_.capacity());
    if (fill >= degrade->high_watermark) {
      item->degraded = true;
      if (degrade->use_coreset &&
          reroutable_to_coreset(item->wire.request.algorithm)) {
        item->wire.request.algorithm = "ccm";
        // The options variant must match the algorithm that runs.
        item->wire.request.options = {};
      }
      const compat::LockGuard lock(state_mutex_);
      ++stats_.degraded;
    }
  }

  // Every request gets an armed token: the deadline timer and
  // cancel_all() need a handle even when the producer supplied none.
  if (!cancel.armed()) cancel = CancellationToken::make();
  item->wire.request.cancel = cancel;
  item->wire.request.budgeted_eval = config_.budgeted_eval;

  // Budget admission: reserve the request's cap from its tenant,
  // retrying around concurrent reservations; the unspent remainder is
  // refunded in settle().
  std::uint64_t cap = item->wire.max_dist_evals != 0
                          ? item->wire.max_dist_evals
                          : config_.request_budget;
  if (item->degraded && cap != 0 && degrade->budget_factor < 1.0) {
    cap = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(cap) *
                                      degrade->budget_factor));
    // The wire cap doubles as the post-run counter check
    // (SolveRequest::max_dist_evals); keep them consistent.
    if (item->wire.max_dist_evals != 0) {
      item->wire.max_dist_evals = cap;
      item->wire.request.max_dist_evals = cap;
    }
  }
  if (config_.tenant_budget != 0) {
    std::shared_ptr<exec::EvalBudget> tenant;
    bool table_full = false;
    {
      const compat::LockGuard lock(state_mutex_);
      const auto it = tenants_.find(item->wire.tenant);
      if (it != tenants_.end()) {
        tenant = it->second;
      } else if (tenants_.size() >= config_.max_tenants) {
        // Refuse before inserting: attacker-minted tenant names must
        // not grow the table (each entry lives for the service's
        // lifetime). Rejected outside the lock — reject() takes it.
        table_full = true;
      } else {
        tenant = std::make_shared<exec::EvalBudget>(config_.tenant_budget);
        tenants_.emplace(item->wire.tenant, tenant);
      }
    }
    if (table_full) {
      return reject(write_error(item->wire.id, item->wire.tenant,
                                "overloaded", "tenant table is full"));
    }
    if (tenant->remaining() == 0) {
      return reject(write_error(
          item->wire.id, item->wire.tenant, "budget-exceeded",
          "tenant '" + item->wire.tenant + "' has no evaluation budget left"));
    }
    if (cap != 0) {
      // Capped request: reserve the cap (or what is left) up front so
      // concurrent requests of one tenant can never oversubscribe it;
      // settle() refunds whatever the run did not spend.
      std::uint64_t reserved = 0;
      for (;;) {
        const std::uint64_t remaining = tenant->remaining();
        reserved = std::min(cap, remaining);
        if (reserved == 0) {
          return reject(write_error(item->wire.id, item->wire.tenant,
                                    "budget-exceeded",
                                    "tenant '" + item->wire.tenant +
                                        "' has no evaluation budget left"));
        }
        if (tenant->try_charge(reserved)) break;
      }
      item->tenant_budget = std::move(tenant);
      item->reserved = reserved;
      item->budget = std::make_shared<exec::EvalBudget>(reserved);
    } else {
      // Capless request: charge the shared tenant odometer directly.
      // Reserving the whole remainder instead would make concurrent
      // capless requests of one tenant reject each other at admission
      // on a race, even when the tenant has plenty left.
      item->budget = std::move(tenant);
    }
  } else if (cap != 0) {
    item->budget = std::make_shared<exec::EvalBudget>(cap);
  }
  item->wire.request.budget = item->budget;

  const std::uint64_t deadline_ms = item->wire.deadline_ms != 0
                                        ? item->wire.deadline_ms
                                        : config_.default_deadline_ms;
  if (deadline_ms != 0) {
    item->deadline_fired = std::make_shared<std::atomic<bool>>(false);
    item->deadline_at = Clock::now() + std::chrono::milliseconds(deadline_ms);
    arm_deadline(item->deadline_at, cancel, item->deadline_fired);
  }

  {
    const compat::LockGuard lock(state_mutex_);
    item->serial = next_serial_++;
    active_tokens_.emplace(item->serial, cancel);
  }

  // Captured before push(): a blocking push consumes the unique_ptr
  // even on failure, so the rollback must not read through `item`.
  const std::uint64_t id = item->wire.id;
  const std::string tenant_name = item->wire.tenant;
  const std::uint64_t serial = item->serial;
  const std::shared_ptr<exec::EvalBudget> reserved_from = item->tenant_budget;
  const std::uint64_t reserved = item->reserved;
  const std::shared_ptr<std::atomic<bool>> deadline_fired =
      item->deadline_fired;
  const Clock::time_point deadline_at = item->deadline_at;
  const auto unadmit = [&] {
    retire_deadline(deadline_at, deadline_fired);
    const compat::LockGuard lock(state_mutex_);
    active_tokens_.erase(serial);
    if (reserved_from != nullptr) reserved_from->credit(reserved);
  };
  if (blocking) {
    if (!queue_.push(std::move(item))) {
      // push() only refuses a closed queue (it blocks through full), so
      // this is always a shutdown race: close() beat the waiter.
      unadmit();
      return reject(write_error(id, tenant_name, "shutting-down",
                                "service is shutting down"));
    }
  } else {
    if (!queue_.try_push(item)) {
      unadmit();
      if (queue_.closed()) {
        return reject(write_error(id, tenant_name, "shutting-down",
                                  "service is shutting down"));
      }
      return reject(write_error(id, tenant_name, "overloaded",
                                "admission queue is full"));
    }
  }
  {
    const compat::LockGuard lock(state_mutex_);
    ++stats_.admitted;
  }
  return std::nullopt;
}

bool ServiceLoop::attempt_solve(Admitted& item, int attempt,
                                std::string& status, std::string& message,
                                bool& retryable) {
  retryable = false;
  try {
    // The injected stand-in for "the service plane itself failed this
    // request" (a worker crash, a lost RPC): transient, so retryable.
    fault::point("svc.request.run");
    api::Solver solver(backend_);
    api::SolveReport report = solver.solve(item.wire.request);
    report.attempts = attempt;
    report.degraded = item.degraded;
    item.line =
        write_report(item.wire.id, item.wire.tenant, report, config_.style);
    return true;
  } catch (const api::Error& e) {
    // Taxonomy failures are terminal: a bad request stays bad, an
    // exhausted budget stays exhausted, a cancel stays cancelled.
    status = std::string(api::to_string(e.kind()));
    message = e.what();
    if (e.kind() == api::ErrorKind::Cancelled) {
      // Relaxed loads: the flags only pick the error label; the cancel
      // itself was delivered through the token (see timer_loop).
      if (item.deadline_fired != nullptr &&
          item.deadline_fired->load(std::memory_order_relaxed)) {
        status = "deadline-exceeded";
      } else if (item.watchdog_fired != nullptr &&
                 // Relaxed: label-selection only, as above.
                 item.watchdog_fired->load(std::memory_order_relaxed)) {
        status = "internal-error";
        message = "watchdog: no budget progress for " +
                  std::to_string(config_.watchdog_ms) + " ms (" + message +
                  ")";
      }
    }
  } catch (const std::exception& e) {
    // A non-taxonomy escape — injected or a real bug — is a transient
    // internal failure worth a typed breadcrumb and a retry, never a
    // dead service.
    status = "internal-error";
    message = e.what();
    retryable = true;
  }
  return false;
}

bool ServiceLoop::take_retry_token(const std::string& tenant) {
  if (config_.retry.tenant_retry_budget == 0) return true;
  const compat::LockGuard lock(state_mutex_);
  std::uint64_t& used = tenant_retries_[tenant];
  if (used >= config_.retry.tenant_retry_budget) return false;
  ++used;
  return true;
}

void ServiceLoop::execute(Admitted& item) {
  // The WireRequest rebinds its points pointer on move, but be
  // explicit: the solve below must read this instance's storage.
  item.wire.request.points = &item.wire.points;
  const int max_attempts = std::max(1, config_.retry.max_attempts);
  watchdog_register(item);
  bool ok = false;
  int attempt = 0;
  for (;;) {
    ++attempt;
    std::string status;
    std::string message;
    bool retryable = false;
    ok = attempt_solve(item, attempt, status, message, retryable);
    if (ok) break;

    // Deadline + retry interplay: a fired deadline settles the request
    // as deadline-exceeded after the current attempt, whatever that
    // attempt's own failure was, and no further attempt starts.
    // Relaxed: label-selection flag only, as in execute() above.
    if (item.deadline_fired != nullptr &&
        item.deadline_fired->load(std::memory_order_relaxed)) {
      item.line = write_error(item.wire.id, item.wire.tenant,
                              "deadline-exceeded",
                              "deadline expired during attempt " +
                                  std::to_string(attempt) + ": " + message,
                              attempt, item.degraded);
      break;
    }
    const bool can_retry =
        retryable && attempt < max_attempts &&
        !item.wire.request.cancel.cancelled() &&
        take_retry_token(item.wire.tenant);
    if (!can_retry) {
      item.line = write_error(item.wire.id, item.wire.tenant, status, message,
                              attempt, item.degraded);
      break;
    }
    {
      const compat::LockGuard lock(state_mutex_);
      ++stats_.retries;
    }
    // Backoff, then check the deadline again: a backoff that crossed
    // it must not start another attempt.
    std::this_thread::sleep_for(
        backoff_delay(config_.retry, item.serial, attempt));
    // Relaxed: label-selection flag only, as in execute() above.
    if (item.deadline_fired != nullptr &&
        item.deadline_fired->load(std::memory_order_relaxed)) {
      item.line = write_error(item.wire.id, item.wire.tenant,
                              "deadline-exceeded",
                              "deadline expired during retry backoff after "
                              "attempt " +
                                  std::to_string(attempt) + ": " + message,
                              attempt, item.degraded);
      break;
    }
  }
  watchdog_unregister(item.serial);
  const compat::LockGuard lock(state_mutex_);
  ++(ok ? stats_.completed : stats_.failed);
}

void ServiceLoop::retire_deadline(
    Clock::time_point when, const std::shared_ptr<std::atomic<bool>>& fired) {
  if (fired == nullptr) return;
  const compat::LockGuard lock(timer_mutex_);
  const auto [lo, hi] = deadlines_.equal_range(when);
  for (auto it = lo; it != hi; ++it) {
    if (it->second.fired == fired) {
      deadlines_.erase(it);
      break;
    }
  }
}

void ServiceLoop::settle(Admitted& item) {
  // Retire the deadline entry: a settled request's token must not be
  // retained (or fired) for the rest of its deadline horizon.
  retire_deadline(item.deadline_at, item.deadline_fired);
  const compat::LockGuard lock(state_mutex_);
  active_tokens_.erase(item.serial);
  if (item.tenant_budget != nullptr && item.budget != nullptr) {
    // Refund what the reservation did not spend; consumed() can never
    // exceed the reservation because the request budget was sized to it.
    item.tenant_budget->credit(item.reserved - item.budget->consumed());
  }
}

void ServiceLoop::watchdog_register(Admitted& item) {
  // Only a request with a budget odometer exposes a progress signal.
  if (config_.watchdog_ms == 0 || item.budget == nullptr) return;
  item.watchdog_fired = std::make_shared<std::atomic<bool>>(false);
  WatchdogEntry entry;
  entry.budget = item.budget;
  entry.token = item.wire.request.cancel;
  entry.fired = item.watchdog_fired;
  entry.last_consumed = item.budget->consumed();
  entry.last_progress = Clock::now();
  bool first = false;
  {
    const compat::LockGuard lock(timer_mutex_);
    first = watchdog_.empty();
    watchdog_.emplace(item.serial, std::move(entry));
  }
  // The first watched attempt starts the timer's ticks.
  if (first) timer_cv_.notify_all();
}

void ServiceLoop::watchdog_unregister(std::uint64_t serial) {
  if (config_.watchdog_ms == 0) return;
  const compat::LockGuard lock(timer_mutex_);
  watchdog_.erase(serial);
}

std::uint64_t ServiceLoop::watchdog_pass(Clock::time_point now) {
  const auto horizon = std::chrono::milliseconds(config_.watchdog_ms);
  std::uint64_t cancelled = 0;
  for (auto& [serial, entry] : watchdog_) {
    const std::uint64_t consumed = entry.budget->consumed();
    if (consumed != entry.last_consumed) {
      entry.last_consumed = consumed;
      entry.last_progress = now;
      continue;
    }
    // Relaxed flag: the only consequence of staleness is one extra
    // (idempotent) request_cancel on an already-settling request.
    if (now - entry.last_progress >= horizon &&
        !entry.fired->load(std::memory_order_relaxed)) {
      // Stuck: the odometer sat still for the whole horizon. Cancel
      // through the request's own token; execute() maps the resulting
      // Cancelled to "internal-error" with diagnostics because `fired`
      // is set first.
      entry.fired->store(true, std::memory_order_relaxed);
      entry.token.request_cancel();
      ++cancelled;
    }
  }
  return cancelled;
}

void ServiceLoop::run() {
  exec::Scheduler* scheduler = scheduler_of(backend_.get());

  struct InFlight {
    std::unique_ptr<exec::TaskGroup> group;
    std::unique_ptr<Admitted> item;
  };
  std::deque<InFlight> window;

  const auto finish_front = [&] {
    InFlight flight = std::move(window.front());
    window.pop_front();
    // execute() never lets an exception escape, but the scheduler can
    // fail the group *before* execute() runs (the "exec.task.run" site
    // fires at the request's own group node, or a real spawn failure).
    // The exactly-one-report contract must hold on that path too.
    try {
      flight.group->wait();
    } catch (const std::exception& e) {
      if (flight.item->line.empty()) {
        flight.item->line =
            write_error(flight.item->wire.id, flight.item->wire.tenant,
                        "internal-error", e.what());
        const compat::LockGuard lock(state_mutex_);
        ++stats_.failed;
      }
    }
    settle(*flight.item);
    if (flight.item->emit) flight.item->emit(flight.item->line);
  };

  for (;;) {
    // Block on the queue only while nothing is in flight: with a
    // pending window, an idle consumer must retire the front request
    // (helping execute it on the scheduler) rather than sit in pop() —
    // otherwise a lone request's report would wait for the *next*
    // request to arrive, and on a worker-less pool nobody would run it
    // at all.
    std::optional<std::unique_ptr<Admitted>> popped;
    if (window.empty()) {
      popped = queue_.pop();
      if (!popped) break;  // closed and drained
    } else {
      popped = queue_.try_pop();
      if (!popped) {
        finish_front();
        continue;
      }
    }
    std::unique_ptr<Admitted> item = std::move(*popped);
    if (scheduler == nullptr) {
      // Sequential substrate: execute inline, one request at a time.
      execute(*item);
      settle(*item);
      if (item->emit) item->emit(item->line);
      continue;
    }
    while (static_cast<int>(window.size()) >= config_.max_in_flight) {
      finish_front();
    }
    InFlight flight;
    flight.item = std::move(item);
    flight.group = std::make_unique<exec::TaskGroup>(*scheduler);
    Admitted* raw = flight.item.get();
    // One TaskGroup per request: the group's single task drives the
    // whole solve; the solve's own fan-out (reducer rounds, sharded
    // scans) lands in nested groups on the same scheduler, stealable
    // by every worker. Reports are emitted in admission order.
    flight.group->submit([this, raw] { execute(*raw); });
    window.push_back(std::move(flight));
  }
  while (!window.empty()) finish_front();
}

}  // namespace kc::svc

// Pluggable execution backends.
//
// Everything in this library that fans work out — the simulated
// MapReduce cluster running one round's reducer tasks, and the sharded
// distance kernels splitting one scan across host cores — goes through
// the ExecutionBackend interface. Two implementations exist:
//
//   SequentialBackend  one task at a time on the calling thread; the
//                      paper's methodology (§7.1) and the default.
//   ThreadPoolBackend  persistent workers behind the work-stealing
//                      scheduler (exec/scheduler.hpp): per-worker
//                      deques, TaskGroup isolation, so independent
//                      jobs interleave and fan-out pays no thread
//                      spawn cost per round.
//
// The backend only decides *where* closures run. All simulated
// metrics — centers, radii, round counts, per-machine distance-eval
// counts — are bit-identical across backends: tasks carry their own
// deterministic RNG streams, distance-eval counting stays on the
// thread that owns the task, and sharded kernels partition ranges
// deterministically with an order-independent (min) fold.
//
// Exception semantics, uniform across backends: every task of a batch
// is attempted, and the first exception thrown is rethrown to the
// caller after the batch completes.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>

#include "exec/scheduler.hpp"

namespace kc::exec {

/// Explicit values: a kind's number is part of its printed identity
/// (test parameter names), so retiring a kind never renumbers another.
enum class BackendKind {
  Sequential = 0,  ///< faithful to the paper: one task at a time
  ThreadPool = 2,  ///< persistent std::thread workers + shared work queue
};

[[nodiscard]] std::string_view to_string(BackendKind kind) noexcept;

/// Parses "seq"/"sequential", "pool"/"threadpool" (the --exec flag
/// vocabulary). Returns nullopt on anything else.
[[nodiscard]] std::optional<BackendKind> parse_backend(
    std::string_view token) noexcept;

class ExecutionBackend {
 public:
  using Task = std::function<void()>;
  using RangeBody = std::function<void(std::size_t, std::size_t)>;

  virtual ~ExecutionBackend() = default;

  [[nodiscard]] virtual BackendKind kind() const noexcept = 0;

  /// The *effective* backend name, reported into RoundStats/JobTrace.
  [[nodiscard]] std::string_view name() const noexcept {
    return to_string(kind());
  }

  /// Host threads this backend can occupy (1 for Sequential).
  [[nodiscard]] virtual int concurrency() const noexcept = 0;

  /// Runs every task to completion, possibly concurrently. Each task
  /// executes entirely on one thread, so thread-local work counters
  /// sampled inside the task attribute its work correctly. Rethrows
  /// the first task exception after all tasks have been attempted.
  virtual void run_tasks(std::span<const Task> tasks) = 0;

  /// Data parallelism inside one task: cuts [0, n) into at most
  /// ceil(n / grain) chunks (capped at concurrency()) and runs
  /// body(lo, hi) for each, possibly concurrently. The chunk partition
  /// is deterministic. Blocks until complete.
  virtual void parallel_for(std::size_t n, std::size_t grain,
                            const RangeBody& body) = 0;
};

/// §7.1: simulate the machines one at a time.
class SequentialBackend final : public ExecutionBackend {
 public:
  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::Sequential;
  }
  [[nodiscard]] int concurrency() const noexcept override { return 1; }
  void run_tasks(std::span<const Task> tasks) override;
  void parallel_for(std::size_t n, std::size_t grain,
                    const RangeBody& body) override;
};

/// Persistent workers behind the work-stealing scheduler.
class ThreadPoolBackend final : public ExecutionBackend {
 public:
  /// `threads <= 0` uses std::thread::hardware_concurrency().
  explicit ThreadPoolBackend(int threads = 0) : scheduler_(threads) {}
  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::ThreadPool;
  }
  [[nodiscard]] int concurrency() const noexcept override {
    return scheduler_.concurrency();
  }
  [[nodiscard]] Scheduler& scheduler() noexcept { return scheduler_; }
  void run_tasks(std::span<const Task> tasks) override;
  void parallel_for(std::size_t n, std::size_t grain,
                    const RangeBody& body) override;

 private:
  Scheduler scheduler_;
};

/// Factory for the --exec flag: builds the requested backend (throws
/// std::invalid_argument on a kind outside the enum).
[[nodiscard]] std::shared_ptr<ExecutionBackend> make_backend(
    BackendKind kind, int threads = 0);

}  // namespace kc::exec

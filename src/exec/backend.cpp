#include "exec/backend.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>

#include "fault/fault.hpp"

namespace kc::exec {

namespace {

/// Chunk count for a range of n items with at least `grain` items per
/// chunk, capped by the backend's concurrency.
[[nodiscard]] std::size_t chunk_count(std::size_t n, std::size_t grain,
                                      int concurrency) noexcept {
  const std::size_t by_grain = n / std::max<std::size_t>(grain, 1);
  return std::clamp<std::size_t>(by_grain, 1,
                                 static_cast<std::size_t>(concurrency));
}

}  // namespace

std::string_view to_string(BackendKind kind) noexcept {
  switch (kind) {
    case BackendKind::Sequential: return "sequential";
    case BackendKind::ThreadPool: return "threadpool";
  }
  return "?";
}

std::optional<BackendKind> parse_backend(std::string_view token) noexcept {
  if (token == "seq" || token == "sequential") return BackendKind::Sequential;
  if (token == "pool" || token == "threadpool") return BackendKind::ThreadPool;
  return std::nullopt;
}

// ------------------------------------------------------------- Sequential

void SequentialBackend::run_tasks(std::span<const Task> tasks) {
  std::exception_ptr error;
  for (const Task& task : tasks) {
    try {
      fault::point("exec.task.run");
      task();
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

void SequentialBackend::parallel_for(std::size_t n, std::size_t /*grain*/,
                                     const RangeBody& body) {
  if (n != 0) body(0, n);
}

// ------------------------------------------------------------- ThreadPool

void ThreadPoolBackend::run_tasks(std::span<const Task> tasks) {
  // Single-reducer rounds (the final Gonzalez round) run on the
  // submitting thread so their sharded distance scans can fan out
  // across the idle workers; run_tasks handles that inline itself.
  scheduler_.run_tasks(tasks);
}

void ThreadPoolBackend::parallel_for(std::size_t n, std::size_t grain,
                                     const RangeBody& body) {
  if (n == 0) return;
  scheduler_.run_chunks(n, chunk_count(n, grain, scheduler_.concurrency()),
                        body);
}

// ---------------------------------------------------------------- factory

std::shared_ptr<ExecutionBackend> make_backend(BackendKind kind, int threads,
                                               std::optional<PinMode> pin) {
  switch (kind) {
    case BackendKind::Sequential:
      return std::make_shared<SequentialBackend>();
    case BackendKind::ThreadPool:
      return std::make_shared<ThreadPoolBackend>(threads,
                                                 pin.value_or(env_pin_mode()));
  }
  throw std::invalid_argument("exec: unknown backend kind");
}

}  // namespace kc::exec

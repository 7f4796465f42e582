// Minimal command-line flag parsing for the bench and example binaries.
//
// Accepts `--key=value` and bare `--key` boolean flags. Unrecognized
// access patterns are the caller's concern; `unconsumed()` lists flags
// that were never queried so binaries can reject typos.
#pragma once

#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/backend.hpp"

namespace kc::cli {

class Args {
 public:
  Args(int argc, const char* const* argv);

  /// True if `--name` (with or without value) was passed.
  [[nodiscard]] bool flag(const std::string& name);

  /// Value of `--name=value`, if present.
  [[nodiscard]] std::optional<std::string> str(const std::string& name);

  /// Typed getters with defaults. Throw std::invalid_argument on
  /// malformed numbers: the whole value must parse, and it must fit
  /// the getter's type (int_value: an int; size: non-negative).
  [[nodiscard]] std::int64_t integer(const std::string& name,
                                     std::int64_t fallback);
  [[nodiscard]] int int_value(const std::string& name, int fallback);
  [[nodiscard]] std::size_t size(const std::string& name, std::size_t fallback);
  [[nodiscard]] double real(const std::string& name, double fallback);

  /// Comma-separated list of non-negative integers, e.g. --k=2,5,10.
  [[nodiscard]] std::vector<std::size_t> size_list(
      const std::string& name, std::vector<std::size_t> fallback);

  [[nodiscard]] const std::string& program() const noexcept { return program_; }

  /// Flags present on the command line that were never queried.
  [[nodiscard]] std::vector<std::string> unconsumed() const;

  /// Positional (non --flag) arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;  // "" for bare flags
  std::map<std::string, bool> consumed_;
  std::vector<std::string> positional_;
};

/// Parses --exec={seq,sequential,pool,threadpool}. Throws
/// std::invalid_argument on an unknown value.
[[nodiscard]] exec::BackendKind exec_backend(
    Args& args, exec::BackendKind fallback = exec::BackendKind::Sequential);

/// Parses --threads=N (0 = backend default / hardware concurrency).
[[nodiscard]] int exec_threads(Args& args, int fallback = 0);

/// Consumes --exec and --threads and builds the backend they describe.
[[nodiscard]] std::shared_ptr<exec::ExecutionBackend> make_exec_backend(
    Args& args, exec::BackendKind fallback = exec::BackendKind::Sequential);

// The registry-aware helpers --algo= / --list-algos live in
// cli/algos.hpp so this header stays free of algorithm dependencies.

/// Exit status for an error that reached a binary's main: 2 for a
/// usage error (std::invalid_argument, e.g. a malformed flag), else 1.
[[nodiscard]] int exit_status(const std::exception& error) noexcept;

/// Uniform unknown-flag rejection: prints
///   <program>: unknown flag(s): --foo --bar
/// to stderr and exits(2) when any flag was never consumed. Every
/// binary calls this after consuming its own flags so typos never pass
/// silently.
void reject_unknown_flags(Args& args);

}  // namespace kc::cli

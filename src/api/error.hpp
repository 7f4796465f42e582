// Typed error taxonomy of the solve facade.
//
// Everything Solver::solve rejects or aborts surfaces as one exception
// type, kc::api::Error, tagged with a machine-readable kind — replacing
// the assorted std::invalid_argument / std::length_error /
// std::runtime_error throws a caller of the free functions had to
// pattern-match. A service front-end maps kinds to status codes
// (BadRequest -> 400, UnsupportedBackend -> 501, BudgetExceeded -> 429,
// Cancelled -> 499) without parsing messages.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace kc::api {

enum class ErrorKind {
  BadRequest,          ///< invalid request: bad k, unknown algorithm,
                       ///< mismatched options variant, bad option values
  UnsupportedBackend,  ///< the requested backend cannot be constructed
  BudgetExceeded,      ///< the distance-evaluation budget ran out
  Cancelled,           ///< the request's cancellation token fired
};

[[nodiscard]] std::string_view to_string(ErrorKind kind) noexcept;

class Error : public std::runtime_error {
 public:
  Error(ErrorKind kind, const std::string& message)
      : std::runtime_error(std::string(to_string(kind)) + ": " + message),
        kind_(kind) {}

  [[nodiscard]] ErrorKind kind() const noexcept { return kind_; }

 private:
  ErrorKind kind_;
};

}  // namespace kc::api

#include "cli/args.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <system_error>

namespace kc::cli {

Args::Args(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg.substr(2)] = "";
    } else {
      values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    }
  }
  for (const auto& [key, _] : values_) consumed_[key] = false;
}

bool Args::flag(const std::string& name) {
  const auto it = values_.find(name);
  if (it == values_.end()) return false;
  consumed_[name] = true;
  return true;
}

std::optional<std::string> Args::str(const std::string& name) {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  consumed_[name] = true;
  return it->second;
}

namespace {

/// Parses all of `text` as a T; anything else is malformed.
template <typename T>
[[nodiscard]] T parse_whole(const std::string& name, const std::string& text,
                            const char* expected) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end) {
    throw std::invalid_argument("--" + name + " expects " + expected +
                                ", got '" + text + "'");
  }
  return value;
}

}  // namespace

std::int64_t Args::integer(const std::string& name, std::int64_t fallback) {
  const auto value = str(name);
  if (!value || value->empty()) return fallback;
  return parse_whole<std::int64_t>(name, *value, "an integer");
}

int Args::int_value(const std::string& name, int fallback) {
  const std::int64_t v = integer(name, fallback);
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("--" + name + " is out of range: " +
                                std::to_string(v));
  }
  return static_cast<int>(v);
}

std::size_t Args::size(const std::string& name, std::size_t fallback) {
  const std::int64_t v = integer(name, static_cast<std::int64_t>(fallback));
  if (v < 0) {
    throw std::invalid_argument("--" + name + " must be non-negative");
  }
  return static_cast<std::size_t>(v);
}

double Args::real(const std::string& name, double fallback) {
  const auto value = str(name);
  if (!value || value->empty()) return fallback;
  return parse_whole<double>(name, *value, "a number");
}

std::vector<std::size_t> Args::size_list(const std::string& name,
                                         std::vector<std::size_t> fallback) {
  const auto value = str(name);
  if (!value || value->empty()) return fallback;
  std::vector<std::size_t> out;
  std::size_t start = 0;
  while (start <= value->size()) {
    std::size_t end = value->find(',', start);
    if (end == std::string::npos) end = value->size();
    const std::string token = value->substr(start, end - start);
    if (!token.empty()) {
      const auto v = parse_whole<std::int64_t>(name, token, "integers");
      if (v < 0) {
        throw std::invalid_argument("--" + name +
                                    " must be non-negative, got '" + token +
                                    "'");
      }
      out.push_back(static_cast<std::size_t>(v));
    }
    if (end == value->size()) break;
    start = end + 1;
  }
  if (out.empty()) {
    throw std::invalid_argument("--" + name + " expects a non-empty list");
  }
  return out;
}

exec::BackendKind exec_backend(Args& args, exec::BackendKind fallback) {
  const auto value = args.str("exec");
  if (!value || value->empty()) return fallback;
  const auto kind = exec::parse_backend(*value);
  if (!kind) {
    throw std::invalid_argument("--exec expects seq or pool, got '" + *value +
                                "'");
  }
  return *kind;
}

int exec_threads(Args& args, int fallback) {
  const int threads = args.int_value("threads", fallback);
  if (threads < 0) {
    throw std::invalid_argument("--threads must be non-negative");
  }
  return threads;
}

std::shared_ptr<exec::ExecutionBackend> make_exec_backend(
    Args& args, exec::BackendKind fallback) {
  return exec::make_backend(exec_backend(args, fallback), exec_threads(args));
}

std::vector<std::string> Args::unconsumed() const {
  std::vector<std::string> out;
  for (const auto& [key, used] : consumed_) {
    if (!used) out.push_back(key);
  }
  return out;
}

int exit_status(const std::exception& error) noexcept {
  return dynamic_cast<const std::invalid_argument*>(&error) != nullptr ? 2 : 1;
}

void reject_unknown_flags(Args& args) {
  const auto leftover = args.unconsumed();
  if (leftover.empty()) return;
  std::fprintf(stderr, "%s: unknown flag(s):", args.program().c_str());
  for (const auto& flag : leftover) std::fprintf(stderr, " --%s", flag.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace kc::cli

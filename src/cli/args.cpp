#include "cli/args.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

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

std::int64_t Args::integer(const std::string& name, std::int64_t fallback) {
  const auto value = str(name);
  if (!value || value->empty()) return fallback;
  try {
    return std::stoll(*value);
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + name + " expects an integer, got '" +
                                *value + "'");
  }
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
  try {
    return std::stod(*value);
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + name + " expects a number, got '" +
                                *value + "'");
  }
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
      try {
        out.push_back(static_cast<std::size_t>(std::stoull(token)));
      } catch (const std::exception&) {
        throw std::invalid_argument("--" + name + " expects integers, got '" +
                                    token + "'");
      }
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
  const auto threads =
      args.integer("threads", static_cast<std::int64_t>(fallback));
  if (threads < 0) {
    throw std::invalid_argument("--threads must be non-negative");
  }
  return static_cast<int>(threads);
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

void reject_unknown_flags(Args& args) {
  const auto leftover = args.unconsumed();
  if (leftover.empty()) return;
  std::fprintf(stderr, "%s: unknown flag(s):", args.program().c_str());
  for (const auto& flag : leftover) std::fprintf(stderr, " --%s", flag.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace kc::cli

#include "mapreduce/trace.hpp"

namespace kc::mr {

RoundStats& JobTrace::add_round(RoundStats stats) {
  stats.round_index = static_cast<int>(rounds_.size());
  rounds_.push_back(std::move(stats));
  return rounds_.back();
}

double JobTrace::simulated_seconds() const noexcept {
  double total = 0.0;
  for (const auto& r : rounds_) total += r.max_machine_seconds;
  return total;
}

std::uint64_t JobTrace::total_dist_evals() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : rounds_) total += r.total_dist_evals;
  return total;
}

std::uint64_t JobTrace::total_pairs_pruned() const noexcept {
  std::uint64_t total = 0;
  for (const auto& r : rounds_) total += r.total_pairs_pruned;
  return total;
}

std::string JobTrace::to_string() const {
  std::string out;
  for (const auto& r : rounds_) {
    out += r.summary();
    out += '\n';
  }
  return out;
}

void JobTrace::append(const JobTrace& other) {
  for (auto r : other.rounds_) {
    add_round(std::move(r));
  }
}

}  // namespace kc::mr

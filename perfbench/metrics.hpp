// The benchmark's own arithmetic: order statistics with the percentile
// rule, span self time, and the derived per-layer values. Header-only
// and free of the library so selftest.cpp can check it on hand-built
// inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Linear interpolation between closest ranks (the "inclusive" rule:
/// q = 0 is the minimum, q = 1 the maximum). Throws on no samples.
[[nodiscard]] inline double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("quantile of no samples");
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double fraction = rank - static_cast<double>(lo);
  return samples[lo] + fraction * (samples[hi] - samples[lo]);
}

[[nodiscard]] inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

[[nodiscard]] inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) throw std::invalid_argument("mean of no samples");
  double sum = 0.0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

/// Samples ranked strictly above the q-quantile of n samples.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto at_or_below = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::min(n, at_or_below);
}

/// A timing percentile is reported only with at least this many samples
/// beyond it.
inline constexpr std::size_t kMinTailSamples = 10;

[[nodiscard]] inline bool percentile_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= kMinTailSamples;
}

/// One traced interval. `parent` is the index of the enclosing span in
/// the same list, or -1 for a root; `op` groups the spans of one op
/// (-1 for spans outside any op). `derived` marks phases laid out from
/// a report rather than timed by the benchmark.
struct Span {
  std::string name;
  std::int64_t op = -1;
  int parent = -1;
  double start = 0.0;
  double end = 0.0;
  bool derived = false;

  [[nodiscard]] double duration() const noexcept { return end - start; }
};

/// Length of the union of `intervals` clipped to [lo, hi].
[[nodiscard]] inline double covered_length(
    std::vector<std::pair<double, double>> intervals, double lo, double hi) {
  for (auto& [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    const double from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return covered;
}

/// Self time of spans[index]: its duration minus the part of it that its
/// direct children cover. Overlapping children count once; the parts of
/// a child outside the parent do not count.
[[nodiscard]] inline double self_time(const std::vector<Span>& spans,
                                      std::size_t index) {
  const Span& span = spans.at(index);
  std::vector<std::pair<double, double>> children;
  for (const Span& s : spans) {
    if (s.parent == static_cast<int>(index)) {
      children.emplace_back(s.start, s.end);
    }
  }
  return span.duration() -
         covered_length(std::move(children), span.start, span.end);
}

/// Facade time outside the algorithm and the value evaluation:
/// validation, index build and oracle set-up.
[[nodiscard]] inline double residual(double solve_s, double algorithm_s,
                                     double radius_s) {
  return solve_s - algorithm_s - radius_s;
}

/// Time a service request spent resident but neither solving nor
/// encoding: queueing and dispatch.
[[nodiscard]] inline double queue_wait(double residence_s, double solve_s,
                                       double encode_s) {
  return residence_s - solve_s - encode_s;
}

/// Process CPU over the capacity of `width` threads for `wall_s`.
[[nodiscard]] inline double busy_share(double cpu_s, double wall_s, int width) {
  if (wall_s <= 0.0 || width <= 0) return 0.0;
  return cpu_s / (wall_s * static_cast<double>(width));
}

/// Median traced op over median untraced op, minus one; 0 when either
/// side has no samples.
[[nodiscard]] inline double overhead_share(
    const std::vector<double>& traced, const std::vector<double>& untraced) {
  if (traced.empty() || untraced.empty()) return 0.0;
  return median(traced) / median(untraced) - 1.0;
}

/// numerator / denominator, 0 for an empty denominator.
[[nodiscard]] inline double share(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

}  // namespace perfbench
